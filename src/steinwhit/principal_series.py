"""Iwahori-fixed vectors of the unramified twisted principal series.

A function in the model is determined by one cyclotomic-valued
coefficient per finite permutation w: it takes the value

    coeff(w) * eps^(e * sum(kbar)) * q^(-sum_i (n+1-2i) * kbar_i)

on the cell with label (kbar, w), where eps is a primitive n-th root of
unity and e is the twist exponent.  The basis function supported on a
single w is ``casselman``; the two distinguished combinations are

    minus:  sum_w (-q)^(-len(w)) f_w      (eigenvector for every
            generator: eigenvalue -1 for each reflection, including the
            affine one, and (-1)^(n-1) eps^e for the rotation),
    plus:   sum_w f_w                      (eigenvalue q for the finite
            reflections only; the rotation identity fails).

Convolution operators act by right translation over explicit coset
representatives, listed by ``generator_cosets`` (the centre is the one
coset p . I).  Each coset term g . rep is one ``minors._minors_pass`` on
the rows that ``padic._times`` gives for g . rep: ``_coset_passes`` is
the one source of coset terms, behind ``apply_generator`` and
``_check_identities``.  The functions here read only each pass's label.
A coset sum is one ``PhaseSum._sum`` of its terms' values, each built
unchecked from the coefficients that ``InducedFunction`` checked once
(``_label_value``).

``_check_identities`` is the identity engine of ``run_eigen_checks`` and
``whittaker.verify_functional_equations``.  It takes a list of points
and, per identity, f on the cell of a minors pass and f's values at
those points, computed by the caller; it neither draws points nor calls
back into a suite.  The suites draw their points from ``_sample_points``
(the identity matrix, then seeded random group elements); any other
list of points of one (n, p), such as the n! permutation matrices,
runs through the same engine.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .affine_weyl import ExtAffineElement, realize
from .minors import _minors_pass, cell_label
from .padic import PAdicMatrix, _times, matrix_to_json
from .reporting import CheckResult
from .sampling import random_group_element
from .values import PhaseSum
from .weyl import Permutation, _check_int, _check_type, _torus_character, all_permutations

__all__ = [
    "InducedFunction",
    "apply_generator",
    "generator_cosets",
    "run_eigen_checks",
]


class InducedFunction:
    """Iwahori-fixed function with one PhaseSum coefficient per w.

    The constructor checks its input once: every key a ``Permutation`` of
    size n and every coefficient a ``PhaseSum`` of context (n, p), and an
    ``int`` eps exponent (``bool`` refused); a wrong type raises TypeError,
    a wrong size or context ValueError.  The values on the cells are then
    built from the coefficients unchecked.
    """

    __slots__ = ("n", "p", "eps_exp", "coeffs", "_zero")

    def __init__(self, n: int, p: int, eps_exp: int, coeffs: dict[Permutation, PhaseSum]):
        zero = PhaseSum.zero(n, p)  # checks n and p; the value off the support, shared
        _check_int("eps_exp", eps_exp)
        coeffs = dict(coeffs)
        for w, c in coeffs.items():
            if not isinstance(w, Permutation) or type(c) is not PhaseSum:
                raise TypeError(f"a coefficient must be Permutation: PhaseSum, not {w!r}: {c!r}")
            if w.n != n or (c.n, c.p) != (n, p):
                raise ValueError(f"coefficient {w!r}: {c!r} is not of context ({n}, {p})")
        self.n = n
        self.p = p
        self.eps_exp = eps_exp % n
        self.coeffs = coeffs
        self._zero = zero

    @classmethod
    def casselman(cls, w: Permutation, p: int, eps_exp: int) -> "InducedFunction":
        """The basis function supported on the cells of a single w, a
        ``Permutation``."""
        _check_type("w", w, Permutation)
        n = w.n
        return cls(n, p, eps_exp, {w: PhaseSum.monomial(n, p, 1)})

    @classmethod
    def eigenvector(cls, n: int, p: int, eps_exp: int, kind: str) -> "InducedFunction":
        if kind not in ("minus", "plus"):
            raise ValueError(f"kind must be 'minus' or 'plus', got {kind!r}")
        coeffs = {}
        for w in all_permutations(n):
            if kind == "minus":
                ell = w.length()
                c = Fraction((-1) ** ell, p**ell)
            else:
                c = Fraction(1)
            coeffs[w] = PhaseSum.monomial(n, p, c)
        return cls(n, p, eps_exp, coeffs)

    def eval(self, g: PAdicMatrix) -> PhaseSum:
        _check_type("g", g, PAdicMatrix)
        return self._label_value(cell_label(g))

    def _label_value(self, label: tuple) -> PhaseSum:
        """The value on the cell of a label (kbar, w), or of a minors pass
        (kbar, w, terms): the function is left N-invariant, so psi plays no part.

        coeff(w) q^{q_exp} eps^{e sum(kbar)} shifts every key of coeff(w)
        by a bijection and scales every coefficient by the integer p^q_exp
        (or divides it by p^-q_exp), so the terms stay canonical and are
        wrapped unchecked; ``__init__`` checked the coefficients' context.
        """
        kbar, w = label[0], label[1]
        coeff = self.coeffs.get(w)
        if coeff is None:
            return self._zero
        n, p = self.n, self.p
        ksum, q_exp = _torus_character(kbar)
        e = self.eps_exp * ksum
        if q_exp >= 0:
            up = p**q_exp
            return coeff._wrap({((ee + e) % n, t): c * up for (ee, t), c in coeff._terms.items()})
        down = p**-q_exp
        return coeff._wrap({((ee + e) % n, t): c / down for (ee, t), c in coeff._terms.items()})


@functools.lru_cache(maxsize=128, typed=True)
def generator_cosets(n: int, p: int, gen) -> tuple[PAdicMatrix, ...]:
    """Right coset representatives of J gen J modulo J.

    gen is the string "rotation" (a single coset, the double coset being
    one-sided), the string "center" (the single coset of the central
    scalar p . I), or a reflection index 0..n-1, an ``int`` (``bool``
    refused, TypeError; out of range, ValueError).  Every reflection has
    p representatives x(step t) s_i, t = 0..p-1, built by one rule: s_i is
    ``realize``d from the affine Weyl group, and x is the root element at
    (i, i + 1) with step 1 for a finite s_i, at (n, 1) with step p for the
    affine s_0.

    The result is cached per (n, p, gen), types included (``typed=True``),
    and immutable: a tuple of frozen matrices, shared by every caller,
    each keeping its column form as a right factor once built.
    """
    _check_int("n", n, 1)
    if gen == "rotation":
        return (realize(ExtAffineElement.rotation(n), p),)
    if gen == "center":
        return (PAdicMatrix.diagonal(p, [p] * n),)
    _check_int("gen", gen)
    if not 0 <= gen < n:
        raise ValueError(f"generator index out of range: {gen}")
    si = realize(ExtAffineElement.simple_reflection(n, gen), p)
    (i, j), step = ((n, 1), p) if gen == 0 else ((gen, gen + 1), 1)
    return tuple(PAdicMatrix.one_param(p, n, i, j, step * t) * si for t in range(p))


def _coset_passes(rows, n: int, p: int, gen) -> list[tuple]:
    """The minors pass (kbar, w, phase terms) of each coset term g . rep,
    rep over ``generator_cosets(n, p, gen)``, from g's rows ``g.rows``."""
    return [_minors_pass(_times(rows, rep), p) for rep in generator_cosets(n, p, gen)]


def _affine_cosets_by_conjugation(n: int, p: int) -> list[PAdicMatrix]:
    """Affine-reflection representatives via rotation conjugation.

    Conjugating the finite representatives x_{1,2}(t) s_1 of
    ``generator_cosets(n, p, 1)`` by the rotation matrix must land exactly
    on the direct list.
    """
    rotation = ExtAffineElement.rotation(n)
    u, u_inv = realize(rotation, p), realize(rotation.inverse(), p)
    return [u * rep * u_inv for rep in generator_cosets(n, p, 1)]


def apply_generator(func: InducedFunction, gen, g: PAdicMatrix) -> PhaseSum:
    """Value of the convolution operator for gen on func, at g."""
    _check_type("func", func, InducedFunction)
    _check_type("g", g, PAdicMatrix)
    if (g.n, g.p) != (func.n, func.p):
        raise ValueError("matrix context mismatch")
    passes = _coset_passes(g.rows, g.n, g.p, gen)
    return func._zero._sum(map(func._label_value, passes))


def _sample_points(n: int, p: int, samples: int, seed: int) -> list[PAdicMatrix]:
    """The suites' points: the identity matrix, then ``samples`` draws of
    ``random_group_element`` from ``random.Random(seed)``.  ``samples`` is
    an ``int`` >= 0 and ``seed`` an ``int`` (else TypeError, ValueError),
    so that a seed named in a failure record replays its points."""
    _check_int("samples", samples, 0)
    _check_int("seed", seed)
    rng = random.Random(seed)
    return [PAdicMatrix.identity(n, p)] + [random_group_element(rng, n, p) for _ in range(samples)]


def _check_identities(points: list[PAdicMatrix], seed: int, identities: list) -> list[CheckResult]:
    """Check each identity sum_rep f(g . rep) = c eps^e f(g) over the cosets
    of a generator at every point g of ``points``, one (n, p) for all:
    one ``CheckResult`` each.  An identity is (check name, f on the cell of
    a minors pass, f_at, gen, (c, e), text of each side), with ``f_at[k]``
    the value f(points[k]).

    Each coset term is one minors pass on the point's stored rows, shared
    by every identity on its generator.  A failed check records in its
    detail the first point k where it failed, with ``seed`` (read only for
    that text), the point as CLI JSON and both sides of the identity there.
    """
    n, p = points[0].n, points[0].p
    zero = PhaseSum.zero(n, p)
    details: dict[str, str] = {}  # the first failure of each check
    for k, g in enumerate(points):
        rows, passes = g.rows, {}
        for name, cell, f_at, gen, (c, e), (lhs_text, rhs_text) in identities:
            if gen not in passes:
                passes[gen] = _coset_passes(rows, n, p, gen)
            lhs, rhs = zero._sum(map(cell, passes[gen])), f_at[k].times_monomial(c, e)
            if lhs != rhs and name not in details:
                details[name] = (
                    f"point {k} (seed {seed}): g = {matrix_to_json(g)}; "
                    f"{lhs_text} = {lhs!r}; {rhs_text} = {rhs!r}"
                )
    return [CheckResult(name, name not in details, details.get(name, "")) for name, *_ in identities]


def _casselman_triangularity(n: int, p: int, eps_exp: int) -> str:
    """Check apply_generator(f_w, i, 1) = p [w = s_i] for every Casselman
    function f_w and finite reflection i, with the coset terms at the
    identity read once per generator: '' if it holds everywhere, else the
    first failing (i, w) and both sides.

    Each coset term lies in one cell, so the sum is 0 for every w that no
    coset of s_i reaches, and such a w != s_i cannot fail.  Only the
    reached w and s_i are built and checked, in window order, the order of
    ``all_permutations``, so the first failure is the one that a loop over
    all n! w finds."""
    one, zero, hit = PAdicMatrix.identity(n, p), PhaseSum.zero(n, p), PhaseSum.monomial(n, p, p)
    for i in range(1, n):
        passes, si = _coset_passes(one.rows, n, p, i), Permutation.simple(n, i)
        for w in sorted({label[1] for label in passes} | {si}):
            lhs = zero._sum(map(InducedFunction.casselman(w, p, eps_exp)._label_value, passes))
            rhs = hit if w == si else zero
            if lhs != rhs:
                return (f"generator {i}, w = {w.window}: "
                        f"sum of f_w(rep) over the cosets of s_{i} = {lhs!r}; expected {rhs!r}")
    return ""


def run_eigen_checks(
    n: int,
    p: int,
    eps_exp: int,
    samples: int = 50,
    seed: int = 0,
) -> list[CheckResult]:
    """Eigenvector dichotomy checks at the identity plus random points.

    The eigen-identities of minus and plus go through ``_check_identities``
    at the points of ``_sample_points``, with both functions' values read
    from one ``cell_label`` per point; the fixed checks follow.
    """
    minus = InducedFunction.eigenvector(n, p, eps_exp, "minus")
    plus = InducedFunction.eigenvector(n, p, eps_exp, "plus")
    points = _sample_points(n, p, samples, seed)
    labels = [cell_label(g) for g in points]
    minus_at, plus_at = [minus._label_value(x) for x in labels], [plus._label_value(x) for x in labels]
    sign = (-1) ** (n - 1)
    identities = [
        (f"minus-eigenvalue:reflection[{i}]", minus._label_value, minus_at, i, (-1, 0),
         (f"sum of minus(g rep) over the cosets of s_{i}", "-minus(g)")) for i in range(n)
    ]
    identities.append(("minus-eigenvalue:rotation", minus._label_value, minus_at, "rotation", (sign, eps_exp),
                       ("minus(g u)", f"{'-' if sign < 0 else ''}eps^{eps_exp} minus(g)")))
    identities += [
        (f"plus-eigenvalue:reflection[{i}]", plus._label_value, plus_at, i, (p, 0),
         (f"sum of plus(g rep) over the cosets of s_{i}", f"{p} plus(g)")) for i in range(1, n)
    ]
    results = _check_identities(points, seed, identities)

    # The fixed checks, at the identity points[0]; a failure names where it failed and both sides.
    lhs = apply_generator(plus, "rotation", points[0])
    rhs = plus_at[0].times_monomial(sign, eps_exp)
    detail = "" if lhs != rhs else f"plus(u) = {lhs!r} equals {'-' if sign < 0 else ''}eps^{eps_exp} plus(1) = {rhs!r}"
    results.append(CheckResult("plus-rotation-fails-at-identity", not detail, detail))

    direct, conjugated = list(generator_cosets(n, p, 0)), _affine_cosets_by_conjugation(n, p)
    detail = ""
    if direct != conjugated:
        t = next((t for t, (a, b) in enumerate(zip(direct, conjugated)) if a != b), None)
        detail = (
            f"{len(direct)} direct representatives, {len(conjugated)} by conjugation" if t is None
            else f"t = {t}: direct {matrix_to_json(direct[t])}; by conjugation {matrix_to_json(conjugated[t])}"
        )
    results.append(CheckResult("affine-cosets-by-conjugation", not detail, detail))

    detail = _casselman_triangularity(n, p, eps_exp)
    results.append(CheckResult("casselman-triangularity", not detail, detail))
    return results
