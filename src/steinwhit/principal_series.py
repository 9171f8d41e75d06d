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
coset p . I).  A coset term g . rep is one minors pass (the O(n^3)
fraction-free elimination ``padic._minors_pass``) on the unreduced rows
of g . rep from ``padic._times``, the product kernel for reused right
factors (the other, ``padic._combined``, serves the witness products used
once), which reads g's stored integer rows (``PAdicMatrix.rows``) under
the representative's integer column form, built once per cached
representative: ``_coset_passes``, the one source of coset terms, behind
``apply_generator`` and ``_check_identities``, the identity engine of
``run_eigen_checks`` and ``whittaker.verify_functional_equations``.
The functions here read only each pass's label; the whittaker suite
forms psi from its phase terms, and only on the support.  A coset sum is
one accumulation of its terms' values into one new term map
(``PhaseSum._sum``), not a fold of ``+``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .affine_weyl import ExtAffineElement, realize
from .padic import PAdicMatrix, _minors_pass, _p_power, _times, cell_label, matrix_to_json
from .reporting import CheckResult
from .sampling import random_group_element
from .values import PhaseSum
from .weyl import Permutation, all_permutations

__all__ = [
    "InducedFunction",
    "apply_generator",
    "generator_cosets",
    "run_eigen_checks",
]


class InducedFunction:
    """Iwahori-fixed function with one PhaseSum coefficient per w."""

    __slots__ = ("n", "p", "eps_exp", "coeffs", "_zero")

    def __init__(self, n: int, p: int, eps_exp: int, coeffs: dict[Permutation, PhaseSum]):
        self.n = n
        self.p = p
        self.eps_exp = eps_exp % n
        self.coeffs = dict(coeffs)
        self._zero = PhaseSum.zero(n, p)  # the value off the support, shared

    @classmethod
    def casselman(cls, w: Permutation, p: int, eps_exp: int) -> "InducedFunction":
        """The basis function supported on the cells of a single w."""
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
        return self._label_value(cell_label(g))

    def _label_value(self, label: tuple) -> PhaseSum:
        """The value on the cell of a label (kbar, w), or of a minors pass
        (kbar, w, terms): the function is left N-invariant, so psi plays no part."""
        kbar, w = label[0], label[1]
        coeff = self.coeffs.get(w)
        if coeff is None:
            return self._zero
        ksum = sum(kbar)
        q_exp = -sum((self.n + 1 - 2 * i) * k for i, k in enumerate(kbar, start=1))
        return coeff.times_monomial(Fraction(*_p_power(self.p, q_exp)), self.eps_exp * ksum)


@functools.lru_cache(maxsize=128)
def generator_cosets(n: int, p: int, gen) -> tuple[PAdicMatrix, ...]:
    """Right coset representatives of J gen J modulo J.

    gen is 1..n-1 for the finite reflections (p representatives
    x_{i,i+1}(t) s_i, t = 0..p-1), 0 for the affine reflection
    (p representatives x_{n,1}(p t) s_0), the string "rotation"
    (a single coset, the double coset being one-sided), or the string
    "center" (the single coset of the central scalar p . I).

    The result is cached per (n, p, gen) and immutable: a tuple of frozen
    matrices, shared by every caller, each keeping its column form as a
    right factor once built.
    """
    if gen == "rotation":
        return (realize(ExtAffineElement.rotation(n), p),)
    if gen == "center":
        return (PAdicMatrix.diagonal(p, [p] * n),)
    i = int(gen)
    if not 0 <= i < n:
        raise ValueError(f"generator index out of range: {i}")
    if i == 0:
        s0 = realize(ExtAffineElement.simple_reflection(n, 0), p)
        return tuple(PAdicMatrix.one_param(p, n, n, 1, p * t) * s0 for t in range(p))
    si = PAdicMatrix.permutation(p, Permutation.simple(n, i))
    return tuple(PAdicMatrix.one_param(p, n, i, i + 1, t) * si for t in range(p))


def _coset_passes(rows, n: int, p: int, gen) -> list[tuple]:
    """The minors pass (kbar, w, phase terms) of each coset term g . rep,
    rep over ``generator_cosets(n, p, gen)``, from g's rows ``g.rows``."""
    return [_minors_pass(_times(rows, rep), p) for rep in generator_cosets(n, p, gen)]


def _affine_cosets_by_conjugation(n: int, p: int) -> list[PAdicMatrix]:
    """Affine-reflection representatives via rotation conjugation.

    Conjugating the finite representatives x_{1,2}(t) s_1 by the
    rotation matrix must land exactly on the direct list.
    """
    rotation = ExtAffineElement.rotation(n)
    u, u_inv = realize(rotation, p), realize(rotation.inverse(), p)
    s1 = PAdicMatrix.permutation(p, Permutation.simple(n, 1))
    return [u * PAdicMatrix.one_param(p, n, 1, 2, t) * s1 * u_inv for t in range(p)]


def apply_generator(func: InducedFunction, gen, g: PAdicMatrix) -> PhaseSum:
    """Value of the convolution operator for gen on func, at g."""
    if (g.n, g.p) != (func.n, func.p):
        raise ValueError("matrix context mismatch")
    passes = _coset_passes(g.rows, g.n, g.p, gen)
    return func._zero._sum(map(func._label_value, passes))


def _check_identities(
    n: int, p: int, samples: int, seed: int, identities: list, value_at
) -> list[CheckResult]:
    """Check each identity sum_rep f(g . rep) = c eps^e f(g) over the cosets
    of a generator, given as (check name, f on the cell of a minors pass,
    gen, (c, e), text of each side), at the identity matrix and at
    ``samples`` points drawn from ``seed``: one ``CheckResult`` each.

    Each coset term is one minors pass on the point's stored rows, shared
    by every identity on its generator.  ``value_at(g)`` maps an
    identity's cell function to f(g), read once per point.  A failed check
    records in its detail the first point where it failed (point 0 is the
    identity) as CLI JSON, and both sides of the identity there.
    """
    rng = random.Random(seed)
    points = [PAdicMatrix.identity(n, p)] + [random_group_element(rng, n, p) for _ in range(samples)]
    zero = PhaseSum.zero(n, p)
    details: dict[str, str] = {}  # the first failure of each check
    for k, g in enumerate(points):
        f_at_g, rows, passes = value_at(g), g.rows, {}
        for name, cell, gen, (c, e), (lhs_text, rhs_text) in identities:
            if gen not in passes:
                passes[gen] = _coset_passes(rows, n, p, gen)
            lhs, rhs = zero._sum(map(cell, passes[gen])), f_at_g(cell).times_monomial(c, e)
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
    first failing (i, w) and both sides."""
    casselman = {w: InducedFunction.casselman(w, p, eps_exp) for w in all_permutations(n)}
    one, zero, hit = PAdicMatrix.identity(n, p), PhaseSum.zero(n, p), PhaseSum.monomial(n, p, p)
    for i in range(1, n):
        passes, si = _coset_passes(one.rows, n, p, i), Permutation.simple(n, i)
        for w, f in casselman.items():
            lhs = zero._sum(map(f._label_value, passes))
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

    The eigen-identities of minus and plus go through ``_check_identities``,
    with f(g) from one ``cell_label(g)`` per point; the fixed checks follow.
    """
    minus = InducedFunction.eigenvector(n, p, eps_exp, "minus")
    plus = InducedFunction.eigenvector(n, p, eps_exp, "plus")
    sign = (-1) ** (n - 1)
    identities = [
        (f"minus-eigenvalue:reflection[{i}]", minus._label_value, i, (-1, 0),
         (f"sum of minus(g rep) over the cosets of s_{i}", "-minus(g)")) for i in range(n)
    ]
    identities.append(("minus-eigenvalue:rotation", minus._label_value, "rotation", (sign, eps_exp),
                       ("minus(g u)", f"{'-' if sign < 0 else ''}eps^{eps_exp} minus(g)")))
    identities += [
        (f"plus-eigenvalue:reflection[{i}]", plus._label_value, i, (p, 0),
         (f"sum of plus(g rep) over the cosets of s_{i}", f"{p} plus(g)")) for i in range(1, n)
    ]

    def value_at(g: PAdicMatrix):
        label = cell_label(g)
        return lambda cell: cell(label)

    results = _check_identities(n, p, samples, seed, identities, value_at)

    # The fixed checks; a failure names where it failed and both sides.
    one = PAdicMatrix.identity(n, p)
    lhs = apply_generator(plus, "rotation", one)
    rhs = plus.eval(one).times_monomial(sign, eps_exp)
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
