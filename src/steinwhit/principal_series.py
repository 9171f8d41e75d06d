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
representatives, listed by ``generator_cosets``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .affine_weyl import ExtAffineElement, realize
from .padic import PAdicMatrix, cell_label
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

    __slots__ = ("n", "p", "eps_exp", "coeffs")

    def __init__(self, n: int, p: int, eps_exp: int, coeffs: dict[Permutation, PhaseSum]):
        self.n = n
        self.p = p
        self.eps_exp = eps_exp % n
        self.coeffs = dict(coeffs)

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
        kbar, w = cell_label(g)
        coeff = self.coeffs.get(w)
        if coeff is None:
            return PhaseSum.zero(self.n, self.p)
        ksum = sum(kbar)
        q_exp = -sum((self.n + 1 - 2 * i) * k for i, k in enumerate(kbar, start=1))
        return coeff.times_monomial(Fraction(self.p) ** q_exp, self.eps_exp * ksum)


@functools.lru_cache(maxsize=128)
def generator_cosets(n: int, p: int, gen) -> tuple[PAdicMatrix, ...]:
    """Right coset representatives of J gen J modulo J.

    gen is 1..n-1 for the finite reflections (p representatives
    x_{i,i+1}(t) s_i, t = 0..p-1), 0 for the affine reflection
    (p representatives x_{n,1}(p t) s_0), or the string "rotation"
    (a single coset, the double coset being one-sided).

    The result is cached per (n, p, gen) and immutable: a tuple of frozen
    matrices, shared by every caller.
    """
    if gen == "rotation":
        return (realize(ExtAffineElement.rotation(n), p),)
    i = int(gen)
    if not 0 <= i < n:
        raise ValueError(f"generator index out of range: {i}")
    if i == 0:
        s0 = realize(ExtAffineElement.simple_reflection(n, 0), p)
        return tuple(PAdicMatrix.one_param(p, n, n, 1, p * t) * s0 for t in range(p))
    si = PAdicMatrix.permutation(p, Permutation.simple(n, i))
    return tuple(PAdicMatrix.one_param(p, n, i, i + 1, t) * si for t in range(p))


def _affine_cosets_by_conjugation(n: int, p: int) -> list[PAdicMatrix]:
    """Affine-reflection representatives via rotation conjugation.

    Conjugating the finite representatives x_{1,2}(t) s_1 by the
    rotation matrix must land exactly on the direct list.
    """
    u = realize(ExtAffineElement.rotation(n), p)
    u_inv = u.inverse()
    s1 = PAdicMatrix.permutation(p, Permutation.simple(n, 1))
    return [u * PAdicMatrix.one_param(p, n, 1, 2, t) * s1 * u_inv for t in range(p)]


def apply_generator(func: InducedFunction, gen, g: PAdicMatrix) -> PhaseSum:
    """Value of the convolution operator for gen on func, at g."""
    out = PhaseSum.zero(func.n, func.p)
    for rep in generator_cosets(func.n, func.p, gen):
        out = out + func.eval(g * rep)
    return out


def run_eigen_checks(
    n: int,
    p: int,
    eps_exp: int,
    samples: int = 50,
    seed: int = 0,
) -> list[CheckResult]:
    """Eigenvector dichotomy checks at the identity plus random points."""
    rng = random.Random(seed)
    points = [PAdicMatrix.identity(n, p)]
    points += [random_group_element(rng, n, p) for _ in range(samples)]

    minus = InducedFunction.eigenvector(n, p, eps_exp, "minus")
    plus = InducedFunction.eigenvector(n, p, eps_exp, "plus")
    results = []

    for i in range(n):
        ok = all(
            apply_generator(minus, i, g) == minus.eval(g).scaled(-1) for g in points
        )
        results.append(CheckResult(f"minus-eigenvalue:reflection[{i}]", ok))

    sign = (-1) ** (n - 1)
    ok = all(
        apply_generator(minus, "rotation", g)
        == minus.eval(g).times_monomial(sign, eps_exp)
        for g in points
    )
    results.append(CheckResult("minus-eigenvalue:rotation", ok))

    for i in range(1, n):
        ok = all(
            apply_generator(plus, i, g) == plus.eval(g).scaled(p) for g in points
        )
        results.append(CheckResult(f"plus-eigenvalue:reflection[{i}]", ok))

    one = PAdicMatrix.identity(n, p)
    lhs = apply_generator(plus, "rotation", one)
    rhs = plus.eval(one).times_monomial(sign, eps_exp)
    results.append(CheckResult("plus-rotation-fails-at-identity", lhs != rhs))

    direct = generator_cosets(n, p, 0)
    conjugated = _affine_cosets_by_conjugation(n, p)
    ok = len(direct) == len(conjugated) and all(
        a == b for a, b in zip(direct, conjugated)
    )
    results.append(CheckResult("affine-cosets-by-conjugation", ok))

    ok = True
    for w_support in all_permutations(n):
        f = InducedFunction.casselman(w_support, p, eps_exp)
        for i in range(1, n):
            val = apply_generator(f, i, one)
            expected = (
                PhaseSum.monomial(n, p, p)
                if w_support == Permutation.simple(n, i)
                else PhaseSum.zero(n, p)
            )
            ok = ok and val == expected
    results.append(CheckResult("casselman-triangularity", ok))

    return results
