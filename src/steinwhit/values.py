"""Exact values: rational combinations of root-of-unity phases.

Function values in this package live in the group ring

    Q[E/n][zeta_{p^inf}],

where ``eps`` is a formal n-th root of unity (exponents kept mod n, no
further relations) and phases are p-power roots of unity written as
rationals in [0, 1) with p-power denominator: the pair (e, t) stands for
eps^e . exp(2 pi i t).  Coefficients are exact rationals; powers of q
enter numerically as powers of p.

Zero testing is exact.  Within each eps class the phases generate the
cyclotomic field Q(zeta_{p^M}); exponents at or above (p-1) p^{M-1} are
rewritten through the minimal polynomial relation

    zeta^{(p-1) p^{M-1}} = -(1 + zeta^{p^{M-1}} + ... + zeta^{(p-2) p^{M-1}}),

after which the surviving exponents form a Z-basis, so the sum vanishes
exactly when every coefficient does.  Distinct eps classes never mix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = ["PhaseSum"]

Rational = Union[int, Fraction]
_ZERO = Fraction(0)


def _phase_ok(phase: Fraction, p: int) -> bool:
    den = phase.denominator
    while den % p == 0:
        den //= p
    return den == 1


class PhaseSum:
    """Finite sum of terms coeff . eps^e . exp(2 pi i t).

    The terms are kept canonical: every key (e, t) has 0 <= e < n and t a
    rational in [0, 1) with p-power denominator, and every coefficient is
    a nonzero ``Fraction``.  Terms from outside the class are validated by
    ``_add_term``; the internal arithmetic (``+``, ``-``, negation,
    ``times_monomial``) starts from canonical terms, so it
    copies them and only drops coefficients that cancel.
    """

    __slots__ = ("n", "p", "_terms")

    def __init__(self, n: int, p: int, terms: Mapping[tuple[int, Fraction], Rational] | None = None):
        self.n = n
        self.p = p
        self._terms: dict[tuple[int, Fraction], Fraction] = {}
        if terms:
            for (e, t), c in terms.items():
                self._add_term(e, t, c)

    def _add_term(self, eps_exp: int, phase: Rational, coeff: Rational) -> None:
        coeff = Fraction(coeff)
        if coeff == 0:
            return
        phase = Fraction(phase) % 1
        if not _phase_ok(phase, self.p):
            raise ValueError(f"phase {phase} is not a p-power root of unity at p={self.p}")
        key = (eps_exp % self.n, phase)
        new = self._terms.get(key, Fraction(0)) + coeff
        if new == 0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    @classmethod
    def zero(cls, n: int, p: int) -> "PhaseSum":
        return cls(n, p)

    @classmethod
    def monomial(cls, n: int, p: int, coeff: Rational, eps_exp: int = 0, phase: Rational = 0) -> "PhaseSum":
        out = cls(n, p)
        out._add_term(eps_exp, phase, coeff)
        return out

    @classmethod
    def _canonical(cls, n: int, p: int, terms: dict[tuple[int, Fraction], Fraction]) -> "PhaseSum":
        """Wrap terms that are already canonical, without validating them."""
        out = cls.__new__(cls)
        out.n, out.p, out._terms = n, p, terms
        return out

    def _check(self, other: "PhaseSum") -> None:
        if self.n != other.n or self.p != other.p:
            raise ValueError("value context mismatch")

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        self._check(other)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            new = terms.get(key, _ZERO) + c
            if new:
                terms[key] = new
            else:
                del terms[key]
        return PhaseSum._canonical(self.n, self.p, terms)

    def __neg__(self) -> "PhaseSum":
        return PhaseSum._canonical(self.n, self.p, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "PhaseSum") -> "PhaseSum":
        return self + (-other)

    def times_monomial(self, coeff: Rational = 1, eps_exp: int = 0, phase: Rational = 0) -> "PhaseSum":
        """Multiply by coeff . eps^eps_exp . exp(2 pi i phase).

        The key shift (e, t) -> (e + eps_exp, t + phase) is a bijection, so
        no two terms merge; a nonzero phase is validated once, as soon as
        there is a nonzero term to carry it.
        """
        coeff = Fraction(coeff)
        if coeff == 0 or not self._terms:
            return PhaseSum.zero(self.n, self.p)
        if phase:
            phase = Fraction(phase) % 1
            if not _phase_ok(phase, self.p):
                raise ValueError(f"phase {phase} is not a p-power root of unity at p={self.p}")
        n = self.n
        return PhaseSum._canonical(n, self.p, {
            ((e + eps_exp) % n, (t + phase) % 1 if phase else t): c * coeff
            for (e, t), c in self._terms.items()
        })

    def terms(self) -> Iterable[tuple[tuple[int, Fraction], Fraction]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        by_eps: dict[int, dict[Fraction, Fraction]] = {}
        for (e, t), c in self._terms.items():
            by_eps.setdefault(e, {})[t] = c
        return all(self._class_is_zero(cls_terms) for cls_terms in by_eps.values())

    def _class_is_zero(self, terms: dict[Fraction, Fraction]) -> bool:
        p = self.p
        big_m = 0
        for t in terms:
            den, m = t.denominator, 0
            while den > 1:
                den //= p
                m += 1
            big_m = max(big_m, m)
        if big_m == 0:
            return sum(terms.values(), Fraction(0)) == 0
        order = p**big_m
        coeffs = [Fraction(0)] * order
        for t, c in terms.items():
            coeffs[int(t * order)] += c
        threshold = (p - 1) * p ** (big_m - 1)
        step = p ** (big_m - 1)
        for t in range(order - 1, threshold - 1, -1):
            c = coeffs[t]
            if c:
                coeffs[t] = Fraction(0)
                for i in range(p - 1):
                    coeffs[t - threshold + i * step] -= c
        return all(c == 0 for c in coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseSum):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("PhaseSum is unhashable; compare with ==")

    def __repr__(self) -> str:
        if not self._terms:
            return f"PhaseSum({self.n}, {self.p}, 0)"
        bits = []
        for (e, t), c in self.terms():
            part = str(c)
            if e:
                part += f"*eps^{e}"
            if t:
                part += f"*zeta({t})"
            bits.append(part)
        return f"PhaseSum({self.n}, {self.p}, {' + '.join(bits)})"
