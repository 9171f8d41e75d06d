"""Exact values: rational combinations of root-of-unity phases.

Function values in this package live in the group ring

    Q[E/n][zeta_{p^inf}],

where ``eps`` is a formal n-th root of unity (exponents kept mod n, no
further relations) and phases are p-power roots of unity: the key
(e, (a, d)) stands for eps^e . exp(2 pi i a/d), with d = p^u and a/d in
[0, 1) in lowest terms (phase 0 is (0, 1)).  The key is canonical, so
equal phases are equal keys, hashed and compared as small integers.
Phases enter as ``int`` or ``Fraction`` and leave (``terms``, ``repr``)
as ``Fraction``; a product of phases is added in integers over the
larger p-power and reduced to lowest terms again.  Coefficients are
exact rationals; powers of q enter numerically as powers of p.

Zero testing is exact and sparse, for p prime (the constructors refuse
any other p).  Within each eps class let p^M be the
largest phase denominator and zeta = exp(2 pi i / p^M).  For M >= 1 the
powers zeta^r, 0 <= r < p^{M-1}, are a basis of Q(zeta) over Q(zeta_p),
and the only Q-relation among 1, zeta_p, ..., zeta_p^{p-1} is that their
sum vanishes.  So sum_t c_t zeta^t (t mod p^M) is zero exactly when,
for every residue r mod p^{M-1}, the coset terms t = r + j p^{M-1},
j = 0..p-1, are all absent or all p present with equal coefficients.
That costs one pass over the terms, however large p^M is.  For M = 0
the class is zero when its coefficients sum to zero.  Distinct eps
classes never mix.

``PhaseSum`` and the two formal-q rings of ``hecke`` are sparse sums on
one core, ``_TermMap``: one add-and-cancel rule (``_merge``), one ``+``,
one accumulator for a sum of many (``_sum``: one new dict, one ``_merge``
per summand), negation, ``-``, context check and hash refusal.  The rings
are checked at their boundary (constructors, ``monomial`` and
``times_monomial`` refuse an exponent that is not an ``int``, ``bool``
included, and a coefficient of another type) and unchecked inside
(``_wrap``).  Equal canonical terms are equal elements, so ``PhaseSum``
equality compares the terms first and runs the zero test of the
difference only when they differ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .padic import _check_prime, _int_valuation
from .weyl import _check_int

__all__ = ["PhaseSum"]

Rational = Union[int, Fraction]
_RATIONAL = (int, Fraction)
_NO_PHASE = Fraction(0)


def _reduced_phase(a: int, d: int, p: int) -> tuple[int, int]:
    """The canonical key of the phase a/d mod 1, d a power of p: a/d reduced
    into [0, 1) and to lowest terms, (0, 1) for phase 0."""
    a %= d
    if not a:
        return 0, 1
    while not a % p:
        a, d = a // p, d // p
    return a, d


def _check_monomial(eps_exp: int, phase: Rational, coeff: Rational) -> None:
    """TypeError unless eps_exp is an ``int`` and phase and coeff are each an
    ``int`` or a ``Fraction``; types compare exactly, so ``bool`` is refused."""
    if type(eps_exp) is not int or type(phase) not in _RATIONAL or type(coeff) not in _RATIONAL:
        raise TypeError(f"need an int eps exponent, int or Fraction phase and coefficient: "
                        f"{eps_exp!r}, {phase!r}, {coeff!r}")


def _merge(terms: dict, pairs: Iterable[tuple]) -> None:
    """Add each (key, c) of ``pairs``, c nonzero, into ``terms``, deleting a
    key whose coefficient cancels: the one add-and-cancel rule of the term
    maps.  A key already present keeps its place and a new key goes last,
    so insertion order is kept (``HeckeElement.__repr__`` reads it)."""
    for key, c in pairs:
        old = terms.get(key)
        if old is not None:
            c = old + c
            if not c:
                del terms[key]
                continue
        terms[key] = c


class _TermMap:
    """A finite sum over one context (n, p), a dict from basis key to nonzero
    coefficient: the core of ``PhaseSum``, ``hecke.HeckeScalar`` and
    ``hecke.HeckeElement`` (p is None there, as q is formal).

    Public constructors check their terms; ``_wrap`` wraps canonical terms
    unchecked, and builds every result of the arithmetic.  ``+``, ``-`` and
    ``==`` need one class (else TypeError) and one context (ValueError).
    """

    __slots__ = ("n", "p", "_terms")
    __hash__ = None  # the terms are a mutable dict

    def _wrap(self, terms: dict) -> "_TermMap":
        """A term map of this class and context on canonical ``terms``."""
        out = object.__new__(type(self))
        out.n, out.p, out._terms = self.n, self.p, terms
        return out

    def _check(self, other: "_TermMap") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n or self.p != other.p:
            raise ValueError(f"{type(self).__name__} context mismatch")

    def __add__(self, other: "_TermMap") -> "_TermMap":
        self._check(other)
        terms = dict(self._terms)
        _merge(terms, other._terms.items())
        return self._wrap(terms)

    def _sum(self, summands: Iterable["_TermMap"]) -> "_TermMap":
        """This term map plus every summand, in one new dict with one
        ``_merge`` per summand: equal, key order included, to the fold of
        ``+`` from this one.  The summands are built by this package in this
        context, so their context is not checked again."""
        terms = dict(self._terms)
        for summand in summands:
            _merge(terms, summand._terms.items())
        return self._wrap(terms)

    def __neg__(self) -> "_TermMap":
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "_TermMap") -> "_TermMap":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._terms == other._terms


class PhaseSum(_TermMap):
    """Finite sum of terms coeff . eps^e . exp(2 pi i t).

    The terms are kept canonical: every key is (e, (a, d)) with 0 <= e < n
    and the phase t = a/d in [0, 1) in lowest terms, d = p^u (phase 0 is
    (0, 1)), and every coefficient is a nonzero ``Fraction``.  Phases from
    outside the class, ``int`` or ``Fraction``, are checked and converted
    once, by ``_phase``; the arithmetic starts from canonical terms, so it
    only drops coefficients that cancel.  Under the zeta relation the terms
    of a sum are not unique: equality compares the terms, and where they
    differ it is ``is_zero`` of the difference, the sparse coset test of
    the module docstring.

    n is an ``int`` >= 1 and p a prime ``int``, each checked by the rule of
    the package (``weyl._check_int``, ``padic._check_prime``; ``bool``
    refused, TypeError for a type and ValueError for a value): the coset
    test is exact only for a prime p, whose p-th roots of unity have one
    relation, their vanishing sum.
    """

    __slots__ = ()

    def __init__(self, n: int, p: int, terms: Mapping[tuple[int, Rational], Rational] | None = None):
        _check_int("n", n, 1)
        _check_prime(p)
        self.n, self.p, self._terms = n, p, {}
        if terms:
            for (e, t), c in terms.items():
                self._add_term(e, t, c)

    def _add_term(self, eps_exp: int, phase: Rational, coeff: Rational) -> None:
        _check_monomial(eps_exp, phase, coeff)
        if not coeff:
            return
        _merge(self._terms, (((eps_exp % self.n, self._phase(phase)), Fraction(coeff)),))

    def _phase(self, phase: Rational) -> tuple[int, int]:
        """The canonical key (a, d) of a phase given as an ``int`` or a
        ``Fraction``, checked to be a p-power root of unity."""
        phase, p = Fraction(phase) % 1, self.p
        if p ** _int_valuation(phase.denominator, p) != phase.denominator:
            raise ValueError(f"phase {phase} is not a p-power root of unity at p={p}")
        return phase.numerator, phase.denominator

    @classmethod
    def zero(cls, n: int, p: int) -> "PhaseSum":
        return cls(n, p)

    @classmethod
    def monomial(cls, n: int, p: int, coeff: Rational, eps_exp: int = 0, phase: Rational = 0) -> "PhaseSum":
        out = cls(n, p)
        out._add_term(eps_exp, phase, coeff)
        return out

    # ``perfbench/tracer.py`` wraps ``__add__``, ``__eq__``, ``is_zero`` and
    # ``times_monomial`` in this class's own ``__dict__``: bind the sum here.
    __add__ = _TermMap.__add__

    def times_monomial(self, coeff: Rational = 1, eps_exp: int = 0, phase: Rational = 0) -> "PhaseSum":
        """Multiply by coeff . eps^eps_exp . exp(2 pi i phase).

        The key shift (e, t) -> (e + eps_exp, t + phase) is a bijection, so
        no two terms merge; the types are checked at once, and a nonzero
        phase is validated as soon as there is a nonzero term to carry it.
        Phases add in integers over the larger of the two p-powers (one
        divides the other), reduced to lowest terms again.
        """
        _check_monomial(eps_exp, phase, coeff)
        if not coeff or not self._terms:
            return self._wrap({})
        n = self.n
        if not phase:
            return self._wrap({((e + eps_exp) % n, t): c * coeff for (e, t), c in self._terms.items()})
        b, f = self._phase(phase)
        p, terms = self.p, {}
        for (e, (a, d)), c in self._terms.items():
            top = max(d, f)
            terms[(e + eps_exp) % n, _reduced_phase(a * (top // d) + b * (top // f), top, p)] = c * coeff
        return self._wrap(terms)

    def terms(self) -> Iterable[tuple[tuple[int, Fraction], Fraction]]:
        """The terms ((e, phase), coeff), each phase a ``Fraction``, sorted."""
        return sorted(((e, Fraction(a, d) if a else _NO_PHASE), c) for (e, (a, d)), c in self._terms.items())

    def is_zero(self) -> bool:
        by_eps: dict[int, dict[tuple[int, int], Fraction]] = {}
        for (e, t), c in self._terms.items():
            by_eps.setdefault(e, {})[t] = c
        return all(self._class_is_zero(cls_terms) for cls_terms in by_eps.values())

    def _class_is_zero(self, terms: dict[tuple[int, int], Fraction]) -> bool:
        """The coset test of the module docstring on one eps class: the
        phase a/d is t = a p^M / d mod p^M, in the coset of t mod p^{M-1}."""
        p, top = self.p, max(d for _, d in terms)
        if top == 1:
            return sum(terms.values()) == 0
        step = top // p
        cosets: dict[int, list[Fraction]] = {}
        for (a, d), c in terms.items():
            cosets.setdefault(a * (top // d) % step, []).append(c)
        return all(len(cs) == p and cs.count(cs[0]) == p for cs in cosets.values())

    def __eq__(self, other: object) -> bool:
        """Equal canonical terms are equal elements; terms that differ may
        still agree under the zeta relation, so then the difference decides."""
        if type(other) is not PhaseSum:
            return NotImplemented
        self._check(other)
        return self._terms == other._terms or (self - other).is_zero()

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
