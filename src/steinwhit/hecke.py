"""Iwahori-Hecke algebra of GL(n) in the standard basis.

Elements are finite sums sum_x c_x T_x over extended affine Weyl group
elements x, with coefficients in the ring of Laurent polynomials in a
formal q over Z[eps]/(eps^n - 1).  Multiplication follows the length
rules

    T_x T_{s_i} = T_{x s_i}                     if len(x s_i) > len(x),
    T_x T_{s_i} = q T_{x s_i} + (q - 1) T_x     otherwise,

and T_x T_r = T_{x r} for the length-zero rotation generator r.  The
length comparison is read off one pair term of the closed form
(``affine_weyl.is_ascent``), and a product walks a reduced word of its
right factor, peeled in place (``affine_weyl.reduced_word``).  The
defining relations (quadratic, braid, commuting, rotation conjugation
T_{s_i} T_r = T_r T_{s_{(i+1) mod n}}, and the n-th rotation power
being the central translation) are re-derived from these rules by
``verify_presentation``.

``HeckeScalar`` and ``HeckeElement`` are term maps on the core of
``values`` (``_TermMap``): their constructors check n and every term,
and products, ``HeckeElement.basis`` and the Steinberg character build
their results unchecked.  One step kernel, ``_step``, right-multiplies a
plain term dict by T_{s_i}, with s_i the shared instance built once per
(n, i); ``mult_generator`` checks its arguments and calls it, and
``multiply`` walks the left factor's dict through it along each reduced
word, relabels by the rotation power and merges every term of the right
factor into one output dict.  The scaling and the relabeling by a
rotation power are one helper each (``_scaled``, ``_relabeled``), shared
with ``HeckeElement.scaled`` and ``mult_rotation``.  The public functions
refuse an argument of another class with TypeError
(``weyl._check_type``).

The one-dimensional character of the Steinberg quotient sends every
T_{s_i} to -1 and T_r to (-1)^{n-1} eps^e; ``steinberg_character``
evaluates it on basis elements, with the sign of the permutation part
standing in for the length parity.  ``character_of`` extends it linearly
through the element's character table, its terms c T_x read once as
(rotation exponent m of x, sgn(w), c) (``_character_table``): at an
exponent e each coefficient is shifted by the one term sgn(w) eps^{m e}
(``_character_at``), so ``verify_presentation`` reads one table per
relation whose sides are equal normal forms (one per side otherwise) and
evaluates it at all n exponents.  The relations are declared once
(``_relations``), as functions of the unit, the generators and the
product, and built twice: in the algebra, and in the scalars with each
generator replaced by its ``steinberg_character`` value.  Each side's
character must equal its scalar build: that is multiplicativity on every
relation instance, which a wrong ``_character_at`` fails.
"""

from __future__ import annotations

import operator
from typing import Mapping

from .affine_weyl import ExtAffineElement, _rotation, _simple_reflection, is_ascent, reduced_word
from .reporting import CheckResult
from .values import _merge, _TermMap
from .weyl import _check_int, _check_type

__all__ = [
    "HeckeElement",
    "HeckeScalar",
    "character_of",
    "equal_mod_center",
    "mult_generator",
    "mult_rotation",
    "multiply",
    "steinberg_character",
    "verify_presentation",
]

_ONE = {(0, 0): 1}  # the terms of the unit scalar


class HeckeScalar(_TermMap):
    """Laurent polynomial in q over Z[eps]/(eps^n - 1).

    Terms map (q_exponent, eps_exponent mod n) to a nonzero integer; the
    constructor refuses any other type (``bool`` included), and an n that
    is not an ``int`` >= 1.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[tuple[int, int], int] | None = None):
        _check_int("n", n, 1)
        self.n, self.p, self._terms = n, None, {}
        if terms:
            pairs = []
            for (qe, ee), c in terms.items():
                if type(qe) is not int or type(ee) is not int or type(c) is not int:
                    raise TypeError(f"a term must be (int, int): int, not {(qe, ee)!r}: {c!r}")
                if c:
                    pairs.append(((qe, ee % n), c))
            _merge(self._terms, pairs)

    @classmethod
    def _of(cls, n: int, terms: dict) -> "HeckeScalar":
        """Wrap canonical terms of size n built in this package, unchecked."""
        out = object.__new__(cls)
        out.n, out.p, out._terms = n, None, terms
        return out

    @classmethod
    def zero(cls, n: int) -> "HeckeScalar":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "HeckeScalar":
        return cls(n, {(0, 0): 1})

    @classmethod
    def monomial(cls, n: int, coeff: int = 1, q_exp: int = 0, eps_exp: int = 0) -> "HeckeScalar":
        return cls(n, {(q_exp, eps_exp): coeff})

    @classmethod
    def q(cls, n: int) -> "HeckeScalar":
        return cls(n, {(1, 0): 1})

    @classmethod
    def q_minus_one(cls, n: int) -> "HeckeScalar":
        return cls(n, {(1, 0): 1, (0, 0): -1})

    def __mul__(self, other: "HeckeScalar") -> "HeckeScalar":
        self._check(other)
        n, terms, right = self.n, {}, other._terms.items()
        _merge(terms, [((q1 + q2, (e1 + e2) % n), c1 * c2)
                       for (q1, e1), c1 in self._terms.items() for (q2, e2), c2 in right])
        return self._wrap(terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "HeckeScalar(0)"
        bits = []
        for (qe, ee), c in sorted(self._terms.items()):
            part = str(c)
            if qe:
                part += f"*q^{qe}"
            if ee:
                part += f"*eps^{ee}"
            bits.append(part)
        return f"HeckeScalar({' + '.join(bits)})"


class HeckeElement(_TermMap):
    """Finite linear combination of basis elements T_x.

    Terms map an ``ExtAffineElement`` x to a nonzero ``HeckeScalar``, in
    insertion order (the order of ``repr``); the constructor refuses other
    types (TypeError) and a term of another n (ValueError), and an n that
    is not an ``int`` >= 1.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[ExtAffineElement, HeckeScalar] | None = None):
        _check_int("n", n, 1)
        terms = terms or {}
        for x, c in terms.items():
            if not isinstance(x, ExtAffineElement) or type(c) is not HeckeScalar:
                raise TypeError(f"a term must be ExtAffineElement: HeckeScalar, not {x!r}: {c!r}")
            if x.n != n or c.n != n:
                raise ValueError(f"term {x!r}: {c!r} is not of size {n}")
        # the keys are distinct and stay so: only zero coefficients drop
        self.n, self.p, self._terms = n, None, {x: c for x, c in terms.items() if c._terms}

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls.basis(ExtAffineElement.identity(n))

    @classmethod
    def basis(cls, x: ExtAffineElement) -> "HeckeElement":
        """T_x; x is an ``ExtAffineElement`` (else TypeError), so its one
        term is built unchecked."""
        _check_type("x", x, ExtAffineElement)
        n = x.n
        out = object.__new__(cls)
        out.n, out.p, out._terms = n, None, {x: HeckeScalar._of(n, {(0, 0): 1})}
        return out

    @classmethod
    def generator(cls, n: int, i: int) -> "HeckeElement":
        return cls.basis(ExtAffineElement.simple_reflection(n, i))

    def terms(self) -> list[tuple[ExtAffineElement, HeckeScalar]]:
        return list(self._terms.items())

    def scaled(self, c: HeckeScalar) -> "HeckeElement":
        return self._wrap(_scaled(self._terms, c))

    def __repr__(self) -> str:
        if not self._terms:
            return "HeckeElement(0)"
        bits = [f"({c!r})*T{x.lam}{x.w.window}" for x, c in self._terms.items()]
        return " + ".join(bits)


def _scaled(terms: dict, c: HeckeScalar) -> dict:
    """The terms c v T_x of a term dict, those with c v = 0 dropped."""
    products = ((x, c * v) for x, v in terms.items())
    return {x: cv for x, cv in products if cv._terms}


def _relabeled(terms: dict, r: ExtAffineElement) -> dict:
    """The terms v T_{x r} of a term dict, for r of length zero: a
    bijection of the keys, so no two terms merge."""
    return {x * r: v for x, v in terms.items()}


def _step(terms: dict, n: int, i: int) -> dict:
    """The terms of h T_{s_i}, from the terms of h, for 0 <= i < n, unchecked.

    An ascent x gives c T_{x s_i}; a descent gives q c T_{x s_i} +
    (q - 1) c T_x, with q c a shift of the q exponents of c, and
    (q - 1) c = q c - c merged into one dict.
    """
    s = _simple_reflection(n, i)
    pairs = []
    for x, c in terms.items():
        if is_ascent(x, i):
            pairs.append((x * s, c))
            continue
        qc = {(qe + 1, ee): v for (qe, ee), v in c._terms.items()}
        q1c = dict(qc)
        _merge(q1c, ((key, -v) for key, v in c._terms.items()))
        pairs += ((x * s, HeckeScalar._of(n, qc)), (x, HeckeScalar._of(n, q1c)))
    out = {}
    _merge(out, pairs)
    return out


def mult_generator(h: HeckeElement, i: int) -> HeckeElement:
    """Right-multiply by T_{s_i} (i taken mod n, 0 is the affine one):
    n and i are checked as ``ExtAffineElement.simple_reflection`` checks
    them, then ``_step`` builds the terms."""
    _check_type("h", h, HeckeElement)
    n = h.n
    ExtAffineElement.simple_reflection(n, i)
    return h._wrap(_step(h._terms, n, i % n))


def mult_rotation(h: HeckeElement, m: int = 1) -> HeckeElement:
    """Multiply on the right by T_r^m, the m-th power of the (invertible,
    length-zero) rotation basis element, for any integer m.

    A pure relabeling of indices by r^m (``_relabeled``): no q-corrections
    occur and no two terms merge.
    """
    _check_type("h", h, HeckeElement)
    return h._wrap(_relabeled(h._terms, ExtAffineElement.rotation(h.n, m)))


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the algebra, via reduced words for the right factor: the
    sum over the terms c T_y of b of (a T_y) c, merged into one dict.

    For y = s_{i_1} ... s_{i_k} r^m, a's terms walk ``_step`` along the
    word, are relabeled by r^m (a bijection) and, unless c is 1, scaled
    by c; the key order is that of the fold of ``mult_generator``,
    ``mult_rotation`` and ``scaled``.
    """
    _check_type("a", a, HeckeElement)
    a._check(b)
    n, out = a.n, {}
    for y, c in b._terms.items():
        word, m = reduced_word(y)
        terms = a._terms
        for i in word:
            terms = _step(terms, n, i)
        if m:
            terms = _relabeled(terms, _rotation(n, m))
        if c._terms != _ONE:
            terms = _scaled(terms, c)
        _merge(out, terms.items())
    return a._wrap(out)


def steinberg_character(x: ExtAffineElement, eps_exp: int) -> HeckeScalar:
    """Character value on T_x: (-1)^len(x) times ((-1)^{n-1} eps^e)^m,
    where m is the rotation exponent of x.

    That sign is sgn(w) for x = (lam, w).  As |a| and a have one parity,
    len(x) = sum over i < j of |lam_i - lam_j + [w^{-1}(i) > w^{-1}(j)]|
    is congruent mod 2 to sum over i < j of (lam_i + lam_j) plus the
    inversions of w^{-1}, that is to (n - 1) m + inv(w).  So
    (n - 1) m + len(x) is congruent to inv(w), and no length is needed.
    eps_exp must be an ``int`` (``bool`` refused, TypeError).
    """
    _check_type("x", x, ExtAffineElement)
    _check_int("eps_exp", eps_exp)
    n = x.n
    return HeckeScalar._of(n, {(0, x.rotation_exponent() * eps_exp % n): x.w.sign()})


def _character_table(h: HeckeElement) -> list[tuple[int, int, HeckeScalar]]:
    """The terms c T_x of h as (m, sgn(w), c), m the rotation exponent of
    x = (lam, w): read once, then evaluated at any eps exponent."""
    return [(x.rotation_exponent(), x.w.sign(), c) for x, c in h._terms.items()]


def _character_at(n: int, table: list, eps_exp: int) -> HeckeScalar:
    """The Steinberg character of the element with the character table
    ``table`` at the eps exponent e: chi(T_x) = sgn(w) eps^{m e} is one
    term, so c chi(T_x) is c with its eps exponents shifted by m e and its
    coefficients times sgn(w); every shifted term is merged into one dict.
    Each m e must be an ``int`` (else TypeError), as in
    ``steinberg_character``."""
    terms = {}
    for m, s, c in table:
        k = m * eps_exp
        if type(k) is not int:
            raise TypeError(f"the eps exponent must be an int, not {k!r}")
        _merge(terms, (((qe, (ee + k) % n), v * s) for (qe, ee), v in c._terms.items()))
    return HeckeScalar._of(n, terms)


def character_of(h: HeckeElement, eps_exp: int) -> HeckeScalar:
    """The Steinberg character extended linearly: the sum of c chi(T_x)
    over the terms c T_x of h, from its character table at one exponent."""
    _check_type("h", h, HeckeElement)
    return _character_at(h.n, _character_table(h), eps_exp)


def equal_mod_center(a: HeckeElement, b: HeckeElement) -> bool:
    """Equality after collapsing basis indices by central translations."""
    _check_type("a", a, HeckeElement)
    a._check(b)

    def reduce(h: HeckeElement) -> HeckeElement:
        terms = {}
        _merge(terms, ((x.normalize_central()[0], c) for x, c in h._terms.items()))
        return h._wrap(terms)

    return reduce(a) == reduce(b)


def _relations(n: int, q, q1, one, s: list, r, z, step, rotate, mul, scale) -> tuple[list, object]:
    """Every defining relation as (name, lhs, rhs), and T_r^n, built from
    the unit ``one``, the generators ``s[i]`` = T_{s_i}, ``r`` = T_r and
    ``z``, the basis element of the central translation, with ``step(h,
    i)`` = h T_{s_i}, ``rotate(h)`` = h T_r, ``mul`` the product and
    ``scale(h, c)`` = c h for the scalars ``q`` and ``q1`` = q - 1.

    Called once in the algebra, and once per eps exponent with the values
    of the Steinberg character in place of the generators, so that each
    side is declared once and its expected character is its own build.
    """
    relations = []
    for i in range(n):
        relations.append((f"quadratic[{i}]", step(s[i], i), scale(one, q) + scale(s[i], q1)))
    for i in range(n):
        relations.append((f"rotation-conjugation[{i}]", rotate(s[i]), step(r, (i + 1) % n)))
    if n >= 3:
        for i in range(n):
            for j in range(i + 1, n):
                if (i - j) % n in (1, n - 1):
                    relations.append((f"braid[{i},{j}]", step(step(s[i], j), i), step(step(s[j], i), j)))
                else:
                    relations.append((f"commuting[{i},{j}]", step(s[i], j), step(s[j], i)))
    rot_power = one
    for _ in range(n):
        rot_power = rotate(rot_power)
    relations.append((f"rotation-power[{n}]", rot_power, z))
    for i in range(n):
        relations.append((f"rotation-power-central[{i}]", step(rot_power, i), mul(s[i], rot_power)))
    return relations, rot_power


def verify_presentation(n: int) -> list[CheckResult]:
    """Re-derive the defining relations from the multiplication rules.

    Checks, as normal-form identities in symbolic q:
      * (T_{s_i} - q)(T_{s_i} + 1) = 0 for i = 0..n-1;
      * braid relations for cyclically adjacent pairs (n >= 3; for n = 2
        the two reflections generate an infinite dihedral group and no
        braid relation exists);
      * commutation for non-adjacent pairs (nonempty once n >= 4);
      * T_{s_i} T_r = T_r T_{s_{(i+1) mod n}};
      * T_r^n equals the basis element of the central translation, and
        the identity modulo the center;
      * T_r^n commutes with every generator;
      * the Steinberg character is multiplicative on every relation
        instance, for every eps exponent: ``_relations`` builds each side
        once in the algebra and once more from the ``steinberg_character``
        values of the generators (the quadratic one as q + (q - 1)
        chi(T_{s_i})), and the side's ``character_of`` must equal that
        scalar build.  Two sides found equal as normal forms have one
        character, so it is read once;
      * the Steinberg character takes the same value on all T_{s_i}.

    A failed check names n (and e), and both values it compared.
    """
    results = []
    q, q1 = HeckeScalar.q(n), HeckeScalar.q_minus_one(n)
    unit = HeckeElement.unit(n)
    reflections = [ExtAffineElement.simple_reflection(n, i) for i in range(n)]
    rotation = ExtAffineElement.rotation(n)
    center = ExtAffineElement.translation((1,) * n)
    relations, rot_power = _relations(
        n, q, q1, unit, [HeckeElement.basis(x) for x in reflections], HeckeElement.basis(rotation),
        HeckeElement.basis(center), mult_generator, mult_rotation, multiply, HeckeElement.scaled)
    one, chis, expected = HeckeScalar.one(n), [], []
    for e in range(n):
        chi, chi_r = [steinberg_character(x, e) for x in reflections], steinberg_character(rotation, e)
        chis.append(chi)
        expected.append(_relations(
            n, q, q1, one, chi, chi_r, steinberg_character(center, e),
            lambda v, i: v * chi[i], lambda v: v * chi_r, operator.mul, operator.mul)[0])

    for k, (name, lhs, rhs) in enumerate(relations):
        same = lhs == rhs
        detail = "" if same else f"n={n}: lhs {lhs!r} != rhs {rhs!r}"
        results.append(CheckResult(f"relation:{name}", same, detail))
        lhs_table = _character_table(lhs)
        rhs_table = lhs_table if same else _character_table(rhs)
        for e in range(n):
            left = _character_at(n, lhs_table, e)
            right = left if same else _character_at(n, rhs_table, e)
            _, want_left, want_right = expected[e][k]
            ok = left == want_left and right == want_right
            detail = "" if ok else "; ".join(
                f"n={n} eps={e} {side}: character_of {got!r} != scalar build {want!r}"
                for side, got, want in (("lhs", left, want_left), ("rhs", right, want_right)) if got != want)
            results.append(CheckResult(f"character:{name}:eps={e}", ok, detail))

    ok = equal_mod_center(rot_power, unit)
    detail = "" if ok else f"n={n}: T_r^n {rot_power!r} != unit {unit!r} modulo the center"
    results.append(CheckResult("rotation-power-mod-center", ok, detail))

    minus_one = HeckeScalar.monomial(n, -1)
    for e, values in enumerate(chis):
        ok = all(v == minus_one for v in values)
        detail = "" if ok else f"n={n} eps={e}: chi(T_s_i) {values!r} != {minus_one!r} for each i"
        results.append(CheckResult(f"character-reflections-constant:eps={e}", ok, detail))

    return results
