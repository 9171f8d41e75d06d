"""Exact values of the Iwahori-fixed Whittaker function.

Values are monomials sign * q^(q_exp) * eps^(eps_exp) * psi(shift),
where q is the residue cardinality, eps a primitive n-th root of unity
and psi the standard additive character; ``WhittakerValue`` records the
four exponents exactly (the zero value is canonical).  Normalization:
the value at the identity is 1.

On the cell with label (kbar, w) the function vanishes unless the label
is dominant for w; on the support

    value = (-1)^((n-1)*sum(kbar) + len(w))
            * q^(-sum_i (n+1-2i)*kbar_i - len(w))
            * eps^(e * sum(kbar)),

with e the rotation eigenvalue exponent (right translation by the
rotation matrix multiplies every value by eps^e).  The label e is the
Hecke label of ``hecke.steinberg_character`` twisted by the character
g -> (-1)^((n-1) v(det g)): T_x, for x of rotation exponent m, acts on
W by (-1)^((n-1) m) times ``steinberg_character(x, e)``, so the two
labels differ only on the x of odd m when n is even.

``eval_cell`` applies this closed form, the one evaluation of a cell in
the library; the support test reads the same dominance thresholds as
``weyl.is_dominant``.  The diagonal recursion and the longest-element
shift lemma, through which the closed form is derived, live in the
tests as its oracle.

At an arbitrary invertible matrix g = n . p^kbar . t0 . P_w . j the value
is psi(n) times the cell value.  ``eval_matrix`` reads the label and the
phase terms of psi(n) off ``minors._minors_pass`` and builds no witness.
psi(n) is formed only on the support, as the lowest-terms pair (a, p^u)
that is also the phase key of ``PhaseSum`` (``_psi_of_terms``, the one
psi routine).  ``verify_functional_equations`` is a table of identities
for ``principal_series._check_identities``; each coset term's value goes
from the closed form and the psi pair straight into a one-term
``PhaseSum`` (``_pass_phase_sum``).  W(g) at each point, the side every
identity is compared with, is read through the public ``eval_matrix``
and not through ``_pass_value`` of the point's pass: the suite then
checks the evaluator that ``steinwhit eval`` prints, and a fault in it
fails the suite.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .minors import _minors_pass
from .padic import PAdicMatrix, _p_power
from .reporting import CheckResult
from .values import PhaseSum, _reduced_phase
from .weyl import (
    Permutation,
    Weight,
    _check_int,
    _check_type,
    _dominance_thresholds,
    _FrozenValue,
    _torus_character,
    dominance_shift,
)

__all__ = [
    "WhittakerValue",
    "eval_cell",
    "eval_matrix",
    "parahoric_check",
    "phase_sum",
    "serialize",
    "verify_functional_equations",
]


class WhittakerValue(_FrozenValue):
    """One exact monomial value, or the canonical zero: a frozen value
    (``weyl._FrozenValue``).

    ``zero`` must be a ``bool``, the sign and the exponents ``int`` and psi
    an ``int`` or a ``Fraction`` (stored as a ``Fraction``); types compare
    exactly, so a ``bool`` sign or exponent is refused, as are a float and
    an ``int`` zero flag, with TypeError.
    """

    __slots__ = _fields = ("zero", "sign", "eps_exp", "q_exp", "psi")
    zero: bool
    sign: int
    eps_exp: int
    q_exp: int
    psi: Fraction

    def __init__(self, zero: bool, sign: int, eps_exp: int, q_exp: int, psi: int | Fraction) -> None:
        if not (type(zero) is bool and type(sign) is type(eps_exp) is type(q_exp) is int
                and type(psi) in (int, Fraction)):
            raise TypeError(f"need a bool zero, int sign and exponents and an int or Fraction psi: {zero!r}, "
                            f"{sign!r}, {eps_exp!r}, {q_exp!r}, {psi!r}")
        if type(psi) is int:
            psi = Fraction(psi)
        if zero and (sign, eps_exp, q_exp, psi) != (1, 0, 0, 0):
            raise ValueError("zero value must be canonical")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if not 0 <= psi < 1:
            raise ValueError("psi offset must lie in [0, 1)")
        _set_zero(self, zero)
        _set_sign(self, sign)
        _set_eps_exp(self, eps_exp)
        _set_q_exp(self, q_exp)
        _set_psi(self, psi)

    @classmethod
    def _of(cls, zero: bool, sign: int, eps_exp: int, q_exp: int, psi: Fraction) -> "WhittakerValue":
        """Wrap fields built in this package from valid ones, unchecked."""
        v = object.__new__(cls)
        _set_zero(v, zero)
        _set_sign(v, sign)
        _set_eps_exp(v, eps_exp)
        _set_q_exp(v, q_exp)
        _set_psi(v, psi)
        return v

    @classmethod
    def zero_value(cls) -> "WhittakerValue":
        return cls(True, 1, 0, 0, Fraction(0))

    @classmethod
    def monomial(cls, sign: int, eps_exp: int, q_exp: int, psi: int | Fraction = 0) -> "WhittakerValue":
        return cls(False, sign, eps_exp, q_exp, psi)


_set_zero, _set_sign, _set_eps_exp, _set_q_exp, _set_psi = (
    getattr(WhittakerValue, name).__set__ for name in WhittakerValue._fields
)

_ZERO = Fraction(0)
_ZERO_VALUE = WhittakerValue.zero_value()


def serialize(value: WhittakerValue) -> dict:
    _check_type("value", value, WhittakerValue)
    return {
        "zero": value.zero,
        "sign": value.sign,
        "eps_exp": value.eps_exp,
        "q_exp": value.q_exp,
        "psi_num": value.psi.numerator,
        "psi_den": value.psi.denominator,
    }


def phase_sum(value: WhittakerValue, n: int, p: int) -> PhaseSum:
    """The value as an element of the exact cyclotomic value ring."""
    if value.zero:
        return PhaseSum.zero(n, p)
    coeff = Fraction(value.sign) * Fraction(p) ** value.q_exp
    return PhaseSum.monomial(n, p, coeff, value.eps_exp, value.psi)


@functools.lru_cache(maxsize=1024)
def _cell_constants(w: Permutation) -> tuple[int, tuple[int, ...]]:
    """len(w) and the w-dominance thresholds, per w (every w up to n = 6)."""
    return w.length(), _dominance_thresholds(w)


def _closed_form(kbar: Weight, w: Permutation, eps_exp: int) -> tuple[int, int, int] | None:
    """(sign, eps exponent, q exponent) of the value on the cell (kbar, w),
    or None off the support."""
    n = w.n
    ell, thresholds = _cell_constants(w)
    if any(kbar[i] - kbar[i + 1] < t for i, t in enumerate(thresholds)):
        return None
    ksum, q_exp = _torus_character(kbar)
    sign = -1 if ((n - 1) * ksum + ell) % 2 else 1
    return sign, (eps_exp * ksum) % n, q_exp - ell


def eval_cell(kbar: Weight, w: Permutation, eps_exp: int = 0) -> WhittakerValue:
    """Closed-form value on the cell (kbar, w); each entry of kbar and
    eps_exp an ``int`` (``bool`` refused, TypeError)."""
    _check_type("w", w, Permutation)
    if len(kbar) != w.n:
        raise ValueError("weight length must match the permutation size")
    for k in kbar:
        _check_int("kbar entry", k)
    _check_int("eps_exp", eps_exp)
    form = _closed_form(kbar, w, eps_exp)
    return _ZERO_VALUE if form is None else WhittakerValue._of(False, *form, _ZERO)


def eval_matrix(g: PAdicMatrix, eps_exp: int = 0) -> WhittakerValue:
    """Value at an arbitrary group element: the cell value times psi(n).

    On g = n . p^kbar . t0 . P_w . j the value is psi(n) times the value
    on the cell (kbar, w).  The label and the phase terms of psi on n come
    from one fraction-free elimination over the minors on the bottom rows
    of g (``_minors_pass`` in ``minors``, where the phase formula is
    proved), and psi is formed only on the support; no witness is built.
    eps_exp is an ``int`` (``bool`` refused, TypeError).

    >>> eval_matrix(PAdicMatrix.from_rows(2, [[1, "3/4"], [0, 1]]))
    WhittakerValue(zero=False, sign=1, eps_exp=0, q_exp=0, psi=Fraction(3, 4))

    The same n times [[1, 0], [1, 1]], which lies in the cell of the
    reflection (kbar = 0): the phase is read off the minors.

    >>> eval_matrix(PAdicMatrix.from_rows(2, [["7/4", "3/4"], [1, 1]]))
    WhittakerValue(zero=False, sign=-1, eps_exp=0, q_exp=-1, psi=Fraction(3, 4))
    """
    _check_type("g", g, PAdicMatrix)
    _check_int("eps_exp", eps_exp)
    return _pass_value(_minors_pass(g.rows, g.p), g.p, eps_exp)


def _psi_of_terms(terms, p: int) -> tuple[int, int]:
    """psi(n) on the support: the sum mod 1 of the phases of num / den over
    the phase terms (num, den, u) of a minors pass, in integers, as the
    lowest-terms pair (a, d) of the phase a/d in [0, 1), d = p^u, (0, 1)
    for phase 0: the phase key of ``PhaseSum``.

    den has valuation exactly u, so den = b p^u with b a unit, and the
    phase of num / den is r / p^u with r = num b^{-1} mod p^u (0 when p^u
    divides num).  The phases are summed over the largest p^u met, and the
    sum is reduced to lowest terms at the end; no ``Fraction`` is built.
    """
    total, top = 0, 1
    for num, den, u in terms:
        pu = p**u
        if num % pu:
            r = num * pow(den // pu, -1, pu) % pu
            if pu > top:
                total, top = total * (pu // top), pu
            total += r * (top // pu)
    return _reduced_phase(total, top, p)


def _pass_value(label: tuple, p: int, eps_exp: int) -> WhittakerValue:
    """The value for the (kbar, w, terms) of one minors pass: the closed
    form of ``eval_cell`` times psi(n), formed only on the support and
    built unchecked."""
    kbar, w, terms = label
    form = _closed_form(kbar, w, eps_exp)
    if form is None:
        return _ZERO_VALUE
    a, d = _psi_of_terms(terms, p)
    return WhittakerValue._of(False, *form, Fraction(a, d) if a else _ZERO)


def _pass_phase_sum(label: tuple, zero: PhaseSum, eps_exp: int) -> PhaseSum:
    """``phase_sum(_pass_value(label, p, eps_exp), n, p)`` in the context
    (n, p) of ``zero``, built unchecked: off the support it is ``zero``
    itself, and on it the one term (e, psi) -> sign p^q_exp is canonical,
    as ``_closed_form`` reduces e mod n, ``_psi_of_terms`` gives the phase
    key in lowest terms and the coefficient is nonzero."""
    kbar, w, terms = label
    form = _closed_form(kbar, w, eps_exp)
    if form is None:
        return zero
    p = zero.p
    sign, e, q_exp = form
    up, down = _p_power(p, q_exp)
    return zero._wrap({(e, _psi_of_terms(terms, p)): Fraction(sign * up, down)})


def parahoric_check(i: int, n: int, eps_exp: int = 0) -> list[CheckResult]:
    """New-vector behavior across the i-th reflection wall.

    The value vanishes at the shifted torus point alone but not at the
    shifted point times the reflection.  A failed check names the wall,
    the cell (shift, w) and the value found there, as ``serialize`` JSON.
    """
    w = Permutation.simple(n, i)
    shift = dominance_shift(w)
    results = []
    for name, cell_w, want_zero in (
        (f"nonzero-at-wall[{i}]", w, False),
        (f"zero-off-wall[{i}]", Permutation.identity(n), True),
    ):
        value = eval_cell(shift, cell_w, eps_exp)
        detail = "" if value.zero == want_zero else (
            f"wall {i}: cell kbar = {list(shift)}, w = {list(cell_w.window)}: "
            f"value {json.dumps(serialize(value), sort_keys=True)}; expected {'zero' if want_zero else 'nonzero'}"
        )
        results.append(CheckResult(name, not detail, detail))
    return results


def verify_functional_equations(
    n: int,
    p: int,
    eps_exp: int = 0,
    samples: int = 100,
    seed: int = 0,
) -> list[CheckResult]:
    """Random-point checks of the defining transformation identities.

    For each point of ``principal_series._sample_points``: every reflection
    coset sum returns -W(g), right rotation multiplies by eps^e, and the
    central scalar p acts trivially.  W(g) is ``eval_matrix(g)``, once per
    point; every other term is a minors pass of
    ``principal_series._check_identities``, which also records the first
    failing point of each check, and its value is built as a canonical
    one-term ``PhaseSum`` from the closed form and psi, with no
    ``WhittakerValue`` and no validating constructor between.
    """
    # the engine loads on first use: a process that only evaluates never imports it
    from .principal_series import _check_identities, _sample_points

    cell = functools.partial(_pass_phase_sum, zero=PhaseSum.zero(n, p), eps_exp=eps_exp)
    points = _sample_points(n, p, samples, seed)
    w_at = [phase_sum(eval_matrix(g, eps_exp), n, p) for g in points]
    identities = [
        (f"reflection-sum[{i}]", cell, w_at, i, (-1, 0), (f"sum of W(g rep) over the cosets of s_{i}", "-W(g)"))
        for i in range(n)
    ]
    identities.append(("rotation-eigenvalue", cell, w_at, "rotation", (1, eps_exp), ("W(g u)", f"eps^{eps_exp} W(g)")))
    identities.append(("central-invariance", cell, w_at, "center", (1, 0), ("W(p g)", "W(g)")))
    return _check_identities(points, seed, identities)
