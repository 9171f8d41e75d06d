import hashlib
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinwhit import hecke
from steinwhit.affine_weyl import ExtAffineElement, length_ext, reduced_word
from steinwhit.hecke import (
    HeckeElement,
    HeckeScalar,
    character_of,
    equal_mod_center,
    mult_generator,
    mult_rotation,
    multiply,
    steinberg_character,
    verify_presentation,
)
from steinwhit.weyl import Permutation
import oracles
from test_affine_weyl import ORACLE_BALLS, _ball_elements, _bfs_ball


def test_scalar_arithmetic():
    q = HeckeScalar.q(2)
    one = HeckeScalar.one(2)
    assert q * q == HeckeScalar.monomial(2, 1, 2, 0)
    assert (q - q)._terms == {} and repr(q - q) == "HeckeScalar(0)"
    h = HeckeElement.generator(2, 1).scaled(q) + HeckeElement.basis(ExtAffineElement.rotation(2))
    assert (h - h).terms() == [] and repr(h - h) == "HeckeElement(0)"
    assert q + one - q == one
    eps = HeckeScalar.monomial(3, 1, 0, 1)
    assert eps * eps * eps == HeckeScalar.one(3)


def test_quadratic_by_hand():
    n = 2
    ts = HeckeElement.generator(n, 1)
    lhs = mult_generator(ts, 1)
    rhs = HeckeElement.unit(n).scaled(HeckeScalar.q(n)) + ts.scaled(
        HeckeScalar.q_minus_one(n)
    )
    assert lhs == rhs


def test_unit_is_neutral():
    n = 3
    x = ExtAffineElement.simple_reflection(n, 1) * ExtAffineElement.rotation(n)
    h = HeckeElement.basis(x) + HeckeElement.generator(n, 0).scaled(HeckeScalar.q(n))
    assert multiply(HeckeElement.unit(n), h) == h
    assert multiply(h, HeckeElement.unit(n)) == h


def test_rotation_multiplication_relabels():
    n = 3
    h = HeckeElement.generator(n, 1)
    back = mult_rotation(mult_rotation(h), -1)
    assert back == h
    # a power relabels once, by r^m, as m single relabels would
    assert mult_rotation(h, 2) == mult_rotation(mult_rotation(h))
    assert mult_rotation(h, -2) == mult_rotation(mult_rotation(h, -1), -1)
    r = ExtAffineElement.rotation(n)
    x = ExtAffineElement.simple_reflection(n, 1)
    assert mult_rotation(h) == HeckeElement.basis(x * r)
    # on the left, the rotation relabels through the general product
    assert multiply(HeckeElement.basis(r), h) == HeckeElement.basis(r * x)


def test_multiply_is_associative_on_samples():
    n = 3
    atoms = [
        HeckeElement.generator(n, 0),
        HeckeElement.generator(n, 1),
        HeckeElement.generator(n, 2),
        HeckeElement.basis(ExtAffineElement.rotation(n)),
        HeckeElement.basis(ExtAffineElement.translation((1, 0, 0))),
    ]
    for a in atoms:
        for b in atoms:
            for c in atoms:
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_lengths_drive_the_two_cases():
    n = 2
    s = HeckeElement.generator(n, 1)
    # len(s * s) < len(s): the quadratic case fires.
    sq = mult_generator(s, 1)
    assert any(x == ExtAffineElement.identity(n) for x, _ in sq.terms())
    # len(1 * s) > len(1): plain concatenation.
    ts = mult_generator(HeckeElement.unit(n), 1)
    assert ts == s


def test_steinberg_character_values():
    n = 3
    for i in range(n):
        s = ExtAffineElement.simple_reflection(n, i)
        assert steinberg_character(s, 1) == HeckeScalar.monomial(n, -1)
    u = ExtAffineElement.rotation(n)
    for e in range(n):
        assert steinberg_character(u, e) == HeckeScalar.monomial(n, 1, 0, e)
    u2 = ExtAffineElement.rotation(2)
    assert steinberg_character(u2, 1) == HeckeScalar.monomial(2, -1, 0, 1)


def test_steinberg_sign_is_the_length_parity():
    """The character reads sgn(w); the definition is (-1)^((n-1) m + len(x))."""
    for x, length in _ball_elements():
        n, m = x.n, x.rotation_exponent()
        assert length == length_ext(x)
        sign = (-1) ** (((n - 1) * m + length) % 2)
        assert steinberg_character(x, 1) == HeckeScalar.monomial(n, sign, 0, m), x


def test_character_is_multiplicative():
    n = 3
    xs = [
        ExtAffineElement.simple_reflection(n, 0),
        ExtAffineElement.simple_reflection(n, 1),
        ExtAffineElement.rotation(n),
        ExtAffineElement.translation((1, 1, 0)),
    ]
    for e in range(n):
        for x in xs:
            for y in xs:
                prod = multiply(HeckeElement.basis(x), HeckeElement.basis(y))
                lhs = character_of(prod, e)
                rhs = steinberg_character(x, e) * steinberg_character(y, e)
                assert lhs == rhs, (x, y, e)


def test_equal_mod_center():
    n = 2
    central = ExtAffineElement.translation((1, 1))
    a = HeckeElement.basis(ExtAffineElement.simple_reflection(n, 1))
    b = HeckeElement.basis(ExtAffineElement.simple_reflection(n, 1) * central)
    assert equal_mod_center(a, b)
    assert not equal_mod_center(a, HeckeElement.unit(n))


def test_size_mismatch_rejected():
    """+, -, * and == across sizes raise ValueError; no element is hashable."""
    for a, b in ((HeckeScalar.one(2), HeckeScalar.one(3)), (HeckeElement.unit(2), HeckeElement.unit(3))):
        for op in (operator.add, operator.sub, operator.eq):
            with pytest.raises(ValueError):
                op(a, b)
        for x in (a, b):
            with pytest.raises(TypeError):
                hash(x)
    with pytest.raises(ValueError):
        HeckeScalar.one(2) * HeckeScalar.one(3)
    with pytest.raises(ValueError):
        multiply(HeckeElement.unit(2), HeckeElement.unit(3))
    with pytest.raises(ValueError):
        equal_mod_center(HeckeElement.unit(2), HeckeElement.unit(3))
    assert HeckeScalar.one(2) != HeckeElement.unit(2)


@pytest.mark.parametrize("n", [2, 3])
def test_presentation_suite_passes(n):
    results = verify_presentation(n)
    failures = [r.name for r in results if not r.passed]
    assert failures == []


# SHA-256 of the name, verdict and detail of every check of
# ``verify_presentation(n)`` for n = 2..12, computed before the relations
# and their expected characters were built from one declaration.
FROZEN_PRESENTATION_SHA256 = "078477d11f9219a29541302b2467b1e38f8f40aab09d58a197766b391ed8bbfe"


def test_presentation_checks_are_frozen():
    """Beyond the acceptance configs of the frozen ``verify`` digest, which
    stop at n = 4: ``commuting[*]`` first appears at n = 4."""
    digest = hashlib.sha256()
    for n in range(2, 13):
        for r in verify_presentation(n):
            digest.update(f"{n}\t{r.name}\t{r.passed}\t{r.detail}\n".encode())
    assert digest.hexdigest() == FROZEN_PRESENTATION_SHA256


# repr of multiply(T_x, T_y) per (x.lam, x.w, y.lam, y.w), recorded before the
# Hecke rings moved onto the shared term map of ``values``: the terms of an
# element print in insertion order, so this pins the order of every merge.
FROZEN_PRODUCTS = {
    ((0, 0, 0), (2, 1, 3), (0, 0, 0), (2, 1, 3)): (
        '(HeckeScalar(1*q^1))*T(0, 0, 0)(1, 2, 3) + '
        '(HeckeScalar(-1 + 1*q^1))*T(0, 0, 0)(2, 1, 3)'
    ),
    ((1, 0, 0), (1, 2, 3), (0, 0, 0), (3, 2, 1)): (
        '(HeckeScalar(1))*T(1, 0, 0)(3, 2, 1)'
    ),
    ((1, 0, -1), (2, 3, 1), (0, 1, 0), (3, 1, 2)): (
        '(HeckeScalar(1*q^4))*T(1, 0, 0)(1, 2, 3) + '
        '(HeckeScalar(-1*q^3 + 1*q^4))*T(1, 0, 0)(2, 1, 3) + '
        '(HeckeScalar(-1*q^1 + 2*q^2 + -2*q^3 + 1*q^4))*T(1, 0, 0)(3, 2, 1) + '
        '(HeckeScalar(-1*q^3 + 1*q^4))*T(1, 0, 0)(1, 3, 2) + '
        '(HeckeScalar(1*q^2 + -2*q^3 + 1*q^4))*T(1, 0, 0)(3, 1, 2) + '
        '(HeckeScalar(1*q^2 + -2*q^3 + 1*q^4))*T(1, 0, 0)(2, 3, 1) + '
        '(HeckeScalar(-1 + 1*q^1))*T(2, 0, -1)(3, 2, 1)'
    ),
    ((0, 2, -1), (3, 2, 1), (-1, 0, 1), (2, 1, 3)): (
        '(HeckeScalar(1*q^1))*T(1, 2, -2)(2, 3, 1) + '
        '(HeckeScalar(-1 + 1*q^1))*T(1, 2, -2)(1, 3, 2)'
    ),
    ((2, -1, 0, 1), (2, 4, 1, 3), (0, 0, 0, 0), (2, 1, 4, 3)): (
        '(HeckeScalar(1*q^1))*T(2, -1, 0, 1)(4, 2, 3, 1) + '
        '(HeckeScalar(-1 + 1*q^1))*T(2, -1, 0, 1)(2, 4, 3, 1)'
    ),
    ((0, 1, 1, -1), (1, 3, 2, 4), (0, 0, 1, 0), (1, 2, 4, 3)): (
        '(HeckeScalar(1))*T(0, 2, 1, -1)(1, 3, 4, 2)'
    ),
    ((0, 0, 0, 0), (2, 1, 4, 3), (1, 0, 0, -1), (2, 1, 3, 4)): (
        '(HeckeScalar(1*q^2))*T(0, 1, -1, 0)(1, 2, 4, 3) + '
        '(HeckeScalar(-1*q^1 + 1*q^2))*T(0, 1, 0, -1)(1, 2, 3, 4) + '
        '(HeckeScalar(-1*q^1 + 1*q^2))*T(1, 0, -1, 0)(2, 1, 4, 3) + '
        '(HeckeScalar(1 + -2*q^1 + 1*q^2))*T(1, 0, 0, -1)(2, 1, 3, 4)'
    ),
    ((1, 0, 0, 0), (4, 3, 2, 1), (0, 0, 0, 0), (4, 3, 2, 1)): (
        '(HeckeScalar(1*q^6))*T(1, 0, 0, 0)(1, 2, 3, 4) + '
        '(HeckeScalar(-1*q^5 + 1*q^6))*T(1, 0, 0, 0)(2, 1, 3, 4) + '
        '(HeckeScalar(-1*q^3 + 2*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(3, 2, 1, 4) + '
        '(HeckeScalar(-1*q^1 + 3*q^2 + -5*q^3 + 5*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(4, 2, 3, 1) + '
        '(HeckeScalar(-1*q^5 + 1*q^6))*T(1, 0, 0, 0)(1, 3, 2, 4) + '
        '(HeckeScalar(1*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(3, 1, 2, 4) + '
        '(HeckeScalar(1*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(2, 3, 1, 4) + '
        '(HeckeScalar(1 + -3*q^1 + 4*q^2 + -4*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(4, 3, 2, 1) + '
        '(HeckeScalar(-1*q^3 + 2*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(1, 4, 3, 2) + '
        '(HeckeScalar(1*q^2 + -3*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(4, 1, 3, 2) + '
        '(HeckeScalar(1*q^2 + -3*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(3, 4, 1, 2) + '
        '(HeckeScalar(-1*q^1 + 3*q^2 + -4*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(4, 3, 1, 2) + '
        '(HeckeScalar(1*q^2 + -3*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(2, 4, 3, 1) + '
        '(HeckeScalar(-1*q^1 + 3*q^2 + -4*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(3, 4, 2, 1) + '
        '(HeckeScalar(-1*q^5 + 1*q^6))*T(1, 0, 0, 0)(1, 2, 4, 3) + '
        '(HeckeScalar(1*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(2, 1, 4, 3) + '
        '(HeckeScalar(1*q^2 + -3*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(4, 2, 1, 3) + '
        '(HeckeScalar(1*q^2 + -3*q^3 + 4*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(3, 2, 4, 1) + '
        '(HeckeScalar(1*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(1, 4, 2, 3) + '
        '(HeckeScalar(-1*q^3 + 3*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(4, 1, 2, 3) + '
        '(HeckeScalar(-1*q^3 + 3*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(2, 4, 1, 3) + '
        '(HeckeScalar(1*q^4 + -2*q^5 + 1*q^6))*T(1, 0, 0, 0)(1, 3, 4, 2) + '
        '(HeckeScalar(-1*q^3 + 3*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(3, 1, 4, 2) + '
        '(HeckeScalar(-1*q^3 + 3*q^4 + -3*q^5 + 1*q^6))*T(1, 0, 0, 0)(2, 3, 4, 1)'
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_PRODUCTS))
def test_products_keep_their_frozen_normal_form(case):
    x_lam, x_w, y_lam, y_w = case
    x, y = ExtAffineElement(x_lam, Permutation(x_w)), ExtAffineElement(y_lam, Permutation(y_w))
    assert repr(multiply(HeckeElement.basis(x), HeckeElement.basis(y))) == FROZEN_PRODUCTS[case]


N = 3
_KEYS = [
    ExtAffineElement.identity(N),
    *(ExtAffineElement.simple_reflection(N, i) for i in range(N)),
    ExtAffineElement.rotation(N),
    ExtAffineElement.translation((1, 0, 0)),
    ExtAffineElement.simple_reflection(N, 1) * ExtAffineElement.simple_reflection(N, 2),
    ExtAffineElement.simple_reflection(N, 0) * ExtAffineElement.rotation(N, -1),
]
hecke_scalars = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-3, 5)), st.integers(-2, 2), max_size=4
).map(lambda terms: HeckeScalar(N, terms))
hecke_elements = st.dictionaries(st.sampled_from(_KEYS), hecke_scalars, max_size=5).map(
    lambda terms: HeckeElement(N, terms)
)


def _same_as_validated(x):
    """x equals its copy through the public constructor, with one repr,
    and keeps no zero coefficient."""
    if isinstance(x, HeckeScalar):
        copy = HeckeScalar(x.n, dict(x._terms))
        assert all(type(c) is int and c for c in x._terms.values())
    else:
        copy = HeckeElement(x.n, {k: _same_as_validated(c) for k, c in x.terms()})
        assert all(type(k) is ExtAffineElement and not c.is_zero() for k, c in x.terms())
    assert type(x) is type(copy) and x == copy and repr(x) == repr(copy)
    return copy


@settings(max_examples=150, deadline=None)
@given(hecke_elements, hecke_elements, hecke_scalars, hecke_scalars, st.integers(0, N - 1))
def test_internal_arithmetic_equals_validated_copies(a, b, c, d, i):
    for x in (c + d, c - d, -c, c * d):
        _same_as_validated(x)
    for h in (a + b, a - b, -a, a.scaled(c), mult_generator(a, i), mult_rotation(a, i - 1), multiply(a, b)):
        _same_as_validated(h)
    assert (c - c)._terms == {} and (a - a).terms() == []


def _same_element(got, want):
    assert repr(got) == repr(want) and got == want
    assert list(got._terms.items()) == list(want._terms.items())


# right factors of at least two terms, each coefficient nonzero
multi_term_elements = st.dictionaries(
    st.sampled_from(_KEYS), hecke_scalars.filter(bool), min_size=2, max_size=5
).map(lambda terms: HeckeElement(N, terms))


@settings(max_examples=150, deadline=None)
@given(hecke_elements, st.one_of(hecke_elements, multi_term_elements))
def test_multiply_is_the_fold_of_generator_steps(a, b):
    """One term dict walked through ``_step`` equals the fold of
    ``mult_generator``, ``mult_rotation`` and ``scaled``: one value, one
    repr and one key order, for multi-term right factors and non-unit
    coefficients."""
    _same_element(multiply(a, b), oracles.multiply(a, b))


def test_multiply_is_the_fold_on_the_oracle_balls():
    """Longer words, at n = 2..5: ball elements times rotation powers,
    with right factors of three terms and coefficients other than 1."""
    rng = random.Random("multiply-fold")
    for n, radius in ORACLE_BALLS:
        ball = list(_bfs_ball(n, radius))
        for _ in range(12):
            a = HeckeElement.basis(rng.choice(ball) * ExtAffineElement.rotation(n, rng.randint(-n, n)))
            a = a + HeckeElement.basis(rng.choice(ball)).scaled(HeckeScalar.q_minus_one(n))
            b = HeckeElement(n, {
                rng.choice(ball) * ExtAffineElement.rotation(n, rng.randint(-n, n)):
                    HeckeScalar(n, {(rng.randint(-1, 1), rng.randrange(n)): rng.choice([-2, 1, 3])})
                for _ in range(3)})
            _same_element(multiply(a, b), oracles.multiply(a, b))


def test_scaling_by_a_zero_divisor_drops_the_term():
    # (1 - eps)(1 + eps + eps^2) = 1 - eps^3 = 0 in Z[eps]/(eps^3 - 1)
    norm = HeckeScalar(N, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    h = HeckeElement.generator(N, 1).scaled(norm) + HeckeElement.unit(N)
    scaled = h.scaled(HeckeScalar(N, {(0, 0): 1, (0, 1): -1}))
    assert scaled.terms() == [(ExtAffineElement.identity(N), HeckeScalar(N, {(0, 0): 1, (0, 1): -1}))]


def test_internal_arithmetic_calls_no_validating_constructor(monkeypatch):
    a = HeckeElement.generator(N, 1) + HeckeElement.basis(ExtAffineElement.rotation(N)).scaled(HeckeScalar.q_minus_one(N))
    b = mult_generator(a, 2)
    c = HeckeScalar.monomial(N, 2, 1, 1)
    x = _KEYS[-1] * ExtAffineElement.translation((2, -1, 0))
    s = ExtAffineElement.simple_reflection
    hot_path = [
        lambda: [c + c, c - c, -c, a + b, a - b, -a, a.scaled(c)],
        lambda: [mult_generator(a, i) for i in range(-N, 2 * N)] + [mult_generator(b, 2)],
        lambda: [mult_rotation(a, m) for m in range(-N, N + 1)],
        lambda: [multiply(a, b), character_of(b, 1), reduced_word(x), HeckeElement.basis(x)],
        lambda: [steinberg_character(x, e) for e in range(N)],
        lambda: [ExtAffineElement.rotation(N, k) for k in range(-N, N + 1)],
        lambda: [x**k for k in range(-5, 6)],
        lambda: [s(N, i) for i in range(-N, 2 * N)],
    ]
    for run in hot_path:  # warm-up: builds the shared simple reflections
        run()
    calls = []
    for cls, name in ((HeckeScalar, "__init__"), (HeckeElement, "__init__"),
                      (ExtAffineElement, "__post_init__"), (Permutation, "__post_init__")):
        def counted(self, *args, _original=getattr(cls, name), **kwargs):
            calls.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    HeckeScalar.one(N)
    ExtAffineElement.identity(N)
    # the counters see the public constructors
    assert calls == ["HeckeScalar", "Permutation", "ExtAffineElement"]
    calls.clear()
    for run in hot_path:
        run()
    assert calls == []
    assert mult_generator(b, 2) == multiply(b, HeckeElement.generator(N, 2))


@pytest.mark.parametrize("build, error", [
    (lambda: HeckeScalar.monomial(2, 0.5), TypeError),
    (lambda: HeckeScalar(2, {(0.5, 0): 1}), TypeError),
    (lambda: HeckeScalar.monomial(2, True), TypeError),
    (lambda: HeckeScalar.monomial(2, 1, 0, 1.0), TypeError),
    (lambda: HeckeScalar(2, {(0, 0): Fraction(1)}), TypeError),
    (lambda: HeckeElement(2, {ExtAffineElement.identity(3): HeckeScalar.one(5)}), ValueError),
    (lambda: HeckeElement(2, {ExtAffineElement.identity(2): HeckeScalar.one(3)}), ValueError),
    (lambda: HeckeElement(2, {ExtAffineElement.identity(3): HeckeScalar.one(2)}), ValueError),
    (lambda: HeckeElement(2, {(0, 0): HeckeScalar.one(2)}), TypeError),
    (lambda: HeckeElement(2, {ExtAffineElement.identity(2): 1}), TypeError),
    (lambda: HeckeScalar(0, {(0, 0): 1}), ValueError),
    (lambda: HeckeScalar(True, {(0, 1): 1}), TypeError),
    (lambda: HeckeScalar(2.0), TypeError),
    (lambda: HeckeElement.unit(0), ValueError),
    (lambda: HeckeElement(0), ValueError),
    (lambda: HeckeElement(True), TypeError),
])
def test_public_constructors_check_their_terms(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build", [
    lambda: HeckeElement.basis(None),
    lambda: HeckeElement.basis(Permutation.identity(2)),
    lambda: mult_generator(None, 1),
    lambda: mult_rotation(None, 1),
    lambda: multiply(None, HeckeElement.unit(2)),
    lambda: multiply(HeckeElement.unit(2), None),
    lambda: character_of(None, 0),
    lambda: equal_mod_center(None, None),
    lambda: equal_mod_center(HeckeElement.unit(2), None),
], ids=["basis-none", "basis-permutation", "step-none", "rotation-none", "multiply-left-none",
        "multiply-right-none", "character-none", "center-none", "center-right-none"])
def test_arguments_of_another_class_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def _fold(start, summands):
    for s in summands:
        start = start + s
    return start


@st.composite
def _summands(draw, ring):
    """A start and summands of ``ring``; each later summand may be the
    negation of an earlier one, or a part of it, so keys cancel and
    come back."""
    summands = []
    for _ in range(draw(st.integers(0, 6))):
        if summands and draw(st.booleans()):
            summands.append(-draw(st.sampled_from(summands)))
        else:
            summands.append(draw(ring))
    return draw(ring), summands


@settings(max_examples=100, deadline=None)
@given(_summands(hecke_scalars), _summands(hecke_elements))
def test_sum_is_the_fold_of_plus(scalars, elements):
    """``_sum`` equals the fold of ``+``: one value, one repr, one key
    order (``HeckeElement.__repr__`` reads it) and no zero coefficient."""
    for start, summands in (scalars, elements):
        total, fold = start._sum(summands), _fold(start, summands)
        assert type(total) is type(start) and total == fold and repr(total) == repr(fold)
        assert list(total._terms.items()) == list(fold._terms.items())
        _same_as_validated(total)


def test_character_of_is_the_fold_of_scalar_products():
    """On products T_x T_y of the oracle balls' elements (times rotation
    powers), plus a multiple of a third basis element, ``character_of``
    equals the sum of c * steinberg_character(x, e) for every e."""
    rng = random.Random("character-of")
    for n, radius in ORACLE_BALLS:
        ball = list(_bfs_ball(n, radius))
        for x in ball:
            y, z = rng.choice(ball), rng.choice(ball)
            x = x * ExtAffineElement.rotation(n, rng.randint(-n, n))
            c = HeckeScalar(n, {(rng.randint(-2, 2), rng.randrange(n)): rng.choice([-2, -1, 1, 3]) for _ in range(3)})
            h = multiply(HeckeElement.basis(x), HeckeElement.basis(y)) + HeckeElement.basis(z).scaled(c)
            for e in range(n):
                got = character_of(h, e)
                want = _fold(HeckeScalar.zero(n), [v * steinberg_character(t, e) for t, v in h.terms()])
                assert got == want and repr(got) == repr(want) and got._terms == want._terms, (x, y, z, e)


def _steinberg_fold(h, e):
    """The Steinberg character of h as the fold of c * steinberg_character(x, e)."""
    return _fold(HeckeScalar.zero(h.n), [v * steinberg_character(x, e) for x, v in h.terms()])


def _same_scalar(got, want):
    assert got == want and repr(got) == repr(want)
    assert list(got._terms.items()) == list(want._terms.items())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_character_table_is_the_fold_on_every_relation_side(monkeypatch, n):
    """``verify_presentation`` reads one character table per relation whose
    two sides are equal normal forms (every relation here) and evaluates it
    at every eps exponent: at every e (also outside 0..n-1) the table's
    value is the fold of c * steinberg_character(x, e)."""
    sides, table_of = [], hecke._character_table

    def recorded(h):
        sides.append(h)
        return table_of(h)

    monkeypatch.setattr(hecke, "_character_table", recorded)
    results = verify_presentation(n)
    monkeypatch.undo()
    assert all(r.passed for r in results)
    assert len(sides) == sum(r.name.startswith("relation:") for r in results)
    assert any(any(x.rotation_exponent() % n for x, _ in h.terms()) for h in sides)
    for h in sides:
        table = table_of(h)
        for e in range(-n, 2 * n):
            _same_scalar(hecke._character_at(n, table, e), _steinberg_fold(h, e))
            _same_scalar(character_of(h, e), _steinberg_fold(h, e))


@settings(max_examples=150, deadline=None)
@given(hecke_elements, st.integers(-2 * N, 2 * N))
def test_character_of_is_the_fold_on_drawn_elements(h, e):
    _same_scalar(character_of(h, e), _steinberg_fold(h, e))


@pytest.mark.parametrize("bad", [1.0, 0.5, Fraction(1), "1", None])
def test_character_of_refuses_an_exponent_that_is_not_an_int(bad):
    x = ExtAffineElement.translation((1, 0, 0))
    for h in (HeckeElement.basis(x), HeckeElement.generator(N, 1), HeckeElement.basis(ExtAffineElement.rotation(N)) + HeckeElement.unit(N)):
        with pytest.raises(TypeError):
            character_of(h, bad)
        with pytest.raises(TypeError):
            hecke._character_at(N, hecke._character_table(h), bad)
    with pytest.raises(TypeError):
        steinberg_character(x, bad)


def _wrong_character_at(n, table, eps_exp):
    """The mutant of ``_character_at`` that ``verify hecke`` once passed:
    the sign dropped and the eps shift m e moved to 2 m e + 1."""
    terms = {}
    for m, _, c in table:
        k = m * eps_exp
        hecke._merge(terms, (((qe, (ee + 2 * k + 1) % n), v) for (qe, ee), v in c._terms.items()))
    return HeckeScalar._of(n, terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_character_checks_compare_each_side_with_its_generator_word(monkeypatch, n):
    """Each ``character:*`` check compares ``character_of`` of a relation
    side with the same side built from the ``steinberg_character`` values
    of the generators, so a wrong character fails it; comparing the two
    sides' characters with each other, as the checks once did, could not
    fail on sides that are equal normal forms."""
    monkeypatch.setattr(hecke, "_character_at", _wrong_character_at)
    results = verify_presentation(n)
    failed = {r.name.split(":")[0] for r in results if not r.passed}
    assert failed == {"character"}
    assert all(r.passed for r in results if r.name.startswith("relation:"))
    assert all(not r.passed for r in results if r.name.startswith("character:quadratic"))


def test_character_checks_read_both_sides_of_an_unequal_relation(monkeypatch):
    """When a relation's sides differ, each side's character is read from
    its own table and compared with its own build from the generator values."""
    n, sides, table_of = 3, [], hecke._character_table

    def recorded(h):
        sides.append(h)
        return table_of(h)

    monkeypatch.setattr(hecke, "_character_table", recorded)
    monkeypatch.setattr(hecke, "multiply", lambda a, b: a)  # T_{s_i} T_r^n becomes T_{s_i}
    results = {r.name: r.passed for r in verify_presentation(n)}
    unequal = [f"rotation-power-central[{i}]" for i in range(n)]
    assert not any(results[f"relation:{name}"] for name in unequal)
    relations = sum(name.startswith("relation:") for name in results)
    assert len(sides) == relations + len(unequal)
    # chi(T_{s_i}) = -1 = chi(T_{s_i}) chi(T_r)^n: the character checks still hold
    assert all(results[f"character:{name}:eps={e}"] for name in unequal for e in range(n))


def _failures(results):
    failed = [r for r in results if not r.passed]
    assert failed and all(r.detail for r in failed)
    assert all(r.detail == "" for r in results if r.passed)
    return failed


def test_failed_character_checks_name_both_values(monkeypatch):
    """A failed ``character:*`` check names n, e, the side, its
    ``character_of`` value and the value built from the generators."""
    n = 3
    monkeypatch.setattr(hecke, "_character_at", _wrong_character_at)
    failed = {r.name: r.detail for r in _failures(verify_presentation(n))}
    for name, detail in failed.items():
        e = name.rsplit("=", 1)[1]
        for part in detail.split("; "):
            assert part.startswith((f"n={n} eps={e} lhs: ", f"n={n} eps={e} rhs: "))
            assert part.count("HeckeScalar(") == 2, part
    # both sides of the quadratic relation are T_{s_0}^2, and each is built
    # from the generators as chi(T_{s_0})^2 = q + (q - 1) chi(T_{s_0}) = 1
    got = _wrong_character_at(n, hecke._character_table(mult_generator(HeckeElement.generator(n, 0), 0)), 0)
    assert failed["character:quadratic[0]:eps=0"] == "; ".join(
        f"n={n} eps=0 {side}: character_of {got!r} != scalar build {HeckeScalar.one(n)!r}" for side in ("lhs", "rhs"))


def test_failed_relation_checks_name_both_sides(monkeypatch):
    n = 3
    monkeypatch.setattr(hecke, "multiply", lambda a, b: a)  # T_{s_i} T_r^n becomes T_{s_i}
    rot_power = mult_rotation(HeckeElement.unit(n), n)
    failed = _failures(verify_presentation(n))
    assert [r.name for r in failed] == [f"relation:rotation-power-central[{i}]" for i in range(n)]
    for i, r in enumerate(failed):
        lhs, rhs = mult_generator(rot_power, i), HeckeElement.generator(n, i)
        assert r.detail == f"n={n}: lhs {lhs!r} != rhs {rhs!r}"


def test_failed_center_and_reflection_checks_name_both_values(monkeypatch):
    n, chi = 2, hecke.steinberg_character
    monkeypatch.setattr(hecke, "equal_mod_center", lambda a, b: False)
    monkeypatch.setattr(hecke, "steinberg_character", lambda x, e: chi(x, e) * chi(x, e))
    failed = {r.name: r.detail for r in _failures(verify_presentation(n))}
    rot_power = mult_rotation(HeckeElement.unit(n), n)
    assert f"n={n}: T_r^n {rot_power!r} != unit {HeckeElement.unit(n)!r}" in failed["rotation-power-mod-center"]
    for e in range(n):
        detail = failed[f"character-reflections-constant:eps={e}"]
        assert detail.startswith(f"n={n} eps={e}: ")
        assert "[HeckeScalar(1), HeckeScalar(1)]" in detail and "HeckeScalar(-1)" in detail
