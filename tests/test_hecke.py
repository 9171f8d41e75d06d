import pytest

from steinwhit.affine_weyl import ExtAffineElement, length_ext
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
from test_affine_weyl import _ball_elements


def test_scalar_arithmetic():
    q = HeckeScalar.q(2)
    one = HeckeScalar.one(2)
    assert q * q == HeckeScalar.monomial(2, 1, 2, 0)
    assert (q - q).is_zero()
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
        HeckeElement.rotation_term(n),
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
    with pytest.raises(ValueError):
        HeckeElement.unit(2) + HeckeElement.unit(3)
    with pytest.raises(ValueError):
        HeckeScalar.one(2) * HeckeScalar.one(3)


@pytest.mark.parametrize("n", [2, 3])
def test_presentation_suite_passes(n):
    results = verify_presentation(n)
    failures = [r.name for r in results if not r.passed]
    assert failures == []
