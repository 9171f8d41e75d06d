import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinwhit.affine_weyl import (
    ExtAffineElement,
    is_ascent,
    length_ext,
    realize,
    reduced_word,
)
from steinwhit.hecke import HeckeElement, HeckeScalar, mult_generator, mult_rotation, steinberg_character
from steinwhit.padic import PAdicMatrix
from steinwhit.weyl import Permutation
import oracles
from oracles import affine_product

ROTATION_3 = ExtAffineElement.rotation(3)

# (n, radius) of the full breadth-first balls the length oracle covers
ORACLE_BALLS = [(2, 10), (3, 7), (4, 5), (5, 4)]


def _bfs_ball(n: int, radius: int) -> dict:
    """Oracle: the ball of the given radius around the identity in the
    coordinate-sum-zero subgroup, found breadth first by right
    multiplication with s_0, ..., s_{n-1} in that order.  Maps each element
    to (length, parent, generator)."""
    gens = [ExtAffineElement.simple_reflection(n, i) for i in range(n)]
    ident = ExtAffineElement.identity(n)
    ball = {ident: (0, None, None)}
    frontier = [ident]
    for length in range(1, radius + 1):
        new = []
        for x in frontier:
            for i, s in enumerate(gens):
                z = x * s
                if z not in ball:
                    ball[z] = (length, x, i)
                    new.append(z)
        frontier = new
    return ball


def _oracle_word(ball: dict, y: ExtAffineElement) -> tuple[int, ...]:
    """The word along the parent pointers: the first one breadth-first search meets."""
    word = []
    _, parent, gen = ball[y]
    while parent is not None:
        word.append(gen)
        _, parent, gen = ball[parent]
    return tuple(reversed(word))


def _word_product(n: int, word, m: int) -> ExtAffineElement:
    out = ExtAffineElement.identity(n)
    for i in word:
        out = out * ExtAffineElement.simple_reflection(n, i)
    return out * ExtAffineElement.rotation(n) ** m


@st.composite
def _elements(draw) -> ExtAffineElement:
    n = draw(st.integers(2, 6))
    lam = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    window = draw(st.permutations(range(1, n + 1)))
    return ExtAffineElement(tuple(lam), Permutation(tuple(window)))


def _ball_elements():
    """Every element of every oracle ball times each rotation power -n..n, with its length."""
    for n, radius in ORACLE_BALLS:
        for m in range(-n, n + 1):
            rotation_m = ExtAffineElement.rotation(n) ** m
            for y, (length, _, _) in _bfs_ball(n, radius).items():
                yield y * rotation_m, length


def test_simple_reflection_zero_is_affine():
    s0 = ExtAffineElement.simple_reflection(3, 0)
    assert s0.lam == (-1, 0, 1)
    assert s0.w.window == (3, 2, 1)


def test_rotation_window_and_translation():
    u = ExtAffineElement.rotation(4)
    assert u.lam == (0, 0, 0, 1)
    assert u.w.window == (4, 1, 2, 3)
    assert u**4 == ExtAffineElement.translation((1, 1, 1, 1))


def test_group_law_translation_then_rotation():
    t = ExtAffineElement.translation((1, 0))
    u = ExtAffineElement.rotation(2)
    prod = t * u
    assert prod.lam == (1, 1)
    assert prod.w.window == (2, 1)
    assert prod.inverse() * prod == ExtAffineElement.identity(2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rotation_conjugates_reflections_cyclically(n):
    u = ExtAffineElement.rotation(n)
    for i in range(n):
        s = ExtAffineElement.simple_reflection(n, i)
        expected = ExtAffineElement.simple_reflection(n, (i + 1) % n)
        assert u.inverse() * s * u == expected


def test_realize_rotation_matrix():
    m = realize(ExtAffineElement.rotation(2), 3)
    assert m == PAdicMatrix.from_rows(3, [[0, 1], [3, 0]])
    m3 = realize(ExtAffineElement.rotation(3), 2)
    assert m3 == PAdicMatrix.from_rows(2, [[0, 1, 0], [0, 0, 1], [2, 0, 0]])


def test_realize_affine_reflection_matrix():
    from fractions import Fraction

    m = realize(ExtAffineElement.simple_reflection(2, 0), 5)
    assert m == PAdicMatrix.from_rows(5, [[0, Fraction(1, 5)], [5, 0]])


def test_realize_is_a_homomorphism():
    xs = [
        ExtAffineElement.rotation(3),
        ExtAffineElement.simple_reflection(3, 0),
        ExtAffineElement.translation((2, -1, 0)),
        ExtAffineElement.simple_reflection(3, 2) * ExtAffineElement.rotation(3),
    ]
    for x in xs:
        for y in xs:
            assert realize(x * y, 3) == realize(x, 3) * realize(y, 3)
    assert realize(ExtAffineElement.identity(3), 3) == PAdicMatrix.identity(3, 3)


def test_lengths_frozen():
    assert length_ext(ExtAffineElement.rotation(3)) == 0
    assert length_ext(ExtAffineElement.simple_reflection(3, 0)) == 1
    assert length_ext(ExtAffineElement.translation((1, 0, 0))) == 2
    assert length_ext(ExtAffineElement.translation((1, 1, 1))) == 0


def test_length_matches_closed_formula():
    elems = [ExtAffineElement.identity(3)]
    gens = [ExtAffineElement.simple_reflection(3, i) for i in range(3)]
    gens.append(ROTATION_3)
    for _ in range(3):
        elems = [x * g for x in elems for g in gens]
    balls = {n: _bfs_ball(n, radius) for n, radius in ORACLE_BALLS}
    for x in set(elems):
        m = x.rotation_exponent()
        y = x * ROTATION_3 ** (-m)
        assert length_ext(x) == balls[3][y][0]
        assert reduced_word(x) == (_oracle_word(balls[3], y), m)
    # every element of every ball, times each rotation power -n..n
    for n, ball in balls.items():
        for m in range(-n, n + 1):
            rotation_m = ExtAffineElement.rotation(n) ** m
            for y, (length, _, _) in ball.items():
                x = y * rotation_m
                assert length_ext(x) == length
                assert reduced_word(x) == (_oracle_word(ball, y), m)


def test_reduced_word_rebuilds_element():
    x = (
        ExtAffineElement.simple_reflection(3, 1)
        * ExtAffineElement.translation((2, 0, -1))
        * ROTATION_3
    )
    word, m = reduced_word(x)
    assert len(word) == length_ext(x)
    assert _word_product(3, word, m) == x


@pytest.mark.parametrize("k", [10, 100])
def test_long_translation_length_and_word(k):
    x = ExtAffineElement.translation((k, 0, 0, 0, 0))
    assert length_ext(x) == 4 * k
    word, m = reduced_word(x)
    assert (len(word), m) == (4 * k, k)
    assert _word_product(5, word, m) == x


@settings(deadline=None)
@given(_elements())
def test_length_and_reduced_word_properties(x):
    n = x.n
    length = length_ext(x)
    for i in range(n):
        assert abs(length_ext(x * ExtAffineElement.simple_reflection(n, i)) - length) == 1
    assert length_ext(x * ExtAffineElement.rotation(n)) == length == length_ext(x.inverse())
    word, m = reduced_word(x)
    assert len(word) == length
    assert _word_product(n, word, m) == x
    # the word starts with the smallest left descent of x * rotation^{-m}
    if word:
        y = x * ExtAffineElement.rotation(n) ** (-m)
        descents = [i for i in range(n) if length_ext(ExtAffineElement.simple_reflection(n, i) * y) < length]
        assert word[0] == min(descents)


@st.composite
def _small_elements(draw) -> ExtAffineElement:
    n = draw(st.integers(2, 6))
    lam = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    window = draw(st.permutations(range(1, n + 1)))
    return ExtAffineElement(tuple(lam), Permutation(tuple(window)))


@settings(max_examples=300, deadline=None)
@given(_small_elements())
def test_reduced_word_is_the_oracle_word(x):
    """The word read off the closed form of r^{-m}, peeled in one loop,
    equals the word peeled from the product x * r^{-m} by fresh scans."""
    assert reduced_word(x) == oracles.reduced_word(x)


def test_ascent_is_the_length_comparison():
    for x, length in _ball_elements():
        for i in range(x.n):
            assert is_ascent(x, i) == (length_ext(x * ExtAffineElement.simple_reflection(x.n, i)) > length), (x, i)


@settings(deadline=None)
@given(_elements(), _elements(), st.integers(-9, 9))
def test_products_equal_their_validated_copies(x, y, k):
    """The group law builds its results unchecked; each must be the element
    the validating constructor builds from the same entries."""
    results = [x.inverse(), x**k, x ** -abs(k), x.normalize_central()[0], ExtAffineElement.rotation(x.n, k)]
    if x.n == y.n:
        results.append(x * y)
    for z in results:
        copy = ExtAffineElement(z.lam, Permutation(z.w.window))
        assert z == copy and hash(z) == hash(copy) and repr(z) == repr(copy)
        for entries in (z.lam, z.w.window):
            assert type(entries) is tuple and all(type(c) is int for c in entries)
    n, m = x.n, x.rotation_exponent()
    for e in range(n):
        value = steinberg_character(x, e)
        copy = HeckeScalar.monomial(n, x.w.sign(), 0, m * e)
        assert value == copy and repr(value) == repr(copy) and value._terms == copy._terms


@pytest.mark.parametrize("build", [
    lambda: ExtAffineElement((1.5, Fraction(7, 2)), Permutation((2, 1))),
    lambda: ExtAffineElement(("3", True), Permutation((1, 2))),
    lambda: ExtAffineElement((0, 0), (2, 1)),
    lambda: Permutation((1.0, 2)),
    lambda: Permutation((True, 2)),
], ids=["float-and-fraction", "str-and-bool", "window-not-permutation", "float", "bool"])
def test_constructors_refuse_non_int_entries(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, error, match", [
    (lambda: ExtAffineElement.simple_reflection(0, 1), ValueError, "n must be >= 2"),
    (lambda: ExtAffineElement.simple_reflection(1, 0), ValueError, "n must be >= 2"),
    (lambda: ExtAffineElement.simple_reflection(3, 1.0), TypeError, "i must be an int"),
    (lambda: ExtAffineElement.simple_reflection(3, True), TypeError, "i must be an int"),
    (lambda: ExtAffineElement.rotation(True, 1), TypeError, "n must be an int"),
    (lambda: ExtAffineElement.rotation(2, True), TypeError, "k must be an int"),
    (lambda: mult_generator(HeckeElement.generator(3, 1), True), TypeError, "i must be an int"),
    (lambda: mult_generator(HeckeElement.generator(3, 1), 1.0), TypeError, "i must be an int"),
    (lambda: mult_rotation(HeckeElement.generator(3, 1), True), TypeError, "k must be an int"),
    (lambda: mult_generator(HeckeElement.unit(1), 0), ValueError, "n must be >= 2"),
], ids=["reflection-n0", "reflection-n1", "reflection-float-index", "reflection-bool-index",
        "rotation-bool-n", "rotation-bool-k", "hecke-step-bool-index", "hecke-step-float-index",
        "hecke-rotation-bool-power", "hecke-step-n1"])
def test_generators_check_their_arguments(build, error, match):
    """The public generators, and the Hecke steps that call them once per
    step, refuse what they refused when the steps were written."""
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("build, error, match", [
    (lambda: ExtAffineElement.identity(True), TypeError, "n must be an int"),
    (lambda: ExtAffineElement.identity(0), ValueError, "n must be >= 1"),
    (lambda: ExtAffineElement.identity(2.0), TypeError, "n must be an int"),
    (lambda: Permutation.identity(True), TypeError, "n must be an int"),
    (lambda: Permutation.identity(0), ValueError, "n must be >= 1"),
    (lambda: Permutation.identity(2.0), TypeError, "n must be an int"),
    (lambda: Permutation.simple(3, True), TypeError, "i must be an int"),
    (lambda: Permutation.simple(3, 1.0), TypeError, "i must be an int"),
    (lambda: Permutation.simple(True, 1), TypeError, "n must be an int"),
    (lambda: ExtAffineElement.rotation(3) ** True, TypeError, "k must be an int"),
    (lambda: ExtAffineElement.rotation(3) ** 2.0, TypeError, "k must be an int"),
], ids=["identity-bool-n", "identity-n0", "identity-float-n", "permutation-identity-bool-n",
        "permutation-identity-n0", "permutation-identity-float-n", "simple-bool-index", "simple-float-index",
        "simple-bool-n", "power-bool", "power-float"])
def test_constructors_by_size_check_their_arguments(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("n, i", [(1, 1), (3, 0), (3, 3), (3, -1)])
def test_simple_keeps_refusing_its_range(n, i):
    with pytest.raises(ValueError, match="out of range"):
        Permutation.simple(n, i)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_simple_reflections_are_shared_frozen_instances(n):
    s = ExtAffineElement.simple_reflection
    for i in range(n):
        assert s(n, i) is s(n, i + n) is s(n, i - n)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s(n, i).lam = (0,) * n
    assert s(n, 1).lam == (0,) * n and s(n, 0).lam == (-1,) + (0,) * (n - 2) + (1,)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_rotation_power_closed_form_is_the_repeated_product(n):
    for k in range(-3 * n, 3 * n + 1):
        assert ExtAffineElement.rotation(n, k) == ExtAffineElement.rotation(n) ** k
    with pytest.raises(ValueError):
        ExtAffineElement.rotation(0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_is_the_repeated_product(n):
    s = ExtAffineElement.simple_reflection
    mixed = s(n, 0) * s(n, n - 1) * ExtAffineElement.translation(tuple(range(n))) * s(n, 1)
    for x in (ExtAffineElement.rotation(n), s(n, 0), mixed * ExtAffineElement.rotation(n) ** 2):
        for step in (x, x.inverse()):
            product = ExtAffineElement.identity(n)
            for k in range(3 * n + 1):
                assert x ** (k if step is x else -k) == product
                product = product * step


@pytest.mark.parametrize("build, error", [
    (lambda: ExtAffineElement((), Permutation(())), ValueError),
    (lambda: ExtAffineElement.identity(2) * None, TypeError),
    (lambda: ExtAffineElement.identity(2) * Permutation.identity(2), TypeError),
    (lambda: ExtAffineElement.identity(2) * (0, 0), TypeError),
], ids=["size-0", "times-none", "times-permutation", "times-tuple"])
def test_size_zero_and_products_with_another_class_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_normalize_central():
    x = ExtAffineElement.translation((3, 2, 2))
    y, m = x.normalize_central()
    assert m == 2
    assert y == ExtAffineElement.translation((1, 0, 0))


def test_rotation_exponent_additive():
    u = ExtAffineElement.rotation(3)
    s = ExtAffineElement.simple_reflection(3, 1)
    assert (u * s * u * s).rotation_exponent() == 2
    assert s.rotation_exponent() == 0


# ---------------------------------------------------------------- value types


@st.composite
def _field_pairs(draw):
    """Fields (lam, window) of two elements of one size, drawn from a small
    space so that equal and nearly equal pairs both occur often."""
    n = draw(st.integers(1, 4))
    fields = st.tuples(st.tuples(*[st.integers(-1, 1)] * n), st.permutations(range(1, n + 1)).map(tuple))
    first = draw(fields)
    second = draw(st.one_of(st.just(first), fields))
    return first, second


@settings(max_examples=300, deadline=None)
@given(_field_pairs())
def test_value_types_compare_and_hash_by_their_fields(pair):
    """``Permutation`` and ``ExtAffineElement`` are slotted frozen values:
    == holds exactly when the fields are equal, equal values hash equally,
    an unchecked ``_of`` value equals and hashes like its validated copy,
    another type compares unequal, every field refuses assignment, and no
    instance has a ``__dict__``."""
    (lam, window), (mu, other_window) = pair
    u, v = Permutation(window), Permutation(other_window)
    x, y = ExtAffineElement(lam, u), ExtAffineElement(mu, v)
    assert (u == v) == (window == other_window) and (u != v) == (window != other_window)
    assert (x == y) == (lam == mu and window == other_window) and (x != y) == (not x == y)
    for a, b in ((u, v), (x, y)):
        if a == b:
            assert hash(a) == hash(b)
    built = [Permutation._of(window), ExtAffineElement._of(lam, Permutation._of(window))]
    for value, copy in zip(built, (u, x)):
        assert value == copy and copy == value and hash(value) == hash(copy) and repr(value) == repr(copy)
    for value in (u, x, *built):
        for other in (window, (lam, window), None):
            assert value != other and not value == other
        for field in ("window",) if type(value) is Permutation else ("lam", "w"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, getattr(value, field))
        assert not hasattr(value, "__dict__")


@settings(deadline=None)
@given(_elements(), st.data())
def test_product_is_the_oracle_product(x, data):
    """The one-frame product equals (lam + w.mu, w v) formed from
    ``act_weight`` and the permutations' values, also for a right factor
    with a zero translation part; a size mismatch raises ValueError."""
    n = x.n
    lam = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    window = tuple(data.draw(st.permutations(range(1, n + 1))))
    for y in (ExtAffineElement(lam, Permutation(window)), ExtAffineElement((0,) * n, Permutation(window))):
        assert x * y == affine_product(x, y)
        assert (x * y).lam == affine_product(x, y).lam and type((x * y).lam) is tuple
    smaller = ExtAffineElement.identity(n - 1) if n > 1 else ExtAffineElement.identity(2)
    for a, b in ((x, smaller), (smaller, x)):
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            affine_product(a, b)
