from hypothesis import given
from hypothesis import strategies as st

import pytest

from steinwhit.weyl import (
    Permutation,
    _torus_character,
    all_permutations,
    dominance_shift,
    is_dominant,
)
from oracles import conjugated_shift, descent_suffix_counts

perms = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda win: Permutation(tuple(win)))

perm_pairs = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.permutations(list(range(1, n + 1))),
    )
).map(lambda pair: (Permutation(tuple(pair[0])), Permutation(tuple(pair[1]))))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8).map(tuple))
def test_torus_character_is_the_weighted_sum(kbar):
    n = len(kbar)
    assert _torus_character(kbar) == (sum(kbar), -sum((n + 1 - 2 * i) * k for i, k in enumerate(kbar, start=1)))


def test_identity_and_simple_windows():
    assert Permutation.identity(3).window == (1, 2, 3)
    assert Permutation.simple(3, 1).window == (2, 1, 3)
    assert Permutation.simple(3, 2).window == (1, 3, 2)
    assert Permutation.longest(4).window == (4, 3, 2, 1)


def test_composition_applies_right_factor_first():
    s1 = Permutation.simple(3, 1)
    s2 = Permutation.simple(3, 2)
    # (s1 * s2)(i) = s1(s2(i))
    assert (s1 * s2)(1) == s1(s2(1)) == 2
    assert (s1 * s2).window == (2, 3, 1)


def test_length_counts_inversions():
    assert Permutation.identity(4).length() == 0
    assert Permutation.simple(4, 2).length() == 1
    assert Permutation.longest(4).length() == 6
    assert Permutation((3, 1, 2)).length() == 2


@given(perms)
def test_inverse_is_two_sided(w):
    assert (w * w.inverse()).window == Permutation.identity(w.n).window
    assert (w.inverse() * w).window == Permutation.identity(w.n).window
    assert w.inverse().length() == w.length()


@given(perm_pairs)
def test_length_parity_is_multiplicative(pair):
    v, w = pair
    assert ((v * w).length() - v.length() - w.length()) % 2 == 0


def test_act_weight_pushes_entry_to_image_slot():
    w = Permutation((2, 3, 1))
    # entry j lands in slot w(j)
    assert w.act_weight((10, 20, 30)) == (30, 10, 20)
    with pytest.raises(ValueError):
        w.act_weight((10, 20, 30, 40))


@given(perms)
def test_act_weight_is_group_action(w):
    kbar = tuple(range(w.n))
    v = w.inverse()
    assert v.act_weight(w.act_weight(kbar)) == kbar


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_is_the_length_parity(n):
    for w in all_permutations(n):
        assert w.sign() == (-1) ** w.length(), w


@pytest.mark.parametrize("build, error", [
    (lambda: Permutation(()), ValueError),
    (lambda: Permutation.identity(2) * None, TypeError),
    (lambda: Permutation.identity(2) * (1, 2), TypeError),
    (lambda: all_permutations(True), TypeError),
    (lambda: all_permutations("3"), TypeError),
    (lambda: all_permutations(3.0), TypeError),
    (lambda: all_permutations(0), ValueError),
], ids=["size-0", "times-none", "times-tuple", "all-bool", "all-str", "all-float", "all-0"])
def test_size_zero_and_wrong_class_arguments_are_refused_at_the_call(build, error):
    """``all_permutations`` checks n when it is called, not when iterated."""
    with pytest.raises(error):
        build()


def test_all_permutations_counts():
    assert list(all_permutations(1)) == [Permutation((1,))]
    assert len(list(all_permutations(3))) == 6
    assert len(list(all_permutations(4))) == 24


def test_dominance_identity_is_weakly_decreasing():
    ident = Permutation.identity(2)
    assert is_dominant((1, 0), ident)
    assert is_dominant((0, 0), ident)
    assert not is_dominant((-1, 0), ident)


def test_dominance_reflected_allows_one_step_down():
    s1 = Permutation.simple(2, 1)
    assert is_dominant((-1, 0), s1)
    assert not is_dominant((-2, 0), s1)


def test_dominance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        is_dominant((1, 0, 0), Permutation.identity(2))


def test_descent_suffix_counts_frozen():
    assert descent_suffix_counts(Permutation.simple(3, 1)) == (1, 0, 0)
    assert descent_suffix_counts(Permutation.longest(3)) == (2, 1, 0)
    assert descent_suffix_counts(Permutation.identity(4)) == (0, 0, 0, 0)


def test_descent_suffix_counts_use_inverse_descents():
    # (2,3,1) has a descent at 2, its inverse (3,1,2) at 1.
    assert descent_suffix_counts(Permutation((2, 3, 1))) == (1, 0, 0)
    assert descent_suffix_counts(Permutation((3, 1, 2))) == (1, 1, 0)


def test_dominance_shift_frozen():
    assert dominance_shift(Permutation.simple(2, 1)) == (-1, 0)
    assert dominance_shift(Permutation.longest(4)) == (-3, -2, -1, 0)


@given(perms)
def test_shift_is_cone_vertex(w):
    shift = dominance_shift(w)
    assert is_dominant(shift, w)
    lowered = (shift[0] - 1,) + shift[1:]
    assert not is_dominant(lowered, w)


@given(perms)
def test_dominance_is_decrease_after_unshifting(w):
    # kbar is w-dominant exactly when kbar - shift is weakly decreasing.
    shift = dominance_shift(w)
    for kbar in [(0,) * w.n, shift, tuple(range(w.n, 0, -1)), tuple(range(w.n))]:
        rel = [k - s for k, s in zip(kbar, shift)]
        expected = all(rel[i] >= rel[i + 1] for i in range(w.n - 1))
        assert is_dominant(kbar, w) == expected


def test_conjugated_shift_frozen():
    assert conjugated_shift(Permutation.identity(2)) == ((-1, 0), 0)
    assert conjugated_shift(Permutation.longest(2)) == ((-1, -1), 1)


def _shift_from_differences(w: Permutation) -> tuple[int, ...]:
    """The shift rebuilt from the difference condition: consecutive entries
    differ by 0 over an ascent of w**-1 and by -1 over a descent, last entry 0."""
    winv = w.inverse()
    shift = [0] * w.n
    for i in range(w.n - 1, 0, -1):
        shift[i - 1] = shift[i] + (0 if winv(i) < winv(i + 1) else -1)
    return tuple(shift)


@pytest.mark.parametrize("n", range(1, 7))
def test_dominance_shift_matches_difference_condition(n):
    for w in all_permutations(n):
        assert dominance_shift(w) == _shift_from_differences(w), w


def test_conjugated_shift_is_central_translate_for_all_small_permutations():
    for n in range(2, 7):
        for w in all_permutations(n):
            weight, z = conjugated_shift(w)
            target = dominance_shift(Permutation.longest(n) * w)
            assert tuple(t - x for t, x in zip(target, weight)) == (z,) * n


def test_conjugated_shift_raises_when_not_central(monkeypatch):
    import steinwhit.weyl as weyl

    true_shift = weyl.dominance_shift
    monkeypatch.setattr(weyl, "dominance_shift", lambda w: (1,) + true_shift(w)[1:])
    with pytest.raises(ArithmeticError):
        conjugated_shift(Permutation((2, 3, 1)))
