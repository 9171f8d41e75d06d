import operator
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinwhit.values import PhaseSum
from oracles import dense_class_is_zero

coeffs = st.fractions(max_denominator=50)


def mono(c, e=0, ph=0, n=3, p=2):
    return PhaseSum.monomial(n, p, c, e, ph)


def test_zero_and_monomial():
    z = PhaseSum.zero(3, 2)
    assert z.is_zero()
    m = mono(Fraction(1, 2), 1, Fraction(1, 4))
    assert not m.is_zero()
    assert list(m.terms()) == [((1, Fraction(1, 4)), Fraction(1, 2))]


def test_sum_of_all_pth_roots_vanishes():
    for p in (2, 3, 5):
        total = PhaseSum.zero(2, p)
        for t in range(p):
            total = total + PhaseSum.monomial(2, p, 1, 0, Fraction(t, p))
        assert total.is_zero()


def test_sum_of_all_p_squared_roots_vanishes():
    p = 3
    total = PhaseSum.zero(2, p)
    for t in range(p * p):
        total = total + PhaseSum.monomial(2, p, 1, 0, Fraction(t, p * p))
    assert total.is_zero()


def test_partial_root_sum_does_not_vanish():
    p = 3
    total = PhaseSum.zero(2, p)
    for t in range(p):
        total = total + PhaseSum.monomial(2, p, 1, 0, Fraction(t, p * p))
    assert not total.is_zero()


def test_mixed_depth_cancellation():
    # zeta_9 * (1 + zeta_3 + zeta_3^2) = 0: needs the depth-2 rewrite.
    p = 3
    total = PhaseSum.zero(2, p)
    for t in (1, 4, 7):
        total = total + PhaseSum.monomial(2, p, 1, 0, Fraction(t, 9))
    assert total.is_zero()


def test_eps_classes_are_graded():
    # Equality is tested per eps class; classes never mix.
    s = mono(1, 0) + mono(-1, 1)
    assert not s.is_zero()
    t = mono(1, 0) + mono(1, 1) + mono(1, 2)
    assert not t.is_zero()


def test_eps_exponent_wraps_mod_n():
    assert mono(1, 3) == mono(1, 0)
    assert mono(1, 4) == mono(1, 1)


def test_phase_must_have_p_power_denominator():
    with pytest.raises(ValueError):
        mono(1, 0, Fraction(1, 3), n=2, p=2)
    # phases live on the circle, so a value past 1 wraps instead of raising
    assert mono(1, 0, Fraction(3, 2), n=2, p=2) == mono(1, 0, Fraction(1, 2), n=2, p=2)


def test_times_monomial_shifts_and_scales():
    m = mono(2, 1, Fraction(1, 2))
    shifted = m.times_monomial(Fraction(1, 2), 2, Fraction(1, 2))
    assert shifted == mono(1, 0, 0)


def test_context_mismatch_rejected():
    for a, b in ((mono(1, n=2, p=2), mono(1, n=2, p=3)), (mono(1, n=2, p=2), mono(1, n=3, p=2))):
        for op in (operator.add, operator.sub, operator.eq):
            with pytest.raises(ValueError):
                op(a, b)
    assert mono(1) != 1


def test_unhashable():
    with pytest.raises(TypeError):
        hash(mono(1))


@given(coeffs, coeffs, coeffs)
def test_ring_identities(a, b, c):
    x = mono(a, 0, Fraction(1, 2))
    y = mono(b, 1)
    z = mono(c, 2, Fraction(1, 4))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x - x).is_zero()


# Sums for the fast-path property: every key is given as the caller would
# give it (eps exponent outside 0..n-1, phase outside [0, 1)), and b
# repeats some of a's terms negated, so a + b cancels them.
@st.composite
def sum_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    p = draw(st.sampled_from([2, 3, 5]))
    term = st.tuples(
        st.integers(-n, 2 * n),
        st.builds(lambda a, k: Fraction(a, p**k), st.integers(-30, 30), st.integers(0, 3)),
        coeffs,
    )
    a_terms = draw(st.lists(term, max_size=8))
    b_terms = draw(st.lists(term, max_size=8))
    b_terms += [(e, t, -c) for e, t, c in draw(st.lists(st.sampled_from(a_terms), max_size=4))] if a_terms else []
    return n, p, _built(n, p, a_terms), _built(n, p, b_terms)


def _built(n, p, terms):
    total = PhaseSum.zero(n, p)
    for e, t, c in terms:
        total = _oracle_add(total, PhaseSum.monomial(n, p, c, e, t))
    return total


def _oracle_add(a, b):
    """Term by term through the validating constructor."""
    merged = {}
    for key, c in list(a.terms()) + list(b.terms()):
        merged[key] = merged.get(key, 0) + c
    return PhaseSum(a.n, a.p, merged)


def _oracle_times_monomial(a, coeff, e, t):
    return PhaseSum(a.n, a.p, {(k_e + e, k_t + t): c * coeff for (k_e, k_t), c in a.terms()})


def _same(x, y):
    assert x == y
    assert repr(x) == repr(y)
    assert list(x.terms()) == list(y.terms())
    assert all(c != 0 and 0 <= e < x.n and 0 <= t < 1 for (e, t), c in x.terms())
    assert_canonical_keys(x)


def is_phase_key(key, p):
    """(a, d) is a canonical phase key: d = p^u, 0 <= a < d, a/d in lowest
    terms, and phase 0 is (0, 1)."""
    a, d = key
    if type(a) is not int or type(d) is not int or d < 1 or not 0 <= a < d:
        return False
    while d % p == 0:
        d //= p
    return d == 1 and (key == (0, 1) or a % p != 0)


def assert_canonical_keys(x):
    """Every key of x is (e, (a, d)) with 0 <= e < n and a canonical phase
    key, so x has the very terms the validating constructor gives it."""
    for e, phase in x._terms:
        assert type(e) is int and 0 <= e < x.n and is_phase_key(phase, x.p), (e, phase)
    assert x._terms == PhaseSum(x.n, x.p, dict(x.terms()))._terms


@settings(max_examples=200, deadline=None)
@given(sum_pairs(), coeffs, st.integers(-6, 6), st.just(0) | st.integers(-20, 20), st.integers(0, 3))
def test_internal_arithmetic_matches_term_by_term_oracle(pair, c, e, num, depth):
    n, p, a, b = pair
    t = Fraction(num, p**depth)
    neg_b = PhaseSum(n, p, {k: -v for k, v in b.terms()})
    _same(a + b, _oracle_add(a, b))
    _same(a - b, _oracle_add(a, neg_b))
    _same(-b, neg_b)
    _same(a.times_monomial(c, e, t), _oracle_times_monomial(a, c, e, t))
    _same(a.times_monomial(c, e), _oracle_times_monomial(a, c, e, 0))
    for (_, t0), _c in a.terms()[:1]:  # a phase sum that reaches 0: key (0, 1)
        _same(a.times_monomial(c, e, -t0), _oracle_times_monomial(a, c, e, -t0))
    _same(a + (-a), PhaseSum.zero(n, p))


def test_times_monomial_validates_phase_and_zero_coefficient():
    x = mono(3, 1, Fraction(1, 2), n=2, p=2)
    with pytest.raises(ValueError):
        x.times_monomial(1, 0, Fraction(1, 3))
    zero = x.times_monomial(0, 1, Fraction(1, 4))
    assert list(zero.terms()) == []
    assert repr(zero) == "PhaseSum(2, 2, 0)"


@pytest.mark.parametrize("build", [
    lambda: PhaseSum(2, 2, {(0.5, 0): 1}),
    lambda: PhaseSum(2, 2, {(True, 0): 1}),
    lambda: PhaseSum(2, 2, {(0, 0.5): 1}),
    lambda: PhaseSum(2, 2, {(0, 0): 0.5}),
    lambda: PhaseSum(2, 2, {(0, 0): True}),
    lambda: PhaseSum.monomial(2, 2, 1, 1.0),
    lambda: PhaseSum.monomial(2, 2, 1.5),
    lambda: PhaseSum.monomial(2, 2, 1, 0, 0.25),
    lambda: PhaseSum.monomial(2, 2, 1).times_monomial(1, 0.5),
    lambda: PhaseSum.monomial(2, 2, 1).times_monomial(1, True),
    lambda: PhaseSum.monomial(2, 2, 1).times_monomial(0.5),
    lambda: PhaseSum.monomial(2, 2, 1).times_monomial(1, 0, 0.5),
    lambda: PhaseSum(2.0, 2),
    lambda: PhaseSum(2, True),
])
def test_public_constructors_refuse_wrong_types(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("n, p", [(0, 2), (2, 1), (2, 0), (2, -3)])
def test_context_out_of_range_is_refused(n, p):
    # p = 1 made the phase check loop forever
    with pytest.raises(ValueError):
        PhaseSum(n, p)


def test_traced_names_are_in_the_class_body():
    """The benchmark's tracer wraps these four in ``PhaseSum.__dict__``."""
    assert {"__add__", "__eq__", "is_zero", "times_monomial"} <= set(PhaseSum.__dict__)


def test_internal_arithmetic_calls_no_validating_constructor(monkeypatch):
    a = mono(Fraction(1, 2), 1, Fraction(1, 4)) + mono(3, 2)
    b = mono(-3, 2) + mono(1, 0, Fraction(1, 2))
    calls = []

    def counted(self, *args, _original=PhaseSum.__init__, **kwargs):
        calls.append(1)
        _original(self, *args, **kwargs)

    monkeypatch.setattr(PhaseSum, "__init__", counted)
    [a + b, a - b, -a, a.times_monomial(2, 1, Fraction(1, 2)), a.times_monomial(0), a == b]
    assert calls == []


# Summands for the accumulator: each later summand may repeat, negated,
# terms of the earlier ones, so keys cancel and come back in the sum.
@st.composite
def summand_lists(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    p = draw(st.sampled_from([2, 3, 5]))
    term = st.tuples(
        st.integers(0, n - 1), st.builds(lambda a, k: Fraction(a % p**k, p**k), st.integers(0, 30), st.integers(0, 2)),
        coeffs.filter(bool),
    )
    seen, summands = [], []
    for _ in range(draw(st.integers(0, 6))):
        terms = draw(st.lists(term, max_size=4))
        if seen:
            terms += [(e, t, -c) for e, t, c in draw(st.lists(st.sampled_from(seen), max_size=3))]
        seen += terms
        summands.append(_built(n, p, terms))
    start = _built(n, p, draw(st.lists(term, max_size=3)))
    return start, summands


@settings(max_examples=100, deadline=None)
@given(summand_lists())
def test_sum_is_the_fold_of_plus(case):
    start, summands = case
    before = [list(s._terms.items()) for s in [start, *summands]]
    total = start._sum(iter(summands))
    fold = start
    for s in summands:
        fold = fold + s
    assert total == fold and repr(total) == repr(fold)
    assert list(total._terms.items()) == list(fold._terms.items())  # one key order
    assert all(c for c in total._terms.values())
    assert type(total) is PhaseSum and (total.n, total.p) == (start.n, start.p)
    assert total is not start and total._terms is not start._terms
    assert [list(s._terms.items()) for s in [start, *summands]] == before


@settings(max_examples=100, deadline=None)
@given(sum_pairs(), st.sampled_from(["drawn", "copy", "zeta"]), st.integers(0, 4), coeffs.filter(bool))
def test_equality_is_the_zero_test_of_the_difference(pair, kind, e, c):
    """Random pairs, equal copies, and pairs whose terms differ by a sum of
    all p-th roots of unity (zero under the zeta relation)."""
    n, p, a, b = pair
    if kind == "copy":
        b = PhaseSum(n, p, dict(a.terms()))
    elif kind == "zeta":
        b = a._sum(PhaseSum.monomial(n, p, c, e, Fraction(k, p)) for k in range(p))
        assert a._terms != b._terms
    assert (a == b) == (a - b).is_zero()
    assert (a != b) == (not (a - b).is_zero())
    if kind != "drawn":
        assert a == b


@pytest.mark.parametrize("other", [PhaseSum.zero(3, 2), PhaseSum.zero(2, 3), PhaseSum.monomial(2, 3, 1)])
def test_equality_across_contexts_raises_even_between_zeros(other):
    with pytest.raises(ValueError):
        PhaseSum.zero(2, 2) == other
    with pytest.raises(ValueError):
        other == PhaseSum.zero(2, 2)


# One eps class for the zero test: whole cosets c zeta^s (1 + zeta_p + ...
# + zeta_p^{p-1}) at depth <= 3, which vanish, some with one term left
# out, plus a few drawn terms (none, often).
@st.composite
def phase_classes(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    terms = {}

    def add(t, c):
        t %= 1
        terms[t] = terms.get(t, 0) + c

    cosets = st.tuples(st.integers(1, 3), st.integers(0, 342), coeffs.filter(bool), st.booleans())
    for depth, s, c, drop in draw(st.lists(cosets, max_size=3)):
        for j in range(p - drop):
            add(Fraction(s, p**depth) + Fraction(j, p), c)
    for k, a, c in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 342), coeffs), max_size=3)):
        add(Fraction(a, p**k), c)
    return p, {t: c for t, c in terms.items() if c}


@settings(max_examples=300, deadline=None)
@given(phase_classes(), st.integers(0, 2))
def test_sparse_zero_test_matches_the_dense_oracle(case, e):
    p, terms = case
    x = PhaseSum(3, p, {(e, t): c for t, c in terms.items()})
    assert x.is_zero() == dense_class_is_zero(terms, p)
    y = x + PhaseSum(3, p, {(e + 1, t): c for t, c in terms.items()})
    assert y.is_zero() == dense_class_is_zero(terms, p)  # two eps classes, each the same sum


def test_deep_phases_compare_within_a_small_budget():
    """The zero test is sparse: two one-term sums at phases 1/p^2 and 2/p^2
    compare in time and memory independent of p (a dense test needs p^2
    slots, about 10^10 here)."""
    p = 100003
    tracemalloc.start()
    try:
        a = PhaseSum.monomial(2, p, 1, 0, Fraction(1, p * p))
        b = PhaseSum.monomial(2, p, 1, 0, Fraction(2, p * p))
        start = time.perf_counter()
        equal = a == b
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not equal
    assert elapsed < 0.05 and peak < 1 << 20, (elapsed, peak)


def test_phase_keys_are_lowest_terms_integers():
    x = mono(1, 0, Fraction(6, 8), n=2, p=2) + mono(2, 1, 3, n=2, p=2) + mono(3, 1, Fraction(-1, 4), n=2, p=2)
    assert x._terms == {(0, (3, 4)): 1, (1, (0, 1)): 2, (1, (3, 4)): 3}
    assert x.times_monomial(1, 0, Fraction(1, 4))._terms == {(0, (0, 1)): 1, (1, (1, 4)): 2, (1, (0, 1)): 3}
    assert x.times_monomial(1, 0, Fraction(3, 4))._terms == {(0, (1, 2)): 1, (1, (3, 4)): 2, (1, (1, 2)): 3}
