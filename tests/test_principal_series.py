import itertools
import random
import re
from fractions import Fraction

import pytest

from steinwhit import minors, padic, principal_series, whittaker
from steinwhit.affine_weyl import ExtAffineElement, realize
from steinwhit.hecke import steinberg_character
from steinwhit.minors import cell_label
from steinwhit.padic import PAdicMatrix, matrix_from_json
from steinwhit.principal_series import (
    InducedFunction,
    apply_generator,
    generator_cosets,
    run_eigen_checks,
)
from steinwhit.sampling import random_group_element, random_iwahori
from steinwhit.values import PhaseSum
from steinwhit.weyl import Permutation, all_permutations, is_dominant
from steinwhit.whittaker import eval_cell, eval_matrix, verify_functional_equations
import oracles


def test_casselman_value_at_identity():
    one = PAdicMatrix.identity(2, 3)
    w_id = Permutation.identity(2)
    assert InducedFunction.casselman(w_id, 3, 0).eval(one) == PhaseSum.monomial(2, 3, 1)
    assert InducedFunction.casselman(Permutation.simple(2, 1), 3, 0).eval(one).is_zero()


def test_casselman_value_on_rotation_matrix():
    p = 3
    u = realize(ExtAffineElement.rotation(2), p)
    # cell of u is ((0,1), s1): value q * eps^e on the s1 function
    for e in range(2):
        assert InducedFunction.casselman(Permutation.simple(2, 1), p, e).eval(u) == PhaseSum.monomial(2, p, p, e)
        assert InducedFunction.casselman(Permutation.identity(2), p, e).eval(u).is_zero()


def test_eval_is_right_iwahori_invariant():
    rng = random.Random(3)
    p = 3
    func = InducedFunction.eigenvector(2, p, 1, "minus")
    g = random_group_element(rng, 2, p)
    val = func.eval(g)
    for _ in range(8):
        assert func.eval(g * random_iwahori(rng, 2, p)) == val


def test_phi_values_at_identity():
    one = PAdicMatrix.identity(3, 2)
    for kind in ("minus", "plus"):
        assert InducedFunction.eigenvector(3, 2, 0, kind).eval(one) == PhaseSum.monomial(3, 2, 1)


def test_arguments_of_another_class_are_refused():
    f = InducedFunction.eigenvector(2, 3, 0, "minus")
    for build in (lambda: f.eval([[1]]), lambda: f.eval(None),
                  lambda: InducedFunction.casselman((1, 2), 3, 0)):
        with pytest.raises(TypeError):
            build()


def test_eigenvector_kind_is_validated():
    with pytest.raises(ValueError):
        InducedFunction.eigenvector(2, 3, 0, "spherical")


def test_generator_cosets_counts_and_labels():
    n, p = 3, 5
    for i in range(1, n):
        reps = generator_cosets(n, p, i)
        assert len(reps) == p
        for rep in reps:
            assert cell_label(rep) == ((0,) * n, Permutation.simple(n, i))
    reps0 = generator_cosets(n, p, 0)
    assert len(reps0) == p
    assert len(generator_cosets(n, p, "rotation")) == 1


@pytest.mark.parametrize("n,p", [(2, 3), (3, 5), (4, 2)])
def test_generator_cosets_are_cached_tuples(n, p):
    for i in range(1, n):
        si = PAdicMatrix.permutation(p, Permutation.simple(n, i))
        rebuilt = tuple(PAdicMatrix.one_param(p, n, i, i + 1, t) * si for t in range(p))
        assert generator_cosets(n, p, i) == rebuilt
    s0 = realize(ExtAffineElement.simple_reflection(n, 0), p)
    rebuilt = tuple(PAdicMatrix.one_param(p, n, n, 1, p * t) * s0 for t in range(p))
    assert generator_cosets(n, p, 0) == rebuilt
    assert generator_cosets(n, p, "rotation") == (realize(ExtAffineElement.rotation(n), p),)
    assert generator_cosets(n, p, "center") == (PAdicMatrix.diagonal(p, [p] * n),)
    for gen in (*range(n), "rotation", "center"):
        reps = generator_cosets(n, p, gen)
        assert isinstance(reps, tuple)
        assert generator_cosets(n, p, gen) is reps
    # the verify workload's 22 keys (6 configs) fit with room to spare
    assert generator_cosets.cache_info().maxsize >= 64


def test_apply_generator_refuses_a_matrix_of_another_size_or_prime():
    func = InducedFunction.eigenvector(2, 3, 0, "minus")
    for g in (PAdicMatrix.identity(3, 3), PAdicMatrix.identity(2, 2)):
        for gen in (0, 1, "rotation"):
            with pytest.raises(ValueError, match="context mismatch"):
                apply_generator(func, gen, g)


def test_generator_cosets_are_disjoint():
    n, p = 2, 3
    for gen in (0, 1):
        reps = generator_cosets(n, p, gen)
        for a in range(p):
            for b in range(a + 1, p):
                quotient = reps[a].inverse() * reps[b]
                assert not quotient.is_in_iwahori()


def test_affine_minus_eigenvalue_at_identity():
    # sum over the affine cosets: (p-1) identity-cell terms and one -q term
    n, p = 2, 3
    one = PAdicMatrix.identity(n, p)
    total = apply_generator(InducedFunction.eigenvector(n, p, 0, "minus"), 0, one)
    assert total == PhaseSum.monomial(n, p, -1)


def test_plus_is_not_rotation_eigenvector():
    n, p = 2, 3
    one = PAdicMatrix.identity(n, p)
    plus = InducedFunction.eigenvector(n, p, 1, "plus")
    got = apply_generator(plus, "rotation", one)
    assert got == PhaseSum.monomial(n, p, p, 1)
    claimed = plus.eval(one).times_monomial((-1) ** (n - 1), 1)
    assert got != claimed


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_eigen_suite_passes(n, p):
    for e in range(n):
        results = run_eigen_checks(n, p, e, samples=5, seed=17)
        failures = [r.name for r in results if not r.passed]
        assert failures == []


def test_failed_eigen_check_names_its_point(monkeypatch):
    """A planted wrong rotation form: the rotation term is taken at the
    identity representative, so minus(g u) reads minus(g) and not
    eps^e minus(g).  Only the minus rotation check fails; its detail names
    point 0, the seed, the point as CLI JSON and both sides, which
    ``apply_generator`` and ``InducedFunction.eval`` rebuild from that
    JSON alone."""
    n, p, e = 3, 2, 1
    cosets = principal_series.generator_cosets

    def planted(n_, p_, gen):
        return (PAdicMatrix.identity(n_, p_),) if gen == "rotation" else cosets(n_, p_, gen)

    monkeypatch.setattr(principal_series, "generator_cosets", planted)
    results = {r.name: r for r in run_eigen_checks(n, p, e, samples=3, seed=5)}
    assert [name for name, r in results.items() if not r.passed] == ["minus-eigenvalue:rotation"]
    assert all(r.detail == "" for r in results.values() if r.passed)
    detail = results["minus-eigenvalue:rotation"].detail
    m = re.fullmatch(r"point (\d+) \(seed 5\): g = (\{.*\}); minus\(g u\) = (.*); eps\^1 minus\(g\) = (.*)", detail)
    assert m is not None, detail
    assert m[1] == "0"  # every wrong eigenvalue already fails at the identity
    g = matrix_from_json(m[2])
    minus = InducedFunction.eigenvector(n, p, e, "minus")
    assert repr(apply_generator(minus, "rotation", g)) == m[3]
    assert repr(minus.eval(g).times_monomial((-1) ** (n - 1), e)) == m[4]
    assert m[3] != m[4]


def _principal_identities(n, p, e, labels):
    """The eigen-identities of ``run_eigen_checks`` for minus and plus, with
    each function's values on the cells of ``labels``."""
    minus = InducedFunction.eigenvector(n, p, e, "minus")
    plus = InducedFunction.eigenvector(n, p, e, "plus")
    minus_at, plus_at = [minus._label_value(x) for x in labels], [plus._label_value(x) for x in labels]
    identities = [(f"minus[{i}]", minus._label_value, minus_at, i, (-1, 0), ("lhs", "rhs")) for i in range(n)]
    identities.append(("minus[u]", minus._label_value, minus_at, "rotation", ((-1) ** (n - 1), e), ("lhs", "rhs")))
    identities += [(f"plus[{i}]", plus._label_value, plus_at, i, (p, 0), ("lhs", "rhs")) for i in range(1, n)]
    return identities


@pytest.mark.parametrize("n, p", [(3, 2), (4, 3), (5, 2)])
def test_principal_identities_hold_at_the_permutation_points(n, p):
    """The engine on a list of points that no sampler drew: the n! matrices
    P_w.  A function of the model is fixed by its values there (one
    coefficient per w), so the eigen-identities, which hold at every P_w
    for every e, hold everywhere at this (n, p)."""
    points = [PAdicMatrix.permutation(p, w) for w in all_permutations(n)]
    labels = [cell_label(g) for g in points]
    assert [x[1] for x in labels] == list(all_permutations(n))
    for e in range(n):
        results = principal_series._check_identities(points, None, _principal_identities(n, p, e, labels))
        assert [r.detail for r in results if not r.passed] == []


def test_engine_reads_each_point_at_its_own_value():
    """``f_at[k]`` is f at points[k]: with the true values every identity
    holds at every point, and with the value at point 2 alone made wrong
    the record names point 2, the first wrong one."""
    n, p, e = 3, 2, 1
    points = principal_series._sample_points(n, p, 2, 5)
    labels = [cell_label(g) for g in points]
    identities = _principal_identities(n, p, e, labels)
    assert all(r.passed for r in principal_series._check_identities(points, 5, identities))
    name, cell, f_at, gen, ce, texts = identities[0]
    assert f_at[1] != f_at[0]
    wrong = f_at[:2] + [f_at[2] + PhaseSum.monomial(n, p, 1)]
    (result,) = principal_series._check_identities(points, 5, [(name, cell, wrong, gen, ce, texts)])
    assert not result.passed
    assert result.detail.startswith(f"point 2 (seed 5): g = {padic.matrix_to_json(points[2])}; lhs = ")


def _fixed_results(n, p, e):
    """The fixed checks of ``run_eigen_checks`` by name; every other check passes."""
    results = {r.name: r for r in run_eigen_checks(n, p, e, samples=1, seed=5)}
    fixed = ("plus-rotation-fails-at-identity", "affine-cosets-by-conjugation", "casselman-triangularity")
    assert all(r.passed for name, r in results.items() if name not in fixed)
    return {name: results[name] for name in fixed}


def _plant_casselman(monkeypatch, n, p):
    """The Casselman function f_{s_1} with coefficient 2."""
    s1 = Permutation.simple(n, 1)

    def planted(cls, w, p_, eps_exp):
        return cls(w.n, p_, eps_exp, {w: PhaseSum.monomial(w.n, p_, 2 if w == s1 else 1)})

    monkeypatch.setattr(InducedFunction, "casselman", classmethod(planted))


def test_failed_casselman_check_names_generator_w_and_both_sides(monkeypatch):
    """A planted Casselman function f_{s_1} with coefficient 2: the first
    failing (i, w) is (1, s_1), whose sum reads 2p instead of p."""
    n, p, e = 3, 3, 1
    _plant_casselman(monkeypatch, n, p)
    results = _fixed_results(n, p, e)
    assert [name for name, r in results.items() if not r.passed] == ["casselman-triangularity"]
    assert results["casselman-triangularity"].detail == (
        "generator 1, w = (2, 1, 3): sum of f_w(rep) over the cosets of s_1 = "
        f"{PhaseSum.monomial(n, p, 2 * p)!r}; expected {PhaseSum.monomial(n, p, p)!r}"
    )


def _plant_for_the_oracle(monkeypatch, plant, n, p):
    """Plant a fault at (n, p); the window of the first w of generator 1
    that must then fail, or None for no fault.  "casselman" is the planted
    f_{s_1} above; "cosets-after-s1" moves every coset of s_1 to the cell
    of the longest element, after s_1 in window order, so that the first
    failure is the unreached s_1; "coset-before-s1" moves one coset of s_1
    to the identity cell, before s_1, so that the first failure is a
    reached w other than s_1."""
    s1, cosets = Permutation.simple(n, 1), principal_series.generator_cosets
    if plant == "none":
        return None
    if plant == "casselman":
        _plant_casselman(monkeypatch, n, p)
        return s1.window
    if plant == "cosets-after-s1":
        moved, first = (PAdicMatrix.permutation(p, Permutation.longest(n)),) * p, s1.window
    else:
        moved, first = (PAdicMatrix.identity(n, p),) + cosets(n, p, 1)[1:], tuple(range(1, n + 1))
    monkeypatch.setattr(principal_series, "generator_cosets",
                        lambda n_, p_, gen: moved if gen == 1 else cosets(n_, p_, gen))
    return first


@pytest.mark.parametrize("plant", ["none", "casselman", "cosets-after-s1", "coset-before-s1"])
@pytest.mark.parametrize("n, p", [(3, 2), (4, 3), (5, 2)])
def test_casselman_check_equals_the_whole_basis_oracle(monkeypatch, n, p, plant):
    """The check builds only s_i and the w that a coset of s_i reaches; its
    verdict and detail are those of the loop over all n! Casselman
    functions, byte for byte, for every e, with and without a fault."""
    first = _plant_for_the_oracle(monkeypatch, plant, n, p)
    for e in range(n):
        want = oracles.casselman_triangularity(n, p, e)
        assert principal_series._casselman_triangularity(n, p, e) == want
        assert (want == "") if first is None else want.startswith(f"generator 1, w = {first}: ")


def test_failed_plus_rotation_check_prints_both_sides(monkeypatch):
    """A planted rotation that acts on plus by the minus eigenvalue at the
    identity: both sides agree, which this check must reject."""
    n, p, e = 3, 2, 1
    apply = principal_series.apply_generator

    def planted(func, gen, g):
        if gen == "rotation":
            return func.eval(g).times_monomial(1, e)
        return apply(func, gen, g)

    monkeypatch.setattr(principal_series, "apply_generator", planted)
    results = _fixed_results(n, p, e)
    assert [name for name, r in results.items() if not r.passed] == ["plus-rotation-fails-at-identity"]
    value = PhaseSum.monomial(n, p, 1, e)
    assert results["plus-rotation-fails-at-identity"].detail == f"plus(u) = {value!r} equals eps^1 plus(1) = {value!r}"


def test_failed_affine_coset_check_names_t_and_both_matrices(monkeypatch):
    """A planted conjugation that swaps the representatives t = 1 and 2:
    the first differing t is 1, with both matrices as CLI JSON."""
    n, p, e = 2, 3, 1
    direct = generator_cosets(n, p, 0)
    swapped = [direct[0], direct[2], direct[1]]
    monkeypatch.setattr(principal_series, "_affine_cosets_by_conjugation", lambda n_, p_: swapped)
    results = _fixed_results(n, p, e)
    assert [name for name, r in results.items() if not r.passed] == ["affine-cosets-by-conjugation"]
    assert results["affine-cosets-by-conjugation"].detail == (
        f"t = 1: direct {padic.matrix_to_json(direct[1])}; by conjugation {padic.matrix_to_json(direct[2])}"
    )


@pytest.mark.parametrize("n, p, samples", [(2, 3, 3), (3, 2, 1), (4, 2, 0), (5, 7, 2)])
def test_one_minors_pass_per_coset_term(monkeypatch, n, p, samples):
    """Each point costs one pass for f(g) (``cell_label`` or
    ``eval_matrix``) and one per coset term per generator, shared by every
    identity on it; the principal suite adds one pass for the plus
    rotation at the identity, whose plus(1) is the engine's value at
    point 0, and p per finite reflection for the Casselman check."""
    calls = []
    original = minors._minors_pass

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (minors, principal_series, whittaker):
        monkeypatch.setattr(module, "_minors_pass", counted)
    assert all(r.passed for r in run_eigen_checks(n, p, 1 % n, samples=samples, seed=3))
    assert len(calls) == (samples + 1) * (n * p + 2) + (n - 1) * p + 1
    calls.clear()
    assert all(r.passed for r in verify_functional_equations(n, p, 1 % n, samples=samples, seed=3))
    assert len(calls) == (samples + 1) * (n * p + 3)


def test_eigen_checks_build_a_fixed_number_of_phase_sums(monkeypatch):
    """``run_eigen_checks`` builds its validated PhaseSums per function and
    per call: the count depends on n alone, not on p or the samples, where
    a zero per off-support coset term and a monomial per (generator, w)
    made it grow as n! (n - 1) p (63 at (3, 3) and 492 at (4, 5))."""
    counts = {}
    for n, p, samples in [(3, 2, 2), (3, 3, 2), (3, 5, 5), (4, 2, 2), (4, 5, 2), (4, 5, 5)]:
        run_eigen_checks(n, p, 1, samples=samples)  # warm-up: the cached representatives
        calls = []

        def counted(self, *args, _original=PhaseSum.__init__, **kwargs):
            calls.append(1)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(PhaseSum, "__init__", counted)
        results = run_eigen_checks(n, p, 1, samples=samples)
        monkeypatch.undo()
        assert all(r.passed for r in results)
        counts[n, p, samples] = len(calls)
    for n, factorial in [(3, 6), (4, 24)]:
        seen = {c for (m, _, _), c in counts.items() if m == n}
        assert len(seen) == 1 and seen.pop() <= 5 * factorial, counts


def test_the_shared_off_support_zero_stays_zero():
    """Every value off the support is one zero per function; a sum that
    starts from it must not write into it."""
    one = PAdicMatrix.identity(3, 5)
    func = InducedFunction.casselman(Permutation.simple(3, 1), 5, 1)
    off = func.eval(one)
    assert off.is_zero() and (off.n, off.p) == (3, 5)
    assert apply_generator(func, 1, one) == PhaseSum.monomial(3, 5, 5)
    assert apply_generator(func, 2, one).is_zero()
    assert func.eval(one) is off and off.is_zero()


@pytest.mark.parametrize("build, error", [
    # a coefficient in another context was returned as a value in that context
    (lambda: InducedFunction(2, 3, 0, {Permutation.identity(2): PhaseSum.monomial(2, 5, 1)}), ValueError),
    (lambda: InducedFunction(2, 3, 0, {Permutation.identity(2): PhaseSum.monomial(3, 3, 1)}), ValueError),
    # a key of another size was accepted and never matched
    (lambda: InducedFunction(2, 3, 0, {Permutation.identity(3): PhaseSum.monomial(2, 3, 1)}), ValueError),
    # an int coefficient failed with AttributeError inside _label_value
    (lambda: InducedFunction(2, 3, 0, {Permutation.identity(2): 7}), TypeError),
    (lambda: InducedFunction(2, 3, 0, {Permutation.identity(2): Fraction(1)}), TypeError),
    (lambda: InducedFunction(2, 3, 0, {(1, 2): PhaseSum.monomial(2, 3, 1)}), TypeError),
    (lambda: InducedFunction(2, 3, 1.0, {}), TypeError),
    (lambda: InducedFunction(2, 3, True, {}), TypeError),
    (lambda: InducedFunction(2, 3, "1", {}), TypeError),
    (lambda: InducedFunction(2.0, 3, 0, {}), TypeError),
    (lambda: InducedFunction(2, 1, 0, {}), ValueError),
])
def test_induced_function_checks_its_input(build, error):
    with pytest.raises(error):
        build()


def test_induced_function_keeps_its_checked_input():
    w = Permutation.simple(3, 2)
    coeff = PhaseSum(3, 5, {(1, Fraction(1, 5)): 2, (0, 0): -1})
    func = InducedFunction(3, 5, 4, {w: coeff})
    assert (func.n, func.p, func.eps_exp, func.coeffs) == (3, 5, 1, {w: coeff})
    assert func.eval(PAdicMatrix.permutation(5, w)) == coeff
    assert InducedFunction(3, 5, -1, {}).eval(PAdicMatrix.identity(3, 5)) == PhaseSum.zero(3, 5)


def _label_value_by_times_monomial(func, label):
    """The value on a cell through the validating ``times_monomial``, with
    q^q_exp as a Fraction: the path ``_label_value`` replaced."""
    kbar, w = label[0], label[1]
    coeff = func.coeffs.get(w)
    if coeff is None:
        return func._zero
    q_exp = -sum((func.n + 1 - 2 * i) * k for i, k in enumerate(kbar, start=1))
    return coeff.times_monomial(Fraction(func.p) ** q_exp, func.eps_exp * sum(kbar))


def _multi_term_function(n, p, eps_exp, rng):
    """A function whose coefficients have several terms: eps powers, p-power
    phases and rationals, one w left out."""
    coeffs = {}
    for w in list(all_permutations(n))[1:]:
        terms = {(rng.randrange(n), Fraction(rng.randrange(p * p), p * p)): Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, p]))
                 for _ in range(rng.randint(1, 4))}
        coeffs[w] = PhaseSum(n, p, terms)
    return InducedFunction(n, p, eps_exp, coeffs)


@pytest.mark.parametrize("n, p, radius", [(2, 3, 3), (3, 2, 2), (3, 5, 1), (4, 2, 1)])
def test_label_values_equal_the_times_monomial_path(monkeypatch, n, p, radius):
    """On every cell (kbar, w) of the box |k_i| <= radius, the unchecked
    value equals the ``times_monomial`` one: value, coefficient types and
    key order, for every Casselman function, both eigenvectors and a
    function with multi-term coefficients, and it calls no ``times_monomial``."""
    eps_exp = 1 % n
    funcs = [InducedFunction.casselman(w, p, eps_exp) for w in all_permutations(n)]
    funcs += [InducedFunction.eigenvector(n, p, eps_exp, kind) for kind in ("minus", "plus")]
    funcs.append(_multi_term_function(n, p, eps_exp, random.Random(f"multi:{n}:{p}")))
    labels = [(kbar, w) for kbar in itertools.product(range(-radius, radius + 1), repeat=n)
              for w in all_permutations(n)]

    def refused(*args, **kwargs):
        raise AssertionError("times_monomial on the label path")

    monkeypatch.setattr(PhaseSum, "times_monomial", refused)
    got = [[f._label_value(label) for label in labels] for f in funcs]
    monkeypatch.undo()
    for f, values in zip(funcs, got):
        for label, value in zip(labels, values):
            want = _label_value_by_times_monomial(f, label)
            assert type(value) is PhaseSum and (value.n, value.p) == (n, p)
            assert value == want and repr(value) == repr(want), (label, value, want)
            assert list(value._terms.items()) == list(want._terms.items())
            assert all(type(c) is Fraction for c in value._terms.values())


_MINUS = InducedFunction.eigenvector(2, 3, 0, "minus")
_ONE = PAdicMatrix.identity(2, 3)
_ID2 = Permutation.identity(2)


@pytest.mark.parametrize("build, error, match", [
    # p: the coset zero test is exact only for a prime p; at p = 4,
    # i + (-i) = 0 was neither zero nor equal to zero
    (lambda: PhaseSum(1, 4, {(0, Fraction(1, 4)): 1, (0, Fraction(3, 4)): 1}), ValueError, "p must be prime"),
    (lambda: PhaseSum.zero(1, 4), ValueError, "p must be prime"),
    (lambda: PhaseSum.monomial(2, 9, 1), ValueError, "p must be prime"),
    (lambda: PhaseSum(2, True), TypeError, "p must be an int"),
    (lambda: PhaseSum(True, 3), TypeError, "n must be an int"),
    # a generator index went through int(): 1.9, "1" and True applied s_1
    (lambda: generator_cosets(3, 2, 1.9), TypeError, "gen must be an int"),
    (lambda: generator_cosets(3, 2, "1"), TypeError, "gen must be an int"),
    (lambda: generator_cosets(3, 2, True), TypeError, "gen must be an int"),
    (lambda: apply_generator(_MINUS, 1.9, _ONE), TypeError, "gen must be an int"),
    (lambda: apply_generator(_MINUS, "1", _ONE), TypeError, "gen must be an int"),
    (lambda: apply_generator(_MINUS, True, _ONE), TypeError, "gen must be an int"),
    # the product m * e was checked, so True passed as 1
    (lambda: steinberg_character(ExtAffineElement.rotation(3), True), TypeError, "eps_exp must be an int"),
    # position 0 wrapped to row n, position n + 1 was an IndexError
    (lambda: PAdicMatrix.one_param(2, 3, 0, 1, 5), ValueError, "positions in 1..3"),
    (lambda: PAdicMatrix.one_param(2, 3, 1, 0, 5), ValueError, "positions in 1..3"),
    (lambda: PAdicMatrix.one_param(2, 3, 4, 1, 5), ValueError, "positions in 1..3"),
    (lambda: PAdicMatrix.one_param(2, 3, 1, 4, 5), ValueError, "positions in 1..3"),
    (lambda: PAdicMatrix.one_param(2, 3, 1.0, 2, 5), TypeError, "i must be an int"),
    (lambda: PAdicMatrix.one_param(2, 3, 1, 2.0, 5), TypeError, "j must be an int"),
    (lambda: PAdicMatrix.weight_matrix(3, (True, 0)), TypeError, "k must be an int"),
    # floats and bools reached a WhittakerValue unchecked
    (lambda: eval_cell((1, 0), _ID2, 0.5), TypeError, "eps_exp must be an int"),
    (lambda: eval_cell((1, 0), _ID2, True), TypeError, "eps_exp must be an int"),
    (lambda: eval_cell((1.0, 0), _ID2, 1), TypeError, "kbar entry must be an int"),
    (lambda: eval_cell((True, 0), _ID2, 1), TypeError, "kbar entry must be an int"),
    # is_dominant compared each entry as it came: 0.5 and True were read
    # as numbers, a string failed inside the subtraction
    (lambda: is_dominant((0.5, 0), _ID2), TypeError, "kbar entry must be an int"),
    (lambda: is_dominant((True, 0), _ID2), TypeError, "kbar entry must be an int"),
    (lambda: is_dominant(("a", "b"), _ID2), TypeError, "kbar entry must be an int"),
    (lambda: eval_matrix(_ONE, 0.5), TypeError, "eps_exp must be an int"),
    (lambda: eval_matrix(_ONE, True), TypeError, "eps_exp must be an int"),
    # a negative sample count checked the identity alone, and passed
    (lambda: verify_functional_equations(2, 3, 0, samples=-1), ValueError, "samples must be >= 0"),
    (lambda: run_eigen_checks(2, 3, 0, samples=-1), ValueError, "samples must be >= 0"),
    # seed went to random.Random unchecked: None drew fresh points from the
    # OS on every call, so a record naming "seed None" could not be replayed
    (lambda: run_eigen_checks(2, 3, 0, samples=1, seed=None), TypeError, "seed must be an int"),
    (lambda: run_eigen_checks(2, 3, 0, samples=1, seed="1"), TypeError, "seed must be an int"),
    (lambda: run_eigen_checks(2, 3, 0, samples=1, seed=True), TypeError, "seed must be an int"),
    (lambda: verify_functional_equations(2, 3, 0, samples=1, seed=None), TypeError, "seed must be an int"),
    (lambda: verify_functional_equations(2, 3, 0, samples=1, seed="1"), TypeError, "seed must be an int"),
    (lambda: verify_functional_equations(2, 3, 0, samples=1, seed=True), TypeError, "seed must be an int"),
    # n was never checked: True built a 1 x 1 matrix, 0 a 0 x 0 one, and the
    # cosets of the centre were cached under the key (True, 2, "center")
    (lambda: PAdicMatrix.identity(True, 2), TypeError, "n must be an int"),
    (lambda: PAdicMatrix.identity(0, 2), ValueError, "n must be >= 1"),
    (lambda: generator_cosets(True, 2, "center"), TypeError, "n must be an int"),
], ids=["phase-sum-i-minus-i-at-4", "phase-sum-zero-at-4", "phase-sum-monomial-at-9", "phase-sum-bool-p",
        "phase-sum-bool-n", "cosets-float-index", "cosets-str-index", "cosets-bool-index", "apply-float-index",
        "apply-str-index", "apply-bool-index", "steinberg-bool-eps", "one-param-row-0", "one-param-column-0",
        "one-param-row-n-plus-1", "one-param-column-n-plus-1", "one-param-float-row", "one-param-float-column",
        "weight-bool-exponent", "eval-cell-float-eps", "eval-cell-bool-eps", "eval-cell-float-weight",
        "eval-cell-bool-weight", "dominant-float-weight", "dominant-bool-weight", "dominant-str-weight",
        "eval-matrix-float-eps", "eval-matrix-bool-eps", "whittaker-negative-samples",
        "eigen-negative-samples", "eigen-seed-none", "eigen-str-seed", "eigen-bool-seed", "whittaker-seed-none",
        "whittaker-str-seed", "whittaker-bool-seed", "identity-bool-n", "identity-n-0", "cosets-bool-n"])
def test_each_argument_is_checked_by_its_one_rule(build, error, match):
    """p by ``padic._check_prime``, integer arguments by
    ``weyl._check_int``, at every entry point; each row was accepted or
    failed otherwise before.  The cosets of s_1 are cached first, so that a
    cache keyed without types would answer the index True from them."""
    generator_cosets(3, 2, 1), generator_cosets(2, 3, 1)
    with pytest.raises(error, match=match):
        build()
