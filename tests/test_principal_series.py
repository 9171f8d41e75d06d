import random
import re

import pytest

from steinwhit import padic, principal_series, whittaker
from steinwhit.affine_weyl import ExtAffineElement, realize
from steinwhit.padic import PAdicMatrix, cell_label, matrix_from_json
from steinwhit.principal_series import (
    InducedFunction,
    apply_generator,
    generator_cosets,
    run_eigen_checks,
)
from steinwhit.sampling import random_group_element, random_iwahori
from steinwhit.values import PhaseSum
from steinwhit.weyl import Permutation
from steinwhit.whittaker import verify_functional_equations


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


def _fixed_results(n, p, e):
    """The fixed checks of ``run_eigen_checks`` by name; every other check passes."""
    results = {r.name: r for r in run_eigen_checks(n, p, e, samples=1, seed=5)}
    fixed = ("plus-rotation-fails-at-identity", "affine-cosets-by-conjugation", "casselman-triangularity")
    assert all(r.passed for name, r in results.items() if name not in fixed)
    return {name: results[name] for name in fixed}


def test_failed_casselman_check_names_generator_w_and_both_sides(monkeypatch):
    """A planted Casselman function f_{s_1} with coefficient 2: the first
    failing (i, w) is (1, s_1), whose sum reads 2p instead of p."""
    n, p, e = 3, 3, 1
    s1 = Permutation.simple(n, 1)

    def planted(cls, w, p_, eps_exp):
        return cls(w.n, p_, eps_exp, {w: PhaseSum.monomial(w.n, p_, 2 if w == s1 else 1)})

    monkeypatch.setattr(InducedFunction, "casselman", classmethod(planted))
    results = _fixed_results(n, p, e)
    assert [name for name, r in results.items() if not r.passed] == ["casselman-triangularity"]
    assert results["casselman-triangularity"].detail == (
        "generator 1, w = (2, 1, 3): sum of f_w(rep) over the cosets of s_1 = "
        f"{PhaseSum.monomial(n, p, 2 * p)!r}; expected {PhaseSum.monomial(n, p, p)!r}"
    )


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
    identity on it; the principal suite adds two passes for the plus
    rotation at the identity and p per finite reflection for the
    Casselman check."""
    calls = []
    original = padic._minors_pass

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (padic, principal_series, whittaker):
        monkeypatch.setattr(module, "_minors_pass", counted)
    assert all(r.passed for r in run_eigen_checks(n, p, 1 % n, samples=samples, seed=3))
    assert len(calls) == (samples + 1) * (n * p + 2) + (n - 1) * p + 2
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
