import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinwhit import cli, padic, principal_series, whittaker
from steinwhit.affine_weyl import ExtAffineElement, length_ext, realize
from steinwhit.hecke import steinberg_character
from steinwhit.iwahori import iwahori_cell
from steinwhit.minors import _minors_pass, cell_label
from steinwhit.padic import Cell, PAdicMatrix, SingularMatrixError, frac_psi_phase
from steinwhit.principal_series import (
    InducedFunction,
    _coset_passes,
    apply_generator,
    generator_cosets,
)
from steinwhit.sampling import (
    random_cell_product,
    random_group_element,
    random_iwahori,
    random_permutation,
    random_torus_units,
    random_upper_unipotent,
)
from steinwhit.values import PhaseSum
from steinwhit.weyl import Permutation, all_permutations, dominance_shift, is_dominant
from steinwhit.whittaker import (
    WhittakerValue,
    _pass_phase_sum,
    _pass_value,
    _psi_of_terms,
    eval_cell,
    eval_matrix,
    parahoric_check,
    phase_sum,
    serialize,
    verify_functional_equations,
)
from oracles import eval_recursive, hecke_cosets
from test_affine_weyl import _bfs_ball
from test_padic import _pass_with_psi, det, iwasawa_inputs, minors_pass_inputs
from test_principal_series import _multi_term_function
from test_values import assert_canonical_keys, is_phase_key

ID2 = Permutation.identity(2)
S1_2 = Permutation.simple(2, 1)


def test_normalization_at_identity():
    assert eval_cell((0, 0), ID2, 0) == WhittakerValue.monomial(1, 0, 0)
    g = PAdicMatrix.identity(3, 2)
    assert eval_matrix(g, 1) == WhittakerValue.monomial(1, 0, 0)


def test_diagonal_values_frozen():
    assert eval_cell((1, 0), ID2, 0) == WhittakerValue.monomial(-1, 0, -1)
    assert eval_cell((2, 0), ID2, 0) == WhittakerValue.monomial(1, 0, -2)
    assert eval_cell((1, 0), ID2, 1) == WhittakerValue.monomial(-1, 1, -1)
    w0_3 = Permutation.longest(3)
    assert eval_cell((-2, -1, 0), w0_3, 0) == WhittakerValue.monomial(-1, 0, 1)


def test_support_vanishing():
    assert eval_cell((-1, 0), ID2, 0).zero
    assert not is_dominant((-1, 0), ID2)
    assert is_dominant((-1, 0), S1_2)
    assert not eval_cell((-1, 0), S1_2, 0).zero


def test_zero_value_is_canonical():
    z = WhittakerValue.zero_value()
    assert z == eval_cell((-1, 0), ID2, 1)
    with pytest.raises(ValueError):
        WhittakerValue(True, -1, 0, 0, Fraction(0))
    with pytest.raises(ValueError):
        WhittakerValue(False, 2, 0, 0, Fraction(0))
    with pytest.raises(ValueError):
        WhittakerValue(False, 1, 0, 0, Fraction(3, 2))


@pytest.mark.parametrize("build", [
    lambda: WhittakerValue(False, 1, 0, 0, 0.5),
    lambda: WhittakerValue(False, 1, 0, 0, "1/2"),
    lambda: WhittakerValue(False, True, 0, 0, Fraction(0)),
    lambda: WhittakerValue(False, 1, 0.0, 0, Fraction(0)),
    lambda: WhittakerValue(False, 1, 0, False, Fraction(0)),
    lambda: WhittakerValue.monomial(1, 0, 0, 0.25),
    lambda: WhittakerValue.monomial(1.0, 0, 0),
    lambda: WhittakerValue.monomial(1, True, 0),
    lambda: WhittakerValue.monomial(1, 0, 2.0),
    lambda: WhittakerValue(1, 1, 0, 0, 0),
    lambda: WhittakerValue("yes", 1, 0, 0, 0),
])
def test_value_refuses_wrong_types(build):
    # a float psi used to be stored, and serialize then raised AttributeError;
    # an int zero flag was stored too, and serialize printed "zero": 1
    with pytest.raises(TypeError):
        build()


def test_value_stores_an_int_psi_as_a_fraction():
    v = WhittakerValue(False, 1, 0, 0, 0)
    assert type(v.psi) is Fraction and v == WhittakerValue.monomial(1, 0, 0)
    assert serialize(v)["psi_den"] == 1


def test_library_values_are_built_unchecked(monkeypatch):
    """``eval_cell`` and ``eval_matrix`` build their values through
    ``WhittakerValue._of``, not the validating constructor."""
    g = PAdicMatrix.from_rows(2, [["7/4", "3/4"], [1, 1]])
    want = [eval_cell((1, 0), ID2, 1), eval_matrix(g, 1)]

    def refused(self, *args):
        raise AssertionError("validating constructor on a library path")

    monkeypatch.setattr(WhittakerValue, "__init__", refused)
    got = [eval_cell((1, 0), ID2, 1), eval_matrix(g, 1)]
    monkeypatch.undo()
    assert got == want and [repr(v) for v in got] == [repr(v) for v in want]
    assert [type(v.psi) for v in got] == [Fraction, Fraction]


def test_serialize_fields():
    v = WhittakerValue.monomial(-1, 1, -2, Fraction(1, 4))
    assert serialize(v) == {
        "zero": False,
        "sign": -1,
        "eps_exp": 1,
        "q_exp": -2,
        "psi_num": 1,
        "psi_den": 4,
    }
    assert serialize(WhittakerValue.zero_value())["zero"] is True


def test_phase_sum_embedding():
    v = WhittakerValue.monomial(-1, 1, -1, Fraction(1, 2))
    assert phase_sum(v, 2, 2) == PhaseSum.monomial(
        2, 2, Fraction(-1, 2), 1, Fraction(1, 2)
    )
    assert phase_sum(WhittakerValue.zero_value(), 2, 2).is_zero()


def test_central_shift_invariance():
    for n in (2, 3):
        for w in all_permutations(n):
            for e in range(n):
                kbar = tuple(range(n, 0, -1))
                shifted = tuple(k + 1 for k in kbar)
                assert eval_cell(shifted, w, e) == eval_cell(kbar, w, e)


def test_eval_matrix_attaches_unipotent_phase():
    p = 2
    g = PAdicMatrix.from_rows(p, [[1, Fraction(1, p)], [0, 1]])
    assert eval_matrix(g, 0) == WhittakerValue.monomial(1, 0, 0, Fraction(1, p))
    # integral offsets contribute no phase
    h = PAdicMatrix.from_rows(p, [[1, 3], [0, 1]])
    assert eval_matrix(h, 0) == WhittakerValue.monomial(1, 0, 0)


def test_eval_matrix_is_right_iwahori_invariant():
    rng = random.Random(6)
    for n, p in [(2, 2), (3, 3)]:
        for _ in range(5):
            g = random_group_element(rng, n, p)
            base = eval_matrix(g, 1)
            for _ in range(5):
                assert eval_matrix(g * random_iwahori(rng, n, p), 1) == base


def _value_from_witnesses(g: PAdicMatrix, eps_exp: int) -> WhittakerValue:
    """The witness route: the cell value times psi of the superdiagonal of n."""
    cell = iwahori_cell(g, check=True)
    base = eval_cell(cell.kbar, cell.w, eps_exp)
    if base.zero:
        return base
    psi = sum(
        (frac_psi_phase(cell.n_factor.entries[i][i + 1], g.p) for i in range(g.n - 1)),
        Fraction(0),
    ) % 1
    return WhittakerValue.monomial(base.sign, base.eps_exp, base.q_exp, psi)


@pytest.mark.parametrize("n, p", [(2, 2), (2, 7), (3, 3), (4, 2), (5, 5)])
def test_eval_matrix_matches_witness_route(n, p):
    rng = random.Random(f"witness:{n}:{p}")
    phases = set()
    for _ in range(40):
        g = random_cell_product(rng, n, p, weight_range=1)[0] * random_iwahori(rng, n, p)
        value = eval_matrix(g, 1 % n)
        assert value == _value_from_witnesses(g, 1 % n)
        phases.add(value.psi)
    assert len(phases) > 1  # some samples carry a nonzero phase


@settings(max_examples=300, deadline=None)
@given(iwasawa_inputs())
def test_eval_matrix_matches_witness_route_on_arbitrary_matrices(g):
    """The minors pass against the elimination witnesses, on the domain of
    the Iwasawa oracle: non-integral entries, valuations -6..8, and one
    matrix in four singular, where both routes must raise."""
    if det(g) == 0:
        with pytest.raises(SingularMatrixError):
            eval_matrix(g)
        with pytest.raises(SingularMatrixError):
            iwahori_cell(g)
        return
    for e in range(g.n):
        assert eval_matrix(g, e) == _value_from_witnesses(g, e)


@settings(max_examples=200, deadline=None)
@given(minors_pass_inputs())
def test_eval_matrix_matches_witness_route_on_the_laplace_oracle_domain(case):
    """On the inputs of the minors pass's Laplace oracle (n = 2..7, rows
    rescaled by their own factors half the time, one kind in four
    singular), the value with psi formed only on the support, from
    ``eval_matrix`` and from the pass on the given rows, is the witness
    route's for every eps exponent; both routes raise on singular input."""
    rows, p = case
    g = PAdicMatrix.from_rows(p, [[Fraction(x, d) for x in a] for a, d in rows])
    if det(g) == 0:
        with pytest.raises(SingularMatrixError):
            eval_matrix(g)
        with pytest.raises(SingularMatrixError):
            iwahori_cell(g)
        return
    label = _minors_pass(rows, p)
    for e in range(g.n):
        expected = _value_from_witnesses(g, e)
        assert eval_matrix(g, e) == expected
        assert _pass_value(label, p, e) == expected


@pytest.mark.parametrize("n", range(8, 19))
def test_eval_matrix_matches_witness_route_on_dense_matrices(n):
    """Up to the eval guard, n = 18: the label and the value of the
    elimination against the witnesses of ``iwahori_cell``, on a dense
    matrix with mixed denominators and on a point of the supported cell
    (dominance_shift(w), w) with a random unipotent part, whose phase is
    read off the pass."""
    p = (2, 3, 5, 7)[n % 4]
    rng = random.Random(f"dense:{n}")
    dense = PAdicMatrix.from_rows(p, [
        [Fraction(rng.randint(-9, 9), rng.choice([1, 1, p, p * p, 3])) for _ in range(n)] for _ in range(n)
    ])
    w = random_permutation(rng, n)
    point = Cell(dominance_shift(w), w, random_upper_unipotent(rng, n, p), random_torus_units(rng, n, p),
                 random_iwahori(rng, n, p)).reconstruct()
    assert not eval_matrix(point, 1).zero
    for g in (dense, point):
        cell = iwahori_cell(g)
        assert cell_label(g) == (cell.kbar, cell.w)
        assert eval_matrix(g, 1) == _value_from_witnesses(g, 1)


def test_eval_matrix_raises_on_singular_input():
    with pytest.raises(SingularMatrixError):
        eval_matrix(PAdicMatrix.from_rows(3, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        eval_matrix(PAdicMatrix.from_rows(2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]))


def test_rotation_matrix_value():
    p = 2
    u = realize(ExtAffineElement.rotation(2), p)
    for e in range(2):
        assert eval_matrix(u, e) == WhittakerValue.monomial(1, e, 0)


def test_recursion_agrees_on_diagonal():
    for kbar in [(0, 0), (2, 0), (1, 1), (-1, 0), (3, 1)]:
        for e in range(2):
            assert eval_recursive(kbar, ID2, e) == eval_cell(kbar, ID2, e)


def test_recursion_agrees_off_diagonal():
    for n in (2, 3):
        for w in all_permutations(n):
            for e in range(n):
                for k1 in range(-2, 3):
                    kbar = (k1,) + (0,) * (n - 1)
                    assert eval_recursive(kbar, w, e) == eval_cell(kbar, w, e)


def test_zero_seed_kills_everything():
    for w in all_permutations(3):
        for k1 in range(-2, 3):
            assert eval_recursive((k1, 0, 0), w, 1, base=0).zero


def test_recursion_validates_base():
    with pytest.raises(ValueError):
        eval_recursive((0, 0), ID2, 0, base=2)


def test_parahoric_values():
    for n in (2, 3, 4):
        for i in range(1, n):
            results = parahoric_check(i, n, 0)
            assert all(r.passed for r in results)


@pytest.mark.parametrize("planted, failing", [
    (lambda kbar, w, e=0: WhittakerValue.zero_value(), "nonzero-at-wall[2]"),
    (lambda kbar, w, e=0: WhittakerValue.monomial(-1, e, 3, 0), "zero-off-wall[2]"),
])
def test_failed_parahoric_check_names_its_wall_cell_and_value(monkeypatch, capsys, planted, failing):
    """A planted ``eval_cell`` that vanishes everywhere, or nowhere: the
    failed check names the wall, the cell (shift, w) and the value found
    as ``serialize`` JSON, and ``verify`` prints that detail."""
    monkeypatch.setattr(whittaker, "eval_cell", planted)
    results = {r.name: r for r in parahoric_check(2, 3, 1)}
    assert [name for name, r in results.items() if not r.passed] == [failing]
    detail = results[failing].detail
    w = (1, 3, 2) if failing.startswith("nonzero") else (1, 2, 3)
    value = planted((-1, -1, 0), Permutation(w), 1)
    expected = "zero" if failing.startswith("zero") else "nonzero"
    assert detail == (f"wall 2: cell kbar = [-1, -1, 0], w = {list(w)}: "
                      f"value {json.dumps(serialize(value), sort_keys=True)}; expected {expected}")
    assert dominance_shift(Permutation.simple(3, 2)) == (-1, -1, 0)
    assert cli.main(["verify", "whittaker", "--n", "3", "--p", "2", "--eps-exp", "1", "--samples", "0"]) == 1
    err = capsys.readouterr().err
    assert f"FAIL whittaker:{failing} {detail}\n" in err


def test_pinned_wall_value():
    shift = dominance_shift(S1_2)
    assert shift == (-1, 0)
    closed = eval_cell(shift, S1_2, 0)
    recursive = eval_recursive(shift, S1_2, 0)
    assert closed == recursive == WhittakerValue.monomial(1, 0, 0)


def test_eval_sl_ignores_eps():
    """On the determinant-one subgroup the value does not see eps."""
    rng = random.Random(12)
    for n, p in [(2, 3), (3, 2), (4, 5)]:
        for _ in range(6):
            g = random_group_element(rng, n, p)
            g1 = g * PAdicMatrix.diagonal(p, [1 / det(g)] + [1] * (n - 1))
            assert det(g1) == 1
            vals = {eval_matrix(g1, e) for e in range(n)}
            assert len(vals) == 1


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_functional_equations_pass(n, p):
    results = verify_functional_equations(n, p, 1, samples=8, seed=23)
    failures = [r.name for r in results if not r.passed]
    assert failures == []


@settings(max_examples=150, deadline=None)
@given(iwasawa_inputs())
def test_coset_terms_from_columns_match_the_product_oracle(g):
    """Every coset term of the functional equations and of the principal
    series, ``_coset_passes`` on g's cleared rows, against the minors pass,
    ``cell_label`` and ``eval_matrix`` of the product g * rep, for every
    reflection, the rotation and the centre (rep = p . I); and
    ``apply_generator`` on both eigenvectors against the sum of
    ``InducedFunction.eval`` over those products.  Inputs as for the
    Iwasawa oracle: non-integral entries, valuations -6..8, one in four
    singular, where both routes must raise."""
    n, p = g.n, g.p
    rows = g.rows
    singular = det(g) == 0
    funcs = [InducedFunction.eigenvector(n, p, 1 % n, kind) for kind in ("minus", "plus")]
    assert generator_cosets(n, p, "center") == (PAdicMatrix.diagonal(p, [p] * n),)
    for gen in (*range(n), "rotation", "center"):
        reps = generator_cosets(n, p, gen)
        # the warm-up builds each representative's column form: one pass per coset
        assert len(_coset_passes(PAdicMatrix.identity(n, p).rows, n, p, gen)) == len(reps)
        if singular:
            with pytest.raises(SingularMatrixError):
                _coset_passes(rows, n, p, gen)
            for rep in reps:
                with pytest.raises(SingularMatrixError):
                    _minors_pass((g * rep).rows, p)
            for f in funcs:
                with pytest.raises(SingularMatrixError):
                    apply_generator(f, gen, g)
            continue
        passes = _coset_passes(rows, n, p, gen)
        # the phase terms of g's cleared rows under a column form need not
        # be those of the product's canonical rows; psi formed from them is
        assert [(kbar, w, Fraction(*_psi_of_terms(terms, p))) for kbar, w, terms in passes] == [
            _pass_with_psi((g * rep).rows, p) for rep in reps
        ]
        assert [label[:2] for label in passes] == [cell_label(g * rep) for rep in reps]
        for label, rep in zip(passes, reps):
            for e in range(n):
                assert _pass_value(label, p, e) == eval_matrix(g * rep, e)
        for f in funcs:
            assert apply_generator(f, gen, g) == sum((f.eval(g * rep) for rep in reps), PhaseSum.zero(n, p))


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (4, 2)])
def test_coset_terms_take_no_matrix_product(monkeypatch, n, p):
    """Once the representatives are cached (one build per (n, p, gen)), a
    coset sum multiplies no matrices: not in ``apply_generator``, not in
    ``verify_functional_equations``."""
    g = random_group_element(random.Random(f"hot:{n}:{p}"), n, p)
    gens = (*range(n), "rotation")
    for gen in gens:
        _coset_passes(g.rows, n, p, gen)
    funcs = [InducedFunction.eigenvector(n, p, 1 % n, kind) for kind in ("minus", "plus")]
    calls = []
    product = PAdicMatrix.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(PAdicMatrix, "__mul__", counted)
    for func in funcs:
        for gen in gens:
            apply_generator(func, gen, g)
    assert calls == []
    results = verify_functional_equations(n, p, 1 % n, samples=0)
    assert calls == []
    assert all(r.passed for r in results)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (4, 2)])
def test_column_form_is_built_once_per_right_factor(monkeypatch, n, p):
    """A matrix builds its column form (``padic._columns``) the first time
    it is a right factor, and keeps it: once per right factor across
    repeated products, and not at all in ``apply_generator`` and
    ``verify_functional_equations`` after one warm-up of the
    representatives through ``_coset_passes``."""
    rng = random.Random(f"form:{n}:{p}")
    g, h = random_group_element(rng, n, p), random_iwahori(rng, n, p)
    fresh_g, fresh_h = PAdicMatrix(p, g.entries), PAdicMatrix(p, h.entries)
    gh, hg = fresh_g * fresh_h, fresh_h * fresh_g
    gens = (*range(n), "rotation", "center")
    for gen in gens:
        _coset_passes(g.rows, n, p, gen)
    funcs = [InducedFunction.eigenvector(n, p, 1 % n, kind) for kind in ("minus", "plus")]
    built = []
    columns = padic._columns

    def counted(rows):
        built.append(rows)
        return columns(rows)

    monkeypatch.setattr(padic, "_columns", counted)
    assert [g * h for _ in range(3)] == [gh] * 3
    assert built == [h.rows]
    assert [h * g, h * g, gh * g, g * h] == [hg, hg, gh * PAdicMatrix(p, g.entries), gh]
    assert built == [h.rows, g.rows, g.rows]  # the last build is the new copy's
    del built[:]
    for func in funcs:
        for gen in gens:
            apply_generator(func, gen, g)
    results = verify_functional_equations(n, p, 1 % n, samples=0)
    assert built == []
    assert all(r.passed for r in results)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (4, 5)])
def test_hot_paths_never_read_entries(monkeypatch, n, p):
    """A product, its cell label, its value, its coset sums and its
    witnesses run on the stored integer rows: none of them reads the
    ``Fraction`` view ``entries``."""
    rng = random.Random(f"rows:{n}:{p}")
    g, kbar, w = random_cell_product(rng, n, p)
    j = random_iwahori(rng, n, p)
    funcs = [InducedFunction.eigenvector(n, p, 1 % n, kind) for kind in ("minus", "plus")]
    gens = (*range(n), "rotation", "center")
    expected = [sum((f.eval(g * j * rep) for rep in generator_cosets(n, p, gen)), PhaseSum.zero(n, p))
                for f in funcs for gen in gens]

    def refuse(self):
        raise AssertionError("read entries")

    monkeypatch.setattr(PAdicMatrix, "entries", property(refuse))
    h = g * j
    assert cell_label(h) == (kbar, w)
    value = eval_matrix(h, 1)
    sums = [apply_generator(f, gen, h) for f in funcs for gen in gens]
    cells = [iwahori_cell(h, check=False), iwahori_cell(h)]
    monkeypatch.undo()
    assert value == eval_matrix(PAdicMatrix(p, h.entries), 1)
    assert sums == expected
    assert all((cell.kbar, cell.w) == (kbar, w) and cell.reconstruct() == h for cell in cells)


def test_failed_check_names_its_point(monkeypatch, tmp_path, capsys):
    """A planted wrong rotation eigenvalue: the rotation term is taken at
    the identity representative, so W(g u) reads W(g) and not eps^e W(g).
    The detail names the point as CLI JSON, and ``steinwhit eval`` there
    reproduces both sides."""
    n, p, e = 3, 2, 1
    cosets = principal_series.generator_cosets

    def planted(n_, p_, gen):
        return (PAdicMatrix.identity(n_, p_),) if gen == "rotation" else cosets(n_, p_, gen)

    monkeypatch.setattr(principal_series, "generator_cosets", planted)
    results = {r.name: r for r in verify_functional_equations(n, p, e, samples=3, seed=5)}
    assert [name for name, r in results.items() if not r.passed] == ["rotation-eigenvalue"]
    assert all(r.detail == "" for r in results.values() if r.passed)
    detail = results["rotation-eigenvalue"].detail
    m = re.fullmatch(r"point (\d+) \(seed 5\): g = (\{.*\}); W\(g u\) = (.*); eps\^1 W\(g\) = (.*)", detail)
    assert m is not None, detail
    assert m[1] == "0"  # every wrong eigenvalue already fails at the identity
    path = tmp_path / "g.json"
    path.write_text(m[2])
    assert cli.main(["eval", str(path), "--eps-exp", str(e)]) == 0
    doc = json.loads(capsys.readouterr().out)
    value = WhittakerValue(doc["zero"], doc["sign"], doc["eps_exp"], doc["q_exp"], Fraction(doc["psi_num"], doc["psi_den"]))
    w_g = phase_sum(value, n, p)
    assert not w_g.is_zero()
    assert repr(w_g) == m[3]
    assert repr(w_g.times_monomial(1, e)) == m[4]


def test_the_suite_checks_the_public_evaluator(monkeypatch):
    """W(g) is read through ``whittaker.eval_matrix``, the evaluator that
    ``steinwhit eval`` prints: with its nonzero values negated, every
    identity fails, first at the identity, where W = 1."""
    evaluate = whittaker.eval_matrix

    def flipped(g, eps_exp=0):
        v = evaluate(g, eps_exp)
        return v if v.zero else WhittakerValue.monomial(-v.sign, v.eps_exp, v.q_exp, v.psi)

    monkeypatch.setattr(whittaker, "eval_matrix", flipped)
    results = verify_functional_equations(3, 2, 1, samples=2, seed=5)
    assert len(results) == 5 and not any(r.passed for r in results)
    assert all(r.detail.startswith("point 0 (seed 5): ") for r in results)


def _times_scalar(value: PhaseSum, chi) -> PhaseSum:
    """value times a ``HeckeScalar``, the sum of c q^a eps^b, at q = p."""
    terms = (value.times_monomial(Fraction(c) * Fraction(value.p) ** a, b) for (a, b), c in chi._terms.items())
    return sum(terms, PhaseSum.zero(value.n, value.p))


@pytest.mark.parametrize("n, p, radius", [(2, 3, 3), (3, 2, 3), (4, 2, 2)])
def test_w_label_is_the_hecke_label_twisted_by_the_valuation_of_det(n, p, radius):
    """(T_x W)(g) = (-1)^((n-1) m) chi(T_x) W(g), chi the Hecke label's
    ``steinberg_character``, for every x of length <= radius times r^m,
    m in {-1, 0, 1}, at every e, at the identity and two seeded points;
    T_x sums W(g . rep) over ``oracles.hecke_cosets(x)``.  Without the
    twist the identity fails exactly where the twist is -1 (even n, odd m)
    and W(g) is not zero: the two labels agree for odd n only."""
    points = principal_series._sample_points(n, p, 2, 7)
    xs = [y * ExtAffineElement.rotation(n, m) for y in _bfs_ball(n, radius) for m in (-1, 0, 1)]
    untwisted_failures = 0
    for x in xs:
        reps = hecke_cosets(x, p)
        assert len(reps) == p ** length_ext(x)
        twist = -1 if (n - 1) * x.rotation_exponent() % 2 else 1
        for e in range(n):
            chi = steinberg_character(x, e)
            for g in points:
                w_g = phase_sum(eval_matrix(g, e), n, p)
                lhs = sum((phase_sum(eval_matrix(g * rep, e), n, p) for rep in reps), PhaseSum.zero(n, p))
                untwisted = _times_scalar(w_g, chi)
                assert lhs == untwisted.times_monomial(twist), (x, e, padic.matrix_to_json(g))
                fails = lhs != untwisted
                assert fails == (twist == -1 and not w_g.is_zero()), (x, e, padic.matrix_to_json(g))
                untwisted_failures += fails
    assert (untwisted_failures > 0) == (n % 2 == 0)


def test_cached_cell_constants_agree_with_the_recursion_at_n5():
    """``eval_cell`` reads len(w) and the dominance thresholds from a cache
    keyed by w; its values must stay those of the recursion.  Criterion 05
    sweeps n <= 4; here 2000 random (kbar, w, eps) at n = 5, |k_i| <= 3."""
    rng = random.Random("cell-constants")
    perms = list(all_permutations(5))
    for _ in range(2000):
        kbar, w, e = tuple(rng.randint(-3, 3) for _ in range(5)), rng.choice(perms), rng.randrange(5)
        assert eval_cell(kbar, w, e) == eval_recursive(kbar, w, e)


def _random_passes(count: int):
    """(n, p, pass) for the minors passes of ``count`` random group elements,
    n = 2..5 and p in {2, 3, 5, 7}: the pass of each matrix's rows and of
    its unreduced coset terms under one generator, as the engine runs them."""
    rng = random.Random("integer-psi")
    for k in range(count):
        n, p = 2 + k % 4, (2, 3, 5, 7)[k // 4 % 4]
        g = random_group_element(rng, n, p)
        gen = rng.choice([*range(n), "rotation", "center"])
        for label in [_minors_pass(g.rows, p), *_coset_passes(g.rows, n, p, gen)]:
            yield n, p, label


def _fraction_psi(terms, p):
    """The oracle: psi as the sum mod 1 of ``frac_psi_phase`` of each ratio."""
    return sum((frac_psi_phase(Fraction(num, den), p) for num, den, u in terms if num % p**u), Fraction(0)) % 1


def test_integer_psi_matches_the_fraction_oracle():
    seen = set()
    for n, p, (kbar, w, terms) in _random_passes(2000):
        psi = _psi_of_terms(terms, p)
        assert is_phase_key(psi, p) and Fraction(*psi) == _fraction_psi(terms, p), (terms, p)
        seen.add(psi[1] > 1)
    assert seen == {False, True}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(st.just(p), st.lists(st.tuples(
    st.integers(-10**6, 10**6), st.integers(1, 10**4).filter(lambda b: b % p), st.integers(0, 6), st.booleans()
), max_size=5))))
def test_integer_psi_on_drawn_terms(case):
    """Terms (num, b p^u, u) with b a unit of either sign, p^u dividing num
    or not."""
    p, drawn = case
    terms = [(num, (b if positive else -b) * p**u, u) for num, b, u, positive in drawn]
    psi = _psi_of_terms(terms, p)
    assert is_phase_key(psi, p) and Fraction(*psi) == _fraction_psi(terms, p)


def test_identity_engine_cells_equal_validated_values():
    """The one-term PhaseSum of a pass, built unchecked, is the validated
    ``phase_sum`` of its ``WhittakerValue``: same value, repr and terms."""
    for n, p, label in _random_passes(300):
        zero = PhaseSum.zero(n, p)
        for e in range(n):
            got, want = _pass_phase_sum(label, zero, e), phase_sum(_pass_value(label, p, e), n, p)
            assert got == want and repr(got) == repr(want)
            assert list(got._terms.items()) == list(want._terms.items())


def test_verify_builds_one_validated_value_per_point(monkeypatch):
    """``verify_functional_equations`` calls the validating ``PhaseSum``
    constructor once per point (W(g), read through ``eval_matrix``) plus a
    constant, whatever p and the number of generators and coset terms."""
    samples, counts = 4, {}
    for n in (2, 3):
        for p in (2, 5):
            verify_functional_equations(n, p, 1, samples=samples, seed=11)  # warm-up: the cached representatives
            calls = []

            def counted(self, *args, _original=PhaseSum.__init__, **kwargs):
                calls.append(1)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(PhaseSum, "__init__", counted)
            results = verify_functional_equations(n, p, 1, samples=samples, seed=11)
            monkeypatch.undo()
            assert all(r.passed for r in results)
            counts[n, p] = len(calls)
    assert len(set(counts.values())) == 1 and counts[2, 2] <= (samples + 1) + 2, counts


def test_engine_values_have_canonical_keys():
    """Every key of a value the engine builds unchecked (a coset term's
    one-term ``PhaseSum``, a Hecke-operator value on a function with
    multi-term coefficients, and those times a phase) is canonical."""
    for n, p, label in _random_passes(200):
        zero = PhaseSum.zero(n, p)
        for e in range(n):
            assert_canonical_keys(_pass_phase_sum(label, zero, e))
    rng = random.Random("canonical-keys")
    for n, p in ((2, 3), (3, 2), (3, 5)):
        f = _multi_term_function(n, p, 1, rng)
        for _ in range(3):
            g = random_group_element(rng, n, p)
            for gen in [*range(n), "rotation", "center"]:
                value = apply_generator(f, gen, g)
                assert_canonical_keys(value)
                for (_, t), _c in value.terms():
                    assert_canonical_keys(value.times_monomial(-1, 1, Fraction(1, p) - t))
