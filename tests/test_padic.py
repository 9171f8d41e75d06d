import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import matrix_of_entries, matrix_repr
from steinwhit.padic import (
    PRIME_BOUND,
    Cell,
    MatrixFormatError,
    PAdicMatrix,
    SingularMatrixError,
    _combined,
    _matrix_of_entries,
    _minors_pass,
    cell_label,
    frac_psi_phase,
    frac_valuation,
    is_prime,
    iwahori_cell,
    iwasawa,
    matrix_from_json,
    matrix_to_json,
    residue_bruhat,
)
from steinwhit.sampling import (
    random_cell_product,
    random_group_element,
    random_iwahori,
    random_permutation,
    random_torus_units,
    random_upper_unipotent,
    random_weight,
)
from steinwhit.weyl import Permutation
from steinwhit.whittaker import _psi_of_terms

# Rationals with denominator a power of p, the shape psi ever sees.
p_fractions = st.integers(min_value=-200, max_value=200).flatmap(
    lambda a: st.integers(min_value=0, max_value=4).map(
        lambda k: Fraction(a, 2**k)
    )
)


def test_frac_valuation():
    assert frac_valuation(Fraction(12), 2) == 2
    assert frac_valuation(Fraction(1, 8), 2) == -3
    assert frac_valuation(Fraction(9, 5), 3) == 2
    with pytest.raises(ValueError):
        frac_valuation(Fraction(0), 7)


def test_psi_phase_picks_principal_part():
    assert frac_psi_phase(Fraction(3), 5) == 0
    assert frac_psi_phase(Fraction(1, 2), 2) == Fraction(1, 2)
    assert frac_psi_phase(Fraction(7, 4), 2) == Fraction(3, 4)
    assert frac_psi_phase(Fraction(-1, 3), 3) == Fraction(2, 3)
    # unit numerator over p^m: invert the prime-to-p part mod p^m
    assert frac_psi_phase(Fraction(1, 6), 2) == Fraction(1, 2)


@given(p_fractions, p_fractions)
def test_psi_phase_is_additive_mod_one(x, y):
    lhs = frac_psi_phase(x + y, 2)
    rhs = (frac_psi_phase(x, 2) + frac_psi_phase(y, 2)) % 1
    assert lhs == rhs


def det(m: PAdicMatrix) -> Fraction:
    """Determinant by Fraction elimination, for the tests' own checks."""
    n = m.n
    rows = [list(row) for row in m.entries]
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            out = -out
        out *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return out


def is_upper_triangular(m: PAdicMatrix) -> bool:
    return all(m.entries[i][j] == 0 for i in range(m.n) for j in range(i))


def test_matrix_multiplication_and_inverse():
    m = PAdicMatrix.from_rows(3, [[1, 2], [0, 1]])
    minv = m.inverse()
    assert m * minv == PAdicMatrix.identity(2, 3)
    assert det(m) == 1
    assert det(PAdicMatrix.from_rows(3, [[0, 2], [3, 1]])) == -6


def test_upper_unitriangular():
    assert PAdicMatrix.from_rows(3, [[1, Fraction(5, 3), 7], [0, 1, 0], [0, 0, 1]]).is_upper_unitriangular()
    for rows in ([[1, 0], [3, 1]], [[2, 1], [0, 1]], [[1, 0], [0, Fraction(1, 3)]]):
        assert not PAdicMatrix.from_rows(3, rows).is_upper_unitriangular()


def test_singular_matrix_raises():
    m = PAdicMatrix.from_rows(2, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        m.inverse()
    with pytest.raises(SingularMatrixError):
        iwasawa(m)
    with pytest.raises(SingularMatrixError):
        cell_label(m)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0], [0, 0]],
        [[1, 2, 3], [0, 0, 0], [4, 5, 6]],  # a zero row above the bottom one
        [[1, 0, 0], [0, 1, 1], [0, 2, 2]],  # the bottom two rows are dependent
        [[Fraction(1, 3), 1, 0], [1, 3, 0], [5, 7, 0]],  # a zero column
    ],
)
def test_cell_label_raises_on_singular_input(rows):
    with pytest.raises(SingularMatrixError):
        cell_label(PAdicMatrix.from_rows(3, rows))


def _naive_product(a: PAdicMatrix, b: PAdicMatrix) -> PAdicMatrix:
    n = a.n
    return PAdicMatrix.from_rows(a.p, [
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ])


rationals = st.fractions(max_denominator=60).filter(lambda x: abs(x.numerator) < 10**6)


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entry = draw(st.sampled_from([rationals, st.integers(-50, 50)]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[e if i == j else 0 for j, e in enumerate(row)] for i, row in enumerate(rows)]
    other = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    return PAdicMatrix.from_rows(3, rows), PAdicMatrix.from_rows(3, other)


@given(matrix_pairs())
def test_product_equals_naive_triple_loop(pair):
    a, b = pair
    assert a * b == _naive_product(a, b)
    assert b * a == _naive_product(b, a)
    assert all(isinstance(e, Fraction) for row in (a * b).entries for e in row)


def test_iwasawa_frozen_example():
    g = PAdicMatrix.from_rows(2, [[1, 0], [1, 1]])
    b, k = iwasawa(g)
    assert b == PAdicMatrix.from_rows(2, [[1, 1], [0, 1]])
    assert k == PAdicMatrix.from_rows(2, [[0, -1], [1, 1]])
    assert b * k == g


def _in_k(m: PAdicMatrix) -> bool:
    """Integral with a unit determinant: an element of GL_n(Z_p)."""
    p = m.p
    return all(e.denominator % p for row in m.entries for e in row) and frac_valuation(det(m), p) == 0


def _iwasawa_oracle(g: PAdicMatrix) -> tuple[PAdicMatrix, PAdicMatrix]:
    """Column elimination in Fraction arithmetic, updating k as it goes.

    The same pivot rule as ``iwasawa`` (least valuation in row i among
    columns <= i, ties to the smallest column) and the same normalization
    (the pivot becomes exactly p^v), but no cleared integers and no
    shortcut for k: every column operation is applied to k as a row
    operation, keeping g == a k throughout.
    """
    n, p = g.n, g.p
    a = [list(row) for row in g.entries]
    k = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        candidates = [(frac_valuation(a[i][j], p), j) for j in range(i + 1) if a[i][j] != 0]
        if not candidates:
            raise SingularMatrixError("matrix is singular")
        v, best = min(candidates)
        for row in a:
            row[best], row[i] = row[i], row[best]
        k[best], k[i] = k[i], k[best]
        unit = a[i][i] / Fraction(p) ** v
        for row in a:
            row[i] /= unit
        k[i] = [unit * e for e in k[i]]
        for j in range(i):
            c = a[i][j] / a[i][i]
            if c:
                for row in a:
                    row[j] -= c * row[i]
                k[i] = [x + c * y for x, y in zip(k[i], k[j])]
    return PAdicMatrix.from_rows(p, a), PAdicMatrix.from_rows(p, k)


@st.composite
def iwasawa_inputs(draw):
    """Matrices with non-integral entries, valuations from -6 to 8 and,
    one time in four, a row that is a combination of the others."""
    n = draw(st.integers(min_value=2, max_value=5))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    entry = st.builds(
        lambda num, v, den: Fraction(num, den) * Fraction(p) ** v,
        st.integers(-40, 40),
        st.integers(-6, 8),
        st.sampled_from([1, 2, 3, 7, 11]),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        r = draw(st.integers(0, n - 1))
        coeffs = [draw(entry) for _ in range(n)]
        rows[r] = [
            sum((c * rows[s][j] for s, c in enumerate(coeffs) if s != r), Fraction(0)) for j in range(n)
        ]
    return PAdicMatrix.from_rows(p, rows)


@settings(max_examples=300, deadline=None)
@given(iwasawa_inputs())
def test_iwasawa_matches_fraction_oracle(g):
    try:
        expected = _iwasawa_oracle(g)
    except SingularMatrixError:
        assert det(g) == 0
        with pytest.raises(SingularMatrixError):
            iwasawa(g)
        return
    b, k = iwasawa(g)
    assert (b, k) == expected
    assert is_upper_triangular(b)
    assert all(
        Fraction(a[i], d) == Fraction(g.p) ** frac_valuation(Fraction(a[i], d), g.p)
        for i, (a, d) in enumerate(b.rows)
    )
    assert _in_k(k)
    assert b * k == g


def _public_copy(m: PAdicMatrix) -> PAdicMatrix:
    return PAdicMatrix.from_rows(m.p, [list(row) for row in m.entries])


def _has_canonical_rows(m: PAdicMatrix) -> bool:
    """rows is the stored form: per row a tuple of n integers a and an
    integer d > 0 with gcd(d, *a) == 1."""
    return type(m.rows) is tuple and len(m.rows) == m.n and all(
        type(row) is tuple and len(row) == 2 and type(row[0]) is tuple and len(row[0]) == m.n
        and all(type(x) is int for x in row[0]) and type(row[1]) is int and row[1] > 0
        and math.gcd(row[1], *row[0]) == 1
        for row in m.rows
    )


@settings(max_examples=100, deadline=None)
@given(iwasawa_inputs())
def test_internal_matrices_equal_their_public_construction(g):
    """Products, Iwasawa factors and cell witnesses are wrapped from rows
    built in ``padic``, unchecked; they must already be in the canonical
    stored form, and equal (and hash and print like) what the public
    constructor makes of their entries, also once they have built and
    kept their column form as right factors."""
    assert _has_canonical_rows(g)
    try:
        b, k = iwasawa(g)
    except SingularMatrixError:
        assert _has_canonical_rows(g * g)
        return
    cell = iwahori_cell(g)
    built = [g * g, b * k, b, k, cell.n_factor, cell.t0_factor, cell.j_factor, cell.reconstruct(), g.inverse()]
    for m in built:
        m._column_form
        assert "_column_form" in vars(m)
        assert _has_canonical_rows(m)
        assert type(m.entries) is tuple and len(m.entries) == g.n
        for row in m.entries:
            assert type(row) is tuple and len(row) == g.n
            assert all(type(e) is Fraction for e in row)
        public = _public_copy(m)
        assert m == public and hash(m) == hash(public) and repr(m) == repr(public)
        assert m.rows == public.rows


def test_stored_rows_are_the_lcm_of_denominators_form():
    m = PAdicMatrix.from_rows(3, [["1/2", "-1/3", 0], [0, 0, 0], [Fraction(6, 4), 9, Fraction(-2, 6)]])
    assert m.rows == (((3, -2, 0), 6), ((0, 0, 0), 1), ((9, 54, -2), 6))
    assert m.entries[2] == (Fraction(3, 2), Fraction(9), Fraction(-1, 3))
    assert m == PAdicMatrix(3, m.entries) and m != PAdicMatrix(5, m.entries)


def test_iwasawa_properties_random():
    rng = random.Random(4)
    for n, p in [(2, 2), (3, 3), (4, 5)]:
        for _ in range(10):
            g = random_cell_product(rng, n, p)[0]
            b, k = iwasawa(g)
            assert is_upper_triangular(b)
            assert _in_k(k)
            assert b * k == g


def test_residue_bruhat_frozen_example():
    w, b1 = residue_bruhat([[1, 0], [1, 1]], 2)
    assert w == Permutation.simple(2, 1)
    assert b1 == [[1, 1], [0, 1]]


def test_residue_bruhat_identity():
    w, b1 = residue_bruhat([[1, 0], [0, 1]], 5)
    assert w == Permutation.identity(2)
    assert b1 == [[1, 0], [0, 1]]


def test_cell_frozen_examples():
    p = 2
    c = iwahori_cell(PAdicMatrix.diagonal(p, [p, 1]))
    assert (c.kbar, c.w) == ((1, 0), Permutation.identity(2))

    c = iwahori_cell(PAdicMatrix.from_rows(p, [[0, 1], [p, 0]]))
    assert (c.kbar, c.w) == ((0, 1), Permutation.simple(2, 1))

    c = iwahori_cell(PAdicMatrix.from_rows(p, [[1, 0], [1, 1]]))
    assert (c.kbar, c.w) == ((0, 0), Permutation.simple(2, 1))


def test_cell_witnesses_live_in_their_groups():
    rng = random.Random(9)
    for n, p in [(2, 3), (3, 2)]:
        for _ in range(20):
            g, kbar, w = random_cell_product(rng, n, p)
            cell = iwahori_cell(g)
            assert cell.kbar == kbar
            assert cell.w == w
            assert cell.n_factor.is_upper_unitriangular()
            assert cell.j_factor.is_in_iwahori()
            assert all(
                frac_valuation(Fraction(a[i], d), p) == 0 for i, (a, d) in enumerate(cell.t0_factor.rows)
            )
            assert cell.reconstruct() == g


def test_cell_product_equals_the_product_of_its_factors():
    """``random_cell_product`` builds g with one matrix product; g must be
    the product u . t . diag(p^kbar) . P_w . j of the factors it draws, in
    the same order from the same rng."""
    for n, p in product(range(2, 7), (2, 3, 5, 7)):
        rng, ref = random.Random(f"sampler:{n}:{p}"), random.Random(f"sampler:{n}:{p}")
        for _ in range(10):
            g, kbar, w = random_cell_product(rng, n, p)
            assert (kbar, w) == (random_weight(ref, n), random_permutation(ref, n))
            expected = (
                random_upper_unipotent(ref, n, p)
                * random_torus_units(ref, n, p)
                * PAdicMatrix.weight_matrix(p, kbar)
                * PAdicMatrix.permutation(p, w)
                * random_iwahori(ref, n, p)
            )
            assert g == expected and repr(g) == repr(expected)
        assert rng.random() == ref.random()


def test_cell_label_matches_full_decomposition():
    """Minors and elimination are independent; both must find the built label."""
    for n, p in product((2, 3, 4, 5), (2, 3, 5, 7)):
        rng = random.Random(f"minors:{n}:{p}")
        for _ in range(12):
            g, kbar, w = random_cell_product(rng, n, p)
            for h in [g] + [g * random_iwahori(rng, n, p) for _ in range(4)]:
                cell = iwahori_cell(h)
                assert cell_label(h) == (cell.kbar, cell.w) == (kbar, w)


def test_cell_label_matches_elimination_on_arbitrary_matrices():
    rng = random.Random(15)
    for n, p in [(2, 2), (3, 3), (4, 2), (4, 5)]:
        for _ in range(20):
            rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, p, p * p, 3 * p, 7])) for _ in range(n)]
                    for _ in range(n)]
            g = PAdicMatrix.from_rows(p, rows)
            if det(g) == 0:
                continue
            cell = iwahori_cell(g)
            assert cell_label(g) == (cell.kbar, cell.w)


def _laplace_pass(rows, p):
    """The oracle of ``_minors_pass``: every minor on the bottom rows, by
    Laplace expansion, and the least minimizing column set of each level
    as the least bitmask of least valuation over all of them.

    Step i pushes in row n-i+1 along D_{i,S} = sum_{s in S} +-a_{n-i+1,s}
    D_{i-1,S-{s}}, about n 2^(n-1) multiply-adds in all.  The phase
    numerator N_i is row i expanded against the minors of the level below
    the one that holds D_i, so two levels are kept.  Rows are cleared
    rows (a_r, d_r) over any positive d_r, as for ``_minors_pass``.
    """
    n = len(rows)
    kbar = [0] * n
    window = [0] * n
    below, minors = {}, {0: 1}  # column bitmask S -> minor of the cleared rows r+2.., r+1..
    prev_mask, prev_min, prev_d = 0, 0, 1
    psi = Fraction(0)
    for r in range(n - 1, -1, -1):
        row, d = rows[r]
        dv = frac_valuation(Fraction(d), p)
        if prev_mask:
            num = 0
            for c in range(n):
                bit = 1 << c
                minor = below.get(prev_mask ^ bit) if prev_mask & bit and row[c] else None
                if minor:
                    term = row[c] * minor
                    num += -term if (prev_mask & (bit - 1)).bit_count() % 2 else term
            psi += frac_psi_phase(Fraction(num * prev_d, minors[prev_mask] * d), p)
        pushed = {}
        for mask, minor in minors.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit or not row[c]:
                    continue
                term = row[c] * minor
                if (mask & (bit - 1)).bit_count() % 2:
                    term = -term
                pushed[mask | bit] = pushed.get(mask | bit, 0) + term
        below, minors = minors, {mask: minor for mask, minor in pushed.items() if minor}
        if not minors:
            raise SingularMatrixError("matrix is singular")
        best_v, best_mask = min((frac_valuation(Fraction(minor), p), mask) for mask, minor in minors.items())
        kbar[r] = best_v - prev_min - dv
        window[(best_mask & ~prev_mask).bit_length() - 1] = r + 1
        prev_mask, prev_min, prev_d = best_mask, best_v, d
    return tuple(kbar), Permutation(tuple(window)), psi % 1


@st.composite
def minors_pass_inputs(draw):
    """Cleared rows for the minors pass and its oracle, at n = 2..7 and
    p in {2, 3, 5, 7}: a sampled group element, one right translated by an
    Iwahori element, an unstructured rational matrix with p-power
    denominators, or a singular one, with a row that combines the others.
    Half the time every row is rescaled by
    its own positive factor, so d_r is not the lcm of the row's
    denominators and a_r is not reduced."""
    n = draw(st.integers(min_value=2, max_value=7))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["point", "translate", "rational", "singular"]))
    if kind in ("point", "translate"):
        rng = random.Random(draw(st.integers(0, 2**32)))
        g = random_group_element(rng, n, p)
        if kind == "translate":
            g = g * random_iwahori(rng, n, p)
    else:
        entry = st.builds(
            lambda num, v, unit: Fraction(num * unit, p**v), st.integers(-30, 30), st.integers(0, 4),
            st.sampled_from([1, 1, 1, 2, 3, 7]),
        )
        entries = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if kind == "singular":
            r = draw(st.integers(0, n - 1))
            coeffs = [draw(entry) for _ in range(n)]
            entries[r] = [
                sum((c * entries[s][j] for s, c in enumerate(coeffs) if s != r), Fraction(0)) for j in range(n)
            ]
        g = PAdicMatrix.from_rows(p, entries)
    rows = g.rows
    if draw(st.booleans()):
        factors = [draw(st.sampled_from([1, 2, 3, p, p * p, 6 * p, p**3 * 5])) for _ in range(n)]
        rows = [([x * c for x in a], d * c) for (a, d), c in zip(rows, factors)]
    return rows, p


def _pass_with_psi(rows, p):
    """``_minors_pass`` with psi formed from its phase terms by the helper
    of ``whittaker``, whether or not the cell is on the support."""
    kbar, w, terms = _minors_pass(rows, p)
    return kbar, w, Fraction(*_psi_of_terms(terms, p))


def _outcome(f, rows, p):
    try:
        return f(rows, p)
    except SingularMatrixError as exc:
        return "singular", str(exc)


@settings(max_examples=400, deadline=None)
@given(minors_pass_inputs())
def test_minors_pass_matches_the_laplace_oracle(case):
    """The elimination gives the label and the singular cases of the full
    Laplace table, and psi formed from its phase terms is the table's
    phase, on or off the support."""
    rows, p = case
    assert _outcome(_pass_with_psi, rows, p) == _outcome(_laplace_pass, rows, p)


@settings(max_examples=100, deadline=None)
@given(minors_pass_inputs())
def test_minors_pass_window_equals_its_validated_copy(case):
    """The pass builds w unchecked; it is the permutation the public
    constructor gives for the same window."""
    rows, p = case
    try:
        _, w, _ = _minors_pass(rows, p)
    except SingularMatrixError:
        return
    copy = Permutation(w.window)
    assert w == copy and hash(w) == hash(copy) and repr(w) == repr(copy)
    assert type(w.window) is tuple and all(type(v) is int for v in w.window)


@pytest.mark.parametrize("rows, kbar, window", [
    # every entry of the bottom row has valuation 1: ties go to the least column
    ([[1, 0, 0], [0, 1, 0], [3, 3, 3]], (0, 0, 1), (3, 2, 1)),
    # two units in the bottom row: the scan stops at the first
    ([[1, 2, 0], [2, 1, 1], [0, 5, 5]], (0, 0, 0), (2, 3, 1)),
    # valuations 1, 2, 1 in the bottom row: columns 1 and 3 tie
    ([[1, 1, 0], [0, 3, 1], [3, 9, 3]], (0, 0, 1), (3, 1, 2)),
])
def test_minors_pass_breaks_ties_to_the_least_column(rows, kbar, window):
    g = PAdicMatrix.from_rows(3, rows)
    cell = iwahori_cell(g)
    assert (cell.kbar, cell.w) == (kbar, Permutation(window))
    for f in (_pass_with_psi, _laplace_pass):
        assert f(g.rows, 3) == (kbar, Permutation(window), 0)


def test_right_iwahori_translation_keeps_label():
    rng = random.Random(21)
    g, kbar, w = random_cell_product(rng, 3, 2)
    for _ in range(10):
        j = random_iwahori(rng, 3, 2)
        assert cell_label(g * j) == (kbar, w)


def test_iwahori_membership():
    p = 3
    assert PAdicMatrix.identity(2, p).is_in_iwahori()
    assert PAdicMatrix.from_rows(p, [[1, 5], [3, 2]]).is_in_iwahori()
    assert not PAdicMatrix.from_rows(p, [[1, 0], [1, 1]]).is_in_iwahori()
    assert not PAdicMatrix.from_rows(p, [[3, 0], [0, 1]]).is_in_iwahori()


def test_json_round_trip():
    m = PAdicMatrix.from_rows(5, [[Fraction(1, 5), 2], [0, Fraction(-3, 4)]])
    again = matrix_from_json(matrix_to_json(m))
    assert again == m
    doc = json.loads(matrix_to_json(m))
    assert doc["entries"][0][0] == "1/5"


@pytest.mark.parametrize(
    "doc",
    [
        '{"p": 4, "entries": [["1"]]}',
        '{"p": 2, "entries": [["1", "0"]]}',
        '{"p": 2, "entries": [["x", "0"], ["0", "1"]]}',
        '{"p": 2, "entries": [[1.5, "0"], ["0", "1"]]}',
        '{"p": 2}',
        "not json at all",
    ]
    # entries must be integers or a/b in lowest terms
    + [
        json.dumps({"p": 3, "entries": [[entry, "0"], ["0", "1"]]})
        for entry in ["2/4", "0.5", "0/3", "-6/4", "1/0", " 1", "1e3", "1_000", "+-1", "\u00bd", "3/-4", ""]
    ]
    # n must be at least 2
    + ['{"p": 2, "entries": [["4"]]}']
    # an integer over the int-string digit limit, nesting past the recursion limit
    + [
        pytest.param('{"p": 2, "entries": [[' + "1" * 5000 + ", 0], [0, 1]]}", id="long-integer"),
        pytest.param("[" * 100000, id="deep-nesting"),
    ],
)
def test_matrix_parse_errors(doc):
    with pytest.raises(MatrixFormatError):
        matrix_from_json(doc)


def test_matrix_entries_in_lowest_terms_parse():
    m = matrix_from_json('{"p": 3, "entries": [["-3/4", "7"], [-2, "1/9"]]}')
    assert m.entries == ((Fraction(-3, 4), Fraction(7)), (Fraction(-2), Fraction(1, 9)))


def test_is_prime_agrees_with_trial_division():
    sieve = [q for q in range(2, 5000) if all(q % d for d in range(2, int(q**0.5) + 1))]
    assert [q for q in range(5000) if is_prime(q)] == sieve


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the first 1, 4, 11 and 12 prime bases, and a product of two primes
    for composite in [2047, 3215031751, 3825123056546413051, 318665857834031151167461, (2**61 - 1) * (2**19 - 1)]:
        assert not is_prime(composite)
    # the largest prime below 2^64, and the largest below the bound
    for prime in [2**61 - 1, 2**64 - 59, 10**18 + 3, 3317044064679887385961813]:
        assert is_prime(prime)
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)
    with pytest.raises(MatrixFormatError):
        matrix_from_json(json.dumps({"p": PRIME_BOUND + 2, "entries": [["1"]]}))


def test_cell_is_value_object():
    p = 2
    c1 = iwahori_cell(PAdicMatrix.identity(2, p))
    assert isinstance(c1, Cell)
    assert c1.kbar == (0, 0)
    assert c1.n_factor == PAdicMatrix.identity(2, p)


def _run_optimized(script: str) -> str:
    """Run ``script`` under ``python -O``, which strips ``assert`` statements."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_check_raises_under_optimize_flag():
    """With a planted wrong permutation from residue_bruhat, check=True must
    raise even under ``python -O``, which strips ``assert`` statements."""
    script = textwrap.dedent(
        """
        from steinwhit import padic
        from steinwhit.weyl import Permutation

        true_bruhat = padic.residue_bruhat

        def wrong_bruhat(rows, p):
            w, b1 = true_bruhat(rows, p)
            return w * Permutation.simple(w.n, 1), b1

        padic.residue_bruhat = wrong_bruhat
        g = padic.PAdicMatrix.from_rows(3, [[1, 2], [3, 4]])
        try:
            padic.iwahori_cell(g, check=True)
        except padic.DecompositionError as exc:
            print("raised", exc)
        else:
            print("accepted")
        """
    )
    stdout = _run_optimized(script)
    assert stdout.startswith("raised j witness is not in the Iwahori subgroup"), stdout


# Each plant replaces one step of iwahori_cell by a wrong one.  g has
# w = w0 at p = 5, so a changed entry above the diagonal of b1 is a real
# fault: P_{w0} u P_{w0} is lower triangular for a unipotent upper u.
PLANTS = {
    # a row of k off by p: k stays in K and has the same residue
    "k_row": (
        """
        true_iwasawa = padic.iwasawa

        def planted(g):
            b, k = true_iwasawa(g)
            rows = [list(row) for row in k.entries]
            rows[-1][0] += g.p
            return b, padic.PAdicMatrix(g.p, tuple(map(tuple, rows)))

        padic.iwasawa = planted
        """,
        "cell witnesses do not reconstruct",
    ),
    # b1 from the residue Bruhat decomposition with a wrong corner entry
    "b1_entry": (
        """
        true_bruhat = padic.residue_bruhat

        def planted(rows, p):
            w, b1 = true_bruhat(rows, p)
            b1 = [list(row) for row in b1]
            b1[0][-1] = (b1[0][-1] + 1) % p
            return w, b1

        padic.residue_bruhat = planted
        """,
        "j witness is not in the Iwahori subgroup",
    ),
    # a unitriangular n witness that is not the right one
    "n_witness": (
        """
        true_cell = padic.Cell

        def planted(kbar, w, n_factor, t0, j):
            rows = [list(row) for row in n_factor.entries]
            rows[0][-1] += 1
            return true_cell(kbar, w, padic.PAdicMatrix(n_factor.p, tuple(map(tuple, rows))), t0, j)

        padic.Cell = planted
        """,
        "cell witnesses do not reconstruct",
    ),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_single_check_catches_planted_faults_under_optimize_flag(plant):
    """iwahori_cell verifies its witnesses once; that one check must still
    catch a wrong k row, a wrong b1 entry and a wrong witness under -O."""
    code, message = PLANTS[plant]
    script = textwrap.dedent(
        """
        from steinwhit import padic

        g = padic.PAdicMatrix.from_rows(5, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert padic.iwahori_cell(g, check=True).w.window == (3, 2, 1)
        """
    ) + textwrap.dedent(code) + textwrap.dedent(
        """
        try:
            padic.iwahori_cell(g, check=True)
        except padic.DecompositionError as exc:
            print("raised", exc)
        else:
            print("accepted")
        """
    )
    stdout = _run_optimized(script)
    assert stdout.startswith(f"raised {message}"), stdout


def test_reconstruct_refuses_witnesses_that_do_not_fit():
    """Each row of t0 was read at its diagonal entry only, so a t0 with an
    entry off the diagonal was silently dropped and this cell reconstructed
    to I.  A kbar or w too long was cut to n by ``zip`` and accepted, and a
    kbar too short refused only by accident, by the product's "matrix
    context mismatch".  Now each misfit is a ValueError."""
    p, w = 3, Permutation.identity(2)
    one = PAdicMatrix.identity(2, p)
    assert Cell((0, 0), w, one, one, one).reconstruct() == one
    misfits = [
        Cell((0, 0), w, one, PAdicMatrix.from_rows(p, [[1, 1], [0, 1]]), one),  # t0 not diagonal
        Cell((0, 0), w, one, PAdicMatrix.from_rows(p, [[1, 0], [2, 1]]), one),
        Cell((0,), w, one, one, one),  # kbar too short
        Cell((0, 0, 0), w, one, one, one),  # kbar too long
        Cell((0, 0), Permutation.identity(3), one, one, one),
        Cell((0, 0), w, one, PAdicMatrix.identity(3, p), one),
        Cell((0, 0), w, one, one, PAdicMatrix.identity(3, p)),
        Cell((0, 0, 0), Permutation.identity(3), PAdicMatrix.identity(3, p), one, one),
        Cell((0, 0), w, one, PAdicMatrix.identity(2, 5), one),  # another prime
        Cell((0, 0), w, one, one, PAdicMatrix.identity(2, 5)),
        Cell((0, 0), w, PAdicMatrix.identity(2, 5), one, one),
    ]
    for cell in misfits:
        with pytest.raises(ValueError):
            cell.reconstruct()


def test_size_zero_and_arguments_of_another_class_are_refused():
    """A matrix of size 0 is a ValueError; a permutation, a witness or a
    right factor of another class a TypeError, not an AttributeError."""
    p, one = 3, PAdicMatrix.identity(2, 3)
    for build in (lambda: PAdicMatrix(2, []), lambda: PAdicMatrix.diagonal(2, []),
                  lambda: PAdicMatrix.from_rows(2, [])):
        with pytest.raises(ValueError):
            build()
    w = Permutation.identity(2)
    wrong = [
        lambda: PAdicMatrix.permutation(p, (2, 1)),
        lambda: one * None,
        lambda: one * [[1, 0], [0, 1]],
        lambda: Cell((0, 0), (1, 2), one, one, one).reconstruct(),
        lambda: Cell((0, 0), w, None, one, one).reconstruct(),
        lambda: Cell((0, 0), w, one, [[1, 0], [0, 1]], one).reconstruct(),
        lambda: Cell((0, 0), w, one, one, None).reconstruct(),
    ]
    for build in wrong:
        with pytest.raises(TypeError):
            build()


NOT_PRIME_INTS = [4, 1, 0, -3, 9, 3215031751, PRIME_BOUND, PRIME_BOUND + 2]
NOT_INTS = [True, False, 3.0, "3", Fraction(3), None]


@pytest.mark.parametrize("p", NOT_PRIME_INTS + NOT_INTS + ["x"], ids=repr)
def test_public_constructors_refuse_a_p_that_is_not_a_prime_int(p):
    """Every public constructor goes through ``__init__``, which refused
    nothing: ``PAdicMatrix(4, I)`` built, and ``iwahori_cell`` and
    ``cell_label`` answered for the "prime" 4.  Now a p that is not an
    ``int`` (``bool`` included) is a TypeError and an ``int`` that is not
    prime a ValueError, from ``weight_matrix`` too before any arithmetic:
    there the p "x" raised ValueError from ``Fraction`` and a negative
    exponent at p = 0 ZeroDivisionError."""
    error = ValueError if p in NOT_PRIME_INTS and type(p) is int else TypeError
    builds = [
        lambda: PAdicMatrix(p, [[1, 0], [0, 1]]),
        lambda: PAdicMatrix.from_rows(p, [[1, 2], [3, 4]]),
        lambda: PAdicMatrix.identity(2, p),
        lambda: PAdicMatrix.diagonal(p, [1, 2]),
        lambda: PAdicMatrix.weight_matrix(p, (0, 1)),
        lambda: PAdicMatrix.weight_matrix(p, (-1, 0)),
        lambda: PAdicMatrix.permutation(p, Permutation.simple(2, 1)),
        lambda: PAdicMatrix.one_param(p, 2, 1, 2, 1),
    ]
    for build in builds:
        with pytest.raises(error):
            build()


def test_internal_wrapping_stays_unchecked():
    """``_of_rows`` wraps rows built in this package and checks nothing."""
    m = PAdicMatrix._of_rows(4, (((1, 0), 1), ((0, 1), 1)))
    assert (m.p, m.n) == (4, 2)
    assert PAdicMatrix.identity(2, 2) * PAdicMatrix.identity(2, 2) == PAdicMatrix._of_rows(2, m.rows)


@st.composite
def single_use_products(draw):
    """Pairs of matrices of small rationals at n = 2..6 and p in {2, 3, 5},
    with denominators prime to p as well as p-powers, and zero entries,
    rows and columns."""
    n = draw(st.integers(min_value=2, max_value=6))
    p = draw(st.sampled_from([2, 3, 5]))
    entry = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 5, 7, 9, 10, 12, 25]))

    def matrix():
        rows = [[draw(entry) if draw(st.integers(0, 3)) else Fraction(0) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
        if draw(st.booleans()):
            c = draw(st.integers(0, n - 1))
            for row in rows:
                row[c] = Fraction(0)
        return PAdicMatrix.from_rows(p, rows)

    return matrix(), matrix()


@settings(max_examples=150, deadline=None)
@given(single_use_products())
def test_single_use_kernel_equals_the_fraction_product(pair):
    """``_combined``, the kernel of ``Cell.reconstruct`` and of the n
    witness, gives the canonical rows of the product, equal to the
    ``Fraction`` triple loop and to ``__mul__``; its right factor may come
    as rows over any positive denominators, unreduced."""
    a, b = pair
    rows = _combined(a.rows, b.rows)
    product = PAdicMatrix._of_rows(a.p, rows)
    assert _has_canonical_rows(product)
    assert product == _naive_product(a, b) == a * b
    assert _combined(a.rows, [([6 * x for x in row], 6 * d) for row, d in b.rows]) == rows


# Entries outside the rule of ``_entry_pair``: other types are a TypeError,
# strings outside the document grammar a MatrixFormatError.
BAD_ENTRIES = [(0.5, TypeError), (2.0, TypeError), (True, TypeError), (None, TypeError),
               ("1.5", MatrixFormatError), (" 3", MatrixFormatError), ("1/0", MatrixFormatError),
               ("2/4", MatrixFormatError)]


@pytest.mark.parametrize("entry, error", BAD_ENTRIES, ids=[repr(e) for e, _ in BAD_ENTRIES])
def test_public_constructors_read_entries_by_the_document_grammar(entry, error):
    """The constructors read entries through ``Fraction(e)``, so
    ``PAdicMatrix(2, [[0.5, True], ["3/4", 1]])`` built a matrix from a
    float and a ``bool``; now they take what a JSON document may hold, by
    the same rule."""
    builds = [
        lambda: PAdicMatrix(3, [[1, entry], [0, 1]]),
        lambda: PAdicMatrix.from_rows(3, [[entry, 0], [0, 1]]),
        lambda: PAdicMatrix.diagonal(3, [1, entry]),
    ]
    for build in builds:
        with pytest.raises(error):
            build()


def test_named_constructors_refuse_float_parameters():
    assert issubclass(MatrixFormatError, ValueError)
    with pytest.raises(TypeError):
        PAdicMatrix(2, [[0.5, True], ["3/4", 1]])
    with pytest.raises(TypeError):
        PAdicMatrix.one_param(3, 2, 1, 2, 0.5)
    with pytest.raises(TypeError):
        PAdicMatrix.one_param(3, 2, 1, 2, 1.0)
    with pytest.raises(TypeError):
        PAdicMatrix.weight_matrix(3, (0, 1.0))
    assert PAdicMatrix.one_param(3, 2, 1, 2, Fraction(1, 3)) == PAdicMatrix.from_rows(3, [[1, "1/3"], [0, 1]])
    assert PAdicMatrix.weight_matrix(3, (-1, 2)) == PAdicMatrix.diagonal(3, ["1/3", 9])
    # a Fraction is an exact rational, whatever it was built from
    m = PAdicMatrix.from_rows(3, [[Fraction(6, 4), 0], [0, "-0"]])
    assert m.entries == ((Fraction(3, 2), 0), (0, 0))


grammar_entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(lambda a, b: str(Fraction(a, b)), st.integers(-99, 99), st.integers(1, 99)),
)
document_entries = st.one_of(
    grammar_entries,
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    # strings with a common factor, a zero denominator or leading zeros
    st.builds(lambda a, b, c: f"{a * c}/{b * c}", st.integers(-99, 99), st.integers(1, 99), st.integers(2, 9)),
    st.builds(lambda a: f"{a}/0", st.integers(-9, 9)),
    st.builds(lambda a, b, z: f"{'0' * z}{a}/{'0' * z}{b}", st.integers(0, 99), st.integers(1, 99), st.integers(0, 2)),
    st.sampled_from(["-0", "0/1", "-0/7", "1" * 4301, "1/" + "3" * 4301, "+1", "1.5", " 3", "1e3", "\u0663"]),
    st.text(max_size=5),
)


@st.composite
def entry_documents(draw):
    """The rows of a document whose p is checked: n = 2..4, each entry
    drawn from ``document_entries`` one time in eight and else from the
    grammar, with now and then a ragged row or a row that is not a list."""
    n = draw(st.integers(2, 4))
    entry = st.integers(0, 7).flatmap(lambda k: grammar_entries if k else document_entries)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from([[], ["1"] * (n + 1), "12", None]))
    return draw(st.sampled_from([2, 3, 5])), rows


@settings(max_examples=300, deadline=None)
@given(entry_documents())
def test_document_reader_matches_the_fraction_oracle(doc):
    """``_matrix_of_entries`` reads each entry as an integer pair; the
    reader through ``Fraction`` that it replaced must give the same rows,
    or refuse the document with the same message."""
    p, entries = doc
    try:
        expected = matrix_of_entries(p, entries)
    except MatrixFormatError as exc:
        event("refused")
        with pytest.raises(MatrixFormatError) as got:
            _matrix_of_entries(p, entries)
        assert str(got.value) == str(exc)
        return
    event("read")
    m = _matrix_of_entries(p, entries)
    assert m.rows == expected.rows and m.p == p
    assert _has_canonical_rows(m)


def test_repr_matches_the_fraction_oracle():
    rng = random.Random(24)
    seen = 0
    for k in range(300):
        n, p = 2 + k % 5, (2, 3, 5)[k % 3]
        if k % 3 == 0:
            m = random_group_element(rng, n, p)
        elif k % 3 == 1:
            m = random_cell_product(rng, n, p)[0]
        else:
            m = PAdicMatrix.from_rows(p, [[Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, p, 12]))
                                          for _ in range(n)] for _ in range(n)])
        assert repr(m) == matrix_repr(m)
        seen += "/" in repr(m) and "-" in repr(m) and " 0" in repr(m)
    assert seen
