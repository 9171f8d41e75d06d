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
from hypothesis import given
from hypothesis import strategies as st

from steinwhit.padic import (
    Cell,
    MatrixFormatError,
    PAdicMatrix,
    SingularMatrixError,
    cell_label,
    frac_psi_phase,
    frac_valuation,
    iwahori_cell,
    iwasawa,
    matrix_from_json,
    matrix_to_json,
    residue_bruhat,
)
from steinwhit.sampling import random_cell_product, random_iwahori
from steinwhit.weyl import Permutation

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
    assert frac_valuation(Fraction(0), 7) == math.inf


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


def test_matrix_multiplication_and_inverse():
    m = PAdicMatrix.from_rows(3, [[1, 2], [0, 1]])
    minv = m.inverse()
    assert m * minv == PAdicMatrix.identity(2, 3)
    assert m.det() == 1


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


def test_iwasawa_properties_random():
    rng = random.Random(4)
    for n, p in [(2, 2), (3, 3), (4, 5)]:
        for _ in range(10):
            g = random_cell_product(rng, n, p)[0]
            b, k = iwasawa(g)
            assert b.is_upper_triangular()
            assert k.is_in_k()
            assert b * k == g


def test_residue_bruhat_frozen_example():
    w, b1, b2 = residue_bruhat([[1, 0], [1, 1]], 2)
    assert w == Permutation.simple(2, 1)
    assert b1 == [[1, 1], [0, 1]]
    assert b2 == [[1, 1], [0, 1]]


def test_residue_bruhat_identity():
    w, b1, b2 = residue_bruhat([[1, 0], [0, 1]], 5)
    assert w == Permutation.identity(2)
    assert b1 == [[1, 0], [0, 1]]
    assert b2 == [[1, 0], [0, 1]]


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
                frac_valuation(t, p) == 0 for t in cell.t0_factor.diagonal_entries()
            )
            assert cell.reconstruct() == g


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
            if g.det() == 0:
                continue
            cell = iwahori_cell(g)
            assert cell_label(g) == (cell.kbar, cell.w)


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
    ],
)
def test_matrix_parse_errors(doc):
    with pytest.raises(MatrixFormatError):
        matrix_from_json(doc)


def test_cell_is_value_object():
    p = 2
    c1 = iwahori_cell(PAdicMatrix.identity(2, p))
    assert isinstance(c1, Cell)
    assert c1.kbar == (0, 0)
    assert c1.n_factor == PAdicMatrix.identity(2, p)


def test_check_raises_under_optimize_flag():
    """With a planted wrong permutation from residue_bruhat, check=True must
    raise even under ``python -O``, which strips ``assert`` statements."""
    script = textwrap.dedent(
        """
        from steinwhit import padic
        from steinwhit.weyl import Permutation

        true_bruhat = padic.residue_bruhat

        def wrong_bruhat(rows, p):
            w, b1, b2 = true_bruhat(rows, p)
            return w * Permutation.simple(w.n, 1), b1, b2

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
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised j witness is not in the Iwahori subgroup"), proc.stdout
