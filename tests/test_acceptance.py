"""Acceptance gate: the ten exact criteria, one reported line per criterion.

Each test prints its own PASS/FAIL line (visible with -s or on failure)
and asserts the same condition, so the pytest verdict per test is the
per-criterion verdict.  All comparisons are exact; the only tolerances
are the two runtime bounds stated inline.
"""

import random
import time
from itertools import product

from steinwhit.affine_weyl import ExtAffineElement
from steinwhit.hecke import HeckeScalar, steinberg_character, verify_presentation
from steinwhit.padic import cell_label, iwahori_cell
from steinwhit.principal_series import run_eigen_checks
from steinwhit.reporting import failure_line
from steinwhit.sampling import random_cell_product, random_iwahori
from steinwhit.weyl import (
    Permutation,
    all_permutations,
    dominance_shift,
    is_dominant,
)
from steinwhit.whittaker import (
    WhittakerValue,
    eval_cell,
    parahoric_check,
    verify_functional_equations,
)
from oracles import conjugated_shift, eval_recursive

CONFIGS = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]


def _report(num: int, label: str, ok: bool, failure: str | None = None) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num:02d} failed: {label}" + (f"; {failure}" if failure else "")


def _first_failure(failure: str | None, suite: str, results) -> str | None:
    """The earlier failure if there is one, else the CLI's line for the
    first failed check of ``results``."""
    return failure or next((failure_line(suite, r) for r in results if not r.passed), None)


def _sweep(n: int, bound: int):
    for tail in product(range(-bound, bound + 1), repeat=n - 1):
        kbar = tail + (0,)
        for w in all_permutations(n):
            yield kbar, w


def test_criterion_01_hecke_presentation():
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4, 5):
        ok = ok and all(r.passed for r in verify_presentation(n))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(1, f"presentation relations for n=2..5 in {elapsed:.2f}s", ok)


def test_criterion_02_character_both_ways():
    ok, failure = True, None
    for n in {n for n, _ in CONFIGS}:
        rotation = ExtAffineElement.rotation(n)
        for e in range(n):
            for i in range(n):
                s = ExtAffineElement.simple_reflection(n, i)
                ok = ok and steinberg_character(s, e) == HeckeScalar.monomial(n, -1)
            expected = HeckeScalar.monomial(n, (-1) ** (n - 1), 0, e)
            ok = ok and steinberg_character(rotation, e) == expected
        results = verify_presentation(n)
        ok = ok and all(r.passed for r in results)
        failure = _first_failure(failure, f"hecke[n={n}]", results)
    for n, p in CONFIGS:
        for e in range(n):
            results = run_eigen_checks(n, p, e, samples=4, seed=101)
            minus = [r for r in results if r.name.startswith("minus-eigenvalue")]
            ok = ok and len(minus) == n + 1 and all(r.passed for r in minus)
            failure = _first_failure(failure, f"principal[n={n},p={p},eps={e}]", minus)
    _report(2, "Steinberg character, algebraic and by coset sums", ok, failure)


def test_criterion_03_eigenvector_dichotomy():
    ok, failure = True, None
    for n, p in CONFIGS:
        results = run_eigen_checks(n, p, 1 % n, samples=50, seed=303)
        ok = ok and all(r.passed for r in results)
        failure = _first_failure(failure, f"principal[n={n},p={p},eps={1 % n}]", results)
        names = {r.name for r in results}
        ok = ok and "plus-rotation-fails-at-identity" in names
    _report(3, "minus/plus eigenvalues at 50 random points per config", ok, failure)


def test_criterion_04_functional_equations():
    start = time.monotonic()
    ok, failure = True, None
    for n, p in CONFIGS:
        results = verify_functional_equations(n, p, 1 % n, samples=100, seed=404)
        ok = ok and all(r.passed for r in results)
        failure = _first_failure(failure, f"whittaker[n={n},p={p},eps={1 % n}]", results)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(4, f"functional equations, 100 points per config, {elapsed:.1f}s", ok, failure)


def test_criterion_05_closed_form_vs_recursion():
    ok = True
    for n in (2, 3, 4):
        for kbar, w in _sweep(n, 4):
            for e in range(n):
                if eval_cell(kbar, w, e) != eval_recursive(kbar, w, e):
                    ok = False
    _report(5, "eval_cell == eval_recursive, exhaustive |k|<=4, n<=4", ok)


def test_criterion_06_support_and_scaling():
    ok = True
    for n in (2, 3, 4):
        ell_of = {w: w.length() for w in all_permutations(n)}
        for kbar, w in _sweep(n, 4):
            recursive_nonzero = not eval_recursive(kbar, w, 1).zero
            if recursive_nonzero != is_dominant(kbar, w):
                ok = False
            if all(kbar[i] >= kbar[i + 1] for i in range(n - 1)):
                for e in (0, 1):
                    diag = eval_cell(kbar, Permutation.identity(n), e)
                    val = eval_cell(kbar, w, e)
                    ell = ell_of[w]
                    expected = WhittakerValue.monomial(
                        diag.sign * (-1) ** ell, diag.eps_exp, diag.q_exp - ell
                    )
                    if val != expected:
                        ok = False
    _report(6, "support iff dominance; length scaling on dominant diagonals", ok)


def test_criterion_07_decomposition_round_trip():
    ok = True
    count = 0
    for n, p in product((2, 3, 4), (2, 3, 5)):
        rng = random.Random(7000 + 10 * n + p)
        pool = [random_iwahori(rng, n, p) for _ in range(50)]
        for _ in range(500):
            g, kbar, w = random_cell_product(rng, n, p)
            cell = iwahori_cell(g, check=True)
            if (cell.kbar, cell.w) != (kbar, w) or cell.reconstruct() != g:
                ok = False
            for j in pool:
                if cell_label(g * j) != (kbar, w):
                    ok = False
            count += 1
    ok = ok and count == 4500
    _report(7, "4500 round-trips with 50 right translations each", ok)


def test_criterion_08_new_vector_pair():
    ok = True
    for n in (2, 3, 4):
        for i in range(1, n):
            for e in range(n):
                ok = ok and all(r.passed for r in parahoric_check(i, n, e))
    shift = dominance_shift(Permutation.simple(2, 1))
    pinned = WhittakerValue.monomial(1, 0, 0)
    ok = ok and eval_cell(shift, Permutation.simple(2, 1), 0) == pinned
    ok = ok and eval_recursive(shift, Permutation.simple(2, 1), 0) == pinned
    _report(8, "wall values nonzero, off-wall zero; pinned boundary value 1", ok)


def test_criterion_09_zero_seed_vanishes():
    ok = True
    for n in (2, 3, 4):
        for kbar, w in _sweep(n, 4):
            for e in range(n):
                if not eval_recursive(kbar, w, e, base=0).zero:
                    ok = False
    _report(9, "zero-seeded recursion vanishes on the criterion-5 range", ok)


def test_criterion_10_shift_conjugation_lemma():
    ok = True
    for n in (2, 3, 4, 5):
        w0 = Permutation.longest(n)
        shift_w0 = dominance_shift(w0)
        for w in all_permutations(n):
            lhs = dominance_shift(w0 * w)
            conj = w0.act_weight(dominance_shift(w))
            rhs = tuple(c + s for c, s in zip(conj, shift_w0))
            diffs = {a - b for a, b in zip(lhs, rhs)}
            if len(diffs) != 1:
                ok = False
                continue
            if conjugated_shift(w) != (rhs, diffs.pop()):
                ok = False
    _report(10, "longest-element conjugation of shifts, central mismatch only", ok)
