"""Mutation checks: every catalogued mutant must make its tests fail.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant is a file of ``src/steinwhit``, an exact source snippet, its
replacement, and the pytest ids that must catch it.  The script copies
``src/`` to a temporary directory, replaces the snippet there (never in
the working tree), runs the ids in a subprocess with the copy first on
``PYTHONPATH``, and prints CAUGHT when a test fails, else MISSED (with
PASSED, a timeout, or the pytest exit code of an error that is not a
failing test).  A snippet that no longer occurs exactly once is reported
as NO MATCH: a refactor must re-point its mutants, not drop them.  First
the same ids run on the unchanged sources and must pass.  The exit code
is 1 if any mutant is MISSED or has NO MATCH, else 0.

Pytest does not collect this file (its name does not start with
``test_``), and it stays out of tier-1: one pytest process per mutant
takes a few seconds.  A later change that reports a mutation adds it to
``MUTANTS``.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
MEMORY_BYTES = 1 << 30  # a mutant that loops while it allocates stops here


class Mutant(NamedTuple):
    name: str
    file: str  # under src/steinwhit
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "sum-moves-an-updated-key-last", "values.py",
        "        for summand in summands:\n"
        "            _merge(terms, summand._terms.items())\n",
        "        for summand in summands:\n"
        "            for key, c in summand._terms.items():\n"
        "                if key in terms:\n"
        "                    c = terms.pop(key) + c\n"
        "                if c:\n"
        "                    terms[key] = c\n",
        ("tests/test_values.py::test_sum_is_the_fold_of_plus",
         "tests/test_hecke.py::test_sum_is_the_fold_of_plus"),
    ),
    Mutant(
        "merge-moves-an-updated-key-last", "values.py",
        "            c = old + c\n"
        "            if not c:\n"
        "                del terms[key]\n"
        "                continue\n",
        "            c = old + c\n"
        "            del terms[key]\n"
        "            if not c:\n"
        "                continue\n",
        ("tests/test_hecke.py::test_products_keep_their_frozen_normal_form",),
    ),
    Mutant(
        "eq-fast-path-skips-the-context-check", "values.py",
        "        self._check(other)\n"
        "        return self._terms == other._terms or (self - other).is_zero()\n",
        "        return self._terms == other._terms or (self - other).is_zero()\n",
        ("tests/test_values.py::test_equality_across_contexts_raises_even_between_zeros",),
    ),
    Mutant(
        "psi-inverts-den-not-its-unit-part", "whittaker.py",
        "r = num * pow(den // pu, -1, pu) % pu",
        "r = num * pow(den, -1, pu) % pu",
        ("tests/test_whittaker.py::test_integer_psi_matches_the_fraction_oracle",
         "tests/test_whittaker.py::test_integer_psi_on_drawn_terms"),
    ),
    Mutant(
        "psi-pair-not-in-lowest-terms", "whittaker.py",
        "    return _reduced_phase(total, top, p)\n",
        "    return total % top, top\n",
        ("tests/test_whittaker.py::test_integer_psi_matches_the_fraction_oracle",
         "tests/test_whittaker.py::test_engine_values_have_canonical_keys"),
    ),
    Mutant(
        "coset-test-drops-all-p-present", "values.py",
        "len(cs) == p and cs.count(cs[0]) == p",
        "cs.count(cs[0]) == len(cs)",
        ("tests/test_values.py::test_sparse_zero_test_matches_the_dense_oracle",
         "tests/test_values.py::test_partial_root_sum_does_not_vanish"),
    ),
    Mutant(
        "psi-without-the-row-denominators", "padic.py",
        "terms.append((piv[-1] * rows[r][1], t * rows[r - 1][1], best_v + dvs[r - 1]))",
        "terms.append((piv[-1], t, best_v))",
        ("tests/test_padic.py::test_minors_pass_matches_the_laplace_oracle",),
    ),
    Mutant(
        "character-of-drops-the-sign", "hecke.py",
        "((qe, (ee + k) % n), v * s)",
        "((qe, (ee + k) % n), v)",
        ("tests/test_hecke.py::test_character_of_is_the_fold_of_scalar_products",),
    ),
    Mutant(
        "character-at-without-sign-and-with-a-shifted-eps", "hecke.py",
        "((qe, (ee + k) % n), v * s)",
        "((qe, (ee + 2 * k + 1) % n), v)",
        ("tests/test_hecke.py::test_presentation_suite_passes",),
    ),
    Mutant(
        "relation-scalars-rotate-by-a-reflection", "hecke.py",
        "lambda v: v * chi_r,",
        "lambda v: v * chi[0],",
        ("tests/test_hecke.py::test_presentation_suite_passes",),
    ),
    Mutant(
        "hecke-step-skips-the-generator-checks", "hecke.py",
        "    ExtAffineElement.simple_reflection(n, i)\n"
        "    return h._wrap(_step(h._terms, n, i % n))\n",
        "    return h._wrap(_step(h._terms, n, i % n))\n",
        ("tests/test_affine_weyl.py::test_generators_check_their_arguments",),
    ),
    Mutant(
        "multiply-treats-every-coefficient-as-one", "hecke.py",
        "        if c._terms != _ONE:\n",
        "        if False:\n",
        ("tests/test_hecke.py::test_multiply_is_the_fold_of_generator_steps",
         "tests/test_hecke.py::test_multiply_is_the_fold_on_the_oracle_balls"),
    ),
    Mutant(
        "character-table-without-the-rotation-shift", "hecke.py",
        "(x.rotation_exponent(), x.w.sign(), c)",
        "(0, x.w.sign(), c)",
        ("tests/test_hecke.py::test_character_table_is_the_fold_on_every_relation_side",),
    ),
    Mutant(
        "label-value-inverts-the-q-power", "principal_series.py",
        "            up = p**q_exp\n",
        "            up = Fraction(1, p**q_exp)\n",
        ("tests/test_principal_series.py::test_label_values_equal_the_times_monomial_path",),
    ),
    Mutant(
        "iwahori-sampler-without-the-units", "sampling.py",
        "([x * num for x in row], den)",
        "(row, 1)",
        ("tests/test_sampling.py::test_samplers_equal_their_copies_through_the_public_constructors",),
    ),
    Mutant(
        "ascent-drops-the-inversion-term", "affine_weyl.py",
        "return lam[a - 1] - lam[b - 1] - (a > b) >= 0",
        "return lam[a - 1] - lam[b - 1] >= 0",
        ("tests/test_affine_weyl.py::test_ascent_is_the_length_comparison",),
    ),
    Mutant(
        "ascent-drops-the-s0-plus-one", "affine_weyl.py",
        "return lam[a - 1] - lam[b - 1] + 1 - (a > b) >= 0",
        "return lam[a - 1] - lam[b - 1] - (a > b) >= 0",
        ("tests/test_affine_weyl.py::test_ascent_is_the_length_comparison",),
    ),
    Mutant(
        "reduced-word-s0-threshold-off-by-one", "affine_weyl.py",
        "+ (winv[i - 1] > winv[i]) <= (i == 0):",
        "+ (winv[i - 1] > winv[i]) <= 2 * (i == 0):",
        ("tests/test_affine_weyl.py::test_length_matches_closed_formula",),
    ),
    Mutant(
        "reduced-word-takes-the-largest-descent", "affine_weyl.py",
        "        word.append(i)\n",
        "        i = max(j for j in range(n) if lam[j - 1] - lam[j] + (winv[j - 1] > winv[j]) > (j == 0))\n"
        "        word.append(i)\n",
        ("tests/test_affine_weyl.py::test_length_matches_closed_formula",),
    ),
    Mutant(
        "reduced-word-rotation-shift-with-the-wrong-sign", "affine_weyl.py",
        "(j - m) // n",
        "(j + m) // n",
        ("tests/test_affine_weyl.py::test_reduced_word_is_the_oracle_word",
         "tests/test_affine_weyl.py::test_length_matches_closed_formula"),
    ),
    Mutant(
        "ext-affine-eq-ignores-lam", "affine_weyl.py",
        "            return self.lam == other.lam and self.w.window == other.w.window\n",
        "            return self.w.window == other.w.window\n",
        ("tests/test_affine_weyl.py::test_value_types_compare_and_hash_by_their_fields",),
    ),
    Mutant(
        "affine-product-skips-translation", "affine_weyl.py",
        "        if any(mu):\n",
        "        if mu[0]:\n",
        ("tests/test_affine_weyl.py::test_product_is_the_oracle_product",),
    ),
    Mutant(
        "dominance-threshold-zero-at-a-descent", "weyl.py",
        "return tuple(0 if winv[i] < winv[i + 1] else -1 for i in range(w.n - 1))",
        "return tuple(0 if winv[i] < winv[i + 1] else 0 for i in range(w.n - 1))",
        ("tests/test_acceptance.py::test_criterion_05_closed_form_vs_recursion",),
    ),
    Mutant(
        "column-form-not-kept", "padic.py",
        "    @functools.cached_property\n    def _column_form(self)",
        "    @property\n    def _column_form(self)",
        ("tests/test_whittaker.py::test_column_form_is_built_once_per_right_factor",),
    ),
    Mutant(
        "single-use-kernel-without-the-row-scale", "padic.py",
        "    right = [(b, big // e) for b, e in right]\n",
        "    right = [(b, 1) for b, e in right]\n",
        ("tests/test_padic.py::test_single_use_kernel_equals_the_fraction_product",),
    ),
    Mutant(
        "entry-pair-accepts-bool", "padic.py",
        "    if type(e) is int:\n",
        "    if isinstance(e, int):\n",
        ("tests/test_padic.py::test_public_constructors_read_entries_by_the_document_grammar",
         "tests/test_padic.py::test_document_reader_matches_the_fraction_oracle"),
    ),
    Mutant(
        "reader-skips-lowest-terms", "padic.py",
        "    if math.gcd(a, b) != 1:\n"
        "        raise MatrixFormatError(f\"rational entry {e!r} is not in lowest terms\")\n",
        "",
        ("tests/test_padic.py::test_matrix_parse_errors",
         "tests/test_padic.py::test_document_reader_matches_the_fraction_oracle"),
    ),
    Mutant(
        "n-witness-without-the-down-factor", "padic.py",
        "scale = [den // e * down for e, (_, down) in zip(dens, up_down)]",
        "scale = [den // e for e in dens]",
        ("tests/test_padic.py::test_cell_witnesses_live_in_their_groups",),
    ),
    Mutant(
        "phase-sum-takes-any-p-from-2", "values.py",
        "        _check_prime(p)\n",
        "        _check_int(\"p\", p, 2)\n",
        ("tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[phase-sum-i-minus-i-at-4]",),
    ),
    Mutant(
        "generator-index-through-int", "principal_series.py",
        "    _check_int(\"gen\", gen)\n",
        "    gen = int(gen)\n",
        ("tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[cosets-float-index]",
         "tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[apply-str-index]"),
    ),
    Mutant(
        "generator-cosets-cache-untyped", "principal_series.py",
        "@functools.lru_cache(maxsize=128, typed=True)\n",
        "@functools.lru_cache(maxsize=128)\n",
        ("tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[cosets-bool-index]",
         "tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[apply-bool-index]"),
    ),
    Mutant(
        "one-param-wraps-position-0", "padic.py",
        "if i == j or min(i, j) < 1 or max(i, j) > n:",
        "if i == j or max(i, j) > n:",
        ("tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[one-param-row-0]",),
    ),
    Mutant(
        "identity-takes-any-n", "padic.py",
        "    def identity(cls, n: int, p: int) -> \"PAdicMatrix\":\n"
        "        _check_int(\"n\", n, 1)\n",
        "    def identity(cls, n: int, p: int) -> \"PAdicMatrix\":\n",
        ("tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[identity-bool-n]",
         "tests/test_principal_series.py::test_each_argument_is_checked_by_its_one_rule[identity-n-0]",
         "tests/test_readme.py::test_every_refused_call_raises_the_exception_of_its_row"),
    ),
    Mutant(
        "engine-reads-point-0-values", "principal_series.py",
        "f_at[k].times_monomial(c, e)",
        "f_at[0].times_monomial(c, e)",
        ("tests/test_principal_series.py::test_engine_reads_each_point_at_its_own_value",
         "tests/test_acceptance.py::test_criterion_03_eigenvector_dichotomy",
         "tests/test_acceptance.py::test_criterion_04_functional_equations"),
    ),
    Mutant(
        "minus-coefficient-wrong-at-the-longest-w", "principal_series.py",
        "                c = Fraction((-1) ** ell, p**ell)\n",
        "                c = Fraction((-1) ** ell, p**ell) * (1 + (ell == n * (n - 1) // 2))\n",
        ("tests/test_principal_series.py::test_principal_identities_hold_at_the_permutation_points",),
    ),
    Mutant(
        "whittaker-suite-bypasses-eval-matrix", "whittaker.py",
        "w_at = [phase_sum(eval_matrix(g, eps_exp), n, p) for g in points]",
        "w_at = [phase_sum(_pass_value(_minors_pass(g.rows, p), p, eps_exp), n, p) for g in points]",
        ("tests/test_whittaker.py::test_the_suite_checks_the_public_evaluator",),
    ),
    Mutant(
        "eval-matrix-takes-any-class", "whittaker.py",
        "    _check_type(\"g\", g, PAdicMatrix)\n"
        "    _check_int(\"eps_exp\", eps_exp)\n",
        "    _check_int(\"eps_exp\", eps_exp)\n",
        ("tests/test_readme.py::test_every_refused_call_raises_the_exception_of_its_row",),
    ),
]


def run(tests, file: str | None = None, snippet: str = "", replacement: str = "") -> str:
    """FAILED or PASSED for the pytest ids ``tests`` on a copy of ``src/``
    with ``snippet`` replaced in ``file`` (unchanged without a file), or
    NO MATCH when the snippet does not occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if file is not None:
            path = src / "steinwhit" / file
            text = path.read_text()
            if text.count(snippet) != 1:
                return "NO MATCH"
            path.write_text(text.replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            return "TIMEOUT"
    # 0: every test passed; 1: some test failed; anything else (no such
    # test, a usage or collection error) is neither
    return {0: "PASSED", 1: "FAILED"}.get(proc.returncode, f"EXIT {proc.returncode}")


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    clean = run(sorted({t for m in chosen for t in m.tests}))
    if clean != "PASSED":
        print(f"the catalogue's tests on the unchanged sources: {clean}; nothing can be caught")
        return 1
    missed = 0
    for mutant in chosen:
        outcome = run(mutant.tests, mutant.file, mutant.snippet, mutant.replacement)
        verdict = {"FAILED": "CAUGHT", "NO MATCH": "NO MATCH"}.get(outcome, f"MISSED ({outcome})")
        missed += verdict != "CAUGHT"
        print(f"{verdict:8s} {mutant.name}", flush=True)
    return 1 if missed else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
