"""Command-line interface.

Subcommands:
  decompose  read a matrix (JSON) and print its cell label and witnesses
  eval       read a matrix and print the exact Whittaker value
  table      sweep cell labels (k_n = 0) and print one row per cell
  verify     run the identity suites and report pass/fail per check

Matrices are JSON objects {"p": prime, "entries": [["a/b", ...], ...]}
read from a file path or "-" for standard input.  Entries are integers
or a/b in lowest terms; p, like --p, must be a prime below
``padic.PRIME_BOUND`` (about 3.3e24), where primality is decided
exactly.  Reports go to standard output, diagnostics to standard error.
``eval`` parses --scale before it reads the matrix, so a bad --scale
exits 2 whatever the document holds; ``table`` checks --scale and a
negative --range before its size guard, so these exit 2 whatever
--range and --n ask for.
Exit codes: 0 success, 1 verification failure, 2 parse or configuration
error, 3 singular input matrix, 4 size guard violation (``eval`` of a
matrix with n above 18; ``decompose`` of a matrix with n above 56,
both read off the length of the 'entries' list before any entry is
parsed, so an oversize document with a malformed entry exits 4;
``table`` with --range above 6 or --n above 4; ``verify hecke`` with
--n above 24; ``verify principal``, ``whittaker`` or ``all`` with n
above 6 or an estimated cost, ``_verify_cost``, above its value at
n = 5, p = 31 and 20 samples).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys

from .hecke import verify_presentation
from .padic import (
    MatrixFormatError,
    SingularMatrixError,
    _entry_strings,
    _matrix_document,
    _matrix_of_entries,
    is_prime,
    iwahori_cell,
)
from .principal_series import run_eigen_checks
from .reporting import CheckResult, failure_line
from .weyl import all_permutations
from .whittaker import (
    WhittakerValue,
    eval_cell,
    eval_matrix,
    parahoric_check,
    serialize,
    verify_functional_equations,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_GUARD = 4

_TABLE_MAX_RANGE = 6
_TABLE_MAX_N = 4
# The minors pass behind eval is an O(n^3) elimination, cheap at n = 18.
# The bound stays at 18, where the exponential pass before it had put it,
# so that no exit code moves.
_EVAL_MAX_N = 18
# The elimination behind decompose grows about like n^5 on dense input, as
# its integers grow with n: a fresh process takes 0.67 s at n = 56 (entries
# in [-9, 9], p = 3, median of 5; 2-vCPU AMD EPYC VM, Python 3.11.7).  The
# bound stays at 56, so that no exit code moves.
_DECOMPOSE_MAX_N = 56
# The presentation check of the hecke suite is cheap at n = 24.  The bound
# stays at 24, so that no exit code moves.
_HECKE_MAX_N = 24

# Cost of the principal and whittaker suites together, in units of 0.1 ms,
# as measured on an earlier minors pass: per coset of the checks that loop
# over all n! permutations once, and per coset of each sampled point, which
# sums p cosets per generator and evaluates about 2 more.  A larger n is
# refused.
_VERIFY_COSTS = {2: (2, 6), 3: (11, 13), 4: (84, 27), 5: (900, 40), 6: (8300, 90)}


def _verify_cost(n: int, p: int, samples: int) -> int:
    fixed, per_point = _VERIFY_COSTS[n]
    return p * fixed + (samples + 1) * (p + 2) * per_point


# The cost at n = 5, p = 31 and the default 20 samples: it keeps every
# acceptance config and n = 6 with p <= 5.  The costs were fitted to the
# Laplace-era minors pass, which today's pass beats many times over; they
# are kept, so that no exit code moves.
_VERIFY_MAX_COST = _verify_cost(5, 31, 20)

# ASCII digits only: ``\d`` and ``int`` also take other scripts' digits.
_SCALE_RE = re.compile(r"^([+-]?)(?:1|q(?:\^(-?[0-9]+))?)$")
# One digit under CPython's default limit on int <-> str conversion (4300
# digits), so that the exponent parses and every scaled exponent prints.
_SCALE_MAX_DIGITS = 4299


class UsageError(Exception):
    """Configuration or input problem; maps to exit code 2."""


class GuardError(Exception):
    """A size guard refused the configuration; maps to exit code 4."""


def _parse_scale(text: str) -> tuple[int, int]:
    """Parse a monomial normalization factor: 1, -1, q, -q, q^k, -q^k."""
    m = _SCALE_RE.match(text.strip())
    if m is None:
        raise UsageError(f"bad --scale value {text!r}; expected a signed power of q")
    sign = -1 if m.group(1) == "-" else 1
    if "q" not in text:
        return sign, 0
    exp = m.group(2)
    if exp is None:
        return sign, 1
    digits = len(exp.lstrip("-"))
    if digits > _SCALE_MAX_DIGITS:
        raise UsageError(f"--scale exponent has {digits} digits; at most {_SCALE_MAX_DIGITS} are accepted")
    return sign, int(exp)


def _apply_scale(value: WhittakerValue, sign: int, q_exp: int) -> WhittakerValue:
    if value.zero or (sign, q_exp) == (1, 0):
        return value
    return WhittakerValue.monomial(
        value.sign * sign, value.eps_exp, value.q_exp + q_exp, value.psi
    )


def _read_matrix(path: str, command: str, max_n: int):
    """The matrix in the file ``path`` ("-" for standard input).  A matrix
    with n above ``max_n`` is refused from the length of its list of rows,
    before any row is parsed."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    p, entries = _matrix_document(text)
    if len(entries) > max_n:
        raise GuardError(f"{command} guard: need n <= {max_n}, got a matrix with n = {len(entries)}")
    return _matrix_of_entries(p, entries)


def _check_config(n: int, p: int, eps_exp: int) -> int:
    if n < 2:
        raise UsageError(f"--n must be at least 2, got {n}")
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise UsageError(f"--p {exc}") from exc
    if not prime:
        raise UsageError(f"--p must be prime, got {p}")
    return eps_exp % n


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _read_matrix(args.matrix, "decompose", _DECOMPOSE_MAX_N)
    cell = iwahori_cell(g)
    kbar = list(cell.kbar)
    doc = {
        "p": g.p,
        "w": list(cell.w.window),
        "n_factor": _entry_strings(cell.n_factor),
        "t0_factor": _entry_strings(cell.t0_factor),
        "j_factor": _entry_strings(cell.j_factor),
    }
    if args.mod_center:
        central = kbar[-1]
        doc["kbar"] = [k - central for k in kbar]
        doc["central_power"] = central
    else:
        doc["kbar"] = kbar
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    sign, q_exp = _parse_scale(args.scale)
    g = _read_matrix(args.matrix, "eval", _EVAL_MAX_N)
    value = _apply_scale(eval_matrix(g, args.eps_exp % g.n), sign, q_exp)
    print(json.dumps(serialize(value), sort_keys=True))
    return EXIT_OK


def _csv_field(x):
    """A JSON field as a CSV field: a list as its items joined by spaces, a
    ``bool`` as 0 or 1."""
    if isinstance(x, list):
        return " ".join(map(str, x))
    return int(x) if isinstance(x, bool) else x


def _print_documents(fmt: str, docs: list[dict], columns: tuple[str, ...]) -> None:
    """Print ``docs`` as one JSON array, or as CSV: a header of ``columns``,
    then those fields of each document."""
    if fmt == "json":
        print(json.dumps(docs, sort_keys=True))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for doc in docs:
        writer.writerow([_csv_field(doc[c]) for c in columns])
    sys.stdout.write(buf.getvalue())


def _table_rows(n: int, eps_exp: int, bound: int, include_zeros: bool, sign: int, q_shift: int):
    for tail in itertools.product(range(-bound, bound + 1), repeat=n - 1):
        kbar = tail + (0,)
        for w in all_permutations(n):
            value = _apply_scale(eval_cell(kbar, w, eps_exp), sign, q_shift)
            if value.zero and not include_zeros:
                continue
            yield kbar, w, value


def cmd_table(args: argparse.Namespace) -> int:
    eps_exp = _check_config(args.n, args.p, args.eps_exp)
    if args.range < 0:
        raise UsageError(f"--range must be non-negative, got {args.range}")
    sign, q_shift = _parse_scale(args.scale)
    if args.range > _TABLE_MAX_RANGE or args.n > _TABLE_MAX_N:
        raise GuardError(f"table guard: need range <= {_TABLE_MAX_RANGE} and n <= {_TABLE_MAX_N}")
    rows = _table_rows(args.n, eps_exp, args.range, args.include_zeros, sign, q_shift)
    docs = [{"kbar": list(kbar), "w": list(w.window), **serialize(value)} for kbar, w, value in rows]
    _print_documents(args.format, docs, ("kbar", "w", "zero", "sign", "eps_exp", "q_exp"))
    return EXIT_OK


def _verify_suites(args: argparse.Namespace) -> list[tuple[str, CheckResult]]:
    eps_exp = _check_config(args.n, args.p, args.eps_exp)
    if args.samples < 0:
        raise UsageError(f"--samples must be non-negative, got {args.samples}")
    if args.suite != "hecke" and (
        args.n not in _VERIFY_COSTS or _verify_cost(args.n, args.p, args.samples) > _VERIFY_MAX_COST
    ):
        raise GuardError(
            f"verify guard: need n <= {max(_VERIFY_COSTS)} and an estimated cost of at most"
            f" {_VERIFY_MAX_COST} (units of 0.1 ms) for the {args.suite} suite"
        )
    if args.suite in ("hecke", "all") and args.n > _HECKE_MAX_N:
        raise GuardError(f"verify guard: need n <= {_HECKE_MAX_N} for the {args.suite} suite")
    named: list[tuple[str, CheckResult]] = []
    if args.suite in ("hecke", "all"):
        for r in verify_presentation(args.n):
            named.append(("hecke", r))
    if args.suite in ("principal", "all"):
        for r in run_eigen_checks(args.n, args.p, eps_exp, args.samples, args.seed):
            named.append(("principal", r))
    if args.suite in ("whittaker", "all"):
        for r in verify_functional_equations(args.n, args.p, eps_exp, args.samples, args.seed):
            named.append(("whittaker", r))
        for i in range(1, args.n):
            for r in parahoric_check(i, args.n, eps_exp):
                named.append(("whittaker", r))
    return named


def cmd_verify(args: argparse.Namespace) -> int:
    named = _verify_suites(args)
    docs = [
        {"suite": suite, "name": r.name, "passed": r.passed, "detail": r.detail}
        for suite, r in named
    ]
    _print_documents(args.format, docs, ("suite", "name", "passed"))
    failures = [failure_line(suite, r) for suite, r in named if not r.passed]
    for line in failures:
        print(line, file=sys.stderr)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinwhit",
        description="Exact Whittaker values on Iwahori cells of GL(n, Q_p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="print the cell label and witnesses of a matrix")
    p_dec.add_argument("matrix", help="matrix JSON path, or - for stdin")
    p_dec.add_argument("--mod-center", action="store_true", help="shift kbar so its last entry is 0")
    p_dec.set_defaults(func=cmd_decompose)

    p_eval = sub.add_parser("eval", help="print the Whittaker value at a matrix")
    p_eval.add_argument("matrix", help="matrix JSON path, or - for stdin")
    p_eval.add_argument("--eps-exp", type=int, default=0)
    p_eval.add_argument("--scale", default="1", help="monomial normalization, e.g. -q^2")
    p_eval.set_defaults(func=cmd_eval)

    p_tab = sub.add_parser("table", help="sweep cell labels with k_n = 0")
    p_tab.add_argument("--n", type=int, required=True)
    p_tab.add_argument("--p", type=int, default=2, help="unused by the closed form; kept for config symmetry")
    p_tab.add_argument("--eps-exp", type=int, default=0)
    p_tab.add_argument("--range", type=int, default=2)
    p_tab.add_argument("--format", choices=("json", "csv"), default="json")
    p_tab.add_argument("--include-zeros", action="store_true")
    p_tab.add_argument("--scale", default="1")
    p_tab.set_defaults(func=cmd_table)

    p_ver = sub.add_parser("verify", help="run the identity suites")
    p_ver.add_argument("suite", choices=("hecke", "principal", "whittaker", "all"))
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--p", type=int, required=True)
    p_ver.add_argument("--eps-exp", type=int, default=0)
    p_ver.add_argument("--samples", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--format", choices=("json", "csv"), default="json")
    p_ver.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, MatrixFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SingularMatrixError as exc:
        print(f"error: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
