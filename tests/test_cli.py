import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from steinwhit.cli import (
    _DECOMPOSE_MAX_N,
    _EVAL_MAX_N,
    _HECKE_MAX_N,
    _VERIFY_MAX_COST,
    _verify_cost,
    build_parser,
    main,
)
from steinwhit.padic import PRIME_BOUND, SingularMatrixError, is_prime

IDENTITY_2 = '{"p": 3, "entries": [["1", "0"], ["0", "1"]]}'
ROTATION_2_P3 = '{"p": 3, "entries": [["0", "1"], ["3", "0"]]}'
DIAG_P_1 = '{"p": 2, "entries": [["2", "0"], ["0", "1"]]}'
NON_DOMINANT = '{"p": 2, "entries": [["1/2", "0"], ["0", "1"]]}'
SINGULAR = '{"p": 2, "entries": [["1", "1"], ["1", "1"]]}'
CENTRAL = '{"p": 2, "entries": [["2", "0"], ["0", "2"]]}'


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_identity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["decompose", "-"], IDENTITY_2)
    assert code == 0
    doc = json.loads(out)
    assert doc["kbar"] == [0, 0]
    assert doc["w"] == [1, 2]


def test_decompose_rotation_matrix(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["decompose", "-"], ROTATION_2_P3)
    assert code == 0
    doc = json.loads(out)
    assert doc["kbar"] == [0, 1]
    assert doc["w"] == [2, 1]


def test_decompose_mod_center(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["decompose", "-", "--mod-center"], CENTRAL
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kbar"] == [0, 0]
    assert doc["central_power"] == 1


def test_decompose_from_file(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(DIAG_P_1)
    code, out, _ = run(capsys, monkeypatch, ["decompose", str(path)])
    assert code == 0
    assert json.loads(out)["kbar"] == [1, 0]


def test_eval_identity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["eval", "-"], IDENTITY_2)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "zero": False,
        "sign": 1,
        "eps_exp": 0,
        "q_exp": 0,
        "psi_num": 0,
        "psi_den": 1,
    }


def test_eval_diagonal(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["eval", "-"], DIAG_P_1)
    assert code == 0
    doc = json.loads(out)
    assert (doc["sign"], doc["q_exp"], doc["zero"]) == (-1, -1, False)


def test_eval_non_dominant_is_zero(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["eval", "-"], NON_DOMINANT)
    assert code == 0
    assert json.loads(out)["zero"] is True


def test_eval_eps_twist(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["eval", "-", "--eps-exp", "1"], DIAG_P_1
    )
    assert code == 0
    assert json.loads(out)["eps_exp"] == 1


def test_eval_scale(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["eval", "-", "--scale=-q^2"], IDENTITY_2
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["sign"], doc["q_exp"]) == (-1, 2)


def test_eval_bad_scale(capsys, monkeypatch):
    code, _, err = run(
        capsys, monkeypatch, ["eval", "-", "--scale", "2q"], IDENTITY_2
    )
    assert code == 2
    assert "scale" in err


# Arabic-Indic three and fullwidth three: digits to ``\d`` and ``int``
@pytest.mark.parametrize("scale", ["q^\u0663", "q^\uff13"])
@pytest.mark.parametrize("command", [["eval", "-"], ["table", "--n", "2"]])
def test_scale_takes_only_ascii_digits(capsys, monkeypatch, command, scale):
    code, out, err = run(capsys, monkeypatch, [*command, f"--scale={scale}"], IDENTITY_2)
    assert (code, out) == (2, "")
    assert "bad --scale value" in err


@pytest.mark.parametrize("doc", [SINGULAR, json.dumps({"p": 3, "entries": [["x"] * 1000] * 1000})],
                         ids=["singular", "oversize"])
def test_eval_refuses_a_bad_scale_before_reading_the_matrix(capsys, monkeypatch, doc):
    """A bad --scale exits 2 whatever the document: a singular matrix
    would exit 3 and an oversize one 4, had the matrix been read first."""
    from steinwhit import cli

    def refuse(*args):
        raise AssertionError("read the matrix before the scale")

    code, out, err = run(capsys, monkeypatch, ["eval", "-", "--scale", "bogus"], doc)
    assert (code, out) == (2, "") and "bad --scale value" in err
    monkeypatch.setattr(cli, "_read_matrix", refuse)
    assert run(capsys, monkeypatch, ["eval", "-", "--scale", "bogus"], doc)[:2] == (2, "")


def test_parse_error_exit(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["eval", "-"], "nonsense")
    assert code == 2
    assert err


def test_singular_exit(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["decompose", "-"], SINGULAR)
    assert code == 3
    assert "singular" in err


def test_missing_file_exit(capsys, monkeypatch):
    code, _, _ = run(capsys, monkeypatch, ["eval", "/no/such/file.json"])
    assert code == 2


@pytest.mark.parametrize("command", ["decompose", "eval"])
def test_one_by_one_matrix_exit_2(capsys, monkeypatch, command):
    code, out, err = run(capsys, monkeypatch, [command, "-"], '{"p": 2, "entries": [["4"]]}')
    assert code == 2
    assert out == ""
    assert "at least 2 rows" in err


def test_table_row_counts(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["table", "--n", "2", "--range", "1", "--include-zeros"],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert sum(1 for r in rows if not r["zero"]) == 5

    code, out, _ = run(capsys, monkeypatch, ["table", "--n", "2", "--range", "1"])
    assert code == 0
    assert len(json.loads(out)) == 5


def test_table_csv_format(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["table", "--n", "2", "--range", "1", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kbar,w,zero,sign,eps_exp,q_exp"
    assert len(lines) == 6


def test_table_guard(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["table", "--n", "5", "--range", "1"])
    assert code == 4
    assert "guard" in err
    code, _, _ = run(capsys, monkeypatch, ["table", "--n", "2", "--range", "7"])
    assert code == 4


@pytest.mark.parametrize("argv", [["--n", "2", "--range", "7", "--scale", "bogus"],
                                  ["--n", "9", "--scale", "bogus"],
                                  ["--n", "9", "--range", "-1"]])
def test_table_checks_its_flags_before_its_size_guard(capsys, monkeypatch, argv):
    """A bad --scale or a negative --range exits 2 even where the size guard would refuse."""
    code, out, err = run(capsys, monkeypatch, ["table", *argv])
    assert (code, out) == (2, "")
    assert "guard" not in err


def test_table_agrees_with_eval(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["table", "--n", "2", "--range", "1"])
    rows = json.loads(out)
    row = next(r for r in rows if r["kbar"] == [1, 0] and r["w"] == [1, 2])
    code, out, _ = run(capsys, monkeypatch, ["eval", "-"], DIAG_P_1)
    doc = json.loads(out)
    for key in ("zero", "sign", "eps_exp", "q_exp"):
        assert row[key] == doc[key]


def test_verify_ok_and_deterministic(capsys, monkeypatch):
    argv = [
        "verify",
        "all",
        "--n",
        "2",
        "--p",
        "3",
        "--samples",
        "4",
        "--seed",
        "11",
    ]
    code1, out1, _ = run(capsys, monkeypatch, argv)
    code2, out2, _ = run(capsys, monkeypatch, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)
    assert rows and all(r["passed"] for r in rows)
    suites = [r["suite"] for r in rows]
    assert suites == sorted(suites, key=["hecke", "principal", "whittaker"].index)


def test_verify_rejects_non_prime(capsys, monkeypatch):
    code, _, err = run(
        capsys, monkeypatch, ["verify", "hecke", "--n", "2", "--p", "4"]
    )
    assert code == 2
    assert "prime" in err
    code, _, err = run(
        capsys, monkeypatch, ["verify", "hecke", "--n", "2", "--p", str(PRIME_BOUND)]
    )
    assert code == 2
    assert "must be below" in err


def test_verify_csv(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        monkeypatch,
        ["verify", "hecke", "--n", "2", "--p", "2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,name,passed"
    assert all(line.endswith(",1") for line in lines[1:])


def _cli_process(argv, stdin: str, timeout: float):
    """Run the CLI in a fresh interpreter; a hang fails the test at ``timeout``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "steinwhit.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=timeout,
    )
    return proc, time.perf_counter() - start


@pytest.mark.parametrize(
    "doc",
    [
        b'{"p": 2, "entries": [[' + b"1" * 5000 + b", 0], [0, 1]]}",
        b"[" * 100000,
        b'\xff\xfe{"p": 2, "entries": [["1", "0"], ["0", "1"]]}',
    ],
    ids=["long-integer", "deep-nesting", "not-utf8"],
)
@pytest.mark.parametrize("command", ["decompose", "eval"])
def test_unparsable_documents_exit_2(tmp_path, command, doc):
    path = tmp_path / "matrix.json"
    path.write_bytes(doc)
    proc, _ = _cli_process([command, str(path)], "", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_large_primes_are_decided_fast():
    big_prime = 1000000000000000003
    doc = json.dumps({"p": big_prime, "entries": [["0", "1"], [str(big_prime), "0"]]})
    proc, elapsed = _cli_process(["decompose", "-"], doc, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kbar"] == [0, 1]
    assert elapsed < 10
    above = json.dumps({"p": PRIME_BOUND + 2, "entries": [["1", "0"], ["0", "1"]]})
    proc, elapsed = _cli_process(["eval", "-"], above, timeout=30)
    assert proc.returncode == 2
    assert "must be below" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 10


def test_eval_guard_refuses_large_matrices_fast():
    rng = random.Random(19)
    n = _EVAL_MAX_N + 1
    doc = json.dumps({"p": 3, "entries": [[str(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]})
    proc, elapsed = _cli_process(["eval", "-"], doc, timeout=30)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("eval guard: ") and "Traceback" not in proc.stderr
    assert elapsed < 10


def test_eval_guard_boundary(capsys, monkeypatch):
    # the identity is cheap at any n: one nonzero minor per level
    def identity(n):
        return json.dumps({"p": 2, "entries": [[str(int(i == j)) for j in range(n)] for i in range(n)]})

    code, out, _ = run(capsys, monkeypatch, ["eval", "-"], identity(_EVAL_MAX_N))
    assert code == 0 and json.loads(out)["sign"] == 1
    code, out, err = run(capsys, monkeypatch, ["eval", "-"], identity(_EVAL_MAX_N + 1))
    assert (code, out) == (4, "") and err.startswith("eval guard: ")
    assert run(capsys, monkeypatch, ["decompose", "-"], identity(_EVAL_MAX_N + 1))[0] == 0


def test_decompose_guard_refuses_large_matrices_fast():
    rng = random.Random(19)
    n = _DECOMPOSE_MAX_N + 1
    doc = json.dumps({"p": 3, "entries": [[str(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]})
    proc, elapsed = _cli_process(["decompose", "-"], doc, timeout=30)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("decompose guard: ") and "Traceback" not in proc.stderr
    assert elapsed < 10


@pytest.mark.parametrize("command", ["eval", "decompose"])
def test_size_guards_refuse_before_parsing_any_entry(capsys, monkeypatch, command):
    """A 5 MB identity document with n = 1000 is refused from the length
    of its list of rows: no row is parsed, in process, and a fresh
    process exits 4 quickly.  Past the guard a malformed entry is never
    read, so such a document exits 4, not 2."""
    from steinwhit import cli

    def refuse(p, entries):
        raise AssertionError("parsed the rows of an oversize document")

    n = 1000
    doc = json.dumps({"p": 3, "entries": [["1" if i == j else "0" for j in range(n)] for i in range(n)]})
    limit = _EVAL_MAX_N if command == "eval" else _DECOMPOSE_MAX_N
    message = f"{command} guard: need n <= {limit}, got a matrix with n = {n}\n"
    monkeypatch.setattr(cli, "_matrix_of_entries", refuse)
    assert run(capsys, monkeypatch, [command, "-"], doc) == (4, "", message)
    malformed = json.dumps({"p": 3, "entries": [["x"] * (limit + 1)] * (limit + 1)})
    assert run(capsys, monkeypatch, [command, "-"], malformed) == (4, "", message.replace(str(n), str(limit + 1)))
    monkeypatch.undo()
    proc, elapsed = _cli_process([command, "-"], doc, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", message)
    assert elapsed < 3


def test_decompose_prints_entries_as_fractions_do(capsys, monkeypatch):
    """The witnesses are printed from their stored rows; each entry must
    read as ``str(Fraction)`` of the same entry, zeros and negative
    entries included, on matrices with mixed denominators."""
    from steinwhit.iwahori import iwahori_cell
    from steinwhit.padic import PAdicMatrix, _entry_strings

    rng = random.Random(31)
    seen = set()
    for n, p in [(2, 2), (3, 3), (4, 5), (6, 7)]:
        for _ in range(5):
            rows = [[Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, p, p * p, 12])) for _ in range(n)]
                    for _ in range(n)]
            rows[0][0] = Fraction(0)
            g = PAdicMatrix.from_rows(p, rows)
            assert _entry_strings(g) == [[str(e) for e in row] for row in g.entries]
            try:
                cell = iwahori_cell(g)
            except SingularMatrixError:
                continue
            doc = json.dumps({"p": p, "entries": _entry_strings(g)})
            code, out, _ = run(capsys, monkeypatch, ["decompose", "-"], doc)
            assert code == 0
            printed = json.loads(out)
            for key in ("n_factor", "t0_factor", "j_factor"):
                m = getattr(cell, key)
                assert printed[key] == [[str(e) for e in row] for row in m.entries]
                seen.update(e for row in printed[key] for e in row)
    assert "0" in seen
    assert any(e.startswith("-") and "/" in e for e in seen)
    assert any(not e.startswith("-") and "/" in e for e in seen)


def test_decompose_guard_boundary(capsys, monkeypatch):
    def identity(n):
        return json.dumps({"p": 2, "entries": [[str(int(i == j)) for j in range(n)] for i in range(n)]})

    for args in (["decompose", "-"], ["decompose", "--mod-center", "-"]):
        code, out, _ = run(capsys, monkeypatch, args, identity(_DECOMPOSE_MAX_N))
        assert code == 0 and json.loads(out)["kbar"] == [0] * _DECOMPOSE_MAX_N
        code, out, err = run(capsys, monkeypatch, args, identity(_DECOMPOSE_MAX_N + 1))
        assert (code, out) == (4, "") and err == (
            f"decompose guard: need n <= {_DECOMPOSE_MAX_N}, got a matrix with n = {_DECOMPOSE_MAX_N + 1}\n"
        )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["p", "entries"]) | st.text(max_size=4), inner, max_size=3),
    max_leaves=24,
)


@st.composite
def matrix_documents(draw):
    """Well-formed matrix documents with n = 0..24: integer entries and
    a/b in lowest terms with p-power b, p prime or not."""
    n = draw(st.integers(min_value=0, max_value=24))
    p = draw(st.sampled_from([2, 3, 5, 7, 4, 1000000007]))
    entry = st.integers(-9, 9).map(str) | st.builds(
        lambda a, k: str(Fraction(a, 2**k)), st.integers(-9, 9), st.integers(0, 3)
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return json.dumps({"p": p, "entries": rows})


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(st.sampled_from(["eval", "decompose"]), json_values.map(json.dumps) | matrix_documents())
def test_any_document_ends_in_a_documented_exit_code(command, doc):
    """In process, ``eval`` and ``decompose`` on arbitrary JSON values and
    on well-formed matrices up to n = 24 return 0..4 and raise nothing."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = stdin
    event(f"{command} exit {code}")
    assert code in range(5), (code, err.getvalue())
    assert (code == 0) == bool(out.getvalue())


# Per flag, values a configuration usually takes; any of them may instead
# be an arbitrary integer, +-10^30, or a prime at or above PRIME_BOUND.
CONFIG_FLAGS = {
    "--n": range(2, 7),
    "--p": (2, 3, 5, 7, 31, 37),
    "--eps-exp": range(-2, 4),
    "--range": range(0, 8),
    "--samples": (0, 1, 3),
    "--seed": range(0, 4),
}
wild_ints = st.integers() | st.sampled_from(
    [10**30, -(10**30), 3317044064679887385961813, PRIME_BOUND, PRIME_BOUND + 2, 2316, 6949]
)


# --scale text: usual monomials, exponents at and past the 4,299 digits
# accepted, q^ with any digits and dashes, and any text at all.
LONG_EXPONENTS = ["9" * 4299, "9" * 4300, "9" * 5000, "-" + "9" * 5000, "0" * 4300 + "1"]
scales = (
    st.sampled_from(["1", "-1", "q", "-q", "q^2", "-q^-3", " q^0 ", *(f"q^{e}" for e in LONG_EXPONENTS)])
    | st.builds("{}q^{}".format, st.sampled_from(["", "+", "-"]), st.text("0123456789-", min_size=1))
    | st.text()
)


@st.composite
def configurations(draw):
    """argv for ``table``, ``eval`` of a fixed matrix on standard input,
    or one ``verify`` suite, with every flag set and a random subset of
    the integer flags wild; ``--scale`` takes any text."""
    command = draw(st.sampled_from([["table"], ["table", "--format", "csv"], ["eval", "-"],
                                    *(["verify", s] for s in ("hecke", "principal", "whittaker", "all"))]))
    flags = {"table": ("--n", "--p", "--eps-exp", "--range"), "eval": ("--eps-exp",)}.get(
        command[0], ("--n", "--p", "--eps-exp", "--samples", "--seed"))
    wild = draw(st.sets(st.sampled_from(flags)))
    argv = list(command)
    for flag in flags:
        argv += [flag, str(draw(wild_ints if flag in wild else st.sampled_from(CONFIG_FLAGS[flag])))]
    if command[0] != "verify":
        argv.append(f"--scale={draw(scales)}")
    return argv


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(configurations())
@example(["eval", "-", f"--scale=q^{'9' * 5000}"])
@example(["table", "--n", "3", f"--scale=q^{'9' * 4400}"])
@example(["table", "--n", "3", "--range", "1", f"--scale=q^{'9' * 4300}"])
def test_any_configuration_ends_in_a_documented_exit_code(argv):
    """In process, ``table``, ``eval`` and ``verify`` with any integer
    flags and any ``--scale`` text return 0..4, an argparse error counting
    as its exit code, and raise nothing else."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(DIAG_P_1)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    event(f"{' '.join(argv[:2] if argv[0] == 'verify' else argv[:1])} exit {code}")
    assert code in range(5), (argv, code, err.getvalue())
    assert (code in (0, 1)) == bool(out.getvalue()), (argv, code)


@pytest.mark.parametrize("entry", ["2/4", "0.5"])
def test_entries_not_in_lowest_terms_exit_2(capsys, monkeypatch, entry):
    doc = json.dumps({"p": 2, "entries": [[entry, "0"], ["0", "1"]]})
    for command in ("decompose", "eval"):
        code, out, err = run(capsys, monkeypatch, [command, "-"], doc)
        assert (code, out) == (2, "")
        assert entry in err


def test_verify_rejects_negative_samples(capsys, monkeypatch):
    code, out, err = run(
        capsys, monkeypatch, ["verify", "whittaker", "--n", "2", "--p", "3", "--samples", "-3"]
    )
    assert (code, out) == (2, "")
    assert "--samples" in err


def test_one_parser_serves_a_sequence_of_commands(capsys, monkeypatch):
    verify = ["verify", "all", "--n", "2", "--p", "3", "--samples", "2", "--seed", "5"]
    first = run(capsys, monkeypatch, verify)
    assert first[0] == 0
    assert run(capsys, monkeypatch, ["eval", "-", "--eps-exp", "1"], DIAG_P_1)[0] == 0
    assert run(capsys, monkeypatch, ["decompose", "-", "--mod-center"], ROTATION_2_P3)[0] == 0
    code, out, err = run(capsys, monkeypatch, ["eval", "-"], "{not json")
    assert (code, out) == (2, "") and "invalid JSON" in err
    with pytest.raises(SystemExit):
        main(["verify", "nonsense", "--n", "2", "--p", "3"])
    capsys.readouterr()
    assert run(capsys, monkeypatch, verify) == first
    assert build_parser() is not build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "whittaker", "--n", "2", "--p", "10007", "--samples", "1"],
        ["verify", "principal", "--n", "7", "--p", "2", "--samples", "1"],
        ["verify", "whittaker", "--n", "2", "--p", "2", "--samples", "100000000"],
        ["verify", "hecke", "--n", "60", "--p", "2"],
    ],
)
def test_verify_guard_refuses_costly_configs(argv):
    proc, elapsed = _cli_process(argv, "", timeout=30)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert "verify guard" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 10


def test_verify_guard_boundary(capsys, monkeypatch):
    # at the default 20 samples (5, 61) is the largest prime under the
    # bound at n = 5 and passes, the next prime is over it, and the hecke
    # suite alone is guarded by n only
    code, out, _ = run(capsys, monkeypatch, ["verify", "all", "--n", "5", "--p", "61"])
    assert code == 0 and all(r["passed"] for r in json.loads(out))
    for suite in ("principal", "whittaker", "all"):
        code, out, err = run(capsys, monkeypatch, ["verify", suite, "--n", "5", "--p", "67"])
        assert (code, out) == (4, "") and "verify guard" in err
    assert run(capsys, monkeypatch, ["verify", "hecke", "--n", "7", "--p", "2"])[0] == 0
    code, out, err = run(capsys, monkeypatch, ["verify", "hecke", "--n", str(_HECKE_MAX_N + 1), "--p", "2"])
    assert (code, out) == (4, "") and "verify guard" in err


def test_verify_guard_weighs_samples():
    # every acceptance config at the samples its criteria use, (6, 5) and
    # (5, 31) at the default samples, and the configs the benchmark runs
    allowed = [(n, p, s) for n, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)] for s in (1, 20, 100)]
    allowed += [(6, 5, 20), (5, 31, 20)]
    assert all(_verify_cost(n, p, s) <= _VERIFY_MAX_COST for n, p, s in allowed)
    # more samples and a larger p cost more, at every n
    for n in range(2, 7):
        assert _verify_cost(n, 2, 20) < _verify_cost(n, 2, 21) < _verify_cost(n, 3, 21)


def test_verify_guard_admits_every_config_of_the_model_with_the_n_factorial_loop():
    """The earlier model also charged p F(n) for the Casselman check's loop
    over all n! functions, under the same bound; at every n and every
    prime below 10,000, the most samples it allowed are still allowed."""
    fixed = {2: 2, 3: 11, 4: 84, 5: 900, 6: 8300}
    per_point = {2: 6, 3: 13, 4: 27, 5: 40, 6: 90}
    largest = {}
    for n in range(2, 7):
        for p in filter(is_prime, range(2, 10000)):
            spare = 55_620 - p * fixed[n]
            if spare < (p + 2) * per_point[n]:
                continue
            samples = spare // ((p + 2) * per_point[n]) - 1
            assert _verify_cost(n, p, samples) <= _VERIFY_MAX_COST, (n, p, samples)
            largest[n] = p
    assert largest == {2: 6949, 3: 2311, 4: 499, 5: 59, 6: 5}  # its largest primes, at 0 samples


def test_verify_guard_refuses_many_samples_at_small_p(capsys, monkeypatch):
    args = ["verify", "whittaker", "--n", "2", "--p", "2", "--samples"]
    limit = max(s for s in range(10000) if _verify_cost(2, 2, s) <= _VERIFY_MAX_COST)
    code, out, err = run(capsys, monkeypatch, args + [str(limit + 1)])
    assert (code, out) == (4, "") and "verify guard" in err
    code, out, _ = run(capsys, monkeypatch, args + ["3"])
    assert code == 0 and all(r["passed"] for r in json.loads(out))


def test_verify_failure_lines_carry_the_detail_only_when_there_is_one(capsys, monkeypatch):
    from steinwhit import cli
    from steinwhit.reporting import CheckResult

    monkeypatch.setattr(cli, "verify_functional_equations", lambda *a: [CheckResult("planted", False, "at point 0")])
    monkeypatch.setattr(cli, "parahoric_check", lambda *a: [CheckResult("bare", False)])
    code, out, err = run(capsys, monkeypatch, ["verify", "whittaker", "--n", "2", "--p", "3"])
    assert code == 1
    assert err == "FAIL whittaker:planted at point 0\nFAIL whittaker:bare\n"
    assert [doc["detail"] for doc in json.loads(out)] == ["at point 0", ""]


def _frozen_decompose_documents() -> list[tuple[list[str], str]]:
    """About 200 seeded ``decompose`` inputs at n = 2..8 and p in {2, 3, 5}:
    cell products u . t . diag(p^kbar) . P_w . j from the sampler and
    matrices of small rationals with p-power and other denominators, every
    fourth with --mod-center; then one dense n = 40 matrix of integers in
    [-9, 9] at p = 3."""
    from steinwhit.padic import matrix_to_json
    from steinwhit.sampling import random_cell_product

    rng = random.Random("decompose-frozen")
    docs = []
    for k in range(210):
        n, p = 2 + k % 7, (2, 3, 5)[k // 7 % 3]
        if k % 2:
            doc = matrix_to_json(random_cell_product(rng, n, p)[0])
        else:
            dens = [1, 1, p, p * p, 7, 10]
            entries = [[str(Fraction(rng.randint(-9, 9), rng.choice(dens))) for _ in range(n)] for _ in range(n)]
            doc = json.dumps({"p": p, "entries": entries})
        docs.append((["decompose", "-"] + ["--mod-center"] * (k % 4 == 3), doc))
    dense = [[str(rng.randint(-9, 9)) for _ in range(40)] for _ in range(40)]
    docs.append((["decompose", "-"], json.dumps({"p": 3, "entries": dense})))
    return docs


# SHA-256 of the exit codes and outputs of ``_frozen_decompose_documents``,
# computed before the witness products moved to row combinations.
FROZEN_DECOMPOSE_SHA256 = "068672554040cb6f390d6e937d5f8240972ae6892a02883af2263bbf63682d2b"


def test_decompose_output_is_frozen_on_a_seeded_set(capsys, monkeypatch):
    """The witnesses are unique only up to the pivot choices of ``iwasawa``
    and ``residue_bruhat``; a faster product must print the same bytes."""
    digest = hashlib.sha256()
    for argv, doc in _frozen_decompose_documents():
        code, out, err = run(capsys, monkeypatch, argv, doc)
        digest.update(f"{code}\n{out}{err}\n".encode())
    assert digest.hexdigest() == FROZEN_DECOMPOSE_SHA256


# SHA-256 of the exit codes and outputs of ``verify all --samples 3`` at the
# six acceptance configs, eps 0 and 1, computed before the character tables,
# the unchecked principal-series values and the one-shot sampler product.
FROZEN_VERIFY_SHA256 = "0a5b052d24aad4d38890df6a230f18fa5d219c9d9220de9bd4a378f188583efe"


def test_verify_output_is_frozen_at_the_acceptance_configs(capsys, monkeypatch):
    """Every check name, detail and verdict of ``verify all`` at its seeded
    points: a faster path must print the same bytes, with no point re-seeded."""
    digest = hashlib.sha256()
    for n, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]:
        for eps_exp in (0, 1):
            argv = ["verify", "all", "--n", str(n), "--p", str(p), "--eps-exp", str(eps_exp), "--samples", "3"]
            code, out, err = run(capsys, monkeypatch, argv)
            digest.update(f"{code}\n{out}{err}\n".encode())
    assert digest.hexdigest() == FROZEN_VERIFY_SHA256


def _frozen_edge_commands() -> list[tuple[list[str], str | None]]:
    """The commands whose bytes the library's edges write: ``table`` at
    n = 2..4 and --range 0..2 in both formats, plain and with each of
    --include-zeros, --scale -q^2 and --eps-exp 1; ``verify`` in CSV;
    and ``eval`` (plain and with --scale q^3 --eps-exp 2) and
    ``decompose`` (plain and with --mod-center) on seeded documents and
    on malformed ones, each refused at its first bad entry."""
    from steinwhit.padic import matrix_to_json
    from steinwhit.sampling import random_cell_product

    commands: list[tuple[list[str], str | None]] = []
    for n in (2, 3, 4):
        for bound in (0, 1, 2):
            for fmt in ("json", "csv"):
                base = ["table", "--n", str(n), "--range", str(bound), "--format", fmt]
                for extra in ([], ["--include-zeros"], ["--scale=-q^2"], ["--eps-exp", "1"]):
                    commands.append((base + extra, None))
    for argv in (["hecke", "--n", "3", "--p", "2"], ["all", "--n", "2", "--p", "3", "--samples", "2"]):
        commands.append((["verify", *argv, "--format", "csv"], None))
    rng = random.Random("edge-frozen")
    docs = []
    for k in range(12):
        n, p = 2 + k % 4, (2, 3, 5)[k % 3]
        if k % 2:
            docs.append(matrix_to_json(random_cell_product(rng, n, p)[0]))
        else:
            dens = [1, 1, p, p * p, 7, 10]
            entries = [[str(Fraction(rng.randint(-9, 9), rng.choice(dens))) for _ in range(n)] for _ in range(n)]
            docs.append(json.dumps({"p": p, "entries": entries}))
    bad_entries = ["1/0", "2/4", True, 1.5, "1.5", "0/5", "03/04", "-0", "7" * 5000, None, [1], "x"]
    for entry in bad_entries:
        docs.append(json.dumps({"p": 3, "entries": [["1", entry], ["0", "1"]]}))
    docs += [
        json.dumps({"p": 4, "entries": [["1", "0"], ["0", "1"]]}),
        json.dumps({"p": 3, "entries": [["1", "2"], ["2", "4"]]}),
        json.dumps({"p": 3, "entries": [["1", "0"], ["0"]]}),
        json.dumps({"p": 3, "entries": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]}),
        json.dumps({"p": 3, "entries": [["1.5", "2/4"], ["0", "1"]]}),
        json.dumps({"p": 3, "entries": [[True, "1/0"], ["0", "1"]]}),
        json.dumps({"p": 3, "entries": [["2/4", 1.5], ["0", "1"]]}),
        json.dumps({"p": 3, "entries": [["1", "0", "0"], ["0", "x", "0"], ["0"]]}),
        json.dumps({"p": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "x"]]}),
        json.dumps({"p": True, "entries": [["1", "0"], ["0", "1"]]}),
        json.dumps({"p": 3, "entries": [["1", "0"], "01"]}),
        '{"p": 3, "entries": [["1", "0"], ["0", "1"]',
        "not json at all",
    ]
    for doc in docs:
        for argv in (["eval", "-"], ["eval", "-", "--scale", "q^3", "--eps-exp", "2"],
                     ["decompose", "-"], ["decompose", "-", "--mod-center"]):
            commands.append((argv, doc))
    return commands


# SHA-256 of the argv, stdin, exit codes and outputs of
# ``_frozen_edge_commands``, computed before the entry reader, the repr and
# the table and verify writers went through one routine each.
FROZEN_EDGE_SHA256 = "b0e3e92d49924b996dd5f7488312e0d384c29f62cf13845440bd5e595b392b53"


def test_edge_output_is_frozen_on_a_fixed_corpus(capsys, monkeypatch):
    """Every byte that ``table``, ``verify --format csv``, ``eval`` and
    ``decompose`` print, and every refusal of a malformed document, on a
    fixed corpus: a rewrite of the readers and writers must keep them."""
    digest = hashlib.sha256()
    for argv, stdin in _frozen_edge_commands():
        code, out, err = run(capsys, monkeypatch, argv, stdin)
        digest.update(f"{argv}\n{stdin}\n{code}\n{out}{err}\n".encode())
    assert digest.hexdigest() == FROZEN_EDGE_SHA256
