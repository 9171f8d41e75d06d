"""The README's examples and its contract table, run as tests.

Every fenced block of the README is read here: the library example runs
as it stands; every ``$ steinwhit ...`` line runs through ``cli.main`` in
process, and its stdout must equal the output shown under it byte for
byte (an output ending in ``...`` is a prefix; ``matrix.json`` is the
JSON block); and every refused call of the contract table must raise
exactly the exception its row names.
"""

import builtins
import io
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import steinwhit
from steinwhit import cli

TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = [(m.group(1), m.group(2)) for m in re.finditer(r"^```(\w*)\n(.*?)^```$", TEXT, re.M | re.S)]
(MATRIX_JSON,) = [body for lang, body in BLOCKS if lang == "json"]
LIBRARY_EXAMPLE, CONTRACT_SETUP = [body for lang, body in BLOCKS if lang == "python"]


def _table(heading: str) -> list[list[str]]:
    """The cells, backticks stripped, of the rows under the header of the
    table in the section ``heading``."""
    section = TEXT.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\|(.*)\|$", section, re.M)[2:]
    return [[c.strip().strip("`") for c in row.split("|")] for row in rows]


CONTRACT = _table("### Contract")
MODULES = _table("## Modules")


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ `` command line of the sh blocks with the lines shown
    under it, up to the next command."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, *output = chunk.rstrip("\n").split("\n")
            examples.append((command, output))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_the_library_example_runs():
    exec(LIBRARY_EXAMPLE, {})


@pytest.mark.parametrize("command, output", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(command, output, tmp_path, monkeypatch, capsys):
    (tmp_path / "matrix.json").write_text(MATRIX_JSON)
    monkeypatch.chdir(tmp_path)
    stdin = ""
    if " | " in command:
        echo, command = command.split(" | ")
        head, *words = shlex.split(echo)
        assert head == "echo"
        stdin = " ".join(words) + "\n"
    program, *argv = shlex.split(command)
    assert program == "steinwhit"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    shown = "\n".join(output)
    if shown.endswith("..."):
        assert out.startswith(shown[:-3])
    else:
        assert out == shown + "\n"


def test_the_module_table_has_one_line_per_module():
    names = [row[0] for row in MODULES]
    modules = {f"steinwhit.{info.name}" for info in pkgutil.iter_modules(steinwhit.__path__)}
    assert sorted(names) == sorted(modules)


def test_the_contract_table_names_exactly_the_public_names():
    namespace = {}
    exec(CONTRACT_SETUP, namespace)
    named = set()
    for entry, _, _, error, _ in CONTRACT:
        eval(entry, namespace)  # every entry point resolves
        named.add(entry.split(".")[0])
        if not hasattr(builtins, error):
            named.add(error)
    assert sorted(named) == sorted(steinwhit.__all__)


def test_every_refused_call_raises_the_exception_of_its_row():
    assert all(len(row) == 5 for row in CONTRACT)
    namespace = {}
    exec(CONTRACT_SETUP, namespace)
    wrong = []
    for *_, error, call in CONTRACT:
        expected = eval(error, namespace)
        try:
            eval(call, namespace)
        except Exception as exc:  # the row states which one
            if type(exc) is not expected:
                wrong.append(f"{call}: {type(exc).__name__}: {exc}; the row says {error}")
        else:
            wrong.append(f"{call}: returned; the row says {error}")
    assert not wrong, "\n".join(wrong)
