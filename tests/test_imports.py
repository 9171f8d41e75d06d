"""What a fresh process imports: each check runs in a new interpreter with
``src`` first on its path and reads that interpreter's ``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinwhit
from steinwhit import padic

# the sources this suite imports, so that a fresh process reads the same package
SRC = Path(steinwhit.__file__).resolve().parent.parent
IDENTITY_3 = '{"p": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}'
# modules an ``eval`` process never runs
NOT_FOR_EVAL = ["steinwhit.hecke", "steinwhit.principal_series", "steinwhit.sampling", "steinwhit.affine_weyl",
                "steinwhit.iwahori", "dataclasses", "inspect", "csv"]
# the names that moved out of ``padic``, each with its module now
MOVED = {"cell_label": "steinwhit.minors", "iwahori_cell": "steinwhit.iwahori", "iwasawa": "steinwhit.iwahori",
         "residue_bruhat": "steinwhit.iwahori"}


def _fresh(code: str, stdin: str = "") -> list:
    """Run ``code`` in a new interpreter; the JSON value its last line of
    standard output prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh("import json, sys, steinwhit; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.startswith("steinwhit")] == ["steinwhit"]
    assert "dataclasses" not in loaded


def _fresh_cli(argv: list, stdin: str = "") -> list:
    """``python -m steinwhit.cli *argv``, run as ``-m`` runs it
    (``runpy``) in a new interpreter: its exit code and the modules it
    loaded."""
    return _fresh(
        "import json, runpy, sys\n"
        f"sys.argv = ['steinwhit', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('steinwhit.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n",
        stdin=stdin,
    )


def test_an_eval_process_loads_only_what_eval_runs():
    """``python -m steinwhit.cli eval -`` prints the value and imports none
    of ``NOT_FOR_EVAL``."""
    code, loaded = _fresh_cli(["eval", "-"], stdin=IDENTITY_3)
    assert code == 0
    assert "steinwhit.whittaker" in loaded
    assert [m for m in NOT_FOR_EVAL if m in loaded] == []


@pytest.mark.parametrize("suite", ["principal", "whittaker"])
def test_a_verify_process_never_loads_the_witnesses(suite):
    """The suites read cell labels off the minors pass alone, so a
    ``verify`` process passes without compiling ``iwahori``."""
    code, loaded = _fresh_cli(["verify", suite, "--n", "2", "--p", "3", "--samples", "1"])
    assert code == 0
    assert "steinwhit.minors" in loaded and "steinwhit.iwahori" not in loaded


@pytest.mark.parametrize("suite, loads, never", [
    ("principal", ["steinwhit.principal_series", "steinwhit.sampling"], ["steinwhit.hecke"]),
    ("whittaker", ["steinwhit.principal_series", "steinwhit.sampling"], ["steinwhit.hecke"]),
    ("hecke", ["steinwhit.hecke"], ["steinwhit.principal_series", "steinwhit.sampling"]),
    ("all", ["steinwhit.hecke", "steinwhit.principal_series", "steinwhit.sampling"], []),
])
def test_each_verify_suite_loads_only_its_own_modules(suite, loads, never):
    """The Hecke algebra is imported by the suites that run it alone, and
    the principal series and its sampler likewise."""
    code, loaded = _fresh_cli(["verify", suite, "--n", "2", "--p", "3", "--samples", "1"])
    assert code == 0
    assert [m for m in loads if m not in loaded] == [] and [m for m in never if m in loaded] == []


def test_a_decompose_process_loads_the_witnesses():
    code, loaded = _fresh_cli(["decompose", "-"], stdin=IDENTITY_3)
    assert code == 0
    assert "steinwhit.iwahori" in loaded


def test_moved_names_resolve_from_padic_to_the_objects_of_their_modules():
    """``padic.<name>`` and ``from steinwhit.padic import <name>`` give
    the very object of the name's module, which loads on that first
    access and not before."""
    out = _fresh(
        "import importlib, json, sys\n"
        "from steinwhit import padic\n"
        f"moved = {MOVED!r}\n"
        "before = [m for m in sorted(set(moved.values())) if m in sys.modules]\n"
        "from steinwhit.padic import iwasawa\n"
        "same = [getattr(padic, name) is getattr(importlib.import_module(home), name) is vars(padic)[name]\n"
        "        for name, home in moved.items()]\n"
        "print(json.dumps([before, iwasawa is importlib.import_module('steinwhit.iwahori').iwasawa, same]))\n"
    )
    assert out == [[], True, [True] * len(MOVED)]
    with pytest.raises(AttributeError, match="has no attribute '_minors_pass'"):
        padic._minors_pass


def test_every_public_name_resolves_and_star_binds_them_all():
    names = _fresh(
        "import json, steinwhit\n"
        "from steinwhit import *\n"
        "bound = [n for n in steinwhit.__all__ if globals().get(n) is getattr(steinwhit, n)]\n"
        "print(json.dumps(bound))\n"
    )
    assert names == steinwhit.__all__
    for name in steinwhit.__all__:
        value = getattr(steinwhit, name)
        assert value.__module__.startswith("steinwhit.") and name in dir(steinwhit)
        assert getattr(sys.modules[value.__module__], name) is value


def test_an_unknown_name_raises_attribute_error_and_submodules_still_import():
    out = _fresh(
        "import json, steinwhit\n"
        "try:\n"
        "    steinwhit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "from steinwhit import affine_weyl\n"
        "print(json.dumps([error, affine_weyl.__name__]))\n"
    )
    assert out == ["module 'steinwhit' has no attribute 'no_such_name'", "steinwhit.affine_weyl"]
