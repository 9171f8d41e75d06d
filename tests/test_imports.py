"""What a fresh process imports: each check runs in a new interpreter with
``src`` first on its path and reads that interpreter's ``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import steinwhit

# the sources this suite imports, so that a fresh process reads the same package
SRC = Path(steinwhit.__file__).resolve().parent.parent
IDENTITY_3 = '{"p": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}'
# modules an ``eval`` process never runs
NOT_FOR_EVAL = ["steinwhit.hecke", "steinwhit.principal_series", "steinwhit.sampling", "steinwhit.affine_weyl",
                "dataclasses", "inspect", "csv"]


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


def test_an_eval_process_loads_only_what_eval_runs():
    """``python -m steinwhit.cli eval -``, run as ``-m`` runs it
    (``runpy``), prints the value and imports none of ``NOT_FOR_EVAL``."""
    out = _fresh(
        "import json, runpy, sys\n"
        "sys.argv = ['steinwhit', 'eval', '-']\n"
        "try:\n"
        "    runpy.run_module('steinwhit.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n",
        stdin=IDENTITY_3,
    )
    code, loaded = out
    assert code == 0
    assert "steinwhit.whittaker" in loaded
    assert [m for m in NOT_FOR_EVAL if m in loaded] == []


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
