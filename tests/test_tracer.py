"""The benchmark's per-layer tracer still fits the program.

``perfbench/tracer.py`` wraps functions and methods by name, so renaming a
traced function or rebuilding a class (as ``slots=True`` does) could break
``perfbench/run.py --trace 1`` without any other test noticing.  The
tracer is imported read-only: in a fresh interpreter that writes no
bytecode, so nothing is added under ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib
import sys

import tracer

for prefix, (module_name, attr) in tracer.TRACED.items():
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), prefix

t = tracer.instrument(True, None)
for prefix, (module_name, attr) in tracer.TRACED.items():
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        installed = getattr(module, cls_name).__dict__[method]
    else:
        installed = getattr(module, attr)
    assert hasattr(installed, "__wrapped__"), prefix

from steinwhit import hecke
from steinwhit.values import PhaseSum

hecke.verify_presentation(2)
PhaseSum.monomial(2, 3, 1) + PhaseSum.monomial(2, 3, 1, 1)
assert t.calls["hecke.verify_presentation"] == 1, t.calls
assert t.calls["hecke.mult_generator"] > 0 and t.calls["values.add"] == 1, t.calls
print(len(tracer.TRACED))
"""


def test_every_traced_target_resolves_and_installs():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-B", "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 25
