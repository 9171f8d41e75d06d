"""Self-test of the benchmark: its gate must catch planted faults.

    python3 perfbench/selftest.py

Checks, in about two minutes:
  * a clean run passes and prints exactly the metric names BENCHMARK.json
    declares, untraced and traced;
  * each planted fault (one flipped sign from ``eval_matrix``, one
    permuted label from ``cell_label``) makes the run report
    ``correct: false`` with ``failed > 0`` and exit non-zero, on ``cells``
    and on ``verify``;
  * without the program's sources the command exits non-zero and prints
    no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAULTS = [("cells", "eval_sign"), ("cells", "cell_label"), ("verify", "eval_sign"), ("verify", "cell_label")]


def bench(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = bench(ROOT, "--workload", "cells", "--trace", trace)
        declared = [m["name"] for m in spec[section]]
        if code != 0 or not result or not result["correct"]:
            problems.append(f"clean cells run with --trace {trace} failed (exit {code})")
        elif list(result["metrics"]) != declared:
            problems.append(f"--trace {trace} metric names differ from BENCHMARK.json {section}")

    for workload, fault in FAULTS:
        code, result = bench(ROOT, "--workload", workload, "--trace", "0", "--plant-fault", fault)
        caught = code != 0 and result is not None and not result["correct"] and result["failed"] > 0
        print(f"{workload:7s} {fault:10s} exit {code} failed {result and result['failed']} "
              f"of {result and result['attempted']}: {'caught' if caught else 'MISSED'}")
        if not caught:
            problems.append(f"planted fault {fault} on {workload} was not caught")

    bare = ROOT / ".perfbench_state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench(bare, "--workload", "cells", "--trace", "0")
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append("without sources the command did not fail cleanly")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
