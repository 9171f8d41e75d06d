"""steinwhit benchmark: one seeded command, three workloads.

    python3 perfbench/run.py --workload {cells,verify,hecke} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer span sums; the last line of standard output is one JSON
object.  Every output is checked against an oracle, and a SHA-256 digest
of each (workload, seed)'s first-pass outputs is compared with earlier
runs in the same checkout.  Any failure makes the exit code 1.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench_state" / "digests.json"
SETUP_REPEATS = 5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Median over fresh interpreters of import plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def _run_in_process(args, workloads, tracer_mod):
    """cells and verify: requests made of parts, grouped by their first element."""
    requests = workloads.SETUPS[args.workload](args.seed)
    tracer = tracer_mod.instrument(bool(args.trace), args.plant_fault)
    do_request = workloads.REQUESTS[args.workload]
    result = workloads.drive(requests, do_request, args.seconds, key=lambda request: request[0])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def _run_hecke(args, env):
    argv = [sys.executable, str(HERE / "child.py"), "hecke", str(args.seed), str(args.seconds),
            str(args.trace), args.plant_fault or "-"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=args.seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"hecke child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _check_digest(workload: str, seed: int, digest: str, clean: bool) -> bool:
    """True unless an earlier clean run of this (workload, seed) hashed differently.

    The key includes a hash of the workload definitions, so editing the
    benchmark starts a fresh record while any change to the program's
    output under the same benchmark is caught.
    """
    definitions = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    key = f"{workload}:{seed}:{definitions}"
    known = json.loads(STATE.read_text()) if STATE.exists() else {}
    if key in known:
        return known[key] == digest
    if clean:
        known[key] = digest
        STATE.parent.mkdir(exist_ok=True)
        tmp = STATE.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(STATE)
    return True


def _layer_metrics(result, tracer_mod) -> dict:
    trace = result["trace"]
    ms = 1e-6
    metrics = {}
    for prefix in tracer_mod.TRACED:
        metrics[f"{prefix}.calls"] = (trace["calls"][prefix], "count")
        metrics[f"{prefix}.total_ms"] = (trace["total_ns"][prefix] * ms, "ms")
        metrics[f"{prefix}.self_ms"] = (trace["self_ns"][prefix] * ms, "ms")
    for layer in tracer_mod.LAYERS:
        own = sum(v for k, v in trace["self_ns"].items() if k.startswith(layer + "."))
        metrics[f"layer.{layer}.self_ms"] = (own * ms, "ms")
    metrics["trace.request_ms"] = (result["latency_sum_s"] * 1e3, "ms")
    metrics["trace.ops_per_s"] = (result["best_ops_per_s"], "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cells", "verify", "hecke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", choices=("eval_sign", "cell_label"),
                        help="self-test only: corrupt one answer so the gate must fail")
    args = parser.parse_args(argv)

    if not (SRC / "steinwhit" / "__init__.py").is_file():
        print(f"error: no steinwhit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = _child_env()
    import tracer as tracer_mod
    import workloads

    if args.workload == "hecke":
        result = _run_hecke(args, env)
    else:
        result = _run_in_process(args, workloads, tracer_mod)

    failed = result["failed"]
    failures = list(result["failures"])
    if not _check_digest(args.workload, args.seed, result["digest"], clean=failed == 0):
        failed += 1
        failures.append("output digest differs from an earlier run of this workload and seed")

    if args.trace:
        metrics = _layer_metrics(result, tracer_mod)
    else:
        metrics = {
            "ops_per_s": (result["best_ops_per_s"], "1/s"),
            "latency_p50_ms": (result["latency_p50_s"] * 1e3, "ms"),
            "latency_p90_ms": (result["latency_p90_s"] * 1e3, "ms"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
            "setup_s": (_setup_seconds(args.workload, args.seed, env), "s"),
        }

    attempted = result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests in {result['elapsed_s']:.1f} s, {result['samples']} latency samples "
          f"(fastest of {result['repeats']}+ repeats each), "
          f"error_ratio {failed / attempted:.6g}, digest {result['digest'][:16]}")
    for problem in failures:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
