"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py

Runs of ``run_seconds`` from BENCHMARK.json.  For each workload: two sets
of untraced runs, on seeds 1-10 and then on seeds 11-20, each reported as
median, first and third quartile, and spread ((q3 - q1) / median) per
end-to-end metric, and how much worse the second set's medians are than
the first's, against the bounds.  Then one untraced run on the held-out
seed and three traced/untraced pairs on seed 1, alternating which side
runs first.  The first traced run gives the per-layer numbers and each
layer's share of request time; the pairs give the tracing overhead, the
drop from the untraced to the traced median of ops_per_s.  Takes about
an hour.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
FIRST_SEEDS = range(1, 11)
SECOND_SEEDS = range(11, 21)
HELD_OUT_SEED = 104729
OVERHEAD_PAIRS = 3
WORKLOADS = ("cells", "verify", "hecke")


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def shares(metrics: dict) -> dict:
    """Share of summed request time spent in each layer's own code."""
    value = {name: m["value"] for name, m in metrics.items()}
    request = value["trace.request_ms"]
    return {name[len("layer."):-len(".self_ms")]: value[name] / request
            for name in value if name.startswith("layer.")}


def machine() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT)
        return proc.stdout.strip() or "unknown"

    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
    }


def measure_set(workload: str, seeds: range) -> dict:
    """Untraced runs on ``seeds``: median, quartiles and spread per metric."""
    runs = [run(workload, seed, 0) for seed in seeds]
    entry = {"seeds": [seeds.start, seeds.stop - 1], "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        entry["metrics"][name] = {"unit": first["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
        s = entry["metrics"][name]
        print(f"{workload:7s} {name:16s} median {s['median']:12.4f} {s['unit']:5s} "
              f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.4f}", flush=True)
    entry["attempted"] = [r["attempted"] for r in runs]
    entry["error_ratio"] = [r["failed"] / r["attempted"] for r in runs]
    return entry


def compare(first: dict, second: dict) -> dict:
    """Change of each median from the first set to the second, worse > 0."""
    out = {}
    for name, spec in BOUNDS.items():
        a, b = first["metrics"][name]["median"], second["metrics"][name]["median"]
        worse = (a - b) / a if spec["better"] == "higher" else (b - a) / a
        out[name] = {"worse_by": worse, "bound": spec["bound"], "within": worse <= spec["bound"]}
    return out


def main() -> int:
    report = {"machine": machine(), "seconds": SECONDS, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        entry = measure_set(workload, FIRST_SEEDS)
        second = measure_set(workload, SECOND_SEEDS)
        entry["second_set"] = second
        entry["second_vs_first"] = compare(entry, second)
        print(f"{workload:7s} second set worse by "
              f"{json.dumps({k: round(v['worse_by'], 3) for k, v in entry['second_vs_first'].items()})}", flush=True)
        held = run(workload, HELD_OUT_SEED, 0)
        entry["held_out"] = {name: m["value"] for name, m in held["metrics"].items()}
        ops = {0: [], 1: []}
        traced = None
        for pair in range(OVERHEAD_PAIRS):
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                result = run(workload, 1, trace)
                ops[trace].append(result["metrics"]["trace.ops_per_s" if trace else "ops_per_s"]["value"])
                if trace and traced is None:
                    traced = result
        entry["traced_seed_1"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["layer_shares"] = shares(traced["metrics"])
        entry["overhead_ops_per_s"] = {"untraced": ops[0], "traced": ops[1]}
        entry["tracing_overhead"] = 1 - statistics.median(ops[1]) / statistics.median(ops[0])
        print(f"{workload:7s} shares {json.dumps({k: round(v, 3) for k, v in entry['layer_shares'].items()})} "
              f"tracing overhead {entry['tracing_overhead']:.3f}", flush=True)
        report["workloads"][workload] = entry
        OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
