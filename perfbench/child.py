"""Child processes of the benchmark.

    child.py hecke <seed> <seconds> <trace 0|1> <fault|->
        The whole hecke workload in a fresh interpreter, so the run pays
        for the lazily built length ball; prints one JSON result.
    child.py setup <workload> <seed>
        Import plus input generation, timed from a fresh interpreter;
        prints the seconds taken.

The parent puts ``src`` on PYTHONPATH.
"""

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _instrument(trace: str, fault: str):
    import tracer

    return tracer.instrument(trace == "1", None if fault == "-" else fault)


def hecke(seed: str, seconds: str, trace: str, fault: str) -> int:
    import workloads

    cases = workloads.hecke_setup(int(seed))
    t = _instrument(trace, fault)
    result = workloads.drive(cases, workloads.hecke_request, float(seconds))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if t is not None:
        result["trace"] = t.report()
    print(json.dumps(result))
    return 0


def setup(workload: str, seed: str) -> int:
    import workloads

    workloads.SETUPS[workload](int(seed))
    print((time.perf_counter_ns() - START_NS) / 1e9)
    return 0


if __name__ == "__main__":
    sys.exit({"hecke": hecke, "setup": setup}[sys.argv[1]](*sys.argv[2:]))
