"""Shared result records for the verification suites, and their one-line
failure report."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckResult", "failure_line"]


@dataclass(frozen=True)
class CheckResult:
    """One named identity check: what was verified and whether it held."""

    name: str
    passed: bool
    detail: str = ""


def failure_line(suite: str, result: CheckResult) -> str:
    """``FAIL suite:name``, followed by the detail when there is one.

    >>> failure_line("whittaker", CheckResult("rotation-eigenvalue", False, "point 0"))
    'FAIL whittaker:rotation-eigenvalue point 0'
    >>> failure_line("principal", CheckResult("casselman-triangularity", False))
    'FAIL principal:casselman-triangularity'
    """
    detail = f" {result.detail}" if result.detail else ""
    return f"FAIL {suite}:{result.name}{detail}"
