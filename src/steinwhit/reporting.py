"""Shared result records for the verification suites, and their one-line
failure report."""

from __future__ import annotations

from .weyl import _FrozenValue

__all__ = ["CheckResult", "failure_line"]


class CheckResult(_FrozenValue):
    """One named identity check: what was verified and whether it held; a
    frozen record (``weyl._FrozenValue``), its fields not checked."""

    __slots__ = _fields = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        _set_name(self, name)
        _set_passed(self, passed)
        _set_detail(self, detail)


# the slots' own setters, so that the constructor bypasses the frozen
# ``__setattr__``
_set_name, _set_passed, _set_detail = (getattr(CheckResult, name).__set__ for name in CheckResult._fields)


def failure_line(suite: str, result: CheckResult) -> str:
    """``FAIL suite:name``, followed by the detail when there is one.

    >>> failure_line("whittaker", CheckResult("rotation-eigenvalue", False, "point 0"))
    'FAIL whittaker:rotation-eigenvalue point 0'
    >>> failure_line("principal", CheckResult("casselman-triangularity", False))
    'FAIL principal:casselman-triangularity'
    """
    detail = f" {result.detail}" if result.detail else ""
    return f"FAIL {suite}:{result.name}{detail}"
