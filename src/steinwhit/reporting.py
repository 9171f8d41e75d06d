"""Shared result records for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckResult"]


@dataclass(frozen=True)
class CheckResult:
    """One named identity check: what was verified and whether it held."""

    name: str
    passed: bool
    detail: str = ""
