"""Uniform result records for checks and suites, with a pinned JSON shape.

Every suite produces a flat list of CaseResult records.  Rendering is
deterministic: cases keep their generation order (which is seeded), dict
witnesses are serialized with sorted keys, and no timestamps or machine
state ever enter a report.
"""

from __future__ import annotations

import json

from .frozen import Frozen


class CaseResult(Frozen):
    __slots__ = ("case", "alpha", "instance",
                 "verdict",  # "pass" | "fail"
                 "witness")

    def __init__(self, case: str, alpha: str, instance: str, verdict: str,
                 witness: dict | None = None):
        self._set_fields(case, alpha, instance, verdict, witness)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "alpha": self.alpha,
            "instance": self.instance,
            "verdict": self.verdict,
            "witness": self.witness,
        }


CASE_RESULT_SCHEMA = {
    "type": "object",
    "required": ["case", "alpha", "instance", "verdict", "witness"],
    "additionalProperties": False,
    "properties": {
        "case": {"type": "string"},
        "alpha": {"type": "string"},
        "instance": {"type": "string"},
        "verdict": {"enum": ["pass", "fail"]},
        "witness": {"type": ["object", "null"]},
    },
}

SUITE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "seed", "total", "passed", "failed", "cases"],
    "additionalProperties": False,
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "total": {"type": "integer"},
        "passed": {"type": "integer"},
        "failed": {"type": "integer"},
        "cases": {"type": "array", "items": CASE_RESULT_SCHEMA},
    },
}


class SuiteReport(Frozen):
    __slots__ = ("suite", "seed", "cases")

    def __init__(self, suite: str, seed: int, cases: tuple):
        self._set_fields(suite, seed, cases)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.verdict != "pass")

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "cases": [c.to_json() for c in self.cases],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed})"]
        for c in self.cases:
            mark = "pass" if c.verdict == "pass" else "FAIL"
            line = f"  [{mark}] {c.case}"
            if c.alpha != "-":
                line += f"  alpha={c.alpha}"
            if c.instance != "-":
                line += f"  instance={c.instance}"
            lines.append(line)
            if c.witness is not None:
                lines.append("         witness: "
                             + json.dumps(c.witness, sort_keys=True))
        lines.append(
            f"suite {self.suite}: {self.passed}/{self.total} passed")
        return "\n".join(lines)


def case(name: str, ok: bool, *, alpha: str = "-", instance: str = "-",
         witness: dict | None = None) -> CaseResult:
    """Small constructor keeping verdict strings in one place."""
    return CaseResult(name, alpha, instance,
                      "pass" if ok else "fail",
                      None if ok else witness)
