"""Output check applied to every `qbayes verify --json` call the benchmark makes.

A round only counts as correct work when the CLI exited 0, no trial
raised, every equation passed, and each suite still checks the same
equations at the same tolerances as `reference.json`. That keeps "faster
by checking less, or by loosening `tol`" from reading as a gain.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class ReferenceMismatch(Exception):
    """A suite's equation names or tolerances differ from the reference.

    This is fatal: the benchmark exits non-zero without a result, because
    the numbers would no longer measure the same verification work.
    """


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(suite: str, exit_code: int, report: dict, reference: dict) -> list[str]:
    """Return the problems found in one call's report (empty when it is good).

    Raises ReferenceMismatch when the checked equations or their `tol`
    values differ from the reference list.
    """
    ref = reference[suite]
    seen = [[eq["name"], eq["tol"]] for eq in report["equations"]]
    if seen != ref["equations"]:
        raise ReferenceMismatch(
            f"{suite}: equations {seen} differ from reference {ref['equations']}"
        )
    problems = []
    if exit_code != 0:
        problems.append(f"{suite}: exit code {exit_code}")
    if report["trial_errors"]:
        problems.append(f"{suite}: {report['trial_errors']} trials raised")
    if report["suite"] != suite:
        problems.append(f"{suite}: report names suite {report['suite']!r}")
    for eq in report["equations"]:
        dev = eq["max_dev"]
        if not eq["pass"] or not (math.isfinite(dev) and dev < eq["tol"]):
            problems.append(f"{suite}: {eq['name']} max_dev={dev!r} does not pass")
    claims = sorted(w["claim"] for w in report["witnesses"])
    if claims != ref["witnesses"]:
        problems.append(f"{suite}: witnesses {claims}, expected {ref['witnesses']}")
    return problems


def headroom_digits(report: dict) -> float:
    """min over non-shortfall equations of log10(tol / max_dev); inf if none."""
    digits = [
        math.log10(eq["tol"] / eq["max_dev"])
        for eq in report["equations"]
        if not eq["name"].endswith("-shortfall") and eq["max_dev"] > 0
    ]
    return min(digits, default=math.inf)
