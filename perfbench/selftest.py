"""Self-tests of the benchmark's own safeguards.

Each check raises SelfTestError when a safeguard would let a bad result
through. run.py runs the output-check and size-guard tests on every run
and the binding test on every traced run; `python3 perfbench/selftest.py`
runs all three on their own.
"""

from __future__ import annotations

import copy
import sys
import types

from check import ReferenceMismatch, check_report, load_reference
from workloads import WORKLOADS, peak_array_mb, size_refusal


class SelfTestError(Exception):
    pass


def _good_report(suite: str, ref: dict) -> dict:
    return {
        "suite": suite,
        "seed": 1,
        "trials": 1,
        "equations": [
            {"name": name, "max_dev": tol / 1e4, "tol": tol, "pass": True}
            for name, tol in ref["equations"]
        ],
        "witnesses": [
            {"claim": claim, "deviation": 1.0, "inputs": {}} for claim in ref["witnesses"]
        ],
        "trial_errors": 0,
    }


def _rejected(suite: str, code: int, report: dict, reference: dict) -> bool:
    try:
        return bool(check_report(suite, code, report, reference))
    except ReferenceMismatch:
        return True


def test_output_check(reference: dict) -> None:
    """A FAIL, a dropped equation, an edited tol, lost witnesses, a trial
    that raised: all rejected."""
    for suite, ref in reference.items():
        good = _good_report(suite, ref)
        if check_report(suite, 0, good, reference):
            raise SelfTestError(f"{suite}: a correct report was rejected")
        failed = copy.deepcopy(good)
        failed["equations"][0]["pass"] = False
        dropped = copy.deepcopy(good)
        dropped["equations"].pop()
        loosened = copy.deepcopy(good)
        loosened["equations"][0]["tol"] *= 10
        raised = copy.deepcopy(good)
        raised["trial_errors"] = 1
        cases = {"FAIL equation": (0, failed), "dropped equation": (0, dropped),
                 "edited tol": (0, loosened), "exit code 1": (1, good),
                 "trial that raised": (0, raised)}
        if ref["witnesses"]:
            unwitnessed = copy.deepcopy(good)
            unwitnessed["witnesses"] = []
            cases["missing witnesses"] = (0, unwitnessed)
        for what, (code, report) in cases.items():
            if not _rejected(suite, code, report, reference):
                raise SelfTestError(f"{suite}: a report with a {what} was accepted")


def test_size_guard() -> None:
    """pair-extract at 16,16 (about 68 GB, computed) is refused; workloads are not."""
    huge = peak_array_mb(("pair-extract",), (16, 16))
    if abs(huge * 2**20 / 1e9 - 68.7) > 0.1:
        raise SelfTestError(f"pair-extract 16,16 computes to {huge:.0f} MB, not ~68.7 GB")
    if size_refusal(("pair-extract",), (16, 16), available_mb=8 * 1024) is None:
        raise SelfTestError("pair-extract at 16,16 was not refused")
    for w in WORKLOADS.values():
        if size_refusal(w.suites, w.dims, available_mb=1024) is not None:
            raise SelfTestError(f"{w.name} refused at 1 GB available")


def test_bindings(tracer) -> None:
    """With the tracer installed, no qbayes module holds an unwrapped callable."""
    missed = tracer.unwrapped_bindings()
    if missed:
        raise SelfTestError(f"unwrapped after install: {', '.join(missed)}")
    # the scan itself must notice a binding that was not rewritten
    import numpy

    planted = types.ModuleType("qbayes._selftest_planted")
    planted.einsum = numpy.einsum
    sys.modules[planted.__name__] = planted
    try:
        if "qbayes._selftest_planted.einsum" not in tracer.unwrapped_bindings():
            raise SelfTestError("the binding scan missed a planted np.einsum")
    finally:
        del sys.modules[planted.__name__]


def main() -> int:
    from run import import_qbayes
    from spans import Tracer

    import_qbayes()
    test_output_check(load_reference())
    test_size_guard()
    tracer = Tracer()
    tracer.install()
    try:
        test_bindings(tracer)
    finally:
        tracer.uninstall()
    print("self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
