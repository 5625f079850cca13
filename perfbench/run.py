"""qbayes benchmark: closed-loop `qbayes verify` rounds, checked and timed.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; qbayes is imported from its
`src/`. One process acts as one client in a closed loop: it calls
`qbayes.cli.main(["verify", ..., "--json"])` in-process and starts each
call only after the previous one returned. Every call's report is checked
(see check.py). BLAS runs at its default thread count.

Times are reported at a reference machine speed. The 2-core shared VM the
benchmark was defined on drifts between fast and slow states over
minutes (the median round of 30 s runs moved by 26% across runs). So
right after every round, with no idle gap, calibrate() times a fixed mix
of bytecode and small numpy calls, and the round is scaled by CAL_REF_S
over the mean of the calibrations on either side of it. The mix avoids
BLAS and LAPACK: it reads within 2% after BLAS-heavy and after
pure-Python work, so the program can barely move the scale through the
kind of work it does. Raw wall times are printed in the details line.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload's fixed trace rounds once untraced and once traced and prints
the per-layer metrics, each per round. The last line of standard output is
the result object; the lines before it record the machine and run details.
Exit codes: 0 with a result, 2 when qbayes cannot be imported from this
checkout, 3 when a suite's equation names or tolerances changed, 4 when
the size guard or the BLAS thread check refuses the configuration, 5 when
a self-test of the benchmark fails.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from check import ReferenceMismatch, check_report, headroom_digits, load_reference  # noqa: E402
from workloads import WORKLOADS, peak_array_mb, round_calls, size_refusal  # noqa: E402

SETUP_PROBES = 9
# headroom_digits averages this share of the rounds: those with the least headroom.
HEADROOM_WORST_SHARE = 0.1
CAL_LOOP = 150_000
CAL_NUMPY_CALLS = 150
# Seconds calibrate() takes on the reference machine.
CAL_REF_S = 0.015
# A slowed-down program still ends well inside the 180 s a run may take;
# headroom_digits then covers the rounds that finished.
MAX_TIMED_S = 120.0


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_qbayes():
    """Import qbayes from this checkout's src/, never from an installed copy."""
    try:
        import qbayes.cli
    except ImportError as exc:
        fail(f"cannot import qbayes from {ROOT / 'src'}: {exc}", 2)
    where = Path(qbayes.cli.__file__).resolve().parent
    if where != ROOT / "src" / "qbayes":
        fail(f"qbayes was imported from {where}, not from this checkout", 2)
    return qbayes.cli


def calibrate() -> float:
    """Seconds a fixed mix of bytecode and small numpy calls takes now.

    The mix resembles the interpreter-bound part of the workloads, so it
    slows down and speeds up with the machine state the rounds see. It
    calls no BLAS or LAPACK routine: with eigvalsh in the mix it read 5%
    slower after BLAS-heavy work than after pure-Python work.
    """
    import numpy

    m = numpy.arange(16.0).reshape(4, 4)
    m = m + m.T
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i
    for _ in range(CAL_NUMPY_CALLS):
        k = numpy.kron(m, m)
        numpy.max(numpy.abs(numpy.einsum("ij,jk->ik", k, k.conj().T)))
    return time.perf_counter() - t0


class SpeedScale:
    """Scales a round to reference speed by the calibrations on either side.

    Averaging the loop times before and after a round halves the noise a
    single 15 ms loop adds to each round. Create it right after busy work.
    """

    def __init__(self):
        self.last = calibrate()

    def to_reference(self, seconds: float) -> float:
        now = calibrate()
        scale = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return seconds * scale


@dataclass
class Round:
    seconds: float  # wall time of the calls
    ref_seconds: float  # the same at reference machine speed
    trials: int
    trial_errors: int
    problems: list[str]
    headroom: float


def run_round(cli, calls, trials_per_call: int, reference: dict,
              speed: SpeedScale | None = None) -> Round:
    """Run one round's calls back to back, then check every report.

    `cli.main` is looked up on every call so that traced runs reach the
    wrapper installed on the module. Without `speed` the round is not
    scaled, and no calibration runs after it.
    """
    seconds = 0.0
    outputs = []
    for suite, argv in calls:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crash fails the round; the run goes on
            seconds += time.perf_counter() - t0
            outputs.append((suite, None, traceback.format_exc()))
            continue
        seconds += time.perf_counter() - t0
        outputs.append((suite, code, buf.getvalue()))
    problems, trial_errors, headroom = [], 0, math.inf
    for suite, code, out in outputs:
        if code is None:
            problems.append(f"{suite}: raised\n{out}")
            continue
        try:
            report = json.loads(out)
        except ValueError:
            problems.append(f"{suite}: output is not a JSON report")
            continue
        problems += check_report(suite, code, report, reference)
        trial_errors += report["trial_errors"]
        headroom = min(headroom, headroom_digits(report))
    ref_seconds = speed.to_reference(seconds) if speed else seconds
    return Round(seconds, ref_seconds, trials_per_call * len(calls), trial_errors, problems, headroom)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its rank."""
    ordered = sorted(values)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    page = os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": round(os.sysconf("SC_PHYS_PAGES") * page / 2**20),
        "available_mb": round(os.sysconf("SC_AVPHYS_PAGES") * page / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
    }


def refuse_configuration(w, machine: dict) -> None:
    note = size_refusal(w.suites, w.dims, machine["available_mb"])
    if note:
        fail(note, 4)
    threads = machine["blas_threads"]
    if threads is not None and threads > machine["nproc"]:
        fail(f"BLAS runs {threads} threads on {machine['nproc']} cores", 4)


def checked(rounds: list[Round]) -> list[Round]:
    """Print every problem found; return the rounds that had any."""
    bad = [r for r in rounds if r.problems]
    for r in bad:
        for problem in r.problems:
            print(f"perfbench: output check: {problem}", file=sys.stderr)
    return bad


def setup_probe(w, seed: int) -> None:
    """Child of measure_setup: get ready to time and say so, then calibrate.

    The calibrations run after "ready" is printed, so they stay outside
    the measured span.
    """
    cli = import_qbayes()
    reference = load_reference()
    run_round(cli, round_calls(w, seed, 0), w.trials, reference)
    print("ready", flush=True)
    print(f"calibration {statistics.median(calibrate() for _ in range(3))!r}", flush=True)


def measure_setup(w, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start to ready, once per fresh process.

    Returns these times and each probe's calibration, timed right after it
    was ready.
    """
    times, cals = [], []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
                "--seed", str(seed), "--setup-probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=120)
        word, _, cal = rest.partition(" ")
        if ready != "ready\n" or word != "calibration" or proc.returncode != 0:
            fail(f"setup probe exited {proc.returncode} before it was ready", proc.returncode or 1)
        times.append(elapsed)
        cals.append(float(cal))
    return times, cals


def end_to_end(w, seed: int, seconds: float, cli, reference: dict) -> tuple[dict, dict]:
    setup_times, setup_cals = measure_setup(w, seed)
    speed = SpeedScale()
    run_round(cli, round_calls(w, seed, 0), w.trials, reference, speed)  # warm-up
    rounds: list[Round] = []
    timed = 0.0
    while (timed < seconds or len(rounds) < w.min_rounds) and timed < MAX_TIMED_S:
        calls = round_calls(w, seed, len(rounds) + 1)
        rounds.append(run_round(cli, calls, w.trials, reference, speed))
        timed += rounds[-1].seconds
    bad = checked(rounds)
    attempted = sum(r.trials for r in rounds)
    trial_errors = sum(r.trial_errors for r in rounds)
    error_share = (trial_errors + len(bad)) / attempted
    times = [r.ref_seconds for r in rounds]
    raw = [r.seconds for r in rounds]
    tail_s, tail_pct = tail(times)
    # a round whose calls all crashed has no finite headroom
    headroom = sorted(r.headroom for r in rounds[: w.min_rounds] if math.isfinite(r.headroom))
    # the worst tenth of the rounds: the badly conditioned draws, where an
    # unstable rewrite loses digits first
    worst = headroom[: max(round(len(headroom) * HEADROOM_WORST_SHARE), 1)]
    metrics = {
        # One probe's calibration in a fresh process is noisy, so setup is
        # scaled by the median over all probes.
        "setup_s": (statistics.median(setup_times) * CAL_REF_S / statistics.median(setup_cals), "s"),
        "trials_per_s": (attempted / sum(times), "1/s"),
        "round_p50_s": (statistics.median(times), "s"),
        "round_tail_s": (tail_s, "s"),
        "headroom_digits": (statistics.fmean(worst) if headroom else 0.0, "digits"),
        "ok_share": (1.0 - error_share, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "rounds": len(rounds),
        "trials_per_round": w.trials_per_round,
        "round_tail_percentile": round(tail_pct, 1),
        "round_tail_samples_above": min(10, len(rounds) - 1),
        "headroom_rounds": len(headroom),
        "headroom_min_digits": headroom[0] if headroom else 0.0,
        "headroom_mean_digits": statistics.fmean(headroom) if headroom else 0.0,
        "raw_setup_samples_s": setup_times,
        "setup_calibrations_s": setup_cals,
        "raw_trials_per_s": attempted / timed,
        "raw_round_p50_s": statistics.median(raw),
        "raw_round_tail_s": tail(raw)[0],
        "machine_speed": statistics.median(t / r for t, r in zip(times, raw)),
        "error_share": error_share,
        "trial_errors": trial_errors,
        "failed_rounds": len(bad),
    }
    result = {"correct": not bad, "attempted": attempted,
              "failed": trial_errors + len(bad), "metrics": metrics}
    return result, details


def per_layer(w, seed: int, cli, reference: dict, names: list[tuple[str, str]]) -> tuple[dict, dict]:
    from selftest import test_bindings
    from spans import Tracer

    rounds = [round_calls(w, seed, r) for r in range(1, w.trace_rounds + 1)]
    speed = SpeedScale()
    run_round(cli, round_calls(w, seed, 0), w.trials, reference, speed)  # warm-up
    plain = [run_round(cli, calls, w.trials, reference, speed) for calls in rounds]
    tracer = Tracer()
    tracer.install()
    try:
        test_bindings(tracer)
        traced = [run_round(cli, calls, w.trials, reference, speed) for calls in rounds]
    finally:
        tracer.uninstall()
    bad = checked(plain + traced)
    plain_s = sum(r.ref_seconds for r in plain)
    traced_s = sum(r.ref_seconds for r in traced)
    extra = {
        "trace.overhead_share": traced_s / plain_s - 1.0,
        "verify.trial_errors": sum(r.trial_errors for r in traced),
    }
    metrics = {}
    for name, unit in names:
        value = extra[name] if name in extra else tracer.value(name)
        if unit.endswith("/round"):
            value /= w.trace_rounds
        metrics[name] = (value, unit)
    attempted = sum(r.trials for r in plain + traced)
    trial_errors = sum(r.trial_errors for r in plain + traced)
    result = {"correct": not bad, "attempted": attempted,
              "failed": trial_errors + len(bad), "metrics": metrics}
    details = {"trace_rounds": w.trace_rounds, "untraced_s": plain_s, "traced_s": traced_s}
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            setup_probe(w, args.seed)
            return 0
        return run(w, args)
    except ReferenceMismatch as exc:
        fail(f"the checked equations changed, results are not comparable: {exc}", 3)


def run(w, args) -> int:
    from selftest import SelfTestError, test_output_check, test_size_guard

    cli = import_qbayes()
    reference = load_reference()
    try:
        test_output_check(reference)
        test_size_guard()
    except SelfTestError as exc:
        fail(f"self-test failed: {exc}", 5)
    machine = machine_info()
    refuse_configuration(w, machine)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        try:
            result, details = per_layer(w, args.seed, cli, reference, names)
        except SelfTestError as exc:
            fail(f"self-test failed: {exc}", 5)
    else:
        result, details = end_to_end(w, args.seed, args.seconds, cli, reference)
        mismatch = {m["name"] for m in spec["end_to_end"]} ^ set(result["metrics"])
        if mismatch:
            fail(f"end-to-end metrics differ from BENCHMARK.json: {sorted(mismatch)}", 5)
    print(json.dumps({"machine": machine, "workload": w.name, "seed": args.seed,
                      "computed_peak_array_mb": peak_array_mb(w.suites, w.dims)}))
    print(json.dumps({"details": details}))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
