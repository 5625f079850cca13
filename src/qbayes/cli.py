"""Command-line front end: worked example, verification suites, witnesses.

Exit codes: 0 on success, 1 when a suite equation or agreement check
fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classical as cl
from .classical import Dist, FuzzyPred, Space, StochChannel
from .errors import DimensionError
from .linalg import IMAG_PRINT_TOL, check_dims, matrix_from_json
from .quantum import Effect, QChannel, QState
from .verify import (
    FIXED_WITNESS_TOL,
    SUITES,
    TrialReport,
    _conditioning_orders,
    fixed_witness,
    run_suite,
)

DEMO_TOL = 5e-4


def smoking_model() -> dict:
    """The lung-cancer network: smoking prior, ashtray and cancer channels.

    Returns the priors, the three-way joint over (ashtray, smoking,
    cancer), and the cancer posterior given ashtray evidence computed two
    ways: by conditioning the joint and marginalizing (crossover), and by
    pulling the evidence back along the ashtray channel before pushing
    forward along the cancer channel.
    """
    bnd = Space(["t", "f"])
    smoking = Dist(bnd, [0.3, 0.7])
    ashtray = StochChannel(bnd, bnd, [[0.95, 0.05], [0.25, 0.75]])
    cancer = StochChannel(bnd, bnd, [[0.4, 0.6], [0.05, 0.95]])
    joint = cl.tuple_channels(
        ashtray, StochChannel.identity(bnd), cancer
    ).push(smoking)
    evidence = FuzzyPred.point(bnd, ("t",))
    widened = evidence.tensor(FuzzyPred.truth(bnd)).tensor(FuzzyPred.truth(bnd))
    via_joint = cl.condition(joint, widened).marginal([0, 0, 1])
    via_channels = cancer.push(cl.condition(smoking, ashtray.pull(evidence)))
    return {
        "smoking": smoking,
        "ashtray_prior": ashtray.push(smoking),
        "cancer_prior": cancer.push(smoking),
        "joint": joint,
        "posterior_crossover": via_joint,
        "posterior_channel": via_channels,
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _dims_list(text: str) -> tuple[int, ...]:
    try:
        return check_dims([int(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbayes",
        description="classical and quantum probabilistic inference toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo-smoking", help="run the worked lung-cancer example"
    )
    demo.add_argument("--json", action="store_true", dest="json_out")

    ver = sub.add_parser("verify", help="run a randomized verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    ver.add_argument("--trials", type=_positive_int, default=100)
    ver.add_argument("--seed", type=int, default=2024)
    ver.add_argument("--dims", type=_dims_list, default=(3, 5))
    ver.add_argument("--json", action="store_true", dest="json_out")

    wit = sub.add_parser(
        "witness", help="print the fixed non-commuting conditioning witness"
    )
    wit.add_argument("--json", action="store_true", dest="json_out")

    ins = sub.add_parser("inspect", help="pretty-print a serialized object")
    ins.add_argument("--file", required=True)
    ins.add_argument("--json", action="store_true", dest="json_out")
    return ap


# Built once per process: parse_args leaves the tree untouched and
# starts every call from a fresh Namespace.
_PARSER = build_parser()


def parse_args(argv) -> argparse.Namespace:
    return _PARSER.parse_args(argv)


def _cmd_demo(cfg: argparse.Namespace) -> int:
    vals = smoking_model()
    dev = float(
        np.max(
            np.abs(
                vals["posterior_crossover"].probs - vals["posterior_channel"].probs
            )
        )
    )
    if cfg.json_out:
        payload = {name: dist.to_json() for name, dist in vals.items()}
        payload["posterior_deviation"] = dev
        print(json.dumps(payload, indent=2))
    else:
        print(f"smoking prior:   {vals['smoking']}")
        print(f"ashtray marginal: {vals['ashtray_prior']}")
        print(f"cancer marginal:  {vals['cancer_prior']}")
        print("joint (ashtray, smoking, cancer):")
        print(f"  {vals['joint']}")
        print("cancer posterior given ashtray evidence")
        print(f"  via joint conditioning: {vals['posterior_crossover']}")
        print(f"  via channel inference:  {vals['posterior_channel']}")
        print(f"agreement: {dev:.3e} (tolerance {DEMO_TOL:g})")
    return 0 if dev <= DEMO_TOL else 1


def format_report(report: TrialReport) -> str:
    lines = [
        f"suite={report.suite} seed={report.seed} trials={report.trials}"
    ]
    for eq in report.equations:
        status = "PASS" if eq.passed else "FAIL"
        lines.append(
            f"  {eq.name:<28} max_dev={eq.max_dev:.6e}  tol={eq.tol:g}  {status}"
        )
    for wit in report.witnesses:
        lines.append(
            f"  witness [{wit['claim']}] deviation={wit['deviation']:.6e}"
        )
    lines.append(f"trial errors: {report.trial_errors}")
    if report.all_pass:
        lines.append("PASS")
    else:
        failing = ", ".join(eq.name for eq in report.equations if not eq.passed)
        lines.append(f"FAIL: {failing}")
    return "\n".join(lines)


def _cmd_verify(cfg: argparse.Namespace) -> int:
    try:
        report = run_suite(cfg.suite, trials=cfg.trials, seed=cfg.seed, dims=cfg.dims)
    except DimensionError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if cfg.json_out:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(format_report(report))
    return 0 if report.all_pass else 1


def _fmt_matrix(mat: np.ndarray) -> str:
    if np.max(np.abs(mat.imag)) < IMAG_PRINT_TOL:
        mat = mat.real
    return np.array2string(mat, precision=4, suppress_small=True)


def _cmd_witness(cfg: argparse.Namespace) -> int:
    sigma, p, q = fixed_witness()
    pq, qp, dist = _conditioning_orders(sigma, p, q)
    if cfg.json_out:
        print(
            json.dumps(
                {
                    "state": sigma.to_json(),
                    "pred_p": p.to_json(),
                    "pred_q": q.to_json(),
                    "cond_p_then_q": pq.to_json(),
                    "cond_q_then_p": qp.to_json(),
                    "frobenius_distance": dist,
                },
                indent=2,
            )
        )
    else:
        print("conditioning order matters: sigma = I/2, p = |0><0|, q = |+><+|")
        print(f"(sigma|_p)|_q =\n{_fmt_matrix(pq.mat)}")
        print(f"(sigma|_q)|_p =\n{_fmt_matrix(qp.mat)}")
        print(f"Frobenius distance: {dist:.12g}")
    # the strict rule of the witnesses suite's *-fixed-witness equations
    return 0 if abs(dist - 1.0) < FIXED_WITNESS_TOL else 1


def _inspect_object(obj: dict) -> tuple[str, dict, str]:
    """Load a serialized object: its kind, its JSON form and its text body."""
    keys = set(obj)
    if {"labels", "probs"} <= keys:
        dist = Dist.from_json(obj)
        return "distribution", dist.to_json(), str(dist)
    if {"dom", "cod", "rows"} <= keys:
        chan = StochChannel.from_json(obj)
        rows = (f"  {','.join(o)} -> {chan.row(o)}" for o in chan.dom.outcomes())
        return "channel", chan.to_json(), "\n".join(rows)
    if {"in_dims", "out_dims", "blocks"} <= keys:
        qc = QChannel.from_json(obj)
        lines = [f"  {qc!r}"]
        for k in range(qc.out_flat):
            for l in range(qc.out_flat):
                lines.append(f"  block [{k},{l}]:")
                lines.append(_indent(_fmt_matrix(qc.blocks[k, l])))
        return "quantum channel", qc.to_json(), "\n".join(lines)
    if {"rows", "cols", "re", "im"} <= keys:
        if "dims" not in keys:
            return "matrix", obj, _indent(_fmt_matrix(matrix_from_json(obj)))
        if obj.get("kind") == Effect.kind:
            kind, value = "effect", Effect.from_json(obj)
        elif "kind" in keys:
            kind, value = "quantum state", QState.from_json(obj)
        else:
            # untagged legacy file: a state if it validates as one
            try:
                kind, value = "quantum state", QState.from_json(obj)
            except ValueError:
                kind, value = "effect", Effect.from_json(obj)
        body = f"  dims: {list(value.dims)}\n" + _indent(_fmt_matrix(value.mat))
        return kind, value.to_json(), body
    if {"suite", "equations"} <= keys:
        report = TrialReport.from_json(obj)
        return "report", report.to_json(), format_report(report)
    raise ValueError("unrecognized object shape")


def _cmd_inspect(cfg: argparse.Namespace) -> int:
    try:
        with open(cfg.file, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError("JSON nested too deeply to decode") from None
        kind, as_json, body = _inspect_object(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"inspect: {exc}", file=sys.stderr)
        return 2
    if cfg.json_out:
        print(json.dumps(as_json, indent=2))
    else:
        print(f"kind: {kind}\n{body}")
    return 0


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    handlers = {
        "demo-smoking": _cmd_demo,
        "verify": _cmd_verify,
        "witness": _cmd_witness,
        "inspect": _cmd_inspect,
    }
    return handlers[cfg.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
