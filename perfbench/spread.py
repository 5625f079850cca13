"""Run-to-run spread of every end-to-end metric, next to its bound.

    python3 perfbench/spread.py --runs 10 --first-seed 101 --out perfbench/results/set-a.json
    python3 perfbench/spread.py --runs 10 --first-seed 201 --against perfbench/results/set-a.json

Runs `run.py --trace 0` once per seed on every workload (seeds
first-seed, first-seed + 1, ...; workloads interleaved within a seed),
one run at a time. For each metric it prints the median and quartiles
across runs, the spread (q3 - q1) / median and the bound from
BENCHMARK.json. A spread wider than the bound fails the set. A spread
should stay below a third of its bound; where it does not, a later "no
change" verdict on that metric is unresolved. With --against, each median is
also compared with the one in an earlier results file and flagged when it
is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next(json.loads(line) for line in lines if line.startswith('{"machine"'))
    return result, machine


def worse_share(new: float, old: float, better: str) -> float:
    return (new - old) / old if better == "lower" else (old - new) / old


def summarize(values: list[float], spec: dict) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--against", help="an earlier summary to compare medians with")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {name: [] for name in metrics} for w in workloads}
    machine = None
    for seed in seeds:
        for w in workloads:
            result, machine = run_once(w, seed, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: output check failed")
            for name in metrics:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: done", file=sys.stderr)
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    summary = {"machine": machine, "run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    ok = True
    for w in workloads:
        summary["workloads"][w] = {}
        for name, m in metrics.items():
            s = summarize(values[w][name], m)
            verdict = "ok" if s["spread"] <= m["bound"] / 3 else (
                "within bound" if s["spread"] <= m["bound"] else "WIDER THAN BOUND")
            if s["spread"] > m["bound"]:
                ok = False
            line = (f"{w:17} {name:16} median {s['median']:.6g} {m['unit']:6} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.2%} "
                    f"bound {m['bound']:.0%}: {verdict}")
            if earlier:
                old = earlier["workloads"][w][name]["median"]
                drift = worse_share(s["median"], old, m["better"])
                s["worse_than_against"] = drift
                line += f"; vs earlier median {old:.6g}: worse by {drift:.2%}"
                if drift > m["bound"]:
                    ok = False
                    line += " BEYOND BOUND"
            summary["workloads"][w][name] = s
            print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
