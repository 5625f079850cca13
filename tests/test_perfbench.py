"""The benchmark's per-layer contract: every traced metric resolves.

perfbench/run.py --trace 1 reads each `per_layer` metric of BENCHMARK.json
from its tracer; a traced callable that was renamed or removed would only
show up there, as a crash. This runs the same tracer over one trial of
every suite, importing perfbench/ as it stands.
"""

import json
import sys
from pathlib import Path

from qbayes import cli, verify

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# run.py computes these from its rounds, not from the tracer
COMPUTED_BY_RUN = {"trace.overhead_share", "verify.trial_errors"}


def test_every_per_layer_metric_resolves(monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import selftest
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            selftest.test_bindings(tracer)
            for suite in sorted(verify.SUITES):
                argv = ["verify", "--suite", suite, "--trials", "1"]
                assert cli.main(argv + ["--dims", "3,5", "--json"]) == 0, suite
        finally:
            tracer.uninstall()
    finally:
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]
    capsys.readouterr()
    unresolved = []
    for metric in spec["per_layer"]:
        if metric["name"] in COMPUTED_BY_RUN:
            continue
        try:
            tracer.value(metric["name"])
        except KeyError:
            unresolved.append(metric["name"])
    assert unresolved == []
