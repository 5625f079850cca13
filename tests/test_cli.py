"""Command line interface: argument handling, output, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qbayes import cli, verify
from qbayes.classical import Dist, Space, StochChannel
from qbayes.errors import DimensionError
from qbayes.linalg import matrix_to_json
from qbayes.quantum import Effect, QChannel, QState


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _declare_tols(monkeypatch, suite, tol, *names):
    """Declare tol for the named equations of suite, or for all of them."""
    spec = verify.SUITES[suite]
    equations = {
        eq: tol if not names or eq in names else old
        for eq, old in spec.equations.items()
    }
    monkeypatch.setitem(
        verify.SUITES, suite, dataclasses.replace(spec, equations=equations)
    )


class TestParsing:
    def test_verify_defaults(self):
        cfg = cli.parse_args(["verify", "--suite", "inference"])
        assert cfg.command == "verify"
        assert cfg.suite == "inference"
        assert cfg.trials == 100
        assert cfg.seed == 2024
        assert cfg.dims == (3, 5)
        assert not cfg.json_out

    def test_dims_parsing(self):
        cfg = cli.parse_args(
            ["verify", "--suite", "quantum-bayes", "--dims", "2,3,4"]
        )
        assert cfg.dims == (2, 3, 4)

    def test_bad_suite_exits_with_usage_error(self):
        assert cli.main(["verify", "--suite", "nope"]) == 2

    def test_zero_trials_exits_with_usage_error(self):
        assert cli.main(["verify", "--suite", "inference", "--trials", "0"]) == 2

    @pytest.mark.parametrize("dims", ["3,x", "0,3", "", "3,,5", "2.5"])
    def test_malformed_dims_exits_with_usage_error(self, capsys, dims):
        code, out, err = _run(capsys, "verify", "--suite", "inference", "--dims", dims)
        assert code == 2
        assert out == ""
        assert "verify: error: argument --dims" in err
        assert "Traceback" not in err

    def test_tol_is_not_an_option(self, capsys):
        # each equation keeps the tolerance its suite declares
        code, out, err = _run(
            capsys, "verify", "--suite", "inference", "--trials", "2", "--tol", "1e-3"
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol 1e-3" in err

    def test_missing_command_exits_with_usage_error(self):
        assert cli.main([]) == 2

    def test_successive_calls_share_no_state(self, monkeypatch, capsys):
        _declare_tols(monkeypatch, "inference", 1e-3)
        code, out, _ = _run(
            capsys, "verify", "--suite", "inference", "--trials", "2",
            "--seed", "7", "--json",
        )
        assert code == 0
        assert {eq["tol"] for eq in json.loads(out)["equations"]} == {1e-3}
        assert json.loads(out)["seed"] == 7
        monkeypatch.undo()
        code, out, _ = _run(capsys, "verify", "--suite", "inference", "--trials", "2")
        assert code == 0
        assert out.startswith("suite=inference seed=2024")
        assert "tol=1e-09" in out and "tol=0.001" not in out
        assert cli.parse_args(["verify", "--suite", "inference"]).seed == 2024


class TestDemo:
    def test_text_output_and_exit_code(self, capsys):
        code, out, _ = _run(capsys, "demo-smoking")
        assert code == 0
        assert out.count("0.267|t> + 0.733|f>") == 2
        assert "0.46|t> + 0.54|f>" in out
        assert "0.155|t> + 0.845|f>" in out
        assert "agreement" in out

    def test_json_output_carries_full_precision(self, capsys):
        code, out, _ = _run(capsys, "demo-smoking", "--json")
        assert code == 0
        payload = json.loads(out)
        post = payload["posterior_crossover"]["probs"]
        assert post[0] == pytest.approx((0.114 + 0.00875) / 0.46, abs=1e-12)
        assert payload["posterior_deviation"] < 1e-12
        joint = payload["joint"]
        assert joint["labels"][0] == ["t", "t", "t"]
        assert joint["probs"][0] == pytest.approx(0.114, abs=1e-12)


class TestVerifyCommand:
    def test_passing_run(self, capsys):
        code, out, _ = _run(
            capsys,
            "verify", "--suite", "classical-bayes",
            "--trials", "10", "--seed", "7",
        )
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "product-rule" in out

    def test_json_and_text_agree(self, capsys):
        args = [
            "verify", "--suite", "quantum-bayes",
            "--trials", "6", "--seed", "7", "--dims", "2,3",
        ]
        code, text, _ = _run(capsys, *args)
        assert code == 0
        code, raw, _ = _run(capsys, *args, "--json")
        assert code == 0
        report = json.loads(raw)
        assert set(report) == {
            "suite", "seed", "trials", "equations", "witnesses", "trial_errors",
            "unexpected_errors",
        }
        for eq in report["equations"]:
            assert f"{eq['name']:<28} max_dev={eq['max_dev']:.6e}" in text

    def test_text_prints_one_line_per_witness(self, capsys):
        args = ["verify", "--suite", "witnesses", "--trials", "3", "--dims", "2"]
        code, text, _ = _run(capsys, *args)
        assert code == 0
        code, raw, _ = _run(capsys, *args, "--json")
        assert code == 0
        witnesses = json.loads(raw)["witnesses"]
        assert witnesses
        lines = [line for line in text.splitlines() if "witness [" in line]
        assert lines == [
            f"  witness [{w['claim']}] deviation={w['deviation']:.6e}"
            for w in witnesses
        ]

    @pytest.mark.parametrize(
        "dims, suite", [("1,4", "witnesses"), ("1,1", "witnesses")]
    )
    def test_unusable_dims_are_a_usage_error(self, capsys, suite, dims):
        code, out, err = _run(capsys, "verify", "--suite", suite, "--dims", dims)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("verify: ")

    @pytest.mark.parametrize(
        "dims, suite",
        [
            (dims, suite)
            for dims in ("5,2", "4,1")
            for suite in ("quantum-duality", "pair-extract")
        ],
    )
    def test_channel_suites_run_below_the_square_bound(self, capsys, suite, dims):
        code, out, err = _run(
            capsys, "verify", "--suite", suite, "--dims", dims, "--trials", "5"
        )
        assert code == 0
        assert out.endswith("PASS\n")
        assert err == ""

    @pytest.mark.parametrize("error", [KeyError, DimensionError])
    def test_an_untolerated_trial_error_fails_with_a_report(
        self, monkeypatch, capsys, error
    ):
        # a DimensionError inside a trial is a fault, not a usage error
        def trial(rng, dims, i):
            yield "forward-inference", 0.0
            raise error("forced")

        spec = dataclasses.replace(verify.SUITES["inference"], trial=trial)
        monkeypatch.setitem(verify.SUITES, "inference", spec)
        code, out, err = _run(capsys, "verify", "--suite", "inference", "--trials", "3")
        assert code == 1 and err == ""
        want = f"unexpected errors: {error.__name__}×3\nFAIL: backward-inference"
        assert want in out

    def test_tiny_tol_fails_and_names_the_equation(self, monkeypatch, capsys):
        _declare_tols(monkeypatch, "classical-bayes", 1e-300)
        code, out, _ = _run(
            capsys, "verify", "--suite", "classical-bayes", "--trials", "5"
        )
        assert code == 1
        assert "FAIL:" in out
        assert "validity-duality" in out.split("FAIL:")[-1]


class TestWitnessCommand:
    def test_exit_zero_and_distance_line(self, capsys):
        code, out, _ = _run(capsys, "witness")
        assert code == 0
        assert "Frobenius distance: 1" in out

    def test_json_form(self, capsys):
        code, out, _ = _run(capsys, "witness", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["frobenius_distance"] == pytest.approx(1.0, abs=1e-10)
        assert "state" in payload and "cond_p_then_q" in payload

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_boundary_rule_is_the_suites_strict_rule(self, monkeypatch, capsys, json_flag):
        # put the distance's gap |d - 1| exactly on the tolerance: the
        # command and the witnesses suite's fixed-witness equation must
        # both fail there, and both pass one ulp above it
        pq, qp, _ = verify._conditioning_orders(*verify.fixed_witness())
        dist = 1.0 + 2 * verify.FIXED_WITNESS_TOL
        edge = abs(dist - 1.0)
        orders = lambda *args: (pq, qp, dist)  # noqa: E731
        monkeypatch.setattr(cli, "_conditioning_orders", orders)
        monkeypatch.setattr(verify, "_conditioning_orders", orders)
        for tol, code in [(edge, 1), (float(np.nextafter(edge, 1.0)), 0)]:
            monkeypatch.setattr(cli, "FIXED_WITNESS_TOL", tol)
            assert _run(capsys, "witness", *json_flag)[0] == code
            _declare_tols(monkeypatch, "witnesses", tol, "noncommute-fixed-witness")
            report = verify.run_suite("witnesses", trials=1, dims=(2,))
            (fixed,) = [e for e in report.equations if e.name == "noncommute-fixed-witness"]
            assert fixed.max_dev == edge
            assert fixed.passed is (code == 0)


class TestInspectCommand:
    def test_dist_file(self, tmp_path, capsys):
        d = Dist(Space(["t", "f"]), [0.3, 0.7])
        f = tmp_path / "dist.json"
        f.write_text(json.dumps(d.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: distribution" in out
        assert "0.3|t> + 0.7|f>" in out

    def test_channel_file(self, tmp_path, capsys):
        c = StochChannel(
            Space(["t", "f"]), Space(["t", "f"]), [[0.95, 0.05], [0.25, 0.75]]
        )
        f = tmp_path / "chan.json"
        f.write_text(json.dumps(c.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: channel" in out

    def test_two_component_domain_channel_file(self, tmp_path, capsys):
        c = StochChannel(
            Space(["a", "b"], ["x", "y"]),
            Space(["t", "f"]),
            [[0.1, 0.9], [0.5, 0.5], [1.0, 0.0], [0.3, 0.7]],
        )
        f = tmp_path / "chan.json"
        f.write_text(json.dumps(c.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert out == (
            "kind: channel\n"
            "  a,x -> 0.1|t> + 0.9|f>\n"
            "  a,y -> 0.5|t> + 0.5|f>\n"
            "  b,x -> 1|t> + 0|f>\n"
            "  b,y -> 0.3|t> + 0.7|f>\n"
        )
        code, out, _ = _run(capsys, "inspect", "--file", str(f), "--json")
        assert code == 0
        assert json.loads(out) == c.to_json()

    def test_bare_matrix_file(self, tmp_path, capsys):
        d = matrix_to_json(np.array([[1.0, 2j], [3.0, 4.5]]))
        f = tmp_path / "matrix.json"
        f.write_text(json.dumps(d))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert out == "kind: matrix\n  [[1. +0.j 0. +2.j]\n   [3. +0.j 4.5+0.j]]\n"
        code, out, _ = _run(capsys, "inspect", "--file", str(f), "--json")
        assert code == 0
        assert json.loads(out) == d

    def test_qstate_file(self, tmp_path, capsys):
        s = QState.maximally_mixed((2,))
        f = tmp_path / "state.json"
        f.write_text(json.dumps(s.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: quantum state" in out

    def test_trace_one_effect_file(self, tmp_path, capsys):
        """A saved effect whose trace is 1 is still reported as an effect."""
        p = Effect([[1, 0], [0, 0]], (2,))
        f = tmp_path / "effect.json"
        f.write_text(json.dumps(p.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: effect" in out

    def test_tagged_state_file(self, tmp_path, capsys):
        s = QState([[1, 0], [0, 0]], (2,))
        f = tmp_path / "state.json"
        f.write_text(json.dumps(s.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: quantum state" in out

    @pytest.mark.parametrize(
        "mat, kind",
        [([[0.5, 0], [0, 0.5]], "quantum state"), ([[0.5, 0], [0, 0]], "effect")],
    )
    def test_untagged_legacy_file(self, tmp_path, capsys, mat, kind):
        d = Effect(mat, (2,)).to_json()
        del d["kind"]
        f = tmp_path / "legacy.json"
        f.write_text(json.dumps(d))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert f"kind: {kind}" in out

    @pytest.mark.parametrize("tag", ["state", "widget"])
    def test_mismatched_tag_is_usage_error(self, tmp_path, capsys, tag):
        d = Effect([[0.5, 0], [0, 0]], (2,)).to_json()
        d["kind"] = tag
        f = tmp_path / "mislabelled.json"
        f.write_text(json.dumps(d))
        code, _, err = _run(capsys, "inspect", "--file", str(f))
        assert code == 2
        assert "inspect:" in err

    def test_qchannel_file(self, tmp_path, capsys):
        c = QChannel.identity((2,))
        f = tmp_path / "qchan.json"
        f.write_text(json.dumps(c.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: quantum channel" in out

    def test_report_file(self, tmp_path, capsys):
        from qbayes.verify import run_suite

        report = run_suite("inference", trials=2, seed=3, dims=(2, 2))
        f = tmp_path / "report.json"
        f.write_text(json.dumps(report.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "suite=inference" in out
        assert out == "kind: report\n" + cli.format_report(report) + "\n"

    def test_json_round_trips_the_object(self, tmp_path, capsys):
        d = Dist(Space(["t", "f"]), [0.3, 0.7])
        f = tmp_path / "dist.json"
        f.write_text(json.dumps(d.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f), "--json")
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["probs"], [0.3, 0.7])

    def test_nan_entry_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "nan.json"
        f.write_text('{"labels": [["a"], ["b"]], "probs": [NaN, 0.5]}')
        code, out, err = _run(capsys, "inspect", "--file", str(f))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("inspect: ")

    @pytest.mark.parametrize("kind", ["state", None])
    def test_non_integral_dims_are_usage_error(self, tmp_path, capsys, kind):
        d = QState.maximally_mixed((2,)).to_json()
        d["dims"] = [2.5]
        if kind is None:
            del d["kind"]
        f = tmp_path / "state.json"
        f.write_text(json.dumps(d))
        code, out, err = _run(capsys, "inspect", "--file", str(f))
        assert code == 2
        assert out == ""
        assert err == "inspect: bad dimension list [2.5]\n"

    def test_overflowed_state_is_usage_error(self, tmp_path, capsys):
        # a "state" with eigenvalue -1.7e308, which overflows when symmetrised
        d = matrix_to_json(np.array([[0.5, 1.7e308], [1.7e308, 0.5]]))
        f = tmp_path / "state.json"
        f.write_text(json.dumps({**d, "dims": [2], "kind": "state"}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = _run(capsys, "inspect", "--file", str(f))
        assert (code, out) == (2, "")
        assert err == "inspect: state has eigenvalue nan\n"

    def test_overflowing_rows_are_usage_error(self, tmp_path, capsys):
        text = json.dumps(QState.maximally_mixed((2,)).to_json())
        f = tmp_path / "state.json"
        f.write_text(text.replace('"rows": 2', '"rows": 1e400'))
        code, out, err = _run(capsys, "inspect", "--file", str(f))
        assert (code, out) == (2, "")
        assert err == "inspect: declared rows/cols must be integers\n"

    def test_deeply_nested_file_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "deep.json"
        f.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = _run(capsys, "inspect", "--file", str(f))
        assert (code, out) == (2, "")
        assert err == "inspect: JSON nested too deeply to decode\n"

    def test_stored_pass_flag_is_not_trusted(self, tmp_path, capsys):
        eq = '{"name": "x", "max_dev": NaN, "tol": 1e-09, "pass": true}'
        f = tmp_path / "report.json"
        f.write_text(
            '{"suite": "fake", "seed": 0, "trials": 1, "equations": [%s]}' % eq
        )
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "max_dev=nan" in out and out.endswith("\nFAIL: x\n")

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "inspect", "--file", "/no/such/file.json")
        assert code == 2
        assert "inspect:" in err

    def test_unrecognized_payload_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text(json.dumps({"widget": 3}))
        code, _, err = _run(capsys, "inspect", "--file", str(f))
        assert code == 2

    def test_invalid_json_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("{not json")
        code, _, err = _run(capsys, "inspect", "--file", str(f))
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbayes", "demo-smoking"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "0.267|t> + 0.733|f>" in proc.stdout

    def test_verify_exit_codes_from_subprocess(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "qbayes",
                "verify", "--suite", "inference",
                "--trials", "5", "--dims", "2,2",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_closed_stdout_is_not_a_traceback(self):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "qbayes",
                    "verify", "--json", "--suite", "inference", "--trials", "5",
                ],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
