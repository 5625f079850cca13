"""Command line interface: argument handling, output, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qbayes import cli
from qbayes.classical import Dist, Space, StochChannel
from qbayes.quantum import QChannel, QState


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_verify_defaults(self):
        cfg = cli.parse_args(["verify", "--suite", "inference"])
        assert cfg.command == "verify"
        assert cfg.suite == "inference"
        assert cfg.trials == 100
        assert cfg.seed == 2024
        assert cfg.dims == (3, 5)
        assert cfg.tol is None
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

    def test_malformed_dims_exits_with_usage_error(self):
        assert (
            cli.main(["verify", "--suite", "inference", "--dims", "3,x"]) == 2
        )

    def test_missing_command_exits_with_usage_error(self):
        assert cli.main([]) == 2


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
        }
        for eq in report["equations"]:
            assert f"{eq['name']:<28} max_dev={eq['max_dev']:.6e}" in text

    @pytest.mark.parametrize("suite", ["quantum-duality", "pair-extract"])
    @pytest.mark.parametrize("dims", ["5,2", "4,1"])
    def test_unusable_dims_are_a_usage_error(self, capsys, suite, dims):
        code, out, err = _run(capsys, "verify", "--suite", suite, "--dims", dims)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("verify: ")

    def test_tiny_tol_fails_and_names_the_equation(self, capsys):
        code, out, _ = _run(
            capsys,
            "verify", "--suite", "classical-bayes",
            "--trials", "5", "--tol", "1e-300",
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

    def test_qstate_file(self, tmp_path, capsys):
        s = QState.maximally_mixed((2,))
        f = tmp_path / "state.json"
        f.write_text(json.dumps(s.to_json()))
        code, out, _ = _run(capsys, "inspect", "--file", str(f))
        assert code == 0
        assert "kind: quantum state" in out

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
