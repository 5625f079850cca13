"""The randomized harness itself: generators, determinism, reports."""

import json

import numpy as np
import pytest

from qbayes import cli, verify
from qbayes import correspond as co
from qbayes.errors import DimensionError, SingularMarginalError
from qbayes.quantum import Effect


class TestGenerators:
    def test_random_qstate_is_valid_and_reproducible(self):
        a = verify.random_qstate((3,), verify.trial_rng(42, 0))
        b = verify.random_qstate((3,), verify.trial_rng(42, 0))
        assert np.array_equal(a.mat, b.mat)
        assert np.trace(a.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(a.mat).min() > 0

    def test_trial_streams_are_independent(self):
        a = verify.random_qstate((3,), verify.trial_rng(42, 0))
        b = verify.random_qstate((3,), verify.trial_rng(42, 1))
        assert not np.array_equal(a.mat, b.mat)

    def test_random_effect_in_unit_interval(self):
        p = verify.random_effect((4,), verify.trial_rng(7, 0))
        eigs = np.linalg.eigvalsh(p.mat)
        assert eigs.min() >= -1e-12 and eigs.max() <= 1 + 1e-12

    def test_random_qchannel_is_unital(self):
        c = verify.random_qchannel((3,), (4,), verify.trial_rng(7, 1))
        assert c.unital
        np.testing.assert_allclose(
            c.pull(Effect.truth((4,))).mat, np.eye(3), atol=1e-10
        )

    def test_classical_generators(self):
        rng = verify.trial_rng(7, 2)
        sp = verify.labeled_space("x", 5)
        w = verify.random_dist(sp, rng)
        assert w.probs.sum() == pytest.approx(1.0, abs=1e-12)
        p = verify.random_fuzzy_pred(sp, rng)
        assert p.values.min() >= 0 and p.values.max() <= 1
        c = verify.random_stoch_channel(sp, verify.labeled_space("y", 3), rng)
        np.testing.assert_allclose(c.matrix.sum(axis=1), np.ones(5), atol=1e-12)


class TestRunSuite:
    def test_reports_repeat_byte_for_byte(self):
        a = verify.run_suite("classical-bayes", trials=5, seed=11)
        b = verify.run_suite("classical-bayes", trials=5, seed=11)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_seed_changes_the_deviations(self):
        a = verify.run_suite("classical-bayes", trials=5, seed=11)
        b = verify.run_suite("classical-bayes", trials=5, seed=12)
        assert a.to_json() != b.to_json()

    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_every_suite_passes_a_short_run(self, suite):
        report = verify.run_suite(suite, trials=8, seed=2024, dims=(2, 3))
        assert report.all_pass, [e.name for e in report.equations if not e.passed]

    def test_pass_flag_tracks_tolerance(self):
        report = verify.run_suite("quantum-bayes", trials=5, seed=3, dims=(2, 3))
        for eq in report.equations:
            assert eq.passed == (eq.max_dev < eq.tol)

    def test_tol_override_forces_failure(self):
        report = verify.run_suite("classical-bayes", trials=5, seed=3, tol=1e-300)
        assert not report.all_pass
        for eq in report.equations:
            assert eq.tol == 1e-300

    def test_single_dim_is_cycled(self):
        report = verify.run_suite("quantum-bayes", trials=4, seed=3, dims=(2,))
        assert report.all_pass

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("no-such-suite")

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify.run_suite("classical-bayes", trials=0)

    @pytest.mark.parametrize("suite", ["quantum-duality", "pair-extract"])
    @pytest.mark.parametrize("dims", [(5, 2), (2, 1), (4, 1)])
    def test_channel_suites_refuse_unusable_dims(self, suite, dims):
        with pytest.raises(DimensionError, match="needs"):
            verify.run_suite(suite, trials=1, dims=dims)

    def test_channel_suites_accept_the_square_bound(self):
        report = verify.run_suite("quantum-duality", trials=2, dims=(4, 2))
        assert report.all_pass


class TestFailsClosed:
    def test_nan_deviation_fails(self):
        t = verify._Tracker()
        t.declare("x", 1e-9)
        t.see("x", 1e-12)
        t.see("x", float("nan"))
        t.see("x", 1e-12)
        (eq,) = t.report("s", 3, 0, None).equations
        assert np.isnan(eq.max_dev)
        assert not eq.passed

    def test_unobserved_equation_fails(self):
        t = verify._Tracker()
        t.declare("x", 1e-9)
        t.errors = 5
        report = t.report("s", 5, 0, None)
        assert report.equations[0].max_dev == 0.0
        assert not report.all_pass

    def test_every_trial_raising_fails_the_suite(self, monkeypatch, capsys):
        def singular(tau):
            raise SingularMarginalError("forced")

        monkeypatch.setattr(co, "extract", singular)
        report = verify.run_suite("inference", trials=4, seed=1, dims=(2, 2))
        assert report.trial_errors == 4
        assert not any(eq.passed for eq in report.equations)
        code = cli.main(
            ["verify", "--suite", "inference", "--trials", "4", "--dims", "2,2"]
        )
        assert code == 1
        assert "FAIL: forward-inference, backward-inference" in capsys.readouterr().out


class TestWitnessSearch:
    def test_qubit_search_finds_the_unit_gap(self):
        report = verify.run_suite("witnesses", trials=20, seed=5, dims=(2, 2))
        assert report.all_pass
        claims = {w["claim"]: w for w in report.witnesses}
        assert claims["noncommute"]["deviation"] >= 0.99
        assert claims["nonreduce"]["deviation"] >= 0.99
        assert "state" in claims["noncommute"]["inputs"]

    def test_qutrit_search_still_clears_the_threshold(self):
        report = verify.run_suite("witnesses", trials=40, seed=5, dims=(3, 3))
        assert report.all_pass

    def test_semiexp_records_an_eta_witness(self):
        report = verify.run_suite("semiexp", trials=20, seed=6)
        assert report.all_pass
        assert any(w["claim"] == "eta-law-violation" for w in report.witnesses)
        wit = next(w for w in report.witnesses if w["claim"] == "eta-law-violation")
        assert wit["deviation"] > verify.WITNESS_THRESHOLD


class TestReportShape:
    def test_json_keys(self):
        report = verify.run_suite("inference", trials=3, seed=9, dims=(2, 2))
        d = report.to_json()
        assert set(d) == {
            "suite",
            "seed",
            "trials",
            "equations",
            "witnesses",
            "trial_errors",
        }
        for eq in d["equations"]:
            assert set(eq) == {"name", "max_dev", "tol", "pass"}
        assert d["suite"] == "inference" and d["trials"] == 3

    def test_json_round_trip(self):
        report = verify.run_suite("witnesses", trials=3, seed=9, dims=(2, 2))
        again = verify.TrialReport.from_json(json.loads(json.dumps(report.to_json())))
        assert again.to_json() == report.to_json()
        assert again.all_pass
