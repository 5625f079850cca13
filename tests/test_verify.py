"""The randomized harness itself: generators, determinism, reports."""

import json
from pathlib import Path

import numpy as np
import pytest

from qbayes import cli, verify
from qbayes import correspond as co
from qbayes.errors import DimensionError, SingularMarginalError, ZeroValidityError
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

    @pytest.mark.parametrize("rows, cols", [(3, 3), (5, 5), (16, 16), (256, 256), (75, 5)])
    def test_ginibre_is_one_split_draw_bit_for_bit(self, rows, cols):
        # drawn in pieces, the stream is that of one (2, rows, cols) draw:
        # real parts first, then imaginary parts, and the next draw after
        rng, ref = verify.trial_rng(3, 0), verify.trial_rng(3, 0)
        got = verify._ginibre(rows, cols, rng)
        parts = ref.standard_normal((2, rows, cols))
        want = np.empty((rows, cols), dtype=complex)
        want.real = parts[0] * (1 / np.sqrt(2))
        want.imag = parts[1] * (1 / np.sqrt(2))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.uniform() == ref.uniform()

    def test_classical_generators(self):
        rng = verify.trial_rng(7, 2)
        sp = verify.labeled_space("x", 5)
        w = verify.random_dist(sp, rng)
        assert w.probs.sum() == pytest.approx(1.0, abs=1e-12)
        p = verify.random_fuzzy_pred(sp, rng)
        assert p.values.min() >= 0 and p.values.max() <= 1
        c = verify.random_stoch_channel(sp, verify.labeled_space("y", 3), rng)
        np.testing.assert_allclose(c.matrix.sum(axis=1), np.ones(5), atol=1e-12)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# perfbench's round_seed(104, 3770): round 3770 of pair-extract-mid run
# with seed 104, a round that faster code reaches within a timed run
KNOWN_FAIL_SEED = 8239220397667315362


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 2: extract-of-pair reads 1.82e-9 against tol 1e-9; the "
        "prior has condition number 5.1e7, inside INV_CUTOFF"
    ),
)
def test_pair_extract_known_fail_seed():
    report = verify.run_suite("pair-extract", trials=3, seed=KNOWN_FAIL_SEED, dims=(5, 5))
    assert report.all_pass, [e.name for e in report.equations if not e.passed]


class TestRunSuite:
    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_reports_repeat_byte_for_byte(self, suite):
        a = verify.run_suite(suite, trials=3, seed=11, dims=(2, 2))
        b = verify.run_suite(suite, trials=3, seed=11, dims=(2, 2))
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

    def test_single_dim_is_cycled(self):
        report = verify.run_suite("quantum-bayes", trials=4, seed=3, dims=(2,))
        assert report.all_pass

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("no-such-suite")

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify.run_suite("classical-bayes", trials=0)

    @pytest.mark.parametrize(
        "suite, dims",
        [
            (suite, dims)
            for suite in ("quantum-duality", "pair-extract")
            for dims in ((5, 2), (2, 1), (4, 1))
        ],
    )
    def test_channel_suites_pass_below_the_square_bound(self, suite, dims):
        # m * m < n: random_qchannel stacks more than m Kraus operators
        report = verify.run_suite(suite, trials=3, dims=dims)
        assert report.all_pass
        assert report.trial_errors == 0

    @pytest.mark.parametrize(
        "suite, dims",
        # in dimension 1 all effects commute, so no witness can exist
        [("witnesses", (1, 4)), ("witnesses", (1, 1))],
    )
    def test_suites_refuse_unusable_dims(self, suite, dims):
        with pytest.raises(DimensionError, match="needs"):
            verify.run_suite(suite, trials=1, dims=dims)

    def test_non_integral_dims_are_refused(self):
        with pytest.raises(DimensionError, match="bad dimension list"):
            verify.run_suite("quantum-bayes", trials=1, dims=(2.9,))

    @pytest.mark.parametrize(
        "arg, value", [("trials", 2.9), ("trials", "3"), ("seed", 3.7), ("seed", "5")]
    )
    def test_non_integral_trials_and_seed_are_refused(self, arg, value):
        # read as dims' entries are: refused, not truncated or parsed
        kwargs = {"trials": 2, "seed": 3, arg: value}
        with pytest.raises(ValueError, match=f"{arg} must be an integer"):
            verify.run_suite("quantum-bayes", dims=(2,), **kwargs)

    def test_numpy_integer_trials_and_seed_are_integers(self):
        report = verify.run_suite(
            "quantum-bayes", trials=np.int64(2), seed=np.uint8(3), dims=(2,)
        )
        plain = verify.run_suite("quantum-bayes", trials=2, seed=3, dims=(2,))
        assert json.dumps(report.to_json()) == json.dumps(plain.to_json())

    def test_channel_suites_accept_the_square_bound(self):
        report = verify.run_suite("quantum-duality", trials=2, dims=(4, 2))
        assert report.all_pass

    def test_suites_match_the_benchmark_reference(self):
        # perfbench exits without a result when a suite's equations or tols drift
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        assert sorted(reference) == sorted(verify.SUITES)
        for suite, expected in reference.items():
            report = verify.run_suite(suite, trials=2, dims=(3, 5))
            equations = [[eq.name, eq.tol] for eq in report.equations]
            assert equations == expected["equations"], suite
            claims = sorted(w["claim"] for w in report.witnesses)
            assert claims == expected["witnesses"], suite


def _fake_suite(monkeypatch, trial, tolerated=(), searches=None):
    suite = verify._Suite({"x": 1e-9}, tolerated, trial, searches or {})
    monkeypatch.setitem(verify.SUITES, "fake", suite)


class TestFailsClosed:
    def test_nan_deviation_fails(self, monkeypatch):
        def trial(rng, dims, i):
            yield "x", [1e-12, float("nan"), 1e-12][i]

        _fake_suite(monkeypatch, trial)
        (eq,) = verify.run_suite("fake", trials=3, seed=0).equations
        assert np.isnan(eq.max_dev)
        assert not eq.passed

    def test_nan_search_candidate_fails(self, monkeypatch):
        # a later finite candidate must not replace the NaN
        def trial(rng, dims, i):
            yield "claim", [float("nan"), 0.5][i], {}

        _fake_suite(monkeypatch, trial, searches={"claim": "x"})
        (eq,) = verify.run_suite("fake", trials=2, seed=0).equations
        assert np.isnan(eq.max_dev)
        assert not eq.passed

    def test_unobserved_equation_fails(self, monkeypatch):
        def trial(rng, dims, i):
            raise SingularMarginalError("forced")
            yield  # a generator that raises before its first equation

        _fake_suite(monkeypatch, trial, (SingularMarginalError,))
        report = verify.run_suite("fake", trials=5, seed=0)
        assert report.trial_errors == 5
        assert report.equations[0].max_dev == 0.0
        assert not report.all_pass

    def test_an_untolerated_error_fails_the_report(self, monkeypatch):
        def trial(rng, dims, i):
            yield "x", 1e-12
            raise KeyError("not a tolerated refusal")

        _fake_suite(monkeypatch, trial, (SingularMarginalError,))
        report = verify.run_suite("fake", trials=2, seed=0)
        assert report.equations[0].passed
        assert report.trial_errors == 0
        assert report.unexpected_errors == {"KeyError": 2}
        assert not report.all_pass

    def test_equations_before_a_raise_still_count(self, monkeypatch):
        def zero_validity(tau, q):
            raise ZeroValidityError("forced")

        monkeypatch.setattr(co, "crossover_first", zero_validity)
        report = verify.run_suite("inference", trials=4, seed=1, dims=(2, 2))
        forward, backward = report.equations
        assert forward.name == "forward-inference"
        assert forward.passed and forward.max_dev > 0
        assert backward.name == "backward-inference"
        assert not backward.passed and backward.max_dev == 0.0
        assert report.trial_errors == 4

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


class _Tag:
    def __init__(self, name):
        self.name = name

    def to_json(self):
        return self.name


class TestOneReduction:
    def test_search_with_no_positive_candidate_lists_no_witness(self, monkeypatch):
        def trial(rng, dims, i):
            yield "claim", 0.0, {"k": _Tag(i)}

        _fake_suite(monkeypatch, trial, searches={"claim": "x"})
        report = verify.run_suite("fake", trials=3, seed=0)
        (eq,) = report.equations
        assert eq.max_dev == verify.WITNESS_THRESHOLD
        assert not eq.passed
        assert report.witnesses == []

    def test_first_of_equal_best_candidates_is_kept(self, monkeypatch):
        def trial(rng, dims, i):
            yield "claim", 0.5, {"k": _Tag(f"first-{i}")}
            yield "claim", 0.5, {"k": _Tag(f"second-{i}")}

        _fake_suite(monkeypatch, trial, searches={"claim": "x"})
        report = verify.run_suite("fake", trials=2, seed=0)
        assert report.witnesses == [
            {"claim": "claim", "deviation": 0.5, "inputs": {"k": "first-0"}}
        ]
        assert report.all_pass

    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_search_claims_and_equations_have_distinct_names(self, suite):
        # _drive keeps both in one worst-value map
        spec = verify.SUITES[suite]
        assert set(spec.searches).isdisjoint(spec.equations)


class TestStoredPassFlag:
    @pytest.mark.parametrize("max_dev", [float("nan"), 1e-3])
    def test_a_failing_deviation_overrides_the_flag(self, max_dev):
        eq = {"name": "x", "max_dev": max_dev, "tol": 1e-9, "pass": True}
        stored = {"suite": "fake", "seed": 0, "trials": 1, "equations": [eq]}
        report = verify.TrialReport.from_json(stored)
        assert not report.equations[0].passed
        assert not report.all_pass

    def test_stored_unexpected_errors_fail(self):
        eq = {"name": "x", "max_dev": 0.0, "tol": 1e-9, "pass": True}
        stored = {"suite": "fake", "seed": 0, "trials": 1, "equations": [eq]}
        assert verify.TrialReport.from_json(stored).all_pass
        stored["unexpected_errors"] = {"KeyError": 1}
        assert not verify.TrialReport.from_json(stored).all_pass

    def test_a_false_flag_stays_false(self):
        eq = {"name": "x", "max_dev": 0.0, "tol": 1e-9, "pass": False}
        stored = {"suite": "fake", "seed": 0, "trials": 1, "equations": [eq]}
        assert not verify.TrialReport.from_json(stored).all_pass


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
            "unexpected_errors",
        }
        assert d["unexpected_errors"] == {}
        for eq in d["equations"]:
            assert set(eq) == {"name", "max_dev", "tol", "pass"}
        assert d["suite"] == "inference" and d["trials"] == 3

    def test_json_round_trip(self):
        report = verify.run_suite("witnesses", trials=3, seed=9, dims=(2, 2))
        again = verify.TrialReport.from_json(json.loads(json.dumps(report.to_json())))
        assert again.to_json() == report.to_json()
        assert again.all_pass
