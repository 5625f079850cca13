"""Classical layer: spaces, distributions, predicates, channels, inference.

The lung-cancer numbers used throughout: smoking prior 0.3/0.7, ashtray
table (0.95, 0.25), cancer table (0.4, 0.05).
"""

import numpy as np
import pytest

from qbayes import classical as cl
from qbayes.classical import Dist, FuzzyPred, Space, StochChannel
from qbayes.errors import DimensionError, SupportError, ZeroValidityError

BND = Space(["t", "f"])
SMOKING = Dist(BND, [0.3, 0.7])
ASHTRAY = StochChannel(BND, BND, [[0.95, 0.05], [0.25, 0.75]])
CANCER = StochChannel(BND, BND, [[0.4, 0.6], [0.05, 0.95]])


class TestSpace:
    def test_product_enumeration_is_row_major(self):
        sp = Space(["a", "b"], ["x", "y", "z"])
        assert sp.outcomes()[:3] == [("a", "x"), ("a", "y"), ("a", "z")]
        assert sp.index(("b", "z")) == 5
        assert (sp.shape, sp.size) == ((2, 3), 6)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(DimensionError, match="duplicate labels"):
            Space(["a", "a"])
        with pytest.raises(DimensionError, match="cannot be empty"):
            Space([])
        with pytest.raises(DimensionError, match="at least one component"):
            Space()

    @pytest.mark.parametrize(
        "outcome, match",
        [(("a",), "has wrong arity"), (("a", "w"), "unknown label 'w'")],
    )
    def test_index_refuses_foreign_outcomes(self, outcome, match):
        with pytest.raises(DimensionError, match=match):
            Space(["a", "b"], ["x", "y"]).index(outcome)

    def test_keep_mask(self):
        sp = Space(["a", "b"], ["x", "y"], ["0", "1"])
        assert sp.keep([0, 1, 0]) == Space(["x", "y"])
        with pytest.raises(DimensionError):
            sp.keep([0, 0, 0])


class TestConstructorWindows:
    def test_dist_clips_rounding_noise(self):
        d = Dist(BND, [1.0 + 5e-13, -5e-13])
        assert d.probs[1] == 0.0

    def test_dist_rejects_genuine_negatives_and_bad_sums(self):
        with pytest.raises(ValueError):
            Dist(BND, [1.1, -0.1])
        with pytest.raises(ValueError):
            Dist(BND, [0.6, 0.6])

    def test_pred_window(self):
        FuzzyPred(BND, [0.0, 1.0 + 5e-13])
        with pytest.raises(ValueError):
            FuzzyPred(BND, [0.5, 1.01])

    def test_channel_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            StochChannel(BND, BND, [[0.5, 0.4], [0.5, 0.5]])

    def test_values_are_frozen(self):
        with pytest.raises(ValueError):
            SMOKING.probs[0] = 0.5

    # NaN compares false against every bound, so only a finiteness check
    # keeps it out
    def test_dist_rejects_nan(self):
        with pytest.raises(ValueError, match="^probabilities must be finite$"):
            Dist(BND, [np.nan, 0.5])

    def test_pred_rejects_nan(self):
        with pytest.raises(ValueError, match="^predicate values must be finite$"):
            FuzzyPred(BND, [np.nan, 0.5])

    def test_channel_rejects_nan(self):
        with pytest.raises(ValueError, match="^channel rows must be finite$"):
            StochChannel(BND, BND, [[np.nan, 1.0], [0.0, 1.0]])


class TestValidity:
    def test_smoking_ashtray_evidence(self):
        """0.3 * 0.95 + 0.7 * 0.25 = 0.46"""
        p = ASHTRAY.pull(FuzzyPred.point(BND, ("t",)))
        assert cl.validity(SMOKING, p) == pytest.approx(0.46, abs=1e-12)

    def test_truth_has_validity_one(self):
        assert cl.validity(SMOKING, FuzzyPred.truth(BND)) == pytest.approx(1.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        sp = Space([f"x{i}" for i in range(6)])
        w = Dist(sp, np.full(6, 1 / 6))
        p = FuzzyPred(sp, rng.uniform(size=6))
        oracle = sum(w.probs[i] * p.values[i] for i in range(6))
        assert cl.validity(w, p) == pytest.approx(oracle, abs=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(DimensionError):
            cl.validity(SMOKING, FuzzyPred.truth(Space(["a", "b", "c"])))


class TestConditioning:
    def test_smoking_given_ashtray(self):
        """(0.285, 0.175) / 0.46"""
        p = ASHTRAY.pull(FuzzyPred.point(BND, ("t",)))
        got = cl.condition(SMOKING, p)
        np.testing.assert_allclose(
            got.probs, [0.285 / 0.46, 0.175 / 0.46], atol=1e-12
        )

    def test_truth_is_neutral(self):
        got = cl.condition(SMOKING, FuzzyPred.truth(BND))
        np.testing.assert_allclose(got.probs, SMOKING.probs, atol=1e-15)

    def test_zero_validity_rejected(self):
        zero = FuzzyPred(BND, [0.0, 0.0])
        with pytest.raises(ZeroValidityError):
            cl.condition(SMOKING, zero)


class TestTransforms:
    def test_cancer_prior(self):
        got = CANCER.push(SMOKING)
        np.testing.assert_allclose(got.probs, [0.155, 0.845], atol=1e-12)

    def test_ashtray_prior(self):
        got = ASHTRAY.push(SMOKING)
        np.testing.assert_allclose(got.probs, [0.46, 0.54], atol=1e-12)

    def test_identity_channel(self):
        ident = StochChannel.identity(BND)
        np.testing.assert_allclose(ident.push(SMOKING).probs, SMOKING.probs)
        p = FuzzyPred(BND, [0.2, 0.9])
        np.testing.assert_allclose(ident.pull(p).values, p.values)

    def test_composition_agrees_both_ways(self):
        comp = ASHTRAY.then(CANCER)
        np.testing.assert_allclose(
            comp.push(SMOKING).probs,
            CANCER.push(ASHTRAY.push(SMOKING)).probs,
            atol=1e-15,
        )
        q = FuzzyPred(BND, [0.3, 0.8])
        np.testing.assert_allclose(
            comp.pull(q).values, ASHTRAY.pull(CANCER.pull(q)).values, atol=1e-15
        )

    def test_identity_is_neutral_for_composition(self):
        comp = StochChannel.identity(BND).then(CANCER)
        np.testing.assert_allclose(comp.matrix, CANCER.matrix)


class TestPairMarginalExtract:
    def test_pair_smoking_cancer_table(self):
        got = cl.pair(SMOKING, CANCER)
        np.testing.assert_allclose(got.probs, [0.12, 0.18, 0.035, 0.665], atol=1e-12)

    def test_pair_with_constant_channel_is_product(self):
        rho = Dist(BND, [0.9, 0.1])
        got = cl.pair(SMOKING, StochChannel.constant(BND, rho))
        np.testing.assert_allclose(got.probs, SMOKING.tensor(rho).probs, atol=1e-15)

    def test_marginals_recover_components(self):
        joint = cl.pair(SMOKING, CANCER)
        np.testing.assert_allclose(joint.marginal([1, 0]).probs, SMOKING.probs, atol=1e-15)
        np.testing.assert_allclose(
            joint.marginal([0, 1]).probs, CANCER.push(SMOKING).probs, atol=1e-15
        )

    def test_extract_recovers_cancer_table(self):
        joint = cl.pair(SMOKING, CANCER)
        got = cl.extract(joint)
        np.testing.assert_allclose(got.matrix, CANCER.matrix, atol=1e-12)

    def test_extract_round_trip(self):
        rng = np.random.default_rng(19)
        sp = Space(["a", "b", "c"], ["u", "v"])
        u = rng.uniform(size=6)
        tau = Dist(sp, u / u.sum())
        back = cl.pair(tau.marginal([1, 0]), cl.extract(tau))
        np.testing.assert_allclose(back.probs, tau.probs, atol=1e-12)

    def test_extraction_is_unique(self):
        """Any stochastic solution of pair(M1, d) = tau matches extract."""
        rng = np.random.default_rng(20)
        sp = Space(["a", "b", "c"], ["u", "v"])
        u = rng.uniform(size=6)
        tau = Dist(sp, u / u.sum())
        table = tau.probs.reshape(3, 2)
        m1 = table.sum(axis=1)
        solved = np.array([table[i] / m1[i] for i in range(3)])
        np.testing.assert_allclose(cl.extract(tau).matrix, solved, atol=1e-15)

    def test_extract_names_missing_support(self):
        tau = Dist(Space(["a", "b"], ["u", "v"]), [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(SupportError, match="'b'"):
            cl.extract(tau)

    def test_extract_needs_two_components(self):
        with pytest.raises(DimensionError):
            cl.extract(SMOKING)


class TestSmokingNetwork:
    def test_three_channel_joint_matches_product_oracle(self):
        joint = cl.tuple_channels(
            ASHTRAY, StochChannel.identity(BND), CANCER
        ).push(SMOKING)
        # independent triple loop over (ashtray, smoking, cancer)
        want = {}
        for si, s in enumerate(["t", "f"]):
            for ai, a in enumerate(["t", "f"]):
                for ci, c in enumerate(["t", "f"]):
                    want[(a, s, c)] = (
                        SMOKING.probs[si]
                        * ASHTRAY.matrix[si, ai]
                        * CANCER.matrix[si, ci]
                    )
        for outcome, value in want.items():
            assert joint.mass(outcome) == pytest.approx(value, abs=1e-12)

    def test_joint_matches_published_listing(self):
        joint = cl.tuple_channels(
            ASHTRAY, StochChannel.identity(BND), CANCER
        ).push(SMOKING)
        listed = {
            ("t", "t", "t"): 0.114,
            ("t", "t", "f"): 0.171,
            ("t", "f", "t"): 0.00875,
            ("t", "f", "f"): 0.166,
            ("f", "t", "t"): 0.006,
            ("f", "t", "f"): 0.009,
            ("f", "f", "t"): 0.0263,
            ("f", "f", "f"): 0.499,
        }
        for outcome, value in listed.items():
            assert joint.mass(outcome) == pytest.approx(value, abs=5e-4)

    def test_posterior_both_routes(self):
        joint = cl.tuple_channels(
            ASHTRAY, StochChannel.identity(BND), CANCER
        ).push(SMOKING)
        evidence = FuzzyPred.point(BND, ("t",))
        widened = evidence.tensor(FuzzyPred.truth(BND)).tensor(FuzzyPred.truth(BND))
        crossover = cl.condition(joint, widened).marginal([0, 0, 1])
        channel = CANCER.push(cl.condition(SMOKING, ASHTRAY.pull(evidence)))
        expected = (0.114 + 0.00875) / 0.46
        np.testing.assert_allclose(
            crossover.probs, [expected, 1 - expected], atol=1e-12
        )
        np.testing.assert_allclose(crossover.probs, channel.probs, atol=1e-12)
        assert crossover.probs[0] == pytest.approx(0.267, abs=5e-4)


class TestHelpers:
    def test_copier_duplicates(self):
        copy2 = cl.copier(BND, 2)
        got = copy2.push(SMOKING)
        assert got.mass(("t", "t")) == pytest.approx(0.3)
        assert got.mass(("t", "f")) == 0.0

    def test_mixture(self):
        a = Dist(BND, [1.0, 0.0])
        b = Dist(BND, [0.0, 1.0])
        got = cl.mixture([0.25, 0.75], [a, b])
        np.testing.assert_allclose(got.probs, [0.25, 0.75])

    def test_uniform_and_point(self):
        np.testing.assert_allclose(Dist.uniform(BND).probs, [0.5, 0.5])
        assert Dist.point(BND, ("f",)).probs[1] == 1.0

    def test_ket_formatting(self):
        assert str(SMOKING) == "0.3|t> + 0.7|f>"

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: cl.mixture([1.0], [SMOKING, SMOKING]), "one weight per"),
            (lambda: cl.mixture([], []), "one weight per"),
            (lambda: cl.copier(BND, 0), "copier needs n >= 1"),
            (lambda: cl.tuple_channels(), "at least one channel"),
        ],
        ids=["mixture-count", "mixture-empty", "copier", "tuple_channels"],
    )
    def test_combinators_refuse_degenerate_input(self, call, match):
        with pytest.raises(DimensionError, match=match):
            call()


class TestJsonForms:
    def test_dist_round_trip(self):
        joint = cl.pair(SMOKING, CANCER)
        d = joint.to_json()
        assert d["labels"][0] == ["t", "t"]
        back = Dist.from_json(d)
        assert back.space == joint.space
        np.testing.assert_allclose(back.probs, joint.probs)

    def test_channel_round_trip(self):
        d = CANCER.to_json()
        assert d["dom"] == ["t", "f"]
        back = StochChannel.from_json(d)
        assert back.dom == BND and back.cod == BND
        np.testing.assert_allclose(back.matrix, CANCER.matrix)

    def test_two_component_domain_round_trip(self):
        dom = Space(["a", "b"], ["x", "y"])
        c = StochChannel(dom, BND, [[0.1, 0.9], [0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])
        d = c.to_json()
        assert d["dom"] == [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
        back = StochChannel.from_json(d)
        assert back.dom == dom and back.cod == BND
        np.testing.assert_array_equal(back.matrix, c.matrix)

    def test_from_json_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dist.from_json({"labels": [["t"], ["f"]], "probs": [np.nan, 0.5]})
        d = CANCER.to_json()
        d["rows"][1][0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            StochChannel.from_json(d)

    def test_from_json_rejects_non_product_listing(self):
        with pytest.raises(DimensionError, match="row-major product"):
            Dist.from_json(
                {"labels": [["t", "t"], ["f", "f"]], "probs": [0.5, 0.5]}
            )
        with pytest.raises(DimensionError, match="no outcomes"):
            Dist.from_json({"labels": [], "probs": []})
        with pytest.raises(DimensionError, match="ragged outcome list"):
            Dist.from_json({"labels": [["t", "t"], ["f"]], "probs": [0.5, 0.5]})
