"""Quantum layer: states, effects, Heisenberg channels, conditioning.

Mirrors the classical tests where the structures line up, plus the
genuinely quantum parts: the two conditioning rules, non-commuting
evidence, and the diagonal embedding of the classical layer.
"""

import re

import numpy as np
import pytest

from qbayes import classical as cl
from qbayes import quantum as qu
from qbayes import verify
from qbayes.classical import Dist, FuzzyPred, Space, StochChannel
from qbayes.errors import (
    DimensionError,
    NotPositiveError,
    ZeroValidityError,
)
from qbayes.linalg import CP_TOL, EIG_CLIP, HERMITIAN_TOL, NORM_TOL, psd_sqrt
from qbayes.quantum import Effect, QChannel, QState
from qbayes.verify import random_effect, random_qchannel, random_qstate

KET0 = Effect([[1, 0], [0, 0]], (2,))
PLUS = Effect([[0.5, 0.5], [0.5, 0.5]], (2,))
MIXED2 = QState.maximally_mixed((2,))


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveError):
            QState([[0.5, 0.5], [0.0, 0.5]], (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveError):
            QState([[1.1, 0], [0, -0.1]], (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            QState([[0.5, 0], [0, 0.4]], (2,))

    def test_accepts_rounding_noise(self):
        QState([[1.0 + 5e-11, 0], [0, -5e-11]], (2,))

    def test_dims_must_factor_the_size(self):
        with pytest.raises(DimensionError):
            QState(np.eye(4) / 4, (3,))

    @pytest.mark.parametrize("dims", [(2.5,), (2.0,), ("2",)])
    def test_non_integral_dims_are_refused_not_truncated(self, dims):
        with pytest.raises(DimensionError, match=r"^bad dimension list \("):
            QState(np.eye(2) / 2, dims)

    def test_matrix_frozen(self):
        with pytest.raises(ValueError):
            MIXED2.mat[0, 0] = 9.0


class TestEffectValidation:
    def test_rejects_above_identity(self):
        with pytest.raises(NotPositiveError):
            Effect([[1.2, 0], [0, 0.5]], (2,))

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            Effect([[-0.2, 0], [0, 0.5]], (2,))

    def test_truth(self):
        np.testing.assert_allclose(Effect.truth((3,)).mat, np.eye(3))


class TestChannelValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            QChannel(np.zeros((2, 2, 2)), (2,), (2,))

    def test_rejects_hermiticity_pattern_violation(self):
        blocks = QChannel.identity((2,)).blocks.copy()
        blocks[0, 1] += 0.5
        with pytest.raises(NotPositiveError):
            QChannel(blocks, (2,), (2,))

    def test_rejects_transpose_map_as_non_cp(self):
        """blocks[k, l] = |l><k| is positive but not completely positive."""
        blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
        for k in range(2):
            for l in range(2):
                blocks[k, l, l, k] = 1.0
        with pytest.raises(NotPositiveError):
            QChannel(blocks, (2,), (2,))

    def test_rejects_diagonal_sum_above_identity(self):
        blocks = np.zeros((1, 1, 2, 2), dtype=np.complex128)
        blocks[0, 0] = np.eye(2) * 1.5
        with pytest.raises(NotPositiveError):
            QChannel(blocks, (2,), (1,))

    def test_rejects_nonfinite_blocks(self):
        blocks = QChannel.identity((2,)).blocks.copy()
        blocks[1, 1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            QChannel(blocks, (2,), (2,))

    def test_subunital_detected(self):
        half = QChannel.from_kraus([np.eye(2) / np.sqrt(2)], (2,), (2,))
        assert not half.unital
        assert QChannel.identity((2,)).unital


# Distances past a range bound, as multiples of its slack: the first two
# stay inside, the last two leave it.
BOUNDARY_FACTORS = [0.9, 0.99, 1.01, 1.1]


def _with_spectrum(eigs, basis):
    """Hermitian matrix with the given eigenvalues, diagonal or rotated."""
    d = np.diag(np.asarray(eigs, dtype=np.complex128))
    if basis == "diagonal":
        return d
    q, _ = np.linalg.qr(verify._ginibre(*d.shape, np.random.default_rng(len(eigs))))
    return q @ d @ q.conj().T


def _outcome(make, message):
    """None when make() is accepted, else the NotPositiveError text."""
    if message is None:
        make()
        return None
    with pytest.raises(NotPositiveError, match=f"^{re.escape(message)}$"):
        make()
    return message


@pytest.mark.parametrize("factor", BOUNDARY_FACTORS)
@pytest.mark.parametrize("basis", ["diagonal", "rotated"])
@pytest.mark.parametrize("n", [2, 6])
class TestRangeBoundaries:
    """Accept or reject, and the message, right around each slack."""

    def test_state_lower_bound(self, n, basis, factor):
        low = -factor * EIG_CLIP
        mat = _with_spectrum([low] + [(1 - low) / (n - 1)] * (n - 1), basis)
        message = f"state has eigenvalue {low:.3e}" if factor > 1 else None
        _outcome(lambda: QState(mat, (n,)), message)
        if message is None:
            np.testing.assert_array_equal(QState(mat, (n,)).mat, mat)

    def test_effect_lower_bound(self, n, basis, factor):
        low = -factor * EIG_CLIP
        rest = np.linspace(0.1, 0.5, n - 1)
        mat = _with_spectrum([low, *rest], basis)
        message = (
            f"effect eigenvalues [{low:.3e}, {rest.max():.3e}] leave [0, 1]"
            if factor > 1
            else None
        )
        _outcome(lambda: Effect(mat, (n,)), message)

    def test_effect_upper_bound(self, n, basis, factor):
        high = 1 + factor * EIG_CLIP
        rest = np.linspace(0.1, 0.5, n - 1)
        mat = _with_spectrum([high, *rest], basis)
        message = (
            f"effect eigenvalues [{rest.min():.3e}, {high:.3e}] leave [0, 1]"
            if factor > 1
            else None
        )
        _outcome(lambda: Effect(mat, (n,)), message)

    def test_choi_lower_bound(self, n, basis, factor):
        # an n x n Choi matrix of a map from dimension n // 2 to 2; its
        # positive part has trace 1/2, so the grid is safely sub-unital
        low = -factor * CP_TOL
        choi = _with_spectrum([low] + [0.5 / (n - 1)] * (n - 1), basis)
        blocks = np.transpose(choi.reshape(2, n // 2, 2, n // 2), (0, 2, 1, 3))
        message = (
            f"blocks are not completely positive ({low:.3e})"
            if factor > 1
            else None
        )
        _outcome(lambda: QChannel(blocks, (n // 2,), (2,)), message)

    def test_hermiticity_pattern_bound(self, n, basis, factor):
        # identity blocks c[k, l] = |k><l| meet the pattern exactly; adding
        # d * e to c[0, 1] alone leaves max|c[k, l] - c[l, k]^dag| = d max|e|
        blocks = QChannel.identity((n,)).blocks.copy()
        if basis == "diagonal":
            e = np.zeros((n, n))
            e[n - 1, 0] = 1.0
        else:
            e = verify._ginibre(n, n, np.random.default_rng(n))
            e /= np.max(np.abs(e))
        blocks[0, 1] += factor * HERMITIAN_TOL * e
        message = "blocks break the hermiticity pattern" if factor > 1 else None
        for check_cp in (True, False):
            _outcome(
                lambda: QChannel(blocks, (n,), (n,), check_cp=check_cp), message
            )

    def test_diagonal_sum_upper_bound(self, n, basis, factor):
        gap = [factor * NORM_TOL] + [-0.5] * (n - 1)
        blocks = _with_spectrum(np.add(1.0, gap), basis).reshape(1, 1, n, n)
        message = (
            "block diagonal sums above the identity" if factor > 1 else None
        )
        if _outcome(lambda: QChannel(blocks, (n,), (1,)), message) is None:
            assert not QChannel(blocks, (n,), (1,)).unital


def test_spectrum_exactly_on_a_bound_is_accepted():
    # the shifted matrix is singular, so its Cholesky fails and the
    # spectrum decides: an eigenvalue equal to the bound is in range
    QState(np.diag([-EIG_CLIP, 1 + EIG_CLIP]), (2,))
    Effect(np.diag([-EIG_CLIP, 0.5]), (2,))
    Effect(np.diag([1 + EIG_CLIP, 0.5]), (2,))
    QChannel(np.diag([-CP_TOL, 0.5]).reshape(1, 1, 2, 2), (2,), (1,))


class TestSuccessPathSkipsTheSpectrum:
    def test_constructors_in_range_run_no_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(95)
        n = 32
        g = verify._ginibre(n, n, rng)
        pos = g @ g.conj().T
        state = pos / np.trace(pos).real
        effect = 0.9 * pos / np.linalg.norm(pos, 2)
        stoch = StochChannel(Space(list("abc")), Space(list("xy")), [
            [0.2, 0.8], [0.5, 0.5], [1.0, 0.0],
        ])
        half_root = psd_sqrt(np.eye(n) / 2)

        def forbidden(*args, **kwargs):
            raise AssertionError("an in-range constructor ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        QState(state, (n,))
        Effect(effect, (n,))
        assert qu.hat_channel(stoch).unital
        assert not QChannel.from_kraus([half_root], (n,), (n,)).unital


class TestValidity:
    def test_diagonal_hand_value(self):
        sigma = QState(np.diag([0.3, 0.7]), (2,))
        p = Effect(np.diag([0.95, 0.25]), (2,))
        assert qu.validity(sigma, p) == pytest.approx(0.46, abs=1e-12)

    def test_plus_against_ket0(self):
        v = np.array([1.0, 1.0])
        v = v / np.linalg.norm(v)
        sigma = QState(np.outer(v, v.conj()), (2,))
        assert qu.validity(sigma, KET0) == pytest.approx(0.5, abs=1e-12)

    def test_truth_is_certain(self):
        rng = np.random.default_rng(41)
        sigma = random_qstate((3,), rng)
        assert qu.validity(sigma, Effect.truth((3,))) == pytest.approx(1.0)



class TestAndthen:
    def test_ket0_then_plus(self):
        """|0><0| & |+><+| = (1/2)|0><0|"""
        got = qu.andthen(KET0, PLUS)
        np.testing.assert_allclose(got.mat, 0.5 * KET0.mat, atol=1e-12)

    def test_truth_is_neutral(self):
        rng = np.random.default_rng(43)
        p = random_effect((3,), rng)
        np.testing.assert_allclose(
            qu.andthen(p, Effect.truth((3,))).mat, p.mat, atol=1e-10
        )
        np.testing.assert_allclose(
            qu.andthen(Effect.truth((3,)), p).mat, p.mat, atol=1e-10
        )

    def test_diagonal_case_is_pointwise_product(self):
        p = Effect(np.diag([0.9, 0.2]), (2,))
        q = Effect(np.diag([0.5, 0.5]), (2,))
        np.testing.assert_allclose(
            qu.andthen(p, q).mat, np.diag([0.45, 0.1]), atol=1e-12
        )

    def test_order_matters(self):
        a = qu.andthen(KET0, PLUS)
        b = qu.andthen(PLUS, KET0)
        assert np.max(np.abs(a.mat - b.mat)) > 0.1


class TestConditioning:
    def test_lower_chain_on_mixed_state(self):
        """I/2 conditioned on |0><0| then on |+><+| walks 0 -> plus."""
        step1 = qu.condition_lower(MIXED2, KET0)
        np.testing.assert_allclose(step1.mat, KET0.mat, atol=1e-12)
        step2 = qu.condition_lower(step1, PLUS)
        np.testing.assert_allclose(step2.mat, PLUS.mat, atol=1e-12)

    def test_upper_leaves_pure_state_alone(self):
        """sqrt(sigma) has rank 1 for pure sigma, so |^p cannot move it."""
        plus_state = QState(PLUS.mat, (2,))
        got = qu.condition_upper(plus_state, KET0)
        np.testing.assert_allclose(got.mat, plus_state.mat, atol=1e-12)

    def test_rules_agree_on_commuting_data(self):
        sigma = QState(np.diag([0.3, 0.7]), (2,))
        p = Effect(np.diag([0.95, 0.25]), (2,))
        lo = qu.condition_lower(sigma, p)
        up = qu.condition_upper(sigma, p)
        np.testing.assert_allclose(lo.mat, up.mat, atol=1e-12)
        np.testing.assert_allclose(
            np.diag(lo.mat).real, [0.285 / 0.46, 0.175 / 0.46], atol=1e-12
        )

    def test_zero_validity_rejected(self):
        one = QState([[1, 0], [0, 0]], (2,))
        bottom = Effect([[0, 0], [0, 1]], (2,))
        with pytest.raises(ZeroValidityError):
            qu.condition_lower(one, bottom)
        with pytest.raises(ZeroValidityError):
            qu.condition_upper(one, bottom)


class TestFixedWitness:
    """The standard qubit counterexample: I/2 with |0><0| and |+><+|."""

    def test_successive_conditioning_depends_on_order(self):
        a = qu.condition_lower(qu.condition_lower(MIXED2, KET0), PLUS)
        b = qu.condition_lower(qu.condition_lower(MIXED2, PLUS), KET0)
        np.testing.assert_allclose(a.mat, PLUS.mat, atol=1e-12)
        np.testing.assert_allclose(b.mat, KET0.mat, atol=1e-12)
        dist = float(np.linalg.norm(a.mat - b.mat))
        assert dist == pytest.approx(1.0, abs=1e-10)

    def test_successive_is_not_conjunctive(self):
        two_step = qu.condition_lower(qu.condition_lower(MIXED2, KET0), PLUS)
        merged = qu.condition_lower(MIXED2, qu.andthen(KET0, PLUS))
        np.testing.assert_allclose(merged.mat, KET0.mat, atol=1e-12)
        dist = float(np.linalg.norm(two_step.mat - merged.mat))
        assert dist == pytest.approx(1.0, abs=1e-10)


class TestAsrt:
    def test_asserting_truth_is_identity(self):
        np.testing.assert_allclose(
            qu.asrt(Effect.truth((2,))).blocks,
            QChannel.identity((2,)).blocks,
            atol=1e-12,
        )

    def test_pull_is_andthen(self):
        rng = np.random.default_rng(46)
        p = random_effect((3,), rng)
        q = random_effect((3,), rng)
        np.testing.assert_allclose(
            qu.asrt(p).pull(q).mat, qu.andthen(p, q).mat, atol=1e-12
        )

    def test_push_operator_sandwiches(self):
        rng = np.random.default_rng(47)
        sigma = random_qstate((3,), rng)
        p = random_effect((3,), rng)
        root = psd_sqrt(p.mat)
        np.testing.assert_allclose(
            qu.asrt(p).push_operator(sigma.mat),
            root @ sigma.mat @ root,
            atol=1e-12,
        )

    def test_push_rejects_subnormalized(self):
        rng = np.random.default_rng(48)
        p = random_effect((2,), rng)
        with pytest.raises(ValueError):
            qu.asrt(p).push(MIXED2)


_ID2 = QChannel.identity((2,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: QChannel.from_kraus([np.eye(3)], (2,), (2,)),
            DimensionError,
            "must all be 2x2",
        ),
        (
            lambda: QChannel.from_kraus([], (2,), (2,)),
            DimensionError,
            "must all be 2x2",
        ),
        (
            lambda: _ID2.pull(Effect.truth((3,))),
            DimensionError,
            "effect dims (3,) vs (2,)",
        ),
        (
            lambda: _ID2.push_operator(np.eye(3)),
            DimensionError,
            "does not match the domain",
        ),
        (
            lambda: qu.validity(MIXED2, Effect.truth((3,))),
            DimensionError,
            "dims mismatch: (2,) vs (3,)",
        ),
        (lambda: qu._born(0.5 + 1e-6j), ValueError, "imaginary part 1.000e-06"),
        (lambda: qu._born(1.5 + 0j), ValueError, "validity 1.5 leaves [0, 1]"),
        (lambda: qu.cup(0), DimensionError, "cup needs n >= 1"),
    ],
    ids=[
        "from_kraus-shape", "from_kraus-empty", "pull-dims", "push_operator-shape",
        "same_dims", "born-imaginary", "born-range", "cup-zero",
    ],
)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)


class TestChannelTransforms:
    def test_pull_truth_is_truth_for_unital(self):
        rng = np.random.default_rng(50)
        c = random_qchannel((3,), (5,), rng)
        np.testing.assert_allclose(
            c.pull(Effect.truth((5,))).mat, np.eye(3), atol=1e-10
        )

    def test_identity_channel(self):
        rng = np.random.default_rng(51)
        sigma = random_qstate((3,), rng)
        ident = QChannel.identity((3,))
        np.testing.assert_allclose(ident.push(sigma).mat, sigma.mat, atol=1e-12)

    def test_tensor_acts_componentwise(self):
        rng = np.random.default_rng(53)
        c = random_qchannel((2,), (2,), rng)
        d = random_qchannel((3,), (3,), rng)
        a = random_qstate((2,), rng)
        b = random_qstate((3,), rng)
        np.testing.assert_allclose(
            c.tensor(d).push(a.tensor(b)).mat,
            c.push(a).tensor(d.push(b)).mat,
            atol=1e-10,
        )

    @pytest.mark.parametrize("second", ["channel", "subunital-asrt"])
    def test_tensor_of_cp_channels_is_cp(self, second):
        """tensor skips the CP check; its Choi matrix is PSD regardless."""
        rng = np.random.default_rng(54)
        c = random_qchannel((2,), (3,), rng)
        if second == "channel":
            d = random_qchannel((3,), (2,), rng)
        else:
            d = qu.asrt(random_effect((2,), rng))
            assert not d.unital
        t = c.tensor(d)
        assert t.unital == d.unital
        m, n = t.out_flat, t.in_flat
        choi = np.transpose(t.blocks, (0, 2, 1, 3)).reshape(m * n, m * n)
        assert np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -1e-12

    def test_push_matches_trace_formula(self):
        """(c >> sigma)[k, l] = tr(c(|l><k|) sigma)"""
        rng = np.random.default_rng(54)
        c = random_qchannel((3,), (4,), rng)
        sigma = random_qstate((3,), rng)
        got = c.push(sigma).mat
        for k in range(4):
            for l in range(4):
                want = np.trace(c.blocks[l, k] @ sigma.mat)
                assert got[k, l] == pytest.approx(want, abs=1e-12)

    def test_pull_matches_sum_formula(self):
        """(c << q) = sum_kl q[k, l] c(|k><l|)"""
        rng = np.random.default_rng(55)
        c = random_qchannel((3,), (4,), rng)
        q = random_effect((4,), rng)
        want = np.zeros((3, 3), dtype=np.complex128)
        for k in range(4):
            for l in range(4):
                want += q.mat[k, l] * c.blocks[k, l]
        np.testing.assert_allclose(c.pull(q).mat, want, atol=1e-12)


class TestCupCap:
    def test_cup_one(self):
        np.testing.assert_allclose(qu.cup(1).mat, [[1.0]])

    def test_cup_two_matrix(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(qu.cup(2).mat, np.outer(v, v) / 2, atol=1e-15)
        assert np.trace(qu.cup(2).mat) == pytest.approx(1.0)

    def test_cup_is_idempotent(self):
        c = qu.cup(3).mat
        np.testing.assert_allclose(c @ c, c, atol=1e-12)

    def test_cup_marginals_are_maximally_mixed(self):
        for mask in ([1, 0], [0, 1]):
            got = qu.cup(3).marginal(mask)
            np.testing.assert_allclose(got.mat, np.eye(3) / 3, atol=1e-12)

    def test_marginal_refuses_a_mask_that_keeps_nothing(self, monkeypatch):
        def no_trace(*args):
            raise AssertionError("partial trace ran before the mask check")

        monkeypatch.setattr(qu, "partial_trace", no_trace)
        with pytest.raises(DimensionError, match="^marginal mask keeps no component$"):
            qu.cup(3).marginal([0, 0])


class TestTensor:
    def test_matches_entrywise_definition(self):
        """Row-major layout: (a (x) b)[3i + k, 3j + l] = a[i, j] b[k, l]."""
        rng = np.random.default_rng(7)
        a = random_qstate((2,), rng)
        b = random_qstate((3,), rng)
        got = a.tensor(b)
        assert got.dims == (2, 3)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert got.mat[3 * i + k, 3 * j + l] == pytest.approx(
                            a.mat[i, j] * b.mat[k, l], abs=1e-15
                        )


class TestMarginals:
    def test_product_state_factors(self):
        rng = np.random.default_rng(56)
        a = random_qstate((2,), rng)
        b = random_qstate((3,), rng)
        joint = a.tensor(b)
        np.testing.assert_allclose(joint.marginal([1, 0]).mat, a.mat, atol=1e-12)
        np.testing.assert_allclose(joint.marginal([0, 1]).mat, b.mat, atol=1e-12)


class TestHatEmbedding:
    def test_state_and_pred_values(self):
        w = Dist(Space(["t", "f"]), [0.3, 0.7])
        np.testing.assert_allclose(qu.hat_state(w).mat, np.diag([0.3, 0.7]))
        p = FuzzyPred(Space(["t", "f"]), [0.95, 0.25])
        np.testing.assert_allclose(qu.hat_pred(p).mat, np.diag([0.95, 0.25]))

    def test_channel_blocks_are_diagonal_grid(self):
        c = StochChannel(
            Space(["t", "f"]), Space(["t", "f"]), [[0.95, 0.05], [0.25, 0.75]]
        )
        hat = qu.hat_channel(c)
        np.testing.assert_allclose(hat.blocks[0, 0], np.diag([0.95, 0.25]))
        np.testing.assert_allclose(hat.blocks[1, 1], np.diag([0.05, 0.75]))
        np.testing.assert_allclose(hat.blocks[0, 1], np.zeros((2, 2)))
        assert hat.unital

    def test_conditionings_coincide_on_diagonal_data(self):
        w = Dist(Space(["t", "f"]), [0.3, 0.7])
        p = FuzzyPred(Space(["t", "f"]), [0.95, 0.25])
        want = qu.hat_state(cl.condition(w, p)).mat
        np.testing.assert_allclose(
            qu.condition_lower(qu.hat_state(w), qu.hat_pred(p)).mat,
            want,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            qu.condition_upper(qu.hat_state(w), qu.hat_pred(p)).mat,
            want,
            atol=1e-12,
        )


class TestJsonForms:
    def test_state_round_trip(self):
        rng = np.random.default_rng(59)
        sigma = random_qstate((3,), rng)
        back = QState.from_json(sigma.to_json())
        np.testing.assert_allclose(back.mat, sigma.mat, atol=1e-15)
        assert back.dims == sigma.dims

    def test_effect_round_trip(self):
        rng = np.random.default_rng(60)
        p = random_effect((3,), rng)
        back = Effect.from_json(p.to_json())
        np.testing.assert_allclose(back.mat, p.mat, atol=1e-15)

    def test_channel_round_trip(self):
        rng = np.random.default_rng(61)
        c = random_qchannel((2,), (3,), rng)
        back = QChannel.from_json(c.to_json())
        np.testing.assert_allclose(back.blocks, c.blocks, atol=1e-15)
        assert back.in_dims == c.in_dims and back.out_dims == c.out_dims
        assert back.unital == c.unital

    def test_channel_json_unital_flag_checked(self):
        c = QChannel.identity((2,))
        d = c.to_json()
        d["unital"] = False
        with pytest.raises(ValueError):
            QChannel.from_json(d)

    def test_kind_tag_is_written_and_checked(self):
        rng = np.random.default_rng(62)
        sigma, p = random_qstate((2,), rng), random_effect((2,), rng)
        assert sigma.to_json()["kind"] == "state"
        assert p.to_json()["kind"] == "effect"
        with pytest.raises(ValueError):
            Effect.from_json(sigma.to_json())
        with pytest.raises(ValueError):
            QState.from_json(p.to_json())

    def test_untagged_forms_still_load(self):
        rng = np.random.default_rng(63)
        sigma, p = random_qstate((2,), rng), random_effect((2,), rng)
        for obj, cls in ((sigma, QState), (p, Effect)):
            d = obj.to_json()
            del d["kind"]
            np.testing.assert_array_equal(cls.from_json(d).mat, obj.mat)
