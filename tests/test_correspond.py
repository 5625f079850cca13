"""Joint states vs (state, channel) pairs, and the inference theorem.

pair builds a joint from a prior and a unital channel; project and
extract invert it. Conditioning the joint on one-sided evidence and
marginalizing must match the channel route through the extracted pair.
"""

import sys

import numpy as np
import pytest

from qbayes import classical as cl
from qbayes import correspond as co
from qbayes import linalg
from qbayes import quantum as qu
from qbayes.classical import Dist, FuzzyPred, Space, StochChannel
from qbayes.errors import DimensionError, SingularMarginalError, ZeroValidityError
from qbayes.linalg import psd_sqrt
from qbayes.quantum import Effect, QChannel, QState


def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _random_state(rng, n):
    g = _ginibre(rng, n, n)
    m = g @ g.conj().T
    return QState(m / np.trace(m).real, (n,))


def _random_effect(rng, n):
    g = _ginibre(rng, n, n)
    m = g @ g.conj().T
    return Effect(rng.uniform() * m / np.linalg.norm(m, 2), (n,))


def _random_unital_channel(rng, n, m):
    # r stacked m x n Kraus operators need r * m >= n orthonormal columns
    r = max(m, -(-n // m))
    q, _ = np.linalg.qr(_ginibre(rng, r * m, n))
    kraus = [q[i * m : (i + 1) * m, :] for i in range(r)]
    return QChannel.from_kraus(kraus, (n,), (m,))


class TestPair:
    def test_maximally_mixed_with_identity_gives_cup(self):
        got = co.pair(QState.maximally_mixed((3,)), QChannel.identity((3,)))
        np.testing.assert_allclose(got.mat, qu.cup(3).mat, atol=1e-12)

    def test_scalar_prior_reads_off_the_channel(self):
        """With a 1-dim prior the joint entry (k, l) is c(|l><k|)."""
        rng = np.random.default_rng(62)
        rho = _random_state(rng, 3)
        c = QChannel(
            np.array(
                [[rho.mat[l, k].reshape(1, 1) for l in range(3)] for k in range(3)]
            ).reshape(3, 3, 1, 1),
            (1,),
            (3,),
        )
        scalar = QState([[1.0]], (1,))
        got = co.pair(scalar, c)
        np.testing.assert_allclose(got.mat, rho.mat, atol=1e-12)

    def test_first_marginal_transposes_the_prior(self):
        rng = np.random.default_rng(63)
        sigma = _random_state(rng, 3)
        c = _random_unital_channel(rng, 3, 4)
        tau = co.pair(sigma, c)
        assert tau.dims == (3, 4)
        np.testing.assert_allclose(
            tau.marginal([1, 0]).mat, sigma.mat.T, atol=1e-12
        )

    def test_second_marginal_is_the_pushforward(self):
        rng = np.random.default_rng(64)
        sigma = _random_state(rng, 3)
        c = _random_unital_channel(rng, 3, 4)
        tau = co.pair(sigma, c)
        np.testing.assert_allclose(
            tau.marginal([0, 1]).mat, c.push(sigma).mat, atol=1e-12
        )

    def test_rejects_subunital_channel(self):
        sub = QChannel.from_kraus([np.eye(2) / np.sqrt(2)], (2,), (2,))
        with pytest.raises(ValueError):
            co.pair(QState.maximally_mixed((2,)), sub)

    def test_rejects_a_channel_on_another_space(self):
        with pytest.raises(DimensionError, match="state dim 2 vs channel domain 3"):
            co.pair(QState.maximally_mixed((2,)), QChannel.identity((3,)))

    @pytest.mark.parametrize(
        "dims, rank",
        [((3, 4), None), ((1, 4), None), ((4, 1), None), ((5, 5), None), ((4, 3), 2)],
        ids=["3,4", "1,4", "4,1", "5,5", "4,3-rank-2-prior"],
    )
    def test_agrees_with_cup_route(self, dims, rank):
        """pair(sigma, c) = (asrt(sigma^T) (x) c) applied to n * cup."""
        n, m = dims
        rng = np.random.default_rng(65 + 7 * n + m)
        if rank is None:
            sigma = _random_state(rng, n)
        else:
            g = _ginibre(rng, n, rank)
            sigma = QState(g @ g.conj().T / np.linalg.norm(g) ** 2, (n,))
        c = _random_unital_channel(rng, n, m)
        a = co.pair(sigma, c)
        b = co.pair_via_cup(sigma, c)
        np.testing.assert_allclose(a.mat, b.mat, atol=1e-12)


class TestProjectExtract:
    def test_project_cup_is_maximally_mixed(self):
        got = co.project(qu.cup(3))
        np.testing.assert_allclose(got.mat, np.eye(3) / 3, atol=1e-12)

    def test_project_product_state_transposes_first_factor(self):
        rng = np.random.default_rng(66)
        a = _random_state(rng, 2)
        b = _random_state(rng, 3)
        got = co.project(a.tensor(b))
        np.testing.assert_allclose(got.mat, a.mat.T, atol=1e-12)

    def test_extract_cup_is_identity(self):
        got = co.extract(qu.cup(3))
        np.testing.assert_allclose(
            got.blocks, QChannel.identity((3,)).blocks, atol=1e-12
        )

    def test_extract_product_state_is_constant(self):
        """A product joint disintegrates to the constant channel at rho."""
        rng = np.random.default_rng(67)
        a = _random_state(rng, 2)
        b = _random_state(rng, 3)
        got = co.extract(a.tensor(b))
        for k in range(3):
            for l in range(3):
                np.testing.assert_allclose(
                    got.blocks[k, l], b.mat[l, k] * np.eye(2), atol=1e-12
                )

    def test_recover_cup(self):
        first, chan, second = co.recover(qu.cup(3))
        np.testing.assert_allclose(first.mat, np.eye(3) / 3, atol=1e-12)
        np.testing.assert_allclose(
            chan.blocks, QChannel.identity((3,)).blocks, atol=1e-12
        )
        np.testing.assert_allclose(second.mat, np.eye(3) / 3, atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 5), (2, 2)])
    def test_round_trips(self, dims):
        n, m = dims
        rng = np.random.default_rng(68 + n + m)
        sigma = _random_state(rng, n)
        c = _random_unital_channel(rng, n, m)
        tau = co.pair(sigma, c)
        np.testing.assert_allclose(
            co.project(tau).mat, sigma.mat, atol=1e-9
        )
        np.testing.assert_allclose(
            co.extract(tau).pull(Effect.truth((m,))).mat, np.eye(n), atol=1e-9
        )
        back = co.pair(co.project(tau), co.extract(tau))
        np.testing.assert_allclose(back.mat, tau.mat, atol=1e-9)
        # and starting from a plain joint state instead of a built pair
        raw = _random_state(rng, n * m)
        raw = QState(raw.mat, (n, m))
        back = co.pair(co.project(raw), co.extract(raw))
        np.testing.assert_allclose(back.mat, raw.mat, atol=1e-9)

    def test_extract_needs_joint(self):
        with pytest.raises(DimensionError):
            co.extract(QState.maximally_mixed((4,)))

    def test_singular_first_marginal_rejected(self):
        """Extraction fails on rank-deficient M1 but conditioning still works."""
        corner = QState(np.diag([1.0, 0.0]), (2,))
        tau = corner.tensor(QState.maximally_mixed((2,)))
        tau = QState(tau.mat, (2, 2))
        with pytest.raises(SingularMarginalError):
            co.extract(tau)
        ket0 = Effect([[1, 0], [0, 0]], (2,))
        got = co.crossover_second(tau, ket0)
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-12)


class TestExtractMemo:
    """extract disintegrates each joint once; the channel lives on the joint."""

    @staticmethod
    def _joint(seed, n=3, m=4):
        rng = np.random.default_rng(seed)
        return QState(_random_state(rng, n * m).mat, (n, m))

    def test_matches_the_definition(self):
        # extr(tau)[k, l] = sum_ij conj(<ik| tau |jl>) R |i><j| R
        n, m = 3, 4
        tau = self._joint(75, n, m)
        root = np.linalg.inv(psd_sqrt(co.project(tau).mat))
        t4 = tau.mat.reshape(n, m, n, m)
        want = np.empty((m, m, n, n), dtype=complex)
        for k in range(m):
            for l in range(m):
                want[k, l] = root @ np.conj(t4[:, k, :, l]) @ root
        np.testing.assert_allclose(co.extract(tau).blocks, want, atol=1e-12)

    def test_same_joint_same_channel(self):
        tau = self._joint(76)
        assert co.extract(tau) is co.extract(tau)

    def test_memo_is_per_instance(self):
        tau = self._joint(77)
        twin = QState(tau.mat, tau.dims)
        first, second = co.extract(tau), co.extract(twin)
        assert first is not second
        np.testing.assert_array_equal(first.blocks, second.blocks)

    def test_failure_is_not_stored(self):
        corner = QState(np.diag([1.0, 0.0]), (2,))
        tau = QState(corner.tensor(QState.maximally_mixed((2,))).mat, (2, 2))
        for _ in range(2):
            with pytest.raises(SingularMarginalError):
                co.extract(tau)

    def test_both_directions_share_one_inverse_root(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            seen.append((np.shape(a)[-1], sys._getframe(1).f_code.co_name))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        n, m = 3, 4
        rng = np.random.default_rng(78)
        tau = self._joint(79, n, m)
        co.inference_forward(tau, _random_effect(rng, n))
        co.inference_backward(tau, _random_effect(rng, m))
        assert seen.count((n, "psd_inv_sqrt")) == 1, seen


class TestInferenceTheorem:
    def test_truth_evidence_reduces_to_marginals(self):
        rng = np.random.default_rng(71)
        sigma = _random_state(rng, 3)
        c = _random_unital_channel(rng, 3, 5)
        tau = co.pair(sigma, c)
        got = co.crossover_second(tau, Effect.truth((3,)))
        np.testing.assert_allclose(got.mat, tau.marginal([0, 1]).mat, atol=1e-12)
        got = co.crossover_first(tau, Effect.truth((5,)))
        np.testing.assert_allclose(got.mat, tau.marginal([1, 0]).mat, atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 5), (2, 2)])
    def test_forward_direction(self, dims):
        """Crossover on the first leg = push through the extracted channel."""
        n, m = dims
        rng = np.random.default_rng(72 + n + m)
        tau = _random_state(rng, n * m)
        tau = QState(tau.mat, (n, m))
        p = _random_effect(rng, n)
        a = co.crossover_second(tau, p)
        b = co.inference_forward(tau, p)
        np.testing.assert_allclose(a.mat, b.mat, atol=1e-9)

    @pytest.mark.parametrize("dims", [(3, 5), (2, 2)])
    def test_backward_direction(self, dims):
        """Crossover on the second leg = pull and upper-condition the prior."""
        n, m = dims
        rng = np.random.default_rng(73 + n + m)
        tau = _random_state(rng, n * m)
        tau = QState(tau.mat, (n, m))
        q = _random_effect(rng, m)
        a = co.crossover_first(tau, q)
        b = co.inference_backward(tau, q)
        np.testing.assert_allclose(a.mat, b.mat, atol=1e-9)

    def test_diagonal_instance_matches_classical(self):
        """Embedded smoking/cancer data reproduces the classical posterior."""
        bnd = Space(["t", "f"])
        smoking = Dist(bnd, [0.3, 0.7])
        cancer = StochChannel(bnd, bnd, [[0.4, 0.6], [0.05, 0.95]])
        tau_cl = cl.pair(smoking, cancer)
        tau = co.pair(qu.hat_state(smoking), qu.hat_channel(cancer))
        np.testing.assert_allclose(
            tau.mat, qu.hat_state(tau_cl).mat, atol=1e-12
        )
        evidence = FuzzyPred(bnd, [0.95, 0.25])
        got = co.crossover_second(tau, qu.hat_pred(evidence))
        want = cl.condition(
            tau_cl, evidence.tensor(FuzzyPred.truth(bnd))
        ).marginal([0, 1])
        np.testing.assert_allclose(got.mat, qu.hat_state(want).mat, atol=1e-12)
        got = co.inference_forward(tau, qu.hat_pred(evidence))
        np.testing.assert_allclose(got.mat, qu.hat_state(want).mat, atol=1e-12)


def _rank_two_joint(rng, n, m):
    g = _ginibre(rng, n * m, 2)
    mat = g @ g.conj().T
    return QState(mat / np.trace(mat).real, (n, m))


def _generic_second(tau, p):
    """The route the factorwise kernel replaces: condition on p (x) 1 whole."""
    n, m = tau.dims
    wide = Effect(np.kron(p.mat, np.eye(m)), tau.dims)
    return qu.condition_lower(tau, wide).marginal([0, 1])


def _generic_first(tau, q):
    n, m = tau.dims
    wide = Effect(np.kron(np.eye(n), q.mat), tau.dims)
    return qu.condition_lower(tau, wide).marginal([1, 0])


def _projector(v):
    """The rank-1 projector onto the span of a nonzero vector."""
    v = v.reshape(-1) / np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestFactorwiseKernels:
    """The structured kernels against the generic formulas they replace."""

    @pytest.mark.parametrize("dims", [(3, 4), (1, 4), (4, 1)])
    @pytest.mark.parametrize("joint", ["full", "rank-2"])
    @pytest.mark.parametrize("evidence", ["random", "rank-1"])
    def test_crossovers_match_generic_conditioning(self, dims, joint, evidence):
        n, m = dims
        rng = np.random.default_rng(80 + 7 * n + m)
        if joint == "full":
            tau = QState(_random_state(rng, n * m).mat, dims)
        else:
            tau = _rank_two_joint(rng, n, m)
        if evidence == "random":
            p, q = _random_effect(rng, n), _random_effect(rng, m)
        else:
            p = Effect(_projector(_ginibre(rng, n, 1)), (n,))
            q = Effect(_projector(_ginibre(rng, m, 1)), (m,))
        np.testing.assert_allclose(
            co.crossover_second(tau, p).mat, _generic_second(tau, p).mat, atol=1e-12
        )
        np.testing.assert_allclose(
            co.crossover_first(tau, q).mat, _generic_first(tau, q).mat, atol=1e-12
        )

    def test_zero_evidence_refused_on_both_routes(self):
        rng = np.random.default_rng(90)
        tau = QState(_random_state(rng, 12).mat, (3, 4))
        p, q = Effect(np.zeros((3, 3)), (3,)), Effect(np.zeros((4, 4)), (4,))
        for route in (co.crossover_second, _generic_second):
            with pytest.raises(ZeroValidityError):
                route(tau, p)
        for route in (co.crossover_first, _generic_first):
            with pytest.raises(ZeroValidityError):
                route(tau, q)

    def test_wrong_side_effect_is_a_dimension_error(self):
        rng = np.random.default_rng(91)
        tau = QState(_random_state(rng, 12).mat, (3, 4))
        p, q = _random_effect(rng, 3), _random_effect(rng, 4)
        for fn in (co.crossover_second, co.inference_forward):
            with pytest.raises(DimensionError):
                fn(tau, q)
        for fn in (co.crossover_first, co.inference_backward):
            with pytest.raises(DimensionError):
                fn(tau, p)

    def test_extract_and_pair_match_the_einsum_sandwich(self):
        n, m = 4, 3
        rng = np.random.default_rng(92)
        tau = QState(_random_state(rng, n * m).mat, (n, m))
        inv_root = np.linalg.inv(psd_sqrt(tau.marginal([1, 0]).mat.T))
        w = np.conj(np.transpose(tau.mat.reshape(n, m, n, m), (1, 3, 0, 2)))
        want = np.einsum("ab,klbc,cd->klad", inv_root, w, inv_root)
        np.testing.assert_allclose(co.extract(tau).blocks, want, atol=1e-12)

        sigma = _random_state(rng, n)
        c = _random_unital_channel(rng, n, m)
        root = psd_sqrt(sigma.mat)
        inner = np.einsum("ip,klpq,qj->klij", root, c.blocks, root)
        want = np.conj(np.transpose(inner, (2, 0, 3, 1))).reshape(n * m, n * m)
        np.testing.assert_allclose(co.pair(sigma, c).mat, want, atol=1e-12)


class TestNoJointSizedRoot:
    """The one-sided and cup routes build no joint-sized intermediate."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        seen = []

        def recording(fn):
            def wrapped(a, *args, **kwargs):
                seen.append(np.shape(a)[-1])
                return fn(a, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        monkeypatch.setattr(linalg, "_cholesky_lo", recording(linalg._cholesky_lo))
        return seen

    def test_decompositions_by_size(self, sizes):
        n, m = 6, 5
        rng = np.random.default_rng(93)
        tau = QState(_random_state(rng, n * m).mat, (n, m))
        p, q = _random_effect(rng, n), _random_effect(rng, m)
        for fn, evidence in (
            (co.crossover_second, p),
            (co.crossover_first, q),
            (co.inference_forward, p),
            (co.inference_backward, q),
        ):
            sizes.clear()
            fn(tau, evidence)
            assert sizes, f"{fn.__name__} decomposed nothing"
            assert n * m not in sizes, (fn.__name__, sizes)

    def test_cup_route_skips_the_tensor_grid(self, sizes, monkeypatch):
        def no_tensor(self, other):
            raise AssertionError("pair_via_cup built a tensor channel")

        monkeypatch.setattr(QChannel, "tensor", no_tensor)
        n, m = 4, 2
        rng = np.random.default_rng(94)
        sigma = _random_state(rng, n)
        c = _random_unital_channel(rng, n, m)
        sizes.clear()
        co.pair_via_cup(sigma, c)
        # above n only the returned joint's own validation (a Cholesky of
        # size nm), as in pair
        assert [s for s in sizes if s > n] == [n * m], sizes
