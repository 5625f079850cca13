"""Values derived once and stored on the immutable value they came from.

A state's or effect's principal root, a joint's projection and a
classical joint's disintegration are computed on first use and kept on
that instance: the same object comes back for the same instance, never
for an equal twin, memoised arrays are read-only, and a failure stores
nothing.
"""

import numpy as np
import pytest

from qbayes import classical as cl
from qbayes import correspond as co
from qbayes import quantum as qu
from qbayes import verify
from qbayes.classical import Dist, Space
from qbayes.errors import DimensionError, NotPositiveError, SupportError
from qbayes.quantum import QState


def _state(seed, dims=(3,)):
    return verify.random_qstate(dims, np.random.default_rng(seed))


def _effect(seed, dims=(3,)):
    return verify.random_effect(dims, np.random.default_rng(seed))


def _twin(x):
    return type(x)(x.mat, x.dims)


def _joint(seed=5):
    xs, ys = Space(["x0", "x1", "x2"]), Space(["y0", "y1"])
    u = np.random.default_rng(seed).uniform(size=6)
    return Dist(xs.tensor(ys), u / u.sum())


@pytest.fixture
def eigh_calls(monkeypatch):
    """Every np.linalg.eigh call, by the size of its input."""
    seen = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        seen.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return seen


class TestRoot:
    @pytest.mark.parametrize("make", [_state, _effect])
    def test_same_instance_same_array(self, make):
        x = make(1)
        assert qu._root_of(x) is qu._root_of(x)

    @pytest.mark.parametrize("make", [_state, _effect])
    def test_not_shared_with_an_equal_twin(self, make):
        x = make(2)
        twin = _twin(x)
        assert qu._root_of(x) is not qu._root_of(twin)
        np.testing.assert_array_equal(qu._root_of(x), qu._root_of(twin))

    def test_is_read_only_and_is_the_principal_root(self):
        p = _effect(3)
        root = qu._root_of(p)
        assert not root.flags.writeable
        np.testing.assert_array_equal(root, qu.psd_sqrt(p.mat))
        with pytest.raises(ValueError):
            root[0, 0] = 0.0

    def test_failure_is_not_stored(self, monkeypatch):
        p = _effect(4)
        real = qu.psd_sqrt

        def fails_once(a):
            monkeypatch.setattr(qu, "psd_sqrt", real)
            raise NotPositiveError("once")

        monkeypatch.setattr(qu, "psd_sqrt", fails_once)
        with pytest.raises(NotPositiveError):
            qu._root_of(p)
        np.testing.assert_array_equal(qu._root_of(p), real(p.mat))

    def test_every_sandwich_shares_the_root(self, eigh_calls):
        sigma, p, q = _state(5), _effect(6), _effect(7)
        qu.condition_lower(sigma, p)
        qu.andthen(p, q)
        qu.asrt(p)
        qu.condition_upper(sigma, q)
        qu.condition_upper(sigma, p)
        co.pair(sigma, verify.random_qchannel((3,), (2,), np.random.default_rng(8)))
        # one decomposition for p and one for sigma, whatever reads them
        assert eigh_calls == [3, 3]


class TestProject:
    def test_same_joint_same_projection(self):
        tau = _state(9, (2, 3))
        assert co.project(tau) is co.project(tau)
        assert not co.project(tau).mat.flags.writeable

    def test_not_shared_with_an_equal_twin(self):
        tau = _state(10, (2, 3))
        twin = _twin(tau)
        assert co.project(tau) is not co.project(twin)
        np.testing.assert_array_equal(co.project(tau).mat, co.project(twin).mat)

    def test_is_the_transposed_first_marginal(self):
        tau = _state(11, (2, 3))
        want = tau.marginal([1, 0]).mat.T
        np.testing.assert_array_equal(co.project(tau).mat, want)

    def test_refusal_is_not_stored(self):
        single = _state(12, (6,))
        for _ in range(2):
            with pytest.raises(DimensionError):
                co.project(single)


class TestClassicalExtract:
    def test_same_joint_same_channel(self):
        tau = _joint()
        assert cl.extract(tau) is cl.extract(tau)
        assert not cl.extract(tau).matrix.flags.writeable
        # evaluation reads the memoised channel's rows
        np.testing.assert_array_equal(cl.ev(tau, "x1").probs, cl.extract(tau).matrix[1])

    def test_not_shared_with_an_equal_twin(self):
        tau = _joint()
        twin = Dist(tau.space, tau.probs)
        assert cl.extract(tau) is not cl.extract(twin)
        np.testing.assert_array_equal(cl.extract(tau).matrix, cl.extract(twin).matrix)

    def test_support_error_is_raised_again(self):
        xs, ys = Space(["a", "b"]), Space(["c", "d"])
        tau = Dist(xs.tensor(ys), [0.5, 0.5, 0.0, 0.0])
        for _ in range(2):
            with pytest.raises(SupportError, match="'b'"):
                cl.extract(tau)


class TestTrialsDecomposeEachValueOnce:
    """Counted per trial, at the default dims 3,5."""

    def test_witnesses_trial(self, eigh_calls):
        # roots of p, q and p & q, each once (six psd_sqrt calls before)
        list(verify._witnesses(verify.trial_rng(1, 1), (3, 5), 1))
        assert eigh_calls == [3, 3, 3]

    def test_quantum_bayes_trial(self, eigh_calls):
        # roots of p and sigma, each once (four psd_sqrt calls before)
        list(verify._quantum_bayes(verify.trial_rng(1, 1), (3, 5), 1))
        assert eigh_calls == [5, 5]

    def test_pair_extract_trial_projects_each_joint_once(self, monkeypatch):
        marginals = []
        marginal = QState.marginal

        def recording(self, mask):
            marginals.append(tuple(mask))
            return marginal(self, mask)

        monkeypatch.setattr(QState, "marginal", recording)
        list(verify._pair_extract(verify.trial_rng(1, 0), (3, 5), 0))
        # one projection of each of the two joints (four before), plus
        # the second marginal the suite compares against
        assert sorted(marginals) == [(0, 1), (1, 0), (1, 0)]

    def test_semiexp_trial_extracts_each_joint_once(self, monkeypatch):
        calls, computed = [], []
        extract = cl.extract

        def recording(tau):
            calls.append(tau)
            if getattr(tau, "_extracted", None) is None:
                computed.append(tau)
            return extract(tau)

        monkeypatch.setattr(cl, "extract", recording)
        list(verify._semiexp(verify.trial_rng(1, 0), (3, 5), 0))
        # one call per (z, x) pair and one on the eta joint, but one
        # disintegration per joint
        assert len(computed) == len({id(t) for t in calls}) < len(calls)
