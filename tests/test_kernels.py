"""Each channel and joint kernel against its einsum definition.

The library evaluates these contractions as reshapes and matrix
products; here each is written out once more as the plain einsum it
stands for and compared within 1e-13 relative, over shapes where the
block axes and the component dimensions all differ.
"""

import numpy as np
import pytest

from qbayes import correspond as co
from qbayes import quantum as qu
from qbayes.linalg import fro_norm, psd_sqrt
from qbayes.quantum import QChannel
from qbayes.verify import random_effect, random_qchannel, random_qstate

SHAPES = [(1, 1), (1, 3), (4, 1), (3, 5), (6, 2)]
REL = 1e-13


def _assert_close(got, want):
    assert fro_norm(got - want) <= REL * fro_norm(want), fro_norm(got - want)


def _channels(n, m, rng):
    """A unital channel n -> m and the sub-unital assert map of an effect on n."""
    return [random_qchannel((n,), (m,), rng), qu.asrt(random_effect((n,), rng))]


@pytest.mark.parametrize("n, m", SHAPES)
def test_pull(n, m):
    rng = np.random.default_rng(n * 10 + m)
    for c in _channels(n, m, rng):
        q = random_effect((c.out_flat,), rng)
        _assert_close(c.pull(q).mat, np.einsum("kl,klij->ij", q.mat, c.blocks))


@pytest.mark.parametrize("n, m", SHAPES)
def test_push_operator(n, m):
    rng = np.random.default_rng(n * 10 + m + 1)
    for c in _channels(n, m, rng):
        sigma = random_qstate((n,), rng).mat
        want = np.einsum("lkij,ji->kl", c.blocks, sigma)
        _assert_close(c.push_operator(sigma), want)
        assert c.unital == (abs(np.trace(want) - 1) < 1e-12)


@pytest.mark.parametrize("n, m", SHAPES)
def test_from_kraus(n, m):
    rng = np.random.default_rng(n * 10 + m + 2)
    r = max(m, -(-n // m)) + 1
    g = rng.normal(size=(r * m, n)) + 1j * rng.normal(size=(r * m, n))
    # 0.9 times an isometry: a sub-unital grid with r Kraus operators
    stack = 0.9 * np.linalg.qr(g)[0].reshape(r, m, n)
    c = QChannel.from_kraus(list(stack), (n,), (m,))
    _assert_close(c.blocks, np.einsum("rki,rlj->klij", stack.conj(), stack))
    # c[l, k] = c[k, l]^dag bit for bit, as the per-entry sum gives it
    assert np.array_equal(c.blocks, c.blocks.transpose(1, 0, 3, 2).conj())


@pytest.mark.parametrize("n, m", SHAPES)
def test_pair_via_cup(n, m):
    rng = np.random.default_rng(n * 10 + m + 3)
    sigma = random_qstate((n,), rng)
    c = random_qchannel((n,), (m,), rng)
    root = psd_sqrt(sigma.mat.T)
    gate = np.einsum("ki,lj->klij", root.conj(), root)  # asrt(sigma^T)
    want = np.einsum("baji,lkji->akbl", gate, c.blocks).reshape(n * m, n * m)
    _assert_close(co.pair_via_cup(sigma, c).mat, want)


@pytest.mark.parametrize("n, m", SHAPES)
def test_crossovers(n, m):
    rng = np.random.default_rng(n * 10 + m + 4)
    tau = random_qstate((n, m), rng)
    joint = tau.mat.reshape(n, m, n, m)
    p, q = random_effect((n,), rng), random_effect((m,), rng)
    post = np.einsum("ia,akil->kl", p.mat, joint)
    _assert_close(co.crossover_second(tau, p).mat, post / np.trace(post).real)
    post = np.einsum("kb,ibjk->ij", q.mat, joint)
    _assert_close(co.crossover_first(tau, q).mat, post / np.trace(post).real)
