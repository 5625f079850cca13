"""Peak allocation of the joint-sized paths, in units of the joint's size.

numpy reports its data buffers to tracemalloc, so the peak of one call
counts every joint-sized temporary it holds at once, including the
result it returns. The bounds sit just above the counts of the current
code, at a 256x256 joint (dims 16, 16); a throwaway copy of the joint
put back on any of these paths exceeds them. The crossovers and the
channel transforms hold nothing joint-sized at all.
"""

import tracemalloc

import numpy as np
import pytest

from qbayes import correspond as co
from qbayes.quantum import Effect, QState
from qbayes.verify import random_effect, random_qstate

DIMS = (16, 16)


def _peak_in_joints(fn, nbytes: float) -> float:
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return (peak - base) / nbytes


@pytest.fixture
def rho():
    mat = random_qstate(DIMS, np.random.default_rng(2)).mat
    return np.array(mat)  # a plain writeable input, as a caller would pass


def test_state_constructor(rho):
    # the frozen copy and the symmetrised part, which the range check
    # factors in place, next to one row block of the hermiticity gap
    assert _peak_in_joints(lambda: QState(rho, DIMS), rho.nbytes) <= 2.2


def test_effect_constructor():
    p = np.array(random_effect(DIMS, np.random.default_rng(6)).mat)
    # the frozen copy, the symmetrised part and the stacked shifted pair
    # that the range check factors in place
    assert _peak_in_joints(lambda: Effect(p, DIMS), p.nbytes) <= 4.1


def test_random_qstate(rho):
    rng = np.random.default_rng(3)
    # three at a time: the Ginibre square, its conjugated temporary and
    # the Gram matrix, then the Gram matrix and the constructor's two
    assert _peak_in_joints(lambda: random_qstate(DIMS, rng), rho.nbytes) <= 3.2


def test_extract_on_a_fresh_joint(rho):
    tau = QState(rho, DIMS)
    # the GEMM buffer, the channel's private copy and its hermiticity gap
    assert _peak_in_joints(lambda: co.extract(tau), rho.nbytes) <= 3.6


def test_pair_via_cup(rho):
    tau = QState(rho, DIMS)
    sigma, chan = co.project(tau), co.extract(tau)
    # the assert map's blocks and the reordered GEMM result next to the
    # constructor's three; the GEMM buffer itself is freed before them
    assert _peak_in_joints(lambda: co.pair_via_cup(sigma, chan), rho.nbytes) <= 5.1


@pytest.mark.parametrize("side", [0, 1], ids=["crossover_second", "crossover_first"])
def test_crossover(rho, side):
    tau = QState(rho, DIMS)
    p = random_effect((DIMS[side],), np.random.default_rng(4))
    cross = (co.crossover_second, co.crossover_first)[side]
    # the batched products' output, 1/16 of the joint, before it is summed
    assert _peak_in_joints(lambda: cross(tau, p), rho.nbytes) <= 0.1


def test_pull(rho):
    chan = co.extract(QState(rho, DIMS))
    q = random_effect((DIMS[1],), np.random.default_rng(5))
    assert _peak_in_joints(lambda: chan.pull(q), rho.nbytes) <= 0.1


def test_push(rho):
    tau = QState(rho, DIMS)
    chan, prior = co.extract(tau), co.project(tau)
    assert _peak_in_joints(lambda: chan.push(prior), rho.nbytes) <= 0.1
