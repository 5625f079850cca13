"""The correspondence between bipartite states and (state, channel) pairs.

A joint state tau on H (x) K with an invertible first marginal carries
exactly the information of a prior together with a channel:

    pairing     <ik| pair(sigma, c) |jl>  =  conj((sqrt(sigma) c[k, l] sqrt(sigma))_ij)
    projection  proj(tau)  =  M1(tau)^T
    extraction  extr(tau)[k, l]  =  sum_ij conj(<ik| tau |jl>) R |i><j| R,
                R = proj(tau)^(-1/2)

pair and (proj, extr) are mutually inverse, the second marginal is
extr >> proj, and conditioning the joint on one-sided evidence agrees
with channel-based inference on the other side:

    M2(tau |_ (p (x) 1))  =  extr(tau) >> (proj(tau) |^ p^T)
    M1(tau |_ (1 (x) q))  =  (proj(tau) |^ (extr(tau) << q))^T

The transposes are real: they are what makes the correlation bookkeeping
of the cup state come out right, and they vanish on diagonal (classical)
data.

Everything here takes bipartite states, dims of length exactly 2.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import psd_inv_sqrt, psd_sqrt
from .quantum import (
    Effect,
    QChannel,
    QState,
    _evidence_validity,
    asrt,
    condition_upper,
)


def _require_joint(tau: QState) -> tuple[int, int]:
    if len(tau.dims) != 2:
        raise DimensionError(f"need a bipartite state, got dims {tau.dims}")
    return tau.dims


def pair(sigma: QState, c: QChannel) -> QState:
    """Combine a prior on H with a unital channel H -> K into a joint."""
    if sigma.flat != c.in_flat:
        raise DimensionError(f"state dim {sigma.flat} vs channel domain {c.in_flat}")
    if not c.unital:
        raise ValueError("pairing requires a unital channel")
    n, m = sigma.flat, c.out_flat
    root = psd_sqrt(sigma.mat)
    # matmul broadcasts the sandwich over the leading (m, m) block axes
    inner = root @ c.blocks @ root
    mat = np.conj(np.transpose(inner, (2, 0, 3, 1))).reshape(n * m, n * m)
    return QState(mat, (n, m))


def pair_via_cup(sigma: QState, c: QChannel) -> QState:
    """Cross-check path: push the unnormalized cup through asrt (x) c.

    asrt of the transposed prior is trace-decreasing, so the cup is pushed
    unnormalized (trace n) to give trace 1, one tensor factor at a time:
    (A (x) c) >> sum_ij |ii><jj| = sum_ij (A >> |i><j|) (x) (c >> |i><j|),
    A = asrt(sigma^T), not pair's sqrt(sigma) c sqrt(sigma) sandwich.
    """
    if sigma.flat != c.in_flat:
        raise DimensionError(f"state dim {sigma.flat} vs channel domain {c.in_flat}")
    if not c.unital:
        raise ValueError("pairing requires a unital channel")
    n, m = sigma.flat, c.out_flat
    gate = asrt(Effect(sigma.mat.T, (n,)))
    raw = np.einsum("baji,lkji->akbl", gate.blocks, c.blocks)
    return QState(raw.reshape(n * m, n * m), (n, m))


def project(tau: QState) -> QState:
    """The transposed first marginal M1(tau)^T."""
    _require_joint(tau)
    return tau.marginal([1, 0]).transpose()


def extract(tau: QState) -> QChannel:
    """Disintegrate a joint with invertible proj into a unital channel."""
    n, m = _require_joint(tau)
    inv_root = psd_inv_sqrt(project(tau).mat)
    t4 = tau.mat.reshape(n, m, n, m)
    # w[k, l]_ij = conj(<ik| tau |jl>)
    w = np.conj(np.transpose(t4, (1, 3, 0, 2)))
    blocks = inv_root @ w @ inv_root
    # CP holds by construction: w is a conjugated reindexing of tau^T
    # (PSD), sandwiched by the Hermitian inv_root on both sides.
    return QChannel(blocks, (n,), (m,), check_cp=False)


def recover(tau: QState) -> tuple[QState, QChannel, QState]:
    """(proj, extr, extr >> proj); the last equals M2(tau)."""
    marg = project(tau)
    chan = extract(tau)
    return marg, chan, chan.push(marg)


def _require_side(tau: QState, p: Effect, side: int) -> tuple[int, int]:
    n, m = _require_joint(tau)
    want = (n,) if side == 0 else (m,)
    if p.dims != want:
        raise DimensionError(f"effect dims {p.dims}, expected {want}")
    return n, m


# The crossovers never form the conditioned joint: with R = sqrt(p),
# R (x) 1 acts only on the factor traced out, so it cycles under the
# partial trace, tr_1[(R (x) 1) tau (R (x) 1)] = tr_1[(p (x) 1) tau], and
# v = tr(tau (p (x) 1)) = tr(M1(tau) p). This is lower conditioning only:
# the upper one's marginal keeps sqrt(tau), the root of the whole joint.


def crossover_second(tau: QState, p: Effect) -> QState:
    """Condition the joint on p (x) 1, keep the second component."""
    n, m = _require_side(tau, p, 0)
    v = _evidence_validity(tau.marginal([1, 0]), p)
    post = np.einsum("ia,akil->kl", p.mat, tau.mat.reshape(n, m, n, m))
    return QState(post / v, (m,))


def inference_forward(tau: QState, p: Effect) -> QState:
    """Channel route to the same posterior: extr >> (proj |^ p^T)."""
    _require_side(tau, p, 0)
    return extract(tau).push(condition_upper(project(tau), p.transpose()))


def crossover_first(tau: QState, q: Effect) -> QState:
    """Condition the joint on 1 (x) q, keep the first component."""
    n, m = _require_side(tau, q, 1)
    v = _evidence_validity(tau.marginal([0, 1]), q)
    post = np.einsum("kb,ibjk->ij", q.mat, tau.mat.reshape(n, m, n, m))
    return QState(post / v, (n,))


def inference_backward(tau: QState, q: Effect) -> QState:
    """Channel route: (proj |^ (extr << q))^T."""
    _require_side(tau, q, 1)
    chan = extract(tau)
    return condition_upper(project(tau), chan.pull(q)).transpose()
