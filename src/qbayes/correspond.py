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
    cup,
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

    asrt of the transposed prior is trace-decreasing, so the normalized
    cup state would come out scaled by 1/n; pushing n * cup (the
    unnormalized sum_ij |ii><jj|) restores trace 1 and reproduces the
    entrywise pairing formula exactly.
    """
    if sigma.flat != c.in_flat:
        raise DimensionError(f"state dim {sigma.flat} vs channel domain {c.in_flat}")
    if not c.unital:
        raise ValueError("pairing requires a unital channel")
    n = sigma.flat
    gate = asrt(Effect(sigma.mat.T, (n,))).tensor(c)
    raw = gate.push_operator(n * cup(n).mat)
    return QState(raw, (n, c.out_flat))


def project(tau: QState) -> QState:
    """The transposed first marginal M1(tau)^T."""
    _require_joint(tau)
    m1 = tau.marginal([1, 0])
    return QState(m1.mat.T.copy(), m1.dims)


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


# Conditioning on one-sided evidence, one factor at a time: the lower
# conditioning of tau on p (x) 1 is (R (x) 1) tau (R (x) 1) / v with
# R = sqrt(p), since sqrt(p (x) 1) = sqrt(p) (x) 1, and its validity is
# v = tr(tau (p (x) 1)) = tr(M1(tau) p). Neither the nm x nm effect nor
# its root is ever formed; R acts on one tensor leg by reshape + matmul.


def crossover_second(tau: QState, p: Effect) -> QState:
    """Condition the joint on p (x) 1, keep the second component."""
    n, m = _require_side(tau, p, 0)
    v = _evidence_validity(tau.marginal([1, 0]), p)
    root = psd_sqrt(p.mat)
    # left factor on row index i of <ik|, right factor on column index j of |jl>
    left = (root @ tau.mat.reshape(n, m * n * m)).reshape(n * m, n, m)
    both = (root.T @ left).reshape(n * m, n * m)
    return QState(both / v, tau.dims).marginal([0, 1])


def inference_forward(tau: QState, p: Effect) -> QState:
    """Channel route to the same posterior: extr >> (proj |^ p^T)."""
    _require_side(tau, p, 0)
    return extract(tau).push(condition_upper(project(tau), p.transpose()))


def crossover_first(tau: QState, q: Effect) -> QState:
    """Condition the joint on 1 (x) q, keep the first component."""
    n, m = _require_side(tau, q, 1)
    v = _evidence_validity(tau.marginal([0, 1]), q)
    root = psd_sqrt(q.mat)
    # left factor on row index k of <ik|, right factor on column index l of |jl>
    left = (root @ tau.mat.reshape(n, m, n * m)).reshape(n * m * n, m)
    both = (left @ root).reshape(n * m, n * m)
    return QState(both / v, tau.dims).marginal([1, 0])


def inference_backward(tau: QState, q: Effect) -> QState:
    """Channel route: (proj |^ (extr << q))^T."""
    _require_side(tau, q, 1)
    chan = extract(tau)
    return condition_upper(project(tau), chan.pull(q)).transpose()
