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
from .linalg import psd_inv_sqrt
from .quantum import (
    Effect,
    QChannel,
    QState,
    _born,
    _root_of,
    asrt,
    condition_upper,
)


def _require_joint(tau: QState) -> tuple[int, int]:
    if len(tau.dims) != 2:
        raise DimensionError(f"need a bipartite state, got dims {tau.dims}")
    return tau.dims


def _require_pairable(sigma: QState, c: QChannel) -> tuple[int, int]:
    """The flat sizes (n, m) of a prior on H and a unital channel H -> K."""
    if sigma.flat != c.in_flat:
        raise DimensionError(f"state dim {sigma.flat} vs channel domain {c.in_flat}")
    if not c.unital:
        raise ValueError("pairing requires a unital channel")
    return sigma.flat, c.out_flat


def pair(sigma: QState, c: QChannel) -> QState:
    """Combine a prior on H with a unital channel H -> K into a joint."""
    n, m = _require_pairable(sigma, c)
    root = _root_of(sigma)
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
    n, m = _require_pairable(sigma, c)
    gate = asrt(Effect(sigma.mat.T, (n,)))
    # raw[a, k, b, l] = sum_ij gate[b, a, j, i] c[l, k, j, i]: one GEMM
    # over the flattened (j, i) axis gives [(b, a), (l, k)], then a transpose
    prod = gate.blocks.reshape(n * n, n * n) @ c.blocks.reshape(m * m, n * n).T
    mat = prod.reshape(n, n, m, m).transpose(1, 3, 0, 2).reshape(n * m, n * m)
    del prod
    return QState(mat, (n, m))


def project(tau: QState) -> QState:
    """The transposed first marginal M1(tau)^T, memoised on the joint."""
    marg = getattr(tau, "_projected", None)
    if marg is None:
        _require_joint(tau)
        marg = tau._projected = tau.marginal([1, 0]).transpose()
    return marg


def extract(tau: QState) -> QChannel:
    """Disintegrate a joint with invertible proj into a unital channel.

    The channel is memoised on the joint, which is immutable, so every
    later call on the same QState returns the same QChannel; two threads
    racing on a fresh joint can only compute it twice. A failed extract
    stores nothing, so it raises again on the next call.
    """
    chan = getattr(tau, "_extracted", None)
    if chan is not None:
        return chan
    n, m = _require_joint(tau)
    inv_root = psd_inv_sqrt(project(tau).mat)
    # blocks[k, l] = R w[k, l] R with w[k, l]_ij = conj(<ik| tau |jl>),
    # as two flat GEMMs: R @ conj(t) = conj(R^T @ t) because R is
    # Hermitian, contracting i over tau's rows, then j against R.
    left = inv_root.T @ tau.mat.reshape(n, m * n * m)  # [a, k, j, l]
    moved = np.empty((n, m, m, n), dtype=np.complex128)  # [a, k, l, j]
    np.conjugate(left.reshape(n, m, n, m), out=moved.transpose(0, 1, 3, 2))
    np.matmul(moved.reshape(n * m * m, n), inv_root, out=left.reshape(n * m * m, n))
    del moved  # room for the channel's private copy
    blocks = left.reshape(n, m, m, n).transpose(1, 2, 0, 3)  # [k, l, a, b]
    # CP holds by construction: w is a conjugated reindexing of tau^T
    # (PSD), sandwiched by the Hermitian inv_root on both sides.
    chan = QChannel(blocks, (n,), (m,), check_cp=False)
    tau._extracted = chan
    return chan


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
# partial trace, tr_1[(R (x) 1) tau (R (x) 1)] = tr_1[(p (x) 1) tau]. The
# trace of that unnormalized posterior is tr(tau (p (x) 1)) = tr(M1(tau) p),
# the validity, so no marginal is formed to read it. This is lower
# conditioning only: the upper one's marginal keeps sqrt(tau), the root of
# the whole joint.


def crossover_second(tau: QState, p: Effect) -> QState:
    """Condition the joint on p (x) 1, keep the second component.

    post[k, l] = sum_ia p[i, a] tau[(a, k), (i, l)], divided by its own
    trace, the validity of p in M1(tau).
    """
    n, m = _require_side(tau, p, 0)
    rows = p.mat.T.reshape(n, 1, 1, n)  # [a, -, -, i]
    post = (rows @ tau.mat.reshape(n, m, n, m)).sum(axis=0).reshape(m, m)
    return QState(post / _born(complex(post.trace()), evidence=True), (m,))


def inference_forward(tau: QState, p: Effect) -> QState:
    """Channel route to the same posterior: extr >> (proj |^ p^T)."""
    _require_side(tau, p, 0)
    return extract(tau).push(condition_upper(project(tau), p.transpose()))


def crossover_first(tau: QState, q: Effect) -> QState:
    """Condition the joint on 1 (x) q, keep the first component.

    post[i, j] = sum_kb q[k, b] tau[(i, b), (j, k)], divided by its own
    trace, the validity of q in M2(tau).
    """
    n, m = _require_side(tau, q, 1)
    cols = q.mat.T.reshape(m, m, 1)  # [b, k, -]
    post = (tau.mat.reshape(n, m, n, m) @ cols).sum(axis=1).reshape(n, n)
    return QState(post / _born(complex(post.trace()), evidence=True), (n,))


def inference_backward(tau: QState, q: Effect) -> QState:
    """Channel route: (proj |^ (extr << q))^T."""
    _require_side(tau, q, 1)
    chan = extract(tau)
    return condition_upper(project(tau), chan.pull(q)).transpose()
