"""Finite-dimensional quantum probability: states, effects, channels.

States are density matrices (PSD, trace 1), effects (fuzzy predicates)
are operators with 0 <= p <= I, and validity is the Born rule

    sigma |= p  =  tr(sigma p).

Sequential conjunction and the two conditionings:

    p & q            =  sqrt(p) q sqrt(p)
    lower  sigma|_p  =  sqrt(p) sigma sqrt(p) / (sigma |= p)
    upper  sigma|^p  =  sqrt(sigma) p sqrt(sigma) / (sigma |= p)

Lower conditioning satisfies the product rule for &; upper conditioning
satisfies Bayes' rule. They agree on commuting (e.g. diagonal) data and
genuinely differ in general.

Channels are kept in Heisenberg form, as the grid of values on matrix
units of the codomain: a channel c : H -> K with flat dimensions n, m is
stored as the (m, m, n, n) array of blocks

    c[k, l]  =  c(|k><l|),

so predicate transformation is the linear extension

    c << q           =  sum_kl q[k, l] c[k, l]

and state transformation is its Born dual, which comes out with the
block indices swapped:

    (c >> sigma)[k, l]  =  tr(c[l, k] sigma).

Unital grids (sum_k c[k, k] = I) preserve truth and send states to
states; assert maps are the canonical sub-unital example.

Composite indices flatten row-major, matching numpy's kron.

Values are immutable: each constructor validates a private copy of its
input and freezes it (read-only arrays), and no method changes an
object after that. So whatever is derived from a value may be stored on
it, computed on first use and frozen:

- the principal square root of a state or an effect, which both
  conditionings, andthen, asrt and correspond.pair take;
- a joint's projection proj(tau), stored by correspond.project;
- a joint's disintegration extr(tau), stored by correspond.extract.

A memo lives on the instance, never in a table keyed by value, and a
computation that raises stores nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import Dist, FuzzyPred, StochChannel
from .errors import DimensionError, NotPositiveError, ZeroValidityError
from .linalg import (
    EIG_CLIP,
    NORM_TOL,
    ZERO_VALIDITY,
    _check_mask,
    _checked_channel,
    _checked_operator,
    _freeze,
    as_matrix,
    check_dims,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    psd_sqrt,
)


class _Operator:
    """What states and effects share: a square matrix over component dims.

    Each subclass names its `kind`, which tags the JSON form so that a
    saved effect with trace 1 is not read back as a state; untagged files
    are still accepted.
    """

    # _root: the principal square root, memoised by _root_of
    __slots__ = ("mat", "dims", "_root")

    @property
    def flat(self) -> int:
        return self.mat.shape[0]

    def tensor(self, other):
        return type(self)(np.kron(self.mat, other.mat), self.dims + other.dims)

    def transpose(self):
        return type(self)(self.mat.T, self.dims)

    def to_json(self) -> dict:
        d = matrix_to_json(self.mat)
        d["dims"] = list(self.dims)
        d["kind"] = self.kind
        return d

    @classmethod
    def from_json(cls, d: dict):
        tag = d.get("kind", cls.kind)
        if tag != cls.kind:
            raise ValueError(f"stored kind {tag!r}, expected {cls.kind!r}")
        return cls(matrix_from_json(d), d["dims"])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dims={self.dims})"


class QState(_Operator):
    """Density matrix with a recorded component structure `dims`."""

    # memoised by correspond: the joint's disintegration and projection
    __slots__ = ("_extracted", "_projected")
    kind = "state"

    def __init__(self, mat, dims):
        self.mat, self.dims, eigs = _checked_operator(mat, dims, "state")
        if eigs is not None:
            raise NotPositiveError(f"state has eigenvalue {eigs.min():.3e}")
        tr = float(self.mat.trace().real)
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"state has trace {tr!r}, not 1")

    @classmethod
    def maximally_mixed(cls, dims) -> "QState":
        dims = check_dims(dims)
        n = math.prod(dims)
        return cls(np.eye(n) / n, dims)

    def marginal(self, mask) -> "QState":
        bits = _check_mask(mask, len(self.dims))
        kept = tuple(d for d, b in zip(self.dims, bits) if b)
        if not kept:
            raise DimensionError("marginal mask keeps no component")
        return QState(partial_trace(self.mat, self.dims, bits), kept)


class Effect(_Operator):
    """Operator p with 0 <= p <= I; the quantum analogue of a fuzzy event."""

    __slots__ = ()
    kind = "effect"

    def __init__(self, mat, dims):
        self.mat, self.dims, eigs = _checked_operator(
            mat, dims, "effect", high=1.0 + EIG_CLIP
        )
        if eigs is not None:
            raise NotPositiveError(
                f"effect eigenvalues [{eigs.min():.3e}, {eigs.max():.3e}] "
                "leave [0, 1]"
            )

    @classmethod
    def truth(cls, dims) -> "Effect":
        dims = check_dims(dims)
        return cls(np.eye(math.prod(dims)), dims)


class QChannel:
    """A CP map in Heisenberg block form (see the module docstring).

    blocks[k, l] = c(|k><l|) over the codomain basis; shape is
    (flat_out, flat_out, flat_in, flat_in). `unital` is detected from
    sum_k blocks[k, k]: equal to I means unital, below I a sub-channel,
    anything else is rejected.
    """

    __slots__ = ("blocks", "in_dims", "out_dims", "unital")

    def __init__(self, blocks, in_dims, out_dims, *, check_cp: bool = True):
        self.in_dims = check_dims(in_dims)
        self.out_dims = check_dims(out_dims)
        self.blocks, self.unital = _checked_channel(
            blocks, math.prod(self.in_dims), math.prod(self.out_dims), check_cp
        )

    @property
    def in_flat(self) -> int:
        return self.blocks.shape[2]

    @property
    def out_flat(self) -> int:
        return self.blocks.shape[0]

    @classmethod
    def from_kraus(cls, kraus, in_dims, out_dims) -> "QChannel":
        """Build blocks c[k, l] = sum_r A_r^dag |k><l| A_r.

        Kraus-generated grids are CP by construction, so the explicit
        check is skipped.
        """
        in_dims = check_dims(in_dims)
        out_dims = check_dims(out_dims)
        n = math.prod(in_dims)
        m = math.prod(out_dims)
        ops = [as_matrix(a) for a in kraus]
        if not ops or any(a.shape != (m, n) for a in ops):
            raise DimensionError(f"Kraus operators must all be {m}x{n}")
        stack = np.stack(ops)
        blocks = np.einsum("rki,rlj->klij", stack.conj(), stack)
        return cls(blocks, in_dims, out_dims, check_cp=False)

    @classmethod
    def identity(cls, dims) -> "QChannel":
        dims = check_dims(dims)
        return cls.from_kraus([np.eye(math.prod(dims))], dims, dims)

    def pull(self, q: Effect) -> Effect:
        """Predicate transformation c << q = sum_kl q[k, l] c[k, l]."""
        if q.dims != self.out_dims:
            raise DimensionError(f"effect dims {q.dims} vs {self.out_dims}")
        n, m = self.in_flat, self.out_flat
        mat = q.mat.reshape(m * m) @ self.blocks.reshape(m * m, n * n)
        return Effect(mat.reshape(n, n), self.in_dims)

    def push(self, sigma: QState) -> QState:
        """State transformation; requires a unital (truth-preserving) grid."""
        if not self.unital:
            raise ValueError(
                "push on a sub-unital channel loses mass; "
                "use push_operator for the raw subnormalized output"
            )
        return QState(self.push_operator(sigma.mat), self.out_dims)

    def push_operator(self, mat: np.ndarray) -> np.ndarray:
        """(c >> sigma)[k, l] = tr(c[l, k] sigma), without normalization.

        One matrix-vector product: the (m*m, n*n) grid of flattened
        blocks against vec(sigma^T) gives tr(c[k, l] sigma) at [k, l],
        and the transpose swaps the block indices. For sub-unital grids
        the result is subnormalized (trace below 1) and is returned as a
        bare matrix rather than a QState.
        """
        mat = as_matrix(mat)
        n, m = self.in_flat, self.out_flat
        if mat.shape != (n, n):
            raise DimensionError("matrix does not match the domain")
        flat = self.blocks.reshape(m * m, n * n) @ mat.T.reshape(n * n)
        return flat.reshape(m, m).T

    def tensor(self, other: "QChannel") -> "QChannel":
        # np.kron on the 4-d block arrays is exactly blockwise Kronecker.
        # The CP check is skipped: the Choi matrix of self (x) other is a
        # permutation of Choi(self) (x) Choi(other), PSD whenever both
        # factors are, and both were checked when they were built.
        return QChannel(
            np.kron(self.blocks, other.blocks),
            self.in_dims + other.in_dims,
            self.out_dims + other.out_dims,
            check_cp=False,
        )

    def to_json(self) -> dict:
        return {
            "in_dims": list(self.in_dims),
            "out_dims": list(self.out_dims),
            "blocks": [
                [matrix_to_json(self.blocks[k, l]) for l in range(self.out_flat)]
                for k in range(self.out_flat)
            ],
            "unital": bool(self.unital),
        }

    @classmethod
    def from_json(cls, d: dict) -> "QChannel":
        blocks = np.array(
            [[matrix_from_json(b) for b in row] for row in d["blocks"]]
        )
        chan = cls(blocks, d["in_dims"], d["out_dims"])
        if bool(d.get("unital", chan.unital)) != chan.unital:
            raise ValueError("stored unital flag contradicts the blocks")
        return chan

    def __repr__(self) -> str:
        kind = "unital" if self.unital else "sub-unital"
        return f"QChannel({self.in_dims} -> {self.out_dims}, {kind})"


def _root_of(x: _Operator) -> np.ndarray:
    """The principal square root of a state's or effect's matrix, frozen.

    Computed on the first call and stored on the value, which is
    immutable, so every later call on the same instance returns the
    same array.
    """
    root = getattr(x, "_root", None)
    if root is None:
        root = x._root = _freeze(psd_sqrt(x.mat))
    return root


def _same_dims(a, b) -> None:
    if a.dims != b.dims:
        raise DimensionError(f"dims mismatch: {a.dims} vs {b.dims}")


def _born(v: complex, *, evidence: bool = False) -> float:
    """A Born trace tr(sigma p) as a checked float, clamped to [0, 1].

    Refused when its imaginary part or its distance from [0, 1] exceeds
    EIG_CLIP, and, as evidence to condition on, when it is numerically
    zero.
    """
    if abs(v.imag) > EIG_CLIP:
        raise ValueError(f"validity has imaginary part {v.imag:.3e}")
    x = v.real
    if x < -EIG_CLIP or x > 1.0 + EIG_CLIP:
        raise ValueError(f"validity {x!r} leaves [0, 1]")
    x = min(1.0, max(0.0, x))
    if evidence and x <= ZERO_VALIDITY:
        raise ZeroValidityError(f"evidence has validity {x:.3e}")
    return x


def _trace_of_product(sigma: QState, p: Effect) -> complex:
    _same_dims(sigma, p)
    # tr(sigma p) = sum_ij sigma_ij p_ji, without forming the product
    return complex(np.sum(sigma.mat * p.mat.T))


def validity(sigma: QState, p: Effect) -> float:
    """Born validity sigma |= p = tr(sigma p), clamped to [0, 1]."""
    return _born(_trace_of_product(sigma, p))


def andthen(p: Effect, q: Effect) -> Effect:
    """Sequential conjunction p & q = sqrt(p) q sqrt(p).

    Commutative exactly when p and q commute; the order matters in
    general, which is what blocks a naive successive-conditioning law.
    """
    _same_dims(p, q)
    root = _root_of(p)
    return Effect(root @ q.mat @ root, p.dims)


def condition_lower(sigma: QState, p: Effect) -> QState:
    """sigma|_p = sqrt(p) sigma sqrt(p) / validity. Product-rule form."""
    v = _born(_trace_of_product(sigma, p), evidence=True)
    root = _root_of(p)
    return QState(root @ sigma.mat @ root / v, sigma.dims)


def condition_upper(sigma: QState, p: Effect) -> QState:
    """sigma|^p = sqrt(sigma) p sqrt(sigma) / validity. Bayes-rule form."""
    v = _born(_trace_of_product(sigma, p), evidence=True)
    root = _root_of(sigma)
    return QState(root @ p.mat @ root / v, sigma.dims)


def asrt(p: Effect) -> QChannel:
    """Assert map of p: blocks sqrt(p) |k><l| sqrt(p); unital iff p = I."""
    return QChannel.from_kraus([_root_of(p)], p.dims, p.dims)


def cup(n: int) -> QState:
    """Maximally correlated state (1/n) sum_ij |ii><jj| on H (x) H."""
    if n < 1:
        raise DimensionError("cup needs n >= 1")
    v = np.zeros(n * n, dtype=np.complex128)
    v[:: n + 1] = 1.0
    return QState(np.outer(v, v.conj()) / n, (n, n))


def hat_state(omega: Dist) -> QState:
    """Diagonal embedding of a distribution, dims = component sizes."""
    return QState(np.diag(omega.probs).astype(np.complex128), omega.space.shape)


def hat_pred(p: FuzzyPred) -> Effect:
    """Diagonal embedding of a fuzzy predicate."""
    return Effect(np.diag(p.values).astype(np.complex128), p.space.shape)


def hat_channel(c: StochChannel) -> QChannel:
    """Embed a stochastic matrix as a diagonal-block grid.

    blocks[k, k] = diag_x c(x)(y_k) and the off-diagonal blocks vanish,
    so pull/push reduce to the classical transforms on diagonal data.
    """
    n, m = c.dom.size, c.cod.size
    blocks = np.zeros((m, m, n, n), dtype=np.complex128)
    for k in range(m):
        blocks[k, k] = np.diag(c.matrix[:, k])
    return QChannel(blocks, c.dom.shape, c.cod.shape)
