"""Discrete probability: states, fuzzy predicates, channels, conditioning.

The core calculus:

    validity        w |= p   =  sum_x w(x) p(x)
    conditioning    (w|p)(x) =  w(x) p(x) / (w |= p)
    transformation  (c >> w)(y) = sum_x w(x) c(x)(y)
                    (c << q)(x) = sum_y c(x)(y) q(y)
    pairing         pair(w, c)(x, y) = w(x) c(x)(y)
    extraction      extr(t)(x)(y) = t(x, y) / M1(t)(x)

Pairing and extraction are mutually inverse on full-support joints, which
is what makes crossover inference (condition the joint, take a marginal)
agree with channel-based inference (condition the prior, push forward).

All values are immutable. Every operation returns a fresh object, except
that extract memoises a joint's disintegration on the Dist: a later call
on the same instance returns the same channel, and a failed one stores
nothing.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DimensionError, SupportError, ZeroValidityError
from .linalg import ZERO_VALIDITY, _check_mask, _checked_entries


class Space:
    """An ordered product of finite label sets.

    A plain sample space is a one-component product; joints and tensors
    keep the component structure so marginalization masks stay
    unambiguous. Outcomes enumerate in row-major product order, matching
    the flattening used on the quantum side.
    """

    __slots__ = ("components",)

    def __init__(self, *components: Iterable[str]):
        comps = []
        for labels in components:
            labels = tuple(str(x) for x in labels)
            if not labels:
                raise DimensionError("a space component cannot be empty")
            if len(set(labels)) != len(labels):
                raise DimensionError(f"duplicate labels in component {labels}")
            comps.append(labels)
        if not comps:
            raise DimensionError("a space needs at least one component")
        self.components: tuple[tuple[str, ...], ...] = tuple(comps)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def outcomes(self) -> list[tuple[str, ...]]:
        return list(itertools.product(*self.components))

    def index(self, outcome: Sequence[str]) -> int:
        outcome = tuple(outcome)
        if len(outcome) != len(self.components):
            raise DimensionError(f"outcome {outcome} has wrong arity")
        idx = 0
        for label, comp in zip(outcome, self.components):
            if label not in comp:
                raise DimensionError(f"unknown label {label!r}")
            idx = idx * len(comp) + comp.index(label)
        return idx

    def tensor(self, other: "Space") -> "Space":
        return Space(*(self.components + other.components))

    def keep(self, mask: Sequence[int]) -> "Space":
        bits = _check_mask(mask, len(self.components))
        kept = [c for c, b in zip(self.components, bits) if b]
        if not kept:
            raise DimensionError("marginal mask keeps no component")
        return Space(*kept)

    def __eq__(self, other) -> bool:
        return isinstance(other, Space) and self.components == other.components

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "Space" + repr(tuple(list(c) for c in self.components))


def _ket(space: Space, values: np.ndarray) -> str:
    terms = [
        f"{v:.3g}|{','.join(o)}>" for o, v in zip(space.outcomes(), values)
    ]
    return " + ".join(terms)


class Dist:
    """A probability distribution over the outcomes of a Space."""

    # _extracted: the joint's disintegration, memoised by extract
    __slots__ = ("space", "probs", "_extracted")

    def __init__(self, space: Space, probs):
        self.probs = _checked_entries(
            probs, (space.size,), "probabilities", stochastic=True
        )
        self.space = space

    @classmethod
    def uniform(cls, space: Space) -> "Dist":
        return cls(space, np.full(space.size, 1.0 / space.size))

    @classmethod
    def point(cls, space: Space, outcome: Sequence[str]) -> "Dist":
        probs = np.zeros(space.size)
        probs[space.index(outcome)] = 1.0
        return cls(space, probs)

    def mass(self, outcome: Sequence[str]) -> float:
        return float(self.probs[self.space.index(outcome)])

    def tensor(self, other: "Dist") -> "Dist":
        return Dist(
            self.space.tensor(other.space), np.outer(self.probs, other.probs)
        )

    def marginal(self, mask: Sequence[int]) -> "Dist":
        bits = _check_mask(mask, len(self.space.components))
        axes = tuple(i for i, b in enumerate(bits) if not b)
        reduced = self.probs.reshape(self.space.shape).sum(axis=axes)
        return Dist(self.space.keep(bits), reduced)

    def to_json(self) -> dict:
        return {
            "labels": [list(o) for o in self.space.outcomes()],
            "probs": self.probs.tolist(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "Dist":
        return cls(_space_from_outcomes(d["labels"]), d["probs"])

    def __str__(self) -> str:
        return _ket(self.space, self.probs)

    def __repr__(self) -> str:
        return f"Dist({self})"


def _space_from_outcomes(rows) -> Space:
    outs = [(row,) if isinstance(row, str) else tuple(row) for row in rows]
    if not outs:
        raise DimensionError("no outcomes")
    arity = len(outs[0])
    comps = []
    for i in range(arity):
        seen: list[str] = []
        for o in outs:
            if len(o) != arity:
                raise DimensionError("ragged outcome list")
            if o[i] not in seen:
                seen.append(o[i])
        comps.append(seen)
    space = Space(*comps)
    if space.outcomes() != outs:
        raise DimensionError("outcomes are not a row-major product enumeration")
    return space


class FuzzyPred:
    """A [0,1]-valued predicate (fuzzy event) on a Space."""

    __slots__ = ("space", "values")

    def __init__(self, space: Space, values):
        self.values = _checked_entries(
            values, (space.size,), "predicate values", stochastic=False
        )
        self.space = space

    @classmethod
    def truth(cls, space: Space) -> "FuzzyPred":
        return cls(space, np.ones(space.size))

    @classmethod
    def point(cls, space: Space, outcome: Sequence[str]) -> "FuzzyPred":
        values = np.zeros(space.size)
        values[space.index(outcome)] = 1.0
        return cls(space, values)

    def tensor(self, other: "FuzzyPred") -> "FuzzyPred":
        return FuzzyPred(
            self.space.tensor(other.space), np.outer(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"FuzzyPred({_ket(self.space, self.values)})"


class StochChannel:
    """A channel dom -> cod: one distribution over cod per dom outcome."""

    __slots__ = ("dom", "cod", "matrix")

    def __init__(self, dom: Space, cod: Space, matrix):
        self.matrix = _checked_entries(
            matrix, (dom.size, cod.size), "channel rows", stochastic=True
        )
        self.dom = dom
        self.cod = cod

    @classmethod
    def identity(cls, space: Space) -> "StochChannel":
        return cls(space, space, np.eye(space.size))

    @classmethod
    def constant(cls, dom: Space, dist: Dist) -> "StochChannel":
        return cls(dom, dist.space, np.tile(dist.probs, (dom.size, 1)))

    def row(self, outcome: Sequence[str]) -> Dist:
        return Dist(self.cod, self.matrix[self.dom.index(outcome)])

    def push(self, omega: Dist) -> Dist:
        """State transformation (c >> w)(y) = sum_x w(x) c(x)(y)."""
        _same_space(omega.space, self.dom)
        return Dist(self.cod, omega.probs @ self.matrix)

    def pull(self, q: FuzzyPred) -> FuzzyPred:
        """Predicate transformation (c << q)(x) = sum_y c(x)(y) q(y)."""
        _same_space(q.space, self.cod)
        return FuzzyPred(self.dom, self.matrix @ q.values)

    def then(self, d: "StochChannel") -> "StochChannel":
        """Composite running self first, then d."""
        _same_space(self.cod, d.dom)
        return StochChannel(self.dom, d.cod, self.matrix @ d.matrix)

    def tensor(self, other: "StochChannel") -> "StochChannel":
        return StochChannel(
            self.dom.tensor(other.dom),
            self.cod.tensor(other.cod),
            np.kron(self.matrix, other.matrix),
        )

    def to_json(self) -> dict:
        return {
            "dom": _space_to_json(self.dom),
            "cod": _space_to_json(self.cod),
            "rows": self.matrix.tolist(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "StochChannel":
        return cls(
            _space_from_outcomes(d["dom"]),
            _space_from_outcomes(d["cod"]),
            d["rows"],
        )

    def __repr__(self) -> str:
        return f"StochChannel({self.dom!r} -> {self.cod!r})"


def _space_to_json(space: Space):
    if len(space.components) == 1:
        return list(space.components[0])
    return [list(o) for o in space.outcomes()]


def _same_space(a: Space, b: Space) -> None:
    if a != b:
        raise DimensionError(f"space mismatch: {a!r} vs {b!r}")


def validity(omega: Dist, p: FuzzyPred) -> float:
    """w |= p, the expected value of p under w."""
    _same_space(omega.space, p.space)
    return float(omega.probs @ p.values)


def condition(omega: Dist, p: FuzzyPred) -> Dist:
    """w given p: reweight by p and renormalize."""
    v = validity(omega, p)
    if v <= ZERO_VALIDITY:
        raise ZeroValidityError(f"evidence has validity {v:.3e}")
    return Dist(omega.space, omega.probs * p.values / v)


def conjunction(p: FuzzyPred, q: FuzzyPred) -> FuzzyPred:
    """p & q, pointwise product."""
    _same_space(p.space, q.space)
    return FuzzyPred(p.space, p.values * q.values)


def pair(omega: Dist, c: StochChannel) -> Dist:
    """Joint state pair(w, c)(x, y) = w(x) c(x)(y)."""
    _same_space(omega.space, c.dom)
    return Dist(
        omega.space.tensor(c.cod),
        (omega.probs[:, None] * c.matrix).reshape(-1),
    )


def extract(tau: Dist) -> StochChannel:
    """Disintegration of a two-component joint: t(x, y) / M1(t)(x)."""
    chan = getattr(tau, "_extracted", None)
    if chan is not None:
        return chan
    if len(tau.space.components) != 2:
        raise DimensionError("extraction needs a two-component joint")
    xs, ys = tau.space.components
    table = tau.probs.reshape(len(xs), len(ys))
    m1 = table.sum(axis=1)
    for label, mass in zip(xs, m1):
        if mass <= ZERO_VALIDITY:
            raise SupportError(f"first marginal vanishes at label {label!r}")
    chan = tau._extracted = StochChannel(Space(xs), Space(ys), table / m1[:, None])
    return chan


def mixture(weights, dists: Sequence[Dist]) -> Dist:
    """Convex combination of distributions on a common space."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(dists) != w.size or not dists:
        raise DimensionError("one weight per distribution required")
    space = dists[0].space
    acc = np.zeros(space.size)
    for wi, d in zip(w, dists):
        _same_space(d.space, space)
        acc += wi * d.probs
    return Dist(space, acc)


def copier(space: Space, n: int) -> StochChannel:
    """The n-fold copy channel x |-> |x, ..., x>."""
    if n < 1:
        raise DimensionError("copier needs n >= 1")
    cod = space
    for _ in range(n - 1):
        cod = cod.tensor(space)
    # flat index of (x, ..., x) is x * (s^(n-1) + ... + s + 1)
    stride = sum(space.size**j for j in range(n))
    mat = np.zeros((space.size, space.size**n))
    for i in range(space.size):
        mat[i, i * stride] = 1.0
    return StochChannel(space, cod, mat)


def tuple_channels(*channels: StochChannel) -> StochChannel:
    """Tupling <c1, ..., ck>: copy the input, feed one copy to each."""
    if not channels:
        raise DimensionError("tupling needs at least one channel")
    dom = channels[0].dom
    for c in channels:
        _same_space(c.dom, dom)
    wide = channels[0]
    for c in channels[1:]:
        wide = wide.tensor(c)
    return copier(dom, len(channels)).then(wide)


def ev(tau: Dist, x: Sequence[str] | str) -> Dist:
    """Semi-exponential evaluation: the extracted channel's row at x."""
    outcome = (x,) if isinstance(x, str) else tuple(x)
    return extract(tau).row(outcome)


def abstract(f: StochChannel) -> dict[str, Dist]:
    """Semi-exponential abstraction of f : Z x X -> D(Y).

    Each z is sent to the joint pair(uniform_X, f(z, -)), i.e. the joint
    with mass f(z, x)(y) / #X at (x, y). Evaluation recovers f exactly
    (the beta law); the matching eta law genuinely fails, because this
    canonical joint always has a uniform first marginal.
    """
    if len(f.dom.components) != 2:
        raise DimensionError("abstraction needs a two-component domain Z x X")
    zs, xs = f.dom.components
    x_space = Space(xs)
    out = {}
    for z in zs:
        rows = [f.matrix[f.dom.index((z, x))] for x in xs]
        out[z] = pair(Dist.uniform(x_space), StochChannel(x_space, f.cod, rows))
    return out
