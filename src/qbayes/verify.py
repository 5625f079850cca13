"""Seeded randomized verification of the library's equational laws.

Each suite is a declaration: its equations and their tolerances, the
per-trial errors it tolerates, the witness searches it runs, and a trial
that draws random instances (states, predicates, channels, joints) and
yields the deviation of each law as it evaluates it. One driver runs
every suite and tracks the maximum deviation per equation. Determinism:
trial i of a run seeded with s uses an RNG derived from (s, i) and the
report is assembled with max reductions only, so results do not depend
on evaluation order and repeat byte-for-byte across runs.

Inequality claims (the non-commutation, non-reduction, and eta-law
witnesses) are reported as shortfall equations: the deviation recorded is
max(0, threshold - best_found), so the uniform rule pass == (max_dev <
tol) still applies, and the witnessing inputs land in the report's
witnesses list. The rule fails closed: a NaN deviation, or an equation
that no trial evaluated, is a FAIL.

Per-trial failures such as a singular marginal on a degenerate draw are
counted in trial_errors rather than aborting the run; the equations a
trial evaluated before it raised still count.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import classical as cl
from . import correspond as co
from . import quantum as qu
from .classical import Dist, FuzzyPred, Space, StochChannel
from .errors import (
    DimensionError,
    SingularMarginalError,
    SupportError,
    ZeroValidityError,
)
from .linalg import check_dims, fro_norm, op_norm
from .quantum import Effect, QChannel, QState

U64 = (1 << 64) - 1
# A search counts as successful once it exhibits a deviation above this.
WITNESS_THRESHOLD = 0.01

CLASSICAL_TOL = 1e-12
QUANTUM_TOL = 1e-10
RECOVERY_TOL = 1e-9
INFERENCE_TOL = 1e-9
EMBED_TOL = 1e-10
FIXED_WITNESS_TOL = 1e-10
SHORTFALL_TOL = 1e-12


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of one run."""
    return np.random.default_rng([int(seed) & U64, int(index)])


# ---------------------------------------------------------------------------
# random instance generators


# Normals per piece of a Ginibre draw: 32 KiB of float64, a buffer the
# allocator reuses rather than a fresh matrix-sized one.
_DRAW_BLOCK = 4096


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    # the real parts, then the imaginary parts, as one (2, rows, cols)
    # draw would give them: a Generator yields the same stream drawn in
    # pieces. Scaling by the reciprocal is what (re + 1j * im) / sqrt(2)
    # computes, bit for bit.
    g = np.empty((rows, cols), dtype=np.complex128)
    size = rows * cols
    buf = np.empty(min(size, _DRAW_BLOCK))
    scale = 1 / np.sqrt(2)
    for part in (g.real.reshape(size), g.imag.reshape(size)):
        for start in range(0, size, buf.size):
            piece = buf[: size - start]
            rng.standard_normal(out=piece)
            np.multiply(piece, scale, out=part[start : start + piece.size])
    return g


def random_qstate(dims, rng: np.random.Generator) -> QState:
    """Full-rank random density matrix (normalized Ginibre square)."""
    dims = check_dims(dims)
    n = math.prod(dims)
    g = _ginibre(n, n, rng)
    rho = g @ g.conj().T
    del g  # room for the constructor's copies
    rho /= np.trace(rho).real
    return QState(rho, dims)


def random_effect(dims, rng: np.random.Generator) -> Effect:
    """Random effect: positive matrix scaled into the unit interval."""
    dims = check_dims(dims)
    n = math.prod(dims)
    g = _ginibre(n, n, rng)
    pos = g @ g.conj().T
    return Effect(rng.uniform() * pos / op_norm(pos), dims)


def random_qchannel(in_dims, out_dims, rng: np.random.Generator) -> QChannel:
    """Random unital grid from an isometric stack of Kraus operators.

    With n = flat(in_dims) and m = flat(out_dims), draws r = max(m,
    ceil(n / m)) Kraus operators A_r as the m x n blocks of a
    QR-orthonormalized (r * m) x n Ginibre matrix, so sum_r A_r^dag A_r = I
    exactly up to rounding; r * m >= n rows are what the isometry needs.
    """
    in_dims = check_dims(in_dims)
    out_dims = check_dims(out_dims)
    n = math.prod(in_dims)
    m = math.prod(out_dims)
    r = max(m, -(-n // m))
    q, _ = np.linalg.qr(_ginibre(r * m, n, rng))
    kraus = [q[j * m : (j + 1) * m, :] for j in range(r)]
    return QChannel.from_kraus(kraus, in_dims, out_dims)


def labeled_space(prefix: str, n: int) -> Space:
    return Space([f"{prefix}{i}" for i in range(n)])


def random_dist(space: Space, rng: np.random.Generator) -> Dist:
    u = rng.uniform(size=space.size)
    return Dist(space, u / u.sum())


def random_fuzzy_pred(space: Space, rng: np.random.Generator) -> FuzzyPred:
    return FuzzyPred(space, rng.uniform(size=space.size))


def random_stoch_channel(
    dom: Space, cod: Space, rng: np.random.Generator
) -> StochChannel:
    rows = rng.uniform(size=(dom.size, cod.size))
    return StochChannel(dom, cod, rows / rows.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class EquationResult:
    name: str
    max_dev: float
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_dev": self.max_dev,
            "tol": self.tol,
            "pass": self.passed,
        }

    @classmethod
    def from_json(cls, d: dict) -> "EquationResult":
        # _drive's rule, not the stored flag alone: a NaN or
        # out-of-tolerance deviation never reads as a pass
        max_dev, tol = d["max_dev"], d["tol"]
        return cls(d["name"], max_dev, tol, d["pass"] is True and max_dev < tol)


@dataclass
class TrialReport:
    suite: str
    seed: int
    trials: int
    equations: list[EquationResult]
    witnesses: list[dict] = field(default_factory=list)
    trial_errors: int = 0

    @property
    def all_pass(self) -> bool:
        return all(eq.passed for eq in self.equations)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "equations": [eq.to_json() for eq in self.equations],
            "witnesses": self.witnesses,
            "trial_errors": self.trial_errors,
        }

    @classmethod
    def from_json(cls, d: dict) -> "TrialReport":
        return cls(
            d["suite"],
            d["seed"],
            d["trials"],
            [EquationResult.from_json(eq) for eq in d["equations"]],
            d.get("witnesses", []),
            d.get("trial_errors", 0),
        )


# ---------------------------------------------------------------------------
# suites: each is a declaration, and _drive is the one loop that runs them


@dataclass(frozen=True)
class _Suite:
    """One verification suite, as data for _drive.

    equations: the ordered {equation: tol} table of the report.
    tolerated: per-trial error types, counted in trial_errors.
    trial: trial(rng, dims, i) draws trial i's instance from rng and
        yields (equation, deviation) as it evaluates each law, and
        (claim, deviation, inputs) for a search candidate, inputs being
        {key: value with to_json}.
    searches: {claim: shortfall equation}.
    refuse: refuse(dims) says why the suite cannot use dims, or None.
    """

    equations: dict[str, float]
    tolerated: tuple[type[Exception], ...]
    trial: Callable[[np.random.Generator, tuple[int, ...], int], Iterator[tuple]]
    searches: dict[str, str] = field(default_factory=dict)
    refuse: Callable[[tuple[int, ...]], str | None] | None = None


def _drive(
    name: str,
    suite: _Suite,
    seed: int,
    trials: int,
    dims: tuple[int, ...],
) -> TrialReport:
    """Run trials 0..trials-1 of suite and reduce what they yield to a report.

    Every item, (equation, deviation) or (claim, deviation, inputs), is
    reduced by one rule: keep the largest value per name with its
    inputs, and let a NaN stick. A search differs from an equation only
    in its final shortfall and its witness entry. What a trial yielded
    before it raised one of suite.tolerated still counts.
    """
    worst = dict.fromkeys([*suite.equations, *suite.searches], (0.0, None))
    seen = set()
    errors = 0
    for i in range(trials):
        try:
            for key, value, *inputs in suite.trial(trial_rng(seed, i), dims, i):
                value = float(value)
                if value > worst[key][0] or value != value:
                    worst[key] = (value, inputs or None)
                seen.add(key)
        except suite.tolerated:
            errors += 1
    witnesses = []
    for claim, eq in suite.searches.items():
        found, inputs = worst[claim]
        # np.maximum propagates a NaN shortfall, which then fails
        worst[eq] = (float(np.maximum(WITNESS_THRESHOLD - found, 0.0)), None)
        seen.add(eq)
        if inputs is not None:
            (best,) = inputs
            inputs = {key: val.to_json() for key, val in best.items()}
            witnesses.append({"claim": claim, "deviation": found, "inputs": inputs})
    eqs = []
    for eq, tol in suite.equations.items():
        dev = worst[eq][0]
        # fails closed: an equation no trial evaluated does not pass,
        # and a NaN or infinite deviation is never below tol
        eqs.append(EquationResult(eq, dev, tol, eq in seen and dev < tol))
    return TrialReport(name, seed, trials, eqs, witnesses, errors)


def _classical_bayes(rng, dims, i):
    xs = labeled_space("x", int(rng.integers(4, 7)))
    ys = labeled_space("y", int(rng.integers(4, 7)))
    omega = random_dist(xs, rng)
    p = random_fuzzy_pred(xs, rng)
    q = random_fuzzy_pred(xs, rng)
    c = random_stoch_channel(xs, ys, rng)
    qy = random_fuzzy_pred(ys, rng)
    tau = random_dist(xs.tensor(ys), rng)
    v_p = cl.validity(omega, p)
    v_q = cl.validity(omega, q)
    w_p = cl.condition(omega, p)
    w_q = cl.condition(omega, q)
    yield "product-rule", abs(
        cl.validity(w_p, q) * v_p - cl.validity(omega, cl.conjunction(p, q))
    )
    yield "bayes-rule", abs(cl.validity(w_p, q) * v_p - cl.validity(w_q, p) * v_q)
    yield "successive-conditioning", np.max(
        np.abs(
            cl.condition(w_p, q).probs - cl.condition(omega, cl.conjunction(p, q)).probs
        )
    )
    yield "commuting-conditioning", np.max(
        np.abs(cl.condition(w_p, q).probs - cl.condition(w_q, p).probs)
    )
    yield "validity-duality", abs(
        cl.validity(c.push(omega), qy) - cl.validity(omega, c.pull(qy))
    )
    prior = tau.marginal([1, 0])
    lhs = cl.condition(tau, p.tensor(FuzzyPred.truth(ys))).marginal([0, 1])
    rhs = cl.extract(tau).push(cl.condition(prior, p))
    yield "inference-forward", np.max(np.abs(lhs.probs - rhs.probs))
    lhs = cl.condition(tau, FuzzyPred.truth(xs).tensor(qy)).marginal([1, 0])
    rhs = cl.condition(prior, cl.extract(tau).pull(qy))
    yield "inference-backward", np.max(np.abs(lhs.probs - rhs.probs))


def _semiexp(rng, dims, i):
    zs = labeled_space("z", int(rng.integers(2, 5)))
    xs = labeled_space("x", int(rng.integers(2, 5)))
    ys = labeled_space("y", int(rng.integers(2, 5)))
    f = random_stoch_channel(zs.tensor(xs), ys, rng)
    lam = cl.abstract(f)
    for z in zs.components[0]:
        for x in xs.components[0]:
            ev = cl.ev(lam[z], x)
            yield "beta-law", np.max(np.abs(ev.probs - f.row((z, x)).probs))
    ws = labeled_space("w", 2)
    g = random_stoch_channel(ws, zs, rng)
    lam_g = cl.abstract(g.tensor(StochChannel.identity(xs)).then(f))
    for w in ws.components[0]:
        mixed = cl.mixture(g.row((w,)).probs, [lam[z] for z in zs.components[0]])
        yield "naturality", np.max(np.abs(lam_g[w].probs - mixed.probs))
    tau = random_dist(xs.tensor(ys), rng)
    back = cl.pair(Dist.uniform(xs), cl.extract(tau))
    yield "eta-law-violation", np.max(np.abs(back.probs - tau.probs)), {"joint": tau}


def _quantum_bayes(rng, dims, i):
    d = (dims[i % len(dims)],)
    sigma = random_qstate(d, rng)
    p = random_effect(d, rng)
    q = random_effect(d, rng)
    v_p = qu.validity(sigma, p)
    v_q = qu.validity(sigma, q)
    yield "product-rule-lower", abs(
        qu.validity(qu.condition_lower(sigma, p), q) * v_p
        - qu.validity(sigma, qu.andthen(p, q))
    )
    yield "bayes-rule-upper", abs(
        qu.validity(qu.condition_upper(sigma, p), q) * v_p
        - qu.validity(qu.condition_upper(sigma, q), p) * v_q
    )


def _bipartite(dims) -> tuple[int, int]:
    """The (n, m) a bipartite suite reads from its dimension list."""
    return dims[0], dims[1 % len(dims)]


def _quantum_duality(rng, dims, i):
    n, m = _bipartite(dims)
    sigma = random_qstate((n,), rng)
    c = random_qchannel((n,), (m,), rng)
    q = random_effect((m,), rng)
    yield "validity-duality", abs(
        qu.validity(c.push(sigma), q) - qu.validity(sigma, c.pull(q))
    )


def _pair_extract(rng, dims, i):
    n, m = _bipartite(dims)
    sigma = random_qstate((n,), rng)
    c = random_qchannel((n,), (m,), rng)
    tau = co.pair(sigma, c)
    yield "project-of-pair", fro_norm(co.project(tau).mat - sigma.mat)
    yield "extract-of-pair", np.linalg.norm(co.extract(tau).blocks - c.blocks)
    yield "pairing-two-path", fro_norm(co.pair_via_cup(sigma, c).mat - tau.mat)
    other = random_qstate((n, m), rng)
    marg, chan, second = co.recover(other)
    yield "pair-of-project-extract", fro_norm(co.pair(marg, chan).mat - other.mat)
    yield "second-marginal-via-push", fro_norm(
        second.mat - other.marginal([0, 1]).mat
    )


def _inference(rng, dims, i):
    n, m = _bipartite(dims)
    tau = random_qstate((n, m), rng)
    p = random_effect((n,), rng)
    q = random_effect((m,), rng)
    yield "forward-inference", fro_norm(
        co.crossover_second(tau, p).mat - co.inference_forward(tau, p).mat
    )
    yield "backward-inference", fro_norm(
        co.crossover_first(tau, q).mat - co.inference_backward(tau, q).mat
    )


def fixed_witness() -> tuple[QState, Effect, Effect]:
    """The analytic non-commutation instance: I/2, |0><0|, |+><+|."""
    sigma = QState(np.eye(2) / 2, (2,))
    p = Effect([[1.0, 0.0], [0.0, 0.0]], (2,))
    q = Effect([[0.5, 0.5], [0.5, 0.5]], (2,))
    return sigma, p, q


def _conditioning_orders(
    sigma: QState, p: Effect, q: Effect
) -> tuple[QState, QState, float]:
    """(sigma|_p)|_q, (sigma|_q)|_p and their Frobenius distance."""
    pq = qu.condition_lower(qu.condition_lower(sigma, p), q)
    qp = qu.condition_lower(qu.condition_lower(sigma, q), p)
    return pq, qp, fro_norm(pq.mat - qp.mat)


def _witness_candidates(sigma: QState, p: Effect, q: Effect) -> list[tuple]:
    """Both search candidates of one instance, each deviation computed first."""
    pq, _, noncommute = _conditioning_orders(sigma, p, q)
    merged = qu.condition_lower(sigma, qu.andthen(p, q))
    inputs = {"state": sigma, "pred_p": p, "pred_q": q}
    return [
        ("noncommute", noncommute, inputs),
        ("nonreduce", fro_norm(pq.mat - merged.mat), inputs),
    ]


def _witness_dims(dims) -> str | None:
    if dims[0] < 2:
        return (
            f"searches dimension {dims[0]}, where all effects commute; "
            "it needs dims[0] >= 2"
        )
    return None


def _witnesses(rng, dims, i):
    if i == 0:
        fixed = _witness_candidates(*fixed_witness())
        # both orders collapse to pure states a unit Frobenius distance apart
        for claim, dev, _ in fixed:
            yield f"{claim}-fixed-witness", abs(dev - 1.0)
        # the fixed qubit instance seeds the search in its own dimension
        if dims[0] == 2:
            yield from fixed
    d = (dims[0],)
    sigma = random_qstate(d, rng)
    p = random_effect(d, rng)
    q = random_effect(d, rng)
    yield from _witness_candidates(sigma, p, q)


def _embedding(rng, dims, i):
    xs = labeled_space("x", int(rng.integers(2, 5)))
    ys = labeled_space("y", int(rng.integers(2, 5)))
    omega = random_dist(xs, rng)
    p1 = random_fuzzy_pred(xs, rng)
    p2 = random_fuzzy_pred(xs, rng)
    c = random_stoch_channel(xs, ys, rng)
    qy = random_fuzzy_pred(ys, rng)
    tau = random_dist(xs.tensor(ys), rng)
    hs = qu.hat_state(omega)
    hp1 = qu.hat_pred(p1)
    hp2 = qu.hat_pred(p2)
    hc = qu.hat_channel(c)
    hq = qu.hat_pred(qy)
    htau = qu.hat_state(tau)
    yield "embed-validity", abs(cl.validity(omega, p1) - qu.validity(hs, hp1))
    yield "embed-conjunction", fro_norm(
        qu.hat_pred(cl.conjunction(p1, p2)).mat - qu.andthen(hp1, hp2).mat
    )
    yield "embed-state-transform", fro_norm(
        qu.hat_state(c.push(omega)).mat - hc.push(hs).mat
    )
    yield "embed-pred-transform", fro_norm(
        qu.hat_pred(c.pull(qy)).mat - hc.pull(hq).mat
    )
    yield "embed-pair", fro_norm(
        qu.hat_state(cl.pair(omega, c)).mat - co.pair(hs, hc).mat
    )
    conditioned = qu.hat_state(cl.condition(omega, p1))
    yield "embed-condition-lower", fro_norm(
        conditioned.mat - qu.condition_lower(hs, hp1).mat
    )
    yield "embed-condition-upper", fro_norm(
        conditioned.mat - qu.condition_upper(hs, hp1).mat
    )
    yield "embed-extract", np.linalg.norm(
        qu.hat_channel(cl.extract(tau)).blocks - co.extract(htau).blocks
    )
    prior = tau.marginal([1, 0])
    fwd = cl.extract(tau).push(cl.condition(prior, p1))
    yield "embed-inference-forward", fro_norm(
        qu.hat_state(fwd).mat - co.inference_forward(htau, hp1).mat
    )
    bwd = cl.condition(prior, cl.extract(tau).pull(qy))
    yield "embed-inference-backward", fro_norm(
        qu.hat_state(bwd).mat - co.inference_backward(htau, hq).mat
    )


SUITES = {
    "classical-bayes": _Suite(
        dict.fromkeys(
            (
                "product-rule",
                "bayes-rule",
                "successive-conditioning",
                "commuting-conditioning",
                "validity-duality",
                "inference-forward",
                "inference-backward",
            ),
            CLASSICAL_TOL,
        ),
        (ZeroValidityError, SupportError),
        _classical_bayes,
    ),
    "semiexp": _Suite(
        {
            "beta-law": CLASSICAL_TOL,
            "naturality": CLASSICAL_TOL,
            "eta-violation-shortfall": SHORTFALL_TOL,
        },
        (SupportError,),
        _semiexp,
        searches={"eta-law-violation": "eta-violation-shortfall"},
    ),
    "quantum-bayes": _Suite(
        {"product-rule-lower": QUANTUM_TOL, "bayes-rule-upper": QUANTUM_TOL},
        (ZeroValidityError,),
        _quantum_bayes,
    ),
    "quantum-duality": _Suite({"validity-duality": QUANTUM_TOL}, (), _quantum_duality),
    "pair-extract": _Suite(
        {
            "project-of-pair": RECOVERY_TOL,
            "extract-of-pair": RECOVERY_TOL,
            "pair-of-project-extract": RECOVERY_TOL,
            "second-marginal-via-push": RECOVERY_TOL,
            "pairing-two-path": QUANTUM_TOL,
        },
        (SingularMarginalError,),
        _pair_extract,
    ),
    "inference": _Suite(
        {"forward-inference": INFERENCE_TOL, "backward-inference": INFERENCE_TOL},
        (SingularMarginalError, ZeroValidityError),
        _inference,
    ),
    "witnesses": _Suite(
        {
            "noncommute-fixed-witness": FIXED_WITNESS_TOL,
            "nonreduce-fixed-witness": FIXED_WITNESS_TOL,
            "noncommute-search-shortfall": SHORTFALL_TOL,
            "nonreduce-search-shortfall": SHORTFALL_TOL,
        },
        (ZeroValidityError,),
        _witnesses,
        searches={
            "noncommute": "noncommute-search-shortfall",
            "nonreduce": "nonreduce-search-shortfall",
        },
        refuse=_witness_dims,
    ),
    "embedding": _Suite(
        dict.fromkeys(
            (
                "embed-validity",
                "embed-conjunction",
                "embed-condition-lower",
                "embed-condition-upper",
                "embed-state-transform",
                "embed-pred-transform",
                "embed-pair",
                "embed-extract",
                "embed-inference-forward",
                "embed-inference-backward",
            ),
            EMBED_TOL,
        ),
        (ZeroValidityError, SupportError, SingularMarginalError),
        _embedding,
    ),
}


def _whole(value, name: str) -> int:
    """value as an int, refused rather than truncated when not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def run_suite(
    suite: str,
    trials: int = 100,
    seed: int = 2024,
    dims=(3, 5),
) -> TrialReport:
    """Run one named suite and return its TrialReport.

    dims is a list of flat dimensions, read per suite: quantum-duality,
    pair-extract and inference take (n, m) from its first two entries
    (one entry serves as both); quantum-bayes cycles through it, one
    entry per trial; witnesses reads only dims[0]; classical-bayes,
    semiexp and embedding ignore it and draw their own space sizes
    (4 to 6 points for classical-bayes, 2 to 4 for the other two).
    Each equation is judged against the one tolerance its suite
    declares. trials and seed are integers, as dims' entries are: 2.9
    or "3" is refused, not truncated or parsed.
    Dimensions a suite cannot use raise DimensionError before any trial
    runs; only witnesses has such dims, dims[0] = 1, where all effects
    commute.
    """
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    trials = _whole(trials, "trials")
    seed = _whole(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = check_dims(dims)
    spec = SUITES[suite]
    problem = spec.refuse(dims) if spec.refuse else None
    if problem:
        raise DimensionError(f"suite {suite} {problem}")
    return _drive(suite, spec, seed, trials, dims)
