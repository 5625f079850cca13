"""Seeded randomized verification of the library's equational laws.

Each suite draws random instances (states, predicates, channels, joints),
evaluates both sides of every law it owns, and tracks the maximum
deviation per equation. Determinism: trial i of a run seeded with s uses
an RNG derived from (s, i) and the report is assembled with max
reductions only, so results do not depend on evaluation order and repeat
byte-for-byte across runs.

Inequality claims (the non-commutation, non-reduction, and eta-law
witnesses) are reported as shortfall equations: the deviation recorded is
max(0, threshold - best_found), so the uniform rule pass == (max_dev <
tol) still applies, and the witnessing inputs land in the report's
witnesses list. The rule fails closed: a NaN deviation, or an equation
that no trial evaluated, is a FAIL.

Per-trial failures such as a singular marginal on a degenerate draw are
counted in trial_errors rather than aborting the run.
"""

from __future__ import annotations

import math
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


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2)


def random_qstate(dims, rng: np.random.Generator) -> QState:
    """Full-rank random density matrix (normalized Ginibre square)."""
    dims = check_dims(dims)
    n = math.prod(dims)
    g = _ginibre(n, n, rng)
    rho = g @ g.conj().T
    return QState(rho / np.trace(rho).real, dims)


def random_effect(dims, rng: np.random.Generator) -> Effect:
    """Random effect: positive matrix scaled into the unit interval."""
    dims = check_dims(dims)
    n = math.prod(dims)
    g = _ginibre(n, n, rng)
    pos = g @ g.conj().T
    return Effect(rng.uniform() * pos / op_norm(pos), dims)


def random_qchannel(in_dims, out_dims, rng: np.random.Generator) -> QChannel:
    """Random unital grid from an isometric stack of Kraus operators.

    Draws flat(out_dims) Kraus operators as the blocks of a
    QR-orthonormalized Ginibre matrix, so sum_r A_r^dag A_r = I exactly
    up to rounding. Needs flat(out)^2 >= flat(in) for the stack to admit
    an isometry.
    """
    in_dims = check_dims(in_dims)
    out_dims = check_dims(out_dims)
    n = math.prod(in_dims)
    m = math.prod(out_dims)
    q, _ = np.linalg.qr(_ginibre(m * m, n, rng))
    kraus = [q[j * m : (j + 1) * m, :] for j in range(m)]
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
            [
                EquationResult(eq["name"], eq["max_dev"], eq["tol"], eq["pass"])
                for eq in d["equations"]
            ],
            d.get("witnesses", []),
            d.get("trial_errors", 0),
        )


class _Tracker:
    def __init__(self):
        self._names: list[str] = []
        self._dev: dict[str, float] = {}
        self._tol: dict[str, float] = {}
        self._seen: dict[str, int] = {}
        self.witnesses: list[dict] = []
        self.errors = 0

    def declare(self, name: str, tol: float) -> None:
        self._names.append(name)
        self._dev[name] = 0.0
        self._tol[name] = tol
        self._seen[name] = 0

    def see(self, name: str, dev: float) -> None:
        dev = float(dev)
        # a NaN sticks: nothing compares above it, and it fails the report
        if dev > self._dev[name] or dev != dev:
            self._dev[name] = dev
        self._seen[name] += 1

    def witness(self, claim: str, deviation: float, inputs: dict) -> None:
        self.witnesses.append(
            {"claim": claim, "deviation": float(deviation), "inputs": inputs}
        )

    def report(
        self, suite: str, trials: int, seed: int, tol_override: float | None
    ) -> TrialReport:
        eqs = []
        for name in self._names:
            tol = self._tol[name] if tol_override is None else float(tol_override)
            dev = self._dev[name]
            # fails closed: an equation no trial evaluated does not pass,
            # and a NaN or infinite deviation is never below tol
            passed = self._seen[name] > 0 and dev < tol
            eqs.append(EquationResult(name, dev, tol, passed))
        return TrialReport(
            suite, int(seed), int(trials), eqs, self.witnesses, self.errors
        )


# ---------------------------------------------------------------------------
# suites


def _suite_classical_bayes(seed, trials, dims, t: _Tracker) -> None:
    for name in (
        "product-rule",
        "bayes-rule",
        "successive-conditioning",
        "commuting-conditioning",
        "validity-duality",
        "inference-forward",
        "inference-backward",
    ):
        t.declare(name, CLASSICAL_TOL)
    for i in range(trials):
        rng = trial_rng(seed, i)
        xs = labeled_space("x", int(rng.integers(4, 7)))
        ys = labeled_space("y", int(rng.integers(4, 7)))
        omega = random_dist(xs, rng)
        p = random_fuzzy_pred(xs, rng)
        q = random_fuzzy_pred(xs, rng)
        c = random_stoch_channel(xs, ys, rng)
        qy = random_fuzzy_pred(ys, rng)
        tau = random_dist(xs.tensor(ys), rng)
        try:
            v_p = cl.validity(omega, p)
            v_q = cl.validity(omega, q)
            w_p = cl.condition(omega, p)
            w_q = cl.condition(omega, q)
            t.see(
                "product-rule",
                abs(
                    cl.validity(w_p, q) * v_p
                    - cl.validity(omega, cl.conjunction(p, q))
                ),
            )
            t.see(
                "bayes-rule",
                abs(cl.validity(w_p, q) * v_p - cl.validity(w_q, p) * v_q),
            )
            t.see(
                "successive-conditioning",
                np.max(
                    np.abs(
                        cl.condition(w_p, q).probs
                        - cl.condition(omega, cl.conjunction(p, q)).probs
                    )
                ),
            )
            t.see(
                "commuting-conditioning",
                np.max(
                    np.abs(cl.condition(w_p, q).probs - cl.condition(w_q, p).probs)
                ),
            )
            t.see(
                "validity-duality",
                abs(cl.validity(c.push(omega), qy) - cl.validity(omega, c.pull(qy))),
            )
            lhs = cl.condition(tau, p.tensor(FuzzyPred.truth(ys))).marginal([0, 1])
            rhs = cl.extract(tau).push(cl.condition(tau.marginal([1, 0]), p))
            t.see("inference-forward", np.max(np.abs(lhs.probs - rhs.probs)))
            lhs = cl.condition(tau, FuzzyPred.truth(xs).tensor(qy)).marginal([1, 0])
            rhs = cl.condition(tau.marginal([1, 0]), cl.extract(tau).pull(qy))
            t.see("inference-backward", np.max(np.abs(lhs.probs - rhs.probs)))
        except (ZeroValidityError, SupportError):
            t.errors += 1


def _suite_semiexp(seed, trials, dims, t: _Tracker) -> None:
    t.declare("beta-law", CLASSICAL_TOL)
    t.declare("naturality", CLASSICAL_TOL)
    t.declare("eta-violation-shortfall", SHORTFALL_TOL)
    best = 0.0
    best_tau = None
    for i in range(trials):
        rng = trial_rng(seed, i)
        zs = labeled_space("z", int(rng.integers(2, 5)))
        xs = labeled_space("x", int(rng.integers(2, 5)))
        ys = labeled_space("y", int(rng.integers(2, 5)))
        f = random_stoch_channel(zs.tensor(xs), ys, rng)
        lam = cl.abstract(f)
        dev = 0.0
        for z in zs.components[0]:
            for x in xs.components[0]:
                dev = max(
                    dev,
                    float(
                        np.max(np.abs(cl.ev(lam[z], x).probs - f.row((z, x)).probs))
                    ),
                )
        t.see("beta-law", dev)
        ws = labeled_space("w", 2)
        g = random_stoch_channel(ws, zs, rng)
        lam_g = cl.abstract(g.tensor(StochChannel.identity(xs)).then(f))
        for w in ws.components[0]:
            mixed = cl.mixture(
                g.row((w,)).probs, [lam[z] for z in zs.components[0]]
            )
            t.see("naturality", np.max(np.abs(lam_g[w].probs - mixed.probs)))
        tau = random_dist(xs.tensor(ys), rng)
        try:
            back = cl.pair(Dist.uniform(xs), cl.extract(tau))
            d = float(np.max(np.abs(back.probs - tau.probs)))
            if d > best:
                best, best_tau = d, tau
        except SupportError:
            t.errors += 1
    t.see("eta-violation-shortfall", max(0.0, WITNESS_THRESHOLD - best))
    if best_tau is not None:
        t.witness("eta-law-violation", best, {"joint": best_tau.to_json()})


def _suite_quantum_bayes(seed, trials, dims, t: _Tracker) -> None:
    t.declare("product-rule-lower", QUANTUM_TOL)
    t.declare("bayes-rule-upper", QUANTUM_TOL)
    for i in range(trials):
        rng = trial_rng(seed, i)
        d = (dims[i % len(dims)],)
        sigma = random_qstate(d, rng)
        p = random_effect(d, rng)
        q = random_effect(d, rng)
        try:
            v_p = qu.validity(sigma, p)
            v_q = qu.validity(sigma, q)
            t.see(
                "product-rule-lower",
                abs(
                    qu.validity(qu.condition_lower(sigma, p), q) * v_p
                    - qu.validity(sigma, qu.andthen(p, q))
                ),
            )
            t.see(
                "bayes-rule-upper",
                abs(
                    qu.validity(qu.condition_upper(sigma, p), q) * v_p
                    - qu.validity(qu.condition_upper(sigma, q), p) * v_q
                ),
            )
        except ZeroValidityError:
            t.errors += 1


def _bipartite(dims) -> tuple[int, int]:
    """The (n, m) a bipartite suite reads from its dimension list."""
    return dims[0], dims[1 % len(dims)]


def _suite_quantum_duality(seed, trials, dims, t: _Tracker) -> None:
    t.declare("validity-duality", QUANTUM_TOL)
    n, m = _bipartite(dims)
    for i in range(trials):
        rng = trial_rng(seed, i)
        sigma = random_qstate((n,), rng)
        c = random_qchannel((n,), (m,), rng)
        q = random_effect((m,), rng)
        t.see(
            "validity-duality",
            abs(qu.validity(c.push(sigma), q) - qu.validity(sigma, c.pull(q))),
        )


def _suite_pair_extract(seed, trials, dims, t: _Tracker) -> None:
    t.declare("project-of-pair", RECOVERY_TOL)
    t.declare("extract-of-pair", RECOVERY_TOL)
    t.declare("pair-of-project-extract", RECOVERY_TOL)
    t.declare("second-marginal-via-push", RECOVERY_TOL)
    t.declare("pairing-two-path", QUANTUM_TOL)
    n, m = _bipartite(dims)
    for i in range(trials):
        rng = trial_rng(seed, i)
        sigma = random_qstate((n,), rng)
        c = random_qchannel((n,), (m,), rng)
        tau = co.pair(sigma, c)
        t.see("project-of-pair", fro_norm(co.project(tau).mat - sigma.mat))
        t.see(
            "extract-of-pair",
            float(np.linalg.norm(co.extract(tau).blocks - c.blocks)),
        )
        t.see(
            "pairing-two-path", fro_norm(co.pair_via_cup(sigma, c).mat - tau.mat)
        )
        other = random_qstate((n, m), rng)
        try:
            marg, chan, second = co.recover(other)
            t.see(
                "pair-of-project-extract",
                fro_norm(co.pair(marg, chan).mat - other.mat),
            )
            t.see(
                "second-marginal-via-push",
                fro_norm(second.mat - other.marginal([0, 1]).mat),
            )
        except SingularMarginalError:
            t.errors += 1


def _suite_inference(seed, trials, dims, t: _Tracker) -> None:
    t.declare("forward-inference", INFERENCE_TOL)
    t.declare("backward-inference", INFERENCE_TOL)
    n, m = _bipartite(dims)
    for i in range(trials):
        rng = trial_rng(seed, i)
        tau = random_qstate((n, m), rng)
        p = random_effect((n,), rng)
        q = random_effect((m,), rng)
        try:
            t.see(
                "forward-inference",
                fro_norm(
                    co.crossover_second(tau, p).mat - co.inference_forward(tau, p).mat
                ),
            )
            t.see(
                "backward-inference",
                fro_norm(
                    co.crossover_first(tau, q).mat - co.inference_backward(tau, q).mat
                ),
            )
        except (SingularMarginalError, ZeroValidityError):
            t.errors += 1


def fixed_witness() -> tuple[QState, Effect, Effect]:
    """The analytic non-commutation instance: I/2, |0><0|, |+><+|."""
    sigma = QState(np.eye(2) / 2, (2,))
    p = Effect([[1.0, 0.0], [0.0, 0.0]], (2,))
    q = Effect([[0.5, 0.5], [0.5, 0.5]], (2,))
    return sigma, p, q


def _witness_devs(sigma: QState, p: Effect, q: Effect) -> tuple[float, float]:
    pq = qu.condition_lower(qu.condition_lower(sigma, p), q)
    qp = qu.condition_lower(qu.condition_lower(sigma, q), p)
    merged = qu.condition_lower(sigma, qu.andthen(p, q))
    return fro_norm(pq.mat - qp.mat), fro_norm(pq.mat - merged.mat)


def _suite_witnesses(seed, trials, dims, t: _Tracker) -> None:
    t.declare("noncommute-fixed-witness", FIXED_WITNESS_TOL)
    t.declare("nonreduce-fixed-witness", FIXED_WITNESS_TOL)
    t.declare("noncommute-search-shortfall", SHORTFALL_TOL)
    t.declare("nonreduce-search-shortfall", SHORTFALL_TOL)
    sigma0, p0, q0 = fixed_witness()
    fix_nc, fix_nr = _witness_devs(sigma0, p0, q0)
    # both orders collapse to pure states a unit Frobenius distance apart
    t.see("noncommute-fixed-witness", abs(fix_nc - 1.0))
    t.see("nonreduce-fixed-witness", abs(fix_nr - 1.0))
    d = (dims[0],)
    best_nc, wit_nc = (fix_nc, (sigma0, p0, q0)) if dims[0] == 2 else (0.0, None)
    best_nr, wit_nr = (fix_nr, (sigma0, p0, q0)) if dims[0] == 2 else (0.0, None)
    for i in range(trials):
        rng = trial_rng(seed, i)
        sigma = random_qstate(d, rng)
        p = random_effect(d, rng)
        q = random_effect(d, rng)
        try:
            dev_nc, dev_nr = _witness_devs(sigma, p, q)
        except ZeroValidityError:
            t.errors += 1
            continue
        if dev_nc > best_nc:
            best_nc, wit_nc = dev_nc, (sigma, p, q)
        if dev_nr > best_nr:
            best_nr, wit_nr = dev_nr, (sigma, p, q)
    t.see("noncommute-search-shortfall", max(0.0, WITNESS_THRESHOLD - best_nc))
    t.see("nonreduce-search-shortfall", max(0.0, WITNESS_THRESHOLD - best_nr))
    for claim, best, wit in (
        ("noncommute", best_nc, wit_nc),
        ("nonreduce", best_nr, wit_nr),
    ):
        if wit is not None:
            sigma, p, q = wit
            t.witness(
                claim,
                best,
                {
                    "state": sigma.to_json(),
                    "pred_p": p.to_json(),
                    "pred_q": q.to_json(),
                },
            )


def _suite_embedding(seed, trials, dims, t: _Tracker) -> None:
    for name in (
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
    ):
        t.declare(name, EMBED_TOL)
    for i in range(trials):
        rng = trial_rng(seed, i)
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
        t.see(
            "embed-validity", abs(cl.validity(omega, p1) - qu.validity(hs, hp1))
        )
        t.see(
            "embed-conjunction",
            fro_norm(
                qu.hat_pred(cl.conjunction(p1, p2)).mat - qu.andthen(hp1, hp2).mat
            ),
        )
        t.see(
            "embed-state-transform",
            fro_norm(qu.hat_state(c.push(omega)).mat - hc.push(hs).mat),
        )
        t.see(
            "embed-pred-transform",
            fro_norm(qu.hat_pred(c.pull(qy)).mat - hc.pull(hq).mat),
        )
        t.see(
            "embed-pair",
            fro_norm(qu.hat_state(cl.pair(omega, c)).mat - co.pair(hs, hc).mat),
        )
        try:
            conditioned = qu.hat_state(cl.condition(omega, p1))
            t.see(
                "embed-condition-lower",
                fro_norm(conditioned.mat - qu.condition_lower(hs, hp1).mat),
            )
            t.see(
                "embed-condition-upper",
                fro_norm(conditioned.mat - qu.condition_upper(hs, hp1).mat),
            )
            t.see(
                "embed-extract",
                float(
                    np.linalg.norm(
                        qu.hat_channel(cl.extract(tau)).blocks
                        - co.extract(htau).blocks
                    )
                ),
            )
            prior = tau.marginal([1, 0])
            fwd = cl.extract(tau).push(cl.condition(prior, p1))
            t.see(
                "embed-inference-forward",
                fro_norm(
                    qu.hat_state(fwd).mat - co.inference_forward(htau, hp1).mat
                ),
            )
            bwd = cl.condition(prior, cl.extract(tau).pull(qy))
            t.see(
                "embed-inference-backward",
                fro_norm(
                    qu.hat_state(bwd).mat - co.inference_backward(htau, hq).mat
                ),
            )
        except (ZeroValidityError, SupportError, SingularMarginalError):
            t.errors += 1


SUITES = {
    "classical-bayes": _suite_classical_bayes,
    "semiexp": _suite_semiexp,
    "quantum-bayes": _suite_quantum_bayes,
    "quantum-duality": _suite_quantum_duality,
    "pair-extract": _suite_pair_extract,
    "inference": _suite_inference,
    "witnesses": _suite_witnesses,
    "embedding": _suite_embedding,
}
# Suites that draw channels n -> m with random_qchannel, which needs
# m * m >= n for its Kraus stack to admit an isometry.
_CHANNEL_SUITES = frozenset({"quantum-duality", "pair-extract"})


def run_suite(
    suite: str,
    trials: int = 100,
    seed: int = 2024,
    dims=(3, 5),
    tol: float | None = None,
) -> TrialReport:
    """Run one named suite and return its TrialReport.

    dims is a list of flat dimensions: bipartite suites read (n, m) from
    its first two entries, single-system suites cycle through it per
    trial. A tol override replaces every equation's default tolerance;
    it must be finite and > 0, since an infinite one would pass any
    deviation and a zero, negative or NaN one would fail every equation.
    Dimensions a suite cannot use raise DimensionError before any trial
    runs.
    """
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    if int(trials) < 1:
        raise ValueError("trials must be >= 1")
    if tol is not None and not 0 < float(tol) < math.inf:
        raise ValueError(f"tol must be a finite value > 0, got {tol!r}")
    dims = check_dims(dims)
    n, m = _bipartite(dims)
    if suite in _CHANNEL_SUITES and m * m < n:
        raise DimensionError(
            f"suite {suite} draws channels from dimension {n} to {m}, "
            f"which needs {m}*{m} >= {n}"
        )
    tracker = _Tracker()
    SUITES[suite](int(seed) & U64, int(trials), dims, tracker)
    return tracker.report(suite, trials, seed, tol)
