"""The benchmark's workloads, their per-round call lists, and the size guard.

A round is one workload's unit of user-visible work: a fixed list of
`qbayes verify ... --json` invocations. Round r of a run seeded with s
passes every call the seed derived from (s, r), so the same seed gives the
same inputs. Round 0 is the untimed warm-up; timed rounds start at 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

ALL_SUITES = (
    "classical-bayes",
    "semiexp",
    "quantum-bayes",
    "quantum-duality",
    "pair-extract",
    "inference",
    "witnesses",
    "embedding",
)


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    dims: tuple[int, int]
    trials: int  # per suite call
    # Timed rounds run until --seconds have passed and at least this many
    # rounds are done. headroom_digits is taken over rounds 1..min_rounds
    # only, so it does not depend on how fast the code is.
    min_rounds: int
    # Fixed rounds timed once untraced and once traced in a --trace 1 run,
    # so per-layer counts repeat exactly for a given seed.
    trace_rounds: int

    @property
    def trials_per_round(self) -> int:
        return self.trials * len(self.suites)


WORKLOADS = {
    w.name: w
    for w in (
        # All eight suites at the default dims: small matrices, so per-object
        # Python overhead (constructor validation, check_dims, as_matrix)
        # dominates and the einsum kernels cost almost nothing.
        Workload("verify-mix", ALL_SUITES, (3, 5), 20, 40, 6),
        # A 256x256 joint: extract's einsum sandwich, constructor eigvalsh and
        # psd_sqrt's eigh dominate; per-object overhead is negligible.
        Workload("inference-large", ("inference",), (16, 16), 1, 40, 8),
        # Builds channels and joints (from_kraus, tensor, pair): the CP
        # eigvalsh on the 625x625 Choi matrix of pair_via_cup dominates.
        Workload("pair-extract-mid", ("pair-extract",), (5, 5), 3, 40, 8),
    )
}


def round_seed(seed: int, r: int) -> int:
    """A 63-bit seed derived from the run seed and the round index."""
    digest = hashlib.sha256(f"{int(seed)}:{int(r)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def round_calls(w: Workload, seed: int, r: int) -> list[tuple[str, list[str]]]:
    """The (suite, argv) pairs of round r, in the order they run."""
    s = str(round_seed(seed, r))
    dims = ",".join(str(d) for d in w.dims)
    return [
        (suite, ["verify", "--suite", suite, "--trials", str(w.trials),
                 "--dims", dims, "--seed", s, "--json"])
        for suite in w.suites
    ]


# Largest array (bytes, complex128) one suite call builds, from its dims.
# pair_via_cup forms asrt(sigma^T) (x) c: (nm)^2 blocks of n^2 x n^2, and
# runs the CP eigvalsh on its Choi matrix, n^3 m square: the same count.
# The classical and embedding suites draw spaces of at most 6 and 4
# outcomes whatever the dims.
_PEAK_BYTES = {
    "classical-bayes": lambda n, m: 36 * 36 * 8,
    "semiexp": lambda n, m: 16 * 16 * 8,
    "quantum-bayes": lambda n, m: max(n, m) ** 2 * 16,
    "quantum-duality": lambda n, m: (m * n) ** 2 * 16,
    "pair-extract": lambda n, m: (n * m) ** 2 * n**4 * 16,
    "inference": lambda n, m: (n * m) ** 2 * 16,
    "witnesses": lambda n, m: n * n * 16,
    "embedding": lambda n, m: 16 * 16 * 16,
}


def peak_array_mb(suites, dims) -> float:
    """computed_peak_array_mb: the largest array any of the suites builds."""
    n, m = dims[0], dims[1 % len(dims)]
    return max(_PEAK_BYTES[s](n, m) for s in suites) / 2**20


def size_refusal(suites, dims, available_mb: float) -> str | None:
    """A note explaining why this configuration must not start, or None."""
    peak = peak_array_mb(suites, dims)
    if peak > available_mb:
        return (
            f"refused: {','.join(suites)} at dims {tuple(dims)} builds a "
            f"{peak:.0f} MB array (computed), above the {available_mb:.0f} MB "
            "of memory available"
        )
    return None
