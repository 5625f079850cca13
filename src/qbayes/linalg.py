"""Dense complex-matrix primitives shared by the probability layers.

Matrices are numpy complex128 arrays throughout. Composite systems are
flattened row-major: basis index (i, k) of a system with dimension list
(n, m) sits at flat position i * m + k, which is exactly numpy's kron /
reshape convention, so no permutations are needed anywhere.

The numerical tolerances of every layer live here, one constant per
rule, so that every caller agrees on what "Hermitian", "PSD",
"normalised" or "invertible" means. So do the checks that the
classical and quantum value types run on their input.
"""

from __future__ import annotations

import string

import numpy as np

from .errors import DimensionError, NotPositiveError, SingularMarginalError

# Largest entrywise |a - a^dag| still read as Hermitian (also the
# hermiticity pattern of a channel's blocks).
HERMITIAN_TOL = 1e-9
# Eigenvalues in [-EIG_CLIP, 0) are rounding noise and get clipped to 0;
# anything below -EIG_CLIP is a genuine positivity violation. The same
# slack bounds effects above by 1 and a Born validity to [0, 1].
EIG_CLIP = 1e-10
# Slack on "sums to one": a distribution's mass, each channel row, a
# state's trace, and a quantum channel's unitality sum_k c[k, k] = I.
NORM_TOL = 1e-9
# Slack on the smallest eigenvalue of a channel's Choi matrix.
CP_TOL = 1e-8
# Classical probabilities and predicate values within PROB_CLIP outside
# their range are rounding noise and get clipped.
PROB_CLIP = 1e-12
# Evidence (or marginal mass) at or below this is numerically zero.
ZERO_VALIDITY = 1e-12
# Inverse square roots are refused when the smallest eigenvalue is not
# safely above INV_CUTOFF times the largest.
INV_CUTOFF = 1e-8
# Imaginary parts below this are printed as zero.
IMAG_PRINT_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} entries must be finite")


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {mat.shape}")
    _require_finite(mat, "matrix")
    return mat


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def op_norm(a: np.ndarray) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return a.shape[0] == a.shape[1] and bool(
        np.max(np.abs(a - a.conj().T)) <= tol
    )


def _hermitian_part(a: np.ndarray, what: str) -> np.ndarray:
    if not is_hermitian(a):
        raise NotPositiveError(f"{what}: matrix is not Hermitian")
    # symmetrize before eigh so the decomposition reproduces the input
    # to working precision even when it carries ~1e-10 asymmetry noise
    return (a + a.conj().T) / 2


def _checked_operator(
    mat, dims, what: str
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Validate a square Hermitian operator whose flat size factors as dims.

    Returns a frozen complex copy of `mat`, the checked dims and the
    eigenvalues of its symmetrised part, for the caller's range check.
    """
    m = as_matrix(mat).copy()
    dims = check_dims(dims, m.shape[0])
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square")
    return _freeze(m), dims, np.linalg.eigvalsh(_hermitian_part(m, what))


def _checked_entries(values, shape: tuple[int, ...], what: str, stochastic: bool):
    """Validate real classical entries and return them as a frozen array.

    Stochastic entries lie in [0, inf) and sum to 1 along the last axis;
    the others are fuzzy truth values in [0, 1]. Entries less than
    PROB_CLIP outside their range are rounding noise and get clipped.
    """
    arr = np.asarray(values, dtype=float)
    if len(shape) == 1:
        arr = arr.reshape(-1)
    if arr.shape != shape:
        raise DimensionError(f"{what} of shape {arr.shape}, expected {shape}")
    high = None if stochastic else 1.0
    if arr.min() < -PROB_CLIP or (high is not None and arr.max() > high + PROB_CLIP):
        raise ValueError(
            f"{what} span [{arr.min():.3e}, {arr.max():.3e}], "
            f"outside [0, {high or 'inf'}]"
        )
    arr = np.clip(arr, 0.0, high)
    if stochastic:
        sums = arr.sum(axis=-1)
        if abs(sums - 1.0).max() > NORM_TOL:
            raise ValueError(f"{what} sum to {sums!r}, not 1")
    return _freeze(arr)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive square root of a PSD matrix via eigendecomposition."""
    w, v = np.linalg.eigh(_hermitian_part(a, "psd_sqrt"))
    if w.min() < -EIG_CLIP:
        raise NotPositiveError(f"psd_sqrt: eigenvalue {w.min():.3e} below -{EIG_CLIP}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def psd_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse positive square root of a strictly positive matrix."""
    w, v = np.linalg.eigh(_hermitian_part(a, "psd_inv_sqrt"))
    if w.max() <= 0 or w.min() <= INV_CUTOFF * w.max():
        raise SingularMarginalError(
            f"psd_inv_sqrt: eigenvalues span [{w.min():.3e}, {w.max():.3e}], "
            "matrix is singular to working precision"
        )
    root = (v / np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def check_dims(dims, flat: int | None = None) -> tuple[int, ...]:
    """Validate a dimension list; entries >= 1, product matches flat."""
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise DimensionError(f"bad dimension list {dims}")
    if flat is not None and int(np.prod(out)) != flat:
        raise DimensionError(f"dimension list {out} does not flatten to {flat}")
    return out


def partial_trace(a: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out the components of `dims` whose `keep` bit is 0.

    An all-ones mask returns the matrix unchanged, an all-zeros mask the
    1x1 matrix [[tr a]]. The total trace is preserved for every mask.
    """
    mat = as_matrix(a)
    dims = check_dims(dims, mat.shape[0])
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError("partial_trace needs a square matrix")
    bits = [int(b) for b in keep]
    if len(bits) != len(dims) or any(b not in (0, 1) for b in bits):
        raise DimensionError(f"mask {keep} does not match dimension list {dims}")
    k = len(dims)
    if 2 * k > len(string.ascii_lowercase):
        raise DimensionError("too many components")
    row = list(string.ascii_lowercase[:k])
    col = [string.ascii_lowercase[k + i] if bits[i] else row[i] for i in range(k)]
    out = [row[i] for i in range(k) if bits[i]] + [col[i] for i in range(k) if bits[i]]
    sub = "".join(row) + "".join(col) + "->" + "".join(out)
    reduced = np.einsum(sub, mat.reshape(dims + dims))
    side = int(np.prod([d for d, b in zip(dims, bits) if b], initial=1))
    return np.ascontiguousarray(reduced.reshape(side, side))


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize as {"rows", "cols", "re", "im"} with row-major nesting."""
    mat = as_matrix(a)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def matrix_from_json(d: dict) -> np.ndarray:
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise DimensionError("re/im parts must be matching 2-d arrays")
    if re.shape != (int(d["rows"]), int(d["cols"])):
        raise DimensionError("declared rows/cols do not match the entries")
    return as_matrix(re + 1j * im)
