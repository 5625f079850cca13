"""Dense complex-matrix primitives shared by the probability layers.

Matrices are numpy complex128 arrays throughout. Composite systems are
flattened row-major: basis index (i, k) of a system with dimension list
(n, m) sits at flat position i * m + k, which is exactly numpy's kron /
reshape convention, so no permutations are needed anywhere.

The numerical tolerances of every layer live here, one constant per
rule, so that every caller agrees on what "Hermitian", "PSD",
"normalised" or "invertible" means. So do the checks that the
classical and quantum value types run on their input: finiteness first,
then the range. A quantum channel is checked as its Choi matrix
[c[k, l]]_kl (M.-D. Choi, Linear Algebra Appl. 10, 1975): its blocks'
hermiticity pattern is that matrix being Hermitian, and complete
positivity is that matrix being PSD.

Hermiticity is one gap and one symmetriser: `_conj_gap` measures
max |a - conj(flipped)| for a transposed view `flipped` of a (an
operator's a^T, or the block-swapped view that is a channel's Choi
matrix transposed), and `_conj_mean` forms (a + conj(flipped)) / 2.
The Hermitian check of an operator conjugates it once: h = conj(a^T)
is both what max |a - h| is measured against and, added to a in place
and halved, the symmetrised part (a + a^dag) / 2 that the range check
and the square roots go on to factor.

A spectral range check (a state's PSD, an effect's 0 <= p <= I, a
channel's complete positivity and sub-unitality) is decided by a
Cholesky factorisation of the shifted matrix: h - low*I, and high*I - h
when there is an upper bound. A factorisation that succeeds certifies
the range: Cholesky is backward stable and costs about a quarter of a
full spectrum. Only when one fails does `eigvalsh` run, to confirm the
rejection and word its message; an input it finds in range is accepted.
The thresholds below mean what they say about eigenvalues either way:
the accepted set differs from an exact spectral test only within
rounding of the boundary.
"""

from __future__ import annotations

import math
import string

import numpy as np

from .errors import DimensionError, NotPositiveError, SingularMarginalError

# Largest entrywise |a - a^dag| still read as Hermitian (also the
# hermiticity pattern of a channel's blocks).
HERMITIAN_TOL = 1e-9
# Eigenvalues in [-EIG_CLIP, 0) are rounding noise and get clipped to 0;
# anything below -EIG_CLIP is a genuine positivity violation. The same
# slack bounds effects above by 1 and a Born validity to [0, 1]. States
# and effects check it as a Cholesky of the shifted matrix (see above).
EIG_CLIP = 1e-10
# Slack on "sums to one": a distribution's mass, each channel row, a
# state's trace, and a quantum channel's unitality sum_k c[k, k] = I.
# A sub-unital defect sum_k c[k, k] - I may have no eigenvalue above it,
# checked as a Cholesky of NORM_TOL * I minus the defect.
NORM_TOL = 1e-9
# Slack on the smallest eigenvalue of a channel's Choi matrix, checked
# as a Cholesky of the Choi matrix plus CP_TOL * I.
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
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


def _require_matrix(mat: np.ndarray) -> np.ndarray:
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {mat.shape}")
    _require_finite(mat, "matrix entries")
    return mat


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    return _require_matrix(np.asarray(a, dtype=np.complex128))


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def op_norm(a: np.ndarray) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


# Entries per block of a hermiticity check: 64 KiB of complex128, below
# the size at which glibc's allocator maps fresh pages for a buffer.
_GAP_BLOCK = 4096


def _conj_gap(
    a: np.ndarray, flipped: np.ndarray, out: np.ndarray | None = None
) -> float:
    """max |a - conj(flipped)| for a view `flipped` of a's transpose.

    With `out`, a C-ordered array of a's shape, conj(flipped) is written
    there and left for the caller. A check larger than _GAP_BLOCK
    entries (a joint state, a channel's Choi matrix) is the worst of its
    row blocks' checks, so that it reuses a few small buffers instead of
    first-touching a fresh joint-sized one. A NaN in any block makes the
    gap NaN.
    """
    if a.size > _GAP_BLOCK and a.shape[0] > 1:
        step = max(1, _GAP_BLOCK * a.shape[0] // a.size)
        worst = 0.0
        for r in range(0, a.shape[0], step):
            rows = slice(r, r + step)
            g = _conj_gap(a[rows], flipped[rows], None if out is None else out[rows])
            if g > worst or g != g:
                worst = g
        return worst
    if out is None:
        # the ufunc always allocates, where a.conj() of a real array
        # would be a itself
        diff = np.conjugate(flipped, order="C")
        np.subtract(a, diff, out=diff)
    else:
        diff = a - np.conjugate(flipped, out)
    return float(np.abs(diff).max())


def _conj_mean(
    a: np.ndarray, flipped: np.ndarray, h: np.ndarray | None = None
) -> np.ndarray:
    """(a + conj(flipped)) / 2 in one fresh C-ordered array.

    `h`, when given, already holds conj(flipped), as _conj_gap leaves it
    in `out`, and becomes the result. With flipped = a.T this is
    (a + a.conj().T) / 2 bit for bit: the sum commutes exactly and the
    in-place halving is the same division.
    """
    if h is None:
        h = np.conjugate(flipped, order="C")
    h += a
    h /= 2
    return h


def _hermitian_part(a: np.ndarray, what: str) -> np.ndarray:
    """(a + a^dag) / 2 in one fresh C-ordered array, once a is Hermitian.

    Symmetrised before a factorisation so that it reproduces the input
    to working precision even when it carries ~1e-10 asymmetry noise.
    The one conjugated copy conj(a^T) serves the check and the mean.
    """
    h = np.empty(a.shape, dtype=a.dtype)
    if a.shape[0] != a.shape[1] or not _conj_gap(a, a.T, h) <= HERMITIAN_TOL:
        raise NotPositiveError(f"{what}: matrix is not Hermitian")
    return _conj_mean(a, a.T, h)


def _spectrum_outside(
    h: np.ndarray, low: float | None = None, high: float | None = None
) -> np.ndarray | None:
    """None when every eigenvalue of Hermitian h lies in [low, high].

    Otherwise returns the spectrum of h, for the caller's error message.
    The range is certified by Cholesky factorisations of h - low*I and
    high*I - h, stacked into one call when both bounds are given; only
    when one fails does eigvalsh decide, so an input within rounding of
    a bound is accepted if its spectrum says so.

    h must be a C-ordered buffer the caller owns: a one-sided check
    shifts it in place and leaves it shifted when the factorisation
    succeeds (it is restored exactly before eigvalsh runs).
    """
    n = h.shape[0]
    if low is not None and high is not None:
        shifted = np.empty((2, n, n), dtype=h.dtype)
        shifted[0] = h
        np.negative(h, out=shifted[1])
        shifted[0].reshape(n * n)[:: n + 1] -= low
        shifted[1].reshape(n * n)[:: n + 1] += high
    else:
        shifted = h
        diag = h.reshape(n * n)[:: n + 1]
        saved = diag.copy()
        if high is not None:
            np.negative(h, out=h)
            diag += high
        else:
            diag -= low
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        if shifted is h:
            if high is not None:
                np.negative(h, out=h)
            diag[...] = saved
        eigs = np.linalg.eigvalsh(h)
        if (low is not None and eigs.min() < low) or (
            high is not None and eigs.max() > high
        ):
            return eigs
    return None


def _checked_operator(
    mat, dims, what: str, high: float | None = None
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray | None]:
    """Validate a square Hermitian operator whose flat size factors as dims.

    Returns a frozen complex copy of `mat`, the checked dims, and None
    when the spectrum of its symmetrised part lies in [-EIG_CLIP, high],
    else that spectrum for the caller's error message.
    """
    # one private C-ordered copy, taken before any check reads it
    m = _require_matrix(np.array(mat, dtype=np.complex128, order="C"))
    dims = check_dims(dims, m.shape[0])
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square")
    eigs = _spectrum_outside(_hermitian_part(m, what), -EIG_CLIP, high)
    return _freeze(m), dims, eigs


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
    _require_finite(arr, what)
    high = None if stochastic else 1.0
    if arr.min() < -PROB_CLIP or (high is not None and arr.max() > high + PROB_CLIP):
        raise ValueError(
            f"{what} span [{arr.min():.3e}, {arr.max():.3e}], "
            f"outside [0, {high or 'inf'}]"
        )
    # np.clip(arr, 0.0, high) bit for bit, -0.0 included, in a fresh
    # array; the operand order is what np.clip's loops use
    if high is None:
        arr = np.maximum(arr, 0.0)
    else:
        arr = np.minimum(arr, high)
        np.maximum(0.0, arr, out=arr)
    if stochastic:
        sums = arr.sum(axis=-1)
        if abs(sums - 1.0).max() > NORM_TOL:
            raise ValueError(f"{what} sum to {sums!r}, not 1")
    return _freeze(arr)


def _checked_channel(blocks, n: int, m: int, check_cp: bool) -> tuple[np.ndarray, bool]:
    """Validate a channel's (m, m, n, n) blocks c[k, l] as its Choi matrix.

    Returns a frozen complex copy and the unital flag: sum_k c[k, k] = I
    is unital, a sum below I sub-unital, any other sum is rejected.
    """
    arr = np.array(blocks, dtype=np.complex128, order="C")  # the private copy
    if arr.shape != (m, m, n, n):
        raise DimensionError(f"blocks shape {arr.shape}, expected {(m, m, n, n)}")
    _require_finite(arr, "block entries")
    # The Choi matrix choi[(k, i), (l, j)] = c[k, l][i, j] is
    # arr.transpose(0, 2, 1, 3) flattened; it is Hermitian exactly when
    # c[l, k] = c[k, l]^dag, and its conjugate transpose, as 4-d indices,
    # is conj(arr.transpose(1, 3, 0, 2)).
    if not _conj_gap(arr, arr.transpose(1, 0, 3, 2)) <= HERMITIAN_TOL:
        raise NotPositiveError("blocks break the hermiticity pattern")
    gap = np.einsum("kkij->ij", arr) - np.eye(n)
    unital = bool(np.max(np.abs(gap)) <= NORM_TOL)
    if not unital:
        defect = _conj_mean(gap, gap.T)
        if _spectrum_outside(defect, high=NORM_TOL) is not None:
            raise NotPositiveError("block diagonal sums above the identity")
    if check_cp:
        choi = _conj_mean(arr.transpose(0, 2, 1, 3), arr.transpose(1, 3, 0, 2))
        eigs = _spectrum_outside(choi.reshape(m * n, m * n), low=-CP_TOL)
        if eigs is not None:
            raise NotPositiveError(
                f"blocks are not completely positive ({eigs.min():.3e})"
            )
    return _freeze(arr), unital


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive square root of a PSD matrix via eigendecomposition."""
    w, v = np.linalg.eigh(_hermitian_part(a, "psd_sqrt"))
    if w.min() < -EIG_CLIP:
        raise NotPositiveError(f"psd_sqrt: eigenvalue {w.min():.3e} below -{EIG_CLIP}")
    w = np.maximum(w, 0.0)  # np.clip(w, 0.0, None) bit for bit
    root = (v * np.sqrt(w)) @ v.conj().T
    return _conj_mean(root, root.T)


def psd_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse positive square root of a strictly positive matrix."""
    w, v = np.linalg.eigh(_hermitian_part(a, "psd_inv_sqrt"))
    if w.max() <= 0 or w.min() <= INV_CUTOFF * w.max():
        raise SingularMarginalError(
            f"psd_inv_sqrt: eigenvalues span [{w.min():.3e}, {w.max():.3e}], "
            "matrix is singular to working precision"
        )
    root = (v / np.sqrt(w)) @ v.conj().T
    return _conj_mean(root, root.T)


def check_dims(dims, flat: int | None = None) -> tuple[int, ...]:
    """Validate a dimension list; entries >= 1, product matches flat."""
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise DimensionError(f"bad dimension list {dims}")
    if flat is not None and math.prod(out) != flat:
        raise DimensionError(f"dimension list {out} does not flatten to {flat}")
    return out


def _check_mask(mask, arity: int) -> list[int]:
    """The 0/1 bits of a marginal mask over `arity` components."""
    bits = [int(b) for b in mask]
    if len(bits) != arity or any(b not in (0, 1) for b in bits):
        raise DimensionError(f"mask {mask} does not fit arity {arity}")
    return bits


def partial_trace(a: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out the components of `dims` whose `keep` bit is 0.

    An all-ones mask returns the matrix unchanged, an all-zeros mask the
    1x1 matrix [[tr a]]. The total trace is preserved for every mask.
    """
    mat = as_matrix(a)
    dims = check_dims(dims, mat.shape[0])
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError("partial_trace needs a square matrix")
    bits = _check_mask(keep, len(dims))
    k = len(dims)
    if 2 * k > len(string.ascii_lowercase):
        raise DimensionError("too many components")
    row = list(string.ascii_lowercase[:k])
    col = [string.ascii_lowercase[k + i] if bits[i] else row[i] for i in range(k)]
    out = [row[i] for i in range(k) if bits[i]] + [col[i] for i in range(k) if bits[i]]
    sub = "".join(row) + "".join(col) + "->" + "".join(out)
    reduced = np.einsum(sub, mat.reshape(dims + dims))
    side = math.prod(d for d, b in zip(dims, bits) if b)
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
