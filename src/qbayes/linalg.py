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
The Hermitian check of an operator conjugates it once, in one
C-ordered pass: h = conj(a^T) is both what max |a - h| is measured
against and, added to a in place and halved, the symmetrised part
(a + a^dag) / 2 that the range check and the square roots go on to
factor.

A spectral range check has a lower bound and may have an upper one: a
state is PSD, an effect lies in 0 <= p <= I, a channel's Choi matrix
is PSD (complete positivity), and a sub-unital channel's slack
I - sum_k c[k, k] is PSD. It is decided by a Cholesky factorisation of
the shifted matrix: h - low*I, and high*I - h when there is an upper
bound. A factorisation that succeeds certifies the range: Cholesky is
backward stable and costs about a quarter of a full spectrum. The
factor is written in place, over h or over the stacked shifted pair,
so a check allocates no factor of its own. Only when one fails does
`eigvalsh` run, on h rebuilt from its source, to confirm the
rejection and word its message; an input it finds in range is
accepted. The thresholds below mean what they say about eigenvalues
either way: the accepted set differs from an exact spectral test only
within rounding of the boundary. Each check raises its own refusal.
"""

from __future__ import annotations

import math
import operator
import string

import numpy as np
from numpy.linalg import _umath_linalg

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
# A sub-unital channel's slack I - sum_k c[k, k] may have no eigenvalue
# below -NORM_TOL, checked as a Cholesky of the slack plus NORM_TOL * I.
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

# numpy's LAPACK gufunc behind np.linalg.cholesky, which has no out=: it
# writes each matrix's lower Cholesky factor into out, and NaN-fills the
# factor of a matrix that is not positive definite. It is a private
# module; its (m,m)->(m,m) signature and the NaN fill were checked on
# numpy 2.4.6, and tests/test_linalg.py::TestFactorInPlace pins both
# for the numpy installed.
_cholesky_lo = _umath_linalg.cholesky_lo


def _conj_gap(a: np.ndarray, b: np.ndarray, conj: bool = True) -> float:
    """max |a - conj(b)| for a view b of a's transpose.

    With conj=False, max |a - b| for b conjugated already.

    A check larger than _GAP_BLOCK entries (a joint state, a channel's
    Choi matrix) is the worst of its row blocks' checks, so that it
    reuses a few small buffers instead of first-touching a fresh
    joint-sized one. A NaN in any block makes the gap NaN.
    """
    if a.size <= _GAP_BLOCK:
        blocks = ((a, b),)
    else:
        step = max(1, _GAP_BLOCK * a.shape[0] // a.size)
        rows = range(0, a.shape[0], step)
        blocks = ((a[r : r + step], b[r : r + step]) for r in rows)
    worst = 0.0
    for x, y in blocks:
        if conj:
            # the ufunc always allocates, where y.conj() of a real array
            # would be y itself
            diff = np.conjugate(y, order="C")
            np.subtract(x, diff, out=diff)
        else:
            diff = x - y
        g = float(np.abs(diff).max())
        if g > worst or g != g:
            worst = g
    return worst


def _conj_mean(a: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """(a + conj(flipped)) / 2 in one fresh C-ordered array.

    With flipped = a.T this is (a + a.conj().T) / 2 bit for bit: the sum
    commutes exactly and the in-place halving is the same division.
    """
    h = np.conjugate(flipped, order="C")
    h += a
    h /= 2
    return h


def _hermitian_part(a: np.ndarray, what: str) -> np.ndarray:
    """(a + a^dag) / 2 in one fresh C-ordered array, once a is Hermitian.

    Symmetrised before a factorisation so that it reproduces the input
    to working precision even when it carries ~1e-10 asymmetry noise.
    The one conjugated copy h = conj(a^T), built in one C-ordered pass,
    is what max |a - h| is measured against and then becomes the mean,
    as in _conj_mean.
    """
    if a.shape[0] != a.shape[1]:
        raise NotPositiveError(f"{what}: matrix is not Hermitian")
    h = np.conjugate(a.T, order="C")
    if not _conj_gap(a, h, conj=False) <= HERMITIAN_TOL:
        raise NotPositiveError(f"{what}: matrix is not Hermitian")
    h += a
    h /= 2
    return h


def _spectrum_outside(
    build, low: float, high: float | None = None
) -> np.ndarray | None:
    """None when every eigenvalue of the Hermitian build() lies in [low, high].

    Otherwise returns its spectrum, for the caller's error message.
    build() returns a fresh C-ordered matrix. The range is certified by
    Cholesky factorisations of h - low*I and, given an upper bound,
    high*I - h, stacked into one call; only when one fails does eigvalsh
    decide, so an input within rounding of a bound is accepted if its
    spectrum says so.

    The factor is written over its input: over h itself for a lower
    bound, over the stacked shifted pair for both. A failed factor is
    NaN-filled, so a lower-bound check calls build() again, for the
    unshifted h that eigvalsh needs.

    Floating-point warnings of the factorisation are off, as inside
    np.linalg.cholesky: a failed factor flags "invalid".
    """
    h = build()
    n = h.shape[0]
    if high is None:
        shifted = h[np.newaxis]
    else:
        shifted = np.empty((2, n, n), dtype=h.dtype)
        shifted[0] = h
        np.negative(h, out=shifted[1])
        shifted[1].reshape(n * n)[:: n + 1] += high
    shifted[0].reshape(n * n)[:: n + 1] -= low
    with np.errstate(all="ignore"):
        _cholesky_lo(shifted, out=shifted)
    # a failed factor is NaN-filled, and one that succeeds ends with the
    # root of a positive pivot; a NaN pivot, which an overflowed h meets
    # unflagged, propagates to that last entry too
    if not np.isnan(shifted[:, -1, -1]).any():
        return None
    eigs = np.linalg.eigvalsh(build() if high is None else h)
    # in range only when both comparisons hold: a NaN spectrum is refused
    if low <= eigs.min() and (high is None or eigs.max() <= high):
        return None
    return eigs


def _checked_operator(
    mat, dims, what: str, high: float | None = None
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validate a square Hermitian operator whose flat size factors as dims.

    Returns a frozen complex copy of `mat` and the checked dims once the
    spectrum of its symmetrised part lies in [-EIG_CLIP, high].
    """
    # one private C-ordered copy, taken before any check reads it
    m = _require_matrix(np.array(mat, dtype=np.complex128, order="C"))
    dims = check_dims(dims, m.shape[0])
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square")
    eigs = _spectrum_outside(lambda: _hermitian_part(m, what), -EIG_CLIP, high)
    if eigs is not None:
        if high is None:
            raise NotPositiveError(f"{what} has eigenvalue {eigs.min():.3e}")
        raise NotPositiveError(
            f"{what} eigenvalues [{eigs.min():.3e}, {eigs.max():.3e}] leave [0, 1]"
        )
    return _freeze(m), dims


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
    slack = np.eye(n) - np.einsum("kkij->ij", arr)
    unital = bool(np.max(np.abs(slack)) <= NORM_TOL)
    if not unital:
        if _spectrum_outside(lambda: _conj_mean(slack, slack.T), -NORM_TOL) is not None:
            raise NotPositiveError("block diagonal sums above the identity")
    if check_cp:
        eigs = _spectrum_outside(
            lambda: _conj_mean(
                arr.transpose(0, 2, 1, 3), arr.transpose(1, 3, 0, 2)
            ).reshape(m * n, m * n),
            -CP_TOL,
        )
        if eigs is not None:
            raise NotPositiveError(
                f"blocks are not completely positive ({eigs.min():.3e})"
            )
    return _freeze(arr), unital


def _eig_span(w: np.ndarray, what: str) -> tuple[float, float]:
    """The least and greatest of eigh's ascending eigenvalues, once finite.

    eigh of a Hermitian part that overflowed to inf returns NaNs, which
    no bound's comparison would refuse; w.min() is NaN if any of w is.
    """
    lo, hi = w.min(), w[-1]
    if not -math.inf < lo <= hi < math.inf:
        raise NotPositiveError(
            f"{what}: eigenvalues [{lo:.3e}, {hi:.3e}] are not finite"
        )
    return lo, hi


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive square root of a PSD matrix via eigendecomposition."""
    w, v = np.linalg.eigh(_hermitian_part(a, "psd_sqrt"))
    lo, _ = _eig_span(w, "psd_sqrt")
    if lo < -EIG_CLIP:
        raise NotPositiveError(f"psd_sqrt: eigenvalue {lo:.3e} below -{EIG_CLIP}")
    w = np.maximum(w, 0.0)  # np.clip(w, 0.0, None) bit for bit
    root = (v * np.sqrt(w)) @ v.conj().T
    return _conj_mean(root, root.T)


def psd_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse positive square root of a strictly positive matrix."""
    w, v = np.linalg.eigh(_hermitian_part(a, "psd_inv_sqrt"))
    lo, hi = _eig_span(w, "psd_inv_sqrt")
    if hi <= 0 or lo <= INV_CUTOFF * hi:
        raise SingularMarginalError(
            f"psd_inv_sqrt: eigenvalues span [{lo:.3e}, {hi:.3e}], "
            "matrix is singular to working precision"
        )
    root = (v / np.sqrt(w)) @ v.conj().T
    return _conj_mean(root, root.T)


def check_dims(dims, flat: int | None = None) -> tuple[int, ...]:
    """Validate a dimension list; integer entries >= 1, product matches flat.

    An entry that is not an integer (2.5, or 2.0) is refused, not truncated.
    """
    try:
        out = tuple(operator.index(d) for d in dims)
    except TypeError:
        raise DimensionError(f"bad dimension list {dims}") from None
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
    """Read matrix_to_json's form; rows and cols are integers, as dims are."""
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise DimensionError("re/im parts must be matching 2-d arrays")
    try:
        declared = (operator.index(d["rows"]), operator.index(d["cols"]))
    except TypeError:
        raise DimensionError("declared rows/cols must be integers") from None
    if re.shape != declared:
        raise DimensionError("declared rows/cols do not match the entries")
    return as_matrix(re + 1j * im)
