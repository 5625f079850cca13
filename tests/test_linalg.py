"""Matrix-kernel checks against small hand values and loop oracles."""

import numpy as np
import pytest

from qbayes import linalg
from qbayes.classical import Dist, FuzzyPred, Space, StochChannel
from qbayes.errors import DimensionError, NotPositiveError, SingularMarginalError
from qbayes.quantum import Effect, QChannel, QState


def _rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestBasicOps:
    def test_trace_of_product_is_cyclic(self):
        rng = np.random.default_rng(0)
        a = _rand_complex(rng, 5, 5)
        b = _rand_complex(rng, 5, 5)
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12

    def test_norms(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert linalg.fro_norm(a) == pytest.approx(5.0)
        assert linalg.op_norm(a) == pytest.approx(4.0)

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.as_matrix([[np.inf, 0], [0, 0]])


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_hand_value(self):
        got = linalg.psd_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(got, np.diag([2.0, 3.0]), atol=1e-12)

    def test_squares_back_relative(self):
        rng = np.random.default_rng(3)
        g = _rand_complex(rng, 5, 5)
        p = g @ g.conj().T
        s = linalg.psd_sqrt(p)
        assert linalg.fro_norm(s @ s - p) / linalg.fro_norm(p) < 1e-9
        assert np.abs(s - s.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(s).min() > -1e-10

    def test_clips_tiny_negative_noise(self):
        s = linalg.psd_sqrt(np.diag([1.0, -5e-11]))
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_genuinely_negative(self):
        with pytest.raises(NotPositiveError):
            linalg.psd_sqrt(np.diag([1.0, -1e-6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveError):
            linalg.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdInvSqrt:
    def test_diagonal_hand_value(self):
        got = linalg.psd_inv_sqrt(np.diag([4.0, 0.25]))
        np.testing.assert_allclose(got, np.diag([0.5, 2.0]), atol=1e-12)

    def test_inverts(self):
        rng = np.random.default_rng(4)
        g = _rand_complex(rng, 4, 4)
        p = g @ g.conj().T + 0.5 * np.eye(4)
        t = linalg.psd_inv_sqrt(p)
        assert linalg.fro_norm(t @ p @ t - np.eye(4)) < 1e-8

    def test_refuses_near_singular(self):
        with pytest.raises(SingularMarginalError):
            linalg.psd_inv_sqrt(np.diag([1.0, 1e-10]))
        with pytest.raises(SingularMarginalError):
            linalg.psd_inv_sqrt(np.zeros((2, 2)))


def _near_hermitian(rng, n, real=False):
    """A Hermitian matrix carrying ~1e-11 of asymmetry noise."""
    if real:
        g = rng.standard_normal((n, n))
        return g + g.T + 1e-11 * rng.standard_normal((n, n))
    g = _rand_complex(rng, n, n)
    return g + g.conj().T + 1e-11 * _rand_complex(rng, n, n)


class TestSymmetrise:
    @pytest.mark.parametrize(
        "case", ["real", "complex", "fortran", "1x1", "256x256"]
    )
    def test_hermitian_part_is_the_textbook_mean_bit_for_bit(self, case):
        rng = np.random.default_rng(11)
        a = {
            "real": lambda: _near_hermitian(rng, 7, real=True),
            "complex": lambda: _near_hermitian(rng, 7),
            "fortran": lambda: np.asfortranarray(_near_hermitian(rng, 7)),
            "1x1": lambda: np.array([[2.0 + 3e-12j]]),
            "256x256": lambda: _near_hermitian(rng, 256),
        }[case]()
        got = linalg._hermitian_part(a, "test")
        want = (a + a.conj().T) / 2
        assert got.dtype == want.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bounds", [(-1e-10, None), (0.0, 1.0)])
    def test_spectrum_outside_reports_the_unshifted_spectrum(self, bounds):
        rng = np.random.default_rng(12)
        h = linalg._hermitian_part(_near_hermitian(rng, 6), "test")
        want = np.linalg.eigvalsh(h)
        got = linalg._spectrum_outside(h.copy(), *bounds)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(300, 300), (6, 6, 7, 7), (1, 1)])
    def test_blocked_gap_is_the_whole_gap(self, shape):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flipped = a.T if a.ndim == 2 else a.transpose(1, 0, 3, 2)
        want = np.max(np.abs(a - np.conj(flipped)))
        assert linalg._conj_gap(a, flipped) == want

    def test_nan_anywhere_is_not_hermitian(self):
        # a later finite block must not overwrite a NaN gap
        for where in [(0, 0), (299, 5), (150, 299)]:
            a = np.eye(300, dtype=complex)
            a[where] = np.nan
            assert np.isnan(linalg._conj_gap(a, a.T)), where
            assert np.isnan(linalg._conj_gap(a, a.T, np.empty_like(a))), where

    def test_spectrum_inside_is_certified(self):
        h = np.diag([0.25, 0.5, 0.75]).astype(complex)
        assert linalg._spectrum_outside(h.copy(), -1e-10) is None
        assert linalg._spectrum_outside(h.copy(), -1e-10, 1.0) is None


def _partial_trace_oracle(mat, dims, keep):
    """Plain-loop partial trace used as an independent oracle."""
    kept = [i for i, b in enumerate(keep) if b]
    lost = [i for i, b in enumerate(keep) if not b]
    kept_dims = [dims[i] for i in kept]
    side = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((side, side), dtype=complex)
    idx = list(np.ndindex(*dims))
    for r, row in enumerate(idx):
        for c, col in enumerate(idx):
            if any(row[i] != col[i] for i in lost):
                continue
            rk = 0
            ck = 0
            for i in kept:
                rk = rk * dims[i] + row[i]
                ck = ck * dims[i] + col[i]
            out[rk, ck] += mat[r, c]
    return out


class TestPartialTrace:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        mat = _rand_complex(rng, 12, 12)
        for keep in ([1, 0], [0, 1], [1, 1], [0, 0]):
            got = linalg.partial_trace(mat, (3, 4), keep)
            want = _partial_trace_oracle(mat, (3, 4), keep)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_product_state_factors(self):
        rng = np.random.default_rng(12)
        a = _rand_complex(rng, 3, 3)
        b = _rand_complex(rng, 5, 5)
        b = b / np.trace(b)
        got = linalg.partial_trace(np.kron(a, b), (3, 5), [1, 0])
        np.testing.assert_allclose(got, a, atol=1e-12)

    def test_all_ones_mask_is_identity(self):
        rng = np.random.default_rng(13)
        mat = _rand_complex(rng, 6, 6)
        np.testing.assert_array_equal(
            linalg.partial_trace(mat, (2, 3), [1, 1]), mat
        )

    def test_all_zeros_mask_is_full_trace(self):
        rng = np.random.default_rng(14)
        mat = _rand_complex(rng, 6, 6)
        got = linalg.partial_trace(mat, (2, 3), [0, 0])
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - np.trace(mat)) < 1e-12

    def test_preserves_trace_for_every_mask(self):
        rng = np.random.default_rng(15)
        mat = _rand_complex(rng, 15, 15)
        for keep in ([1, 0], [0, 1], [1, 1]):
            reduced = linalg.partial_trace(mat, (3, 5), keep)
            assert abs(np.trace(reduced) - np.trace(mat)) < 1e-12

    def test_cup_marginal_is_maximally_mixed(self):
        n = 3
        cup = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                cup[i * n + i, j * n + j] = 1.0 / n
        got = linalg.partial_trace(cup, (n, n), [0, 1])
        np.testing.assert_allclose(got, np.eye(n) / n, atol=1e-12)

    def test_bad_mask_rejected(self):
        with pytest.raises(DimensionError):
            linalg.partial_trace(np.eye(6), (2, 3), [1])
        with pytest.raises(DimensionError):
            linalg.partial_trace(np.eye(6), (2, 3), [1, 2])

    def test_bad_dims_rejected(self):
        with pytest.raises(DimensionError):
            linalg.partial_trace(np.eye(6), (2, 2), [1, 1])


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        mat = _rand_complex(rng, 3, 4)
        d = linalg.matrix_to_json(mat)
        assert d["rows"] == 3 and d["cols"] == 4
        np.testing.assert_array_equal(linalg.matrix_from_json(d), mat)

    def test_shape_mismatch_rejected(self):
        d = linalg.matrix_to_json(np.eye(2))
        d["cols"] = 3
        with pytest.raises(DimensionError):
            linalg.matrix_from_json(d)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFusedChecks:
    """One conjugated copy, np.maximum/np.minimum clips: same bits as before."""

    @pytest.mark.parametrize("n", [64, 65, 128])
    def test_hermitian_part_at_and_above_one_block(self, n):
        # 64x64 is exactly _GAP_BLOCK entries, checked whole; above it the
        # gap runs in row blocks
        assert 64 * 64 == linalg._GAP_BLOCK
        a = _near_hermitian(np.random.default_rng(n), n)
        got = linalg._hermitian_part(a, "test")
        np.testing.assert_array_equal(_bits(got), _bits((a + a.conj().T) / 2))
        want = np.max(np.abs(a - a.conj().T))
        assert linalg._conj_gap(a, a.T) == want
        buf = np.empty_like(a)
        assert linalg._conj_gap(a, a.T, buf) == want
        np.testing.assert_array_equal(_bits(buf), _bits(a.conj().T))

    @pytest.mark.parametrize("where", [(0, 1), (70, 3), (127, 126)])
    def test_hermitian_part_rejects_a_gap_in_any_block(self, where):
        a = np.eye(128, dtype=complex)
        a[where] = 2 * linalg.HERMITIAN_TOL
        with pytest.raises(NotPositiveError, match="^test: matrix is not Hermitian$"):
            linalg._hermitian_part(a, "test")

    @pytest.mark.parametrize("stochastic", [True, False])
    def test_entry_clip_is_np_clip_bit_for_bit(self, stochastic):
        tiny = linalg.PROB_CLIP
        if stochastic:
            values = np.array([-0.0, 0.0, -tiny, 0.25, 0.75 + tiny, -tiny / 2])
        else:
            values = np.array([-0.0, 0.0, -tiny, 1.0 + tiny, 1.0, 0.5, -tiny / 2])
        got = linalg._checked_entries(values, values.shape, "v", stochastic)
        want = np.clip(values, 0.0, None if stochastic else 1.0)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert np.signbit(got).tolist() == np.signbit(want).tolist()

    def test_psd_sqrt_clip_is_np_clip_bit_for_bit(self, monkeypatch):
        # eigenvalues on the EIG_CLIP edge (accepted, clipped) and a -0.0
        w = np.array([-linalg.EIG_CLIP, -0.0, 0.0, 0.25])
        rng = np.random.default_rng(31)
        v, _ = np.linalg.qr(_rand_complex(rng, 4, 4))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: (w.copy(), v))
        got = linalg.psd_sqrt(np.eye(4))
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        want = (root + root.conj().T) / 2
        np.testing.assert_array_equal(_bits(got), _bits(want))


_SP = Space(["a", "b"])
# the identity channel's blocks |k><l|
_IDENT = np.einsum("ki,lj->klij", np.eye(2), np.eye(2)).astype(complex)

# value type: (caller's array, constructor, attribute holding the copy)
_VALUES = {
    "QState": (np.diag([0.25, 0.75]), lambda a: QState(a, (2,)), "mat"),
    "Effect": (np.diag([0.25, 0.75]), lambda a: Effect(a, (2,)), "mat"),
    "QChannel": (_IDENT, lambda a: QChannel(a, (2,), (2,)), "blocks"),
    "Dist": (np.array([0.25, 0.75]), lambda a: Dist(_SP, a), "probs"),
    "FuzzyPred": (np.array([0.25, 0.75]), lambda a: FuzzyPred(_SP, a), "values"),
    "StochChannel": (
        np.array([[0.25, 0.75], [1.0, 0.0]]),
        lambda a: StochChannel(_SP, _SP, a),
        "matrix",
    ),
}

_FINITE = "matrix entries must be finite"
_BAD_INPUTS = [
    (lambda: QState([[np.nan, 0], [0, 1]], (2,)), ValueError, _FINITE),
    (lambda: QState([[np.inf, 0], [0, 1]], (2,)), ValueError, _FINITE),
    (lambda: QState(np.zeros((2, 3)), (2,)), DimensionError, "state must be square"),
    (
        lambda: QState(np.zeros((2, 2, 2)), (2,)),
        DimensionError,
        "expected a 2-d matrix, got shape (2, 2, 2)",
    ),
    (lambda: Effect([[np.nan, 0], [0, 1]], (2,)), ValueError, _FINITE),
    (lambda: Effect(np.zeros((2, 3)), (2,)), DimensionError, "effect must be square"),
    (
        lambda: linalg.psd_sqrt(np.zeros((2, 3))),
        NotPositiveError,
        "psd_sqrt: matrix is not Hermitian",
    ),
    (
        lambda: linalg.psd_inv_sqrt(np.zeros((2, 3))),
        NotPositiveError,
        "psd_inv_sqrt: matrix is not Hermitian",
    ),
    (
        lambda: QChannel(np.full((2, 2, 2, 2), np.nan), (2,), (2,)),
        ValueError,
        "block entries must be finite",
    ),
    (lambda: Dist(_SP, [np.inf, 1]), ValueError, "probabilities must be finite"),
    (
        lambda: StochChannel(_SP, _SP, [[np.inf, 0], [0, 1]]),
        ValueError,
        "channel rows must be finite",
    ),
    (lambda: linalg.as_matrix([[np.nan]]), ValueError, _FINITE),
    (
        lambda: Dist(_SP, [0.2, 0.3, 0.5]),
        DimensionError,
        "probabilities of shape (3,), expected (2,)",
    ),
    (
        lambda: linalg.partial_trace(np.zeros((2, 3)), (2,), [1]),
        DimensionError,
        "partial_trace needs a square matrix",
    ),
    (
        lambda: linalg.matrix_from_json(
            {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]}
        ),
        DimensionError,
        "re/im parts must be matching 2-d arrays",
    ),
]


class TestPrivateCopies:
    @pytest.mark.parametrize("kind", sorted(_VALUES))
    def test_caller_array_stays_writable_and_detached(self, kind):
        arr, make, attr = _VALUES[kind]
        arr = arr.copy()
        held = getattr(make(arr), attr)
        before = held.copy()
        assert arr.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(arr, held)
        arr[...] = 0.0
        np.testing.assert_array_equal(held, before)

    @pytest.mark.parametrize("build, error, message", _BAD_INPUTS)
    def test_bad_input_keeps_its_exact_message(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message
