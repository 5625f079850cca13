"""Matrix-kernel checks against small hand values and loop oracles."""

import numpy as np
import pytest

from qbayes import linalg
from qbayes.errors import DimensionError, NotPositiveError, SingularMarginalError


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
        assert linalg.is_hermitian(s, 1e-10)
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

    @pytest.mark.parametrize("bounds", [(-1e-10, None), (None, 1.0), (0.0, 1.0)])
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
        for where in [(0, 0), (299, 5), (150, 299)]:
            a = np.eye(300, dtype=complex)
            a[where] = np.nan
            assert not linalg.is_hermitian(a), where

    def test_spectrum_inside_is_certified(self):
        h = np.diag([0.25, 0.5, 0.75]).astype(complex)
        assert linalg._spectrum_outside(h.copy(), -1e-10) is None
        assert linalg._spectrum_outside(h.copy(), None, 1.0) is None
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
