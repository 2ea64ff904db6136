"""Sub-pixel phase-correlation registration and signal resampling."""

import numpy as np
import pytest

from hypercal import registration
from hypercal.errors import EstimationError
from hypercal.registration import shift_1d, shift_1d_batch, shift_2d, shift_signal

from conftest import same_bits, smooth_texture


def _signal(n=256, seed=3):
    rng = np.random.default_rng(seed)
    from scipy.ndimage import gaussian_filter1d
    return gaussian_filter1d(rng.normal(0.0, 1.0, n), 2.0) * 10 + 50


def _shifted_circular(sig, delta):
    n = sig.size
    f = np.fft.rfft(sig)
    k = np.fft.rfftfreq(n)
    return np.fft.irfft(f * np.exp(-2j * np.pi * k * delta), n=n)


class TestShift1D:
    def test_zero_shift_exact(self):
        sig = _signal()
        est = shift_1d(sig, sig)
        assert abs(est.shift) < 1e-6
        assert est.confidence > 0.5

    def test_random_shifts_within_five_hundredths_px(self):
        rng = np.random.default_rng(1)
        sig = _signal()
        errs = []
        for _ in range(200):
            delta = rng.uniform(-3.0, 3.0)
            moved = _shifted_circular(sig, delta)
            est = shift_1d(sig, moved)
            errs.append(abs(est.shift - delta))
        assert max(errs) < 0.05

    def test_constant_signal_rejected(self):
        with pytest.raises(EstimationError):
            shift_1d(np.ones(64), np.ones(64))

    def test_out_of_window_shift_has_low_confidence(self):
        sig = _signal()
        moved = _shifted_circular(sig, 6.0)
        est = shift_1d(sig, moved, max_shift=2.0)
        aligned = shift_1d(sig, _shifted_circular(sig, 1.0), max_shift=2.0)
        assert abs(est.shift) <= 2.0
        assert est.confidence < 0.25 * aligned.confidence

    def test_length_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            shift_1d(np.arange(32.0), np.arange(33.0))


def _window_stack(length, n_rows=24, seed=5):
    """Rows of a smooth signal and of its copy shifted by up to 3 px."""
    rng = np.random.default_rng(seed)
    a = np.empty((n_rows, length))
    b = np.empty((n_rows, length))
    for i in range(n_rows):
        sig = _signal(3 * length, seed=seed + i)
        moved, _ = shift_signal(sig, rng.uniform(-3.0, 3.0))
        a[i] = sig[length:2 * length]
        b[i] = moved[length:2 * length]
    return a, b


class TestShift1DBatch:
    @pytest.mark.parametrize("length", [10, 64])
    def test_rows_match_one_row_calls(self, length):
        a, b = _window_stack(length)
        shifts, confs, valid = shift_1d_batch(a, b, max_shift=length / 2.0)
        assert valid.all()
        for i in range(a.shape[0]):
            est = shift_1d(a[i], b[i], max_shift=length / 2.0)
            assert abs(shifts[i] - est.shift) < 1e-12
            assert abs(confs[i] - est.confidence) < 1e-12

    def test_invalid_rows_flagged_without_touching_neighbours(self):
        a, b = _window_stack(64, n_rows=8)
        ref_shifts, ref_confs, _ = shift_1d_batch(a, b)
        a2, b2 = a.copy(), b.copy()
        b2[3] = 7.0                 # constant
        a2[5, 10] = np.nan          # non-finite
        shifts, confs, valid = shift_1d_batch(a2, b2)
        assert valid.tolist() == [True, True, True, False, True, False,
                                  True, True]
        assert shifts[~valid].tolist() == [0.0, 0.0]
        assert confs[~valid].tolist() == [0.0, 0.0]
        assert np.allclose(shifts[valid], ref_shifts[valid], rtol=0,
                           atol=1e-12)
        assert np.allclose(confs[valid], ref_confs[valid], rtol=0, atol=1e-12)

    def test_shift_beyond_max_shift_clamped_with_zero_confidence(self):
        sig = _signal()
        b = np.stack([_shifted_circular(sig, 4.0),
                      _shifted_circular(sig, -4.0),
                      _shifted_circular(sig, 1.0)])
        a = np.broadcast_to(sig, b.shape)
        shifts, confs, valid = shift_1d_batch(a, b, max_shift=2.0)
        assert valid.all()
        assert shifts[:2].tolist() == [2.0, -2.0]
        assert confs[:2].tolist() == [0.0, 0.0]
        assert abs(shifts[2] - 1.0) < 0.05 and confs[2] > 0

    @pytest.mark.parametrize("length", [10, 64])
    @pytest.mark.parametrize("rows", [2, 3, 5, 16])
    def test_peak_row_blocks_keep_the_bits(self, rows, length, monkeypatch):
        # 33 rows: every block size leaves a remainder block, and blocks of
        # 2 and 16 rows a single row, which joins the block before it
        a, b = _window_stack(length, n_rows=33)
        whole = shift_1d_batch(a, b)
        monkeypatch.setattr(registration, "_PEAK_ROWS", rows)
        split = shift_1d_batch(a, b)
        for got, expect in zip(split, whole):
            assert same_bits(got, expect)

    @pytest.mark.parametrize("rows,blocks", [(9, [4, 5]), (8, [4, 4]),
                                             (5, [5]), (1, [1])])
    def test_no_peak_block_of_one_row(self, rows, blocks, monkeypatch):
        # numpy multiplies a one-row block by BLAS gemv, which may round
        # unlike the gemm of the others: a last single row joins the
        # block before it
        seen = []
        matrix = registration._upsample_matrix

        class Recorded:
            __array_ufunc__ = None  # ndarray @ Recorded calls __rmatmul__

            def __init__(self, n):
                self.e = matrix(n)

            def __rmatmul__(self, left):
                seen.append(left.shape[0])
                return left @ self.e

        monkeypatch.setattr(registration, "_upsample_matrix", Recorded)
        monkeypatch.setattr(registration, "_PEAK_ROWS", 4)
        registration._refine_peaks(np.ones((rows, 16), dtype=complex),
                                   np.zeros(rows))
        assert seen == blocks

    def test_empty_stack(self):
        shifts, confs, valid = shift_1d_batch(np.zeros((0, 16)),
                                              np.zeros((0, 16)))
        assert shifts.shape == confs.shape == valid.shape == (0,)

    @pytest.mark.parametrize("a,b", [
        (np.ones((3, 16)), np.ones((3, 17))),
        (np.ones((3, 16)), np.ones((2, 16))),
        (np.arange(16.0), np.arange(16.0)),
        (np.arange(14.0).reshape(2, 7), np.arange(14.0).reshape(2, 7)),
    ])
    def test_bad_shapes_rejected(self, a, b):
        with pytest.raises(EstimationError):
            shift_1d_batch(a, b)


class TestShift2D:
    def test_random_shifts_recovered(self):
        img = smooth_texture(128, 128, seed=4)
        rng = np.random.default_rng(2)
        fy = np.fft.fftfreq(128)[:, None]
        fx = np.fft.fftfreq(128)[None, :]
        f = np.fft.fft2(img)
        for _ in range(20):
            dy, dx = rng.uniform(-3, 3, 2)
            moved = np.fft.ifft2(
                f * np.exp(-2j * np.pi * (fy * dy + fx * dx))).real
            ey, ex, conf = shift_2d(img, moved)
            assert abs(ey - dy) < 0.05
            assert abs(ex - dx) < 0.05

    def test_small_patch_rejected(self):
        with pytest.raises(EstimationError):
            shift_2d(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_constant_patch_rejected(self):
        with pytest.raises(EstimationError):
            shift_2d(np.ones((32, 32)), np.ones((32, 32)))


class TestResample:
    def test_identity_mapping_bit_exact(self):
        sig = _signal(64)
        out, valid = shift_signal(sig, 0.0)
        assert np.array_equal(out, sig)
        assert valid[2:-2].all()

    def test_non_finite_mapping_rejected(self):
        with pytest.raises(EstimationError):
            shift_signal(np.arange(8.0), np.nan)

    def test_shift_then_estimate_closes(self):
        sig = _signal()
        for delta in (-1.7, -0.3, 0.5, 2.25):
            moved, valid = shift_signal(sig, delta)
            sl = slice(8, -8)
            est = shift_1d(sig[sl], moved[sl])
            assert abs(est.shift - delta) < 0.05

    def test_linear_signal_preserved(self):
        # cubic convolution reproduces polynomials up to degree 1 exactly
        sig = np.linspace(0.0, 10.0, 64)
        out, valid = shift_signal(sig, 0.37)
        inner = valid & (np.arange(64) > 2) & (np.arange(64) < 61)
        expect = np.interp(np.arange(64.0) - 0.37, np.arange(64.0), sig)
        assert np.allclose(out[inner], expect[inner], atol=1e-9)
