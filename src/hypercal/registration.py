"""Sub-pixel shift estimation by phase correlation and cubic resampling.

The 1-D estimator follows the classic normalized cross-power-spectrum
approach: signals are mean-removed and Hann-windowed, the cross-power
spectrum is whitened, and the correlation peak is located to sub-pixel
precision by a locally upsampled inverse transform refined with a parabola.
It works on whole ``(N, L)`` stacks of signal pairs at once
(:func:`shift_1d_batch`); :func:`shift_1d` is its one-pair form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .kernels import resample_rows

_UPSAMPLE = 64
SHIFT_2D_MIN_PATCH = 16  # shortest patch side shift_2d estimates on


@dataclass(frozen=True)
class ShiftEstimate:
    """Estimated fractional shift and a peak-dominance confidence in [0, 1]."""

    shift: float
    confidence: float


def parabolic_vertex(ym1, y0, yp1):
    """Vertex offset in [-0.5, 0.5] of the parabola through three equally
    spaced samples, 0 where they are collinear; elementwise on arrays."""
    denom = ym1 - 2.0 * y0 + yp1
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip(0.5 * (ym1 - yp1) / denom, -0.5, 0.5)
    return np.where(denom == 0.0, 0.0, frac)


_MAG_FLOOR = 1e-2  # bins below this fraction of peak magnitude carry no signal


def _whiten(cross: np.ndarray, axis=None) -> np.ndarray:
    """Unit-magnitude cross-power spectrum, normalized by the peak over
    ``axis`` (every axis by default); weak bins and all-zero spectra are
    zeroed."""
    mag = np.abs(cross)
    top = mag.max(axis=axis, keepdims=True)
    eps = 1e-12 * top
    with np.errstate(divide="ignore", invalid="ignore"):
        xpow = cross / (mag + eps)
    xpow[(mag < _MAG_FLOOR * top) | (top <= 0)] = 0.0
    return xpow


@functools.lru_cache(maxsize=16)
def _upsample_matrix(n: int) -> np.ndarray:
    """``(n, 2*_UPSAMPLE + 1)`` DFT matrix evaluating a length-``n``
    spectrum at lag offsets -1..+1 in steps of ``1/_UPSAMPLE``
    (Guizar-Sicairos, Thurman & Fienup, Opt. Lett. 33, 2008)."""
    offsets = np.arange(-_UPSAMPLE, _UPSAMPLE + 1) / _UPSAMPLE
    e = np.exp(2j * np.pi * np.outer(np.fft.fftfreq(n), offsets))
    e.setflags(write=False)
    return e


@functools.lru_cache(maxsize=8)
def _grid_2d(ny: int, nx: int):
    """Fixed transforms of an ``(ny, nx)`` patch: the Hann window, the
    ``fftfreq`` column and row (broadcasting) and their full grids, and the
    phase-slope band (|f| < 0.35 per axis, not DC); all read-only."""
    win = np.outer(np.hanning(ny), np.hanning(nx))
    fy = np.fft.fftfreq(ny)[:, None]
    fx = np.fft.fftfreq(nx)[None, :]
    fy_full = fy * np.ones((1, nx))
    fx_full = np.ones((ny, 1)) * fx
    band = (np.abs(fy_full) < 0.35) & (np.abs(fx_full) < 0.35) \
        & ((fy_full != 0) | (fx_full != 0))
    arrays = win, fy, fx, fy_full, fx_full, band
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _lag_table(n: int, index: int):
    """The lags -1..+1 in steps of ``1/_UPSAMPLE`` around the integer lag
    of correlation bin ``index`` of ``n``, and the local DFT tables
    evaluating a length-``n`` spectrum at them, ``(lags, n)`` and ``(n,
    lags)``; all read-only."""
    lag = float(np.fft.fftfreq(n)[index] * n)
    step = 1.0 / _UPSAMPLE
    lags = np.arange(lag - 1.0, lag + 1.0 + step / 2, step)
    f = np.fft.fftfreq(n)
    arrays = (lags, np.exp(2j * np.pi * np.outer(lags, f)),
              np.exp(2j * np.pi * np.outer(f, lags)))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _refine_peaks(xpow: np.ndarray, lag0: np.ndarray) -> np.ndarray:
    """Sub-pixel correlation peaks near the integer lags ``lag0``: each row's
    correlation is evaluated on a fine grid around its lag directly from the
    cross-power spectrum and the maximum is refined with a parabola."""
    n = xpow.shape[1]
    step = 1.0 / _UPSAMPLE
    ramp = np.exp(2j * np.pi * np.fft.fftfreq(n)[None, :] * lag0[:, None])
    corr = ((xpow * ramp) @ _upsample_matrix(n)).real
    rows = np.arange(corr.shape[0])
    k = np.clip(np.argmax(corr, axis=1), 1, corr.shape[1] - 2)
    frac = parabolic_vertex(corr[rows, k - 1], corr[rows, k],
                            corr[rows, k + 1])
    return (lag0 - 1.0) + k * step + frac * step


def _estimate_rows(xpow: np.ndarray, max_shift: float):
    """Coarse phase-correlation shift and dominance confidence per row of a
    whitened cross-power stack, searching lags within ``max_shift``."""
    n = xpow.shape[1]
    corr = np.fft.ifft(xpow, axis=1).real
    lags = np.fft.fftfreq(n) * n  # 0, 1, ..., -1 ordering
    allowed = np.abs(lags) <= max_shift + 0.5
    peak_idx = np.argmax(np.where(allowed, corr, -np.inf), axis=1)
    lag0 = lags[peak_idx]
    # b(x) = a(x - d) peaks the whitened correlation at lag -d
    shift = -_refine_peaks(xpow, lag0)
    shift = np.where(np.abs(shift + lag0) > 1.0, -lag0, shift)

    global_peak = corr.max(axis=1)
    corr_peak = corr[np.arange(corr.shape[0]), peak_idx]
    far = allowed & (np.abs(lags[None, :] - lag0[:, None]) > 2.0)
    runner = np.where(far, corr, -np.inf).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dominance = np.maximum(0.0, 1.0 - np.maximum(runner, 0.0) / corr_peak)
        in_range = corr_peak / global_peak
    dominance = np.where(far.any(axis=1) & (corr_peak > 0), dominance, 1.0)
    in_range = np.where(global_peak > 0, in_range, 0.0)
    confidence = np.clip(dominance * np.maximum(in_range, 0.0), 0.0, 1.0)
    return shift, confidence


def _phase_slope_rows(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Weighted phase-slope fit of the residual shift per row, from full
    spectra of the signals; valid once they are aligned to within about
    half a sample."""
    n = fa.shape[1]
    half = n // 2 + 1
    cross = fa[:, :half] * np.conj(fb[:, :half])
    mag = np.abs(cross)
    freqs = np.fft.rfftfreq(n)
    keep = (mag > _MAG_FLOOR * mag.max(axis=1, keepdims=True)) \
        & (freqs > 0) & (freqs < 0.4)
    w = np.where(keep, mag, 0.0)
    denom = 2.0 * np.pi * np.sum(w * freqs * freqs, axis=1)
    num = np.sum(w * np.angle(cross) * freqs, axis=1)
    # cross ~ exp(2*pi*i*f*d) for b(x) = a(x - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom != 0.0, num / denom, 0.0)


def shift_1d_batch(a, b, max_shift: float | None = None):
    """Estimate per-row sub-pixel shifts ``delta`` with ``b[i](x) ~
    a[i](x - delta[i])`` for ``(N, L)`` signal stacks.

    Returns ``(shifts, confidences, valid)``.  Rows of either stack that are
    non-finite or constant have no spectral content: they come back with
    ``valid`` False and shift and confidence 0.  Each valid row is estimated
    in two passes: a coarse phase-correlation peak gives the integer lag
    (re-aligned circularly up to three times until it settles), and the
    residual comes from a phase-slope fit near zero lag, where windowing bias
    cancels, or from a second correlation pass if that fit leaves more than
    0.75 px.  |shift| beyond ``max_shift`` (default ``L / 2``) is clamped
    with confidence 0.  Raises :class:`EstimationError` for the whole call
    when the stacks differ in shape, are not 2-D or are shorter than 8
    samples.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise EstimationError("signal stacks must be (N, L) with equal shapes")
    n_rows, n = a.shape
    if n < 8:
        raise EstimationError("signal too short (need >= 8 samples)")
    if max_shift is None:
        max_shift = n / 2.0
    if not max_shift + 0.5 >= 0.0:
        raise EstimationError("max_shift excludes every lag")
    shifts = np.zeros(n_rows)
    confidences = np.zeros(n_rows)
    with np.errstate(invalid="ignore"):
        valid = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1) \
            & (np.ptp(a, axis=1) > 0.0) & (np.ptp(b, axis=1) > 0.0)
    a, b = a[valid], b[valid]
    m = a.shape[0]
    win = np.hanning(n)

    def spectrum(x):
        return np.fft.fft((x - x.mean(axis=1, keepdims=True)) * win, axis=1)

    def cross_power(rows):
        return _whiten(fa[rows] * np.conj(fb[rows]), axis=1)

    fa = spectrum(a)
    fb = spectrum(b)
    whole = np.zeros(m, dtype=np.int64)
    conf = np.zeros(m)
    active = np.arange(m)
    remaining = max_shift
    for _ in range(3):  # settle integer alignment before the phase fit
        coarse, conf[active] = _estimate_rows(cross_power(active), remaining)
        step = np.round(coarse).astype(np.int64)
        moved = step != 0
        active = active[moved]
        if active.size == 0:
            break
        # b(x + whole) ~ a(x - (d - whole)): residual becomes sub-pixel
        whole[active] += step[moved]
        remaining = 1.5
        roll = (np.arange(n)[None, :] + whole[active, None]) % n
        fb[active] = spectrum(np.take_along_axis(b[active], roll, axis=1))
    residual = _phase_slope_rows(fa, fb)
    # the phase fit is only trusted near alignment
    redo = np.flatnonzero(np.abs(residual) > 0.75)
    if redo.size:
        residual[redo], conf[redo] = _estimate_rows(cross_power(redo), 1.5)
    shift = whole + residual
    over = np.abs(shift) > max_shift
    shift[over] = np.sign(shift[over]) * max_shift
    conf[over] = 0.0
    shifts[valid] = shift
    confidences[valid] = conf
    return shifts, confidences, valid


def shift_1d(a, b, max_shift: float | None = None) -> ShiftEstimate:
    """Estimate the sub-pixel shift ``delta`` such that ``b(x) ~ a(x - delta)``.

    One-row form of :func:`shift_1d_batch`.  Raises
    :class:`EstimationError` on constant, non-finite, too short or unequal
    inputs; |true shift| beyond ``max_shift`` surfaces as low confidence.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise EstimationError("signals must be 1-D with equal length")
    shifts, confidences, valid = shift_1d_batch(a[None, :], b[None, :],
                                                max_shift)
    if not valid[0]:
        raise EstimationError("non-finite or constant signal has no spectral "
                              "content")
    return ShiftEstimate(shift=float(shifts[0]),
                         confidence=float(confidences[0]))


def _estimate_2d(fa: np.ndarray, fb: np.ndarray):
    """Correlation shift and confidence from windowed patch spectra."""
    ny, nx = fa.shape
    xpow = _whiten(fa * np.conj(fb))
    corr = np.fft.ifft2(xpow).real
    iy, ix = np.unravel_index(int(np.argmax(corr)), corr.shape)
    tys, ey, _ = _lag_table(ny, int(iy))   # ey: (Ty, ny)
    txs, _, ex = _lag_table(nx, int(ix))   # ex: (nx, Tx)
    step = 1.0 / _UPSAMPLE
    local = (ey @ xpow @ ex).real
    ky, kx = np.unravel_index(int(np.argmax(local)), local.shape)
    ky = min(max(ky, 1), local.shape[0] - 2)
    kx = min(max(kx, 1), local.shape[1] - 2)
    ry = tys[ky] + parabolic_vertex(local[ky - 1, kx], local[ky, kx],
                                    local[ky + 1, kx]) * step
    rx = txs[kx] + parabolic_vertex(local[ky, kx - 1], local[ky, kx],
                                    local[ky, kx + 1]) * step

    peak = float(corr[iy, ix])
    # the runner-up: the highest bin outside the peak's 5x5 neighbourhood
    away = corr.copy()
    away[np.ix_(np.arange(iy - 2, iy + 3) % ny,
                np.arange(ix - 2, ix + 3) % nx)] = -np.inf
    runner = float(away.max())
    confidence = float(np.clip(1.0 - max(runner, 0.0) / peak, 0.0, 1.0)) \
        if peak > 0 else 0.0
    return float(-ry), float(-rx), confidence


def _phase_slope_2d(fa: np.ndarray, fb: np.ndarray):
    """Phase-slope residual shift from windowed, aligned patch spectra."""
    *_, fy, fx, band = _grid_2d(*fa.shape)
    cross = fa * np.conj(fb)
    mag = np.abs(cross)
    keep = (mag > _MAG_FLOOR * mag.max()) & band
    if not np.any(keep):
        return 0.0, 0.0
    phi = np.angle(cross[keep])
    gy, gx, w = fy[keep], fx[keep], mag[keep]
    ayy = np.sum(w * gy * gy)
    axx = np.sum(w * gx * gx)
    axy = np.sum(w * gy * gx)
    by = np.sum(w * phi * gy) / (2.0 * np.pi)
    bx = np.sum(w * phi * gx) / (2.0 * np.pi)
    det = ayy * axx - axy * axy
    if det == 0.0:
        return 0.0, 0.0
    dy = (axx * by - axy * bx) / det
    dx = (ayy * bx - axy * by) / det
    return float(dy), float(dx)


def shift_2d(a, b) -> tuple:
    """2-D phase correlation with sub-pixel peak interpolation.

    Returns ``(shift_y, shift_x, confidence)`` where ``b ~ a`` shifted by
    ``(shift_y, shift_x)`` (same convention as :func:`shift_1d` per axis).
    Uses the same coarse/re-aligned two-pass scheme as :func:`shift_1d`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise EstimationError("patches must be 2-D with equal shapes")
    if min(a.shape) < SHIFT_2D_MIN_PATCH:
        raise EstimationError(f"patches must be at least "
                              f"{SHIFT_2D_MIN_PATCH}x{SHIFT_2D_MIN_PATCH}")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise EstimationError("constant patch has no spectral content")
    win, fy, fx, *_ = _grid_2d(*a.shape)

    def spectrum(x):
        return np.fft.fft2((x - x.mean()) * win)

    fa = spectrum(a)
    fb = spectrum(b)
    wy, wx = 0, 0
    b_aligned = b
    conf = 0.0
    for _ in range(3):  # settle integer alignment before the phase fit
        sy, sx, conf = _estimate_2d(fa, fb)
        dy, dx = int(np.round(sy)), int(np.round(sx))
        if dy == 0 and dx == 0:
            break
        wy += dy
        wx += dx
        b_aligned = np.roll(b, (-wy, -wx), axis=(0, 1))
        fb = spectrum(b_aligned)
    ry, rx = _phase_slope_2d(fa, fb)
    if abs(ry) > 0.75 or abs(rx) > 0.75:
        ry, rx, conf = _estimate_2d(fa, fb)
    # window-induced bias scales with the residual: iterate with fractional
    # Fourier re-alignment until the residual vanishes
    fb0 = np.fft.fft2(b_aligned)
    for _ in range(3):
        if abs(ry) < 1e-4 and abs(rx) < 1e-4:
            break
        b_frac = np.fft.ifft2(
            fb0 * np.exp(2j * np.pi * (fy * ry + fx * rx))).real
        dy2, dx2 = _phase_slope_2d(fa, spectrum(b_frac))
        ry += dy2
        rx += dx2
    return float(wy + ry), float(wx + rx), float(conf)


def shift_signal(signal, delta: float):
    """Resample ``signal`` so the output is the input shifted by ``delta``
    samples (``out(x) = signal(x - delta)``).  Returns ``(out, valid)``;
    a non-finite ``delta`` raises :class:`EstimationError`."""
    if not np.isfinite(delta):
        raise EstimationError("shift must be finite")
    coords = np.arange(np.shape(signal)[0], dtype=np.float64) - delta
    out, valid = resample_rows(np.asarray(signal)[None, :], coords[None, :])
    return out[0], valid[0]
