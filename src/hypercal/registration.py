"""Sub-pixel shift estimation by phase correlation and cubic resampling.

The 1-D estimator follows the classic normalized cross-power-spectrum
approach: signals are mean-removed and Hann-windowed, the cross-power
spectrum is whitened, and the correlation peak is located to sub-pixel
precision by a locally upsampled inverse transform refined with a parabola.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .kernels import resample_signal

_UPSAMPLE = 64


@dataclass(frozen=True)
class ShiftEstimate:
    """Estimated fractional shift and a peak-dominance confidence in [0, 1]."""

    shift: float
    confidence: float


def _check_signal(x: np.ndarray, min_len: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < min_len:
        raise EstimationError(f"signal too short (need >= {min_len} samples)")
    if not np.all(np.isfinite(x)):
        raise EstimationError("signal contains non-finite values")
    if np.ptp(x) == 0.0:
        raise EstimationError("constant signal has no spectral content")
    return x


def _parabolic_vertex(ym1: float, y0: float, yp1: float) -> float:
    denom = ym1 - 2.0 * y0 + yp1
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (ym1 - yp1) / denom, -0.5, 0.5))


def _refine_peak_1d(xpow: np.ndarray, lag: float, halfwidth: float = 1.0):
    """Evaluate the correlation on a fine grid around ``lag`` directly from
    the cross-power spectrum and refine the maximum with a parabola."""
    n = xpow.shape[0]
    freqs = np.fft.fftfreq(n)
    step = 1.0 / _UPSAMPLE
    taus = np.arange(lag - halfwidth, lag + halfwidth + step / 2, step)
    corr = (xpow[None, :] * np.exp(2j * np.pi * freqs[None, :] * taus[:, None])).real
    corr = corr.sum(axis=1)
    k = int(np.argmax(corr))
    k = min(max(k, 1), corr.shape[0] - 2)
    frac = _parabolic_vertex(corr[k - 1], corr[k], corr[k + 1])
    return float(taus[k] + frac * step), float(corr[k])


_MAG_FLOOR = 1e-2  # bins below this fraction of peak magnitude carry no signal


def _whiten(cross: np.ndarray) -> np.ndarray:
    mag = np.abs(cross)
    top = mag.max()
    if top <= 0:
        return np.zeros_like(cross)
    eps = 1e-12 * top
    xpow = cross / (mag + eps)
    xpow[mag < _MAG_FLOOR * top] = 0.0
    return xpow


def _normalized_xpow(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    wa = a - a.mean()
    wb = b - b.mean()
    win = np.hanning(a.shape[0])
    fa = np.fft.fft(wa * win)
    fb = np.fft.fft(wb * win)
    return _whiten(fa * np.conj(fb))


def _estimate_1d(a: np.ndarray, b: np.ndarray, max_shift: float):
    n = a.shape[0]
    xpow = _normalized_xpow(a, b)
    corr = np.fft.ifft(xpow).real
    lags = np.fft.fftfreq(n) * n  # 0, 1, ..., -1 ordering
    allowed = np.abs(lags) <= max_shift + 0.5
    if not np.any(allowed):
        raise EstimationError("max_shift excludes every lag")
    masked = np.where(allowed, corr, -np.inf)
    peak_idx = int(np.argmax(masked))
    lag0 = float(lags[peak_idx])
    refined_lag, _ = _refine_peak_1d(xpow, lag0)
    # b(x) = a(x - d) peaks the whitened correlation at lag -d
    shift = -refined_lag
    if abs(shift - (-lag0)) > 1.0:
        shift = -lag0

    global_peak = float(corr.max())
    corr_peak = float(corr[peak_idx])
    dominance = 1.0
    far = allowed & (np.abs(lags - lag0) > 2.0)
    if np.any(far) and corr_peak > 0:
        runner = float(corr[far].max())
        dominance = max(0.0, 1.0 - max(runner, 0.0) / corr_peak)
    in_range = corr_peak / global_peak if global_peak > 0 else 0.0
    confidence = float(np.clip(dominance * max(in_range, 0.0), 0.0, 1.0))
    return shift, confidence


def _phase_slope_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Weighted phase-slope fit of the residual shift, valid once the
    signals are aligned to within about half a sample."""
    n = a.shape[0]
    win = np.hanning(n)
    fa = np.fft.rfft((a - a.mean()) * win)
    fb = np.fft.rfft((b - b.mean()) * win)
    cross = fa * np.conj(fb)
    mag = np.abs(cross)
    freqs = np.fft.rfftfreq(n)
    keep = (mag > _MAG_FLOOR * mag.max()) & (freqs > 0) & (freqs < 0.4)
    if not np.any(keep):
        return 0.0
    phi = np.angle(cross[keep])
    fk = freqs[keep]
    w = mag[keep]
    denom = 2.0 * np.pi * np.sum(w * fk * fk)
    if denom == 0.0:
        return 0.0
    # cross ~ exp(2*pi*i*f*d) for b(x) = a(x - d)
    return float(np.sum(w * phi * fk) / denom)


def shift_1d(a, b, max_shift: float | None = None) -> ShiftEstimate:
    """Estimate the sub-pixel shift ``delta`` such that ``b(x) ~ a(x - delta)``.

    Two-pass: a coarse phase-correlation peak gives the integer lag, the
    signal is circularly re-aligned, and the residual is refined near zero
    lag where windowing bias cancels.  Raises :class:`EstimationError` on
    constant or invalid inputs; |true shift| beyond ``max_shift`` surfaces
    as low confidence.
    """
    a = _check_signal(a, 8)
    b = _check_signal(b, 8)
    if a.shape != b.shape:
        raise EstimationError("signals must have equal length")
    n = a.shape[0]
    if max_shift is None:
        max_shift = n / 2.0
    whole = 0
    b_aligned = b
    confidence = 0.0
    remaining = max_shift
    for _ in range(3):  # settle integer alignment before the phase fit
        coarse, confidence = _estimate_1d(a, b_aligned, remaining)
        step = int(np.round(coarse))
        if step == 0:
            break
        # b(x + whole) ~ a(x - (d - whole)): residual becomes sub-pixel
        whole += step
        b_aligned = np.roll(b, -whole)
        remaining = 1.5
    residual = _phase_slope_1d(a, b_aligned)
    if abs(residual) > 0.75:  # phase fit only trusted near alignment
        residual, confidence = _estimate_1d(a, b_aligned, 1.5)
    shift = whole + residual
    if abs(shift) > max_shift:
        shift = float(np.sign(shift) * max_shift)
        confidence = 0.0
    return ShiftEstimate(shift=float(shift), confidence=float(confidence))


def _estimate_2d(a: np.ndarray, b: np.ndarray):
    ny, nx = a.shape
    win = np.outer(np.hanning(ny), np.hanning(nx))
    fa = np.fft.fft2((a - a.mean()) * win)
    fb = np.fft.fft2((b - b.mean()) * win)
    xpow = _whiten(fa * np.conj(fb))
    corr = np.fft.ifft2(xpow).real
    iy, ix = np.unravel_index(int(np.argmax(corr)), corr.shape)
    lag_y = float(np.fft.fftfreq(ny)[iy] * ny)
    lag_x = float(np.fft.fftfreq(nx)[ix] * nx)

    fy = np.fft.fftfreq(ny)
    fx = np.fft.fftfreq(nx)
    step = 1.0 / _UPSAMPLE
    tys = np.arange(lag_y - 1.0, lag_y + 1.0 + step / 2, step)
    txs = np.arange(lag_x - 1.0, lag_x + 1.0 + step / 2, step)
    ey = np.exp(2j * np.pi * np.outer(tys, fy))  # (Ty, ny)
    ex = np.exp(2j * np.pi * np.outer(fx, txs))  # (nx, Tx)
    local = (ey @ xpow @ ex).real
    ky, kx = np.unravel_index(int(np.argmax(local)), local.shape)
    ky = min(max(ky, 1), local.shape[0] - 2)
    kx = min(max(kx, 1), local.shape[1] - 2)
    ry = tys[ky] + _parabolic_vertex(local[ky - 1, kx], local[ky, kx],
                                     local[ky + 1, kx]) * step
    rx = txs[kx] + _parabolic_vertex(local[ky, kx - 1], local[ky, kx],
                                     local[ky, kx + 1]) * step

    peak = float(corr[iy, ix])
    mask = np.ones_like(corr, dtype=bool)
    yy = (np.arange(ny)[:, None] - iy + ny // 2) % ny - ny // 2
    xx = (np.arange(nx)[None, :] - ix + nx // 2) % nx - nx // 2
    mask[(np.abs(yy) <= 2) & (np.abs(xx) <= 2)] = False
    runner = float(corr[mask].max()) if np.any(mask) else 0.0
    confidence = float(np.clip(1.0 - max(runner, 0.0) / peak, 0.0, 1.0)) \
        if peak > 0 else 0.0
    return float(-ry), float(-rx), confidence


def _phase_slope_2d(a: np.ndarray, b: np.ndarray):
    ny, nx = a.shape
    win = np.outer(np.hanning(ny), np.hanning(nx))
    fa = np.fft.fft2((a - a.mean()) * win)
    fb = np.fft.fft2((b - b.mean()) * win)
    cross = fa * np.conj(fb)
    mag = np.abs(cross)
    fy = np.fft.fftfreq(ny)[:, None] * np.ones((1, nx))
    fx = np.ones((ny, 1)) * np.fft.fftfreq(nx)[None, :]
    keep = (mag > _MAG_FLOOR * mag.max()) & (np.abs(fy) < 0.35) \
        & (np.abs(fx) < 0.35) & ((fy != 0) | (fx != 0))
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
    if min(a.shape) < 16:
        raise EstimationError("patches must be at least 16x16")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise EstimationError("constant patch has no spectral content")
    wy, wx = 0, 0
    b_aligned = b
    conf = 0.0
    for _ in range(3):  # settle integer alignment before the phase fit
        sy, sx, conf = _estimate_2d(a, b_aligned)
        dy, dx = int(np.round(sy)), int(np.round(sx))
        if dy == 0 and dx == 0:
            break
        wy += dy
        wx += dx
        b_aligned = np.roll(b, (-wy, -wx), axis=(0, 1))
    ry, rx = _phase_slope_2d(a, b_aligned)
    if abs(ry) > 0.75 or abs(rx) > 0.75:
        ry, rx, conf = _estimate_2d(a, b_aligned)
    # window-induced bias scales with the residual: iterate with fractional
    # Fourier re-alignment until the residual vanishes
    fy = np.fft.fftfreq(b_aligned.shape[0])[:, None]
    fx = np.fft.fftfreq(b_aligned.shape[1])[None, :]
    fb0 = np.fft.fft2(b_aligned)
    for _ in range(3):
        if abs(ry) < 1e-4 and abs(rx) < 1e-4:
            break
        b_frac = np.fft.ifft2(
            fb0 * np.exp(2j * np.pi * (fy * ry + fx * rx))).real
        dy2, dx2 = _phase_slope_2d(a, b_frac)
        ry += dy2
        rx += dx2
    return float(wy + ry), float(wx + rx), float(conf)


def resample_1d(signal, mapping):
    """Cubic-convolution resampling: ``out[j] = signal(mapping[j])``.

    Uses the shared Keys kernel (a = -0.5); source coordinates are clamped
    to the signal extent.  Returns ``(out, valid)`` where ``valid`` flags
    outputs whose kernel support stayed inside the array.  An identity
    mapping reproduces the input bit-for-bit.
    """
    signal = np.asarray(signal, dtype=np.float64)
    mapping = np.asarray(mapping, dtype=np.float64)
    if not np.all(np.isfinite(mapping)):
        raise EstimationError("mapping contains non-finite coordinates")
    return resample_signal(signal, mapping)


def shift_signal(signal, delta: float):
    """Resample ``signal`` so the output is the input shifted by ``delta``
    samples (``out(x) = signal(x - delta)``)."""
    n = np.asarray(signal).shape[0]
    coords = np.arange(n, dtype=np.float64) - delta
    return resample_1d(signal, coords)
