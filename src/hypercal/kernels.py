"""Hot numeric kernels: cubic-convolution resampling and Gaussian band integration.

Each kernel has one vectorized numpy implementation.
"""

from __future__ import annotations

import numpy as np

# There is no compiled kernel path; the constant stays because the benchmark
# harness records it with every run.
USING_NUMBA = False


def _cubic_weights(frac):
    """Keys (a = -0.5) weights of taps -1, 0, 1, 2 for offsets ``frac`` in
    [0, 1).  Taps 0 and 1 always lie within one sample (|t| <= 1) and taps
    -1 and 2 between one and two, so each tap has a fixed polynomial."""
    weights = []
    for k in range(-1, 3):
        at = np.abs(frac - k)
        if k in (0, 1):
            weights.append((1.5 * at - 2.5) * at * at + 1.0)
        else:
            weights.append(-0.5 * (((at - 5.0) * at + 8.0) * at - 4.0))
    return weights


def resample_rows(image: np.ndarray, coords: np.ndarray):
    """Cubic-convolution resampling of each row of ``image`` at per-output
    source column coordinates ``coords`` (same shape as the output).

    Returns ``(out, valid)`` where ``valid`` marks outputs whose kernel
    support stayed inside the row.  Source coordinates are clamped to the
    row extent; exact integer coordinates reproduce the input bit-for-bit.
    """
    image = np.ascontiguousarray(image, dtype=np.float64)
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    if coords.shape != image.shape:
        raise ValueError("coords shape must match image shape")
    n = image.shape[1]
    x = np.clip(coords, 0.0, n - 1.0)
    i0 = np.floor(x).astype(np.int64)
    frac = x - i0
    out = np.zeros(coords.shape, dtype=np.float64)
    for k, w in zip(range(-1, 3), _cubic_weights(frac)):
        idx = np.clip(i0 + k, 0, n - 1)
        out += w * np.take_along_axis(image, idx, axis=1)
    exact = frac == 0.0
    if np.any(exact):
        out[exact] = np.take_along_axis(image, i0, axis=1)[exact]
    inb = (coords >= 0.0) & (coords <= n - 1.0)
    valid = inb & (exact | ((i0 - 1 >= 0) & (i0 + 2 <= n - 1)))
    return out, valid


def resample_signal(signal: np.ndarray, coords: np.ndarray):
    """1-D form of :func:`resample_rows`."""
    out, valid = resample_rows(
        np.asarray(signal, dtype=np.float64)[None, :],
        np.asarray(coords, dtype=np.float64)[None, :],
    )
    return out[0], valid[0]


def bicubic_sample(image: np.ndarray, yy: np.ndarray, xx: np.ndarray):
    """Sample a 2-D image at fractional (row, col) coordinates with the
    shared cubic kernel.  Returns ``(values, valid)``."""
    image = np.ascontiguousarray(image, dtype=np.float64)
    yy = np.ascontiguousarray(yy, dtype=np.float64)
    xx = np.ascontiguousarray(xx, dtype=np.float64)
    ny, nx = image.shape
    y = np.clip(yy, 0.0, ny - 1.0)
    x = np.clip(xx, 0.0, nx - 1.0)
    iy = np.floor(y).astype(np.int64)
    ix = np.floor(x).astype(np.int64)
    fy = y - iy
    fx = x - ix
    taps_x = [(np.clip(ix + kx, 0, nx - 1), wx)
              for kx, wx in zip(range(-1, 3), _cubic_weights(fx))]
    out = np.zeros(yy.shape, dtype=np.float64)
    for ky, wy in zip(range(-1, 3), _cubic_weights(fy)):
        ry = np.clip(iy + ky, 0, ny - 1)
        row = np.zeros(yy.shape, dtype=np.float64)
        for rx, wx in taps_x:
            row += wx * image[ry, rx]
        out += wy * row
    exact_y = fy == 0.0
    exact_x = fx == 0.0
    ok_y = exact_y | ((iy - 1 >= 0) & (iy + 2 <= ny - 1))
    ok_x = exact_x | ((ix - 1 >= 0) & (ix + 2 <= nx - 1))
    inb = (yy >= 0.0) & (yy <= ny - 1.0) & (xx >= 0.0) & (xx <= nx - 1.0)
    return out, inb & ok_y & ok_x


def band_integrals(spectra: np.ndarray, wl0: float, dwl: float,
                   centers: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Gaussian-weighted spectral averages.

    ``spectra`` is (K, L) sampled on the grid ``wl0 + dwl*arange(L)``;
    ``centers`` is (B, S) per-(band, sample) Gaussian centers in the same
    units; ``sigmas`` is (B,).  Returns (B, S, K) weighted means, windowed
    to +-5 sigma.
    """
    spectra = np.ascontiguousarray(spectra, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    sigmas = np.ascontiguousarray(sigmas, dtype=np.float64)
    wl0 = float(wl0)
    dwl = float(dwl)
    nk, nl = spectra.shape
    nb, ns = centers.shape
    out = np.empty((nb, ns, nk), dtype=np.float64)
    grid = wl0 + dwl * np.arange(nl)
    for b in range(nb):
        sig = sigmas[b]
        lo = centers[b].min() - 5.0 * sig
        hi = centers[b].max() + 5.0 * sig
        i0 = max(int(np.floor((lo - wl0) / dwl)), 0)
        i1 = min(int(np.ceil((hi - wl0) / dwl)) + 1, nl)
        t = (grid[None, i0:i1] - centers[b][:, None]) / sig
        w = np.exp(-0.5 * t * t)
        w[np.abs(t) > 5.0] = 0.0
        wsum = w.sum(axis=1)
        resp = w @ spectra[:, i0:i1].T  # (S, K)
        nz = wsum > 0.0
        resp[nz] /= wsum[nz, None]
        resp[~nz] = 0.0
        out[b] = resp
    return out
