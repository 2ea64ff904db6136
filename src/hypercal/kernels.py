"""Hot numeric kernels: cubic-convolution resampling and Gaussian band integration.

Each kernel has one vectorized numpy implementation.  Band-independent
loops run through :func:`band_map` on one thread per CPU.
"""

from __future__ import annotations

import contextvars
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse

# There is no compiled kernel path; the constant stays because the benchmark
# harness records it with every run.
USING_NUMBA = False

# Threads per band loop: the CPUs this process may run on (restrict the
# affinity, e.g. with taskset, for fewer).  Outputs do not depend on it.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def band_map(fn, items) -> None:
    """Call ``fn(item)`` for each item, WORKERS at a time on a thread pool.
    Each item must own a disjoint band slice of the output, so the result
    does not depend on the order.  Each call runs in a copy of the caller's
    context, which carries ``np.errstate``."""
    items = list(items)
    if WORKERS < 2 or len(items) < 2:
        for item in items:
            fn(item)
        return
    with ThreadPoolExecutor(min(WORKERS, len(items))) as pool:
        tasks = [pool.submit(contextvars.copy_context().run, fn, item)
                 for item in items]
        for task in tasks:
            task.result()


def _axis_taps(coords: np.ndarray, n: int):
    """Taps -1..2 of ``coords`` clamped to an axis of ``n`` samples: the
    clipped indices, their Keys (a = -0.5) weights (taps 0 and 1 lie within
    one sample, -1 and 2 between one and two: one polynomial each), the
    floor index, exactness, and validity (inside, with the support inside
    unless exact)."""
    x = np.clip(coords, 0.0, n - 1.0)
    i0 = np.floor(x).astype(np.int64)
    frac = x - i0
    taps, weights = [], []
    for k in range(-1, 3):
        taps.append(np.clip(i0 + k, 0, n - 1))
        at = np.abs(frac - k)
        if k in (0, 1):
            weights.append((1.5 * at - 2.5) * at * at + 1.0)
        else:
            weights.append(-0.5 * (((at - 5.0) * at + 8.0) * at - 4.0))
    exact = frac == 0.0
    inb = (coords >= 0.0) & (coords <= n - 1.0)
    valid = inb & (exact | ((i0 - 1 >= 0) & (i0 + 2 <= n - 1)))
    return taps, weights, i0, exact, valid


def resample_rows(image: np.ndarray, coords: np.ndarray):
    """Cubic-convolution resampling of each row (last axis) of ``image`` at
    per-output source column coordinates ``coords``, shaped as the output or
    broadcasting to it (one row of coordinates and taps for many rows).

    Returns ``(out, valid)`` where ``valid`` (shaped as ``coords``) marks
    outputs whose kernel support stayed inside the row.  Source coordinates
    are clamped to the row extent; exact integer coordinates reproduce the
    input bit-for-bit.
    """
    image = np.ascontiguousarray(image, dtype=np.float64)
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    if coords.ndim != image.ndim or coords.shape[-1] != image.shape[-1] \
            or np.broadcast_shapes(coords.shape, image.shape) != image.shape:
        raise ValueError("coords shape must broadcast to image shape")
    taps, weights, i0, exact, valid = _axis_taps(coords, image.shape[-1])
    out = np.zeros(image.shape, dtype=np.float64)
    for idx, w in zip(taps, weights):
        out += w * np.take_along_axis(image, idx, axis=-1)
    if np.any(exact):
        np.copyto(out, np.take_along_axis(image, i0, axis=-1), where=exact)
    return out, valid


# Budget for the band chunks of a cubic apply in flight, per float64
# temporary: each of the WORKERS tasks gets an equal share.
_CHUNK_BYTES = 8 << 20
_ROW_CHUNK_BYTES = 2 << 20  # float64 rows per chunked resample_rows call

CubicPlan = namedtuple("CubicPlan", "shape taps wy valid")


def cubic_plan(shape, yy: np.ndarray, xx: np.ndarray) -> CubicPlan:
    """Taps, weights and validity of a cubic sampling of a ``(ny, nx)``
    grid at (row, col) coordinates ``yy``, ``xx``, worked out once per
    coordinate map.  Per row tap, ``taps`` holds one sparse
    ``(points, ny*nx)`` matrix with the four column taps of each point
    (flat index, x weight) in tap order, clamped duplicates and zero
    weights kept, and ``wy`` the ``(points, 1)`` row weights."""
    ny, nx = shape
    rows, wy, _, _, ok_y = _axis_taps(np.asarray(yy, dtype=np.float64), ny)
    cols, wx, _, _, ok_x = _axis_taps(np.asarray(xx, dtype=np.float64), nx)
    n = ok_y.size
    cols = np.stack(cols, axis=-1).reshape(n, 4)
    wx = np.stack(wx, axis=-1).ravel()
    indptr = np.arange(0, 4 * n + 1, 4)
    taps = [sparse.csr_array((wx, (r.reshape(n, 1) * nx + cols).ravel(),
                              indptr), shape=(n, ny * nx)) for r in rows]
    return CubicPlan((ny, nx), taps, [w.reshape(n, 1) for w in wy],
                     ok_y & ok_x)


def cubic_apply(plan: CubicPlan, stack: np.ndarray, bands=None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sample ``bands`` (default: all) of a band-last ``(ny, nx, B)`` stack
    of any dtype with ``plan``, a float64 chunk of bands per task of
    :func:`band_map`, into ``out`` (made if None) and return it.  Each
    sparse product sums a row tap's four column taps in order from zero,
    so each band equals its one-band call bit for bit."""
    ny, nx, nb = stack.shape
    if (ny, nx) != plan.shape:
        raise ValueError("stack grid does not match the sampling plan")
    sel = np.arange(nb) if bands is None else np.asarray(bands, dtype=np.intp)
    shape = plan.valid.shape
    if out is None:
        out = np.empty(shape + (sel.size,))
    step = max(1, _CHUNK_BYTES // WORKERS // (8 * max(plan.valid.size, 1)))

    def sample(c0):
        src = np.take(stack, sel[c0:c0 + step], axis=2).reshape(ny * nx, -1)
        src = src.astype(np.float64, copy=False)
        acc = np.zeros((plan.valid.size, src.shape[1]))
        for taps, wy in zip(plan.taps, plan.wy):
            row = taps @ src
            row *= wy
            acc += row
        out[..., c0:c0 + step] = acc.reshape(shape + (-1,))

    band_map(sample, range(0, sel.size, step))
    return out


def bicubic_sample(image: np.ndarray, yy: np.ndarray, xx: np.ndarray):
    """Sample a 2-D image at fractional (row, col) coordinates with the
    shared cubic kernel.  Returns ``(values, valid)``."""
    image = np.asarray(image)
    plan = cubic_plan(image.shape, yy, xx)
    return cubic_apply(plan, image[:, :, None])[..., 0], plan.valid


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
