"""Hot numeric kernels: cubic-convolution resampling and Gaussian band integration.

Each kernel has one vectorized numpy implementation; loops over independent
bands, rows or output points run through :func:`band_map`, which alone splits
them, one thread per CPU."""

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

_CHUNK_BYTES = 2 << 20  # per buffer of the band_map tasks in flight
_COPY_BYTES = 4 << 20   # a float64 block of bands cubic_apply copies


def band_map(fn, n: int, item_bytes: int) -> None:
    """Call ``fn(slice)`` on consecutive slices of ``range(n)``, WORKERS at a
    time on a thread pool; a slice holds the items that fit in one worker's
    share of ``_CHUNK_BYTES`` at ``item_bytes`` per item in each buffer.  A
    task owns a disjoint part of the output and calls nothing that uses the
    pool; each runs in a copy of the caller's context (``np.errstate``)."""
    step = max(1, _CHUNK_BYTES // WORKERS // max(item_bytes, 1))
    slices = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    if WORKERS < 2 or len(slices) < 2:
        for sl in slices:
            fn(sl)
        return
    with ThreadPoolExecutor(min(WORKERS, len(slices))) as pool:
        tasks = [pool.submit(contextvars.copy_context().run, fn, sl)
                 for sl in slices]
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


def resample_rows(image: np.ndarray, coords: np.ndarray,
                  out: np.ndarray | None = None):
    """Cubic-convolution resampling of each row (last axis) of an image of
    2+ dimensions at per-output source column coordinates ``coords``, shaped
    as the output or broadcasting to it (one row of coordinates and taps for
    many rows), by :func:`band_map` over first-axis views, into float64
    ``out`` (made if None; may be a strided view or ``image`` itself).

    Returns ``(out, valid)`` where ``valid`` (shaped as ``coords``) marks
    outputs whose kernel support stayed inside the row.  Source coordinates
    are clamped to the row extent; exact integer coordinates reproduce the
    input bit-for-bit.

    Taps are gathered with ``np.take`` on flat indices into each first-axis
    item, its axes ordered by falling stride (a transposed view is read in
    memory order).  Coordinates shared by every item have their indices
    built once and taken along axis 1 of a task's ``(items, rest)`` view;
    per-item ones offset each row's taps by the row's start in the task's
    flat view.  Every output sums ``0 + w_k * tap_k`` for k = -1..2 in
    order, then exact coordinates copy their sample, so the split leaves
    every bit as one task writes it.
    """
    image = np.asarray(image)
    coords = np.asarray(coords, dtype=np.float64)
    if image.ndim < 2 or coords.ndim != image.ndim \
            or coords.shape[-1] != image.shape[-1] \
            or np.broadcast_shapes(coords.shape, image.shape) != image.shape:
        raise ValueError("need a 2+-D image and coords broadcasting to it")
    taps, weights, i0, exact, valid = _axis_taps(coords, image.shape[-1])
    out = np.empty(image.shape) if out is None else out

    order = [0] + sorted(range(1, image.ndim), key=lambda d: -image.strides[d])
    src_all, dst = image.transpose(order), out.transpose(order)
    rest = src_all.shape[1:]
    size = int(np.prod(rest))
    axis = order.index(image.ndim - 1) - 1       # the rows' axis in ``rest``
    step = int(np.prod(rest[axis + 1:]))
    # each row's flat start in an item, and its taps' offsets from it
    starts = np.arange(size).reshape(rest).take([0], axis=axis)
    taps = [t.transpose(order) for t in taps + [i0]]
    weights = [w.transpose(order) for w in weights]
    exact = exact.transpose(order)
    shared = coords.shape[0] == 1
    if shared:
        taps = [starts + step * t[0] for t in taps]
    elif step > 1:
        taps = [step * t for t in taps]

    def resample(sl):
        src = src_all[sl]
        n = src.shape[0]
        if shared:
            at, flat = slice(None), src.reshape(n, size)

            def gather(t):
                return np.take(flat, t, axis=1)
        else:
            at, flat = sl, src.reshape(-1)
            first = starts + (np.arange(n) * size).reshape(
                (n,) + (1,) * len(rest))

            def gather(t):
                return np.take(flat, first + t[sl])
        acc = np.zeros(src.shape)
        for t, w in zip(taps, weights):
            acc += w[at] * gather(t)
        if exact[at].any():
            np.copyto(acc, gather(taps[4]), where=exact[at])
        dst[sl] = acc

    band_map(resample, image.shape[0], 8 * size)
    return out, valid


CubicPlan = namedtuple("CubicPlan", "shape taps wy valid")


def cubic_plan(shape, yy: np.ndarray, xx: np.ndarray) -> CubicPlan:
    """Taps, weights and validity of a cubic sampling of a ``(ny, nx)``
    grid at (row, col) coordinates ``yy``, ``xx``, worked out once per
    coordinate map.  Per row tap, ``taps`` holds one sparse CSR
    ``(points, ny*nx)`` matrix with the four column taps of each point
    (flat index, x weight) in tap order, clamped duplicates and zero
    weights kept, and ``wy`` the ``(points, 1)`` row weights.  Every row
    holds four entries, so :func:`_point_rows` takes a slice of points as
    a view.  Indices are int32 where ``ny*nx`` and ``4*points`` fit."""
    ny, nx = shape
    rows, wy, _, _, ok_y = _axis_taps(np.asarray(yy, dtype=np.float64), ny)
    cols, wx, _, _, ok_x = _axis_taps(np.asarray(xx, dtype=np.float64), nx)
    n = ok_y.size
    index = np.int32 if max(ny * nx, 4 * n) < 2 ** 31 else np.int64
    cols = np.stack(cols, axis=-1).reshape(n, 4).astype(index)
    wx = np.stack(wx, axis=-1).ravel()
    indptr = np.arange(0, 4 * n + 1, 4, dtype=index)
    taps = [sparse.csr_array((wx, (r.reshape(n, 1).astype(index) * nx
                                   + cols).ravel(), indptr),
                             shape=(n, ny * nx)) for r in rows]
    return CubicPlan((ny, nx), taps, [w.reshape(n, 1) for w in wy],
                     ok_y & ok_x)


def _point_rows(taps, sl: slice):
    """Rows ``sl`` of a :func:`cubic_plan` tap matrix as views of its
    arrays (a scipy row slice copies them), in their index dtype; each row
    keeps its four column taps in order."""
    n = sl.stop - sl.start
    span = slice(4 * sl.start, 4 * sl.stop)
    return sparse.csr_array(
        (taps.data[span], taps.indices[span], taps.indptr[:n + 1]),
        shape=(n, taps.shape[1]), copy=False)


def cubic_apply(plan: CubicPlan, stack: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sample every band of a band-last ``(ny, nx, B)`` stack of any dtype
    with ``plan`` into ``out`` (made if None; may be a strided view whose
    point axes merge into one) and return it.

    A C-contiguous float64 stack that ``out`` does not overlap is read in
    place as its ``(ny*nx, B)`` view; any other goes through float64
    copies of blocks of bands within ``_COPY_BYTES`` (one band at least).
    ``out`` may overlap such a stack only over the stack's own band
    columns, as its leading ``points`` rows of the ``(ny*nx, B)`` view do:
    a block's bands are copied before any of its points is stored, and
    stores land in columns that no later block reads.  :func:`band_map`
    splits the output points: a task multiplies its rows of the four tap
    matrices with the source, sums the row-weighted products and stores
    its rows of ``out``.  Each point's sparse product sums its four column
    taps in order from zero, so every band equals its one-band call bit
    for bit, however points and bands are split."""
    ny, nx, nb = stack.shape
    if (ny, nx) != plan.shape:
        raise ValueError("stack grid does not match the sampling plan")
    n = plan.valid.size
    if out is None:
        out = np.empty(plan.valid.shape + (nb,))
    flat = out.reshape(n, nb)
    if flat.size and not np.may_share_memory(flat, out):
        raise ValueError("out's point axes do not merge into one")
    in_place = stack.dtype == np.float64 and stack.flags.c_contiguous
    if np.may_share_memory(flat, stack):
        start = (flat.__array_interface__["data"][0]
                 - stack.__array_interface__["data"][0])
        if not (in_place and flat.strides[1] == 8 and start % (8 * nb) == 0
                and (n < 2 or flat.strides[0] == 8 * nb)):
            raise ValueError("out overlaps the stack outside its band "
                             "columns")
        in_place = False
    if in_place:
        block = max(nb, 1)
    else:
        block = max(1, _COPY_BYTES // (8 * ny * nx or 1))

    for b0 in range(0, nb, block):
        bands = slice(b0, b0 + block)
        src = stack[:, :, bands] if in_place else np.array(
            stack[:, :, bands], dtype=np.float64, order="C")
        src = src.reshape(ny * nx, -1)
        dst = flat[:, bands]

        def sample(sl):
            acc = np.zeros((sl.stop - sl.start, src.shape[1]))
            for taps, wy in zip(plan.taps, plan.wy):
                row = _point_rows(taps, sl) @ src
                row *= wy[sl]
                acc += row
                del row  # freed before the next product is made
            dst[sl] = acc

        band_map(sample, n, 8 * src.shape[1])
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
