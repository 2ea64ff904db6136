"""Operational artifact corrections: bunch-pixel repair, scan-interference
removal, and spatially varying along-track stray-light deconvolution."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cube import DN_MAX, SpectralCube
from .errors import EstimationError
from .simulate import BunchCluster, SEGMENT_LINES, STRAY_BLOCKS

BUNCH_MAD_K = 6.0
BUNCH_BASELINE_HALF = 8        # columns each side for the local baseline
NOTCH_ORDER = 4
NOTCH_HALF_WIDTH = 0.01        # cycles/line
INTERFERENCE_SNR = 6.0
INTERFERENCE_MIN_FREQ = 0.01   # below this the banding path applies
BANDING_BANDS = (160, 170)     # inclusive SWIR indices
WIENER_EPS = 1e-3
KERNEL_EXTENT_REL = 0.01       # tap level counted by kernel_extent


# ---------------------------------------------------------------------------
# bunch pixels

def detect_bunch_pixels(cube: SpectralCube, k: float = BUNCH_MAD_K) -> list:
    """Flag runs of hot columns per band.

    A column is hot when its along-track median exceeds the median of an
    annulus of neighboring columns (8 to 24 columns away on each side; the
    guard keeps runs up to 15 px from polluting their own baseline) by more
    than ``k`` times their MAD (floored at half a DN so quantization-flat
    bands cannot divide by zero).  A column with no neighbor inside the
    swath is never hot.  Adjacent hot columns merge into clusters capped at
    length 15.
    """
    col_med = np.median(np.asarray(cube.data, dtype=np.float64), axis=0)
    samples, bands = col_med.shape
    h = BUNCH_BASELINE_HALF
    offsets = np.r_[-3 * h:-h + 1, h:3 * h + 1]
    neighbors = np.arange(samples)[:, None] + offsets      # (S, 34), ascending
    inside = (neighbors >= 0) & (neighbors < samples)
    counts = inside.sum(axis=1)
    hot = np.zeros((samples, bands), dtype=bool)
    # one median per group of columns with the same number of neighbors
    for n in np.unique(counts[counts > 0]):
        cols = np.flatnonzero(counts == n)
        neigh = col_med[neighbors[cols][inside[cols]].reshape(cols.size, n)]
        base = np.median(neigh, axis=1)                    # (cols, B)
        mad = np.median(np.abs(neigh - base[:, None]), axis=1)
        hot[cols] = col_med[cols] - base > k * np.maximum(mad, 0.5)
    # runs of hot columns, band by band in swath order
    edges = np.diff(np.pad(hot.T, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    band_med = np.median(col_med, axis=0)
    clusters = []
    for (b, s0), (_, s1) in zip(np.argwhere(edges == 1), np.argwhere(edges == -1)):
        length = min(s1 - s0, 15)
        ratio = col_med[s0:s0 + length, b] / max(band_med[b], 1e-12)
        profile = tuple(float(max(r, 1.0 + 1e-6)) for r in ratio)
        clusters.append(BunchCluster(int(b), int(s0), int(length), profile))
    return clusters


def correct_bunch_pixels(cube: SpectralCube, clusters):
    """Replace each corrupted column from the most correlated clean band.

    For every (band, column) in a cluster the reference band maximizing
    along-track correlation over the neighboring good columns (+-1..+-5)
    is chosen, a linear relation is fit on those neighbors, and the column
    is predicted from the reference band.  Columns with no clean reference
    band are marked invalid instead of fabricated.

    Returns ``(corrected cube, validity mask)``.
    """
    data = cube.data.astype(np.float64)
    lines, samples, bands = data.shape
    valid = np.ones(data.shape, dtype=bool)
    if not clusters:
        return cube, valid
    corrupted = np.zeros((bands, samples), dtype=bool)
    for c in clusters:
        corrupted[c.band, c.start_sample:c.start_sample + c.length] = True
    out = data.copy()
    for c in clusters:
        for p in range(c.start_sample, c.start_sample + c.length):
            # nearest 5 clean columns on each side (clusters can cover the
            # whole +-5 window, so walk outward past them)
            neigh = []
            for step in (-1, 1):
                q, found = p + step, 0
                while 0 <= q < samples and found < 5 and abs(q - p) <= 40:
                    if not corrupted[c.band, q]:
                        neigh.append(q)
                        found += 1
                    q += step
            cand = ~corrupted[:, p] & ~corrupted[:, neigh].any(axis=1)
            cand[c.band] = False
            x = data[:, neigh, c.band].ravel()
            if not cand.any() or not neigh or x.std() == 0:
                valid[:, p, c.band] = False
                continue
            best, best_r = None, -2.0
            for bb in np.flatnonzero(cand):
                y = data[:, neigh, bb].ravel()
                if y.std() == 0:
                    continue
                r = float(np.corrcoef(x, y)[0, 1])
                if r > best_r:
                    best, best_r = bb, r
            if best is None:
                valid[:, p, c.band] = False
                continue
            y = data[:, neigh, best].ravel()
            alpha, beta = np.polyfit(y, x, 1)
            out[:, p, c.band] = alpha * data[:, p, best] + beta
    return cube.with_data(out), valid


# ---------------------------------------------------------------------------
# scan interference

def detect_interference(cube: SpectralCube,
                        snr_threshold: float = INTERFERENCE_SNR) -> list:
    """Detect periodic along-track components.

    The per-line swath-mean signal of each band is transformed; the
    band-median amplitude spectrum is searched for peaks exceeding
    ``snr_threshold`` times the local spectral noise floor (rolling
    median), excluding DC and frequencies below 0.01 cycles/line.
    Returns a list of ``(frequency, amplitude_dn)`` tuples.
    """
    if cube.lines < 128:
        raise EstimationError("interference detection needs >= 128 lines")
    data = cube.data.astype(np.float64)
    lines = cube.lines
    sig = data.mean(axis=1)                     # (L, B)
    sig = sig - sig.mean(axis=0, keepdims=True)
    amp = np.abs(np.fft.rfft(sig, axis=0)) * 2.0 / lines   # (F, B)
    spectrum = np.median(amp, axis=1)
    freqs = np.fft.rfftfreq(lines)
    half = 8
    found = []
    for i in range(1, spectrum.shape[0]):
        if freqs[i] < INTERFERENCE_MIN_FREQ:
            continue
        lo = max(i - half, 1)
        hi = min(i + half + 1, spectrum.shape[0])
        neigh = np.concatenate([spectrum[lo:i], spectrum[i + 1:hi]])
        floor = np.median(neigh)
        if spectrum[i] > snr_threshold * max(floor, 1e-12):
            found.append((float(freqs[i]), float(spectrum[i])))
    # merge adjacent bins into single components (keep the strongest bin)
    merged = []
    for f, a in sorted(found):
        if merged and f - merged[-1][0] <= 1.5 / lines:
            if a > merged[-1][1]:
                merged[-1] = (f, a)
        else:
            merged.append((f, a))
    return merged


def _notch_gain(freqs: np.ndarray, f0: float, half_width: float,
                order: int) -> np.ndarray:
    """Butterworth notch magnitude: 0 at f0, 0.5 power at +-half_width."""
    d = np.abs(freqs - f0)
    with np.errstate(divide="ignore"):
        g = 1.0 / (1.0 + (half_width / np.where(d > 0, d, np.inf)) ** (2 * order))
    g[d == 0] = 0.0
    return g


def remove_interference(cube: SpectralCube, freqs):
    """Two-stage interference removal.

    (1) Per band, an along-track Butterworth notch (order 4, half-width
    0.01 cycles/line) at each detected frequency; (2) the low-frequency
    banding profile taken from the mean of the atmospheric-absorption
    window bands, zero-meaned and subtracted everywhere.
    """
    for f in freqs:
        f0 = f[0] if isinstance(f, (tuple, list)) else float(f)
        if f0 <= 0:
            raise EstimationError("cannot notch at DC")
    data = cube.data.astype(np.float64)
    lines = cube.lines
    fgrid = np.fft.rfftfreq(lines)
    gain = np.ones_like(fgrid)
    for f in freqs:
        f0 = f[0] if isinstance(f, (tuple, list)) else float(f)
        gain *= _notch_gain(fgrid, f0, NOTCH_HALF_WIDTH, NOTCH_ORDER)
    spec = np.fft.rfft(data, axis=0)
    out = np.fft.irfft(spec * gain[:, None, None], n=lines, axis=0)

    b0, b1 = BANDING_BANDS
    if b1 < cube.bands:
        # banding path: only instruments carrying the atmospheric-absorption
        # window bands see the low-frequency banding pattern
        profile = out[:, :, b0:b1 + 1].mean(axis=(1, 2))
        out -= (profile - profile.mean())[:, None, None]
    return cube.with_data(out)


# ---------------------------------------------------------------------------
# stray light

@dataclass(frozen=True)
class StrayPSFModel:
    """Measured along-track kernels on a (steering angle, sample) grid."""

    steering_deg: np.ndarray    # (T,) sorted
    sample_pos: np.ndarray      # (P,) sorted, fractional swath positions
    taps: np.ndarray            # (T, P, K) kernels, each summing to 1

    def __post_init__(self):
        if np.any(self.taps < -1e-9):
            raise EstimationError("stray kernel taps must be non-negative")
        sums = self.taps.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise EstimationError("stray kernel taps must sum to 1")

    @property
    def tap_count(self) -> int:
        return self.taps.shape[2]

    def kernel(self, steering_deg: float, sample_frac: float) -> np.ndarray:
        """Bilinear interpolation over the measured grid (clamped)."""
        t = np.clip(steering_deg, self.steering_deg[0], self.steering_deg[-1])
        p = np.clip(sample_frac, self.sample_pos[0], self.sample_pos[-1])

        def _axis(grid, v):
            i1 = int(np.searchsorted(grid, v))
            i1 = min(max(i1, 1), grid.shape[0] - 1)
            i0 = i1 - 1
            span = grid[i1] - grid[i0]
            w = 0.0 if span == 0 else (v - grid[i0]) / span
            return i0, i1, w

        ti0, ti1, tw = _axis(self.steering_deg, t)
        pi0, pi1, pw = _axis(self.sample_pos, p)
        k = ((1 - tw) * (1 - pw) * self.taps[ti0, pi0]
             + (1 - tw) * pw * self.taps[ti0, pi1]
             + tw * (1 - pw) * self.taps[ti1, pi0]
             + tw * pw * self.taps[ti1, pi1])
        return k / k.sum()

    def centroid(self, steering_deg: float, sample_frac: float) -> float:
        k = self.kernel(steering_deg, sample_frac)
        h = k.shape[0] // 2
        return float((np.arange(-h, h + 1) * k).sum())

    @classmethod
    def identity(cls, tap_count: int = 31) -> "StrayPSFModel":
        taps = np.zeros((2, 2, tap_count))
        taps[:, :, tap_count // 2] = 1.0
        return cls(np.array([-2.0, 2.0]), np.array([0.0, 1.0]), taps)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps({
            "steering_deg": self.steering_deg.tolist(),
            "sample_pos": self.sample_pos.tolist(),
            "taps": self.taps.tolist(),
        }, indent=1), encoding="utf-8")

    @classmethod
    def from_json(cls, path) -> "StrayPSFModel":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(np.asarray(raw["steering_deg"]),
                   np.asarray(raw["sample_pos"]), np.asarray(raw["taps"]))


def kernel_extent(taps: np.ndarray) -> int:
    """Number of contiguous taps above KERNEL_EXTENT_REL of the peak
    around it."""
    peak = taps.max()
    above = np.flatnonzero(taps > KERNEL_EXTENT_REL * peak)
    return int(above[-1] - above[0] + 1)


def estimate_stray_psf(point_cubes, steering_deg: np.ndarray,
                       band: int = 0, tap_count: int = 31) -> StrayPSFModel:
    """Measure stray kernels from point-source responses.

    ``point_cubes`` is a list of ``(cube, (line, sample))`` pairs covering
    at least 3 along-track positions x 3 sample blocks.  Each point's
    along-track column is background-subtracted and normalized into a
    kernel; kernels are arranged on the (steering, sample) grid for
    bilinear interpolation.
    """
    if tap_count < 1 or tap_count % 2 == 0:
        raise EstimationError("tap_count must be odd and positive")
    steering_deg = np.asarray(steering_deg, dtype=np.float64)
    h = tap_count // 2
    entries = []
    for cube, (l0, s0) in point_cubes:
        data = cube.data.astype(np.float64)
        lines, samples = data.shape[0], data.shape[1]
        if not (h <= l0 < lines - h):
            raise EstimationError("point source too close to the strip edge")
        col = data[:, s0, band]
        window = col[l0 - h:l0 + h + 1].copy()
        bg_idx = np.r_[0:max(l0 - 2 * h, 1), min(l0 + 2 * h, lines - 1):lines]
        background = np.median(col[bg_idx])
        window -= background
        if window.max() <= 0:
            raise EstimationError("point source absent at the stated location")
        if cube.pixel_kind == "dn12" and col[l0] >= DN_MAX:
            raise EstimationError("point source saturated")
        window = np.clip(window, 0.0, None)
        taps = window / window.sum()
        theta = float(steering_deg[l0])
        entries.append((theta, s0 / samples, taps))

    thetas = sorted({round(t, 6) for t, _, _ in entries})
    poss = sorted({round(p, 6) for _, p, _ in entries})
    if len(thetas) < 3 or len(poss) < 3:
        raise EstimationError(
            "need point sources at >= 3 along-track positions x 3 sample blocks")
    taps = np.zeros((len(thetas), len(poss), tap_count))
    seen = np.zeros((len(thetas), len(poss)), dtype=bool)
    for t, p, k in entries:
        i = thetas.index(round(t, 6))
        j = poss.index(round(p, 6))
        taps[i, j] = k
        seen[i, j] = True
    if not seen.all():
        raise EstimationError("point-source grid has holes")
    return StrayPSFModel(np.asarray(thetas), np.asarray(poss), taps)


def correct_stray(cube: SpectralCube, model: StrayPSFModel,
                  steering_deg: np.ndarray):
    """Deconvolve the along-track stray kernel per segment and sample block.

    Segments of SEGMENT_LINES lines advance by half a segment and are
    blended with 50% overlap-add; each column of each of the STRAY_BLOCKS
    sample blocks is divided in the frequency domain by the local kernel
    with Wiener regularization (WIENER_EPS of the peak spectral power).
    The filter's DC gain is pinned to the kernel's exact DC inverse so an
    identity kernel passes data through unchanged and flux is conserved.
    """
    steering_deg = np.asarray(steering_deg, dtype=np.float64)
    data = cube.data.astype(np.float64)
    lines, samples, bands = data.shape
    if steering_deg.shape[0] != lines:
        raise EstimationError("steering profile length must equal cube lines")
    out = np.zeros_like(data)
    weight = np.zeros(lines)
    block_edges = np.linspace(0, samples, STRAY_BLOCKS + 1).astype(int)
    n = SEGMENT_LINES
    win = np.hanning(n + 2)[1:-1]
    h = model.tap_count // 2
    for seg0 in range(0, lines, n // 2):
        seg1 = min(seg0 + n, lines)
        # pad the trailing segment backwards so every segment is full-length
        s0 = max(seg1 - n, 0)
        seg = data[s0:seg1]
        theta = float(steering_deg[s0:seg1].mean())
        wseg = win[: seg1 - s0]
        corrected = np.empty_like(seg)
        for c0, c1 in zip(block_edges[:-1], block_edges[1:]):
            frac = (0.5 * (c0 + c1)) / samples
            taps = model.kernel(theta, frac)
            kpad = np.zeros(n)
            kpad[:model.tap_count] = taps
            kpad = np.roll(kpad, -h)
            kf = np.fft.rfft(kpad)
            power = np.abs(kf) ** 2
            wiener = np.conj(kf) / (power + WIENER_EPS * power.max())
            # pin DC to the exact inverse (kernel sums to 1)
            dc = wiener[0].real * kf[0].real
            if abs(dc) > 1e-12:
                wiener = wiener / dc
            block = seg[:, c0:c1, :]
            spec = np.fft.rfft(block, n=n, axis=0)
            rec = np.fft.irfft(spec * wiener[:, None, None], n=n, axis=0)
            corrected[:, c0:c1, :] = rec[: seg.shape[0]]
        out[s0:seg1] += corrected * wseg[:, None, None]
        weight[s0:seg1] += wseg
        if seg1 >= lines:
            break
    out /= np.maximum(weight, 1e-12)[:, None, None]
    return cube.with_data(out)
