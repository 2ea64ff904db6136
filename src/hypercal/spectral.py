"""Spectral characterization and correction.

Covers relative-spectral-response analysis from monochromator sweeps,
smile estimation from spatially uniform scenes with atmospheric absorption
dips, absolute wavelength-shift recovery from the dip positions, and
keystone estimation/correction against a reference band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import SpectralCube, read_model
from .errors import EstimationError
from .kernels import resample_rows
from .registration import parabolic_vertex, shift_1d_batch

SMILE_WINDOW = 10          # band-index correlation window
SMILE_MIN_WINDOWS = 4      # usable windows below which stride 2 is used
WINDOW_SHIFT_PASSES = 5    # refinement passes of the window shifts
WINDOW_SHIFT_TOL = 1e-3    # shift update (bands) at which a window settles
KEYSTONE_REF_BAND = 30
KEYSTONE_MAX_PX = 3.0
KEYSTONE_MIN_CONFIDENCE = 0.45
KEYSTONE_WINDOW = 64       # samples per field window
KEYSTONE_DEGREE = 2        # shift-vs-band polynomial order
DIP_MIN_DEPTH = 0.02       # dip must sit >= 2% below the local continuum
QUADRATIC_GAIN = 0.25      # quadratic fit must cut residual RMS by 25%
MONOCHROMATOR_LINE_NM = 2.0  # width of the sweep's box-shaped line
RSR_NOISE_FLOOR = 1e-9     # peak response a channel must exceed


# ---------------------------------------------------------------------------
# absorption-line library

# nominal wavelengths (nm): O2 at 760, 1265 and 1461; H2O at 823.04, 936
# and 1133; CO2 at 1570, 1610, 2010 and 2060
ABSORPTION_LINES_NM = (760.0, 1265.0, 1461.0, 823.04, 936.0, 1133.0, 1570.0,
                       1610.0, 2010.0, 2060.0)


# ---------------------------------------------------------------------------
# RSR from monochromator sweeps

@dataclass(frozen=True)
class RSRScan:
    """Per-(band, sample) centers and widths from a wavelength sweep."""

    center_nm: np.ndarray       # (bands, samples), NaN where flagged
    fwhm_nm: np.ndarray         # (bands, samples), NaN where flagged
    responding: np.ndarray      # (bands, samples) bool


def _half_max_width(wl: np.ndarray, resp: np.ndarray) -> float:
    peak = resp.max()
    half = 0.5 * peak
    above = resp >= half
    idx = np.flatnonzero(above)
    i0, i1 = idx[0], idx[-1]
    if i0 == 0 or i1 == resp.shape[0] - 1:
        raise EstimationError("sweep does not cover the half-max crossings")
    # linear interpolation between the samples straddling half-max
    left = wl[i0 - 1] + (half - resp[i0 - 1]) / (resp[i0] - resp[i0 - 1]) \
        * (wl[i0] - wl[i0 - 1])
    right = wl[i1] + (half - resp[i1]) / (resp[i1 + 1] - resp[i1]) \
        * (wl[i1 + 1] - wl[i1])
    return float(right - left)


def rsr_from_scan(wavelengths_nm: np.ndarray,
                  responses: np.ndarray) -> RSRScan:
    """Analyze a monochromator sweep.

    ``responses`` stacks per-wavelength response arrays as
    (n_wl, bands, samples); ``wavelengths_nm`` must be strictly increasing.
    Centers come from a parabolic refinement of the argmax; FWHM from
    linearly interpolated half-max crossings, deconvolved for the
    monochromator's own line width (a MONOCHROMATOR_LINE_NM-wide box,
    variance w^2/12).  Channels whose peak response stays at or below
    RSR_NOISE_FLOOR are flagged non-responding.
    """
    wl = np.asarray(wavelengths_nm, dtype=np.float64)
    resp = np.asarray(responses, dtype=np.float64)
    if wl.ndim != 1 or resp.ndim != 3 or resp.shape[0] != wl.shape[0]:
        raise EstimationError("sweep shape must be (n_wl, bands, samples)")
    if np.any(np.diff(wl) <= 0):
        raise EstimationError("sweep wavelengths must be strictly increasing")
    _, nb, ns = resp.shape
    center = np.full((nb, ns), np.nan)
    fwhm = np.full((nb, ns), np.nan)
    ok = np.zeros((nb, ns), dtype=bool)
    for b in range(nb):
        for s in range(ns):
            r = resp[:, b, s]
            i = int(np.argmax(r))
            if r[i] <= RSR_NOISE_FLOOR:
                continue
            if 0 < i < r.shape[0] - 1:
                center[b, s] = wl[i] + parabolic_vertex(*r[i - 1:i + 2]) \
                    * (wl[i + 1] - wl[i])
            else:
                center[b, s] = wl[i]
            try:
                width = _half_max_width(wl, r)
            except EstimationError:
                continue
            # remove the scan line's own broadening (FWHM-equivalent of a
            # box of width w is 2*sqrt(2 ln 2)*w/sqrt(12))
            broadening = (2.0 * np.sqrt(2.0 * np.log(2.0))) ** 2 \
                * MONOCHROMATOR_LINE_NM ** 2 / 12.0
            fwhm[b, s] = np.sqrt(max(width ** 2 - broadening, 0.0))
            ok[b, s] = True
    return RSRScan(center, fwhm, ok)


# ---------------------------------------------------------------------------
# smile

@dataclass(frozen=True)
class SmileModel:
    """Per-sample wavelength offset relative to the center column."""

    instrument: str
    offsets_nm: np.ndarray      # (samples,), 0 at the center sample
    kind: str                   # "linear" | "quadratic"
    coefficients: np.ndarray    # polynomial in (s - center), high order first
    peak_to_peak_nm: float
    residual_rms_nm: float

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise EstimationError(f"unknown smile fit kind {self.kind!r}")

    from_json = classmethod(read_model)


def _detrended_std(w: np.ndarray) -> float:
    x = np.arange(w.shape[0], dtype=np.float64)
    return float(np.std(w - np.polyval(np.polyfit(x, w, 1), x)))


def _window_shifts(a: np.ndarray, b: np.ndarray, max_shift: float):
    """Iteratively refined :func:`shift_1d_batch` over ``(N, L)`` window
    stacks: each pass re-aligns the unsettled rows of ``b`` by their running
    estimates and accumulates residuals, canceling the short-window
    shrinkage bias.  Returns ``(shifts, confidences, ok)``; ``ok`` is False
    for rows that had no spectral content in some pass."""
    total = np.zeros(a.shape[0])
    conf = np.zeros(a.shape[0])
    ok = np.ones(a.shape[0], dtype=bool)
    rows = np.arange(a.shape[0])
    current = b
    for i in range(WINDOW_SHIFT_PASSES):
        est, c, valid = shift_1d_batch(a[rows], current, max_shift=max_shift)
        ok[rows[~valid]] = False
        rows, est = rows[valid], est[valid]
        total[rows] += est
        conf[rows] = c[valid]
        over = np.abs(total[rows]) > max_shift
        total[rows[over]] = np.clip(total[rows[over]], -max_shift, max_shift)
        conf[rows[over]] = 0.0
        rows = rows[~over & (np.abs(est) >= WINDOW_SHIFT_TOL)]
        if rows.size == 0 or i == WINDOW_SHIFT_PASSES - 1:
            break
        # out(x) = b(x + total): b shifted by -total
        coords = np.arange(b.shape[1], dtype=np.float64) + total[rows, None]
        current, _ = resample_rows(b[rows], coords)
    return total, conf, ok


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    return float(v[np.searchsorted(cum, 0.5 * cum[-1])])


def estimate_smile(cube: SpectralCube, window: int = SMILE_WINDOW,
                   stride: int | None = None) -> SmileModel:
    """Estimate the across-swath wavelength offset curve.

    Expects a radiometrically corrected cube of a spatially uniform,
    spectrally structured scene.  Each column's line-mean spectrum is
    correlated against the center column's over sliding band windows; index
    shifts are converted to nm with the local inter-band spacing, averaged
    with confidence weights, then fit linear-vs-quadratic in sample
    position.  The model is anchored to exactly 0 at the center column.
    The default ``stride`` is 2 bands up to 64 bands and 8 above, or 2 where
    8 leaves fewer than SMILE_MIN_WINDOWS windows with a usable feature.
    """
    spectra = cube.data.mean(axis=0, dtype=np.float64)    # (samples, bands)
    samples, bands = spectra.shape
    if bands < window:
        raise EstimationError("fewer bands than the correlation window")
    if window < 8:
        raise EstimationError("correlation window shorter than 8 bands")
    centers = cube.centers_nm
    spacing = np.gradient(centers)
    center_col = samples // 2
    ref = spectra[center_col]
    if np.std(ref) < 1e-9 * max(abs(np.mean(ref)), 1.0):
        raise EstimationError("featureless spectra: cannot estimate smile")

    def usable_windows(step):
        """Starts of the windows with a feature, and their structure."""
        starts = np.arange(0, bands - window + 1, step)
        structure = np.array([_detrended_std(ref[w0:w0 + window])
                              for w0 in starts])
        use = np.flatnonzero(structure > 0.05 * structure.max())
        return starts[use], structure[use]

    w0s, ref_structure = usable_windows(
        stride if stride is not None else 2 if bands <= 64 else 8)
    if stride is None and w0s.size < SMILE_MIN_WINDOWS:
        w0s, ref_structure = usable_windows(2)
    # every (sample, usable window) pair, sample-major
    b = np.lib.stride_tricks.sliding_window_view(spectra, window, axis=1)[:, w0s]
    a = np.broadcast_to(ref[w0s[:, None] + np.arange(window)], b.shape)
    sh, conf, ok = _window_shifts(a.reshape(-1, window),
                                  b.reshape(-1, window), window / 2.0)
    shape = (samples, w0s.size)
    keep = (ok & (conf > 0)).reshape(shape)
    vals = -sh.reshape(shape) * spacing[w0s + window // 2]
    wgts = conf.reshape(shape) * ref_structure
    raw = np.full(samples, np.nan)
    for s in range(samples):
        if keep[s].any():
            # robust combine: confident outlier windows would poison a mean
            raw[s] = _weighted_median(vals[s, keep[s]], wgts[s, keep[s]])
    good = np.isfinite(raw)
    if good.sum() < 8:
        raise EstimationError("too few columns with usable spectral structure")

    u = np.arange(samples, dtype=np.float64) - center_col
    lin = np.polyfit(u[good], raw[good], 1)
    quad = np.polyfit(u[good], raw[good], 2)
    rms_lin = float(np.sqrt(np.mean((np.polyval(lin, u[good]) - raw[good]) ** 2)))
    rms_quad = float(np.sqrt(np.mean((np.polyval(quad, u[good]) - raw[good]) ** 2)))
    if rms_quad <= (1.0 - QUADRATIC_GAIN) * rms_lin:
        kind, coef, rms = "quadratic", quad, rms_quad
    else:
        kind, coef, rms = "linear", lin, rms_lin
    offsets = np.polyval(coef, u) - np.polyval(coef, 0.0)
    instrument = cube.band_meta[0].instrument if cube.band_meta else "vnir"
    return SmileModel(instrument, offsets, kind, coef,
                      float(offsets.max() - offsets.min()), rms)


def correct_smile(cube: SpectralCube, model: SmileModel,
                  out: np.ndarray | None = None):
    """Resample every column's spectrum onto the center column's wavelength
    registration, into float64 ``out`` (made if None; may be ``cube.data``).
    Returns ``(corrected cube, validity mask)``, the mask a read-only view
    repeated over the lines, False where the kernel support left the cube."""
    if model.offsets_nm.shape[0] != cube.samples:
        raise EstimationError("smile model sample count does not match cube")
    spacing = np.gradient(cube.centers_nm)
    coords = np.arange(cube.bands, dtype=np.float64) \
        - model.offsets_nm[:, None] / spacing
    out, valid = resample_rows(cube.data, coords[None], out=out)
    return (cube.with_data(out, pixel_kind="radiance"),
            np.broadcast_to(valid, out.shape))


# ---------------------------------------------------------------------------
# absolute wavelength shift

def absolute_shift(spectrum: np.ndarray, centers_nm: np.ndarray,
                   search_nm: float = 15.0):
    """Absolute wavelength offset from atmospheric absorption dips.

    Each library line inside the band range is located by fitting a
    parabola (in log radiance, exact for Gaussian dips) through the
    continuum-normalized local minimum and its neighbors.  Returns
    ``(delta_nm, per_line)`` where ``delta_nm`` is the median of
    (observed - nominal) and ``per_line`` maps nominal wavelength to its
    individual offset.  Requires at least two detectable dips.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    centers = np.asarray(centers_nm, dtype=np.float64)
    if spectrum.shape != centers.shape or spectrum.ndim != 1:
        raise EstimationError("spectrum and band centers must be 1-D and equal")
    if np.any(spectrum <= 0):
        raise EstimationError("non-positive radiance in dip search")
    per_line = {}
    for nominal in ABSORPTION_LINES_NM:
        lo = nominal - search_nm
        hi = nominal + search_nm
        idx = np.flatnonzero((centers >= lo - 1e-9) & (centers <= hi + 1e-9))
        if idx.size < 3 or idx[0] < 3 or idx[-1] > centers.size - 4:
            continue
        w0, w1 = idx[0] - 3, idx[-1] + 3
        wl = centers[w0:w1 + 1]
        seg = spectrum[w0:w1 + 1]
        # linear continuum anchored on the 3 bands at each window edge
        edge_x = np.concatenate([wl[:3], wl[-3:]])
        edge_y = np.concatenate([seg[:3], seg[-3:]])
        cont = np.polyval(np.polyfit(edge_x, edge_y, 1), wl)
        if np.any(cont <= 0):
            continue
        ratio = seg / cont
        inner = slice(3, ratio.size - 3)
        i = 3 + int(np.argmin(ratio[inner]))
        if ratio[i] > 1.0 - DIP_MIN_DEPTH:
            continue
        if not (centers[w0 + i] >= lo and centers[w0 + i] <= hi):
            continue
        obs = wl[i] + parabolic_vertex(*np.log(ratio[i - 1:i + 2])) \
            * (wl[i + 1] - wl[i])
        per_line[nominal] = obs - nominal
    if len(per_line) < 2:
        raise EstimationError(
            f"only {len(per_line)} detectable absorption dips (need >= 2)")
    delta = float(np.median(list(per_line.values())))
    return delta, per_line


# ---------------------------------------------------------------------------
# keystone

@dataclass(frozen=True)
class KeystoneModel:
    """Per-(band, field position) spatial shift relative to a reference band."""

    ref_band: int
    field_samples: np.ndarray   # (F,) window-center sample positions
    coefficients: np.ndarray    # (F, deg+1) polynomial in band index
    samples: int
    bands: int
    max_px: float = KEYSTONE_MAX_PX

    def shifts(self) -> np.ndarray:
        """Evaluate kappa on the full (bands, samples) grid by polynomial
        evaluation per field position and linear interpolation across the
        swath."""
        b = np.arange(self.bands, dtype=np.float64)
        at_fields = np.stack([np.polyval(c, b) for c in self.coefficients],
                             axis=1)                      # (bands, F)
        at_fields -= at_fields[self.ref_band][None, :]    # exact 0 at ref
        s = np.arange(self.samples, dtype=np.float64)
        out = np.empty((self.bands, self.samples))
        for i in range(self.bands):
            out[i] = np.interp(s, self.field_samples, at_fields[i])
        return np.clip(out, -self.max_px, self.max_px)

    from_json = classmethod(read_model)


def estimate_keystone(cube: SpectralCube, ref_band: int = KEYSTONE_REF_BAND,
                      n_fields: int = 5) -> KeystoneModel:
    """Estimate band-to-band spatial shifts from a high-contrast target.

    Line-averaged across-track profiles of each band are correlated against
    the reference band's profile at several KEYSTONE_WINDOW-sample field
    windows; a polynomial of degree KEYSTONE_DEGREE in band index is fit per
    field position.  If the mean correlation confidence falls below
    KEYSTONE_MIN_CONFIDENCE (blurred or contaminated imagery), the estimate
    is refused, as are a cube of at most KEYSTONE_DEGREE bands (too few for
    the fit) and more field positions than the cube has samples.
    """
    _, samples, bands = cube.data.shape
    if bands <= KEYSTONE_DEGREE:
        raise EstimationError(f"keystone fit of degree {KEYSTONE_DEGREE} "
                              f"needs more than {KEYSTONE_DEGREE} bands")
    if not 1 <= n_fields <= samples:
        raise EstimationError(f"n_fields must be in [1, {samples}] "
                              f"(the cube's samples), not {n_fields}")
    profiles = cube.data.mean(axis=0, dtype=np.float64).T   # (bands, samples)
    if not 0 <= ref_band < bands:
        raise EstimationError("reference band outside cube")
    ref = profiles[ref_band]
    if np.std(ref) < 1e-6 * max(abs(np.mean(ref)), 1.0):
        raise EstimationError("low-contrast input: cannot estimate keystone")
    window = min(KEYSTONE_WINDOW, samples)
    field_centers = np.linspace(window / 2.0, samples - window / 2.0, n_fields)
    starts = np.clip(np.round(field_centers - window / 2.0).astype(int),
                     0, samples - window)

    # every (band, field window) pair, band-major
    cols = starts[:, None] + np.arange(window)
    sh, conf, ok = shift_1d_batch(
        np.broadcast_to(ref[cols], (bands, n_fields, window)).reshape(-1, window),
        profiles[:, cols].reshape(-1, window),
        max_shift=KEYSTONE_MAX_PX + 1.0)
    shifts = np.where(ok, -sh, 0.0).reshape(bands, n_fields)
    confs = conf.reshape(bands, n_fields)
    mean_conf = float(confs.mean())
    if mean_conf < KEYSTONE_MIN_CONFIDENCE:
        raise EstimationError(
            f"keystone estimation refused: mean correlation confidence "
            f"{mean_conf:.3f} below {KEYSTONE_MIN_CONFIDENCE}")
    low_frac = float(np.mean(confs < 0.5))
    if low_frac > 0.3:
        raise EstimationError(
            f"keystone estimation refused: {low_frac:.0%} of correlation "
            "windows have low confidence (contaminated imagery)")

    b_axis = np.arange(bands, dtype=np.float64)
    coefs = []
    fit_rms = []
    for f in range(n_fields):
        w = confs[:, f]
        if w.sum() <= 0:
            raise EstimationError("no usable windows at a field position")
        c = np.polyfit(b_axis, shifts[:, f], KEYSTONE_DEGREE, w=w)
        resid = np.polyval(c, b_axis) - shifts[:, f]
        fit_rms.append(np.sqrt(np.average(resid ** 2, weights=w)))
        coefs.append(c)
    if max(fit_rms) > 0.2:
        raise EstimationError(
            f"keystone estimation refused: shift-vs-band fit residual "
            f"{max(fit_rms):.2f} px indicates unreliable correlations")
    return KeystoneModel(ref_band, field_centers, np.asarray(coefs),
                         samples, bands)


def correct_keystone(cube: SpectralCube, model: KeystoneModel,
                     out: np.ndarray | None = None):
    """Resample each band's rows by the negated keystone shift, into float64
    ``out`` (made if None; may be ``cube.data`` itself).  Returns
    ``(corrected cube, validity mask)``, the mask a read-only view repeated
    over the lines; the reference band passes through bit-identically."""
    if model.bands != cube.bands or model.samples != cube.samples:
        raise EstimationError("keystone model does not match cube dimensions")
    coords = np.arange(cube.samples, dtype=np.float64) - model.shifts()
    out = np.empty(cube.data.shape) if out is None else out
    # (lines, bands, samples) views: rows run along the samples
    _, valid = resample_rows(cube.data.transpose(0, 2, 1), coords[None],
                             out=out.transpose(0, 2, 1))
    return cube.with_data(out), np.broadcast_to(valid.transpose(0, 2, 1),
                                                out.shape)
