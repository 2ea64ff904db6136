"""Radiometric calibration: flat-field fitting/application, dark-bias
models for both instruments, uniformity and SNR metrics, the in-orbit
flat-field update, and vicarious gain refinement."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cube import (SpectralCube, DN_MAX, one_of, read_header, read_payload,
                   write_header, write_payload)
from .errors import EstimationError

R2_FLAG_THRESHOLD = 0.99
BAD_BAND_DEVIATION_PCT = 20.0


# ---------------------------------------------------------------------------
# sidecar I/O shared by the table types (raw little-endian f8 + text header)

def _write_arrays(path, header: dict, arrays: dict) -> None:
    path = Path(path)
    write_payload(path, arrays.values(), "<f8")
    shape = next(iter(arrays.values())).shape
    write_header(path.with_suffix(".hdr"), {
        **header, "arrays": ",".join(arrays),
        "shape": ",".join(str(d) for d in shape)})


def _read_arrays(path, kind: str, names: tuple, fields: dict):
    """The header ``fields`` and the arrays ``names`` of a ``kind`` sidecar;
    another kind, or an ``arrays`` field without every name, is refused."""
    def listing(value):
        listed = value.split(",")
        missing = [n for n in names if n not in listed]
        if missing:
            raise ValueError(f"lacks {', '.join(missing)}")
        return listed

    path = Path(path)
    hdr = read_header(path.with_suffix(".hdr"), {
        "kind": (one_of(kind), kind), "arrays": listing,
        "shape": lambda v: tuple(int(d) for d in v.split(",")), **fields})
    count = int(np.prod(hdr["shape"]))
    flat = read_payload(path, "<f8", count * len(hdr["arrays"]))
    return hdr, [flat[i * count:(i + 1) * count].reshape(hdr["shape"]).copy()
                 for i in map(hdr["arrays"].index, names)]


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True)
class FlatFieldTable:
    """Per-(band, sample) radiance-per-DN gain and DN offset."""

    gain: np.ndarray        # (B, S); NaN on masked/unfittable pixels
    offset: np.ndarray      # (B, S) DN
    r_squared: np.ndarray   # (B, S)
    provenance: str = "lab"  # or "in-orbit-update"
    epoch: str = "t0"

    def __post_init__(self):
        if self.provenance not in ("lab", "in-orbit-update"):
            raise EstimationError(f"unknown provenance {self.provenance!r}")
        finite = np.isfinite(self.gain)
        if np.any(self.gain[finite] <= 0):
            raise EstimationError("flat-field gains must be positive")

    @property
    def flagged(self) -> np.ndarray:
        """Pixels whose light-transfer fit was poor (R^2 < 0.99) or absent."""
        return ~(np.isfinite(self.gain) & (self.r_squared >= R2_FLAG_THRESHOLD))

    def save(self, path) -> None:
        _write_arrays(path, {"kind": "flatfield", "provenance": self.provenance,
                             "epoch": self.epoch},
                      {"gain": self.gain, "offset": self.offset,
                       "r_squared": self.r_squared})

    @classmethod
    def load(cls, path) -> "FlatFieldTable":
        hdr, arrays = _read_arrays(
            path, "flatfield", ("gain", "offset", "r_squared"),
            {"provenance": (str, "lab"), "epoch": (str, "t0")})
        return cls(*arrays, hdr["provenance"], hdr["epoch"])


@dataclass(frozen=True)
class DarkModel:
    """Per-(band, sample) dark DN at the reference temperature plus a
    temperature slope (zero for VNIR)."""

    dark_dn: np.ndarray     # (B, S)
    slope_dn_per_k: np.ndarray  # (B, S)
    t_ref_k: float
    instrument: str = "vnir"
    stability_dn: float = 0.0

    def __post_init__(self):
        if np.any(self.dark_dn < 0):
            raise EstimationError("dark bias must be non-negative")
        if self.instrument == "vnir" and np.any(self.slope_dn_per_k != 0.0):
            raise EstimationError("VNIR dark model must have zero slope")

    def at(self, temperature_k: float) -> np.ndarray:
        return self.dark_dn + self.slope_dn_per_k * (temperature_k - self.t_ref_k)

    def save(self, path) -> None:
        _write_arrays(path, {"kind": "dark", "instrument": self.instrument,
                             "t_ref_k": self.t_ref_k,
                             "stability_dn": self.stability_dn},
                      {"dark_dn": self.dark_dn,
                       "slope_dn_per_k": self.slope_dn_per_k})

    @classmethod
    def load(cls, path) -> "DarkModel":
        hdr, arrays = _read_arrays(
            path, "dark", ("dark_dn", "slope_dn_per_k"),
            {"t_ref_k": float, "instrument": (str, "vnir"),
             "stability_dn": (float, "0")})
        return cls(*arrays, hdr["t_ref_k"], hdr["instrument"],
                   hdr["stability_dn"])

    @classmethod
    def constant(cls, dark: np.ndarray) -> "DarkModel":
        """A VNIR model with no temperature slope, referenced to 293 K."""
        dark = np.asarray(dark, dtype=np.float64)
        return cls(dark, np.zeros_like(dark), 293.0)


@dataclass(frozen=True)
class VicariousResult:
    """Per-band vicarious gain refinement outcome."""

    multiplier: np.ndarray      # (B,), NaN where skipped
    deviation_pct: np.ndarray   # (B,) post-calibration
    pre_deviation_pct: np.ndarray
    bad_bands: np.ndarray       # (B,) bool


# ---------------------------------------------------------------------------
# flat-field

def _line_fit(x: np.ndarray, means: np.ndarray):
    """Per-pixel least-squares line ``means = slope * x + intercept`` along
    the first axis of an ``(n, ., .)`` stack, for ``n`` values ``x``.
    Returns ``(slope, intercept, fitted)``."""
    xm = x.mean()
    ym = means.mean(axis=0)
    sxx = ((x - xm) ** 2).sum()
    sxy = ((x - xm)[:, None, None] * (means - ym)).sum(axis=0)
    slope = sxy / sxx
    intercept = ym - slope * xm
    return slope, intercept, slope * x[:, None, None] + intercept


def fit_flatfield(levels) -> FlatFieldTable:
    """Least-squares light-transfer fit DN = a*L + b per pixel.

    ``levels`` is a list of (radiance level, sphere acquisition's
    ``data.mean(axis=0, dtype=np.float64)``) pairs covering at least 3
    distinct levels.  Gain = 1/a, offset = b; pixels with a <= 0 (masked
    channels) get NaN gain; fit R^2 is recorded; below 0.99 is flagged.
    """
    if len(levels) < 3:
        raise EstimationError("flat-field fit needs >= 3 radiance levels")
    lv = np.array([float(l) for l, _ in levels])
    if np.unique(lv).size < 3:
        raise EstimationError("flat-field levels are degenerate")
    if len({np.shape(m) for _, m in levels}) != 1:
        raise EstimationError("sphere means must share dimensions")
    # per-pixel mean over lines at each level: (n_levels, S, B)
    means = np.stack([m for _, m in levels])
    a, b, pred = _line_fit(lv, means)   # a: DN per radiance unit, (S, B)
    ss_res = ((means - pred) ** 2).sum(axis=0)
    ss_tot = ((means - means.mean(axis=0)) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 0.0)
        gain = np.where(a > 0, 1.0 / a, np.nan)
    return FlatFieldTable(gain.T.copy(), b.T.copy(), r2.T.copy())


def radiance(dn: np.ndarray, table: FlatFieldTable, dark: DarkModel,
             temperature_k: float | None = None, samples=slice(None)):
    """``(gain * (DN - dark(T)), clamped count)`` of the ``samples`` of a
    ``(lines, samples, bands)`` DN array as one new float64 block,
    negatives clamped to 0, masked channels (NaN gain) 0.  Each pixel is
    its own, so a block of samples is that block of the whole conversion,
    bit for bit."""
    if table.gain.shape != dn.shape[:0:-1]:       # (bands, samples)
        raise EstimationError("flat-field table does not match cube")
    if dark.dark_dn.shape != dn.shape[:0:-1]:
        raise EstimationError("dark model does not match cube")
    if temperature_k is None:
        temperature_k = dark.t_ref_k
    # one float64 block, worked in place; the dark and the gain as (S, B)
    # copies, band-last as the block (one run per line)
    rad = dn[:, samples].astype(np.float64)
    rad -= np.ascontiguousarray(dark.at(temperature_k).T[samples])
    g = np.ascontiguousarray(table.gain.T[samples])
    np.multiply(g, rad, out=rad)
    np.copyto(rad, 0.0, where=~np.isfinite(g))
    # counted in blocks of whole lines (~64 Ki values): no whole-block mask
    step = max(1, (1 << 16) * len(rad) // max(rad.size, 1))
    clamped = sum(int(np.count_nonzero(rad[i:i + step] < 0))
                  for i in range(0, len(rad), step))
    np.clip(rad, 0.0, None, out=rad)
    return rad, clamped


def apply_flatfield(cube: SpectralCube, table: FlatFieldTable,
                    dark: DarkModel, temperature_k: float | None = None):
    """Convert DN to radiance with :func:`radiance`.  Returns ``(radiance
    cube, validity mask, clamped count)``; negative radiances are clamped
    to 0 and counted, masked channels emit 0 with validity False.  The mask
    is a read-only view repeated over the lines."""
    rad, clamped = radiance(cube.data, table, dark, temperature_k)
    valid = np.broadcast_to(np.isfinite(table.gain.T), rad.shape)
    return cube.with_data(rad, pixel_kind="radiance"), valid, clamped


def nonuniformity(frame: np.ndarray) -> float:
    """Across-track non-uniformity percentage of one band's frame:
    100 * std(column means) / mean(column means) (population std)."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size == 0:
        raise EstimationError("empty frame")
    cols = frame.mean(axis=0) if frame.ndim == 2 else frame
    m = cols.mean()
    if m == 0:
        raise EstimationError("zero-mean frame: non-uniformity undefined")
    return float(100.0 * cols.std() / abs(m))


def update_flatfield_inorbit(scenes, old: FlatFieldTable) -> FlatFieldTable:
    """Refine flat-field gains from uniform in-orbit radiance scenes.

    Per band, each scene contributes a relative response estimate
    (column mean / swath mean); estimates are averaged across scenes
    weighted by scene signal level, and the old gains are divided by the
    result.  Bands with no usable scene keep their old gains (flagged via
    NaN in none — recorded by unchanged correction)."""
    if not scenes:
        raise EstimationError("no scenes supplied for in-orbit update")
    bands, samples = old.gain.shape
    num = np.zeros((bands, samples))
    den = np.zeros(bands)
    for cube in scenes:
        if cube.data.shape[1:] != (samples, bands):
            raise EstimationError("scene dimensions do not match table")
        prof = cube.data.mean(axis=0, dtype=np.float64).T    # (B, S)
        level = prof.mean(axis=1)                            # (B,)
        usable = level > 1e-12
        ratio = np.ones_like(prof)
        ratio[usable] = prof[usable] / level[usable, None]
        num[usable] += level[usable, None] * ratio[usable]
        den[usable] += level[usable]
    correction = np.ones((bands, samples))
    updated = den > 0
    correction[updated] = num[updated] / den[updated, None]
    gain = old.gain / correction
    return FlatFieldTable(gain, old.offset.copy(), old.r_squared.copy(),
                          provenance="in-orbit-update", epoch="update")


# ---------------------------------------------------------------------------
# dark bias

def dark_bias_vnir(cube: SpectralCube, masked_channels) -> np.ndarray:
    """Per-sample dark estimate: median DN of the unilluminated channels
    over all lines."""
    masked = sorted(int(b) for b in masked_channels)
    if not masked:
        raise EstimationError("masked-channel set is empty")
    if max(masked) >= cube.bands:
        raise EstimationError("masked channel index outside cube")
    block = cube.data[:, :, masked].astype(np.float64)   # (L, S, M)
    return np.median(block, axis=(0, 2))


def fit_dark_swir(darks, t_ref_k: float = 293.0) -> DarkModel:
    """Per-pixel linear dark-vs-temperature fit from SWIR shutter
    acquisitions.

    ``darks`` is a list of (temperature K, dark acquisition's
    ``data.mean(axis=0, dtype=np.float64)``) pairs; needs >= 2 distinct
    temperatures.  The stability metric is the largest deviation of any
    acquisition's per-pixel mean from the fitted line."""
    if len(darks) < 2:
        raise EstimationError("dark fit needs >= 2 temperatures")
    temps = np.array([float(t) for t, _ in darks])
    if np.unique(temps).size < 2:
        raise EstimationError("dark temperatures are degenerate")
    means = np.stack([m.T for _, m in darks])            # (n, B, S)
    slope, d_ref, pred = _line_fit(temps - t_ref_k, means)
    stability = float(np.abs(means - pred).max())
    return DarkModel(np.clip(d_ref, 0.0, None), slope, t_ref_k, "swir",
                     stability)


# ---------------------------------------------------------------------------
# SNR

def snr(cube: SpectralCube):
    """Temporal SNR from repeated uniform frames (lines act as repeats).

    Returns ``(band_snr, low_signal)``: per-(band, sample) SNR is temporal
    mean / temporal std; the band value is the median over unsaturated
    samples.  Bands with every sample saturated raise; bands whose signal
    is within the noise floor are flagged low-signal."""
    if cube.lines < 50:
        raise EstimationError("SNR needs >= 50 repeated frames")
    data = cube.data
    mean = data.mean(axis=0, dtype=np.float64)      # (S, B)
    std = data.std(axis=0, dtype=np.float64)
    sat = (data >= DN_MAX).any(axis=0)
    if sat.all(axis=0).any():
        raise EstimationError("a band is saturated in every sample")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(std > 0, mean / std, np.inf)
    ratio = np.where(sat, np.nan, ratio)
    band_snr = np.nanmedian(ratio, axis=0)
    med_mean = np.nanmedian(np.where(sat, np.nan, mean), axis=0)
    med_std = np.nanmedian(np.where(sat, np.nan, std), axis=0)
    low_signal = med_mean < 3.0 * med_std
    return band_snr, low_signal


# ---------------------------------------------------------------------------
# vicarious calibration

def vicarious_gains(measured: np.ndarray,
                    reference: np.ndarray) -> VicariousResult:
    """Per-band gain refinement from target spectra.

    ``measured`` and ``reference`` are (targets, bands) radiance arrays for
    the same ground targets.  The multiplier is the median over targets of
    reference/measured; deviations are mean absolute percentage errors
    before and after applying it.  Bands whose post-calibration deviation
    exceeds BAD_BAND_DEVIATION_PCT are flagged bad; bands with zero
    reference are skipped (NaN multiplier, flagged)."""
    measured = np.asarray(measured, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if measured.shape != reference.shape or measured.ndim != 2:
        raise EstimationError("measured/reference must be (targets, bands)")
    if measured.shape[0] < 2:
        raise EstimationError("vicarious calibration needs >= 2 targets")
    bands = measured.shape[1]
    mult = np.full(bands, np.nan)
    dev = np.full(bands, np.nan)
    pre = np.full(bands, np.nan)
    bad = np.zeros(bands, dtype=bool)
    for b in range(bands):
        ref = reference[:, b]
        mea = measured[:, b]
        ok = (ref > 0) & (mea > 0)
        if ok.sum() < 2:
            bad[b] = True
            continue
        m = float(np.median(ref[ok] / mea[ok]))
        mult[b] = m
        pre[b] = float(np.mean(100.0 * np.abs(mea[ok] - ref[ok]) / ref[ok]))
        dev[b] = float(np.mean(100.0 * np.abs(m * mea[ok] - ref[ok]) / ref[ok]))
        bad[b] = dev[b] > BAD_BAND_DEVIATION_PCT
    return VicariousResult(mult, dev, pre, bad)
