"""Forward model: renders raw 12-bit pushbroom cubes from synthetic scenes,
and builds every acquisition that the chain and its tests share.

A scene is a separable radiance field ``radiance(l, s, wl) =
spatial[l, s] * spectra[spectrum_index[l, s], wl]`` on a 1 nm grid from
350 to 2600 nm.  The sensor applies, in order: Gaussian-RSR band
integration (with smile and absolute wavelength error), keystone spatial
resampling, along-track stray-light convolution, gain and PRNU, dark bias
(plus a temperature term for SWIR), scan interference, bunch-pixel
multipliers, Gaussian noise, saturation clipping and 12-bit quantization.
Every injected parameter is copied into the manifest :func:`render_raw`
returns, the ground-truth oracle for closed-loop validation.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace

import numpy as np

from .cube import BandMeta, SpectralCube, DN_MAX, INSTRUMENTS
from .errors import HypercalError
from .geometry import GroundControlPoint, geolocate
from .kernels import band_integrals, band_map, resample_rows
from .spectral import (ABSORPTION_LINES_NM, KEYSTONE_REF_BAND,
                       MONOCHROMATOR_LINE_NM)

WL_START = 350.0
WL_STOP = 2600.0
WL_STEP = 1.0

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# stray-light tiling shared with the stray corrector: along-track segments
# of SEGMENT_LINES lines times STRAY_BLOCKS equal sample blocks
SEGMENT_LINES = 64
STRAY_BLOCKS = 4

_DBL_EPSILON = np.finfo(np.float64).eps


def stray_blocks(samples: int) -> list:
    """The STRAY_BLOCKS sample blocks of a swath: ``(start, stop, frac)``
    each, ``frac`` the block's center as a fraction of the swath."""
    edges = np.linspace(0, samples, STRAY_BLOCKS + 1).astype(int)
    return [(c0, c1, (0.5 * (c0 + c1)) / samples)
            for c0, c1 in zip(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# scenes

def spectral_grid() -> np.ndarray:
    return np.arange(WL_START, WL_STOP + WL_STEP / 2, WL_STEP)


@dataclass(frozen=True)
class Scene:
    """Separable synthetic radiance field (W m-2 sr-1 um-1) on the
    :func:`spectral_grid`."""

    spectra: np.ndarray          # (K, n_wl)
    spectrum_index: np.ndarray   # (lines, samples)
    spatial: np.ndarray          # (lines, samples)

    def __post_init__(self):
        if np.any(self.spectra < 0) or np.any(self.spatial < 0):
            raise HypercalError("scene radiance must be non-negative")

    @property
    def lines(self) -> int:
        return self.spatial.shape[0]

    @property
    def samples(self) -> int:
        return self.spatial.shape[1]

    def radiance(self, line: int, sample: int, wl) -> np.ndarray:
        """Point lookup with linear interpolation in wavelength."""
        spec = self.spectra[self.spectrum_index[line, sample]]
        return self.spatial[line, sample] * np.interp(wl, spectral_grid(), spec)


SCENE_PARAMS = {
    "uniform": (),
    "bar-target": ("period", "contrast"),
    "point-source": ("points", "background", "amplitude"),
    "checkerboard": ("block", "contrast"),
    "spectral-library": ("dip_depth",),
    "library-bars": (),
}


def synth_scene(kind: str, lines: int = 256, samples: int = 256,
                level: float = 100.0, **kw) -> Scene:
    """Build a synthetic scene.

    Kinds and the keyword parameters each reads:
    ``uniform``; ``bar-target`` (period, contrast); ``point-source``
    (points, background, amplitude: the value of each point pixel);
    ``checkerboard`` (block, contrast); ``spectral-library`` (dip_depth);
    ``library-bars``, those spectra under a period-8, contrast-0.4 bar
    target.  Spectral-library scenes embed Gaussian absorption dips at the
    built-in O2/H2O/CO2 lines.  A parameter the kind does not read is an
    error.
    """
    if level < 0:
        raise HypercalError("scene level must be non-negative")
    if kind not in SCENE_PARAMS:
        raise HypercalError(f"unknown scene kind {kind!r}")
    unknown = sorted(set(kw) - set(SCENE_PARAMS[kind]))
    if unknown:
        raise HypercalError(
            f"scene kind {kind!r} has no parameter {unknown[0]!r}")
    if kind == "library-bars":
        scene = synth_scene("spectral-library", lines, samples, level)
        bars = synth_scene("bar-target", lines, samples, period=8,
                           contrast=0.4)
        return replace(scene, spatial=scene.spatial * bars.spatial)
    grid = spectral_grid()
    flat = np.full((1, grid.shape[0]), float(level))
    index = np.zeros((lines, samples), dtype=np.intp)
    spatial = np.ones((lines, samples))
    if kind == "uniform":
        spectra = flat
    elif kind == "bar-target":
        period = int(kw.get("period", 8))
        contrast = float(kw.get("contrast", 0.2))
        half = max(period // 2, 1)
        cols = np.where((np.arange(samples) // half) % 2 == 0, 1.0, contrast)
        spatial = np.broadcast_to(cols, (lines, samples)).copy()
        spectra = flat
    elif kind == "checkerboard":
        block = int(kw.get("block", 16))
        contrast = float(kw.get("contrast", 0.2))
        ll = np.arange(lines)[:, None] // block
        ss = np.arange(samples)[None, :] // block
        spatial = np.where((ll + ss) % 2 == 0, 1.0, contrast)
        spectra = flat
    elif kind == "point-source":
        background = float(kw.get("background", 0.02))
        amplitude = float(kw.get("amplitude", 1.0))
        points = kw.get("points") or [(lines // 2, samples // 2)]
        spatial = np.full((lines, samples), background)
        for pl, ps in points:
            spatial[int(pl), int(ps)] = amplitude
        spectra = flat
    else:  # spectral-library
        # a continuum tilted by 0.3 of the level across the grid, with a
        # 7 nm Gaussian dip at each library line
        depth = float(kw.get("dip_depth", 0.4))
        span = grid[-1] - grid[0]
        cont = level * (1.0 + 0.3 * (grid - grid.mean()) / span)
        dips = np.ones_like(grid)
        for nominal in ABSORPTION_LINES_NM:
            dips *= 1.0 - depth * np.exp(-0.5 * ((grid - nominal) / 7.0) ** 2)
        spectra = (cont * dips)[None, :]
    return Scene(spectra=np.asarray(spectra), spectrum_index=index,
                 spatial=np.asarray(spatial, dtype=np.float64))


# ---------------------------------------------------------------------------
# artifact parameter builders

def quadratic_smile(bands: int, samples: int, peak_to_peak_nm: float) -> np.ndarray:
    """Quadratic center-wavelength offset, 0 at the center column and
    ``-peak_to_peak_nm`` at the swath edges (optical-aberration shape)."""
    c = (samples - 1) / 2.0
    u = (np.arange(samples) - c) / (c or 1.0)     # one column: no smile
    return np.broadcast_to(-peak_to_peak_nm * u ** 2, (bands, samples)).copy()


def linear_smile(bands: int, samples: int, span_nm: float) -> np.ndarray:
    """Linear offset spanning ``span_nm`` across the swath, 0 at center
    (in-plane detector-rotation shape)."""
    c = (samples - 1) / 2.0
    u = (np.arange(samples) - c) / (samples - 1)
    return np.broadcast_to(span_nm * u, (bands, samples)).copy()


def linear_keystone(bands: int, samples: int, max_px: float = 1.5,
                    ref_band: int = KEYSTONE_REF_BAND) -> np.ndarray:
    """Band-linear spatial shift, 0 at ``ref_band``, +-``max_px`` at the
    band extremes."""
    scale = max(bands - 1 - ref_band, ref_band)
    kappa = max_px * (np.arange(bands) - ref_band) / (scale or 1)
    return np.broadcast_to(kappa[:, None], (bands, samples)).copy()


def random_prnu(bands: int, samples: int, spread: float, seed: int = 7) -> np.ndarray:
    """Per-pixel gain field with the given fractional standard deviation."""
    rng = np.random.default_rng([seed, bands, samples])
    g = rng.normal(1.0, spread, size=(bands, samples))
    return np.clip(g, 0.05, None)


def linear_steering(lines: int) -> np.ndarray:
    """Per-line platform steering profile: a step-and-stare sweep from 2
    to -2 degrees."""
    return np.linspace(2.0, -2.0, lines)


# ---------------------------------------------------------------------------
# injected artifact records

@dataclass(frozen=True)
class InterferenceComponent:
    """Along-track additive pattern: DN(l) = amplitude*sin(2*pi*f*l + phase)."""

    frequency: float           # cycles/line
    amplitude_dn: float
    phase_rad: float = 0.0
    kind: str = "periodic"     # or "banding"

    def __post_init__(self):
        if not (0.0 < self.frequency <= 0.5):
            raise HypercalError("interference frequency must be in (0, 0.5]")
        if self.amplitude_dn < 0:
            raise HypercalError("interference amplitude must be >= 0")
        if self.kind not in ("periodic", "banding"):
            raise HypercalError(f"unknown interference kind {self.kind!r}")


@dataclass(frozen=True)
class BunchCluster:
    """Run of consecutive hot pixels in one band with per-pixel multipliers."""

    band: int
    start_sample: int
    length: int
    profile: tuple

    def __post_init__(self):
        if not (1 <= self.length <= 15):
            raise HypercalError("bunch run length must be in [1, 15]")
        if len(self.profile) != self.length:
            raise HypercalError("profile length must equal run length")
        if any(p <= 1.0 for p in self.profile):
            raise HypercalError("bunch multipliers must exceed 1")


def make_bunch_clusters(bands, start_samples, max_len: int = 15,
                        seed: int = 3) -> tuple:
    """Clusters at the given swath locations for each listed band, with
    nonlinear multiplier profiles peaking near 1.8 and lengths up to
    ``max_len``."""
    rng = np.random.default_rng(seed)
    clusters = []
    for b in bands:
        for j, s0 in enumerate(start_samples):
            length = int(rng.integers(1, max_len + 1)) if j else max_len
            i = np.arange(length)
            bump = 0.3 + 0.7 * np.exp(-((i - length / 2.0) / (length / 2.0 + 0.5)) ** 2)
            profile = tuple(1.0 + 0.8 * bump)
            clusters.append(BunchCluster(int(b), int(s0), length, profile))
    return tuple(clusters)


@dataclass(frozen=True)
class StrayLightSpec:
    """Parametric along-track stray kernel, steering- and sample-dependent.

    The kernel is a direct spike plus a one-sided exponential tail whose
    direction follows the steering angle sign and whose strength is
    modulated across the swath.  ``cross_track_sigma_px`` adds an optional
    across-track Gaussian lobe (secondary smear)."""

    tap_count: int = 31
    direct_fraction: float = 0.45
    tail_scale_px: float = 3.0
    tail_gain_per_deg: float = 0.6
    sample_gain: float = 0.4
    cross_track_sigma_px: float = 0.0

    def __post_init__(self):
        if self.tap_count % 2 == 0 or not (3 <= self.tap_count <= 31):
            raise HypercalError("tap_count must be odd and in [3, 31]")

    def kernel(self, steering_deg: float, sample_frac: float) -> np.ndarray:
        """Normalized along-track taps (offset -h..h) at the given steering
        angle and fractional swath position."""
        h = self.tap_count // 2
        offsets = np.arange(-h, h + 1, dtype=np.float64)
        strength = steering_deg * self.tail_gain_per_deg \
            * (1.0 + self.sample_gain * (2.0 * sample_frac - 1.0))
        tau_fwd = self.tail_scale_px * (0.5 + abs(strength))
        tau_bwd = self.tail_scale_px * 0.5
        if strength >= 0:
            tau_pos, tau_neg = tau_fwd, tau_bwd
        else:
            tau_pos, tau_neg = tau_bwd, tau_fwd
        tail = np.where(offsets >= 0,
                        np.exp(-np.abs(offsets) / tau_pos),
                        np.exp(-np.abs(offsets) / tau_neg))
        tail[h] = 0.0
        tail_sum = tail.sum()
        taps = np.zeros_like(offsets)
        taps[h] = self.direct_fraction
        if tail_sum > 0:
            taps += (1.0 - self.direct_fraction) * tail / tail_sum
        return taps / taps.sum()


@dataclass(frozen=True)
class ArtifactConfig:
    """Switchboard for the operationally-injected artifacts."""

    interference: tuple = ()
    bunch: tuple = ()
    stray: StrayLightSpec | None = None
    noise: bool = True


# ---------------------------------------------------------------------------
# sensor model

@dataclass(frozen=True)
class SensorModel:
    """Per-(band, sample) ground-truth sensor state."""

    instrument: str
    centers_nm: np.ndarray          # (B,) nominal
    fwhm_nm: np.ndarray             # (B,)
    smile_nm: np.ndarray            # (B, S)
    keystone_px: np.ndarray         # (B, S)
    prnu: np.ndarray                # (B, S)
    dark_dn: np.ndarray             # (B, S)
    gain_dn_per_radiance: np.ndarray  # (B, S)
    sat_radiance: np.ndarray        # (B,)
    center_error_nm: float = 0.0    # observed features shift by +this
    dark_temp_slope: float = 0.0    # DN/K, SWIR only
    t_ref_k: float = 293.0
    read_noise_dn: float = 2.0
    photon_noise_k: float = 0.0
    masked_channels: frozenset = frozenset()

    def __post_init__(self):
        if np.any(self.prnu <= 0):
            raise HypercalError("PRNU gains must be positive")
        if np.any(self.sat_radiance <= 0):
            raise HypercalError("saturation radiance must be positive")
        if np.any(np.abs(self.keystone_px) > 3.0):
            raise HypercalError("|keystone| must not exceed 3 px")
        # 5% headroom: a 12 nm end-to-end linear smile anchored at the
        # center column peaks at 6 nm, just past the 5.87 nm SWIR FWHM
        if np.any(np.abs(self.smile_nm) > 1.05 * self.fwhm_nm[:, None]):
            raise HypercalError("|smile| must not exceed the band FWHM")
        if self.instrument == "vnir" and self.dark_temp_slope != 0.0:
            raise HypercalError("VNIR dark model has zero temperature slope")

    @property
    def bands(self) -> int:
        return self.centers_nm.shape[0]

    @property
    def samples(self) -> int:
        return self.smile_nm.shape[1]

    def band_meta(self) -> tuple:
        return tuple(BandMeta(float(c), float(f), self.instrument)
                     for c, f in zip(self.centers_nm, self.fwhm_nm))

    def band_slice(self, sl: slice) -> "SensorModel":
        """Band-slice view: every array field (each is per band) sliced to
        ``sl``, whose first band becomes band 0.  Each per-band step of
        :func:`render_raw` is independent of the others, so without noise or
        bunch clusters (both keyed by band index) the view renders exactly
        bands ``sl`` of the full sensor's cube."""
        kept = range(*sl.indices(self.bands))
        return replace(
            self, **{k: v[sl] for k, v in vars(self).items()
                     if isinstance(v, np.ndarray)},
            masked_channels=frozenset(kept.index(b) for b in
                                      self.masked_channels if b in kept))

    def effective_centers(self) -> np.ndarray:
        """Actual RSR centers per (band, sample): nominal + smile - error."""
        return (self.centers_nm[:, None] + self.smile_nm - self.center_error_nm)


def default_centers(instrument: str, bands: int) -> np.ndarray:
    lo, hi = INSTRUMENTS[instrument].range_nm
    if instrument == "vnir":
        return np.linspace(lo, hi, bands)
    # SWIR centers placed so exactly 7 bands overlap the VNIR range at the
    # full 256-band configuration (drives the 309-band bundled product)
    return np.linspace(lo, hi, bands + 1)[1:]


def make_sensor(instrument: str = "vnir", samples: int = 256,
                bands: int | None = None, *, smile_nm=0.0,
                center_error_nm: float = 0.0, keystone_px=0.0,
                prnu=None, prnu_spread: float = 0.0, dark_dn=64.0,
                dark_temp_slope: float = 0.0, read_noise_dn: float = 2.0,
                photon_noise_k: float = 0.0, sat_radiance=140.0,
                masked_channels=(), seed: int = 7) -> SensorModel:
    """Assemble a sensor; scalar parameters are broadcast per (band, sample).
    Band count (by default) and band width come from ``cube.INSTRUMENTS``;
    the DN gain is 30 per radiance unit."""
    if instrument not in INSTRUMENTS:
        raise HypercalError(f"unknown instrument {instrument!r}")
    facts = INSTRUMENTS[instrument]
    if bands is None:
        bands = facts.bands
    centers = default_centers(instrument, bands)
    fwhm = np.full(bands, facts.fwhm_nm)
    shape = (bands, samples)

    def _field(value):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(shape, float(arr))
        return np.broadcast_to(arr, shape).copy()

    if prnu is None:
        prnu = random_prnu(bands, samples, prnu_spread, seed) \
            if prnu_spread > 0 else np.ones(shape)
    sat = np.asarray(sat_radiance, dtype=np.float64)
    if sat.ndim == 0:
        sat = np.full(bands, float(sat))
    return SensorModel(
        instrument=instrument,
        centers_nm=centers,
        fwhm_nm=fwhm,
        smile_nm=_field(smile_nm),
        keystone_px=_field(keystone_px),
        prnu=np.asarray(prnu, dtype=np.float64),
        dark_dn=_field(dark_dn),
        gain_dn_per_radiance=np.full(shape, 30.0),
        sat_radiance=sat,
        center_error_nm=float(center_error_nm),
        dark_temp_slope=float(dark_temp_slope),
        read_noise_dn=float(read_noise_dn),
        photon_noise_k=float(photon_noise_k),
        masked_channels=frozenset(int(b) for b in masked_channels),
    )


# ---------------------------------------------------------------------------
# rendering

def _check_coverage(sensor: SensorModel) -> None:
    centers = sensor.effective_centers()
    sigma = sensor.fwhm_nm * _FWHM_TO_SIGMA
    lo = (centers.min(axis=1) - 5 * sigma).min()
    hi = (centers.max(axis=1) + 5 * sigma).max()
    if lo < WL_START or hi > WL_STOP:
        raise HypercalError("spectral grid does not cover the sensor RSRs")
    if np.any(sensor.fwhm_nm <= 0):
        raise HypercalError("degenerate FWHM")


def _correlate(ext: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``ext`` along ``axis`` with odd-length ``weights`` where they
    fit: output ``i`` sums ``weights[j] * ext[i + j]``, so an input padded by
    ``len(weights) // 2`` on each side gives its own length back.

    The terms are added in the order of scipy.ndimage's ``NI_Correlate1D``,
    so a padded line equals ``correlate1d`` bit for bit: weights symmetric
    about the centre within DBL_EPSILON sum the centre term and then each
    mirrored pair, left weight times (left + right) input, outermost first;
    antisymmetric ones the same with (left - right); any other the last
    term and then every other one from the left."""
    h = weights.size // 2
    n = ext.shape[axis] - 2 * h
    tail = (slice(None),) * (ext.ndim - axis - 1)

    def tap(k):
        return ext[(slice(None),) * axis + (slice(k, k + n),) + tail]

    ii = np.arange(1, h + 1)
    left, right = weights[h - ii], weights[h + ii]
    sign = 1 if not np.any(np.abs(right - left) > _DBL_EPSILON) else \
        -1 if not np.any(np.abs(right + left) > _DBL_EPSILON) else 0
    first = h if sign else 2 * h
    out = tap(first) * weights[first]
    term = np.empty_like(out)
    pair = {1: np.add, -1: np.subtract}.get(sign)
    for k in range(first):
        if pair is None:
            np.multiply(tap(k), weights[k], out=term)
        else:
            pair(tap(k), tap(2 * h - k), out=term)
            term *= weights[k]
        out += term
    return out


def _gaussian_weights(sigma: float) -> np.ndarray:
    """scipy.ndimage's ``gaussian_filter1d`` correlation weights (radius
    ``int(4 sigma + 0.5)``), bit for bit."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return (phi / phi.sum())[::-1]


def _apply_stray(fields: np.ndarray, spec: StrayLightSpec,
                 steering: np.ndarray) -> np.ndarray:
    """Non-stationary along-track convolution of a (bands, rows, samples)
    stack with edge-clamped lines, returned as (bands, lines, samples) for
    ``lines = steering.size``: kernels constant within SEGMENT_LINES x
    STRAY_BLOCKS tiles, evaluated at the tile's mean steering angle and
    center sample.  A tile reads its lines plus a tap_count // 2 halo.

    A stack of all its lines is filtered in place, each block read from a
    copy taken before the block is written.  A line-invariant stack of one
    row (``rows < lines``) is filtered once per tile on that row and
    repeated to the tile's lines: with clamped edges every line of a tile
    sums the same terms.  Each task of :func:`band_map` filters one slice
    of bands, as many as one worker's share of its budget holds at one
    float64 block copy (all lines of one stray block of samples) per band."""
    bands, rows, samples = fields.shape
    lines = steering.shape[0]
    out = fields if rows == lines else np.empty((bands, lines, samples))
    h = spec.tap_count // 2
    sigma = spec.cross_track_sigma_px
    lobe = _gaussian_weights(sigma) if sigma > 0 else None

    def filter_bands(sl):
        for c0, c1, frac in stray_blocks(samples):
            block = fields[sl, :, c0:c1]
            if rows == lines:
                block = block.copy()
            for seg0 in range(0, lines, SEGMENT_LINES):
                seg1 = min(seg0 + SEGMENT_LINES, lines)
                taps = spec.kernel(float(steering[seg0:seg1].mean()), frac)
                span = np.arange(seg0 - h, seg1 + h) if rows == lines \
                    else np.arange(-h, h + 1)
                sub = _correlate(block[:, np.clip(span, 0, rows - 1)],
                                 taps[::-1], axis=1)
                if lobe is not None:
                    r, n = lobe.size // 2, c1 - c0
                    cols = np.clip(np.arange(-r, n + r), 0, n - 1)
                    sub = _correlate(sub[:, :, cols], lobe, axis=2)
                out[sl, seg0:seg1, c0:c1] = sub
            block = sub = None  # freed before the next block's copy

    band_map(filter_bands, bands,
             8 * lines * int(np.ceil(samples / STRAY_BLOCKS)))
    return out


def render_raw(scene: Scene, sensor: SensorModel,
               artifacts: ArtifactConfig | None = None, seed: int = 0,
               temperature_k: float | None = None,
               steering_deg: np.ndarray | None = None):
    """Render a raw DN cube plus its ground-truth manifest, the mapping
    written to ``manifest.json``.  Fields are band-major; a scene whose lines
    are all the same renders one line (every step before stray light acts
    within a line), which stray light filters once per segment and repeats
    to the segment's lines."""
    artifacts = artifacts or ArtifactConfig()
    _check_coverage(sensor)
    if scene.samples != sensor.samples:
        raise HypercalError("scene swath width must match sensor samples")
    lines, samples = scene.lines, scene.samples
    bands = sensor.bands
    if temperature_k is None:
        temperature_k = sensor.t_ref_k
    if steering_deg is None:
        steering_deg = linear_steering(lines) if artifacts.stray else np.zeros(lines)
    steering_deg = np.asarray(steering_deg, dtype=np.float64)
    if steering_deg.shape[0] != lines:
        raise HypercalError("steering profile length must equal scene lines")

    sigma = sensor.fwhm_nm * _FWHM_TO_SIGMA
    centers_eff = sensor.effective_centers()
    resp = band_integrals(scene.spectra, WL_START, WL_STEP, centers_eff, sigma)
    invariant = (np.all(scene.spatial == scene.spatial[:1])
                 and np.all(scene.spectrum_index == scene.spectrum_index[:1]))
    rows = min(1, lines) if invariant else lines
    spatial, index = scene.spatial[:rows], scene.spectrum_index[:rows]
    # fields[b, l, s] = resp[b, s, index[l, s]], gathered band-major
    fields = np.take(resp.reshape(bands, -1),
                     np.arange(samples) * resp.shape[2] + index, axis=1)
    fields *= spatial
    if np.any(sensor.keystone_px != 0.0):
        coords = (np.arange(samples) + sensor.keystone_px)[:, None, :]
        resample_rows(fields, coords, out=fields)
    illuminated = np.array([b not in sensor.masked_channels for b in range(bands)])
    fields[~illuminated] = 0.0

    if artifacts.stray is not None:
        fields = _apply_stray(fields, artifacts.stray, steering_deg)

    dark_term = sensor.dark_dn + sensor.dark_temp_slope * (
        temperature_k - sensor.t_ref_k)
    gain = sensor.gain_dn_per_radiance * sensor.prnu
    sat_dn = gain * sensor.sat_radiance[:, None] + dark_term
    # without interference there is no all-zero pattern to add
    pattern = np.zeros((lines, 1)) if artifacts.interference else None
    for comp in artifacts.interference:
        pattern[:, 0] += comp.amplitude_dn * np.sin(
            2.0 * np.pi * comp.frequency * np.arange(lines, dtype=np.float64)
            + comp.phase_rad)
    noisy = artifacts.noise and (sensor.read_noise_dn > 0
                                 or sensor.photon_noise_k > 0)
    data = np.empty((lines, samples, bands), dtype=np.uint16)

    def quantize(sl):
        # band-major uint16 slice, stored into the band-last cube in one
        # copy: per-band stores would be strided scatters
        b0, b1 = sl.start, sl.stop
        buf = np.empty((b1 - b0, lines, samples), dtype=np.uint16)
        dn = np.empty((lines, samples))
        for b in range(b0, b1):
            # the noise-free DN at the fields' own rows (one for a
            # line-invariant scene without stray light or interference)
            base = fields[b] * gain[b]
            base += dark_term[b]
            if illuminated[b]:
                if pattern is not None:
                    base = base + pattern
                for cluster in artifacts.bunch:
                    if cluster.band == b:
                        s0 = cluster.start_sample
                        base[:, s0:s0 + cluster.length] *= np.asarray(
                            cluster.profile)
            if noisy:
                std = sensor.read_noise_dn
                if sensor.photon_noise_k > 0:
                    signal = np.clip(base - dark_term[b], 0.0, None)
                    std = np.sqrt(std ** 2 + sensor.photon_noise_k * signal)
                np.random.default_rng([seed, b]).standard_normal(out=dn)
                dn *= std
                dn += base      # noise + base: the bits of base + noise
            else:
                dn[...] = base
            np.minimum(dn, sat_dn[b], out=dn)
            np.clip(np.rint(dn, out=dn), 0, DN_MAX, out=buf[b - b0],
                    casting="unsafe")
        data[:, :, sl] = buf.transpose(1, 2, 0)

    band_map(quantize, bands, 2 * lines * samples)
    cube = SpectralCube(data=data, pixel_kind="dn12",
                        band_meta=sensor.band_meta())
    manifest = {
        **asdict(sensor),
        "masked_channels": tuple(sorted(sensor.masked_channels)),
        "seed": int(seed), "temperature_k": float(temperature_k),
        "interference": tuple(artifacts.interference),
        "bunch": tuple(artifacts.bunch), "stray": artifacts.stray,
        "steering_deg": steering_deg.copy() if artifacts.stray else None,
        "noise": bool(artifacts.noise), "boresight": {},
    }
    return cube, manifest


def render_dark(sensor: SensorModel, lines: int, temperature_k: float,
                seed: int = 0) -> SpectralCube:
    """Dark-only cube: bias + temperature term + read noise, quantized."""
    if lines < 1:
        raise HypercalError("lines must be >= 1")
    scene = synth_scene("uniform", lines=lines, samples=sensor.samples,
                        level=0.0)
    cube, _ = render_raw(scene, sensor, seed=seed, temperature_k=temperature_k)
    return cube


def render_sphere(sensor: SensorModel, level: float, frames: int,
                  seed: int = 0, noise: bool = True) -> SpectralCube:
    """Integrating-sphere frames: spatially uniform illumination at the
    given radiance level."""
    if level < 0:
        raise HypercalError("sphere level must be non-negative")
    if frames < 1:
        raise HypercalError("frames must be >= 1")
    scene = synth_scene("uniform", lines=frames, samples=sensor.samples,
                        level=level)
    cube, _ = render_raw(scene, sensor, ArtifactConfig(noise=noise), seed=seed)
    return cube


def point_source_grid(sensor: SensorModel, spec: StrayLightSpec,
                      steering: np.ndarray, seed: int) -> list:
    """Stray-light acquisitions for ``anomalies.estimate_stray_psf``: a
    noiseless ``(cube, (line, sample))`` render of a unit point on a 0.002
    background at each of 1/8, 1/2 and 7/8 of the lines and samples."""
    lines, samples = len(steering), sensor.samples
    points = [(l0, s0) for l0 in (lines // 8, lines // 2, 7 * lines // 8)
              for s0 in (samples // 8, samples // 2, 7 * samples // 8)]
    acquisitions = []
    for point in points:
        scene = synth_scene("point-source", lines, samples, points=[point],
                            background=0.002, amplitude=1.0)
        cube, _ = render_raw(scene, sensor,
                             ArtifactConfig(stray=spec, noise=False),
                             seed=seed, steering_deg=steering)
        acquisitions.append((cube, point))
    return acquisitions


def survey_gcps(geo, n: int, noise_m: float, seed: int,
                strip_id: str) -> list:
    """``n`` ground control points surveyed against ``geo`` (its bias
    included): uniform line (2 to ``lines - 3``), sample and 0-500 m height
    draws located on the ground, plus ``noise_m`` m of Gaussian survey
    error east and north.  A strip of fewer than 5 lines is refused."""
    if geo.lines < 5:
        raise HypercalError(f"GCP survey needs a strip of at least 5 lines, "
                            f"not {geo.lines}")
    rng = np.random.default_rng(seed)
    lines = rng.uniform(2, geo.lines - 3, n)
    samples = rng.uniform(0, geo.samples - 1, n)
    heights = rng.uniform(0, 500, n)
    east, north = geolocate(geo, lines, samples, heights)
    east = east + rng.normal(0, noise_m, n)
    north = north + rng.normal(0, noise_m, n)
    return [GroundControlPoint(*point, strip_id)
            for point in zip(lines, samples, east, north, heights)]


def ideal_radiance(cube: SpectralCube, sensor: SensorModel) -> SpectralCube:
    """(DN - dark) / (gain * PRNU) from the sensor's truth: one float64
    copy of the cube, worked in place.  Each value depends on its own band
    only, so a :meth:`SensorModel.band_slice` render converts to the same
    bands of the whole conversion."""
    rad = cube.data.astype(np.float64)
    rad -= sensor.dark_dn.T[None]
    rad /= (sensor.gain_dn_per_radiance * sensor.prnu).T[None]
    return cube.with_data(rad, pixel_kind="radiance")


def render_monochromator(sensor: SensorModel, wl_nm: float) -> np.ndarray:
    """Per-(band, sample) response to a MONOCHROMATOR_LINE_NM-wide
    monochromatic line."""
    from scipy.special import erf  # only RSR scans need it

    if not (WL_START <= wl_nm <= WL_STOP):
        raise HypercalError(f"wavelength {wl_nm} nm outside "
                            f"[{WL_START}, {WL_STOP}]")
    centers = sensor.effective_centers()
    sigma = (sensor.fwhm_nm * _FWHM_TO_SIGMA)[:, None]
    half = MONOCHROMATOR_LINE_NM / 2.0
    hi = (wl_nm + half - centers) / (sigma * np.sqrt(2.0))
    lo = (wl_nm - half - centers) / (sigma * np.sqrt(2.0))
    return 0.5 * (erf(hi) - erf(lo))
