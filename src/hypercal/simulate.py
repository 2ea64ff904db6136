"""Forward model: renders raw 12-bit pushbroom cubes from synthetic scenes.

A scene is a separable radiance field ``radiance(l, s, wl) =
spatial[l, s] * spectra[spectrum_index[l, s], wl]`` on a 1 nm grid from
350 to 2600 nm.  The sensor applies, in order: Gaussian-RSR band
integration (with smile and absolute wavelength error), keystone spatial
resampling, along-track stray-light convolution, gain and PRNU, dark bias
(plus a temperature term for SWIR), scan interference, bunch-pixel
multipliers, Gaussian noise, saturation clipping and 12-bit quantization.
Every injected parameter is copied into an :class:`ArtifactManifest`, the
ground-truth oracle for closed-loop validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np
from scipy.special import erf

from .cube import BandMeta, SpectralCube, DN_MAX
from .errors import HypercalError
from .kernels import _ROW_CHUNK_BYTES, band_integrals, resample_rows
from .spectral import ABSORPTION_LINES, MONOCHROMATOR_LINE_NM

WL_START = 350.0
WL_STOP = 2600.0
WL_STEP = 1.0

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# stray-light tiling shared with the stray corrector: along-track segments
# of SEGMENT_LINES lines times STRAY_BLOCKS equal sample blocks
SEGMENT_LINES = 64
STRAY_BLOCKS = 4


# ---------------------------------------------------------------------------
# scenes

def spectral_grid() -> np.ndarray:
    return np.arange(WL_START, WL_STOP + WL_STEP / 2, WL_STEP)


@dataclass(frozen=True)
class Scene:
    """Separable synthetic radiance field (W m-2 sr-1 um-1)."""

    kind: str
    wavelengths: np.ndarray
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
        return self.spatial[line, sample] * np.interp(wl, self.wavelengths, spec)


def _dip_spectrum(grid: np.ndarray, level: float, lines_nm, depth: float,
                  width_nm: float, tilt: float) -> np.ndarray:
    cont = level * (1.0 + tilt * (grid - grid.mean()) / (grid[-1] - grid[0]))
    dips = np.ones_like(grid)
    for wl in lines_nm:
        dips *= 1.0 - depth * np.exp(-0.5 * ((grid - wl) / width_nm) ** 2)
    return cont * dips


def synth_scene(kind: str, lines: int = 256, samples: int = 256,
                level: float = 100.0, **kw) -> Scene:
    """Build a synthetic scene.

    Kinds: ``uniform``, ``bar-target`` (period, contrast), ``point-source``
    (points, background), ``checkerboard`` (block, contrast),
    ``spectral-library`` (dip_depth, dip_width_nm, tilt).  Spectral-library
    scenes embed Gaussian absorption dips at the built-in O2/H2O/CO2 lines.
    """
    if level < 0:
        raise HypercalError("scene level must be non-negative")
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
    elif kind == "spectral-library":
        depth = float(kw.get("dip_depth", 0.4))
        width = float(kw.get("dip_width_nm", 7.0))
        tilt = float(kw.get("tilt", 0.3))
        spectra = _dip_spectrum(grid, level,
                                [ln.nominal_nm for ln in ABSORPTION_LINES],
                                depth, width, tilt)[None, :]
    else:
        raise HypercalError(f"unknown scene kind {kind!r}")
    return Scene(kind=kind, wavelengths=grid, spectra=np.asarray(spectra),
                 spectrum_index=index, spatial=np.asarray(spatial, dtype=np.float64))


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
                    ref_band: int = 30) -> np.ndarray:
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


def linear_steering(lines: int, start_deg: float = 2.0,
                    end_deg: float = -2.0) -> np.ndarray:
    """Default per-line platform steering profile (step-and-stare sweep)."""
    return np.linspace(start_deg, end_deg, lines)


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
                        amplitude: float = 0.8, seed: int = 3) -> tuple:
    """Clusters at the given swath locations for each listed band, with
    nonlinear multiplier profiles and lengths up to ``max_len``."""
    rng = np.random.default_rng(seed)
    clusters = []
    for b in bands:
        for j, s0 in enumerate(start_samples):
            length = int(rng.integers(1, max_len + 1)) if j else max_len
            i = np.arange(length)
            bump = 0.3 + 0.7 * np.exp(-((i - length / 2.0) / (length / 2.0 + 0.5)) ** 2)
            profile = tuple(1.0 + amplitude * bump)
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

    def single_band(self, band: int) -> "SensorModel":
        """One-band view: every per-band field sliced to ``band``, which
        becomes band 0.  Each per-band step of :func:`render_raw` is
        independent of the others, so without noise or bunch clusters (both
        keyed by band index) the view renders exactly plane ``band`` of the
        full sensor's cube."""
        sl = slice(band, band + 1)
        return replace(
            self, centers_nm=self.centers_nm[sl], fwhm_nm=self.fwhm_nm[sl],
            smile_nm=self.smile_nm[sl], keystone_px=self.keystone_px[sl],
            prnu=self.prnu[sl], dark_dn=self.dark_dn[sl],
            gain_dn_per_radiance=self.gain_dn_per_radiance[sl],
            sat_radiance=self.sat_radiance[sl],
            masked_channels=frozenset({0} if band in self.masked_channels
                                      else ()))

    def effective_centers(self) -> np.ndarray:
        """Actual RSR centers per (band, sample): nominal + smile - error."""
        return (self.centers_nm[:, None] + self.smile_nm - self.center_error_nm)


def default_centers(instrument: str, bands: int) -> np.ndarray:
    if instrument == "vnir":
        return np.linspace(400.0, 900.0, bands)
    # SWIR centers placed so exactly 7 bands overlap the VNIR range at the
    # full 256-band configuration (drives the 309-band bundled product)
    return np.linspace(850.0, 2500.0, bands + 1)[1:]


def make_sensor(instrument: str = "vnir", samples: int = 256,
                bands: int | None = None, *, fwhm_nm: float | None = None,
                smile_nm=None, center_error_nm: float = 0.0, keystone_px=None,
                prnu=None, prnu_spread: float = 0.0, dark_dn=64.0,
                dark_temp_slope: float = 0.0, t_ref_k: float = 293.0,
                read_noise_dn: float = 2.0, photon_noise_k: float = 0.0,
                sat_radiance=140.0, gain_dn_per_radiance=30.0,
                gain_error=None, masked_channels=(), seed: int = 7) -> SensorModel:
    """Assemble a sensor; scalar parameters are broadcast per (band, sample).

    ``gain_error`` multiplies the per-band DN gain (used to inject the
    miscalibration that vicarious calibration recovers)."""
    if instrument not in ("vnir", "swir"):
        raise HypercalError(f"unknown instrument {instrument!r}")
    if bands is None:
        bands = 60 if instrument == "vnir" else 256
    centers = default_centers(instrument, bands)
    if fwhm_nm is None:
        fwhm_nm = 9.24 if instrument == "vnir" else 5.87
    fwhm = np.full(bands, float(fwhm_nm))
    shape = (bands, samples)

    def _field(value, default=0.0):
        if value is None:
            value = default
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(shape, float(arr))
        return np.broadcast_to(arr, shape).copy()

    if prnu is None:
        prnu = random_prnu(bands, samples, prnu_spread, seed) \
            if prnu_spread > 0 else np.ones(shape)
    gain = _field(gain_dn_per_radiance)
    if gain_error is not None:
        gain = gain * np.broadcast_to(
            np.asarray(gain_error, dtype=np.float64)[:, None], shape)
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
        gain_dn_per_radiance=gain,
        sat_radiance=sat,
        center_error_nm=float(center_error_nm),
        dark_temp_slope=float(dark_temp_slope),
        t_ref_k=float(t_ref_k),
        read_noise_dn=float(read_noise_dn),
        photon_noise_k=float(photon_noise_k),
        masked_channels=frozenset(int(b) for b in masked_channels),
    )


# ---------------------------------------------------------------------------
# manifest

def _to_jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_to_jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _to_jsonable(v) for k, v in asdict(value).items()}
    return value


@dataclass
class ArtifactManifest:
    """Copy of every injected parameter set; the closed-loop oracle."""

    instrument: str
    seed: int
    temperature_k: float
    centers_nm: np.ndarray
    fwhm_nm: np.ndarray
    smile_nm: np.ndarray
    center_error_nm: float
    keystone_px: np.ndarray
    prnu: np.ndarray
    dark_dn: np.ndarray
    dark_temp_slope: float
    t_ref_k: float
    read_noise_dn: float
    photon_noise_k: float
    gain_dn_per_radiance: np.ndarray
    sat_radiance: np.ndarray
    masked_channels: tuple
    interference: tuple = ()
    bunch: tuple = ()
    stray: StrayLightSpec | None = None
    steering_deg: np.ndarray | None = None
    noise: bool = True
    boresight: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        payload = {k: _to_jsonable(v) for k, v in self.__dict__.items()}
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1),
                              encoding="utf-8")

    @classmethod
    def from_json(cls, path) -> "ArtifactManifest":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        arrays = {"centers_nm", "fwhm_nm", "smile_nm", "keystone_px", "prnu",
                  "dark_dn", "gain_dn_per_radiance", "sat_radiance"}
        kwargs = {}
        for k, v in raw.items():
            if k in arrays:
                kwargs[k] = np.asarray(v, dtype=np.float64)
            elif k == "steering_deg":
                kwargs[k] = None if v is None else np.asarray(v, dtype=np.float64)
            elif k == "interference":
                kwargs[k] = tuple(InterferenceComponent(**c) for c in v)
            elif k == "bunch":
                kwargs[k] = tuple(
                    BunchCluster(c["band"], c["start_sample"], c["length"],
                                 tuple(c["profile"])) for c in v)
            elif k == "stray":
                kwargs[k] = None if v is None else StrayLightSpec(**v)
            elif k == "masked_channels":
                kwargs[k] = tuple(v)
            else:
                kwargs[k] = v
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# rendering

def _check_coverage(scene: Scene, sensor: SensorModel) -> None:
    centers = sensor.effective_centers()
    sigma = sensor.fwhm_nm * _FWHM_TO_SIGMA
    lo = (centers.min(axis=1) - 5 * sigma).min()
    hi = (centers.max(axis=1) + 5 * sigma).max()
    if lo < scene.wavelengths[0] or hi > scene.wavelengths[-1]:
        raise HypercalError("scene spectral grid does not cover the sensor RSRs")
    if np.any(sensor.fwhm_nm <= 0):
        raise HypercalError("degenerate FWHM")


def _apply_stray(fields: np.ndarray, spec: StrayLightSpec,
                 steering: np.ndarray) -> None:
    """Non-stationary along-track convolution of a (bands, lines, samples)
    stack, in place: kernels constant within SEGMENT_LINES x STRAY_BLOCKS
    tiles, evaluated at the tile's mean steering angle and center sample.
    A tile reads its lines plus a tap_count // 2 halo from a copy of its
    block taken before the block is written."""
    from scipy.ndimage import convolve1d, gaussian_filter1d

    lines, samples = fields.shape[1:]
    h = spec.tap_count // 2
    block_edges = np.linspace(0, samples, STRAY_BLOCKS + 1).astype(int)
    for c0, c1 in zip(block_edges[:-1], block_edges[1:]):
        frac = (0.5 * (c0 + c1)) / samples
        block = fields[:, :, c0:c1].copy()
        for seg0 in range(0, lines, SEGMENT_LINES):
            seg1 = min(seg0 + SEGMENT_LINES, lines)
            r0, r1 = max(seg0 - h, 0), min(seg1 + h, lines)
            taps = spec.kernel(float(steering[seg0:seg1].mean()), frac)
            sub = convolve1d(block[:, r0:r1], taps, axis=1, mode="nearest")
            if spec.cross_track_sigma_px > 0:
                sub = gaussian_filter1d(sub, spec.cross_track_sigma_px,
                                        axis=2, mode="nearest")
            fields[:, seg0:seg1, c0:c1] = sub[:, seg0 - r0:seg1 - r0]
        block = sub = None  # freed before the next block's copy


def render_raw(scene: Scene, sensor: SensorModel,
               artifacts: ArtifactConfig | None = None, seed: int = 0,
               temperature_k: float | None = None,
               steering_deg: np.ndarray | None = None):
    """Render a raw DN cube plus its ground-truth manifest.  Fields are
    band-major; a scene whose lines are all the same renders one line, which
    is repeated before stray light (every earlier step acts within a line)."""
    artifacts = artifacts or ArtifactConfig()
    _check_coverage(scene, sensor)
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
    coords = (np.arange(samples) + sensor.keystone_px)[:, None, :]
    has_keystone = bool(np.any(sensor.keystone_px != 0.0))

    fields = np.empty((bands, rows, samples))
    step = max(1, _ROW_CHUNK_BYTES // (8 * max(rows * samples, 1)))
    for b0 in range(0, bands, step):
        chunk = spatial * resp[b0:b0 + step, np.arange(samples), index]
        if has_keystone:
            chunk, _ = resample_rows(chunk, coords[b0:b0 + step])
        fields[b0:b0 + step] = chunk
    illuminated = np.array([b not in sensor.masked_channels for b in range(bands)])
    fields[~illuminated] = 0.0

    if artifacts.stray is not None:
        if rows < lines:
            fields = np.repeat(fields, lines, axis=1)
        _apply_stray(fields, artifacts.stray, steering_deg)

    dark_term = sensor.dark_dn + sensor.dark_temp_slope * (
        temperature_k - sensor.t_ref_k)
    gain = sensor.gain_dn_per_radiance * sensor.prnu
    sat_dn = gain * sensor.sat_radiance[:, None] + dark_term
    pattern = np.zeros((lines, 1))
    for comp in artifacts.interference:
        pattern[:, 0] += comp.amplitude_dn * np.sin(
            2.0 * np.pi * comp.frequency * np.arange(lines, dtype=np.float64)
            + comp.phase_rad)
    noisy = artifacts.noise and (sensor.read_noise_dn > 0
                                 or sensor.photon_noise_k > 0)
    data = np.empty((lines, samples, bands), dtype=np.uint16)
    dn = np.empty((lines, samples))
    for b in range(bands):
        np.multiply(fields[b], gain[b], out=dn)
        dn += dark_term[b]
        if illuminated[b]:
            dn += pattern
            for cluster in artifacts.bunch:
                if cluster.band == b:
                    s0 = cluster.start_sample
                    dn[:, s0:s0 + cluster.length] *= np.asarray(cluster.profile)
        if noisy:
            rng = np.random.default_rng([seed, b])
            std = sensor.read_noise_dn
            if sensor.photon_noise_k > 0:
                signal = np.clip(dn - dark_term[b], 0.0, None)
                std = np.sqrt(std ** 2 + sensor.photon_noise_k * signal)
            dn += rng.standard_normal((lines, samples)) * std
        np.minimum(dn, sat_dn[b], out=dn)
        data[:, :, b] = np.clip(np.rint(dn, out=dn), 0, DN_MAX, out=dn)
    cube = SpectralCube(data=data, pixel_kind="dn12",
                        band_meta=sensor.band_meta())
    manifest = ArtifactManifest(
        instrument=sensor.instrument,
        seed=int(seed),
        temperature_k=float(temperature_k),
        centers_nm=sensor.centers_nm.copy(),
        fwhm_nm=sensor.fwhm_nm.copy(),
        smile_nm=sensor.smile_nm.copy(),
        center_error_nm=sensor.center_error_nm,
        keystone_px=sensor.keystone_px.copy(),
        prnu=sensor.prnu.copy(),
        dark_dn=sensor.dark_dn.copy(),
        dark_temp_slope=sensor.dark_temp_slope,
        t_ref_k=sensor.t_ref_k,
        read_noise_dn=sensor.read_noise_dn,
        photon_noise_k=sensor.photon_noise_k,
        gain_dn_per_radiance=sensor.gain_dn_per_radiance.copy(),
        sat_radiance=sensor.sat_radiance.copy(),
        masked_channels=tuple(sorted(sensor.masked_channels)),
        interference=tuple(artifacts.interference),
        bunch=tuple(artifacts.bunch),
        stray=artifacts.stray,
        steering_deg=steering_deg.copy() if artifacts.stray else None,
        noise=bool(artifacts.noise),
    )
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


def render_monochromator(sensor: SensorModel, wl_nm: float) -> np.ndarray:
    """Per-(band, sample) response to a MONOCHROMATOR_LINE_NM-wide
    monochromatic line."""
    if not (WL_START <= wl_nm <= WL_STOP):
        raise HypercalError(f"wavelength {wl_nm} nm outside "
                            f"[{WL_START}, {WL_STOP}]")
    centers = sensor.effective_centers()
    sigma = (sensor.fwhm_nm * _FWHM_TO_SIGMA)[:, None]
    half = MONOCHROMATOR_LINE_NM / 2.0
    hi = (wl_nm + half - centers) / (sigma * np.sqrt(2.0))
    lo = (wl_nm - half - centers) / (sigma * np.sqrt(2.0))
    return 0.5 * (erf(hi) - erf(lo))
