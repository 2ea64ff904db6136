"""Shared builders for closed-loop tests."""

import tracemalloc

import numpy as np
import pytest

from hypercal import geometry, simulate as sim
from hypercal.cube import BandMeta, SpectralCube


def uniform_band_meta(bands: int, instrument: str = "vnir",
                      lo: float | None = None, hi: float | None = None,
                      fwhm: float | None = None) -> tuple:
    """Evenly spaced band metadata over the instrument's spectral range."""
    if instrument == "vnir":
        lo = 400.0 if lo is None else lo
        hi = 900.0 if hi is None else hi
        fwhm = 9.24 if fwhm is None else fwhm
    else:
        lo = 850.0 if lo is None else lo
        hi = 2500.0 if hi is None else hi
        fwhm = 5.87 if fwhm is None else fwhm
    centers = np.linspace(lo, hi, bands)
    return tuple(BandMeta(float(c), float(fwhm), instrument) for c in centers)


def quiet_sensor(instrument="vnir", samples=256, bands=None, **kw):
    """Sensor with all noise and artifact fields off unless overridden."""
    defaults = dict(smile_nm=0.0, keystone_px=0.0, prnu_spread=0.0,
                    read_noise_dn=0.0, photon_noise_k=0.0, seed=7)
    defaults.update(kw)
    return sim.make_sensor(instrument, samples=samples, bands=bands,
                           **defaults)


def smooth_texture(lines=256, samples=256, seed=11, scale=50.0,
                   level=100.0, sigma=2.0):
    """Band-limited random texture with sub-pixel registration signal."""
    from scipy.ndimage import gaussian_filter
    rng = np.random.default_rng(seed)
    return gaussian_filter(rng.normal(0.0, 1.0, (lines, samples)),
                           sigma) * scale + level


def single_band_cube(image, center_nm=650.0, instrument="vnir",
                     pixel_kind="radiance"):
    meta = (BandMeta(center_nm, 9.24 if instrument == "vnir" else 5.87,
                     instrument),)
    return SpectralCube(np.asarray(image, dtype=np.float64)[:, :, None],
                        pixel_kind=pixel_kind, band_meta=meta,
                        interleave="bsq")


def synth_gcps(gm, n=25, noise=0.0, seed=0, strip_id="strip"):
    """GCPs consistent with a geometry model, optionally noise-perturbed."""
    r = np.random.default_rng(seed)
    lines = r.uniform(2, gm.lines - 3, n)
    samples = r.uniform(0, gm.samples - 1, n)
    heights = r.uniform(0, 500, n)
    east, north = geometry.geolocate(gm, lines, samples, heights)
    east = east + r.normal(0, noise, n)
    north = north + r.normal(0, noise, n)
    return [geometry.GroundControlPoint(l, s, e, nn, h, strip_id)
            for l, s, e, nn, h in zip(lines, samples, east, north, heights)]


def boresight_strips(true_bias, n_strips=8, n_gcps=25, noise=0.0,
                     lines=256, samples=256, seed=0):
    """Strips whose GCPs were surveyed against the biased instrument."""
    rng = np.random.default_rng(seed)
    strips = []
    for i in range(n_strips):
        gm = geometry.make_geo(
            lines, samples,
            roll=np.deg2rad(rng.uniform(-5, 5)),
            pitch=np.deg2rad(rng.uniform(-5, 5)),
            yaw=np.deg2rad(rng.uniform(-0.02, 0.02)),
            track_start_north=rng.uniform(0, 1e5),
            track_across=rng.uniform(-1e4, 1e4))
        gcps = synth_gcps(gm.with_bias(true_bias), n_gcps, noise=noise,
                          seed=seed + 100 + i, strip_id=f"strip{i}")
        strips.append((gm, gcps))
    return strips


def stray_point_grid(sensor, spec, steering, band, seed=70, amplitude=1.0,
                     lines=256, samples=256):
    """Point-source acquisitions on a 3x3 (along-track, sample) grid, with
    along-track positions at segment centers."""
    cubes = []
    for (l0, s0) in [(l, s) for l in (32, 128, 224) for s in (32, 128, 224)]:
        scene = sim.synth_scene("point-source", lines, samples,
                                points=[(l0, s0)], background=0.002,
                                amplitude=amplitude)
        cube, _ = sim.render_raw(scene, sensor,
                                 sim.ArtifactConfig(stray=spec, noise=False),
                                 seed=seed, steering_deg=steering)
        cubes.append((cube, (l0, s0)))
    return cubes


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak
