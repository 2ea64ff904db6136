"""Shared builders for closed-loop tests."""

import tracemalloc

import numpy as np
import pytest

from hypercal import anomalies as ano, geometry, simulate as sim
from hypercal.cube import INSTRUMENTS, BandMeta, SpectralCube


def uniform_band_meta(bands: int, instrument: str = "vnir") -> tuple:
    """Evenly spaced band metadata over the instrument's spectral range."""
    facts = INSTRUMENTS[instrument]
    return tuple(BandMeta(float(c), facts.fwhm_nm, instrument)
                 for c in np.linspace(*facts.range_nm, bands))


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


def render_radiance(scene, sensor, seed=0, artifacts=None, steering=None):
    """A render (noiseless unless ``artifacts`` says otherwise) with the
    ideal radiometric correction from sensor truth."""
    cube, _ = sim.render_raw(scene, sensor,
                             artifacts or sim.ArtifactConfig(noise=False),
                             seed=seed, steering_deg=steering)
    return sim.ideal_radiance(cube, sensor)


def single_band_cube(image, center_nm=650.0, instrument="vnir",
                     pixel_kind="radiance"):
    meta = (BandMeta(center_nm, INSTRUMENTS[instrument].fwhm_nm,
                     instrument),)
    return SpectralCube(np.asarray(image, dtype=np.float64)[:, :, None],
                        pixel_kind=pixel_kind, band_meta=meta,
                        interleave="bsq")


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
        strips.append((gm, sim.survey_gcps(gm.with_bias(true_bias), n_gcps,
                                           noise, seed + 100 + i,
                                           f"strip{i}")))
    return strips


def amplitude_at(cube, frequency):
    """Amplitude of the swath-mean line signal at the FFT bin nearest
    ``frequency`` (cycles/line)."""
    sig = cube.data.astype(np.float64).mean(axis=(1, 2))
    sig = sig - sig.mean()
    amp = np.abs(np.fft.rfft(sig)) * 2.0 / sig.size
    return amp[np.abs(np.fft.rfftfreq(sig.size) - frequency).argmin()]


def stray_point_render(sensor, spec, steering):
    """A noiseless unit point at (128, 128) of a 256x256 swath on a 0.002
    background, under stray light ``spec``."""
    scene = sim.synth_scene("point-source", 256, 256, points=[(128, 128)],
                            background=0.002, amplitude=1.0)
    cube, _ = sim.render_raw(scene, sensor,
                             sim.ArtifactConfig(stray=spec, noise=False),
                             seed=1, steering_deg=steering)
    return cube


def point_extent(cube):
    """Along-track smear extent (px) of the point at (128, 128)."""
    col = cube.data[:, 128, 0].astype(float)
    col -= np.median(col)
    return ano.kernel_extent(col[128 - 15:128 + 16])


def two_material_scene():
    """256 lines of 64 samples alternating, two lines each, between the
    spectral-library spectrum at level 30 and a flat 120: absorption dips
    beside bright neighbours for stray light to fill in."""
    lib = sim.synth_scene("spectral-library", 256, 64, level=30.0)
    return sim.Scene(
        spectra=np.vstack([lib.spectra,
                           np.full((1, lib.spectra.shape[1]), 120.0)]),
        spectrum_index=np.broadcast_to(
            ((np.arange(256)[:, None] // 2) % 2), (256, 64)).copy(),
        spatial=np.ones((256, 64)))


def dip_contrast(cube, scene):
    """Depth of the 762 nm dip against 700 nm on the library lines of
    :func:`two_material_scene`, above the 64 DN dark."""
    sig = cube.data.astype(float) - 64.0
    rows = np.flatnonzero(scene.spectrum_index[:, 0] == 0)
    b_dip = np.abs(cube.centers_nm - 762.0).argmin()
    b_cont = np.abs(cube.centers_nm - 700.0).argmin()
    return 1.0 - sig[rows, :, b_dip].mean() / sig[rows, :, b_cont].mean()


def coordinate_cube(lines, samples):
    """Two-band cube whose values are the image coordinates plus 10."""
    data = np.empty((lines, samples, 2))
    data[:, :, 0] = np.arange(lines)[:, None]
    data[:, :, 1] = np.arange(samples)[None, :]
    meta = (BandMeta(500.0, 9.24, "vnir"), BandMeta(600.0, 9.24, "vnir"))
    return SpectralCube(data + 10.0, "radiance", meta)


def line_mean(cube):
    """A calibration acquisition's per-pixel mean over its lines: what the
    flat-field and SWIR dark fits take."""
    return cube.data.mean(axis=0, dtype=np.float64)


def same_bits(a, b) -> bool:
    """Equal shapes, values and sign bits (-0.0 is not 0.0)."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def check_in_place(correct, cube, *args):
    """``correct(cube, *args)`` leaves ``cube`` untouched, and with ``out``
    set to the cube's own data writes the same bits there."""
    before = cube.data.copy()
    fresh = correct(cube, *args)
    assert same_bits(cube.data, before)
    got = correct(cube, *args, out=cube.data)
    fresh, got = (r[0] if isinstance(r, tuple) else r for r in (fresh, got))
    assert got.data is cube.data
    assert same_bits(got.data, fresh.data)
    return got


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak
