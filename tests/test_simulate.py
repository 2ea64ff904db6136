"""Forward sensor model: scenes, artifact injection, and renders."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.ndimage import convolve1d, gaussian_filter1d

from hypercal import kernels, simulate as sim
from hypercal.cube import read_json, write_json
from hypercal.errors import HypercalError

from conftest import quiet_sensor

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


class TestScenes:
    def test_uniform_scene_constant_radiance(self):
        scene = sim.synth_scene("uniform", 8, 8, level=42.0)
        wl = np.array([500.0, 1600.0, 2400.0])
        assert np.allclose(scene.radiance(3, 5, wl), 42.0)

    def test_library_scene_has_oxygen_dip(self):
        scene = sim.synth_scene("spectral-library", 8, 8, level=100.0)
        r760 = scene.radiance(0, 0, np.array([760.0]))[0]
        r740 = scene.radiance(0, 0, np.array([740.0]))[0]
        assert r760 < r740

    def test_library_scene_covers_all_ten_lines(self):
        from hypercal.spectral import ABSORPTION_LINES_NM
        scene = sim.synth_scene("spectral-library", 4, 4, level=100.0,
                                dip_depth=0.5)
        assert len(ABSORPTION_LINES_NM) == 10
        for wl in ABSORPTION_LINES_NM:
            on = scene.radiance(0, 0, np.array([wl]))[0]
            off = scene.radiance(0, 0, np.array([wl + 25.0]))[0]
            assert on < off

    def test_bar_target_column_parity(self):
        period = 8
        scene = sim.synth_scene("bar-target", 4, 32, period=period,
                                contrast=0.5)
        cols = (np.arange(32) // (period // 2)) % 2
        expected = np.where(cols == 0, 1.0, 0.5)
        assert np.allclose(scene.spatial[0], expected)

    def test_unknown_kind_rejected(self):
        with pytest.raises(HypercalError):
            sim.synth_scene("volcano", 8, 8)

    @pytest.mark.parametrize("kind, key", [
        ("spectral-library", "tilt"), ("spectral-library", "dip_width_nm"),
        ("uniform", "block"), ("bar-target", "points"),
        ("checkerboard", "amplitude"), ("point-source", "contrast")])
    def test_parameter_of_another_kind_rejected(self, kind, key):
        with pytest.raises(HypercalError, match=f"{kind}.*{key}"):
            sim.synth_scene(kind, 4, 4, **{key: 0.9})

    def test_negative_level_rejected(self):
        with pytest.raises(HypercalError):
            sim.synth_scene("uniform", 8, 8, level=-1.0)

    def test_spectral_grid_spans_both_instruments(self):
        grid = sim.spectral_grid()
        assert grid[0] <= 350.0 and grid[-1] >= 2600.0


class TestArtifactTypes:
    def test_interference_frequency_bounds(self):
        with pytest.raises(HypercalError):
            sim.InterferenceComponent(frequency=0.0, amplitude_dn=1.0)
        with pytest.raises(HypercalError):
            sim.InterferenceComponent(frequency=0.6, amplitude_dn=1.0)
        with pytest.raises(HypercalError):
            sim.InterferenceComponent(frequency=0.1, amplitude_dn=-1.0)

    def test_bunch_run_length_capped(self):
        with pytest.raises(HypercalError):
            sim.BunchCluster(band=0, start_sample=0, length=16,
                             profile=tuple([1.5] * 16))

    def test_bunch_profile_must_exceed_unity(self):
        with pytest.raises(HypercalError):
            sim.BunchCluster(band=0, start_sample=0, length=2,
                             profile=(1.5, 0.9))

    def test_sensor_keystone_bound(self):
        with pytest.raises(HypercalError):
            quiet_sensor(keystone_px=3.5)

    def test_sensor_prnu_positive(self):
        with pytest.raises(HypercalError):
            quiet_sensor(prnu=np.zeros((60, 256)))


class TestRenderRaw:
    def test_dark_floor(self):
        sensor = quiet_sensor(samples=32, bands=8, dark_dn=64.0)
        scene = sim.synth_scene("uniform", 16, 32, level=0.0)
        cube, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False))
        assert np.all(cube.data == 64)

    def test_uniform_scene_matches_quadrature_oracle(self):
        sensor = quiet_sensor(samples=16, bands=8)
        scene = sim.synth_scene("spectral-library", 8, 16, level=100.0)
        cube, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False))
        # independent 1 nm quadrature of the Gaussian response
        grid = sim.spectral_grid()
        spectrum = scene.radiance(0, 0, grid)
        for b in (0, 3, 7):
            sigma = sensor.fwhm_nm[b] * FWHM_TO_SIGMA
            w = np.exp(-0.5 * ((grid - sensor.centers_nm[b]) / sigma) ** 2)
            expected = (spectrum * w).sum() / w.sum()
            dn = expected * sensor.gain_dn_per_radiance[b, 8] + 64.0
            assert abs(float(cube.data[4, 8, b]) - dn) <= 1.0

    def test_swath_width_mismatch_rejected(self):
        sensor = quiet_sensor(samples=32, bands=8)
        scene = sim.synth_scene("uniform", 16, 24, level=50.0)
        with pytest.raises(HypercalError, match="swath width"):
            sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False))

    def test_steering_length_mismatch_rejected(self):
        sensor = quiet_sensor(samples=32, bands=8)
        scene = sim.synth_scene("uniform", 16, 32, level=50.0)
        with pytest.raises(HypercalError, match="steering profile length"):
            sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False),
                           steering_deg=np.zeros(15))

    def test_determinism(self):
        sensor = quiet_sensor(samples=32, bands=8, read_noise_dn=2.0,
                              prnu_spread=0.02)
        scene = sim.synth_scene("uniform", 32, 32, level=50.0)
        art = sim.ArtifactConfig(
            interference=(sim.InterferenceComponent(0.2, 5.0),), noise=True)
        c1, m1 = sim.render_raw(scene, sensor, art, seed=9)
        c2, m2 = sim.render_raw(scene, sensor, art, seed=9)
        assert np.array_equal(c1.data, c2.data)
        c3, _ = sim.render_raw(scene, sensor, art, seed=10)
        assert not np.array_equal(c1.data, c3.data)

    def test_linearity_without_artifacts(self):
        sensor = quiet_sensor(samples=16, bands=8)
        lo = sim.synth_scene("uniform", 8, 16, level=20.0)
        hi = sim.synth_scene("uniform", 8, 16, level=40.0)
        c1, _ = sim.render_raw(lo, sensor, sim.ArtifactConfig(noise=False))
        c2, _ = sim.render_raw(hi, sensor, sim.ArtifactConfig(noise=False))
        sig1 = c1.data.astype(float) - 64.0
        sig2 = c2.data.astype(float) - 64.0
        assert np.allclose(sig2, 2.0 * sig1, atol=1.5)

    def test_keystone_moves_point_by_kernel_support(self):
        keystone = np.full((8, 64), 2.0)
        keystone[4] = 0.0
        sensor = quiet_sensor(samples=64, bands=8, keystone_px=keystone)
        scene = sim.synth_scene("point-source", 32, 64, points=[(16, 32)],
                                background=0.0, amplitude=1.0)
        cube, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False))
        sig = cube.data[16, :, 0].astype(float) - 64.0
        # out(s) = scene(s + keystone): response moves against the shift
        assert sig[30] > sig[32]
        ref = cube.data[16, :, 4].astype(float) - 64.0
        assert ref.argmax() == 32

    def test_point_source_confined_without_stray(self):
        sensor = quiet_sensor(samples=64, bands=4)
        scene = sim.synth_scene("point-source", 32, 64, points=[(16, 32)],
                                background=0.0, amplitude=1.0)
        cube, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False))
        sig = cube.data[:, :, 0].astype(float) - 64.0
        peak = sig[16, 32]
        outside = np.delete(sig[16], np.arange(30, 35))
        assert outside.max() < 0.01 * peak
        assert np.abs(np.delete(sig[:, 32], 16)).max() < 0.01 * peak

    def test_masked_channels_ignore_scene(self):
        sensor = quiet_sensor(samples=16, bands=8, masked_channels=(2, 5),
                              read_noise_dn=0.0)
        dark_scene = sim.synth_scene("uniform", 8, 16, level=0.0)
        bright = sim.synth_scene("uniform", 8, 16, level=80.0)
        c0, _ = sim.render_raw(dark_scene, sensor,
                               sim.ArtifactConfig(noise=False))
        c1, _ = sim.render_raw(bright, sensor, sim.ArtifactConfig(noise=False))
        assert np.array_equal(c0.data[:, :, [2, 5]], c1.data[:, :, [2, 5]])
        assert c1.data[:, :, 3].min() > c0.data[:, :, 3].max()

    @pytest.mark.parametrize("band", [5, 8, 3])
    def test_single_band_view_renders_full_plane(self, band):
        # band 5 is the keystone reference, 8 is shifted, 3 is masked
        sensor = quiet_sensor(
            samples=64, bands=12, prnu_spread=0.02, masked_channels=(3,),
            smile_nm=sim.quadratic_smile(12, 64, 2.0),
            keystone_px=sim.linear_keystone(12, 64, 1.0, ref_band=5))
        scene = sim.synth_scene("point-source", 128, 64,
                                points=[(64, 32), (20, 50)],
                                background=0.002, amplitude=1.0)
        art = sim.ArtifactConfig(stray=sim.StrayLightSpec(tail_scale_px=2.2),
                                 noise=False)
        steering = sim.linear_steering(128)
        full, _ = sim.render_raw(scene, sensor, art, seed=70,
                                 steering_deg=steering)
        one, _ = sim.render_raw(scene, sensor.single_band(band), art,
                                seed=70, steering_deg=steering)
        assert one.data.shape == (128, 64, 1)
        assert np.array_equal(one.data[:, :, 0], full.data[:, :, band])

    def test_saturation_clips_to_quantizer(self):
        sensor = quiet_sensor(samples=16, bands=4, sat_radiance=50.0)
        scene = sim.synth_scene("uniform", 8, 16, level=120.0)
        cube, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(noise=False))
        sat_dn = 50.0 * 30.0 + 64.0
        assert np.all(cube.data <= np.rint(sat_dn))

    def test_manifest_round_trip(self, tmp_path):
        sensor = quiet_sensor(samples=16, bands=8, prnu_spread=0.01)
        scene = sim.synth_scene("uniform", 8, 16, level=50.0)
        _, manifest = sim.render_raw(scene, sensor,
                                     sim.ArtifactConfig(noise=False), seed=4)
        render = {"seed", "temperature_k", "interference", "bunch", "stray",
                  "steering_deg", "noise", "boresight"}
        assert set(manifest) == {f.name for f in fields(sensor)} | render
        write_json(manifest, tmp_path / "m.json", sort_keys=True)
        back = read_json(tmp_path / "m.json")
        assert list(back) == sorted(manifest)
        assert np.array_equal(back["prnu"], manifest["prnu"])
        assert np.array_equal(back["centers_nm"], manifest["centers_nm"])
        assert back["seed"] == manifest["seed"] == 4


class TestCalibrationRenders:
    def test_dark_constant_without_noise(self):
        sensor = quiet_sensor(samples=16, bands=4, dark_dn=80.0)
        cube = sim.render_dark(sensor, 8, 293.0, seed=0)
        assert np.all(cube.data == 80)

    def test_dark_temperature_monotonic(self):
        sensor = quiet_sensor("swir", samples=16, bands=4, dark_dn=80.0,
                              dark_temp_slope=0.5)
        lo = sim.render_dark(sensor, 64, 283.0, seed=1)
        hi = sim.render_dark(sensor, 64, 303.0, seed=1)
        assert hi.data.mean() > lo.data.mean()

    def test_dark_mean_matches_model(self):
        sensor = quiet_sensor("swir", samples=8, bands=4, dark_dn=80.0,
                              dark_temp_slope=0.5, read_noise_dn=2.0)
        cube = sim.render_dark(sensor, 10000, 303.0, seed=2)
        expected = 80.0 + 0.5 * 10.0
        err = np.abs(cube.data.astype(float).mean(axis=0) - expected)
        assert err.max() < 3.0 * 2.0 / 100.0

    def test_sphere_linearity(self):
        sensor = quiet_sensor(samples=16, bands=4)
        c1 = sim.render_sphere(sensor, 20.0, 8, noise=False)
        c2 = sim.render_sphere(sensor, 40.0, 8, noise=False)
        sig1 = c1.data.astype(float) - 64.0
        sig2 = c2.data.astype(float) - 64.0
        assert np.allclose(sig2, 2 * sig1, atol=1.5)

    def test_monochromator_gaussian_tail(self):
        sensor = quiet_sensor(samples=8, bands=4)
        far = sensor.centers_nm[0] + 6 * sensor.fwhm_nm[0]
        resp = sim.render_monochromator(sensor, far)
        peak = sim.render_monochromator(sensor, sensor.centers_nm[0])
        assert resp[0].max() < 1e-6 * peak[0].max()

    def test_monochromator_peaks_at_effective_center(self):
        smile = np.zeros((4, 8))
        smile[:, 0] = 3.0
        sensor = quiet_sensor(samples=8, bands=4, smile_nm=smile)
        sweep = np.arange(sensor.centers_nm[1] - 10.0,
                          sensor.centers_nm[1] + 10.0 + 0.5, 1.0)
        resp = np.stack([sim.render_monochromator(sensor, w) for w in sweep])
        peak_wl = sweep[resp[:, 1, 0].argmax()]
        assert abs(peak_wl - (sensor.centers_nm[1] + 3.0)) <= 1.0

    def test_monochromator_range_checked(self):
        sensor = quiet_sensor(samples=8, bands=4)
        with pytest.raises(HypercalError):
            sim.render_monochromator(sensor, 3000.0)

    @pytest.mark.parametrize("bands", [slice(0, 1), slice(2, 7),
                                       slice(5, 12)])
    def test_ideal_radiance_of_a_band_slice(self, bands):
        # the slice's bands, bit for bit, whichever slice converts them
        sensor = sim.make_sensor("swir", bands=12, samples=16,
                                 prnu_spread=0.05, seed=3)
        scene = sim.synth_scene("library-bars", lines=8, samples=16)
        raw, _ = sim.render_raw(scene, sensor, seed=4)
        whole = sim.ideal_radiance(raw, sensor)
        part = sim.ideal_radiance(raw, sensor, bands)
        assert np.array_equal(part.data, whole.data[:, :, bands])
        assert part.band_meta == whole.band_meta[bands]


# ---------------------------------------------------------------------------
# the stray-light line filter against scipy.ndimage

def _clamped(x, pad, axis):
    """``x`` extended by ``pad`` edge copies on each side of ``axis``."""
    n = x.shape[axis]
    return np.take(x, np.clip(np.arange(-pad, n + pad), 0, n - 1), axis=axis)


def _stray_taps(rng):
    """Along-track kernels of each kind the filter tells apart: random,
    stray kernels at zero (exactly symmetric) and nonzero steering, one
    symmetric only within DBL_EPSILON, and an antisymmetric one."""
    spec = sim.StrayLightSpec(tail_scale_px=2.2)
    sym = spec.kernel(0.0, 0.3)
    near = sym.copy()
    near[0] += 3e-17  # a few ulp: still symmetric to NI_Correlate1D
    anti = rng.normal(size=15)
    anti -= anti[::-1]
    return [rng.random(n) for n in (1, 3, 5, 15, 31)] + [
        sym, near, anti, spec.kernel(1.7, 0.8), spec.kernel(-0.4, 0.1),
        sim.StrayLightSpec(tap_count=5).kernel(0.0, 0.5)]


class TestStrayFilterMatchesNdimage:
    @pytest.mark.parametrize("lines", [1, 2, 7, 30, 31, 95])
    def test_same_bits_as_convolve1d(self, lines):
        rng = np.random.default_rng(lines)
        x = rng.normal(50.0, 20.0, (3, lines, 6)) * 10.0 ** rng.uniform(
            -3, 3, (3, 1, 6))
        for taps in _stray_taps(rng):
            got = sim._correlate(_clamped(x, taps.size // 2, 1), taps[::-1],
                                 axis=1)
            assert np.array_equal(
                got, convolve1d(x, taps, axis=1, mode="nearest"))

    @pytest.mark.parametrize("sigma", [0.3, 1.3, 2.5, 7.0])
    def test_cross_track_lobe_same_bits_as_gaussian_filter1d(self, sigma):
        # at 7 px the 29-tap lobe is wider than the 6-sample block
        x = np.random.default_rng(5).normal(50.0, 20.0, (3, 4, 6))
        lobe = sim._gaussian_weights(sigma)
        got = sim._correlate(_clamped(x, lobe.size // 2, 2), lobe, axis=2)
        assert np.array_equal(
            got, gaussian_filter1d(x, sigma, axis=2, mode="nearest"))

    @pytest.mark.parametrize("lines", [1, 10, 64, 100, 130])
    @pytest.mark.parametrize("sigma", [0.0, 1.3])
    def test_line_invariant_field_filtered_once_per_segment(self, lines,
                                                            sigma):
        # one row stands for its lines: the same bits as the row repeated
        row = np.random.default_rng(lines).normal(50.0, 20.0, (3, 1, 24))
        spec = sim.StrayLightSpec(tail_scale_px=2.2,
                                  cross_track_sigma_px=sigma)
        steering = sim.linear_steering(lines)
        once = sim._apply_stray(row.copy(), spec, steering)
        full = sim._apply_stray(np.repeat(row, lines, axis=1), spec,
                                steering)
        assert np.array_equal(once, full)


# ---------------------------------------------------------------------------
# per-band reference renders: the band-last loops the band-major renderer
# replaced, kept to pin every output byte

def _reference_apply_stray(fields, spec, steering, n_blocks=4):
    lines, samples = fields.shape[:2]
    out = np.empty_like(fields)
    block_edges = np.linspace(0, samples, n_blocks + 1).astype(int)
    for seg0 in range(0, lines, sim.SEGMENT_LINES):
        seg1 = min(seg0 + sim.SEGMENT_LINES, lines)
        theta = float(steering[seg0:seg1].mean())
        for bi in range(n_blocks):
            c0, c1 = block_edges[bi], block_edges[bi + 1]
            frac = (0.5 * (c0 + c1)) / samples
            taps = spec.kernel(theta, frac)
            sub = convolve1d(fields[:, c0:c1], taps, axis=0, mode="nearest")
            if spec.cross_track_sigma_px > 0:
                sub = gaussian_filter1d(sub, spec.cross_track_sigma_px,
                                        axis=1, mode="nearest")
            out[seg0:seg1, c0:c1] = sub[seg0:seg1]
    return out


def _reference_resample_rows(image, coords):
    taps, weights, i0, exact, _ = kernels._axis_taps(coords, image.shape[1])
    out = np.zeros(coords.shape)
    for idx, w in zip(taps, weights):
        out += w * np.take_along_axis(image, idx, axis=1)
    if np.any(exact):
        out[exact] = np.take_along_axis(image, i0, axis=1)[exact]
    return out


def _reference_render_raw(scene, sensor, artifacts, seed, temperature_k,
                          steering_deg):
    lines, samples = scene.lines, scene.samples
    bands = sensor.bands
    sigma = sensor.fwhm_nm * FWHM_TO_SIGMA
    resp = kernels.band_integrals(scene.spectra, sim.WL_START, sim.WL_STEP,
                                  sensor.effective_centers(), sigma)
    col_idx = np.broadcast_to(np.arange(samples), (lines, samples))
    sgrid = np.broadcast_to(np.arange(samples, dtype=np.float64),
                            (lines, samples))
    illuminated = np.array([b not in sensor.masked_channels
                            for b in range(bands)])
    fields = np.zeros((lines, samples, bands))
    has_keystone = bool(np.any(sensor.keystone_px != 0.0))
    for b in range(bands):
        if not illuminated[b]:
            continue
        fb = scene.spatial * resp[b][col_idx, scene.spectrum_index]
        if has_keystone:
            fb = _reference_resample_rows(
                fb, sgrid + sensor.keystone_px[b][None, :])
        fields[:, :, b] = fb
    if artifacts.stray is not None:
        for b in range(bands):
            if illuminated[b]:
                fields[:, :, b] = _reference_apply_stray(
                    fields[:, :, b][..., None], artifacts.stray,
                    steering_deg)[..., 0]
    dark_term = sensor.dark_dn + sensor.dark_temp_slope * (
        temperature_k - sensor.t_ref_k)
    gain = sensor.gain_dn_per_radiance * sensor.prnu
    dn = fields * gain.T[None, :, :] + dark_term.T[None, :, :]
    if artifacts.interference:
        line_axis = np.arange(lines, dtype=np.float64)
        pattern = np.zeros(lines)
        for comp in artifacts.interference:
            pattern += comp.amplitude_dn * np.sin(
                2.0 * np.pi * comp.frequency * line_axis + comp.phase_rad)
        dn[:, :, illuminated] += pattern[:, None, None]
    for cluster in artifacts.bunch:
        if not illuminated[cluster.band]:
            continue
        s0 = cluster.start_sample
        dn[:, s0:s0 + cluster.length, cluster.band] *= np.asarray(
            cluster.profile)
    if artifacts.noise and (sensor.read_noise_dn > 0
                            or sensor.photon_noise_k > 0):
        for b in range(bands):
            rng = np.random.default_rng([seed, b])
            signal = np.clip(dn[:, :, b] - dark_term.T[None, :, b], 0.0, None)
            std = np.sqrt(sensor.read_noise_dn ** 2
                          + sensor.photon_noise_k * signal)
            dn[:, :, b] += rng.standard_normal((lines, samples)) * std
    sat_dn = gain * sensor.sat_radiance[:, None] + dark_term
    dn = np.minimum(dn, sat_dn.T[None, :, :])
    return np.clip(np.rint(dn), 0, sim.DN_MAX).astype(np.uint16)


def _reference_render_dark(sensor, lines, temperature_k, seed):
    dark_term = sensor.dark_dn + sensor.dark_temp_slope * (
        temperature_k - sensor.t_ref_k)
    dn = np.broadcast_to(dark_term.T,
                         (lines, sensor.samples, sensor.bands)).copy()
    if sensor.read_noise_dn > 0:
        for b in range(sensor.bands):
            rng = np.random.default_rng([seed, b])
            dn[:, :, b] += rng.standard_normal(
                (lines, sensor.samples)) * sensor.read_noise_dn
    return np.clip(np.rint(dn), 0, sim.DN_MAX).astype(np.uint16)


def _scene(kind, lines, samples):
    extra = {"point-source": {"points": [(lines // 2, samples // 2), (0, 3)],
                              "background": 0.05},
             "checkerboard": {"block": 5},
             "library-bars": {"level": 80.0}}.get(kind, {})
    return sim.synth_scene(kind, lines, samples, **{"level": 70.0, **extra})


# (scene, lines, samples, bands, keystone, masked, stray sigma or None,
#  interference, bunch, photon noise k)
_RENDER_CASES = [
    ("uniform", 16, 24, 6, False, (), None, False, False, 0.0),
    ("uniform", 70, 24, 6, True, (2,), 0.0, True, True, 0.4),
    ("bar-target", 40, 32, 8, True, (), None, True, False, 0.4),
    ("bar-target", 1, 32, 8, True, (0,), 0.0, True, True, 0.0),
    ("checkerboard", 100, 32, 8, True, (5,), 0.0, False, True, 0.4),
    ("checkerboard", 64, 20, 5, False, (), 1.3, True, False, 0.0),
    ("point-source", 130, 40, 6, True, (), 1.3, False, False, 0.4),
    ("point-source", 1, 24, 4, False, (3,), 0.0, False, False, 0.0),
    ("library-bars", 128, 32, 8, True, (1,), 1.3, True, True, 0.4),
    ("library-bars", 33, 24, 6, False, (), None, False, True, 0.0),
    ("uniform", 0, 24, 4, True, (), 0.0, True, False, 0.4),
    ("checkerboard", 0, 24, 4, True, (), None, False, False, 0.0),
    # line-invariant with stray light and fewer lines than the 31 taps
    ("bar-target", 10, 24, 4, False, (), 0.0, False, False, 0.0),
]


def _render_case(case):
    """Render one ``_RENDER_CASES`` entry; returns the cube's data and the
    per-band reference's."""
    (kind, lines, samples, bands, keystone, masked, sigma, interference,
     bunch, photon_k) = case
    sensor = sim.make_sensor(
        "vnir", samples=samples, bands=bands, prnu_spread=0.02,
        smile_nm=sim.quadratic_smile(bands, samples, 1.0),
        keystone_px=sim.linear_keystone(bands, samples, 1.4, ref_band=2)
        if keystone else 0.0,
        read_noise_dn=2.0, photon_noise_k=photon_k,
        masked_channels=masked)
    art = sim.ArtifactConfig(
        interference=(sim.InterferenceComponent(0.125, 8.0),
                      sim.InterferenceComponent(0.31, 3.0, 0.7))
        if interference else (),
        bunch=sim.make_bunch_clusters((1, bands - 2), (2, samples - 12),
                                      max_len=10) if bunch else (),
        stray=None if sigma is None else sim.StrayLightSpec(
            tail_scale_px=2.2, cross_track_sigma_px=sigma))
    scene = _scene(kind, lines, samples)
    steering = sim.linear_steering(lines)
    cube, _ = sim.render_raw(scene, sensor, art, seed=11,
                             temperature_k=300.0, steering_deg=steering)
    expected = _reference_render_raw(scene, sensor, art, 11, 300.0,
                                     steering)
    return cube.data, expected


class TestRenderMatchesPerBandReference:
    @pytest.mark.parametrize("case", _RENDER_CASES,
                             ids=[f"{c[0]}-{c[1]}l" for c in _RENDER_CASES])
    def test_render_raw_bytes(self, case):
        data, expected = _render_case(case)
        assert data.dtype == np.uint16
        assert np.array_equal(data, expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_does_not_change_bytes(self, workers, monkeypatch):
        # stray, keystone, bunch, interference and photon noise on eight
        # bands of 100 lines (two stray segments; the scene renders one
        # line before stray light), then keystone on 40 distinct lines;
        # each worker's share of the budget makes three quantization tasks
        # (three uint16 bands each), one-band stray tasks, and one-band
        # keystone tasks on the second scene
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 3 * 2 * 100 * 32 * workers)
        for case in (
                ("library-bars", 100, 32, 8, True, (1,), 1.3, True, True, 0.4),
                ("checkerboard", 40, 32, 8, True, (), None, False, False, 0.0)):
            data, expected = _render_case(case)
            assert np.array_equal(data, expected)

    def test_swir_256_bands(self):
        sensor = sim.make_sensor(
            "swir", samples=16, prnu_spread=0.02, dark_temp_slope=0.4,
            smile_nm=sim.quadratic_smile(256, 16, 2.0),
            keystone_px=sim.linear_keystone(256, 16, 1.5),
            read_noise_dn=3.0, photon_noise_k=0.3, masked_channels=(200,))
        art = sim.ArtifactConfig(
            interference=(sim.InterferenceComponent(0.05, 5.0),),
            bunch=sim.make_bunch_clusters((10, 160), (3,), max_len=6),
            stray=sim.StrayLightSpec(tail_scale_px=2.2))
        scene = _scene("checkerboard", 72, 16)
        steering = sim.linear_steering(72)
        cube, _ = sim.render_raw(scene, sensor, art, seed=4,
                                 temperature_k=288.0, steering_deg=steering)
        expected = _reference_render_raw(scene, sensor, art, 4, 288.0,
                                         steering)
        assert cube.data.shape == (72, 16, 256)
        assert np.array_equal(cube.data, expected)

    @pytest.mark.parametrize("instrument,noise", [("vnir", 2.0),
                                                  ("swir", 3.0),
                                                  ("swir", 0.0)])
    def test_render_dark_bytes(self, instrument, noise):
        sensor = sim.make_sensor(
            instrument, samples=24, bands=12, read_noise_dn=noise,
            dark_temp_slope=0.5 if instrument == "swir" else 0.0)
        cube = sim.render_dark(sensor, 37, 305.0, seed=6)
        assert np.array_equal(
            cube.data, _reference_render_dark(sensor, 37, 305.0, 6))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_render_peak_memory_bounded(self, workers, monkeypatch):
        # 256 KB keystone, stray and quantization slices per worker keep
        # the task buffers a sliver of the 8 MB cube, so a full-cube
        # temporary shows against its size; the cube, the stray block
        # copies and their filtered tiles fit under 1.75 cubes
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", (256 << 10) * workers)
        sensor = sim.make_sensor(
            "swir", samples=64, read_noise_dn=2.0,
            keystone_px=sim.linear_keystone(256, 64, 1.5))
        scene = _scene("checkerboard", 64, 64)
        art = sim.ArtifactConfig(stray=sim.StrayLightSpec(tail_scale_px=2.2))
        cube_bytes = 64 * 64 * 256 * 8
        tracemalloc.start()
        try:
            sim.render_raw(scene, sensor, art, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * cube_bytes
