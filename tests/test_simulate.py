"""Forward sensor model: scenes, artifact injection, and renders."""

import numpy as np
import pytest

from hypercal import simulate as sim
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
        from hypercal.spectral import ABSORPTION_LINES
        scene = sim.synth_scene("spectral-library", 4, 4, level=100.0,
                                dip_depth=0.5)
        assert len(ABSORPTION_LINES) == 10
        for line in ABSORPTION_LINES:
            wl = line.nominal_nm
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
        manifest.to_json(tmp_path / "m.json")
        back = sim.ArtifactManifest.from_json(tmp_path / "m.json")
        assert np.allclose(back.prnu, manifest.prnu)
        assert np.allclose(back.centers_nm, manifest.centers_nm)
        assert back.seed == manifest.seed


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
