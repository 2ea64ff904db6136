"""End-to-end acceptance gate: thirteen closed-loop criteria checked
against the simulator's injected ground truth at desk scale."""

import json
import time

import numpy as np
import pytest

from hypercal import anomalies as ano
from hypercal import geometry as geo
from hypercal import radiometry as rad
from hypercal import simulate as sim
from hypercal import spectral
from hypercal.cube import SpectralCube, read_cube, write_cube
from hypercal.errors import EstimationError
from hypercal.pipeline import validate_config, run
from hypercal.registration import shift_1d

from conftest import (amplitude_at, boresight_strips, coordinate_cube,
                      dip_contrast, point_extent, quiet_sensor,
                      render_radiance, smooth_texture, stray_point_render,
                      two_material_scene, uniform_band_meta)


class TestCriterion01FlatFieldClosure:
    def test_four_level_fit_meets_gain_and_uniformity_budgets(self):
        sensor = quiet_sensor("vnir", samples=256, bands=60,
                              prnu_spread=0.02)
        levels = (0.5, 2.0, 60.0, 90.0)
        pairs = [(lv, sim.render_sphere(sensor, lv, 32, seed=i, noise=False))
                 for i, lv in enumerate(levels)]
        table = rad.fit_flatfield(pairs)
        truth = 1.0 / (sensor.gain_dn_per_radiance * sensor.prnu)
        assert (np.abs(table.gain - truth) / truth).max() < 1e-3
        fresh = sim.render_sphere(sensor, 45.0, 32, seed=9, noise=False)
        corrected, _, _ = rad.apply_flatfield(
            fresh, table, rad.DarkModel.constant(sensor.dark_dn))
        for b in range(corrected.bands):
            assert rad.nonuniformity(corrected.data[:, :, b]) < 1.0


class TestCriterion02InOrbitUpdate:
    def test_eight_percent_drift_corrected_to_two(self):
        sensor = quiet_sensor("vnir", samples=256, bands=60,
                              prnu_spread=0.02, read_noise_dn=2.0)
        pairs = [(lv, sim.render_sphere(sensor, lv, 100, seed=i))
                 for i, lv in enumerate((0.5, 2.0, 60.0, 90.0))]
        table = rad.fit_flatfield(pairs)
        dark = rad.DarkModel.constant(sensor.dark_dn)
        drift = sim.random_prnu(60, 256, 0.08, seed=99)
        drifted = quiet_sensor("vnir", samples=256, bands=60,
                               read_noise_dn=2.0, prnu=sensor.prnu * drift)
        probe = sim.render_sphere(drifted, 60.0, 100, seed=40)
        stale, _, _ = rad.apply_flatfield(probe, table, dark)
        nu_stale = [rad.nonuniformity(stale.data[:, :, b])
                    for b in range(stale.bands)]
        assert np.median(nu_stale) > 5.0  # drift really is ~8%
        scenes = [rad.apply_flatfield(
            sim.render_sphere(drifted, lv, 100, seed=50 + i), table, dark)[0]
            for i, lv in enumerate((40.0, 60.0, 80.0))]
        updated = rad.update_flatfield_inorbit(scenes, table)
        fixed, _, _ = rad.apply_flatfield(probe, updated, dark)
        for b in range(fixed.bands):
            assert rad.nonuniformity(fixed.data[:, :, b]) <= 2.0


class TestCriterion03Smile:
    def _estimate(self, instrument, bands, smile):
        sensor = quiet_sensor(instrument, samples=256, bands=bands,
                              smile_nm=smile)
        scene = sim.synth_scene("spectral-library", 64, 256, level=100.0)
        cube = render_radiance(scene, sensor)
        return cube, spectral.estimate_smile(cube)

    def test_vnir_quadratic_within_half_nanometer(self):
        cube, model = self._estimate("vnir", 60,
                                     sim.quadratic_smile(60, 256, 4.17))
        assert model.kind == "quadratic"
        assert abs(abs(model.peak_to_peak_nm) - 4.17) < 0.5
        corrected, _ = spectral.correct_smile(cube, model)
        residual = spectral.estimate_smile(corrected)
        spacing = float(np.abs(np.diff(cube.centers_nm)).mean())
        assert abs(residual.peak_to_peak_nm) < 0.1 * spacing

    def test_swir_linear_within_point_eight(self):
        cube, model = self._estimate("swir", 256,
                                     sim.linear_smile(256, 256, 12.0))
        assert model.kind == "linear"
        assert abs(abs(model.peak_to_peak_nm) - 12.0) < 0.8
        corrected, _ = spectral.correct_smile(cube, model)
        residual = spectral.estimate_smile(corrected)
        spacing = float(np.abs(np.diff(cube.centers_nm)).mean())
        assert abs(residual.peak_to_peak_nm) < 0.1 * spacing


class TestCriterion04AbsoluteShift:
    @pytest.mark.parametrize("instrument,bands,shift,tol",
                             [("vnir", 60, 5.5, 0.5),
                              ("swir", 256, 9.0, 0.8)])
    def test_shift_recovered_from_dips(self, instrument, bands, shift, tol):
        sensor = quiet_sensor(instrument, samples=64, bands=bands,
                              center_error_nm=shift)
        scene = sim.synth_scene("spectral-library", 16, 64, level=100.0)
        cube = render_radiance(scene, sensor)
        delta, _ = spectral.absolute_shift(cube.data.mean(axis=(0, 1)),
                                           cube.centers_nm)
        assert abs(delta - shift) < tol


class TestCriterion05Keystone:
    def test_injected_keystone_recovered_and_corrected(self):
        sensor = quiet_sensor("vnir", samples=256, bands=60,
                              keystone_px=sim.linear_keystone(60, 256, 1.5))
        scene = sim.synth_scene("bar-target", 256, 256, period=8,
                                contrast=0.2)
        cube = render_radiance(scene, sensor)
        model = spectral.estimate_keystone(cube)
        assert np.abs(model.shifts() - sensor.keystone_px).max() < 0.1
        corrected, _ = spectral.correct_keystone(cube, model)
        residual = spectral.estimate_keystone(corrected)
        assert np.abs(residual.shifts()).max() < 0.1

    def test_stray_contaminated_swir_refused(self):
        sensor = quiet_sensor(
            "swir", samples=256, bands=256, read_noise_dn=6.0,
            keystone_px=sim.linear_keystone(256, 256, 1.5))
        scene = sim.synth_scene("bar-target", 256, 256, period=8,
                                contrast=0.2)
        stray = sim.StrayLightSpec(cross_track_sigma_px=5.0)
        cube = render_radiance(scene, sensor, seed=5,
                               artifacts=sim.ArtifactConfig(stray=stray,
                                                            noise=True),
                               steering=sim.linear_steering(256))
        with pytest.raises(EstimationError):
            spectral.estimate_keystone(cube)


class TestCriterion06Vicarious:
    def test_two_hundred_percent_error_reduced_to_ten(self):
        rng = np.random.default_rng(4)
        gain_error = rng.uniform(0.34, 3.0, 60)
        reference = rng.uniform(20.0, 120.0, (6, 60))
        measured = reference / gain_error[None, :]
        res = rad.vicarious_gains(measured, reference)
        assert np.nanmax(res.pre_deviation_pct) > 100.0
        assert np.nanmax(res.deviation_pct) <= 10.0
        # a band that does not follow a single gain is flagged
        measured[:, 10] *= np.linspace(0.3, 3.0, 6)
        res = rad.vicarious_gains(measured, reference)
        assert res.bad_bands[10]


class TestCriterion07BunchPixels:
    CHANNELS = tuple(range(5, 55, 5))     # 10 channels
    LOCATIONS = (40, 120, 200)            # 3 swath locations

    def _flat(self, clusters=(), seed=0):
        sensor = quiet_sensor("vnir", samples=256, bands=60,
                              prnu_spread=0.02, read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", 256, 256, level=60.0)
        return render_radiance(scene, sensor, seed,
                               sim.ArtifactConfig(bunch=tuple(clusters)))

    def test_all_clusters_found_and_corrected_within_three_percent(self):
        clusters = sim.make_bunch_clusters(self.CHANNELS, self.LOCATIONS)
        assert max(c.length for c in clusters) == 15
        dirty = self._flat(clusters, seed=5)
        clean = self._flat((), seed=5)
        found = ano.detect_bunch_pixels(dirty)
        injected = {(c.band, s) for c in clusters
                    for s in range(c.start_sample, c.start_sample + c.length)}
        flagged = {(c.band, s) for c in found
                   for s in range(c.start_sample, c.start_sample + c.length)}
        assert flagged >= injected
        fixed, valid = ano.correct_bunch_pixels(dirty, found)
        assert valid.all()
        err = [fixed.data[:, s, b] - clean.data[:, s, b]
               for b, s in injected]
        ref = [clean.data[:, s, b] for b, s in injected]
        assert np.sqrt(np.mean(np.square(err))) / np.mean(ref) < 0.03

    def test_zero_false_positives_over_twenty_clean_seeds(self):
        for seed in range(20):
            assert ano.detect_bunch_pixels(self._flat((), seed)) == []


class TestCriterion08Interference:
    def test_periodic_ten_fold_banding_five_fold_clean_untouched(self):
        vnir = quiet_sensor("vnir", samples=256, bands=60,
                            read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", 256, 256, level=60.0)
        comp = sim.InterferenceComponent(0.23, 8.0)
        dirty, _ = sim.render_raw(scene, vnir,
                                  sim.ArtifactConfig(interference=(comp,)),
                                  seed=0)
        fixed = ano.remove_interference(dirty,
                                        ano.detect_interference(dirty))
        assert amplitude_at(dirty, 0.23) > 10.0 * amplitude_at(fixed, 0.23)

        swir = quiet_sensor("swir", samples=64, bands=256, read_noise_dn=2.0)
        band_scene = sim.synth_scene("uniform", 256, 64, level=60.0)
        banding = sim.InterferenceComponent(2.0 / 256, 10.0, kind="banding")
        banded, _ = sim.render_raw(
            band_scene, swir, sim.ArtifactConfig(interference=(banding,)),
            seed=1)
        cleaned = ano.remove_interference(banded, [])
        prof = lambda c: c.data.astype(float).mean(axis=(1, 2))
        rms = lambda p: np.sqrt(np.mean((p - p.mean()) ** 2))
        assert rms(prof(banded)) > 5.0 * rms(prof(cleaned))

        clean, _ = sim.render_raw(scene, vnir, sim.ArtifactConfig(), seed=2)
        untouched = ano.remove_interference(clean,
                                            ano.detect_interference(clean))
        change = np.sqrt(np.mean(
            (untouched.data.astype(float) - clean.data.astype(float)) ** 2))
        assert change < 0.001 * clean.data.mean()


class TestCriterion09StrayLight:
    SPEC = sim.StrayLightSpec(tail_scale_px=2.2)

    def test_extent_direction_and_dip_contrast(self):
        sensor = quiet_sensor("vnir", samples=256, bands=1)
        steering = sim.linear_steering(256)
        points = sim.point_source_grid(sensor, self.SPEC, steering, 70)
        model = ano.estimate_stray_psf(points, steering)
        theta = float(steering[32])
        const = np.full(256, theta)

        # smear extent on a fresh point source: 15 px before, <= 2.5 after
        cube = stray_point_render(sensor, self.SPEC, const)
        assert point_extent(cube) >= 15
        assert point_extent(ano.correct_stray(cube, model, const)) <= 2.5

        # steering-dependent tail direction flip
        assert model.centroid(float(steering[32]), 0.5) > 0.1
        assert model.centroid(float(steering[224]), 0.5) < -0.1

        # vegetation-like absorption dip contrast restored within 5%
        spectral_sensor = quiet_sensor("vnir", samples=64, bands=60)
        scene2 = two_material_scene()

        def contrast(c):
            return dip_contrast(c, scene2)

        pristine, _ = sim.render_raw(scene2, spectral_sensor,
                                     sim.ArtifactConfig(noise=False),
                                     steering_deg=const)
        strayed, _ = sim.render_raw(
            scene2, spectral_sensor,
            sim.ArtifactConfig(stray=self.SPEC, noise=False),
            steering_deg=const)
        restored = ano.correct_stray(strayed, model, const)
        assert abs(contrast(restored) - contrast(pristine)) \
            <= 0.05 * contrast(pristine)


class TestCriterion10Boresight:
    TRUE = geo.BoresightBias(np.arctan2(3500.0, geo.DEFAULT_ALTITUDE_M),
                             np.arctan2(2000.0, geo.DEFAULT_ALTITUDE_M),
                             0.0)

    def test_kilometer_bias_recovered(self):
        start = time.monotonic()
        noiseless = boresight_strips(self.TRUE, n_strips=8, n_gcps=25)
        fit = geo.optimize_boresight(noiseless)
        for gm, gcps in noiseless:
            res = geo.residuals(gm.with_bias(fit), gcps)
            assert np.abs(res.mean(axis=0)).max() < 5.0

        noisy = boresight_strips(self.TRUE, n_strips=8, n_gcps=25,
                                 noise=60.0, seed=2)
        fit = geo.optimize_boresight(noisy)
        for gm, gcps in noisy:
            res = geo.residuals(gm.with_bias(fit), gcps)
            assert res[:, 0].std() <= 100.0
            assert res[:, 1].std() <= 200.0
        assert time.monotonic() - start < 300.0


class TestCriterion11Orthorectification:
    def test_forward_inverse_closure_below_a_third_pixel(self):
        gm = geo.make_geo(256, 256, roll=np.deg2rad(0.1),
                          pitch=np.deg2rad(-0.05))
        cube = coordinate_cube(256, 256)
        grid = geo.footprint_grid(gm, 4, 30.0)
        ortho, valid, _ = geo.orthorectify(cube, gm, 0.0, grid)
        north, east = grid.centers()
        e2, n2 = geo.geolocate(gm,
                               np.clip(ortho.data[:, :, 0] - 10.0, 0, 255),
                               np.clip(ortho.data[:, :, 1] - 10.0, 0, 255),
                               0.0)
        closure = np.hypot(e2 - east, n2 - north)[valid] / grid.cell_m
        assert closure.max() < 0.3


class TestCriterion12Bundling:
    def test_point_eight_pixel_offset_corrected(self):
        from hypercal.cube import BandMeta
        tex = smooth_texture(256, 256, seed=12)
        fy = np.fft.fftfreq(256)[:, None]
        fx = np.fft.fftfreq(256)[None, :]
        moved = np.fft.ifft2(np.fft.fft2(tex) * np.exp(
            -2j * np.pi * (fy + fx) * 0.8 / np.sqrt(2))).real
        vnir = SpectralCube(
            np.repeat(tex[:, :, None], 60, axis=2), "radiance",
            tuple(BandMeta(c, 9.24, "vnir")
                  for c in sim.default_centers("vnir", 60)))
        swir = SpectralCube(
            np.repeat(moved[:, :, None], 256, axis=2), "radiance",
            tuple(BandMeta(c, 5.87, "swir")
                  for c in sim.default_centers("swir", 256)))
        merged, residual = geo.bundle(vnir, swir.band_meta,
                                      lambda sl: swir.data[:, :, sl])
        assert residual < 0.25
        centers = merged.centers_nm
        assert merged.bands == 309
        assert np.all(np.diff(centers) > 0)
        assert centers[0] == pytest.approx(400.0, abs=5.0)
        assert centers[-1] == pytest.approx(2500.0, abs=5.0)


class TestCriterion13Properties:
    def test_cube_io_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i, (kind, interleave) in enumerate(
                [("dn12", "bsq"), ("dn12", "bil"),
                 ("radiance", "bsq"), ("radiance", "bil")]):
            if kind == "dn12":
                data = rng.integers(0, 4096, (7, 5, 3))
            else:
                data = rng.normal(50.0, 10.0, (7, 5, 3))
            cube = SpectralCube(data, kind, uniform_band_meta(3, "vnir"),
                                interleave)
            write_cube(cube, tmp_path / f"c{i}.img")
            back = read_cube(tmp_path / f"c{i}.img")
            assert np.array_equal(back.data, cube.data)
            assert back.band_meta == cube.band_meta

    def test_registration_two_hundred_random_shifts(self):
        from scipy.ndimage import gaussian_filter1d
        rng = np.random.default_rng(1)
        sig = gaussian_filter1d(rng.normal(0.0, 1.0, 256), 2.0) * 10 + 50
        f = np.fft.rfft(sig)
        k = np.fft.rfftfreq(256)
        worst = 0.0
        for _ in range(200):
            delta = rng.uniform(-3.0, 3.0)
            moved = np.fft.irfft(f * np.exp(-2j * np.pi * k * delta), n=256)
            worst = max(worst, abs(shift_1d(sig, moved).shift - delta))
        assert worst < 0.05

    def test_pipeline_double_run_byte_identical(self, tmp_path):
        stages = [
            {"name": "simulate", "scene": "library-bars", "lines": 128,
             "samples": 256, "bands": 16, "prnu_spread": 0.02,
             "interference": [{"frequency": 0.125, "amplitude_dn": 8.0}],
             "bunch": True},
            {"name": "caldark", "lines": 200},
            {"name": "flat-field", "frames": 100},
            {"name": "bunch"},
            {"name": "interference"},
            {"name": "report", "preview_bands": [8]},
        ]
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = validate_config({"stages": stages, "seed": 3,
                                   "out": str(out)})
            run(cfg)
            outputs.append(out)
        a, b = outputs
        for name in ("raw.img", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # the json summary embeds output paths; metrics must still match
        ja = json.loads((a / "summary.json").read_text())
        jb = json.loads((b / "summary.json").read_text())
        assert ja["metrics"] == jb["metrics"]

    def test_anomaly_corrections_conserve_flux(self):
        sensor = quiet_sensor("vnir", samples=128, bands=8,
                              read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", 256, 128, level=60.0)
        comp = sim.InterferenceComponent(0.23, 8.0)
        clusters = sim.make_bunch_clusters((2, 5), (30, 90))
        spec = sim.StrayLightSpec(tail_scale_px=2.2)
        steering = sim.linear_steering(256)
        cube, _ = sim.render_raw(
            scene, sensor,
            sim.ArtifactConfig(interference=(comp,), stray=spec),
            seed=4, steering_deg=steering)

        def drift(fixed, reference=cube):
            return abs(fixed.data.mean() - reference.data.mean()) \
                / reference.data.mean()

        assert drift(ano.remove_interference(
            cube, ano.detect_interference(cube))) < 0.005
        model_sensor = quiet_sensor("vnir", samples=256, bands=1)
        points = sim.point_source_grid(model_sensor, spec, steering, 70)
        model = ano.estimate_stray_psf(points, steering)
        assert drift(ano.correct_stray(cube, model, steering)) < 0.005

        # bunch repair restores the pristine flux (the excess is artificial)
        bunched, _ = sim.render_raw(
            scene, sensor, sim.ArtifactConfig(bunch=clusters), seed=4)
        pristine, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(),
                                     seed=4)
        fixed, _ = ano.correct_bunch_pixels(
            bunched, ano.detect_bunch_pixels(bunched))
        assert drift(fixed, pristine) < 0.005
