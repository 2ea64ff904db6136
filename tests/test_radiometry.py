"""Radiometric calibration: flat-field fit and in-orbit update, dark
models, SNR, and vicarious gain refinement."""

import numpy as np
import pytest

from hypercal import radiometry as rad
from hypercal import simulate as sim
from hypercal.errors import CubeFormatError, EstimationError

from conftest import line_mean, quiet_sensor, traced_peak

SPHERE_LEVELS = (0.5, 2.0, 60.0, 90.0)


def _sphere_sensor(prnu_spread=0.02, **kw):
    return quiet_sensor("vnir", samples=128, bands=16,
                        prnu_spread=prnu_spread, read_noise_dn=2.0, **kw)


def _fit_table(sensor, levels=SPHERE_LEVELS, frames=200, seed=0):
    pairs = [(lv, line_mean(
        sim.render_sphere(sensor, lv, frames, seed=seed + i)))
        for i, lv in enumerate(levels)]
    return rad.fit_flatfield(pairs)


class TestFlatFieldFit:
    def test_four_level_fit_recovers_per_pixel_gains(self):
        sensor = _sphere_sensor()
        table = _fit_table(sensor)
        true_gain = 1.0 / (sensor.gain_dn_per_radiance * sensor.prnu)
        rel = np.abs(table.gain - true_gain) / true_gain
        assert rel.max() < 1e-3
        assert np.abs(table.offset - sensor.dark_dn).max() < 0.5

    def test_corrected_sphere_nonuniformity_below_one_percent(self):
        sensor = _sphere_sensor()
        table = _fit_table(sensor)
        dark = rad.DarkModel.constant(sensor.dark_dn)
        check = sim.render_sphere(sensor, 45.0, 100, seed=33)
        raw_nu = max(rad.nonuniformity(check.data[:, :, b])
                     for b in range(check.bands))
        assert raw_nu > 1.0
        corrected, valid, _ = rad.apply_flatfield(check, table, dark)
        for b in range(corrected.bands):
            assert rad.nonuniformity(corrected.data[:, :, b]) < 1.0
        assert valid.all()

    def test_masked_channel_gets_nan_gain_and_invalid_output(self):
        sensor = _sphere_sensor(masked_channels=(3,))
        pairs = [(lv, line_mean(
            sim.render_sphere(sensor, lv, 20, seed=i, noise=False)))
            for i, lv in enumerate(SPHERE_LEVELS)]
        table = rad.fit_flatfield(pairs)
        assert np.isnan(table.gain[3]).all()
        assert np.isfinite(table.gain[4]).all()
        dark = rad.DarkModel.constant(sensor.dark_dn)
        cube = sim.render_sphere(sensor, 45.0, 20, seed=1)
        out, valid, _ = rad.apply_flatfield(cube, table, dark)
        assert not valid[:, :, 3].any()
        assert np.all(out.data[:, :, 3] == 0.0)

    def test_poor_linearity_flagged_via_r_squared(self):
        sensor = _sphere_sensor()
        cubes = [sim.render_sphere(sensor, lv, 50, seed=i)
                 for i, lv in enumerate(SPHERE_LEVELS)]
        bad = cubes[2].data.copy()
        bad[:, 5, 2] = 4000  # one pixel saturates mid-range
        cubes[2] = cubes[2].with_data(bad)
        table = rad.fit_flatfield([(lv, line_mean(c))
                                   for lv, c in zip(SPHERE_LEVELS, cubes)])
        assert table.flagged[2, 5]
        assert not table.flagged[2, 6]

    def test_too_few_or_degenerate_levels_rejected(self):
        sensor = _sphere_sensor()
        c = line_mean(sim.render_sphere(sensor, 10.0, 10))
        with pytest.raises(EstimationError):
            rad.fit_flatfield([(10.0, c), (20.0, c)])
        with pytest.raises(EstimationError):
            rad.fit_flatfield([(10.0, c), (10.0, c), (10.0, c)])

    def test_negative_radiance_clamped_and_counted(self):
        sensor = _sphere_sensor()
        table = _fit_table(sensor)
        dark = rad.DarkModel.constant(sensor.dark_dn)
        cube = sim.render_sphere(sensor, 0.0, 50, seed=2)
        out, _, clamped = rad.apply_flatfield(cube, table, dark)
        assert clamped > 0
        assert out.data.min() >= 0.0

    def test_apply_in_place_same_bits_and_one_cube(self):
        # the out-of-place form it replaced, on a cube with a masked
        # channel (NaN gain) and clamped negative radiances
        sensor = _sphere_sensor(masked_channels=(3,))
        pairs = [(lv, line_mean(
            sim.render_sphere(sensor, lv, 20, seed=i, noise=False)))
            for i, lv in enumerate(SPHERE_LEVELS)]
        table = rad.fit_flatfield(pairs)
        dark = rad.DarkModel.constant(sensor.dark_dn)
        cube = sim.render_sphere(sensor, 0.0, 256, seed=2)
        g = table.gain.T[None]
        ref = g * (cube.data.astype(np.float64) - dark.at(dark.t_ref_k).T[None])
        ref_valid = np.broadcast_to(np.isfinite(g), ref.shape)
        ref = np.where(ref_valid, ref, 0.0)
        ref_clamped = int(np.count_nonzero(ref < 0))
        out, valid, clamped = rad.apply_flatfield(cube, table, dark)
        assert ref_clamped > 0 and clamped == ref_clamped
        assert np.array_equal(valid, ref_valid)
        assert not valid.flags.writeable
        assert np.array_equal(out.data, np.clip(ref, 0.0, None))
        peak = traced_peak(lambda: rad.apply_flatfield(cube, table, dark))
        assert peak < 1.5 * ref.nbytes

    def test_sample_blocks_same_bits_as_whole_conversion(self):
        sensor = _sphere_sensor(masked_channels=(3,))
        table = _fit_table(sensor, frames=20)
        dark = rad.DarkModel.constant(sensor.dark_dn)
        dn = sim.render_sphere(sensor, 0.2, 30, seed=4).data
        whole, clamped = rad.radiance(dn, table, dark)
        blocks = [rad.radiance(dn, table, dark, samples=slice(s0, s0 + 50))
                  for s0 in range(0, dn.shape[1], 50)]
        assert np.array_equal(np.concatenate([b for b, _ in blocks], axis=1),
                              whole)
        assert clamped > 0 and sum(c for _, c in blocks) == clamped

    def test_clamp_count_makes_no_whole_block_mask(self):
        # a bool mask of the whole converted block would be an eighth of it
        rng = np.random.default_rng(6)
        dn = rng.integers(0, 200, (64, 64, 60)).astype(np.uint16)
        table = rad.FlatFieldTable(np.full((60, 64), 0.5),
                                   np.zeros((60, 64)), np.ones((60, 64)))
        dark = rad.DarkModel.constant(np.full((60, 64), 100.0))
        out, clamped = rad.radiance(dn, table, dark)
        assert clamped == np.count_nonzero(dn < 100)
        peak = traced_peak(lambda: rad.radiance(dn, table, dark))
        assert peak < out.nbytes * 17 / 16

    def test_table_round_trip(self, tmp_path):
        table = _fit_table(_sphere_sensor())
        table.save(tmp_path / "ff.npz")
        back = rad.FlatFieldTable.load(tmp_path / "ff.npz")
        assert np.allclose(back.gain, table.gain, equal_nan=True)
        assert np.allclose(back.offset, table.offset)
        assert back.provenance == table.provenance


class TestInOrbitUpdate:
    def test_eight_percent_drift_reduced_below_two(self):
        sensor = _sphere_sensor()
        table = _fit_table(sensor)
        # response drift after launch: extra 8%-spread per-pixel pattern
        drift = sim.random_prnu(16, 128, 0.08, seed=99)
        drifted = quiet_sensor(
            "vnir", samples=128, bands=16, read_noise_dn=2.0,
            prnu=sensor.prnu * drift)
        dark = rad.DarkModel.constant(sensor.dark_dn)
        scene = sim.render_sphere(drifted, 60.0, 100, seed=40)
        stale, _, _ = rad.apply_flatfield(scene, table, dark)
        nu_before = max(rad.nonuniformity(stale.data[:, :, b])
                        for b in range(stale.bands))
        assert nu_before > 2.0
        scenes = [rad.apply_flatfield(
            sim.render_sphere(drifted, lv, 100, seed=50 + i), table, dark)[0]
            for i, lv in enumerate((40.0, 60.0, 80.0))]
        updated = rad.update_flatfield_inorbit(scenes, table)
        fixed, _, _ = rad.apply_flatfield(scene, updated, dark)
        for b in range(fixed.bands):
            assert rad.nonuniformity(fixed.data[:, :, b]) <= 2.0
        assert updated.provenance == "in-orbit-update"

    def test_empty_scene_list_rejected(self):
        table = _fit_table(_sphere_sensor())
        with pytest.raises(EstimationError):
            rad.update_flatfield_inorbit([], table)


class TestDarkModels:
    def test_vnir_masked_channel_median_tracks_dark(self):
        sensor = quiet_sensor("vnir", samples=64, bands=16, dark_dn=72.0,
                              read_noise_dn=2.0, masked_channels=(0, 15))
        scene = sim.synth_scene("uniform", 400, 64, level=80.0)
        cube, _ = sim.render_raw(scene, sensor, sim.ArtifactConfig(), seed=3)
        est = rad.dark_bias_vnir(cube, (0, 15))
        assert np.abs(est - 72.0).max() < 1.0

    def test_vnir_requires_masked_channels(self):
        sensor = quiet_sensor("vnir", samples=16, bands=4)
        cube = sim.render_dark(sensor, 8, 293.0)
        with pytest.raises(EstimationError):
            rad.dark_bias_vnir(cube, ())
        with pytest.raises(EstimationError):
            rad.dark_bias_vnir(cube, (9,))

    def test_swir_temperature_fit_recovers_slope(self):
        slope = 0.8
        sensor = quiet_sensor("swir", samples=32, bands=8, dark_dn=90.0,
                              dark_temp_slope=slope, read_noise_dn=2.0)
        darks = [(t, line_mean(
            sim.render_dark(sensor, 400, t, seed=int(t))))
            for t in (278.0, 288.0, 298.0, 308.0)]
        model = rad.fit_dark_swir(darks)
        assert np.abs(model.slope_dn_per_k - slope).max() < 0.05
        assert np.abs(model.dark_dn - 90.0).max() < 0.5
        # evaluation at a held-out temperature
        assert np.abs(model.at(303.0) - (90.0 + slope * 10.0)).max() < 0.5

    def test_degenerate_temperatures_rejected(self):
        sensor = quiet_sensor("swir", samples=8, bands=4)
        d = line_mean(sim.render_dark(sensor, 10, 293.0))
        with pytest.raises(EstimationError):
            rad.fit_dark_swir([(293.0, d), (293.0, d)])

    def test_model_round_trip(self, tmp_path):
        sensor = quiet_sensor("swir", samples=8, bands=4, dark_temp_slope=0.5,
                              read_noise_dn=1.0)
        darks = [(t, line_mean(
            sim.render_dark(sensor, 100, t, seed=int(t))))
            for t in (283.0, 303.0)]
        model = rad.fit_dark_swir(darks)
        model.save(tmp_path / "d.npz")
        back = rad.DarkModel.load(tmp_path / "d.npz")
        assert np.allclose(back.dark_dn, model.dark_dn)
        assert np.allclose(back.slope_dn_per_k, model.slope_dn_per_k)
        assert back.t_ref_k == model.t_ref_k

    def test_garbled_sidecar_line_rejected(self, tmp_path):
        rad.DarkModel.constant(np.full((2, 3), 64.0)).save(tmp_path / "d.npz")
        with open(tmp_path / "d.hdr", "a") as fh:
            fh.write("t_ref_k 300\n")
        with pytest.raises(CubeFormatError, match="garbled"):
            rad.DarkModel.load(tmp_path / "d.npz")

    @pytest.mark.parametrize("key", ["arrays", "shape", "t_ref_k"])
    def test_sidecar_missing_field_rejected(self, tmp_path, key):
        rad.DarkModel.constant(np.full((2, 3), 64.0)).save(tmp_path / "d.bin")
        hdr = tmp_path / "d.hdr"
        kept = [line for line in hdr.read_text().splitlines(True)
                if not line.startswith(key)]
        hdr.write_text("".join(kept))
        with pytest.raises(CubeFormatError, match=f"'{key}'"):
            rad.DarkModel.load(tmp_path / "d.bin")

    @pytest.mark.parametrize("key", ["t_ref_k", "stability_dn"])
    def test_sidecar_non_numeric_field_rejected(self, tmp_path, key):
        rad.DarkModel.constant(np.full((2, 3), 64.0)).save(tmp_path / "d.bin")
        hdr = tmp_path / "d.hdr"
        lines = [f"{key} = warm\n" if line.startswith(key) else line
                 for line in hdr.read_text().splitlines(True)]
        hdr.write_text("".join(lines))
        with pytest.raises(CubeFormatError, match=f"'{key}'"):
            rad.DarkModel.load(tmp_path / "d.bin")


class TestSidecarKinds:
    def _table(self):
        gain = np.full((2, 3), 0.5)
        return rad.FlatFieldTable(gain, np.zeros((2, 3)), np.ones((2, 3)))

    def test_flatfield_load_of_dark_sidecar_names_kind(self, tmp_path):
        rad.DarkModel.constant(np.full((2, 3), 64.0)).save(tmp_path / "d.bin")
        with pytest.raises(CubeFormatError, match="'kind'"):
            rad.FlatFieldTable.load(tmp_path / "d.bin")

    def test_dark_load_of_flatfield_sidecar_names_kind(self, tmp_path):
        self._table().save(tmp_path / "f.bin")
        with pytest.raises(CubeFormatError, match="'kind'"):
            rad.DarkModel.load(tmp_path / "f.bin")

    def test_arrays_field_without_gain_named(self, tmp_path):
        self._table().save(tmp_path / "f.bin")
        hdr = tmp_path / "f.hdr"
        hdr.write_text(hdr.read_text().replace("arrays = gain,",
                                               "arrays = gains,"))
        with pytest.raises(CubeFormatError, match="'arrays'.*gain"):
            rad.FlatFieldTable.load(tmp_path / "f.bin")

    @pytest.mark.parametrize("dark", [False, True])
    def test_missing_payload_named(self, tmp_path, dark):
        product = rad.DarkModel.constant(np.full((2, 3), 64.0)) if dark \
            else self._table()
        product.save(tmp_path / "t.bin")
        (tmp_path / "t.bin").unlink()
        with pytest.raises(CubeFormatError, match=r"payload .*t\.bin"):
            type(product).load(tmp_path / "t.bin")

    def test_payload_holds_the_arrays_back_to_back(self, tmp_path):
        table = self._table()
        table.save(tmp_path / "f.bin")
        expected = np.stack([table.gain, table.offset, table.r_squared])
        assert (tmp_path / "f.bin").read_bytes() \
            == expected.astype("<f8").tobytes()

    def test_flatfield_round_trip_keeps_provenance(self, tmp_path):
        table = self._table()
        table = rad.FlatFieldTable(table.gain, table.offset, table.r_squared,
                                   "in-orbit-update", "t3")
        table.save(tmp_path / "f.bin")
        back = rad.FlatFieldTable.load(tmp_path / "f.bin")
        assert (back.provenance, back.epoch) == ("in-orbit-update", "t3")
        assert np.array_equal(back.gain, table.gain)
        assert np.array_equal(back.r_squared, table.r_squared)


class TestSNR:
    def test_read_noise_limited_snr_matches_oracle(self):
        noise = 5.0
        sensor = quiet_sensor("vnir", samples=64, bands=8,
                              read_noise_dn=noise)
        cube = sim.render_sphere(sensor, 80.0, 400, seed=8)
        band_snr, low = snr = rad.snr(cube)
        signal = 80.0 * 30.0 + 64.0
        # quantization adds ~1/12 DN^2 variance on top of read noise
        sigma = np.sqrt(noise ** 2 + 1.0 / 12.0)
        assert np.abs(band_snr - signal / sigma).max() < 0.1 * signal / sigma
        assert not low.any()

    def test_fully_saturated_band_rejected(self):
        sensor = quiet_sensor("vnir", samples=16, bands=4, read_noise_dn=2.0)
        cube = sim.render_sphere(sensor, 200.0, 60, seed=9)
        with pytest.raises(EstimationError):
            rad.snr(cube)

    def test_dark_frames_flag_low_signal(self):
        sensor = quiet_sensor("vnir", samples=16, bands=4, dark_dn=0.0,
                              read_noise_dn=6.0)
        cube = sim.render_sphere(sensor, 0.1, 100, seed=10)
        _, low = rad.snr(cube)
        assert low.all()

    def test_too_few_frames_rejected(self):
        sensor = quiet_sensor("vnir", samples=16, bands=4, read_noise_dn=2.0)
        cube = sim.render_sphere(sensor, 50.0, 20)
        with pytest.raises(EstimationError):
            rad.snr(cube)


class TestVicarious:
    def _spectra(self, gain_error, n_targets=6, bands=20, seed=0):
        rng = np.random.default_rng(seed)
        reference = rng.uniform(20.0, 120.0, (n_targets, bands))
        measured = reference / gain_error[None, :]
        return measured, reference

    def test_large_miscalibration_corrected_to_ten_percent(self):
        rng = np.random.default_rng(4)
        gain_error = rng.uniform(0.4, 3.0, 20)  # up to 200% deviation
        measured, reference = self._spectra(gain_error)
        res = rad.vicarious_gains(measured, reference)
        assert np.nanmax(res.pre_deviation_pct) > 10.0
        assert np.nanmax(res.deviation_pct) <= 10.0
        assert np.allclose(res.multiplier, gain_error, rtol=1e-12)
        assert not res.bad_bands.any()

    def test_incoherent_band_flagged_bad(self):
        gain_error = np.ones(8)
        measured, reference = self._spectra(gain_error, bands=8, seed=1)
        measured[:, 3] *= np.linspace(0.3, 3.0, measured.shape[0])
        res = rad.vicarious_gains(measured, reference)
        assert res.bad_bands[3]
        assert not res.bad_bands[2]

    def test_zero_reference_band_skipped(self):
        measured, reference = self._spectra(np.ones(6), bands=6, seed=2)
        reference[:, 0] = 0.0
        res = rad.vicarious_gains(measured, reference)
        assert np.isnan(res.multiplier[0])
        assert res.bad_bands[0]

    def test_shape_and_count_validation(self):
        with pytest.raises(EstimationError):
            rad.vicarious_gains(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(EstimationError):
            rad.vicarious_gains(np.ones((1, 3)), np.ones((1, 3)))
