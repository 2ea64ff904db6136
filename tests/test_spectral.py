"""Spectral characterization: RSR recovery, smile, absolute wavelength
shift, and keystone."""

import numpy as np
import pytest

from hypercal import kernels
from hypercal import simulate as sim
from hypercal import spectral
from hypercal.cube import SpectralCube, write_json
from hypercal.errors import EstimationError
from hypercal.registration import shift_1d, shift_signal

from conftest import check_in_place, quiet_sensor, render_radiance, traced_peak


# ---------------------------------------------------------------------------
# per-window loop forms of the batched smile and keystone estimators, the
# references they are checked against


def _reference_window_shift(a, b, max_shift, iters=5, tol=1e-3):
    total = 0.0
    conf = 0.0
    current = b
    for _ in range(iters):
        est = shift_1d(a, current, max_shift=max_shift)
        total += est.shift
        conf = est.confidence
        if abs(total) > max_shift:
            return float(np.clip(total, -max_shift, max_shift)), 0.0
        if abs(est.shift) < tol:
            break
        current, _ = shift_signal(b, -total)
    return total, conf


def _reference_smile_offsets(cube, window=spectral.SMILE_WINDOW):
    spectra = cube.data.astype(np.float64).mean(axis=0)
    samples, bands = spectra.shape
    stride = 2 if bands <= 64 else 8
    spacing = np.gradient(cube.centers_nm)
    center_col = samples // 2
    ref = spectra[center_col]
    starts = list(range(0, bands - window + 1, stride))
    structure = np.array([spectral._detrended_std(ref[w0:w0 + window])
                          for w0 in starts])
    usable = structure > 0.05 * structure.max()
    raw = np.full(samples, np.nan)
    for s in range(samples):
        vals, wgts = [], []
        for wi, w0 in enumerate(starts):
            if not usable[wi]:
                continue
            try:
                sh, conf = _reference_window_shift(
                    ref[w0:w0 + window], spectra[s, w0:w0 + window],
                    max_shift=window / 2.0)
            except EstimationError:
                continue
            if conf <= 0:
                continue
            vals.append(-sh * spacing[w0 + window // 2])
            wgts.append(conf * structure[wi])
        if vals:
            raw[s] = spectral._weighted_median(np.asarray(vals),
                                               np.asarray(wgts))
    good = np.isfinite(raw)
    u = np.arange(samples, dtype=np.float64) - center_col
    fits = [np.polyfit(u[good], raw[good], deg) for deg in (1, 2)]
    rms = [np.sqrt(np.mean((np.polyval(c, u[good]) - raw[good]) ** 2))
           for c in fits]
    coef = fits[1] if rms[1] <= (1.0 - spectral.QUADRATIC_GAIN) * rms[0] \
        else fits[0]
    return np.polyval(coef, u) - np.polyval(coef, 0.0)


def _reference_keystone_coefficients(cube, ref_band=spectral.KEYSTONE_REF_BAND,
                                     n_fields=5, window=64, degree=2):
    profiles = cube.data.astype(np.float64).mean(axis=0).T
    bands, samples = profiles.shape
    ref = profiles[ref_band]
    centers = np.linspace(window / 2.0, samples - window / 2.0, n_fields)
    starts = np.clip(np.round(centers - window / 2.0).astype(int), 0,
                     samples - window)
    shifts = np.zeros((bands, n_fields))
    confs = np.zeros((bands, n_fields))
    for b in range(bands):
        for f, w0 in enumerate(starts):
            try:
                est = shift_1d(ref[w0:w0 + window],
                               profiles[b, w0:w0 + window],
                               max_shift=spectral.KEYSTONE_MAX_PX + 1.0)
            except EstimationError:
                continue
            shifts[b, f] = -est.shift
            confs[b, f] = est.confidence
    b_axis = np.arange(bands, dtype=np.float64)
    return np.asarray([np.polyfit(b_axis, shifts[:, f], degree,
                                  w=confs[:, f]) for f in range(n_fields)])


class TestRSR:
    @pytest.mark.parametrize("instrument,bands", [("vnir", 12), ("swir", 12)])
    def test_sweep_recovers_center_and_width(self, instrument, bands):
        smile = np.zeros((bands, 8))
        smile[:, -1] = 1.2
        sensor = quiet_sensor(instrument, samples=8, bands=bands,
                              smile_nm=smile)
        b = bands // 2
        c0 = sensor.centers_nm[b]
        sweep = np.arange(c0 - 25.0, c0 + 25.0 + 0.5, 1.0)
        responses = np.stack([sim.render_monochromator(sensor, w)
                              for w in sweep])
        scan = spectral.rsr_from_scan(sweep, responses)
        tol = 0.1
        assert abs(scan.center_nm[b, 0] - c0) < tol
        assert abs(scan.center_nm[b, -1] - (c0 + 1.2)) < tol
        fwhm_tol = 0.2
        assert abs(scan.fwhm_nm[b, 0] - sensor.fwhm_nm[b]) < fwhm_tol

    def test_dead_pixel_flagged_not_fit(self):
        sensor = quiet_sensor("vnir", samples=8, bands=6)
        c0 = sensor.centers_nm[3]
        sweep = np.arange(c0 - 25.0, c0 + 25.0 + 0.5, 1.0)
        responses = np.stack([sim.render_monochromator(sensor, w)
                              for w in sweep])
        responses[:, 3, 2] = 0.0
        scan = spectral.rsr_from_scan(sweep, responses)
        assert not scan.responding[3, 2]
        assert scan.responding[3, 1]


class TestSmile:
    def test_vnir_quadratic_recovered_and_classified(self):
        p2p = 4.17
        sensor = quiet_sensor("vnir", samples=256, bands=60,
                              smile_nm=sim.quadratic_smile(60, 256, p2p))
        scene = sim.synth_scene("spectral-library", 64, 256, level=100.0)
        cube = render_radiance(scene, sensor)
        model = spectral.estimate_smile(cube)
        assert model.kind == "quadratic"
        assert abs(abs(model.peak_to_peak_nm) - p2p) < 0.5

    def test_swir_linear_recovered_and_classified(self):
        span = 12.0
        sensor = quiet_sensor("swir", samples=256, bands=256,
                              smile_nm=sim.linear_smile(256, 256, span))
        scene = sim.synth_scene("spectral-library", 64, 256, level=100.0)
        cube = render_radiance(scene, sensor)
        model = spectral.estimate_smile(cube)
        assert model.kind == "linear"
        assert abs(abs(model.peak_to_peak_nm) - span) < 0.8

    def test_correction_residual_below_tenth_band(self):
        sensor = quiet_sensor("vnir", samples=256, bands=60,
                              smile_nm=sim.quadratic_smile(60, 256, 4.17))
        scene = sim.synth_scene("spectral-library", 64, 256, level=100.0)
        cube = render_radiance(scene, sensor)
        model = spectral.estimate_smile(cube)
        corrected, valid = spectral.correct_smile(cube, model)
        residual = spectral.estimate_smile(corrected)
        spacing = float(np.abs(np.diff(cube.centers_nm)).mean())
        assert abs(residual.peak_to_peak_nm) < 0.1 * spacing
        assert valid.mean() > 0.9

    def test_smile_free_cube_measures_near_zero(self):
        sensor = quiet_sensor("vnir", samples=128, bands=60)
        scene = sim.synth_scene("spectral-library", 64, 128, level=100.0)
        cube = render_radiance(scene, sensor)
        model = spectral.estimate_smile(cube)
        assert abs(model.peak_to_peak_nm) < 0.3

    def test_model_round_trip(self, tmp_path):
        sensor = quiet_sensor("vnir", samples=64, bands=60,
                              smile_nm=sim.quadratic_smile(60, 64, 4.17))
        scene = sim.synth_scene("spectral-library", 48, 64, level=100.0)
        model = spectral.estimate_smile(render_radiance(scene, sensor))
        write_json(model, tmp_path / "m.json")
        back = spectral.SmileModel.from_json(tmp_path / "m.json")
        assert np.allclose(back.offsets_nm, model.offsets_nm)
        assert back.kind == model.kind
        assert np.array_equal(back.coefficients, model.coefficients)

    def _reference_fixture(self):
        sensor = quiet_sensor("vnir", samples=64, bands=60,
                              smile_nm=sim.quadratic_smile(60, 64, 4.17))
        scene = sim.synth_scene("spectral-library", 48, 64, level=100.0)
        return render_radiance(scene, sensor)

    def test_matches_window_loop(self):
        cube = self._reference_fixture()
        model = spectral.estimate_smile(cube)
        assert np.allclose(model.offsets_nm, _reference_smile_offsets(cube),
                           rtol=0, atol=1e-9)

    def test_matches_window_loop_with_unusable_columns(self):
        # NaN and constant columns have no valid window and are dropped
        cube = self._reference_fixture()
        data = cube.data.copy()
        data[:, 5, :] = np.nan
        data[:, 40, :] = 3.0
        cube = cube.with_data(data)
        model = spectral.estimate_smile(cube)
        assert np.allclose(model.offsets_nm, _reference_smile_offsets(cube),
                           rtol=0, atol=1e-9)

    def test_featureless_reference_rejected(self):
        cube = self._reference_fixture()
        cube = cube.with_data(np.full(cube.data.shape, 50.0))
        with pytest.raises(EstimationError, match="featureless"):
            spectral.estimate_smile(cube)

    def test_too_few_usable_columns_rejected(self):
        # only the center column keeps its spectrum
        cube = self._reference_fixture()
        center = cube.samples // 2
        data = cube.data.copy()
        data[:, :center, :] = 3.0
        data[:, center + 1:, :] = 3.0
        with pytest.raises(EstimationError, match="too few columns"):
            spectral.estimate_smile(cube.with_data(data))


class TestAbsoluteShift:
    @pytest.mark.parametrize("instrument,shift,tol",
                             [("vnir", 5.5, 0.5), ("swir", 9.0, 0.8)])
    def test_injected_shift_recovered_from_dips(self, instrument, shift, tol):
        sensor = quiet_sensor(instrument, samples=64,
                              center_error_nm=shift)
        scene = sim.synth_scene("spectral-library", 16, 64, level=100.0)
        cube = render_radiance(scene, sensor)
        spectrum = cube.data.mean(axis=(0, 1))
        delta, per_line = spectral.absolute_shift(spectrum, cube.centers_nm)
        assert abs(delta - shift) < tol
        assert len(per_line) >= 2

    def test_scale_invariance(self):
        sensor = quiet_sensor("vnir", samples=64, center_error_nm=5.5)
        scene = sim.synth_scene("spectral-library", 16, 64, level=100.0)
        cube = render_radiance(scene, sensor)
        spectrum = cube.data.mean(axis=(0, 1))
        base, _ = spectral.absolute_shift(spectrum, cube.centers_nm)
        for k in (0.01, 3.7, 1000.0):
            scaled, _ = spectral.absolute_shift(k * spectrum,
                                                cube.centers_nm)
            assert abs(scaled - base) < 0.1

    def test_featureless_spectrum_rejected(self):
        sensor = quiet_sensor("vnir", samples=64)
        centers = sensor.centers_nm
        with pytest.raises(EstimationError):
            spectral.absolute_shift(np.full(centers.size, 50.0), centers)

    def test_non_positive_radiance_rejected(self):
        centers = quiet_sensor("vnir", samples=64).centers_nm
        spectrum = np.full(centers.size, 50.0)
        spectrum[10] = 0.0
        with pytest.raises(EstimationError, match="non-positive"):
            spectral.absolute_shift(spectrum, centers)


class TestKeystone:
    def _bar_cube(self, keystone_max=1.5, read_noise=0.0, stray=None,
                  seed=5, period=8):
        sensor = quiet_sensor(
            "vnir", samples=256, bands=60,
            keystone_px=sim.linear_keystone(60, 256, keystone_max),
            read_noise_dn=read_noise)
        scene = sim.synth_scene("bar-target", 256, 256, period=period,
                                contrast=0.2)
        art = sim.ArtifactConfig(stray=stray, noise=read_noise > 0)
        steering = sim.linear_steering(256) if stray is not None else None
        return render_radiance(scene, sensor, seed=seed, artifacts=art,
                               steering=steering), sensor

    def test_estimation_reads_the_cube_in_place(self):
        sensor = quiet_sensor("vnir", samples=256, bands=60)
        scene = sim.synth_scene("bar-target", 64, 256, period=8,
                                contrast=0.2)
        cube = render_radiance(scene, sensor)
        peak = traced_peak(lambda: spectral.estimate_keystone(cube))
        assert peak < 1.0 * cube.data.nbytes

    def test_injected_keystone_recovered(self):
        cube, sensor = self._bar_cube(1.5)
        model = spectral.estimate_keystone(cube)
        err = np.abs(model.shifts() - sensor.keystone_px)
        assert err.max() < 0.1

    def test_correction_residual_below_tenth_pixel(self):
        cube, _ = self._bar_cube(1.5)
        model = spectral.estimate_keystone(cube)
        corrected, valid = spectral.correct_keystone(cube, model)
        residual = spectral.estimate_keystone(corrected)
        assert np.abs(residual.shifts()).max() < 0.1
        # the reference band is never resampled
        assert np.array_equal(corrected.data[:, :, model.ref_band],
                              cube.data[:, :, model.ref_band])

    def test_stray_contaminated_estimation_refuses(self):
        stray = sim.StrayLightSpec(cross_track_sigma_px=5.0)
        cube, _ = self._bar_cube(1.5, read_noise=6.0, stray=stray)
        with pytest.raises(EstimationError):
            spectral.estimate_keystone(cube)

    def test_clean_noisy_cube_not_refused(self):
        cube, sensor = self._bar_cube(1.5, read_noise=6.0)
        model = spectral.estimate_keystone(cube)
        err = np.abs(model.shifts() - sensor.keystone_px)
        assert err.max() < 0.15

    def _masked_cube(self, masked):
        """A bar-target render whose ``masked`` channels see no light, so
        their profiles are flat and correlate with nothing."""
        sensor = quiet_sensor(
            "vnir", samples=256, bands=60,
            keystone_px=sim.linear_keystone(60, 256, 1.5),
            masked_channels=masked)
        scene = sim.synth_scene("bar-target", 64, 256, period=8,
                                contrast=0.2)
        return render_radiance(scene, sensor)

    def test_mostly_dark_channels_refused_on_mean_confidence(self):
        masked = [b for b in range(60) if b != spectral.KEYSTONE_REF_BAND]
        with pytest.raises(EstimationError,
                           match="mean correlation confidence"):
            spectral.estimate_keystone(self._masked_cube(masked))

    def test_many_dark_channels_refused_on_low_confidence_share(self):
        # 24 of 60 channels: the mean confidence passes, the share does not
        with pytest.raises(EstimationError, match="40% of correlation"):
            spectral.estimate_keystone(self._masked_cube(range(24)))

    def test_low_contrast_input_rejected(self):
        sensor = quiet_sensor("vnir", samples=256, bands=60)
        scene = sim.synth_scene("uniform", 128, 256, level=100.0)
        cube = render_radiance(scene, sensor)
        with pytest.raises(EstimationError):
            spectral.estimate_keystone(cube)

    @pytest.mark.parametrize("bands", [1, 2])
    def test_too_few_bands_for_the_fit_refused(self, bands):
        # the shift-vs-band polynomial has KEYSTONE_DEGREE + 1 terms
        sensor = quiet_sensor("vnir", samples=64, bands=bands)
        scene = sim.synth_scene("bar-target", 16, 64, period=8, contrast=0.2)
        with pytest.raises(EstimationError, match="needs more than 2 bands"):
            spectral.estimate_keystone(render_radiance(scene, sensor),
                                       ref_band=0)

    def test_more_field_positions_than_samples_refused(self):
        sensor = quiet_sensor("vnir", samples=32, bands=8)
        scene = sim.synth_scene("bar-target", 16, 32, period=8, contrast=0.2)
        with pytest.raises(EstimationError, match=r"n_fields must be in "
                                                  r"\[1, 32\].*not 33"):
            spectral.estimate_keystone(render_radiance(scene, sensor),
                                       ref_band=4, n_fields=33)

    def test_model_round_trip(self, tmp_path):
        cube, _ = self._bar_cube(1.0)
        model = spectral.estimate_keystone(cube)
        write_json(model, tmp_path / "k.json")
        back = spectral.KeystoneModel.from_json(tmp_path / "k.json")
        assert np.allclose(back.shifts(), model.shifts())

    @pytest.mark.parametrize("read_noise", [0.0, 6.0])
    def test_matches_window_loop(self, read_noise):
        cube, _ = self._bar_cube(1.5, read_noise=read_noise)
        model = spectral.estimate_keystone(cube)
        assert np.allclose(model.coefficients,
                           _reference_keystone_coefficients(cube),
                           rtol=0, atol=1e-9)

    def test_matches_window_loop_with_featureless_band(self):
        cube, _ = self._bar_cube(1.5)
        data = cube.data.copy()
        data[:, :, 7] = 5.0         # constant profile: no valid window
        cube = cube.with_data(data)
        model = spectral.estimate_keystone(cube)
        assert np.allclose(model.coefficients,
                           _reference_keystone_coefficients(cube),
                           rtol=0, atol=1e-9)


class TestCorrectionSlices:
    """Smile and keystone correction run their rows through
    :func:`kernels.band_map`; the worker count and the split leave every
    byte as one task writes it."""

    def _case(self):
        rng = np.random.default_rng(40)
        lines, samples, bands = 9, 24, 30
        cube = SpectralCube(rng.normal(100.0, 20.0, (lines, samples, bands)),
                            "radiance", sim.make_sensor(
                                "vnir", samples=samples,
                                bands=bands).band_meta())
        u = np.arange(samples) - samples // 2
        smile = spectral.SmileModel("vnir", 0.02 * u * u - 0.3 * u,
                                    "quadratic", (0.02, -0.3, 0.0), 0.0, 0.0)
        key = spectral.KeystoneModel(
            3, np.array([4.0, 12.0, 20.0]),
            np.array([[0.01, -0.2], [0.0, 0.05], [-0.01, 0.3]]),
            samples, bands)
        return cube, smile, key

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_does_not_change_bytes(self, workers, monkeypatch):
        cube, smile, key = self._case()
        smiled, smile_valid = spectral.correct_smile(cube, smile)
        keyed, key_valid = spectral.correct_keystone(cube, key)
        # two lines per task: five tasks at any worker count
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES",
                            8 * cube.samples * cube.bands * 2 * workers)
        got, valid = spectral.correct_smile(cube, smile)
        assert np.array_equal(got.data, smiled.data)
        assert np.array_equal(valid, smile_valid)
        assert valid.shape == cube.data.shape and not valid.flags.writeable
        got, valid = spectral.correct_keystone(cube, key)
        assert np.array_equal(got.data, keyed.data)
        assert np.array_equal(valid, key_valid)
        assert valid.shape == cube.data.shape and not valid.flags.writeable
        assert not smile_valid.all() and smile_valid.any()
        assert not key_valid.all() and key_valid.any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_place_same_bits(self, workers, monkeypatch):
        # two lines per task; each correction on a fresh copy, since the
        # in-place call overwrites its input
        monkeypatch.setattr(kernels, "WORKERS", workers)
        cube, smile, key = self._case()
        monkeypatch.setattr(kernels, "_CHUNK_BYTES",
                            8 * cube.samples * cube.bands * 2 * workers)
        data = cube.data.copy()
        data[:, :, 0] = -0.0
        for correct, model in ((spectral.correct_smile, smile),
                               (spectral.correct_keystone, key)):
            check_in_place(correct, cube.with_data(data.copy()), model)
