"""Operational artifact handling: bunch pixels, scan interference, and
along-track stray-light deconvolution."""

import warnings

import numpy as np
import pytest

from hypercal import anomalies as ano
from hypercal import kernels, radiometry
from hypercal import simulate as sim
from hypercal.cube import SpectralCube, write_json
from hypercal.errors import EstimationError

from conftest import (amplitude_at, check_in_place, dip_contrast,
                      point_extent, quiet_sensor, render_radiance, same_bits,
                      stray_point_render, traced_peak, two_material_scene,
                      uniform_band_meta)


def _float64_cube():
    """Random 256x128x60 radiance cube, for allocation checks."""
    rng = np.random.default_rng(0)
    return SpectralCube(rng.normal(100.0, 5.0, (256, 128, 60)), "radiance",
                        uniform_band_meta(60, "vnir"))


def _flagged_columns(clusters):
    return {(c.band, s) for c in clusters
            for s in range(c.start_sample, c.start_sample + c.length)}


class TestBunchPixels:
    def _acquire(self, clusters=(), seed=0, level=60.0, lines=256):
        sensor = quiet_sensor("vnir", samples=256, bands=16,
                              prnu_spread=0.02, read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", lines, 256, level=level)
        cube = render_radiance(scene, sensor, seed,
                               sim.ArtifactConfig(bunch=tuple(clusters)))
        return cube, sensor

    def test_all_injected_runs_detected(self):
        clusters = sim.make_bunch_clusters((2, 7, 12), (40, 120, 200))
        cube, _ = self._acquire(clusters)
        found = ano.detect_bunch_pixels(cube)
        assert _flagged_columns(found) >= _flagged_columns(clusters)

    def test_no_false_positives_over_twenty_seeds(self):
        for seed in range(20):
            cube, _ = self._acquire(seed=seed, lines=128)
            assert ano.detect_bunch_pixels(cube) == []

    def test_correction_rms_below_three_percent(self):
        clusters = sim.make_bunch_clusters((2, 7, 12), (40, 120, 200))
        dirty, _ = self._acquire(clusters, seed=5)
        clean, _ = self._acquire((), seed=5)
        found = ano.detect_bunch_pixels(dirty)
        fixed, valid = ano.correct_bunch_pixels(dirty, found)
        assert valid.all()
        cols = _flagged_columns(clusters)
        err, ref = [], []
        for b, s in cols:
            err.append(fixed.data[:, s, b] - clean.data[:, s, b])
            ref.append(clean.data[:, s, b])
        rms = np.sqrt(np.mean(np.square(err)))
        assert rms / np.mean(ref) < 0.03

    def test_column_corrupted_in_every_band_marked_invalid(self):
        bands = 16
        clusters = tuple(sim.BunchCluster(b, 100, 1, (1.6,))
                         for b in range(bands))
        dirty, _ = self._acquire(clusters, seed=6)
        fixed, valid = ano.correct_bunch_pixels(dirty, clusters)
        assert not valid[:, 100, :].any()
        assert valid[:, 99, :].all()

    def test_empty_cluster_list_is_identity(self):
        cube, _ = self._acquire(seed=7, lines=64)
        fixed, valid = ano.correct_bunch_pixels(cube, [])
        assert fixed is cube
        assert valid.all()


def _reference_correct_bunch(cube, clusters):
    """The walk to each column's clean neighbours and the per-candidate
    ``np.corrcoef`` loop the array version replaced, writing into a copy."""
    data = cube.data.astype(np.float64)
    lines, samples, bands = data.shape
    valid = np.ones(data.shape, dtype=bool)
    corrupted = np.zeros((bands, samples), dtype=bool)
    for c in clusters:
        corrupted[c.band, c.start_sample:c.start_sample + c.length] = True
    out = data.copy()
    for c in clusters:
        for p in range(c.start_sample, c.start_sample + c.length):
            neigh = []
            for step in (-1, 1):
                q, found = p + step, 0
                while 0 <= q < samples and found < 5 and abs(q - p) <= 40:
                    if not corrupted[c.band, q]:
                        neigh.append(q)
                        found += 1
                    q += step
            cand = ~corrupted[:, p] & ~corrupted[:, neigh].any(axis=1)
            cand[c.band] = False
            x = data[:, neigh, c.band].ravel()
            if not cand.any() or not neigh or x.std() == 0:
                valid[:, p, c.band] = False
                continue
            best, best_r = None, -2.0
            for bb in np.flatnonzero(cand):
                y = data[:, neigh, bb].ravel()
                if y.std() == 0:
                    continue
                r = float(np.corrcoef(x, y)[0, 1])
                if r > best_r:
                    best, best_r = bb, r
            if best is None:
                valid[:, p, c.band] = False
                continue
            y = data[:, neigh, best].ravel()
            alpha, beta = np.polyfit(y, x, 1)
            out[:, p, c.band] = alpha * data[:, p, best] + beta
    return out, valid


def _bunch_case(seed, tie=False, lines=40, samples=160, bands=8):
    """Radiance cube of one scene seen by bands of random gain and noise,
    with band 5 flat; a column corrupted in every band, six abutting
    clusters in band 1 (the middle columns have no clean column within
    40), and twelve random clusters, overlaps allowed.  With ``tie``, band
    6 is three times band 2, so the two correlate alike within rounding."""
    rng = np.random.default_rng(seed)
    scene = rng.normal(100.0, 10.0, (lines, samples))
    data = scene[:, :, None] * rng.uniform(0.5, 2.0, bands) \
        + rng.normal(0.0, 3.0, (lines, samples, bands))
    data[:, :, 5] = 70.0
    if tie:
        data[:, :, 2] = scene + rng.normal(0.0, 0.5, (lines, samples))
        data[:, :, 6] = 3.0 * data[:, :, 2]
    clusters = [sim.BunchCluster(b, 100, 1, (1.6,)) for b in range(bands)]
    clusters += [sim.BunchCluster(1, s0, 15, (1.3,) * 15)
                 for s0 in range(0, 90, 15)]
    for _ in range(12):
        length = int(rng.integers(1, 16))
        clusters.append(sim.BunchCluster(
            int(rng.integers(bands)), int(rng.integers(samples - length)),
            length, tuple(rng.uniform(1.1, 1.8, length))))
    for c in clusters:
        data[:, c.start_sample:c.start_sample + c.length, c.band] *= \
            np.asarray(c.profile)
    return SpectralCube(data, "radiance", uniform_band_meta(bands)), clusters


class TestBunchCorrectionMatchesCandidateLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes(self, seed):
        cube, clusters = _bunch_case(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed, valid = ano.correct_bunch_pixels(cube, clusters)
        out, ref_valid = _reference_correct_bunch(cube, clusters)
        assert np.array_equal(fixed.data, out)
        assert np.array_equal(valid, ref_valid)
        assert not valid[:, 100, :].any() and not valid[:, 45, 1].any()

    def test_planted_tie_within_rounding(self):
        cube, clusters = _bunch_case(3, tie=True)
        fixed, valid = ano.correct_bunch_pixels(cube, clusters)
        out, ref_valid = _reference_correct_bunch(cube, clusters)
        np.testing.assert_allclose(fixed.data, out, rtol=1e-9, atol=0.0)
        assert np.array_equal(valid, ref_valid)


def _reference_detect_bunch(cube, k=ano.BUNCH_MAD_K):
    """The per-column double loop the vectorized detector replaced.  A
    column without neighbors takes the median of nothing (NaN, with a
    warning) and so never compares hot."""
    data = cube.data.astype(np.float64)
    lines, samples, bands = data.shape
    col_med = np.median(data, axis=0)
    clusters = []
    h = ano.BUNCH_BASELINE_HALF
    outer = 3 * h
    for b in range(bands):
        m = col_med[:, b]
        hot = np.zeros(samples, dtype=bool)
        for s in range(samples):
            idx = [q for q in range(max(s - outer, 0),
                                    min(s + outer + 1, samples))
                   if h <= abs(q - s) <= outer]
            neigh = m[idx]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                base = np.median(neigh)
                mad = np.median(np.abs(neigh - base))
            hot[s] = m[s] - base > k * max(mad, 0.5)
        s = 0
        while s < samples:
            if not hot[s]:
                s += 1
                continue
            s0 = s
            while s < samples and hot[s]:
                s += 1
            length = min(s - s0, 15)
            ratio = m[s0:s0 + length] / max(np.median(m), 1e-12)
            profile = tuple(float(max(r, 1.0 + 1e-6)) for r in ratio)
            clusters.append(sim.BunchCluster(b, int(s0), length, profile))
    return clusters


def _planted_cube(samples, seed, lines=48, bands=6):
    """uint16 cube with hot runs (one longer than 15, some at the swath
    edges) and a quantization-flat band whose MAD hits the half-DN floor,
    with one column 5 DN and one exactly at the 3 DN threshold above it."""
    rng = np.random.default_rng(seed)
    data = rng.normal(600.0, 4.0, (lines, samples, bands))
    data[:, :, 3] = 600.0
    data[:, samples // 2, 3] += 5.0
    data[:, samples // 4, 3] += 3.0    # exactly k * 0.5: not hot
    data[:, :3, 1] *= 1.25
    data[:, samples - 2:, 2] *= 1.3
    data[:, 2:min(samples, 20), 4] *= 1.2
    data[:, samples // 3:samples // 3 + 4, 0] *= 1.15
    return SpectralCube(np.rint(data).astype(np.uint16), "dn12",
                        sim.make_sensor("vnir", samples=samples,
                                        bands=bands).band_meta())


class TestBunchDetectionMatchesColumnLoop:
    @pytest.mark.parametrize("samples", [256, 40, 20, 12])
    def test_same_clusters(self, samples):
        for seed in range(3):
            cube = _planted_cube(samples, seed)
            found = ano.detect_bunch_pixels(cube)
            assert found == _reference_detect_bunch(cube)
        if samples >= 40:
            bands_found = {c.band for c in found}
            assert {0, 3} <= bands_found

    def test_radiance_cube_same_clusters(self):
        sensor = quiet_sensor("vnir", samples=256, bands=16,
                              prnu_spread=0.02, read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", 64, 256, level=60.0)
        clusters = sim.make_bunch_clusters((2, 7, 12), (40, 120, 200))
        cube = render_radiance(scene, sensor, 3,
                               sim.ArtifactConfig(bunch=clusters))
        found = ano.detect_bunch_pixels(cube)
        assert found and found == _reference_detect_bunch(cube)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sample_blocks_same_clusters(self, workers, monkeypatch):
        # a budget of three columns per task splits the medians into
        # blocks of three samples and a remainder
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 3 * 8 * 48 * 6 * workers)
        cube = _planted_cube(40, seed=1)
        assert ano.detect_bunch_pixels(cube) == _reference_detect_bunch(cube)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flat_fielded_blocks_same_clusters(self, workers, monkeypatch):
        # the DN cube flat-fielded in blocks of three samples finds what
        # its whole radiance cube finds, with a masked channel (NaN gain)
        # and dark levels that clamp some radiances to zero
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 3 * 8 * 48 * 6 * workers)
        cube = _planted_cube(40, seed=2)
        rng = np.random.default_rng(5)
        gain = rng.uniform(0.5, 1.5, (6, 40))
        gain[5] = np.nan
        table = radiometry.FlatFieldTable(gain, np.zeros((6, 40)),
                                          np.ones((6, 40)))
        dark = radiometry.DarkModel.constant(
            rng.uniform(560.0, 605.0, (6, 40)))
        whole, _, clamped = radiometry.apply_flatfield(cube, table, dark)
        found = ano.detect_bunch_pixels(cube, flatfield=table, dark=dark)
        assert clamped > 0 and found
        assert found == _reference_detect_bunch(whole)

    def test_detection_copies_sample_blocks_only(self, monkeypatch):
        # no float64 copy of a dn12 cube, no partition copy of a radiance
        # one: 2 MB task buffers are an eighth of the 15.7 MB cube
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 2 << 20)
        cube = _float64_cube()
        assert traced_peak(lambda: ano.detect_bunch_pixels(cube)) \
            < 0.5 * cube.data.nbytes
        dn = cube.with_data(cube.data * 10.0, pixel_kind="dn12")
        assert traced_peak(lambda: ano.detect_bunch_pixels(dn)) \
            < 0.5 * cube.data.nbytes

    def test_narrow_swath_has_no_baseline_and_no_warning(self):
        # at 8 samples no column has a neighbor 8 to 24 columns away
        cube = _planted_cube(8, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ano.detect_bunch_pixels(cube) == []


class TestInterference:
    def _cube(self, components=(), lines=512, seed=0):
        sensor = quiet_sensor("vnir", samples=64, bands=8,
                              read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", lines, 64, level=60.0)
        cube, _ = sim.render_raw(
            scene, sensor,
            sim.ArtifactConfig(interference=tuple(components)), seed=seed)
        return cube

    def test_frequency_recovered_within_tolerance(self):
        cube = self._cube([sim.InterferenceComponent(0.23, 8.0)])
        found = ano.detect_interference(cube)
        assert len(found) == 1
        assert abs(found[0][0] - 0.23) < 0.005

    @pytest.mark.parametrize("offset, nearest", [(0.3, 59), (0.7, 60)])
    def test_adjacent_bins_merged_to_the_stronger(self, offset, nearest):
        # a frequency between bins 59 and 60 of 256 lines leaks into both;
        # the one component reported sits at the nearer, stronger bin,
        # whichever of the two comes first
        cube = self._cube([sim.InterferenceComponent((59 + offset) / 256,
                                                     8.0)], lines=256)
        found = ano.detect_interference(cube)
        assert [f for f, _ in found] == [nearest / 256]

    def test_two_components_detected(self):
        cube = self._cube([sim.InterferenceComponent(0.1, 8.0),
                           sim.InterferenceComponent(0.23, 6.0)])
        found = sorted(f for f, _ in ano.detect_interference(cube))
        assert len(found) == 2
        assert abs(found[0] - 0.1) < 0.005 and abs(found[1] - 0.23) < 0.005

    def test_clean_cube_yields_no_detections(self):
        assert ano.detect_interference(self._cube()) == []

    def test_short_cube_rejected(self):
        with pytest.raises(EstimationError):
            ano.detect_interference(self._cube(lines=64))

    def test_periodic_attenuated_ten_fold(self):
        comp = sim.InterferenceComponent(0.23, 8.0)
        cube = self._cube([comp])
        found = ano.detect_interference(cube)
        fixed = ano.remove_interference(cube, found)
        before = amplitude_at(cube, 0.23)
        after = amplitude_at(fixed, 0.23)
        assert before > 10.0 * after

    def test_banding_attenuated_five_fold_on_swir(self):
        sensor = quiet_sensor("swir", samples=32, bands=256,
                              read_noise_dn=2.0)
        scene = sim.synth_scene("uniform", 256, 32, level=60.0)
        comp = sim.InterferenceComponent(2.0 / 256, 10.0, kind="banding")
        cube, _ = sim.render_raw(scene, sensor,
                                 sim.ArtifactConfig(interference=(comp,)),
                                 seed=1)
        # below the periodic search floor: handled by the banding profile
        assert ano.detect_interference(cube) == []
        fixed = ano.remove_interference(cube, [])
        before = amplitude_at(cube, comp.frequency)
        after = amplitude_at(fixed, comp.frequency)
        assert before > 5.0 * after

    def test_swir_bar_profile_survives(self):
        # every injected pattern runs along the lines; the across-track bars
        # are scene content and must pass the 256-band (banding) path
        sensor = quiet_sensor("swir", samples=32, bands=256,
                              read_noise_dn=2.0)
        scene = sim.synth_scene("bar-target", 256, 32, level=60.0,
                                period=8, contrast=0.4)
        comp = sim.InterferenceComponent(2.0 / 256, 10.0, kind="banding")
        cube, _ = sim.render_raw(scene, sensor,
                                 sim.ArtifactConfig(interference=(comp,)),
                                 seed=1)
        fixed = ano.remove_interference(cube, [])
        before = cube.data.astype(np.float64).mean(axis=(0, 2))
        after = fixed.data.astype(np.float64).mean(axis=(0, 2))
        assert np.abs(after - before).max() < 0.01 * np.ptp(before)

    def test_vnir_cube_skips_banding_profile(self):
        cube = self._cube(lines=256)
        fixed = ano.remove_interference(cube, [])
        # no notch, no banding window: pure pass-through modulo rounding
        change = np.abs(fixed.data.astype(float) - cube.data.astype(float))
        assert change.mean() < 0.001 * cube.data.mean()

    def test_banding_window_chosen_by_wavelength(self):
        # on 200 SWIR bands the 1.9 um window is bands 125-133
        # (1886-1953 nm), not the 256-band grid's 160-170
        lines, window = 128, slice(125, 134)
        ramp = np.linspace(-1.0, 1.0, lines)
        data = np.zeros((lines, 16, 200))
        data[:, :, window] = ramp[:, None, None]
        fixed = ano.remove_interference(
            SpectralCube(data, "radiance", uniform_band_meta(200, "swir")), [])
        assert np.allclose(fixed.data[:, :, 0], -ramp[:, None], atol=1e-9)
        assert np.abs(fixed.data[:, :, window]).max() < 1e-9

    def test_detection_reads_the_cube_in_place(self):
        cube = _float64_cube()
        peak = traced_peak(lambda: ano.detect_interference(cube))
        assert peak < 0.5 * cube.data.nbytes

    def test_removal_holds_only_spectrum_and_output(self, monkeypatch):
        # the spectrum of one sample block per task, not of the whole cube:
        # 2 MB task buffers are an eighth of the 15.7 MB cube
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 2 << 20)
        cube = _float64_cube()
        peak = traced_peak(lambda: ano.remove_interference(cube, [0.23]))
        assert peak < 1.5 * cube.data.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["dn12", "radiance"])
    def test_sample_blocks_same_bits_as_whole_cube(self, workers, kind,
                                                   monkeypatch):
        # blocks of five samples and a remainder, notched at two
        # frequencies, then the banding profile of the SWIR window bands
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES",
                            5 * 8 * 200 * 40 * workers)
        rng = np.random.default_rng(3)
        data = rng.normal(900.0, 40.0, (200, 23, 40))
        meta = sim.make_sensor("swir", samples=23, bands=200).band_meta()[
            100:140]
        cube = SpectralCube(np.rint(data).astype(np.uint16) if kind == "dn12"
                            else data, kind, meta)
        freqs = [0.05, 0.23]
        fgrid = np.fft.rfftfreq(200)
        gain = ano._notch_gain(fgrid, 0.05, ano.NOTCH_HALF_WIDTH,
                               ano.NOTCH_ORDER)
        gain *= ano._notch_gain(fgrid, 0.23, ano.NOTCH_HALF_WIDTH,
                                ano.NOTCH_ORDER)
        spec = np.fft.rfft(cube.data, axis=0)
        spec *= gain[:, None, None]
        whole = np.fft.irfft(spec, n=200, axis=0)
        lo, hi = ano.BANDING_WINDOW_NM
        window = np.flatnonzero((cube.centers_nm >= lo)
                                & (cube.centers_nm <= hi))
        assert window.size
        profile = whole[:, :, window[0]:window[-1] + 1].mean(axis=(1, 2))
        whole -= (profile - profile.mean())[:, None, None]
        expected = cube.with_data(whole).data
        got = ano.remove_interference(cube, freqs).data
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_dc_notch_rejected(self):
        cube = self._cube(lines=256)
        with pytest.raises(EstimationError):
            ano.remove_interference(cube, [0.0])

    def test_flux_conserved_within_half_percent(self):
        cube = self._cube([sim.InterferenceComponent(0.23, 8.0)])
        fixed = ano.remove_interference(cube, ano.detect_interference(cube))
        drift = abs(fixed.data.mean() - cube.data.mean()) / cube.data.mean()
        assert drift < 0.005

    def test_approximately_idempotent(self):
        cube = self._cube([sim.InterferenceComponent(0.23, 8.0)])
        freqs = ano.detect_interference(cube)
        once = ano.remove_interference(cube, freqs)
        twice = ano.remove_interference(once, freqs)
        first = np.sqrt(np.mean(
            (once.data.astype(float) - cube.data.astype(float)) ** 2))
        second = np.sqrt(np.mean(
            (twice.data.astype(float) - once.data.astype(float)) ** 2))
        assert second < 0.1 * first


class TestStrayLight:
    SPEC = sim.StrayLightSpec(tail_scale_px=2.2)

    def _sensor(self, bands=4):
        return quiet_sensor("vnir", samples=256, bands=bands)

    def _points(self, sensor=None):
        steering = sim.linear_steering(256)
        return sim.point_source_grid(sensor or self._sensor(), self.SPEC,
                                     steering, 70), steering

    def _model(self, sensor=None):
        points, steering = self._points(sensor)
        return ano.estimate_stray_psf(points, steering), steering

    def test_identity_model_is_pass_through(self):
        rng = np.random.default_rng(0)
        cube = SpectralCube(rng.uniform(10, 90, (128, 64, 3)), "radiance",
                            uniform_band_meta(3, "vnir"))
        taps = np.zeros((2, 2, 31))
        taps[:, :, 15] = 1.0
        identity = ano.StrayPSFModel(np.array([-2.0, 2.0]),
                                     np.array([0.0, 1.0]), taps)
        fixed = ano.correct_stray(cube, identity, np.zeros(128))
        rms = np.sqrt(np.mean((fixed.data - cube.data) ** 2))
        assert rms < 1e-9

    def test_correction_holds_no_input_copy(self):
        cube = _float64_cube()
        taps = np.zeros((3, 3, 31))
        taps[:, :, 15], taps[:, :, 16] = 0.9, 0.1
        model = ano.StrayPSFModel(np.array([-2.0, 0.0, 2.0]),
                                  np.array([0.1, 0.5, 0.9]), taps)
        peak = traced_peak(lambda: ano.correct_stray(
            cube, model, sim.linear_steering(cube.lines)))
        assert peak < 2.0 * cube.data.nbytes

    def test_point_extent_reduced_from_fifteen(self):
        sensor = self._sensor()
        model, steering = self._model(sensor)
        theta = float(steering[32])
        const = np.full(256, theta)
        cube = stray_point_render(sensor, self.SPEC, const)
        assert point_extent(cube) >= 15
        assert point_extent(ano.correct_stray(cube, model, const)) <= 2.5

    def test_tail_direction_flips_with_steering_sign(self):
        model, steering = self._model()
        pos = model.centroid(float(steering[32]), 0.5)
        neg = model.centroid(float(steering[224]), 0.5)
        assert pos > 0.1 and neg < -0.1

    def test_near_zero_steering_kernel_nearly_symmetric(self):
        model, steering = self._model()
        assert abs(model.centroid(float(steering[128]), 0.5)) < 0.1

    def test_absorption_contrast_restored(self):
        sensor = quiet_sensor("vnir", samples=64, bands=60)
        model_sensor = self._sensor(bands=1)
        model, steering = self._model(model_sensor)
        theta = float(steering[32])
        const = np.full(256, theta)

        scene = two_material_scene()

        def contrast(cube):
            return dip_contrast(cube, scene)

        art = sim.ArtifactConfig(noise=False)
        pristine, _ = sim.render_raw(scene, sensor, art, steering_deg=const)
        strayed, _ = sim.render_raw(
            scene, sensor, sim.ArtifactConfig(stray=self.SPEC, noise=False),
            steering_deg=const)
        assert abs(contrast(strayed) - contrast(pristine)) \
            > 0.05 * contrast(pristine)
        fixed = ano.correct_stray(strayed, model, const)
        assert abs(contrast(fixed) - contrast(pristine)) \
            <= 0.05 * contrast(pristine)

    def test_flux_conserved_within_half_percent(self):
        sensor = self._sensor()
        model, steering = self._model(sensor)
        scene = sim.synth_scene("checkerboard", 256, 256, level=60.0)
        cube, _ = sim.render_raw(
            scene, sensor, sim.ArtifactConfig(stray=self.SPEC, noise=False),
            seed=2, steering_deg=steering)
        fixed = ano.correct_stray(cube, model, steering)
        drift = abs(fixed.data.mean() - cube.data.mean()) / cube.data.mean()
        assert drift < 0.005

    def test_saturated_point_source_rejected(self):
        sensor = self._sensor(bands=1)
        steering = sim.linear_steering(256)
        scene = sim.synth_scene("point-source", 256, 256, points=[(32, 32)],
                                background=0.002, amplitude=200.0)
        cube, _ = sim.render_raw(
            scene, sensor, sim.ArtifactConfig(stray=self.SPEC, noise=False),
            seed=70, steering_deg=steering)
        with pytest.raises(EstimationError, match="saturated"):
            ano.estimate_stray_psf([(cube, (32, 32))], steering)

    def test_sparse_point_grid_rejected(self):
        points, steering = self._points(self._sensor(bands=1))
        with pytest.raises(EstimationError):
            ano.estimate_stray_psf(points[:6], steering)

    def test_absent_point_rejected(self):
        points, steering = self._points(self._sensor(bands=1))
        # the stated sample is 16 columns off the rendered point
        cube, (l0, s0) = points[0]
        with pytest.raises(EstimationError, match="absent"):
            ano.estimate_stray_psf([(cube, (l0, s0 + 16))], steering)

    def test_point_grid_with_a_hole_rejected(self):
        points, steering = self._points(self._sensor(bands=1))
        # 3 x 3 positions with the centre one missing
        with pytest.raises(EstimationError, match="holes"):
            ano.estimate_stray_psf(points[:4] + points[5:], steering)

    def test_edge_point_rejected(self):
        sensor = self._sensor(bands=1)
        steering = sim.linear_steering(256)
        scene = sim.synth_scene("point-source", 256, 256, points=[(4, 128)],
                                background=0.002, amplitude=1.0)
        cube, _ = sim.render_raw(
            scene, sensor, sim.ArtifactConfig(stray=self.SPEC, noise=False),
            steering_deg=steering)
        with pytest.raises(EstimationError, match="edge"):
            ano.estimate_stray_psf([(cube, (4, 128))], steering)

    def test_steering_length_mismatch_rejected(self):
        model, steering = self._model()
        cube = SpectralCube(np.full((64, 16, 1), 5.0), "radiance",
                            uniform_band_meta(1, "vnir"))
        with pytest.raises(EstimationError):
            ano.correct_stray(cube, model, np.zeros(32))

    @pytest.mark.parametrize("per_task", [3, None])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_band_split_same_bits_as_one_task(self, workers, per_task,
                                              monkeypatch):
        # seven bands in slices of three (a remainder of one), or one band
        # per task at a one-byte budget, against one task of all seven
        rng = np.random.default_rng(8)
        taps = rng.uniform(0.0, 1.0, (3, 3, 31))
        model = ano.StrayPSFModel(np.array([-2.0, 0.0, 2.0]),
                                  np.array([0.1, 0.5, 0.9]),
                                  taps / taps.sum(axis=2, keepdims=True))
        data = rng.normal(100.0, 5.0, (150, 24, 7))
        data[:, 5] = -0.0
        cube = SpectralCube(data, "radiance", uniform_band_meta(7, "vnir"))
        steering = sim.linear_steering(150)
        monkeypatch.setattr(kernels, "WORKERS", 1)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1 << 40)
        one = ano.correct_stray(cube, model, steering)
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1 if per_task is None
                            else per_task * 8 * sim.SEGMENT_LINES * 24
                            * workers)
        assert same_bits(ano.correct_stray(cube, model, steering).data,
                         one.data)

    def test_model_round_trip(self, tmp_path):
        model, _ = self._model()
        write_json(model, tmp_path / "psf.json")
        back = ano.StrayPSFModel.from_json(tmp_path / "psf.json")
        assert np.allclose(back.taps, model.taps)
        assert np.allclose(back.steering_deg, model.steering_deg)


def _reference_correct_stray(cube, model, steering_deg):
    """Whole-cube overlap-add, the reference for the one-segment blend:
    each segment adds its weighted lines into a zeroed float64 cube, which
    is divided by the summed weights at the end."""
    data = np.asarray(cube.data, dtype=np.float64)
    lines, samples, _ = data.shape
    out = np.zeros_like(data)
    weight = np.zeros(lines)
    n = sim.SEGMENT_LINES
    win = np.hanning(n + 2)[1:-1]
    for seg0 in range(0, lines, n // 2):
        seg1 = min(seg0 + n, lines)
        s0 = max(seg1 - n, 0)
        seg = data[s0:seg1]
        theta = float(steering_deg[s0:seg1].mean())
        corrected = np.empty_like(seg)
        for c0, c1, frac in sim.stray_blocks(samples):
            kpad = np.zeros(n)
            taps = model.kernel(theta, frac)
            kpad[:taps.size] = taps
            kf = np.fft.rfft(np.roll(kpad, -(taps.size // 2)))
            power = np.abs(kf) ** 2
            wiener = np.conj(kf) / (power + ano.WIENER_EPS * power.max())
            dc = wiener[0].real * kf[0].real
            if abs(dc) > 1e-12:
                wiener = wiener / dc
            spec = np.fft.rfft(seg[:, c0:c1], n=n, axis=0)
            rec = np.fft.irfft(spec * wiener[:, None, None], n=n, axis=0)
            corrected[:, c0:c1] = rec[: seg.shape[0]]
        out[s0:seg1] += corrected * win[: seg1 - s0, None, None]
        weight[s0:seg1] += win[: seg1 - s0]
        if seg1 >= lines:
            break
    return out / np.maximum(weight, 1e-12)[:, None, None]


class TestCorrectionsInPlace:
    """With ``out`` set to its input, each correction writes the bits of
    its out-of-place call there; without ``out`` the input is untouched."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bunch(self, seed):
        cube, clusters = _bunch_case(seed)
        check_in_place(ano.correct_bunch_pixels, cube, clusters)
        check_in_place(ano.correct_bunch_pixels, cube, [])

    @pytest.mark.parametrize("instrument,first", [("vnir", 0), ("swir", 100)])
    def test_interference(self, instrument, first):
        # the SWIR bands hold the banding window, the VNIR ones do not
        rng = np.random.default_rng(3)
        data = rng.normal(900.0, 40.0, (200, 23, 40))
        data[:, 5] = -0.0
        meta = sim.make_sensor(instrument, samples=23).band_meta()
        cube = SpectralCube(data, "radiance", meta[first:first + 40])
        check_in_place(ano.remove_interference, cube, [0.05, 0.23])

    @pytest.mark.parametrize("lines", [256, 250, 100, 40])
    def test_stray_matches_whole_cube_blend(self, lines):
        # 250 and 100 lines pad the trailing segment backwards to below
        # its nominal start; 40 lines fit in one short segment
        rng = np.random.default_rng(lines)
        taps = rng.uniform(0.0, 1.0, (3, 3, 31))
        model = ano.StrayPSFModel(np.array([-2.0, 0.0, 2.0]),
                                  np.array([0.1, 0.5, 0.9]),
                                  taps / taps.sum(axis=2, keepdims=True))
        cube = SpectralCube(rng.normal(100.0, 5.0, (lines, 40, 3)),
                            "radiance", uniform_band_meta(3, "vnir"))
        steering = sim.linear_steering(lines)
        expected = _reference_correct_stray(cube, model, steering)
        got = check_in_place(ano.correct_stray, cube, model, steering)
        assert same_bits(got.data, expected)
