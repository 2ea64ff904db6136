"""Geolocation, boresight calibration, orthorectification, and dual-camera
band bundling."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from hypercal import geometry as geo
from hypercal import kernels
from hypercal import simulate as sim
from hypercal.cube import SpectralCube
from hypercal.errors import ConfigError, CubeFormatError, EstimationError
from hypercal.registration import shift_2d

from conftest import (boresight_strips, coordinate_cube, smooth_texture,
                      uniform_band_meta)


class TestGeolocate:
    def test_nadir_center_sample_hits_the_track(self):
        gm = geo.make_geo(64, 255, track_start_north=1000.0,
                          track_across=250.0)
        e, n = geo.geolocate(gm, 10, (gm.samples - 1) / 2.0)
        assert e == pytest.approx(250.0, abs=1e-9)
        assert n == pytest.approx(1000.0 + 10 * 30.0, abs=1e-9)

    def test_roll_offsets_ground_track_by_tangent(self):
        roll = np.arctan2(3500.0, geo.DEFAULT_ALTITUDE_M)
        gm = geo.make_geo(64, 255, roll=roll)
        e, n = geo.geolocate(gm, 0, (gm.samples - 1) / 2.0)
        assert e == pytest.approx(3500.0, abs=1e-6)
        assert n == pytest.approx(0.0, abs=1e-6)

    def test_pitch_offsets_along_track(self):
        pitch = np.arctan2(2000.0, geo.DEFAULT_ALTITUDE_M)
        gm = geo.make_geo(64, 255, pitch=pitch)
        _, n = geo.geolocate(gm, 0, (gm.samples - 1) / 2.0)
        assert n == pytest.approx(2000.0, abs=1e-6)

    def test_one_sample_step_is_one_gsd_at_nadir(self):
        gm = geo.make_geo(64, 255)
        c = (gm.samples - 1) / 2.0
        e0, _ = geo.geolocate(gm, 5, c)
        e1, _ = geo.geolocate(gm, 5, c + 1.0)
        assert e1 - e0 == pytest.approx(30.0, rel=1e-6)

    def test_terrain_height_shortens_the_ray(self):
        roll = np.deg2rad(3.0)
        gm = geo.make_geo(64, 255, roll=roll)
        c = (gm.samples - 1) / 2.0
        e0, _ = geo.geolocate(gm, 0, c, 0.0)
        eh, _ = geo.geolocate(gm, 0, c, 500.0)
        assert e0 - eh == pytest.approx(500.0 * np.tan(roll), rel=1e-9)

    def test_sideways_ray_rejected(self):
        gm = geo.make_geo(8, 16, roll=np.deg2rad(0.4))
        bad = gm.with_bias(geo.BoresightBias(droll=np.deg2rad(89.7)))
        with pytest.raises(EstimationError):
            geo.geolocate(bad, 0, 0)

    def test_excessive_attitude_rejected(self):
        with pytest.raises(ConfigError):
            geo.make_geo(8, 16, roll=0.6)


class TestResidualsAndCost:
    def test_noiseless_gcps_close_to_zero(self):
        gm = geo.make_geo(128, 128, roll=np.deg2rad(0.2))
        res = geo.residuals(gm, sim.survey_gcps(gm, 25, 0.0, 0, "strip"))
        assert np.abs(res).max() < 1e-6

    def test_noise_spreads_but_does_not_bias(self):
        gm = geo.make_geo(256, 256)
        res = geo.residuals(gm, sim.survey_gcps(gm, 400, 30.0, 3, "strip"))
        assert np.abs(res.mean(axis=0)).max() < 5.0
        assert np.allclose(res.std(axis=0), 30.0, rtol=0.15)

    def test_cost_matches_independent_accumulation(self):
        bias = geo.BoresightBias(np.deg2rad(0.01), np.deg2rad(-0.02), 0.0)
        strips = boresight_strips(geo.BoresightBias(), n_strips=3,
                                  noise=10.0)
        total = 0.0
        for gm, gcps in strips:
            res = geo.residuals(gm.with_bias(bias), gcps)
            total += (abs(res[:, 0].mean()) + abs(res[:, 1].mean())
                      + res[:, 0].std() + res[:, 1].std())
        assert geo.cost(bias, strips) == pytest.approx(total, rel=1e-9)

    def test_empty_inputs_rejected(self):
        gm = geo.make_geo(8, 16)
        with pytest.raises(EstimationError):
            geo.residuals(gm, [])
        with pytest.raises(EstimationError):
            geo.cost(geo.BoresightBias(), [])

    def test_one_pass_cost_equals_per_strip_residuals_exactly(self):
        # unequal GCP counts, mounting set the way the bundle stage sets
        # it, and attitude series that vary per line
        rng = np.random.default_rng(17)
        strips = []
        for i, n in enumerate((3, 25, 40)):
            lines = 96 + 32 * i
            t = np.arange(lines) / lines
            gm = geo.make_geo(
                lines, 128 + 64 * i,
                roll=np.deg2rad(rng.uniform(-4, 4) + 0.3 * np.sin(6 * t)),
                pitch=np.deg2rad(rng.uniform(-4, 4) - 0.2 * t),
                yaw=np.deg2rad(0.01 * np.cos(3 * t)),
                track_start_north=rng.uniform(0, 1e5),
                track_across=rng.uniform(-1e4, 1e4))
            gm = dataclasses.replace(
                gm, mounting=tuple(np.deg2rad(rng.uniform(-0.05, 0.05, 3))))
            strips.append((gm, sim.survey_gcps(gm, n, 12.0, 40 + i,
                                               f"strip{i}")))
        for _ in range(50):
            bias = geo.BoresightBias(*rng.normal(0.0, np.deg2rad(0.05), 3))
            total = 0.0
            for gm, gcps in strips:
                res = geo.residuals(gm.with_bias(bias), gcps)
                total += (abs(res[:, 0].mean()) + abs(res[:, 1].mean())
                          + res[:, 0].std() + res[:, 1].std())
            assert geo.cost(bias, strips) == total

    def test_strip_without_gcps_rejected(self):
        strips = boresight_strips(geo.BoresightBias(), n_strips=2)
        strips.append((geo.make_geo(8, 16), []))
        with pytest.raises(EstimationError):
            geo.cost(geo.BoresightBias(), strips)
        with pytest.raises(EstimationError):
            geo.optimize_boresight(strips)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _ill_conditioned(x):
    return float(x @ np.diag([1.0, 10.0, 100.0]) @ x)


def _wavy(x):
    return float(np.sin(40.0 * x).sum() + x @ x)


def _kinked(x):
    return float(np.sum(x * x) + np.sum(np.abs(np.sin(25.0 * x))))


def _ripple(x):
    # radial ripples: a reflection across a crest lands lower than the
    # worst vertex while the contraction before it sits on the crest
    return float(np.cos(3.0 * np.sqrt(x @ x)) + 0.1 * (x @ x))


_SIMPLEX_2D = np.array([[-1.2, 1.0], [-1.0, 1.0], [-1.2, 1.2]])
_SIMPLEX_3D = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]])
_NM_CASES = [(_rosenbrock, _SIMPLEX_2D), (_ill_conditioned, _SIMPLEX_3D),
             (_wavy, _SIMPLEX_3D), (_kinked, _SIMPLEX_2D),
             (_ripple, _SIMPLEX_3D)]


def _scipy_nelder_mead(fn, simplex, maxiter=None):
    from scipy.optimize import minimize
    return minimize(fn, simplex[0], method="Nelder-Mead", options={
        "initial_simplex": simplex, "fatol": geo.NM_FATOL,
        "xatol": geo.NM_XATOL,
        "maxiter": geo.NM_MAX_ITER if maxiter is None else maxiter})


def _scipy_moves(fn, simplex):
    """The move each iteration of SciPy's run makes, read from its final
    simplex after k and k + 1 iterations."""
    moves = set()
    prev = _scipy_nelder_mead(fn, simplex, maxiter=1)
    for k in range(2, geo.NM_MAX_ITER):
        cur = _scipy_nelder_mead(fn, simplex, maxiter=k)
        if cur.nit == prev.nit:
            return moves
        sim = prev.final_simplex[0]
        n = sim.shape[1]
        xbar = np.add.reduce(sim[:-1], 0) / n
        worst = sim[-1]
        calls = cur.nfev - prev.nfev
        if calls == n + 2:
            # a shrink follows the outside contraction when the reflected
            # point beat the worst vertex, else the inside one
            outside = fn(2 * xbar - worst) < prev.final_simplex[1][-1]
            moves.add(("outside" if outside else "inside") + " shrink")
        elif calls == 1:
            moves.add("reflect")
        else:
            points = {"expand": 3 * xbar - 2 * worst,
                      "reflect": 2 * xbar - worst,
                      "outside": 1.5 * xbar - 0.5 * worst,
                      "inside": 0.5 * xbar + 0.5 * worst}
            moves.update(m for m, x in points.items()
                         if (cur.final_simplex[0] == x).all(axis=1).any())
        prev = cur
    return moves


def _scipy_boresight(strips):
    """The boresight restart loop on SciPy's Nelder-Mead and the per-strip
    residual accumulation."""
    from scipy.optimize import minimize

    def objective(x):
        if abs(x[2]) > geo.YAW_BOUND_RAD:
            return 1e12 * (1.0 + abs(x[2]))
        total = 0.0
        for gm, gcps in strips:
            res = geo.residuals(gm.with_bias(geo.BoresightBias(*x)), gcps)
            total += (abs(res[:, 0].mean()) + abs(res[:, 1].mean())
                      + res[:, 0].std() + res[:, 1].std())
        return total

    x0 = np.zeros(3)
    best_x, best_f = x0, objective(x0)
    step = np.deg2rad(0.1)
    for _ in range(geo.BORESIGHT_RESTARTS + 1):
        simplex = np.vstack([best_x, best_x + np.diag(
            [step, step, min(step, geo.YAW_BOUND_RAD / 2)])])
        res = minimize(objective, best_x, method="Nelder-Mead",
                       options={"initial_simplex": simplex, "fatol": 1e-4,
                                "xatol": 1e-9, "maxiter": 2000})
        improved = best_f - res.fun
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
        if improved < 0.01:
            break
        step /= 10.0
    return geo.BoresightBias(*best_x)


class TestNelderMead:
    """``_nelder_mead`` against SciPy's ``minimize`` as the reference."""

    @pytest.mark.parametrize("fn, simplex", _NM_CASES)
    def test_same_bits_as_scipy(self, fn, simplex):
        x, f = geo._nelder_mead(fn, simplex)
        ref = _scipy_nelder_mead(fn, simplex)
        assert x.tobytes() == ref.x.tobytes()
        assert f == ref.fun

    def test_cases_make_every_move(self):
        moves = set().union(*(_scipy_moves(fn, s) for fn, s in _NM_CASES))
        assert moves == {"reflect", "expand", "outside", "inside",
                         "outside shrink", "inside shrink"}

    def test_stops_on_the_iteration_cap_as_scipy_does(self, monkeypatch):
        monkeypatch.setattr(geo, "NM_MAX_ITER", 7)
        x, f = geo._nelder_mead(_rosenbrock, _SIMPLEX_2D)
        ref = _scipy_nelder_mead(_rosenbrock, _SIMPLEX_2D, maxiter=7)
        assert ref.nit == 7 and not ref.success
        assert x.tobytes() == ref.x.tobytes()
        assert f == ref.fun

    def test_objective_gets_a_copy(self):
        def clobbering(x):
            value = _rosenbrock(x)
            x[:] = np.nan
            return value

        x, f = geo._nelder_mead(clobbering, _SIMPLEX_2D)
        ref = _scipy_nelder_mead(_rosenbrock, _SIMPLEX_2D)
        assert x.tobytes() == ref.x.tobytes()
        assert f == ref.fun

    @pytest.mark.parametrize("noise", [0.0, 15.0])
    def test_boresight_fit_same_bits_as_scipy_loop(self, noise):
        strips = boresight_strips(TestBoresight.TRUE, noise=noise, seed=4)
        fit = geo.optimize_boresight(strips)
        assert fit == _scipy_boresight(strips)


class TestBoresight:
    TRUE = geo.BoresightBias(np.deg2rad(0.02), np.deg2rad(-0.015),
                             np.deg2rad(0.01))

    def test_noiseless_recovery_is_exact(self):
        strips = boresight_strips(self.TRUE)
        fit = geo.optimize_boresight(strips)
        for gm, gcps in strips:
            res = geo.residuals(gm.with_bias(fit), gcps)
            assert np.abs(res.mean(axis=0)).max() < 0.1

    def test_noisy_recovery_meets_budget(self):
        start = time.monotonic()
        strips = boresight_strips(self.TRUE, noise=30.0, seed=2)
        fit = geo.optimize_boresight(strips)
        across_means, along_means = [], []
        across_stds, along_stds = [], []
        for gm, gcps in strips:
            res = geo.residuals(gm.with_bias(fit), gcps)
            across_means.append(res[:, 0].mean())
            along_means.append(res[:, 1].mean())
            across_stds.append(res[:, 0].std())
            along_stds.append(res[:, 1].std())
        assert abs(np.mean(across_means)) < 5.0
        assert abs(np.mean(along_means)) < 5.0
        assert max(across_stds) <= 100.0
        assert max(along_stds) <= 200.0
        assert time.monotonic() - start < 300.0

    def test_unbiased_strips_fit_to_null(self):
        strips = boresight_strips(geo.BoresightBias())
        fit = geo.optimize_boresight(strips)
        assert np.abs(np.rad2deg(dataclasses.astuple(fit))).max() < 1e-3

    def test_strip_order_does_not_matter(self):
        strips = boresight_strips(self.TRUE, noise=20.0, seed=5)
        a = geo.optimize_boresight(strips)
        b = geo.optimize_boresight(list(reversed(strips)))
        assert np.allclose(dataclasses.astuple(a), dataclasses.astuple(b),
                           atol=np.deg2rad(1e-4))

    def test_yaw_stays_inside_the_bound(self):
        strips = boresight_strips(
            geo.BoresightBias(dyaw=np.deg2rad(0.2)), noise=0.0)
        fit = geo.optimize_boresight(strips)
        assert abs(fit.dyaw) <= geo.YAW_BOUND_RAD + 1e-12



class TestOrthorectify:
    def test_round_trip_closure_below_a_third_pixel(self):
        gm = geo.make_geo(128, 128, roll=np.deg2rad(0.1),
                          pitch=np.deg2rad(-0.05))
        cube = coordinate_cube(128, 128)
        grid = geo.footprint_grid(gm, 4, 30.0)
        ortho, valid, _ = geo.orthorectify(cube, gm, 0.0, grid)
        assert valid.mean() > 0.9
        north, east = grid.centers()
        lines = ortho.data[:, :, 0] - 10.0
        samples = ortho.data[:, :, 1] - 10.0
        e2, n2 = geo.geolocate(gm, np.clip(lines, 0, 127),
                               np.clip(samples, 0, 127), 0.0)
        err = np.hypot(e2 - east, n2 - north)[valid] / grid.cell_m
        assert err.max() < 0.3

    def test_terrain_parallax_compensated(self):
        roll = np.deg2rad(0.3)
        gm = geo.make_geo(128, 128, roll=roll)
        cube = coordinate_cube(128, 128)
        grid = geo.footprint_grid(gm, 4, 30.0)
        h = np.full((grid.rows, grid.cols), 400.0)
        flat, v0, _ = geo.orthorectify(cube, gm, 0.0, grid)
        terr, v1, _ = geo.orthorectify(cube, gm, h, grid)
        both = v0 & v1
        # sample coordinate moves by h*tan(look)/gsd between the two runs
        ds = (terr.data[:, :, 1] - flat.data[:, :, 1])[both]
        expect = 400.0 * np.tan(roll) / gm.gsd_m
        assert np.abs(ds - expect).max() < 0.05

    def test_constant_track_shift_recovered_by_registration(self):
        tex = smooth_texture(160, 160, seed=9)
        from hypercal.cube import BandMeta
        cube = SpectralCube(tex[:, :, None], "radiance",
                            (BandMeta(650.0, 9.24, "vnir"),))
        gm = geo.make_geo(160, 160)
        moved = geo.make_geo(160, 160, track_across=0.5 * gm.gsd_m)
        grid = geo.footprint_grid(gm, 6, 30.0)
        a, va, _ = geo.orthorectify(cube, gm, 0.0, grid)
        b, vb, _ = geo.orthorectify(cube, moved, 0.0, grid)
        inner = (slice(8, -8), slice(8, -8))
        dy, dx, _ = shift_2d(a.data[:, :, 0][inner], b.data[:, :, 0][inner])
        assert abs(dy) < 0.05
        assert abs(dx - 0.5) < 0.05

    def test_disjoint_grid_rejected(self):
        gm = geo.make_geo(64, 64)
        cube = coordinate_cube(64, 64)
        far = geo.MapGrid(1e7, -1e7, 30.0, 16, 16)
        with pytest.raises(EstimationError):
            geo.orthorectify(cube, gm, 0.0, far)

    def test_extent_mismatch_rejected(self):
        gm = geo.make_geo(64, 64)
        with pytest.raises(ConfigError):
            geo.orthorectify(coordinate_cube(32, 64), gm, 0.0,
                             geo.MapGrid(0.0, 0.0, 30.0, 8, 8))


def _dual_cubes(shift=(0.55, -0.58), rows=256, cols=256, seed=12,
                vnir_bands=60):
    """VNIR/SWIR map-grid cubes sharing one texture; SWIR is misregistered
    by a known sub-pixel amount."""
    from hypercal.cube import BandMeta
    tex = smooth_texture(rows, cols, seed=seed)
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    moved = np.fft.ifft2(np.fft.fft2(tex) * np.exp(
        -2j * np.pi * (fy * shift[0] + fx * shift[1]))).real
    v_centers = sim.default_centers("vnir", vnir_bands)
    s_centers = sim.default_centers("swir", 256)
    vnir = SpectralCube(
        np.repeat(tex[:, :, None], vnir_bands, axis=2), "radiance",
        tuple(BandMeta(c, 9.24, "vnir") for c in v_centers))
    swir = SpectralCube(
        np.repeat(moved[:, :, None], 256, axis=2), "radiance",
        tuple(BandMeta(c, 5.87, "swir") for c in s_centers))
    return vnir, swir


class TestBundle:
    def test_misregistration_reduced_below_quarter_pixel(self):
        vnir, swir = _dual_cubes(shift=(0.8, 0.8))
        merged, residual = geo.bundle(vnir, swir)
        assert residual < 0.25

    def test_merged_cube_has_all_bands_strictly_increasing(self):
        vnir, swir = _dual_cubes()
        merged, _ = geo.bundle(vnir, swir)
        assert merged.bands == 309
        assert np.all(np.diff(merged.centers_nm) > 0)

    def test_vnir_bands_pass_through_untouched(self):
        vnir, swir = _dual_cubes()
        merged, _ = geo.bundle(vnir, swir)
        assert np.array_equal(merged.data[:, :, :60], vnir.data)

    def test_low_confidence_patch_dropped(self):
        # one patch pair of independent noise whose correlation has no
        # clear peak; the fifteen identical patches around it register
        rng = np.random.default_rng(35)
        noise_ref, noise_mov = rng.normal(size=(2, 16, 16))
        assert shift_2d(noise_ref, noise_mov)[2] < geo.OFFSET_MIN_CONFIDENCE
        ref = smooth_texture(64, 64)
        mov = ref.copy()
        ref[:16, :16], mov[:16, :16] = noise_ref, noise_mov
        ys, xs, dys, dxs = geo._measure_offsets(ref, mov, 16)
        assert ys.size == 15 and (8.0, 8.0) not in zip(ys, xs)
        assert np.abs(dys).max() < 1e-6 and np.abs(dxs).max() < 1e-6

    def test_already_registered_input_keeps_residual_small(self):
        vnir, swir = _dual_cubes(shift=(0.0, 0.0))
        _, residual = geo.bundle(vnir, swir)
        assert residual < 0.1

    def test_featureless_overlap_refused(self):
        vnir, swir = _dual_cubes()
        flat_v = vnir.with_data(np.full_like(vnir.data, 5.0))
        flat_s = swir.with_data(np.full_like(swir.data, 5.0))
        with pytest.raises(EstimationError, match="featureless"):
            geo.bundle(flat_v, flat_s)

    def test_grid_mismatch_rejected(self):
        vnir, swir = _dual_cubes()
        small = SpectralCube(swir.data[:128], "radiance", swir.band_meta)
        with pytest.raises(ConfigError):
            geo.bundle(vnir, small)


# ---------------------------------------------------------------------------
# per-band loop forms of orthorectify and bundle, the references the shared
# cubic sampling plan is checked against


def _reference_orthorectify(cube, gm, height, grid):
    north, east = grid.centers()
    line, sample, valid = geo._invert_mapping(
        gm, east, north, np.asarray(height, dtype=np.float64))
    out = np.zeros((grid.rows, grid.cols, cube.bands))
    ok = valid.copy()
    for b in range(cube.bands):
        vals, good = kernels.bicubic_sample(
            cube.data[:, :, b].astype(np.float64), line, sample)
        out[:, :, b] = vals
        ok &= good | ~valid
    out[~valid] = 0.0
    if cube.pixel_kind == "dn12":
        out = np.clip(np.rint(out), 0, 4095)
    return out.astype(cube.data.dtype), ok


def _poly_design(y, x, degree):
    """Columns ``y**i * x**j`` for i, j <= degree, i slowest."""
    return np.stack([y ** i * x ** j for i in range(degree + 1)
                     for j in range(degree + 1)], axis=-1)


def _reference_bundle(vnir, swir, patch=64, degree=2):
    v_centers, s_centers = vnir.centers_nm, swir.centers_nm
    shared = np.nonzero(s_centers <= v_centers.max())[0]
    pairs = [(int(np.argmin(np.abs(v_centers - s_centers[sb]))), sb)
             for sb in shared]
    samples = [[], [], [], []]
    for vb, sb in pairs:
        try:
            found = geo._measure_offsets(vnir.data[:, :, vb],
                                         swir.data[:, :, sb], patch)
        except EstimationError:
            continue
        for lst, arr in zip(samples, found):
            lst.append(arr)
    ys, xs, dys, dxs = (np.concatenate(s) for s in samples)
    rows, cols = vnir.data.shape[:2]
    design = _poly_design(ys / rows, xs / cols, degree)
    cy, *_ = np.linalg.lstsq(design, dys, rcond=None)
    cx, *_ = np.linalg.lstsq(design, dxs, rcond=None)
    gy, gx = np.meshgrid(np.arange(rows) / rows, np.arange(cols) / cols,
                         indexing="ij")
    full = _poly_design(gy, gx, degree)
    map_y = np.arange(rows)[:, None] + full @ cy
    map_x = np.arange(cols)[None, :] + full @ cx
    swir_reg = np.empty(swir.data.shape)
    for b in range(swir.bands):
        swir_reg[:, :, b], _ = kernels.bicubic_sample(
            swir.data[:, :, b].astype(np.float64), map_y, map_x)
    resid = 0.0
    for vb, sb in pairs:
        try:
            _, _, rdy, rdx = geo._measure_offsets(
                vnir.data[:, :, vb], swir_reg[:, :, sb], patch)
        except EstimationError:
            continue
        resid = max(resid, float(np.hypot(rdy, rdx).max()))
    keep = np.nonzero(s_centers > v_centers.max())[0]
    return np.concatenate([vnir.data, swir_reg[:, :, keep]], axis=2), resid


def _distinct_bands(cube):
    """The same cube with a different gain per band."""
    return cube.with_data(cube.data * np.linspace(0.5, 1.5, cube.bands))


class TestSamplingPlanReferences:
    @pytest.mark.parametrize("pixel_kind", ["radiance", "dn12"])
    def test_orthorectify_equals_per_band_loop(self, pixel_kind):
        tex = smooth_texture(48, 40, seed=5, scale=400.0, level=2000.0)
        data = tex[:, :, None] * np.linspace(0.6, 1.4, 6)
        if pixel_kind == "dn12":
            data = np.clip(np.rint(data), 0, 4095)
        cube = SpectralCube(data, pixel_kind, uniform_band_meta(6, "vnir"))
        gm = geo.make_geo(48, 40, roll=np.deg2rad(0.1),
                          pitch=np.deg2rad(-0.05))
        # a grid wider than the strip, so some cells are masked
        grid = geo.footprint_grid(gm, -2, 30.0)
        ortho, valid, _ = geo.orthorectify(cube, gm, 0.0, grid)
        expect, expect_valid = _reference_orthorectify(cube, gm, 0.0, grid)
        assert not expect_valid.all()
        assert ortho.data.dtype == cube.data.dtype
        assert np.array_equal(ortho.data, expect)
        assert np.array_equal(valid, expect_valid)

    def test_bundle_equals_per_band_loop(self):
        vnir, swir = _dual_cubes(rows=128, cols=128)
        swir = _distinct_bands(swir)
        merged, resid = geo.bundle(vnir, swir)
        expect, expect_resid = _reference_bundle(vnir, swir, patch=32)
        assert np.array_equal(merged.data, expect)
        assert resid == expect_resid

    @pytest.mark.parametrize("vnir_bands", [4, 6, 7, 20])
    def test_bundle_with_few_vnir_bands_equals_per_band_loop(self,
                                                             vnir_bands):
        # the seven SWIR bands up to 900 nm overlap every VNIR layout here:
        # fewer, as many and more VNIR bands than shared ones
        vnir, swir = _dual_cubes(rows=128, cols=128, vnir_bands=vnir_bands)
        vnir, swir = _distinct_bands(vnir), _distinct_bands(swir)
        merged, resid = geo.bundle(vnir, swir)
        expect, expect_resid = _reference_bundle(vnir, swir, patch=32)
        assert merged.bands == vnir_bands + 249
        assert np.array_equal(merged.data, expect)
        assert resid == expect_resid

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bundle_holds_no_full_cube_temporaries(self, workers,
                                                   monkeypatch):
        vnir, swir = _dual_cubes(rows=128, cols=128)
        # 1 MB band chunks, split over the workers: the chunk buffers stay
        # a sliver of the cube, so any full-cube temporary shows against
        # the merged cube's size
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            merged, _ = geo.bundle(vnir, swir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * merged.data.nbytes


class TestInterchange:
    def test_gcp_round_trip(self, tmp_path):
        gm = geo.make_geo(64, 64)
        gcps = sim.survey_gcps(gm, 10, 5.0, 1, "s1")
        geo.write_gcps(tmp_path / "g.csv", gcps)
        back = geo.read_gcps(tmp_path / "g.csv")
        assert len(back) == 10
        assert back[0].strip_id == "s1"
        assert back[3].east == pytest.approx(gcps[3].east)

    def test_bad_gcp_header_rejected(self, tmp_path):
        (tmp_path / "g.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            geo.read_gcps(tmp_path / "g.csv")

    @pytest.mark.parametrize("row, message", [
        ("1,2,3,4\n", r"g\.csv row 3: column 'height' is missing"),
        ("1,2,x,4,5,s\n", r"g\.csv row 3: column 'east': 'x'")])
    def test_bad_gcp_row_named(self, tmp_path, row, message):
        (tmp_path / "g.csv").write_text(
            "line,sample,east,north,height,strip_id\n1,2,3,4,5,s\n" + row)
        with pytest.raises(ConfigError, match=message):
            geo.read_gcps(tmp_path / "g.csv")

    def test_grid_round_trip(self, tmp_path):
        grid = geo.MapGrid(123.5, -77.25, 30.0, 10, 12)
        geo.write_grid(tmp_path / "g.txt", grid)
        assert geo.read_grid(tmp_path / "g.txt") == grid

    def test_grid_missing_field_rejected(self, tmp_path):
        (tmp_path / "g.txt").write_text("origin_east = 1.0\nrows = 4\n")
        with pytest.raises(ConfigError):
            geo.read_grid(tmp_path / "g.txt")

    @pytest.mark.parametrize("field", ["origin_east", "rows"])
    def test_grid_non_numeric_field_rejected(self, tmp_path, field):
        grid = geo.MapGrid(123.5, -77.25, 30.0, 10, 12)
        geo.write_grid(tmp_path / "g.txt", grid)
        text = (tmp_path / "g.txt").read_text().splitlines(True)
        (tmp_path / "g.txt").write_text("".join(
            f"{field} = x\n" if line.startswith(field) else line
            for line in text))
        with pytest.raises(ConfigError, match=f"'{field}'"):
            geo.read_grid(tmp_path / "g.txt")

    def test_grid_garbled_line_rejected(self, tmp_path):
        grid = geo.MapGrid(123.5, -77.25, 30.0, 10, 12)
        geo.write_grid(tmp_path / "g.txt", grid)
        with open(tmp_path / "g.txt", "a") as fh:
            fh.write("cols 12\n")
        with pytest.raises(CubeFormatError, match="garbled"):
            geo.read_grid(tmp_path / "g.txt")

    def test_bias_report_contents(self, tmp_path):
        bias = geo.BoresightBias(np.deg2rad(0.02), 0.0, 0.0)
        geo.write_bias_report(tmp_path / "b.txt", bias, 12.5)
        assert (tmp_path / "b.txt").read_bytes() == (
            b"delta_roll_deg = 0.020000\ndelta_pitch_deg = 0.000000\n"
            b"delta_yaw_deg = 0.000000\nfinal_cost_m = 12.500000\n")
