"""Numeric kernels: cubic-convolution resampling and Gaussian band
integration, checked against plain-Python per-point references."""

import math
import tracemalloc

import numpy as np
import pytest

from scipy import sparse

from hypercal import kernels

from conftest import same_bits


def _texture(rows=6, cols=128, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(50.0, 10.0, (rows, cols))


def _resample_row(sig, coords):
    """One-row :func:`kernels.resample_rows` call."""
    out, valid = kernels.resample_rows(sig[None, :], coords[None, :])
    return out[0], valid[0]


class TestResample:
    def test_integer_coordinates_bit_exact(self):
        img = _texture()
        coords = np.tile(np.arange(128.0), (6, 1))
        out, valid = kernels.resample_rows(img, coords)
        assert np.array_equal(out, img)
        assert valid.all()

    def test_quadratic_signal_reproduced(self):
        # the a=-0.5 cubic kernel is exact for polynomials up to degree 2
        x = np.arange(64.0)
        sig = 0.3 * x * x - 2.0 * x + 5.0
        coords = x - 0.41
        out, valid = _resample_row(sig, coords)
        expect = 0.3 * coords ** 2 - 2.0 * coords + 5.0
        assert np.allclose(out[valid], expect[valid], atol=1e-9)

    def test_kernel_weights_sum_to_one(self):
        sig = np.full(32, 7.25)
        out, valid = _resample_row(sig, np.arange(32.0) + 0.37)
        assert np.allclose(out[valid], 7.25, atol=1e-12)

    def test_out_of_range_coordinates_invalid_but_clamped(self):
        sig = np.arange(16.0)
        coords = np.linspace(-2.0, 20.0, 16)
        out, valid = _resample_row(sig, coords)
        assert not valid[coords < 0.0].any()
        assert not valid[coords > 15.0].any()
        assert np.isfinite(out).all()

    def test_edge_support_marked_invalid(self):
        sig = np.arange(16.0)
        coords = np.arange(16.0) + 0.5
        coords[-1] = 14.5
        _, valid = _resample_row(sig, coords)
        assert not valid[0] and valid[4] and not valid[-1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernels.resample_rows(np.zeros((2, 8)), np.zeros((2, 9)))

    def test_one_dimensional_image_rejected(self):
        # slicing the first axis of a 1-D image would cut the row itself
        with pytest.raises(ValueError):
            kernels.resample_rows(np.arange(8.0), np.arange(8.0) + 0.5)


class TestResampleSlices:
    """:func:`kernels.resample_rows` runs slices of its first axis on the
    pool; the split, the output buffer and the input's layout and dtype
    leave every output byte as the one-task call writes it."""

    def _case(self, shared=True):
        rng = np.random.default_rng(31)
        img = rng.normal(50.0, 10.0, (7, 5, 40))
        coords = _test_coords(rng, (1 if shared else 7, 5, 40), 40)
        return img, coords

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shared", [True, False])
    def test_out_in_place_and_strided_equal_plain_call(self, workers, shared,
                                                       monkeypatch):
        img, coords = self._case(shared)
        plain, valid = kernels.resample_rows(img, coords)
        # two of the seven lines per task: four tasks at any count
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * 5 * 40 * 2 * workers)
        same = img.copy()
        got, got_valid = kernels.resample_rows(same, coords, out=same)
        assert got is same and np.array_equal(same, plain)
        assert np.array_equal(got_valid, valid)
        big = np.zeros((7, 10, 40))
        got, _ = kernels.resample_rows(img, coords, out=big[:, ::2])
        assert np.array_equal(got, plain) and not big[:, 1::2].any()
        turned = np.zeros((40, 5, 7)).transpose(2, 1, 0)
        kernels.resample_rows(img, coords, out=turned)
        assert np.array_equal(turned, plain)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strided_uint16_view_equals_float64_copy(self, workers,
                                                     monkeypatch):
        img, coords = self._case()
        cube = np.rint(img).astype(np.uint16).transpose(0, 2, 1)
        view = cube.transpose(0, 2, 1)
        plain, _ = kernels.resample_rows(view.astype(np.float64), coords)
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * 5 * 40 * 3 * workers)
        got, _ = kernels.resample_rows(view, coords)
        assert np.array_equal(got, plain)


def _take_along_resample_rows(image, coords):
    """The ``take_along_axis`` form of :func:`kernels.resample_rows` in one
    task: broadcast fancy indices per tap, summed from zero in tap order,
    exact coordinates then copied."""
    image = np.asarray(image)
    taps, weights, i0, exact, valid = kernels._axis_taps(
        np.asarray(coords, dtype=np.float64), image.shape[-1])
    acc = np.zeros(image.shape)
    for idx, w in zip(taps, weights):
        acc += w * np.take_along_axis(image, idx, axis=-1)
    if exact.any():
        np.copyto(acc, np.take_along_axis(image, i0, axis=-1), where=exact)
    return acc, valid


def _resample_case(name):
    """``(image, coords, out)`` of one layout :func:`kernels.resample_rows`
    is called with; ``out`` None, an array or ``"image"``.  Whole columns
    of -0.0 samples sit among the taps, which exact coordinates copy."""
    rng = np.random.default_rng(41)
    cube = rng.normal(50.0, 10.0, (7, 9, 13))
    cube[..., 4] = cube[:, 4] = -0.0
    if name == "shared-3d":             # smile: one row for every line
        return cube, _test_coords(rng, (1, 9, 13), 13), None
    if name == "keystone-turned":       # rows along the samples of a view
        out = np.full(cube.shape, 7.0)
        return (cube.transpose(0, 2, 1), _test_coords(rng, (1, 13, 9), 9),
                out.transpose(0, 2, 1))
    if name == "per-band-broadcast":    # the render: a row per band
        return cube, _test_coords(rng, (7, 1, 13), 13), None
    if name == "per-row-2d":            # the smile's window stacks
        return cube[:, 0], _test_coords(rng, (7, 13), 13), None
    if name == "strided-uint16":
        raw = np.rint(np.abs(rng.normal(900.0, 300.0, (14, 9, 27))))
        return (raw.astype(np.uint16)[::2, :, 1::2],
                _test_coords(rng, (1, 9, 13), 13), None)
    if name == "exact":
        return cube, np.broadcast_to(np.arange(13.0), (1, 9, 13)), None
    if name == "in-place":
        return cube, _test_coords(rng, (7, 9, 13), 13), "image"
    if name == "zero-items":
        return np.zeros((0, 4, 8)), np.zeros((1, 4, 8)), None
    return np.zeros((3, 0, 8)), np.zeros((1, 0, 8)), None   # zero rows


_RESAMPLE_CASES = ["shared-3d", "keystone-turned", "per-band-broadcast",
                   "per-row-2d", "strided-uint16", "exact", "in-place",
                   "zero-items", "zero-rows"]


class TestResampleEqualsTakeAlong:
    """The flat-index gathers write the bits of the ``take_along_axis``
    form, sign bits included, whatever the layout, the worker count and
    the split (one item per task at a one-byte budget)."""

    @pytest.mark.parametrize("chunk", [None, 1])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", _RESAMPLE_CASES)
    def test_same_bits(self, case, workers, chunk, monkeypatch):
        image, coords, out = _resample_case(case)
        expect, expect_valid = _take_along_resample_rows(image, coords)
        monkeypatch.setattr(kernels, "WORKERS", workers)
        if chunk is not None:
            monkeypatch.setattr(kernels, "_CHUNK_BYTES", chunk)
        if isinstance(out, str):
            out = image = image.copy()
        got, valid = kernels.resample_rows(image, coords, out=out)
        assert out is None or got is out
        assert same_bits(got, expect)
        assert np.array_equal(valid, expect_valid)


class TestBandMap:
    @pytest.mark.parametrize("n,item_bytes,expect", [
        (0, 100, []),
        (3, 1000, [(0, 1), (1, 2), (2, 3)]),      # one item over the share
        (7, 200, [(0, 3), (3, 6), (6, 7)]),       # uneven last slice
        (7, 0, [(0, 7)]),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_slices_cover_range_once_in_order(self, n, item_bytes, expect,
                                              workers, monkeypatch):
        # a 600-byte share per worker
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 600 * workers)
        seen = []
        kernels.band_map(seen.append, n, item_bytes)
        got = [(sl.start, sl.stop) for sl in seen]
        if workers > 1:
            got.sort()
        assert got == expect


class TestBicubic:
    def test_integer_grid_bit_exact(self):
        img = _texture(32, 32, seed=1)
        yy, xx = np.meshgrid(np.arange(32.0), np.arange(32.0), indexing="ij")
        out, valid = kernels.bicubic_sample(img, yy, xx)
        assert np.array_equal(out, img)

    def test_matches_row_resampling_for_pure_column_shift(self):
        img = _texture(8, 64, seed=2)
        coords = np.tile(np.arange(64.0) - 0.3, (8, 1))
        rows_out, rows_valid = kernels.resample_rows(img, coords)
        yy = np.tile(np.arange(8.0)[:, None], (1, 64))
        out, valid = kernels.bicubic_sample(img, yy, coords)
        assert np.allclose(out, rows_out, atol=1e-12)

    def test_bilinear_plane_reproduced(self):
        yy, xx = np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij")
        img = 2.0 * yy + 3.0 * xx + 1.0
        sy = yy - 0.45
        sx = xx + 0.21
        out, valid = kernels.bicubic_sample(img, sy, sx)
        expect = 2.0 * sy + 3.0 * sx + 1.0
        assert np.allclose(out[valid], expect[valid], atol=1e-9)


class TestBandIntegrals:
    def _inputs(self, seed=3):
        rng = np.random.default_rng(seed)
        spectra = rng.uniform(10.0, 100.0, (2, 501))
        centers = rng.uniform(500.0, 800.0, (4, 8))
        sigmas = np.array([3.0, 4.0, 5.0, 6.0])
        return spectra, 400.0, 1.0, centers, sigmas

    def test_matches_direct_quadrature(self):
        spectra, wl0, dwl, centers, sigmas = self._inputs()
        out = kernels.band_integrals(spectra, wl0, dwl, centers, sigmas)
        grid = wl0 + dwl * np.arange(spectra.shape[1])
        for b in range(4):
            for s in range(8):
                t = (grid - centers[b, s]) / sigmas[b]
                w = np.exp(-0.5 * t * t)
                w[np.abs(t) > 5.0] = 0.0
                for k in range(2):
                    expect = (w * spectra[k]).sum() / w.sum()
                    assert out[b, s, k] == pytest.approx(expect, rel=1e-9)

    def test_constant_spectrum_passes_through(self):
        spectra = np.full((1, 301), 42.0)
        centers = np.full((2, 4), 550.0)
        out = kernels.band_integrals(spectra, 400.0, 1.0, centers,
                                     np.array([4.0, 9.0]))
        assert np.allclose(out, 42.0, atol=1e-12)


def _keys(t):
    at = abs(t)
    if at <= 1.0:
        return (1.5 * at - 2.5) * at * at + 1.0
    if at < 2.0:
        return -0.5 * (((at - 5.0) * at + 8.0) * at - 4.0)
    return 0.0


def _clamp(v, lo, hi):
    return min(max(v, lo), hi)


def _ref_resample(signal, c):
    """Plain-Python Keys resampling of one point: value and validity."""
    n = len(signal)
    x = _clamp(c, 0.0, n - 1.0)
    i0 = math.floor(x)
    frac = x - i0
    inb = 0.0 <= c <= n - 1.0
    if frac == 0.0:
        return signal[i0], inb
    val = 0.0
    for k in range(-1, 3):
        val += _keys(frac - k) * signal[_clamp(i0 + k, 0, n - 1)]
    return val, inb and i0 - 1 >= 0 and i0 + 2 <= n - 1


def _ref_bicubic(image, yc, xc):
    """Plain-Python 4x4-tap Keys sample of one point: value and validity."""
    ny, nx = image.shape
    y = _clamp(yc, 0.0, ny - 1.0)
    x = _clamp(xc, 0.0, nx - 1.0)
    iy, ix = math.floor(y), math.floor(x)
    fy, fx = y - iy, x - ix
    val = 0.0
    for ky in range(-1, 3):
        row = 0.0
        for kx in range(-1, 3):
            row += _keys(fx - kx) * image[_clamp(iy + ky, 0, ny - 1),
                                          _clamp(ix + kx, 0, nx - 1)]
        val += _keys(fy - ky) * row
    ok_y = fy == 0.0 or (iy - 1 >= 0 and iy + 2 <= ny - 1)
    ok_x = fx == 0.0 or (ix - 1 >= 0 and ix + 2 <= nx - 1)
    inb = 0.0 <= yc <= ny - 1.0 and 0.0 <= xc <= nx - 1.0
    return val, inb and ok_y and ok_x


def _test_coords(rng, shape, n):
    """Random coordinates over [-3, n + 2) with exact integers, the ends
    of the extent and the half-sample points next to the edges mixed in."""
    c = rng.uniform(-3.0, n + 2.0, shape)
    c.flat[::5] = np.round(c.flat[::5])
    specials = [0.0, n - 1.0, 0.5, 1.5, n - 2.5, n - 1.5, -0.5, n - 0.5]
    c.flat[1:8 * 7:7] = specials
    return c


class TestReferenceKernel:
    def test_resample_rows_matches_per_point_reference(self):
        rng = np.random.default_rng(10)
        img = _texture(5, 40, seed=11)
        coords = _test_coords(rng, img.shape, 40)
        # a NaN sample: exact integer coordinates next to it must still
        # return their own sample, not a zero-weighted NaN
        img[2, 20] = np.nan
        coords[2, 10:14] = [18.0, 19.0, 21.0, 22.0]
        out, valid = kernels.resample_rows(img, coords)
        for r in range(img.shape[0]):
            for j in range(img.shape[1]):
                val, ok = _ref_resample(img[r], coords[r, j])
                assert out[r, j] == pytest.approx(val, abs=1e-12,
                                                  nan_ok=True)
                assert valid[r, j] == ok

    def test_bicubic_sample_matches_per_point_reference(self):
        rng = np.random.default_rng(12)
        img = _texture(20, 30, seed=13)
        yy = _test_coords(rng, (15, 15), 20)
        xx = _test_coords(rng, (15, 15), 30)
        xx[10:] = np.round(xx[10:])
        out, valid = kernels.bicubic_sample(img, yy, xx)
        for i in range(yy.shape[0]):
            for j in range(yy.shape[1]):
                val, ok = _ref_bicubic(img, yy[i, j], xx[i, j])
                assert out[i, j] == pytest.approx(val, abs=1e-12)
                assert valid[i, j] == ok


def _taps_bicubic(image, yy, xx):
    """The one-band tap loop the sampling plan replaced: per row tap, the
    four column taps summed into ``row``, then ``out += wy * row``."""
    image = np.asarray(image, dtype=np.float64)
    rows, wys, *_ = kernels._axis_taps(yy, image.shape[0])
    cols, wxs, *_ = kernels._axis_taps(xx, image.shape[1])
    out = np.zeros(yy.shape)
    for ry, wy in zip(rows, wys):
        row = np.zeros(yy.shape)
        for rx, wx in zip(cols, wxs):
            row += wx * image[ry, rx]
        out += wy * row
    return out


def _int64_csr_sample(stack, yy, xx):
    """:func:`kernels.cubic_apply` as four CSR products with int64 indices
    built here from the axis taps: per row tap, its sparse product with the
    float64 ``(ny*nx, bands)`` source times the row weights, summed from
    zero."""
    ny, nx, nb = stack.shape
    rows, wys, *_ = kernels._axis_taps(yy.ravel(), ny)
    cols, wxs, *_ = kernels._axis_taps(xx.ravel(), nx)
    n = yy.size
    wx = np.stack(wxs, axis=-1).ravel()
    indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int64)
    src = stack.reshape(ny * nx, nb).astype(np.float64)
    out = np.zeros((n, nb))
    for r, wy in zip(rows, wys):
        index = np.stack([r * nx + c for c in cols], axis=-1).ravel()
        taps = sparse.csr_array((wx, index, indptr), shape=(n, ny * nx))
        assert taps.indices.dtype == taps.indptr.dtype == np.int64
        row = taps @ src
        row *= wy[:, None]
        out += row
    return out.reshape(yy.shape + (nb,))


class TestCubicPlan:
    def _case(self, dtype, bands=7, seed=20):
        rng = np.random.default_rng(seed)
        if dtype == np.uint16:
            stack = rng.integers(0, 4096, (20, 30, bands)).astype(np.uint16)
        else:
            stack = rng.normal(50.0, 10.0, (20, 30, bands))
        yy = _test_coords(rng, (15, 15), 20)
        xx = _test_coords(rng, (15, 15), 30)
        xx[10:] = np.round(xx[10:])
        return stack, yy, xx

    @pytest.mark.parametrize("dtype", [np.float64, np.uint16])
    def test_apply_equals_per_band_sampling(self, dtype, monkeypatch):
        stack, yy, xx = self._case(dtype)
        # three-band float64 blocks of the 20 x 30 grid: the uint16 stack's
        # seven bands leave a one-band remainder block
        monkeypatch.setattr(kernels, "_COPY_BYTES", 8 * 20 * 30 * 3)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        out = kernels.cubic_apply(plan, stack)
        for b in range(stack.shape[2]):
            vals, valid = kernels.bicubic_sample(stack[:, :, b], yy, xx)
            assert np.array_equal(out[:, :, b], vals)
            assert np.array_equal(out[:, :, b],
                                  _taps_bicubic(stack[:, :, b], yy, xx))
            assert np.array_equal(plan.valid, valid)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint16])
    def test_all_bands_into_strided_out_view(self, dtype, monkeypatch):
        # every band written into a band range of a wider buffer, as bundle
        # writes the registered SWIR bands into the merged cube
        stack, yy, xx = self._case(dtype, bands=9)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * yy.size * 2)
        monkeypatch.setattr(kernels, "_COPY_BYTES", 8 * 20 * 30)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        target = np.full(yy.shape + (11,), -1.0)
        got = kernels.cubic_apply(plan, stack, out=target[:, :, 1:10])
        assert np.shares_memory(got, target)
        assert (target[:, :, 0] == -1.0).all() and (target[:, :, 10] == -1.0).all()
        for b in range(stack.shape[2]):
            vals, _ = kernels.bicubic_sample(stack[:, :, b], yy, xx)
            assert np.array_equal(target[:, :, 1 + b], vals)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bands", [1, 3, 4, 9])
    def test_out_over_the_stack_equals_out_of_place(self, bands, workers,
                                                    monkeypatch):
        # the 225 points sampled into the leading rows of the stack's own
        # (600, 9) view, in copied blocks of 1, 3, 4 and all 9 bands (the
        # 3- and 4-band blocks leave a remainder), tasks of 180 / bands
        # points; a -0.0 band samples to +0.0 either way
        stack, yy, xx = self._case(np.float64, bands=9)
        stack[:, :, 4] = -0.0
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * 9 * 20 * workers)
        monkeypatch.setattr(kernels, "_COPY_BYTES", 8 * 20 * 30 * bands)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        expect = kernels.cubic_apply(plan, stack)
        out = stack.reshape(-1, 9)[:yy.size].reshape(yy.shape + (9,))
        got = kernels.cubic_apply(plan, stack, out=out)
        assert got is out
        assert same_bits(got, expect)

    @pytest.mark.parametrize("layout", ["shifted", "strided stack"])
    def test_out_over_other_band_columns_rejected(self, layout):
        # a store into those columns could overwrite bands not yet copied
        stack, yy, xx = self._case(np.float64, bands=9)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        if layout == "shifted":  # one band over
            out = stack.reshape(-1)[1:1 + 9 * yy.size]
        else:                    # the stack a band-reversed view
            out, stack = stack.reshape(-1)[:9 * yy.size], stack[:, :, ::-1]
        with pytest.raises(ValueError, match="band columns"):
            kernels.cubic_apply(plan, stack, out=out.reshape(yy.shape + (9,)))

    def test_out_whose_point_axes_do_not_merge_rejected(self):
        stack, yy, xx = self._case(np.float64)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        target = np.zeros((15, 16, 7))
        with pytest.raises(ValueError, match="merge"):
            kernels.cubic_apply(plan, stack, out=target[:, :15])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint16])
    def test_worker_count_does_not_change_output(self, workers, dtype,
                                                 monkeypatch):
        # 20-point tasks over the float64 stack's nine bands, 180-point
        # tasks over each one-band block of the uint16 one, at any count:
        # the 225 points leave a remainder slice either way
        stack, yy, xx = self._case(dtype, bands=9)
        monkeypatch.setattr(kernels, "WORKERS", workers)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * 9 * 20 * workers)
        monkeypatch.setattr(kernels, "_COPY_BYTES", 8 * 20 * 30)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        out = kernels.cubic_apply(plan, stack)
        for b in range(stack.shape[2]):
            assert np.array_equal(out[:, :, b],
                                  _taps_bicubic(stack[:, :, b], yy, xx))

    def test_worker_tasks_keep_the_callers_errstate(self, monkeypatch):
        # an inf sample on the row after exact row coordinates and at the
        # exact column: that row tap's product is inf and its row weight
        # zero, so 0 * inf, which the caller's np.errstate silences;
        # four-point tasks on two workers (15 points: a three-point
        # remainder) run it on worker threads, which must see the same
        # errstate
        rng = np.random.default_rng(25)
        stack = rng.normal(50.0, 10.0, (12, 9, 4))
        stack[5, 3] = np.inf
        yy = np.full((3, 5), 4.0)
        xx = np.full((3, 5), 3.0)
        monkeypatch.setattr(kernels, "WORKERS", 2)
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * 4 * 4 * 2)
        plan = kernels.cubic_plan(stack.shape[:2], yy, xx)
        with np.errstate(invalid="ignore"):
            out = kernels.cubic_apply(plan, stack)
            expect = [_taps_bicubic(stack[:, :, b], yy, xx)
                      for b in range(stack.shape[2])]
        for b in range(stack.shape[2]):
            assert np.isnan(out[:, :, b]).all()
            assert np.array_equal(out[:, :, b], expect[b], equal_nan=True)

    def test_grid_mismatch_rejected(self):
        plan = kernels.cubic_plan((20, 30), np.zeros((4, 4)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            kernels.cubic_apply(plan, np.zeros((30, 20, 2)))

    def test_bicubic_sample_equals_tap_loop(self):
        rng = np.random.default_rng(21)
        img = _texture(40, 50, seed=22)
        yy = _test_coords(rng, (30, 30), 40)
        xx = _test_coords(rng, (30, 30), 50)
        out, _ = kernels.bicubic_sample(img, yy, xx)
        assert np.array_equal(out, _taps_bicubic(img, yy, xx))

    @pytest.mark.parametrize("shape", [(12, 9), (1, 9), (9, 1), (1, 1)])
    def test_non_finite_and_clamped_taps(self, shape):
        # a NaN, a +inf and a -0.0 sample; coordinates inside, on the
        # edges and entirely outside the grid, where every tap of a point
        # is clamped onto one sample with the zero weights of an exact
        # coordinate: summing the duplicates or dropping zero weights
        # turns 0 * inf = NaN into a finite value
        ny, nx = shape
        rng = np.random.default_rng(23)
        stack = rng.normal(50.0, 10.0, shape + (5,))
        stack[0, 0, 1] = np.nan
        stack[-1, -1, 2] = np.inf
        stack[0, nx // 2, 3] = np.inf
        stack[..., 4] = -0.0
        yy = np.concatenate([_test_coords(rng, (6, 6), ny),
                             np.full((2, 6), -4.0), np.full((2, 6), ny + 3.0)])
        xx = np.concatenate([_test_coords(rng, (6, 6), nx),
                             np.full((2, 6), nx + 3.0), np.full((2, 6), -4.0)])
        plan = kernels.cubic_plan(shape, yy, xx)
        with np.errstate(invalid="ignore"):  # the 0 * inf products
            out = kernels.cubic_apply(plan, stack)
        for b in range(stack.shape[2]):
            with np.errstate(invalid="ignore"):
                expect = _taps_bicubic(stack[:, :, b], yy, xx)
            assert np.array_equal(out[:, :, b], expect, equal_nan=True)
            assert np.array_equal(np.signbit(out[:, :, b]), np.signbit(expect))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_apply_holds_four_chunk_temporaries(self, workers, monkeypatch):
        # 256 bands of 256 x 256 uint16 in 4 MB float64 blocks of 8 bands,
        # points split over the workers: the block plus the row products
        # and accumulators of the tasks in flight (2 MB each); a float64
        # copy of the stack (128 MB) goes past the bound
        monkeypatch.setattr(kernels, "WORKERS", workers)
        rng = np.random.default_rng(24)
        stack = rng.integers(0, 4096, (256, 256, 256)).astype(np.uint16)
        yy = _test_coords(rng, (256, 256), 256)
        xx = _test_coords(rng, (256, 256), 256)
        plan = kernels.cubic_plan((256, 256), yy, xx)
        out = np.empty((256, 256, 256))
        tracemalloc.start()
        try:
            kernels.cubic_apply(plan, stack, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 36 << 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_place_float64_stack_is_not_copied(self, workers,
                                                  monkeypatch):
        # the float64 twin: a C-contiguous 256 x 256 x 256 stack is read in
        # place, so only the row products and accumulators of the tasks in
        # flight are held (8 MB each); a copy of the stack (128 MB) or of
        # one 8 MB band block goes past the bound
        monkeypatch.setattr(kernels, "WORKERS", workers)
        rng = np.random.default_rng(26)
        stack = rng.normal(50.0, 10.0, (256, 256, 256))
        yy = _test_coords(rng, (256, 256), 256)
        xx = _test_coords(rng, (256, 256), 256)
        plan = kernels.cubic_plan((256, 256), yy, xx)
        out = np.empty((256, 256, 256))
        tracemalloc.start()
        try:
            kernels.cubic_apply(plan, stack, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20

    def test_desk_plan_has_int32_indices(self):
        rng = np.random.default_rng(27)
        yy = _test_coords(rng, (256, 256), 256)
        xx = _test_coords(rng, (256, 256), 256)
        plan = kernels.cubic_plan((256, 256), yy, xx)
        for taps in plan.taps:
            assert taps.indices.dtype == taps.indptr.dtype == np.int32
            rows = kernels._point_rows(taps, slice(100, 300))
            assert rows.indices.dtype == rows.indptr.dtype == np.int32

    def test_plan_past_int32_has_int64_indices(self):
        # a 70000 x 70000 grid has more samples than int32 indexes; the
        # plan of a few points on it holds only their taps, never the grid
        rng = np.random.default_rng(28)
        yy = rng.uniform(0.0, 69999.0, (3, 4))
        xx = rng.uniform(0.0, 69999.0, (3, 4))
        tracemalloc.start()
        try:
            plan = kernels.cubic_plan((70000, 70000), yy, xx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for taps in plan.taps:
            assert taps.indices.dtype == taps.indptr.dtype == np.int64

    @pytest.mark.parametrize("seed", range(20))
    def test_apply_equals_int64_csr_product(self, seed):
        # random grids, point sets and band counts, with -0.0 and inf
        # samples: bit for bit, sign of zero included
        rng = np.random.default_rng(100 + seed)
        ny, nx, nb = (int(v) for v in rng.integers(1, 40, 3))
        stack = rng.normal(50.0, 10.0, (ny, nx, nb))
        stack.flat[::7] = -0.0
        stack.flat[3::50] = np.inf
        shape = tuple(int(v) for v in rng.integers(1, 30, 2))
        yy = _test_coords(rng, shape, ny)
        xx = _test_coords(rng, shape, nx)
        plan = kernels.cubic_plan((ny, nx), yy, xx)
        with np.errstate(invalid="ignore"):  # the 0 * inf products
            out = kernels.cubic_apply(plan, stack)
            expect = _int64_csr_sample(stack, yy, xx)
        assert np.array_equal(out, expect, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expect))
