"""Cube data model and raw/header file I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercal import (BandMeta, CubeFormatError, RegionOfInterest,
                      SpectralCube, read_cube, region_stats, write_cube)
from hypercal.cube import uniform_band_meta


def _cube(lines=4, samples=5, bands=3, pixel_kind="dn12", interleave="bsq",
          seed=0):
    rng = np.random.default_rng(seed)
    if pixel_kind == "dn12":
        data = rng.integers(0, 4096, size=(lines, samples, bands))
    else:
        data = rng.normal(100.0, 10.0, size=(lines, samples, bands))
    return SpectralCube(data, pixel_kind,
                        uniform_band_meta(bands, "vnir"), interleave)


def _one_shot_bytes(data, pixel_kind, interleave):
    """The payload as one whole-cube cast, transpose and copy."""
    dtype = {"dn12": "<u2", "radiance": "<f8"}[pixel_kind]
    axes = (2, 0, 1) if interleave == "bsq" else (0, 2, 1)
    return np.ascontiguousarray(
        np.transpose(data.astype(dtype), axes)).tobytes()


class TestValidation:
    def test_dn12_range_enforced(self):
        with pytest.raises(CubeFormatError):
            SpectralCube(np.full((2, 2, 1), 4096), "dn12",
                         uniform_band_meta(1, "vnir"))

    def test_dn12_boundary_value_accepted(self):
        cube = SpectralCube(np.full((2, 2, 1), 4095), "dn12",
                            uniform_band_meta(1, "vnir"))
        assert cube.data.dtype == np.uint16

    @pytest.mark.parametrize("value", [10.6, -3.0, 4095.4, np.nan])
    def test_fractional_or_out_of_range_float_dn12_rejected(self, value):
        with pytest.raises(CubeFormatError, match="whole numbers"):
            SpectralCube(np.full((1, 1, 1), value), "dn12",
                         uniform_band_meta(1, "vnir"))

    def test_whole_float_dn12_accepted(self):
        cube = SpectralCube(np.array([[[0.0, 17.0, 4095.0]]]), "dn12",
                            uniform_band_meta(3, "vnir"))
        assert cube.data.dtype == np.uint16
        assert cube.data.tolist() == [[[0, 17, 4095]]]

    def test_band_meta_length_must_match(self):
        with pytest.raises(CubeFormatError):
            SpectralCube(np.zeros((2, 2, 3)), "radiance",
                         uniform_band_meta(2, "vnir"))

    def test_centers_must_increase_per_instrument(self):
        meta = (BandMeta(500.0, 9.24, "vnir"), BandMeta(450.0, 9.24, "vnir"))
        with pytest.raises(CubeFormatError):
            SpectralCube(np.zeros((2, 2, 2)), "radiance", meta)

    def test_instrument_spectral_range_enforced(self):
        with pytest.raises(CubeFormatError):
            BandMeta(950.0, 9.24, "vnir")
        with pytest.raises(CubeFormatError):
            BandMeta(2600.0, 5.87, "swir")

    def test_unknown_pixel_kind_rejected(self):
        with pytest.raises(CubeFormatError):
            SpectralCube(np.zeros((2, 2, 1)), "counts",
                         uniform_band_meta(1, "vnir"))

    def test_bad_roi_rejected(self):
        with pytest.raises(CubeFormatError):
            RegionOfInterest(3, 1, 0, 0, 0, 0)


class TestWithData:
    def test_dn12_float_data_rounded_and_clipped(self):
        cube = _cube(lines=1, samples=1, bands=5)
        out = cube.with_data(
            np.array([[[10.6, 2.5, 3.5, -3.0, 5000.0]]]))
        assert out.data.dtype == np.uint16
        # round half to even, clipped at both ends of the 12-bit range
        assert out.data.tolist() == [[[11, 2, 4, 0, 4095]]]

    def test_radiance_float_data_unchanged(self):
        cube = _cube(lines=1, samples=1, bands=5, pixel_kind="radiance")
        data = np.array([[[10.6, 2.5, 3.5, -3.0, 5000.0]]])
        out = cube.with_data(data)
        assert out.data.dtype == np.float64
        assert np.array_equal(out.data, data)


class TestRoundTrip:
    @pytest.mark.parametrize("pixel_kind", ["dn12", "radiance"])
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_write_read_bit_exact(self, tmp_path, pixel_kind, interleave):
        cube = _cube(pixel_kind=pixel_kind, interleave=interleave)
        path = tmp_path / "c.img"
        write_cube(cube, path)
        back = read_cube(path)
        assert np.array_equal(back.data, cube.data)
        assert back.band_meta == cube.band_meta
        assert back.pixel_kind == cube.pixel_kind
        assert back.interleave == cube.interleave

    @pytest.mark.parametrize("pixel_kind", ["dn12", "radiance"])
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_streamed_bytes_equal_one_shot_write(self, tmp_path, pixel_kind,
                                                 interleave):
        cube = _cube(lines=6, samples=7, bands=5, pixel_kind=pixel_kind)
        write_cube(cube, tmp_path / "c.img", interleave=interleave)
        assert (tmp_path / "c.img").read_bytes() == \
            _one_shot_bytes(cube.data, pixel_kind, interleave)

    def test_float_data_written_as_dn12_casts_per_slab(self, tmp_path):
        cube = _cube(lines=6, samples=7, bands=5)
        # write_cube casts whatever array the cube holds to the file dtype
        data = cube.data.astype(np.float64) + 0.25
        object.__setattr__(cube, "data", data)
        for interleave in ("bsq", "bil"):
            write_cube(cube, tmp_path / "c.img", interleave=interleave)
            assert (tmp_path / "c.img").read_bytes() == \
                _one_shot_bytes(data, "dn12", interleave)

    def test_interleave_conversion_preserves_values(self, tmp_path):
        cube = _cube(interleave="bsq")
        write_cube(cube, tmp_path / "c.img", interleave="bil")
        back = read_cube(tmp_path / "c.img")
        assert back.interleave == "bil"
        assert np.array_equal(back.data, cube.data)

    def test_bad_band_quality_round_trips(self, tmp_path):
        cube = _cube().with_quality([1])
        write_cube(cube, tmp_path / "c.img")
        assert read_cube(tmp_path / "c.img").bad_bands == [1]

    def test_missing_header_reported(self, tmp_path):
        cube = _cube()
        write_cube(cube, tmp_path / "c.img")
        (tmp_path / "c.hdr").unlink()
        with pytest.raises(CubeFormatError):
            read_cube(tmp_path / "c.img")

    def test_truncated_payload_reported(self, tmp_path):
        cube = _cube()
        path = tmp_path / "c.img"
        write_cube(cube, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(CubeFormatError):
            read_cube(path)

    def test_garbled_header_reported(self, tmp_path):
        cube = _cube()
        write_cube(cube, tmp_path / "c.img")
        (tmp_path / "c.hdr").write_text("lines ???\n")
        with pytest.raises(CubeFormatError):
            read_cube(tmp_path / "c.img")

    @settings(max_examples=25, deadline=None)
    @given(lines=st.integers(1, 6), samples=st.integers(1, 6),
           bands=st.integers(1, 4),
           interleave=st.sampled_from(["bsq", "bil"]),
           pixel_kind=st.sampled_from(["dn12", "radiance"]),
           seed=st.integers(0, 2**16))
    def test_round_trip_property(self, tmp_path_factory, lines, samples,
                                 bands, interleave, pixel_kind, seed):
        tmp = tmp_path_factory.mktemp("cube")
        cube = _cube(lines, samples, bands, pixel_kind, interleave, seed)
        write_cube(cube, tmp / "c.img")
        back = read_cube(tmp / "c.img")
        assert np.array_equal(back.data, cube.data)
        assert back.band_meta == cube.band_meta


class TestRegionStats:
    def test_population_std_and_mean(self):
        data = np.zeros((2, 2, 1))
        data[:, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
        cube = SpectralCube(data, "radiance", uniform_band_meta(1, "vnir"))
        stats = region_stats(cube, cube.full_roi())
        assert stats["mean"][0] == pytest.approx(2.5)
        # divide-by-N convention
        assert stats["std"][0] == pytest.approx(np.sqrt(1.25))
        assert stats["min"][0] == 1.0
        assert stats["max"][0] == 4.0

    def test_roi_bounds_checked(self):
        cube = _cube()
        with pytest.raises(CubeFormatError):
            region_stats(cube, RegionOfInterest(0, 10, 0, 0, 0, 0))

    def test_constant_region_zero_std(self):
        cube = SpectralCube(np.full((3, 3, 2), 7.0), "radiance",
                            uniform_band_meta(2, "vnir"))
        stats = region_stats(cube, cube.full_roi())
        assert np.all(stats["std"] == 0.0)
