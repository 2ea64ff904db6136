"""Cube data model and raw/header file I/O."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercal import (BandMeta, CubeFormatError, RegionOfInterest,
                      SpectralCube, read_cube, region_stats, write_cube)
from hypercal import anomalies, geometry, radiometry, spectral
from hypercal import cube as cube_module
from hypercal.cube import read_header, write_header, write_json

from conftest import uniform_band_meta


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

    def test_dn12_nan_rejected_and_inf_saturates(self):
        cube = _cube(lines=1, samples=1, bands=3)
        with pytest.raises(CubeFormatError, match="2 NaN"):
            cube.with_data(np.array([[[np.nan, 7.0, np.nan]]]))
        out = cube.with_data(np.array([[[np.inf, -np.inf, 7.0]]]))
        assert out.data.tolist() == [[[4095, 0, 7]]]

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
        cube = dataclasses.replace(
            _cube(lines=6, samples=7, bands=5, pixel_kind=pixel_kind),
            interleave=interleave)
        write_cube(cube, tmp_path / "c.img")
        assert (tmp_path / "c.img").read_bytes() == \
            _one_shot_bytes(cube.data, pixel_kind, interleave)

    @pytest.mark.parametrize("pixel_kind", ["dn12", "radiance"])
    def test_band_blocks_and_pixel_tiles_with_remainders(
            self, tmp_path, pixel_kind, monkeypatch):
        # 42 pixels in tiles of 10 leave a two-pixel tile; two-band blocks
        # of five bands leave a one-band block
        cube = _cube(lines=6, samples=7, bands=5, pixel_kind=pixel_kind)
        monkeypatch.setattr(cube_module, "_SLAB_BYTES",
                            2 * 42 * cube.data.itemsize)
        monkeypatch.setattr(cube_module, "_TILE_PX", 10)
        write_cube(cube, tmp_path / "c.img")
        assert (tmp_path / "c.img").read_bytes() == \
            _one_shot_bytes(cube.data, pixel_kind, "bsq")

    def test_float_data_written_as_dn12_casts_per_slab(self, tmp_path):
        cube = _cube(lines=6, samples=7, bands=5)
        # write_cube casts whatever array the cube holds to the file dtype
        data = cube.data.astype(np.float64) + 0.25
        object.__setattr__(cube, "data", data)
        for interleave in ("bsq", "bil"):
            object.__setattr__(cube, "interleave", interleave)
            write_cube(cube, tmp_path / "c.img")
            assert (tmp_path / "c.img").read_bytes() == \
                _one_shot_bytes(data, "dn12", interleave)

    def test_interleave_conversion_preserves_values(self, tmp_path):
        cube = _cube(interleave="bsq")
        write_cube(dataclasses.replace(cube, interleave="bil"),
                   tmp_path / "c.img")
        back = read_cube(tmp_path / "c.img")
        assert back.interleave == "bil"
        assert np.array_equal(back.data, cube.data)

    @pytest.mark.parametrize("bands", [1, 3])
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_read_data_is_writable(self, tmp_path, bands, interleave):
        write_cube(_cube(bands=bands, interleave=interleave),
                   tmp_path / "c.img")
        data = read_cube(tmp_path / "c.img").data
        assert data.flags.writeable and data.flags.c_contiguous

    def test_bad_band_quality_round_trips(self, tmp_path):
        cube = _cube()
        meta = list(cube.band_meta)
        meta[1] = dataclasses.replace(meta[1], quality="bad")
        cube = cube.with_data(cube.data, band_meta=meta)
        write_cube(cube, tmp_path / "c.img")
        assert read_cube(tmp_path / "c.img").bad_bands == [1]

    def test_missing_header_reported(self, tmp_path):
        cube = _cube()
        write_cube(cube, tmp_path / "c.img")
        (tmp_path / "c.hdr").unlink()
        with pytest.raises(CubeFormatError):
            read_cube(tmp_path / "c.img")

    def test_missing_payload_reported(self, tmp_path):
        write_cube(_cube(), tmp_path / "c.img")
        (tmp_path / "c.img").unlink()
        with pytest.raises(CubeFormatError, match=r"payload .*c\.img"):
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


class TestReadHeader:
    FIELDS = {"lines": int, "t_ref_k": float, "epoch": (str, "t0")}

    def _write(self, tmp_path, text):
        (tmp_path / "h.hdr").write_text(text)
        return tmp_path / "h.hdr"

    def test_fields_converted_and_defaulted(self, tmp_path):
        path = self._write(tmp_path, "# comment\n\nlines = 4\n"
                                     "t_ref_k = 293.5\nother = x\n")
        assert read_header(path, self.FIELDS) == {
            "lines": 4, "t_ref_k": 293.5, "epoch": "t0"}

    def test_write_header_round_trip(self, tmp_path):
        write_header(tmp_path / "h.hdr", {"lines": 4, "t_ref_k": 293.5,
                                          "epoch": "t1"})
        assert read_header(tmp_path / "h.hdr", self.FIELDS) == {
            "lines": 4, "t_ref_k": 293.5, "epoch": "t1"}

    def test_missing_field_named(self, tmp_path):
        path = self._write(tmp_path, "lines = 4\n")
        with pytest.raises(CubeFormatError, match=r"h\.hdr: field 't_ref_k'"):
            read_header(path, self.FIELDS)

    def test_non_converting_field_named(self, tmp_path):
        path = self._write(tmp_path, "lines = four\nt_ref_k = 293\n")
        with pytest.raises(CubeFormatError, match=r"h\.hdr: field 'lines'"):
            read_header(path, self.FIELDS)

    def test_garbled_line_named(self, tmp_path):
        path = self._write(tmp_path, "lines = 4\nt_ref_k 293\n")
        with pytest.raises(CubeFormatError, match="garbled.*'t_ref_k 293'"):
            read_header(path, self.FIELDS)

    def test_field_error_class_chosen_by_caller(self, tmp_path):
        path = self._write(tmp_path, "lines = 4\n")
        with pytest.raises(ValueError, match="'t_ref_k'"):
            read_header(path, self.FIELDS, ValueError)

    def test_non_utf8_file_refused(self, tmp_path):
        (tmp_path / "h.hdr").write_bytes(b"lines = 4\nepoch = \xff\n")
        with pytest.raises(CubeFormatError, match=r"h\.hdr.*UTF-8"):
            read_header(tmp_path / "h.hdr", self.FIELDS)


class TestReadModel:
    @pytest.mark.parametrize("text, named", [
        (None, ""), (b"{", ""), (b"[1, 2]", ""), (b"\xff", ""),
        (b'{"kind": "linear", "bogus": 1}', r".*\['instrument'.*\['bogus'\]")])
    def test_unreadable_model_named(self, tmp_path, text, named):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_bytes(text)
        with pytest.raises(CubeFormatError, match=r"m\.json" + named):
            spectral.SmileModel.from_json(path)

    def test_rejected_value_named(self, tmp_path):
        (tmp_path / "p.json").write_text(json.dumps(
            {"steering_deg": [2.0], "sample_pos": [0.5], "taps": "x"}))
        with pytest.raises(CubeFormatError, match=r"p\.json"):
            anomalies.StrayPSFModel.from_json(tmp_path / "p.json")


class TestRegionStats:
    def test_population_std_and_mean(self):
        data = np.zeros((2, 2, 1))
        data[:, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
        cube = SpectralCube(data, "radiance", uniform_band_meta(1, "vnir"))
        stats = region_stats(cube, RegionOfInterest(0, 1, 0, 1, 0, 0))
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
        stats = region_stats(cube, RegionOfInterest(0, 2, 0, 2, 0, 1))
        assert np.all(stats["std"] == 0.0)


class TestProductBytes:
    """The exact text of the small calibration products, which
    ``perfbench/closed_loop.py`` and outside readers parse."""

    def test_smile_model(self, tmp_path):
        model = spectral.SmileModel("vnir", np.array([0.5, -0.25]), "linear",
                                    (0.375,), 0.75, 0.01)
        write_json(model, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == (
            b'{\n "instrument": "vnir",\n "offsets_nm": [\n  0.5,\n  -0.25\n'
            b' ],\n "kind": "linear",\n "coefficients": [\n  0.375\n ],\n'
            b' "peak_to_peak_nm": 0.75,\n "residual_rms_nm": 0.01\n}')

    def test_keystone_model(self, tmp_path):
        model = spectral.KeystoneModel(1, np.array([8.0]),
                                       np.array([[0.5, -0.5]]), 16, 3)
        write_json(model, tmp_path / "k.json")
        assert (tmp_path / "k.json").read_bytes() == (
            b'{\n "ref_band": 1,\n "field_samples": [\n  8.0\n ],\n'
            b' "coefficients": [\n  [\n   0.5,\n   -0.5\n  ]\n ],\n'
            b' "samples": 16,\n "bands": 3,\n "max_px": 3.0\n}')

    def test_stray_model(self, tmp_path):
        model = anomalies.StrayPSFModel(np.array([2.0]), np.array([0.5]),
                                        np.array([[[0.25, 0.75]]]))
        write_json(model, tmp_path / "p.json")
        assert (tmp_path / "p.json").read_bytes() == (
            b'{\n "steering_deg": [\n  2.0\n ],\n "sample_pos": [\n  0.5\n'
            b' ],\n "taps": [\n  [\n   [\n    0.25,\n    0.75\n   ]\n  ]\n'
            b' ]\n}')

    def test_map_grid(self, tmp_path):
        grid = geometry.MapGrid(-205.5, 9530.0, 30.0, 4, 5)
        geometry.write_grid(tmp_path / "o.grid", grid)
        assert (tmp_path / "o.grid").read_bytes() == (
            b"origin_east = -205.5\norigin_north = 9530.0\ncell_m = 30.0\n"
            b"rows = 4\ncols = 5\n")

    def test_dark_model_header(self, tmp_path):
        radiometry.DarkModel.constant(np.full((2, 3), 64.0)).save(
            tmp_path / "d.bin")
        assert (tmp_path / "d.hdr").read_bytes() == (
            b"kind = dark\ninstrument = vnir\nt_ref_k = 293.0\n"
            b"stability_dn = 0.0\narrays = dark_dn,slope_dn_per_k\n"
            b"shape = 2,3\n")


@dataclasses.dataclass
class _Doc:
    taps: np.ndarray
    pairs: tuple


def _json_docs():
    special = np.array([1.5, np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300,
                        5e-324, 1e22, -7.0])
    yield "specials", {"values": special, "scalar": np.float64(-0.0),
                       "nan": float("nan"), "neg_inf": -np.inf}
    yield "empties", {"list": [], "dict": {}, "array": np.zeros(0),
                      "rows": np.zeros((2, 0)), "tuple": (),
                      "nested": {"inner": {}}}
    yield "nested lists", {"lists": [[1, 2.5, [3, []]], [[-0.0]], "x"],
                           "grid": np.arange(24.0).reshape(2, 3, 4) - 11.5}
    yield "bool and int arrays", {
        "mask": np.array([[True, False], [False, True]]),
        "u8": np.arange(5, dtype=np.uint8), "i64": np.array([-2 ** 62, 3]),
        "f32": np.array([0.1, -2.5], dtype=np.float32), "flag": True,
        "zero_d": np.array(4.0), "none": None}
    yield "tuples", {"pairs": ((1, 2.0), (np.arange(2), "a")),
                     "dataclasses": (_Doc(np.eye(2), (0.5,)),)}
    yield "strings", {"comma": "a, b, c", "text": "été → µm",
                      "breaks": "one\ntwo, \"three\"", "list": ["x, y", 1.0],
                      "z": {"ü, key": [1, 2]}}
    yield "keys", {"b": 1, "a": {"d": np.ones(2), "c": [3]},
                   "ints": {2: "two", 1: "one"}}
    yield "dataclass", _Doc(np.arange(6.0).reshape(3, 2), (np.nan, "t"))
    yield "top-level array", np.linspace(-1.0, 1.0, 7)
    yield "top-level tuple", (np.zeros(2), {"k": -0.0}, [1, [2.5]])
    yield "empty mapping", {}


class TestWriteJson:
    """``write_json`` writes the bytes of ``json.dumps(..., indent=1)`` of
    the document's JSON form, whichever parts it encodes itself."""

    @pytest.mark.parametrize("sort_keys", [False, True])
    @pytest.mark.parametrize("name,doc", list(_json_docs()),
                             ids=[name for name, _ in _json_docs()])
    def test_same_text_as_indented_dumps(self, name, doc, sort_keys,
                                         tmp_path):
        write_json(doc, tmp_path / "d.json", sort_keys=sort_keys)
        assert (tmp_path / "d.json").read_text(encoding="utf-8") == \
            json.dumps(cube_module._to_jsonable(doc), indent=1,
                       sort_keys=sort_keys)

    def test_unencodable_value_raises_as_dumps(self, tmp_path):
        with pytest.raises(TypeError):
            write_json({"c": np.array([1j])}, tmp_path / "c.json")
        with pytest.raises(TypeError):
            write_json({"s": {1, 2}}, tmp_path / "s.json")
