"""Pipeline configuration validation, stage execution, and run products."""

import dataclasses
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from hypercal import geometry, kernels, registration, spectral
from hypercal import simulate as sim
from hypercal.cube import INSTRUMENTS, read_cube
from hypercal.errors import ConfigError
from hypercal.pipeline import (SCHEMA_VERSION, STAGES, PipelineConfig,
                               StageError, check_order, default_config,
                               load_config, run, validate_config, write_pgm)

from conftest import traced_peak


def _plan_bytes(shape, points) -> int:
    """Bytes of a cubic sampling plan of a ``points`` grid on a ``shape``
    one, each buffer counted once: the four tap matrices share their x
    weights and row pointers."""
    at = np.zeros(points)
    plan = kernels.cubic_plan(shape, at, at)
    buffers = {a.ctypes.data: a.nbytes for t in plan.taps
               for a in (t.data, t.indices, t.indptr)}
    return sum(buffers.values()) + sum(w.nbytes for w in plan.wy)


def _doc(stages, **top):
    doc = {"stages": stages}
    doc.update(top)
    return doc


SIM_SMALL = {"name": "simulate", "scene": "uniform", "lines": 64,
             "samples": 64, "bands": 8, "level": 50.0}


class TestValidateConfig:
    def test_minimal_document_accepted(self):
        cfg = validate_config(_doc([{"name": "simulate"}], seed=5))
        assert cfg.stage_names() == ["simulate"]
        assert cfg.seed == 5
        assert cfg.preset == "vnir"

    def test_non_mapping_root_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            validate_config(["simulate"])

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="'wibble'"):
            validate_config(_doc([{"name": "simulate"}], wibble=1))

    def test_unknown_stage_key_reported_with_path(self):
        doc = _doc([{"name": "simulate", "wibble": 3}])
        with pytest.raises(ConfigError,
                           match=r"stages\[0\]\.wibble: unknown key"):
            validate_config(doc)

    def test_unknown_stage_name_reported_with_path(self):
        with pytest.raises(ConfigError, match=r"stages\[1\]\.name"):
            validate_config(_doc([{"name": "simulate"}, {"name": "warp"}]))

    def test_interference_component_keys_checked(self):
        doc = _doc([{"name": "simulate",
                     "interference": [{"frequency": 0.2, "amplitude_dn": 1.0,
                                       "color": "red"}]}])
        with pytest.raises(ConfigError,
                           match=r"stages\[0\]\.interference\[0\]\.color"):
            validate_config(doc)

    def test_dependency_order_enforced(self):
        doc = _doc([{"name": "simulate"}, {"name": "bunch"}])
        with pytest.raises(ConfigError,
                           match="'bunch' requires stage 'flat-field'"):
            validate_config(doc)
        doc = _doc([{"name": "simulate"}, {"name": "bundle"},
                    {"name": "ortho"}])
        with pytest.raises(ConfigError,
                           match="'bundle' requires stage 'ortho'"):
            validate_config(doc)

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ConfigError, match="stages"):
            validate_config(_doc([]))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            validate_config(_doc([{"name": "simulate"}], preset="tir"))

    def test_stage_without_name_rejected(self):
        with pytest.raises(ConfigError, match="needs a 'name'"):
            validate_config(_doc([{"lines": 4}]))


class TestDefaultConfig:
    def test_full_chain_present(self):
        cfg = default_config()
        names = cfg.stage_names()
        assert names[0] == "simulate" and names[-1] == "report"
        for stage in ("caldark", "flat-field", "bunch", "interference",
                      "stray", "smile", "absolute-shift", "keystone",
                      "geocal", "ortho"):
            assert stage in names
        assert "bundle" not in names

    def test_dual_preset_adds_bundle_before_report(self):
        names = default_config(preset="dual").stage_names()
        assert names.index("bundle") == names.index("report") - 1
        assert names.index("ortho") < names.index("bundle")


class TestLoadConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_doc([SIM_SMALL], seed=3, out="x")))
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.stage_names() == ["simulate"]

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestWritePgm:
    def test_header_and_payload(self, tmp_path):
        img = np.linspace(0, 1000, 48 * 32).reshape(48, 32)
        path = tmp_path / "p.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n32 48\n255\n")
        payload = blob[len(b"P5\n32 48\n255\n"):]
        assert len(payload) == 48 * 32
        # percentile stretch saturates both tails
        assert payload[:32].count(0) > 0
        assert payload[-32:].count(255) > 0

    def test_constant_image_does_not_divide_by_zero(self, tmp_path):
        write_pgm(tmp_path / "c.pgm", np.full((8, 8), 7.0))
        assert (tmp_path / "c.pgm").stat().st_size > 0

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_pgm(tmp_path / "x.pgm", np.zeros(16))


def _run(stages, tmp_path, seed=0, preset="vnir", sub="r"):
    cfg = validate_config(_doc(stages, seed=seed, preset=preset,
                               out=str(tmp_path / sub)))
    return run(cfg), tmp_path / sub


class TestRun:
    def test_simulate_only_products(self, tmp_path):
        report, out = _run([SIM_SMALL], tmp_path)
        assert (out / "raw.img").exists() and (out / "raw.hdr").exists()
        assert (out / "manifest.json").exists()
        cube = read_cube(out / "raw.img")
        assert cube.data.shape == (64, 64, 8)
        stages = {s for s, _, _ in report.metrics}
        assert stages == {"simulate"}

    def test_summary_schema(self, tmp_path):
        report, out = _run([SIM_SMALL], tmp_path)
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "schema_version,stage,metric,value"
        for row in lines[1:]:
            ver, stage, metric, value = row.split(",")
            assert int(ver) == SCHEMA_VERSION
            float(value)
        doc = json.loads((out / "summary.json").read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert len(doc["metrics"]) == len(lines) - 1

    def test_byte_identical_reruns(self, tmp_path):
        _, out_a = _run([SIM_SMALL], tmp_path, seed=4, sub="a")
        _, out_b = _run([SIM_SMALL], tmp_path, seed=4, sub="b")
        assert (out_a / "raw.img").read_bytes() \
            == (out_b / "raw.img").read_bytes()
        assert (out_a / "summary.csv").read_text() \
            == (out_b / "summary.csv").read_text()
        _, out_c = _run([SIM_SMALL], tmp_path, seed=5, sub="c")
        assert (out_a / "raw.img").read_bytes() \
            != (out_c / "raw.img").read_bytes()

    def test_summary_independent_of_output_directory(self, tmp_path):
        stages = [SIM_SMALL, {"name": "report", "preview_bands": [3]}]
        _, out_a = _run(stages, tmp_path, sub="a")
        _, out_b = _run(stages, tmp_path / "deeper", sub="b")
        assert (out_a / "summary.json").read_bytes() \
            == (out_b / "summary.json").read_bytes()
        doc = json.loads((out_a / "summary.json").read_text())
        assert doc["previews"] == ["preview_band003.pgm"]
        assert (out_a / doc["previews"][0]).exists()

    def test_unsaved_chain_writes_only_the_summary(self, tmp_path):
        stages = [dict(SIM_SMALL, save=False),
                  {"name": "geocal", "strips": 2, "save": False}]
        _, out = _run(stages, tmp_path)
        assert sorted(f.name for f in out.iterdir()) \
            == ["summary.csv", "summary.json"]

    def test_missing_cube_raises_stage_error_with_guidance(self, tmp_path):
        cfg = PipelineConfig(stages=(("report", {}),),
                             out=str(tmp_path / "o"))
        with pytest.raises(StageError, match="add a 'simulate' stage"):
            run(cfg)

    def test_flatfield_requires_dark_model(self, tmp_path):
        cfg = validate_config(_doc(
            [SIM_SMALL, {"name": "flat-field"}], out=str(tmp_path / "o")))
        with pytest.raises(StageError, match="'caldark' stage"):
            run(cfg)

    def test_radiometric_chain_metrics(self, tmp_path):
        stages = [dict(SIM_SMALL, prnu_spread=0.02),
                  {"name": "caldark", "lines": 200},
                  {"name": "flat-field", "frames": 100},
                  {"name": "report", "preview_bands": [3]}]
        report, out = _run(stages, tmp_path)
        metrics = {(s, m): v for s, m, v in report.metrics}
        assert metrics[("flat-field", "nonuniformity_before_pct")] > 1.0
        assert metrics[("flat-field", "nonuniformity_after_pct")] < 1.0
        assert (out / "dark.bin").exists()
        assert (out / "flatfield.bin").exists()
        previews = list(out.glob("*.pgm"))
        assert previews and previews[0].read_bytes().startswith(b"P5\n")

    def test_residual_checks_use_the_stage_parameters(self, tmp_path,
                                                      monkeypatch):
        calls = {}

        def spy(name):
            real = getattr(spectral, name)

            def record(cube, *args, **kwargs):
                calls.setdefault(name, []).append((args, kwargs))
                return real(cube, *args, **kwargs)
            monkeypatch.setattr(spectral, name, record)

        spy("estimate_smile")
        spy("estimate_keystone")
        stages = [{"name": "simulate", "lines": 64, "samples": 128,
                   "smile_nm": 2.0, "keystone_px": 1.0, "save": False},
                  {"name": "smile", "window": 12, "stride": 3, "save": False},
                  {"name": "keystone", "n_fields": 3, "save": False}]
        _run(stages, tmp_path)
        assert calls["estimate_smile"] == [((12, 3), {})] * 2
        assert calls["estimate_keystone"] \
            == [((), {"ref_band": 30, "n_fields": 3})] * 2

    @pytest.mark.parametrize("bands", [78, 90])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_smile_recovers_or_refuses_at_few_default_windows(
            self, bands, seed, tmp_path):
        # the default chain to smile; above 64 bands the default stride
        # leaves only 3 usable windows at these band counts
        keep = ("simulate", "caldark", "flat-field", "smile")
        stages = [dict(params, name=name, save=False)
                  for name, params in default_config().stages
                  if name in keep]
        stages[0]["bands"] = bands
        try:
            report, _ = _run(stages, tmp_path, seed=seed)
        except StageError as exc:
            assert exc.stage == "smile"
            return
        metrics = {(s, m): v for s, m, v in report.metrics}
        assert abs(metrics[("smile", "peak_to_peak_nm")] - 4.17) < 0.5

    def test_stage_error_carries_stage_name(self, tmp_path):
        bad = dict(SIM_SMALL, level=-3.0)
        cfg = validate_config(_doc([bad], out=str(tmp_path / "o")))
        with pytest.raises(StageError) as err:
            run(cfg)
        assert err.value.stage == "simulate"


def test_ortho_stage_inverts_the_grid_mapping_once(tmp_path, monkeypatch):
    calls = []
    invert = geometry._invert_mapping

    def counted(*args, **kwargs):
        calls.append(1)
        return invert(*args, **kwargs)

    monkeypatch.setattr(geometry, "_invert_mapping", counted)
    report, _ = _run([SIM_SMALL, {"name": "ortho", "save": False}], tmp_path)
    assert len(calls) == 1
    metrics = {m: v for s, m, v in report.metrics if s == "ortho"}
    assert metrics["closure_max_px"] < 0.05


@pytest.mark.parametrize("workers", [1, 2])
def test_vnir_stability_taken_in_sample_blocks(tmp_path, monkeypatch,
                                               workers):
    # blocks of five samples give each column the std of the whole frame
    monkeypatch.setattr(kernels, "WORKERS", workers)
    monkeypatch.setattr(kernels, "_CHUNK_BYTES", 5 * 8 * 200 * 8 * workers)
    frames = []
    render_dark = sim.render_dark

    def spy(*args, **kwargs):
        frames.append(render_dark(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(sim, "render_dark", spy)
    report, _ = _run([SIM_SMALL, {"name": "caldark", "lines": 200}],
                     tmp_path)
    (frame,) = frames
    metrics = {m: v for s, m, v in report.metrics if s == "caldark"}
    assert metrics["stability_dn"] \
        == float(frame.data.std(axis=0, dtype=np.float64).mean())


@pytest.mark.parametrize("workers", [1, 2])
def test_bundle_stage_holds_no_swir_strip(tmp_path, monkeypatch, workers):
    """The bundle stage renders, converts and samples one 8-band block of
    the SWIR strip at a time, so its traced peak at 96x96 stays below the
    merged cube, the ortho and warp sampling plans, the SWIR sensor's five
    (bands, samples) float64 fields (smile, keystone, PRNU, dark and gain,
    held for the whole stage) and five float64 blocks of the strip: the
    block's radiance, the three grid-sized buffers of its sampling (the
    ortho block, the accumulator and one tap product) and one for the small
    buffers (FFT plans, band metadata, the block's manifest).  There is no
    uint16 SWIR strip; a whole float64 SWIR radiance or ortho cube alone is
    32 such blocks."""
    band_block, side = 8, 96
    monkeypatch.setattr(geometry, "BUNDLE_BAND_BLOCK", band_block)
    monkeypatch.setattr(kernels, "WORKERS", workers)
    seen = {}
    stage = STAGES["bundle"]

    def traced(state, *args):
        tracemalloc.start()
        try:
            metrics = stage.fn(state, *args)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen["merged"] = state["cube"].data
        return metrics

    monkeypatch.setitem(STAGES, "bundle", dataclasses.replace(stage,
                                                              fn=traced))
    _run([{"name": "simulate", "lines": side, "samples": side,
           "save": False}, {"name": "ortho", "save": False},
          {"name": "bundle", "save": False}], tmp_path, preset="dual")
    merged = seen["merged"]
    plan_bytes = _plan_bytes((side, side), merged.shape[:2])
    sensor_bytes = 5 * INSTRUMENTS["swir"].bands * side * 8
    block = side * side * band_block * 8
    assert seen["peak"] < (merged.nbytes + 2 * plan_bytes + sensor_bytes
                           + 5 * block)


def test_bundle_stage_frees_the_ortho_cube(tmp_path, monkeypatch):
    """The bundle stage hands the ortho cube over to ``bundle``, so the
    cube's buffer is gone before the first SWIR block past the shared bands
    is sampled."""
    seen, alive = {}, []
    stage, sample = STAGES["bundle"], geometry.ortho_sample

    def handed(state, *args):
        # the float64 ortho cube is a view of the run's buffer: watch the
        # buffer, which any view kept alive would keep
        assert state["cube"].data.base is not None
        seen["buffer"] = weakref.ref(state["cube"].data.base)
        return stage.fn(state, *args)

    def spy(plan, converged, stack, out=None):
        if "buffer" in seen:  # the bundle stage's samples, not the ortho's
            alive.append(seen["buffer"]() is not None)
        return sample(plan, converged, stack, out=out)

    monkeypatch.setattr(geometry, "ortho_sample", spy)
    monkeypatch.setitem(STAGES, "bundle", dataclasses.replace(stage,
                                                              fn=handed))
    _run([{"name": "simulate", "lines": 96, "samples": 96, "save": False},
          {"name": "caldark", "lines": 40, "save": False},
          {"name": "flat-field", "frames": 20, "save": False},
          {"name": "ortho", "save": False},
          {"name": "bundle", "save": False}], tmp_path, preset="dual")
    # one block holds the seven shared bands
    assert alive[0] and len(alive) > 1 and not any(alive[1:])


# cubic_apply's copied band block in the traced chain
_COPY = 256 << 10

# the default VNIR chain's calibration, correction and ortho stages, and
# the allowance each may hold beside one float64 science cube, in bytes,
# from the cube's (lines, samples, bands), the band_map budget and the
# traced peak of the stage's estimator on its input cube
_CONTRACT = {
    # the uint16 dark frame of the stage's 400 lines (the stage's input,
    # the uint16 raw cube, is a quarter of the float64 one)
    "caldark": lambda l, s, b, budget, est: 400 * s * b * 2,
    # its uint16 input cube and the clamp count's bool mask of the output
    "flat-field": lambda l, s, b, budget, est: l * s * b * 3 + 4 * budget,
    # the uint16 calibration acquisition and two 34-neighbour stacks of
    # column medians (34 float64 lines each)
    "bunch": lambda l, s, b, budget, est:
        l * s * b * 2 + 2 * 34 * s * b * 8 + 4 * budget,
    "interference": lambda l, s, b, budget, est: 4 * budget,
    # the overlap-add accumulator and one segment's spectra
    "stray": lambda l, s, b, budget, est:
        2 * sim.SEGMENT_LINES * s * b * 8 + 4 * budget,
    # the window stacks, 16 float64 per band of each (sample, window)
    # pair at stride 2, and two complex blocks of the fine peak grid
    "smile": lambda l, s, b, budget, est:
        16 * 8 * s * ((b - spectral.SMILE_WINDOW) // 2 + 1)
        * spectral.SMILE_WINDOW
        + 2 * 16 * registration._PEAK_ROWS * (2 * registration._UPSAMPLE + 1)
        + 4 * budget,
    "keystone": lambda l, s, b, budget, est: est + 4 * budget,
    # the sampling plan (each buffer once), the inverse mapping
    # (line, sample, converged) and one copied band block, on a grid of at
    # most one cell per strip pixel (else the ortho cube does not take the
    # run's buffer); the stage peaks in the mapping's fixed-point
    # iteration, about 33 float64 per cell, which this sum covers
    "ortho": lambda l, s, b, budget, est:
        _plan_bytes((l, s), (l, s)) + 17 * l * s + _COPY + 4 * budget,
}


def _trace_stages(lines, samples, workers, out) -> dict:
    """The default VNIR chain at ``lines`` x ``samples`` to ortho, without
    geocal, with 256 KB band_map slices per worker and ``_COPY`` band
    blocks: each contract stage's traced peak plus its input cube (alive
    throughout the stage), and under ``"est"`` the traced peak of the
    keystone estimator on its stage's input."""
    seen, inputs = {"est": {}}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "WORKERS", workers)
        mp.setattr(kernels, "_CHUNK_BYTES", (256 << 10) * workers)
        mp.setattr(kernels, "_COPY_BYTES", _COPY)
        for name in _CONTRACT:
            stage = STAGES[name]

            def traced(state, *args, _fn=stage.fn, _name=name):
                given = state["cube"]
                inputs[_name] = given.with_data(given.data.copy())
                tracemalloc.start()
                try:
                    metrics = _fn(state, *args)
                    seen[_name] = (given.data.nbytes
                                   + tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                return metrics

            mp.setitem(STAGES, name, dataclasses.replace(stage, fn=traced))
        stages = [dict(params, name=name, save=False)
                  if "save" in STAGES[name].params
                  else dict(params, name=name)
                  for name, params in default_config().stages
                  if name == "simulate" or name in _CONTRACT]
        stages[0].update(lines=lines, samples=samples)
        _run(stages, out)
        seen["est"]["keystone"] = traced_peak(
            lambda: spectral.estimate_keystone(inputs["keystone"]))
    return seen


@pytest.fixture(scope="module")
def stage_peaks(tmp_path_factory):
    cache = {}

    def peaks(lines, samples, workers):
        key = (lines, samples, workers)
        if key not in cache:
            cache[key] = _trace_stages(*key, tmp_path_factory.mktemp("run"))
        return cache[key]
    return peaks


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape", [(128, 96), (160, 64)])
@pytest.mark.parametrize("stage", list(_CONTRACT))
def test_stage_holds_one_science_cube(stage_peaks, stage, shape, workers):
    """Each calibration, correction and ortho stage holds one float64
    science cube: the run's own, which the corrections overwrite from
    flat-field on and the ortho cube takes over, beside the allowance that
    ``_CONTRACT`` states.  A second float64 cube, every calibration
    acquisition kept until the fit, a float64 copy of a whole acquisition
    or the smile estimator's whole fine peak grid breaks the bound."""
    peaks = stage_peaks(*shape, workers)
    lines, samples = shape
    bands = INSTRUMENTS["vnir"].bands
    allowance = _CONTRACT[stage](lines, samples, bands,
                                 (256 << 10) * workers, peaks["est"].get(stage))
    assert peaks[stage] < lines * samples * bands * 8 + allowance


class TestStageTable:
    @pytest.mark.parametrize("name", [n for n in STAGES if n != "simulate"])
    def test_stage_without_its_inputs_names_the_provider(self, name,
                                                         tmp_path):
        cfg = PipelineConfig(stages=((name, {}),), out=str(tmp_path / "o"))
        with pytest.raises(StageError, match=r"add a '[a-z-]+' stage first"):
            run(cfg)

    def test_every_prerequisite_and_input_has_a_provider(self):
        provided = {key for s in STAGES.values() for key in s.provides}
        for stage in STAGES.values():
            assert set(stage.needs) <= provided
            assert set(stage.after) <= set(STAGES)

    def test_subset_order_checked(self):
        check_order(["simulate", "smile", "absolute-shift"])
        with pytest.raises(ConfigError, match="requires stage 'smile'"):
            check_order(["simulate", "absolute-shift"])
        with pytest.raises(ConfigError, match="non-empty"):
            check_order([])


class TestParameterValues:
    @pytest.mark.parametrize("stage, key, value, path", [
        ("simulate", "lines", "x", "stages[0].lines"),
        ("simulate", "lines", None, "stages[0].lines"),
        ("simulate", "interference", [1], "stages[0].interference[0]"),
        ("simulate", "interference", [{"frequency": 0.1}],
         "stages[0].interference[0].amplitude_dn"),
        ("simulate", "interference", 5, "stages[0].interference"),
        ("simulate", "temperature_k", "warm", "stages[0].temperature_k"),
        ("caldark", "temperatures", 5, "stages[1].temperatures"),
        ("flat-field", "levels", "x", "stages[1].levels"),
        ("smile", "window", "w", "stages[1].window"),
        ("smile", "stride", 2.5, "stages[1].stride"),
        ("report", "preview_bands", "ab", "stages[1].preview_bands"),
        ("simulate", "samples", 0, "stages[0].samples"),
        ("simulate", "bands", 0, "stages[0].bands"),
        ("simulate", "lines", -4, "stages[0].lines"),
        ("simulate", "lines", 0, "stages[0].lines"),
        ("smile", "window", 0, "stages[1].window"),
        ("keystone", "n_fields", 0, "stages[1].n_fields"),
        ("keystone", "ref_band", -1, "stages[1].ref_band"),
        ("caldark", "lines", 0, "stages[1].lines"),
        ("flat-field", "frames", -2, "stages[1].frames"),
        ("stray", "tap_count", 0, "stages[1].tap_count"),
        ("geocal", "strips", 0, "stages[1].strips"),
        ("geocal", "gcps_per_strip", -1, "stages[1].gcps_per_strip"),
        ("ortho", "cell_m", 0, "stages[1].cell_m"),
        ("ortho", "cell_m", -30.0, "stages[1].cell_m"),
        # shift_2d's shortest patch side is 16 px
        ("bundle", "patch", 0, "stages[1].patch"),
        ("bundle", "patch", -3, "stages[1].patch"),
        ("bundle", "patch", 8, "stages[1].patch"),
        ("bundle", "patch", True, "stages[1].patch"),
        ("bundle", "patch", 2.5, "stages[1].patch"),
        ("bundle", "patch", "32", "stages[1].patch"),
        ("simulate", "scene", "nosuch", "stages[0].scene"),
        ("simulate", "interference", [{"frequency": 0.7, "amplitude_dn": 8}],
         "stages[0].interference[0]"),
        ("simulate", "interference",
         [{"frequency": 0.1, "amplitude_dn": 8, "kind": "zigzag"}],
         "stages[0].interference[0]"),
        # values of the wrong JSON type are refused, not coerced
        ("simulate", "lines", "256", "stages[0].lines"),
        ("simulate", "bunch", 1, "stages[0].bunch"),
        ("simulate", "interference", False, "stages[0].interference"),
        ("caldark", "temperatures", ["283", 293], "stages[1].temperatures"),
        ("flat-field", "levels", [1, "2", 3.0], "stages[1].levels"),
        ("smile", "stride", True, "stages[1].stride"),
        ("smile", "window", 10.7, "stages[1].window"),
        ("report", "preview_bands", ["3"], "stages[1].preview_bands"),
    ])
    def test_bad_value_rejected_with_key_path(self, stage, key, value, path):
        stages = [{"name": "simulate"}]
        if stage == "simulate":
            stages[0][key] = value
        else:
            stages.append({"name": stage, key: value})
        with pytest.raises(ConfigError, match=re.escape(path + ":")):
            validate_config(_doc(stages))

    def test_unhashable_stage_name_rejected(self):
        with pytest.raises(ConfigError, match=r"stages\[0\]\.name"):
            validate_config(_doc([{"name": ["simulate"]}]))

    def test_values_the_stages_accept_still_validate(self):
        cfg = validate_config(_doc([
            {"name": "simulate", "lines": 256, "bands": None,
             "temperature_k": None, "interference": [], "bunch": True},
            {"name": "caldark", "temperatures": [283, 293.5]},
            {"name": "flat-field", "levels": [1, 2, 3.0]},
            {"name": "smile", "stride": 1, "window": 10},
            {"name": "report", "preview_bands": [3]}]))
        # the document is kept as given; conversion happens per run
        assert cfg.stages[2][1]["levels"] == [1, 2, 3.0]
