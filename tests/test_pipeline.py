"""Pipeline configuration validation, stage execution, and run products."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from hypercal import geometry, kernels, spectral
from hypercal.cube import INSTRUMENTS, read_cube
from hypercal.errors import ConfigError
from hypercal.pipeline import (SCHEMA_VERSION, STAGES, PipelineConfig,
                               StageError, check_order, default_config,
                               load_config, run, validate_config, write_pgm)


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
def test_bundle_stage_holds_one_swir_block(tmp_path, monkeypatch, workers):
    """The bundle stage's traced peak at 96x96 with 8-band blocks stays
    below the merged cube, the uint16 SWIR strip, the ortho and warp
    sampling plans and six float64 blocks of the strip (the block in work,
    its radiance and the per-band sensor truth).  A whole float64 SWIR
    radiance or ortho cube alone is 32 such blocks."""
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
    strip = side * side * INSTRUMENTS["swir"].bands * 2
    grid = np.zeros(merged.shape[:2])
    plan = kernels.cubic_plan((side, side), grid, grid)
    plan_bytes = sum(t.data.nbytes + t.indices.nbytes + t.indptr.nbytes
                     for t in plan.taps) + sum(w.nbytes for w in plan.wy)
    block = side * side * band_block * 8
    assert seen["peak"] < merged.nbytes + strip + 2 * plan_bytes + 6 * block


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
            {"name": "simulate", "lines": "256", "bands": None,
             "temperature_k": None, "interference": [], "bunch": 1},
            {"name": "caldark", "temperatures": ["283", 293]},
            {"name": "flat-field", "levels": [1, "2", 3.0]},
            {"name": "smile", "stride": True, "window": 10.7},
            {"name": "report", "preview_bands": ["3"]}]))
        # the document is kept as given; conversion happens per run
        assert cfg.stages[0][1]["lines"] == "256"
