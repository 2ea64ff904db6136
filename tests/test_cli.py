"""Command-line interface: subcommands, overrides, and exit codes."""

import json
from pathlib import Path

import pytest

from hypercal.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from hypercal.pipeline import default_config


def _write_config(tmp_path, stages, name="cfg.json", **top):
    doc = {"stages": stages, "out": str(tmp_path / "out")}
    doc.update(top)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SIM_SMALL = {"name": "simulate", "scene": "uniform", "lines": 64,
             "samples": 64, "bands": 8, "level": 50.0}


class TestExitCodes:
    def test_successful_run_returns_zero(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [SIM_SMALL])
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "wrote" in out and "summary.csv" in out

    def test_unreadable_config_returns_two(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "missing.json")])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_returns_two_with_path(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [dict(SIM_SMALL, wibble=1)])
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert "stages[0].wibble" in capsys.readouterr().err

    def test_non_integer_seed_returns_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [SIM_SMALL], seed="x")
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("seed", True), ("seed", "3"), ("out", None),
        ("out", 7)])
    def test_wrong_top_level_type_returns_two(self, tmp_path, capsys,
                                              monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)  # where a coerced "out" would land
        cfg = _write_config(tmp_path, [SIM_SMALL], **{key: value})
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert f"config error: {key}: must be" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_dependency_violation_returns_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [SIM_SMALL, {"name": "smile"},
                                       {"name": "absolute-shift"}])
        rc = main(["run", "--config", cfg, "--stages",
                   "simulate,absolute-shift"])
        assert rc == EXIT_CONFIG
        assert "requires stage 'smile'" in capsys.readouterr().err

    def test_stage_failure_returns_three(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [{"name": "report"}])
        assert main(["run", "--config", cfg]) == EXIT_STAGE
        assert "add a 'simulate' stage" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, key, value", [
        ("simulate", "lines", "x"), ("simulate", "lines", None),
        ("simulate", "lines", 0), ("simulate", "lines", -4),
        ("simulate", "samples", 0), ("simulate", "bands", 0),
        ("simulate", "interference", [1]), ("caldark", "temperatures", 5),
        ("flat-field", "levels", "x"), ("smile", "window", "w"),
        ("smile", "window", 0), ("keystone", "n_fields", 0),
        ("ortho", "cell_m", 0), ("report", "preview_bands", "ab"),
        # the wrong JSON type is refused, not coerced
        ("simulate", "noise", "false"), ("simulate", "bunch", "no"),
        ("simulate", "save", "false"), ("simulate", "lines", 12.9),
        ("geocal", "strips", True), ("caldark", "temperatures", "123"),
    ])
    def test_bad_parameter_returns_two_with_path(self, tmp_path, capsys,
                                                 stage, key, value):
        stages = [dict(SIM_SMALL)]
        if stage == "simulate":
            stages[0][key] = value
        else:
            stages.append({"name": stage, key: value})
        cfg = _write_config(tmp_path, stages)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        where = 0 if stage == "simulate" else 1
        assert f"stages[{where}].{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, key, token, path", [
        ("simulate", "smile_nm", "NaN", "smile_nm"),
        ("simulate", "level", "Infinity", "level"),
        ("simulate", "temperature_k", "NaN", "temperature_k"),
        ("simulate", "interference",
         '[{"frequency": 0.1, "amplitude_dn": NaN}]',
         "interference[0].amplitude_dn"),
        ("flat-field", "levels", "[NaN, 1, 2]", "levels"),
        ("ortho", "cell_m", "1e999", "cell_m"),
    ])
    def test_non_finite_number_returns_two_with_path(self, tmp_path, capsys,
                                                     stage, key, token, path):
        stages = [dict(SIM_SMALL)]
        if stage != "simulate":
            stages.append({"name": stage})
        stages[-1][key] = "@"
        cfg = Path(_write_config(tmp_path, stages))
        cfg.write_text(cfg.read_text().replace('"@"', token))
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        where = len(stages) - 1
        assert f"stages[{where}].{path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unhashable_stage_name_returns_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [dict(SIM_SMALL, name=["simulate"])])
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "stages[0].name" in capsys.readouterr().err

    def test_stage_without_simulate_returns_three(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [{"name": "geocal"}])
        assert main(["run", "--config", cfg]) == EXIT_STAGE
        assert "add a 'simulate' stage first" in capsys.readouterr().err

    def test_geocal_on_a_strip_too_short_for_gcps_returns_three(
            self, tmp_path, capsys):
        # GCP lines are drawn from 2 to lines - 3
        cfg = _write_config(tmp_path, [dict(SIM_SMALL, lines=4),
                                       {"name": "geocal"}])
        assert main(["run", "--config", cfg]) == EXIT_STAGE
        assert "at least 5 lines, not 4" in capsys.readouterr().err

    def test_preview_band_outside_the_cube_returns_three(self, tmp_path,
                                                         capsys):
        cfg = _write_config(tmp_path, [SIM_SMALL, {"name": "report",
                                                   "preview_bands": [8]}])
        assert main(["run", "--config", cfg]) == EXIT_STAGE
        assert "preview band 8 outside the cube" in capsys.readouterr().err

    def test_out_is_a_file_returns_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [SIM_SMALL])
        (tmp_path / "taken").write_text("")
        rc = main(["simulate", "--config", cfg, "--out",
                   str(tmp_path / "taken")])
        assert rc == EXIT_CONFIG
        assert "config error: out: cannot create" in capsys.readouterr().err

    @pytest.mark.parametrize("product, message", [
        ("manifest.json", "stage 'simulate' failed"),
        ("summary.json", "cannot write the summary"),
    ])
    def test_unwritable_product_returns_three(self, tmp_path, capsys,
                                              product, message):
        cfg = _write_config(tmp_path, [SIM_SMALL])
        (tmp_path / "out" / product).mkdir(parents=True)
        assert main(["simulate", "--config", cfg]) == EXIT_STAGE
        assert message in capsys.readouterr().err

    def test_unknown_stage_filter_returns_two(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [SIM_SMALL])
        rc = main(["run", "--config", cfg, "--stages", "simulate,warp"])
        assert rc == EXIT_CONFIG
        assert "'warp'" in capsys.readouterr().err


class TestOverridesAndSubcommands:
    def test_out_override(self, tmp_path):
        cfg = _write_config(tmp_path, [SIM_SMALL])
        other = tmp_path / "elsewhere"
        assert main(["simulate", "--config", cfg,
                     "--out", str(other)]) == EXIT_OK
        assert (other / "raw.img").exists()
        assert not (tmp_path / "out" / "raw.img").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path, [SIM_SMALL])
        a, b, c = (tmp_path / d for d in ("a", "b", "c"))
        for dest, seed in ((a, "1"), (b, "1"), (c, "2")):
            assert main(["simulate", "--config", cfg, "--seed", seed,
                         "--out", str(dest)]) == EXIT_OK
        assert (a / "raw.img").read_bytes() == (b / "raw.img").read_bytes()
        assert (a / "raw.img").read_bytes() != (c / "raw.img").read_bytes()

    def test_subcommand_selects_stage_subset(self, tmp_path):
        cfg = _write_config(tmp_path, [
            SIM_SMALL, {"name": "caldark", "lines": 100},
            {"name": "flat-field", "frames": 50}])
        assert main(["caldark", "--config", cfg]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        stages = {m["stage"] for m in doc["metrics"]}
        assert stages == {"simulate", "caldark"}
        assert not (tmp_path / "out" / "flatfield.bin").exists()

    def test_stages_flag_narrows_the_run(self, tmp_path):
        cfg = _write_config(tmp_path, [
            SIM_SMALL, {"name": "caldark", "lines": 100}])
        assert main(["run", "--config", cfg, "--stages",
                     "simulate"]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert {m["stage"] for m in doc["metrics"]} == {"simulate"}

    def test_swir_preset_override(self, tmp_path):
        cfg = _write_config(tmp_path, [dict(SIM_SMALL, bands=16)])
        assert main(["simulate", "--config", cfg,
                     "--preset", "swir"]) == EXIT_OK
        from hypercal.cube import read_cube
        cube = read_cube(tmp_path / "out" / "raw.img")
        assert cube.band_meta[0].instrument == "swir"

    def test_correct_chain_at_128_squared(self, tmp_path):
        # bunch clusters and stray point sources scale with the cube
        stages = [dict(name=name, **params)
                  for name, params in default_config().stages]
        stages[0].update(lines=128, samples=128)
        cfg = _write_config(tmp_path, stages)
        assert main(["correct", "--config", cfg]) == EXIT_OK

    def test_swir_default_chain_completes(self, tmp_path):
        stages = [dict(name=name, **params)
                  for name, params in default_config(preset="swir").stages]
        stages[0].update(lines=128, samples=64)
        cfg = _write_config(tmp_path, stages, preset="swir")
        assert main(["run", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("lines, samples", [(128, 128), (160, 96)])
    def test_dual_default_chain_below_256(self, tmp_path, lines, samples):
        # the default bundle patch shrinks until three fit along each axis
        stages = [dict(name=name, **params)
                  for name, params in default_config(preset="dual").stages]
        stages[0].update(lines=lines, samples=samples)
        cfg = _write_config(tmp_path, stages, preset="dual")
        assert main(["run", "--config", cfg]) == EXIT_OK

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_geocal_does_not_load_scipy_optimize(tmp_path):
    """A fresh interpreter runs the boresight fit without scipy.optimize."""
    import os
    import subprocess
    import sys

    import hypercal

    src = str(Path(hypercal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; import hypercal.cli as cli; "
            f"rc = cli.main(['geocal', '--out', {str(tmp_path)!r}]); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == [str(EXIT_OK), "False"]
    assert (tmp_path / "boresight.txt").exists()


def test_default_chains_do_not_load_scipy_special_or_ndimage(tmp_path):
    """A fresh interpreter imports the CLI and runs the correct and bundle
    chains (stray light, bunch and interference repair, ortho and bundle)
    without scipy.special or scipy.ndimage."""
    import os
    import subprocess
    import sys

    import hypercal

    stages = [dict(name=name, **params)
              for name, params in default_config(preset="dual").stages]
    stages[0].update(lines=128, samples=128)
    cfg = _write_config(tmp_path, stages, preset="dual")
    src = str(Path(hypercal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys; import hypercal.cli as cli; "
        "loaded = lambda: sorted({'scipy.special', 'scipy.ndimage'} "
        "& set(sys.modules)); print(loaded()); "
        f"print(cli.main(['correct', '--config', {cfg!r}]), loaded()); "
        f"print(cli.main(['bundle', '--config', {cfg!r}]), loaded())")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    printed = [line for line in done.stdout.splitlines()
               if not line.startswith("wrote")]
    assert printed == ["[]", f"{EXIT_OK} []", f"{EXIT_OK} []"]
    assert (tmp_path / "out" / "bundle.img").exists()
