"""Pipeline orchestration: config validation, stage sequencing, and report
emission.

A pipeline run is a pure function of (config, seed, input files): stages run
sequentially in the configured order, each consuming and producing the shared
run state, and every metric lands in a CSV/JSON report bundle plus optional
PGM previews.  Each stage's contract is one row of the ``STAGES`` table.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import anomalies, geometry, radiometry, spectral
from . import simulate as sim
from .cube import SpectralCube, write_cube
from .errors import ConfigError, EstimationError, HypercalError

__all__ = ["PipelineConfig", "ReportBundle", "Stage", "StageError", "STAGES",
           "SCHEMA_VERSION", "load_config", "validate_config", "check_order",
           "default_config", "run", "write_pgm"]

SCHEMA_VERSION = 1

PRESETS = ("vnir", "swir", "dual")


class StageError(HypercalError):
    """A pipeline stage failed; carries the stage name and cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline description: ordered stages with parameters."""

    stages: tuple            # of (name, params dict)
    seed: int = 0
    preset: str = "vnir"
    out: str = "out"

    def stage_names(self) -> list:
        return [name for name, _ in self.stages]


@dataclass
class ReportBundle:
    """Run products: metric rows, preview file names (relative to the
    output directory), and the summary files."""

    metrics: list = field(default_factory=list)   # (stage, metric, value)
    previews: list = field(default_factory=list)
    summary_csv: str = ""
    summary_json: str = ""

    def add(self, stage: str, metric: str, value) -> None:
        self.metrics.append((stage, metric, float(value)))


@dataclass(frozen=True)
class Stage:
    """One row of the stage table.  ``params`` maps each key to ``(convert,
    default)``; ``after`` names the stages that must come earlier; ``needs``
    and ``provides`` name the run-state keys read and created.  ``fn(state,
    params, out, config)`` returns the stage's metrics in report order."""

    name: str
    fn: Callable
    params: dict
    after: tuple = ()
    needs: tuple = ()
    provides: tuple = ()


def _bounded(convert, lo, above=False):
    """``convert``, then require a value >= ``lo`` (> ``lo`` if ``above``)."""
    def check(value):
        value = convert(value)
        if not (value > lo if above else value >= lo):
            raise ValueError(f"must be {'above' if above else 'at least'}"
                             f" {lo}")
        return value
    return check


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _each(convert):
    return lambda value: tuple(convert(v) for v in value)


_COUNT = _bounded(int, 1)
_SAVE = (bool, True)


def _components(value) -> list:
    """Interference components, none for an empty or false value.  Errors
    carry the rest of the key path, e.g. ``[0].color``."""
    comps = []
    for j, comp in enumerate(value or ()):
        if not isinstance(comp, dict):
            raise ConfigError(f"[{j}]: must be a mapping")
        for key in list(comp) + ["frequency", "amplitude_dn"]:
            if key not in ("frequency", "amplitude_dn", "phase_rad", "kind"):
                raise ConfigError(f"[{j}].{key}: unknown key")
            if key not in comp:
                raise ConfigError(f"[{j}].{key}: missing")
        try:
            comps.append(dict(comp, **{k: float(comp[k]) for k in comp
                                       if k != "kind"}))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"[{j}]: {exc}") from None
    return comps


def _stage_params(stage: Stage, given: dict, where: str) -> dict:
    """The stage's parameters: its defaults, overridden by each given value
    passed through that key's converter.  Errors name the key path."""
    params = {key: default for key, (_, default) in stage.params.items()}
    for key, value in given.items():
        if key not in stage.params:
            raise ConfigError(f"{where}.{key}: unknown key for stage "
                              f"{stage.name!r}")
        try:
            params[key] = stage.params[key][0](value)
        except ConfigError as exc:        # nested path, e.g. "[0].color"
            raise ConfigError(f"{where}.{key}{exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None
    return params


def check_order(names) -> None:
    """Raise ``ConfigError`` unless the stage list is non-empty and every
    stage's ``after`` prerequisites come earlier in it."""
    if not names:
        raise ConfigError("stages: must be a non-empty list")
    for i, name in enumerate(names):
        for prereq in STAGES[name].after:
            if prereq not in names[:i]:
                raise ConfigError(
                    f"stage {name!r} requires stage {prereq!r} earlier "
                    f"in the stage list")


def validate_config(doc: dict) -> PipelineConfig:
    """Check a raw config document against the stage table: unknown keys
    and bad parameter values are rejected with their key path, and stage
    ordering must respect each stage's ``after`` list."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    for key in doc:
        if key not in ("seed", "preset", "out", "stages"):
            raise ConfigError(f"unknown config key {key!r}")
    preset = doc.get("preset", "vnir")
    if preset not in PRESETS:
        raise ConfigError(f"preset: unknown preset {preset!r}")
    stages_doc = doc.get("stages")
    if not isinstance(stages_doc, list) or not stages_doc:
        raise ConfigError("stages: must be a non-empty list")

    stages = []
    for i, block in enumerate(stages_doc):
        path = f"stages[{i}]"
        if not isinstance(block, dict) or "name" not in block:
            raise ConfigError(f"{path}: each stage needs a 'name'")
        name = block["name"]
        if not isinstance(name, str) or name not in STAGES:
            raise ConfigError(f"{path}.name: unknown stage {name!r}")
        params = {k: v for k, v in block.items() if k != "name"}
        _stage_params(STAGES[name], params, path)
        stages.append((name, params))
    check_order([n for n, _ in stages])
    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("seed: must be an integer") from exc
    return PipelineConfig(stages=tuple(stages), seed=seed, preset=preset,
                          out=str(doc.get("out", "out")))


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(doc)


def default_config(preset: str = "vnir", seed: int = 0,
                   out: str = "out") -> PipelineConfig:
    """Full-chain configuration at desk scale."""
    stages = [
        {"name": "simulate", "scene": "library-bars", "lines": 256,
         "samples": 256, "smile_nm": 4.17, "keystone_px": 1.5,
         "prnu_spread": 0.02,
         "interference": [{"frequency": 0.125, "amplitude_dn": 8.0}],
         "bunch": True, "stray": True, "save": True},
        {"name": "caldark"},
        {"name": "flat-field", "levels": [0.5, 2.0, 30.0, 60.0, 90.0]},
        *({"name": name} for name in (
            "bunch", "interference", "stray", "smile", "absolute-shift",
            "keystone", "geocal", "ortho")),
        {"name": "report", "preview_bands": [30]},
    ]
    if preset == "dual":
        stages.insert(-1, {"name": "bundle"})
    doc = {"preset": preset, "seed": seed, "out": out, "stages": stages}
    return validate_config(doc)


def write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary portable graymap with a 2%-98% percentile stretch."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ConfigError("preview image must be 2-D and non-empty")
    lo, hi = np.percentile(img, (2.0, 98.0))
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((img - lo) / (hi - lo) * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(scaled.tobytes())


# ---------------------------------------------------------------------------
# stage implementations: each mutates the shared run state, returns metrics


def _library_bars_scene(lines: int, samples: int, level: float):
    """Spectral-library spectra with an across-track bar pattern: enough
    spectral structure for smile/absolute-shift work and enough spatial
    structure for keystone estimation."""
    scene = sim.synth_scene("spectral-library", lines, samples, level=level)
    bars = sim.synth_scene("bar-target", lines, samples, period=8,
                           contrast=0.4)
    return dataclasses.replace(scene, spatial=scene.spatial * bars.spatial)


def _stage_simulate(state, p, out: Path, cfg: PipelineConfig):
    instrument = "swir" if cfg.preset == "swir" else "vnir"
    lines, samples, level = p["lines"], p["samples"], p["level"]
    if p["scene"] == "library-bars":
        scene = _library_bars_scene(lines, samples, level)
    else:
        scene = sim.synth_scene(p["scene"], lines, samples, level=level)
    nbands = p["bands"] or (256 if instrument == "swir" else 60)
    sensor = sim.make_sensor(
        instrument, samples=samples, bands=nbands,
        smile_nm=sim.quadratic_smile(nbands, samples, p["smile_nm"]),
        center_error_nm=p["center_error_nm"],
        keystone_px=sim.linear_keystone(
            nbands, samples, p["keystone_px"],
            ref_band=min(spectral.KEYSTONE_REF_BAND, nbands - 1)),
        prnu_spread=p["prnu_spread"], read_noise_dn=p["read_noise_dn"],
        seed=cfg.seed + 7)
    comps = tuple(sim.InterferenceComponent(**c) for c in p["interference"])
    clusters = ()
    if p["bunch"]:
        # clusters that fit the cube (unchanged from 256 samples, 13 bands)
        starts = (samples * 40 // 256, samples * 180 // 256)
        clusters = sim.make_bunch_clusters(
            bands=[b for b in (5, 12) if b < nbands], start_samples=starts,
            max_len=min(15, samples - starts[1]), seed=cfg.seed + 3)
    stray = sim.StrayLightSpec(tail_scale_px=2.2) if p["stray"] else None
    artifacts = sim.ArtifactConfig(interference=comps, bunch=clusters,
                                   stray=stray, noise=p["noise"])
    steering = sim.linear_steering(lines)
    cube, manifest = sim.render_raw(
        scene, sensor, artifacts, seed=cfg.seed,
        temperature_k=p["temperature_k"], steering_deg=steering)
    state.update(cube=cube, sensor=sensor, manifest=manifest, scene=scene,
                 steering=steering, clusters_true=clusters)
    if p["save"]:
        write_cube(cube, out / "raw.img")
        manifest.to_json(out / "manifest.json")
    return {"lines": cube.lines, "bands": cube.bands,
            "raw_mean_dn": float(cube.data.mean())}


def _stage_caldark(state, p, out: Path, cfg: PipelineConfig):
    sensor = state["sensor"]
    lines, seed = p["lines"], cfg.seed
    if sensor.instrument == "swir":
        darks = [(t, sim.render_dark(sensor, lines, t, seed=seed + 11 + i))
                 for i, t in enumerate(p["temperatures"])]
        dark = radiometry.fit_dark_swir(darks, t_ref_k=sensor.t_ref_k)
    else:
        frame = sim.render_dark(sensor, lines, sensor.t_ref_k, seed=seed + 11)
        data = frame.data.astype(np.float64)
        level = data.mean(axis=0).T
        dark = radiometry.DarkModel(
            level, np.zeros_like(level), sensor.t_ref_k, "vnir",
            float(data.std(axis=0).mean()))
    state["dark"] = dark
    if p["save"]:
        dark.save(out / "dark.bin")
    return {"dark_mean_dn": float(dark.dark_dn.mean()),
            "stability_dn": dark.stability_dn}


def _stage_flatfield(state, p, out: Path, cfg: PipelineConfig):
    sensor = state["sensor"]
    acquisitions = [(lv, sim.render_sphere(sensor, lv, p["frames"],
                                           seed=cfg.seed + 23 + i))
                    for i, lv in enumerate(p["levels"])]
    table = radiometry.fit_flatfield(acquisitions)
    cube = state["cube"]
    band = min(30, cube.bands - 1)
    sphere = sim.render_sphere(sensor, 60.0, 64, seed=cfg.seed + 41)
    nu_before = radiometry.nonuniformity(
        sphere.data[:, :, band].astype(np.float64))
    corrected, _, _ = radiometry.apply_flatfield(sphere, table, state["dark"])
    nu_after = radiometry.nonuniformity(corrected.data[:, :, band])
    rad, _, clamped = radiometry.apply_flatfield(cube, table, state["dark"])
    state.update(cube=rad, flatfield=table)
    if p["save"]:
        table.save(out / "flatfield.bin")
    return {"nonuniformity_before_pct": nu_before,
            "nonuniformity_after_pct": nu_after, "clamped_pixels": clamped,
            "flagged_pixels": int(table.flagged.sum())}


def _stage_bunch(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    # detect on a homogeneous calibration acquisition: the defect is a
    # fixed sensor property, and a structured scene would masquerade as
    # hot columns
    sensor = state["sensor"]
    flat = sim.synth_scene("uniform", cube.lines, cube.samples, level=60.0)
    acq, _ = sim.render_raw(
        flat, sensor,
        sim.ArtifactConfig(bunch=state.get("clusters_true", ()), noise=True),
        seed=cfg.seed + 57, steering_deg=state.get("steering"))
    if "flatfield" in state:
        acq, _, _ = radiometry.apply_flatfield(acq, state["flatfield"],
                                               state["dark"])
    clusters = anomalies.detect_bunch_pixels(acq, k=p["mad_k"])
    corrected, valid = anomalies.correct_bunch_pixels(cube, clusters)
    state["cube"] = corrected
    return {"clusters_detected": len(clusters),
            "clusters_injected": len(state.get("clusters_true", ())),
            "columns_uncorrected": int((~valid).any(axis=(0, 2)).sum())}


def _stage_interference(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    detected = anomalies.detect_interference(cube, p["snr_threshold"])
    cleaned = anomalies.remove_interference(cube, [f for f, _ in detected])
    mean_shift = abs(cleaned.data.mean() - cube.data.astype(np.float64).mean())
    state["cube"] = cleaned
    metrics = {"components_detected": len(detected), "mean_shift": mean_shift}
    for i, (freq, amp) in enumerate(detected):
        metrics.update({f"freq_{i}_cpl": freq, f"amp_{i}": amp})
    return metrics


def _stage_stray(state, p, out: Path, cfg: PipelineConfig):
    sensor = state["sensor"]
    steering = state["steering"]
    lines, samples = state["cube"].lines, state["cube"].samples
    spec = sim.StrayLightSpec(tail_scale_px=2.2)
    # measure at the keystone reference band, where the injected band-to-band
    # spatial shift is zero and the point stays in its column; only that
    # band is rendered
    band = min(spectral.KEYSTONE_REF_BAND, sensor.centers_nm.size - 1)
    ref_sensor = sensor.single_band(band)
    point_cubes = []
    rows = (lines // 8, lines // 2, 7 * lines // 8)
    cols = (samples // 8, samples // 2, 7 * samples // 8)
    for (l0, s0) in [(l, s) for l in rows for s in cols]:
        scene = sim.synth_scene("point-source", lines, samples,
                                points=[(l0, s0)], background=0.002,
                                amplitude=1.0)
        cube, _ = sim.render_raw(scene, ref_sensor,
                                 sim.ArtifactConfig(stray=spec, noise=False),
                                 seed=cfg.seed + 70, steering_deg=steering)
        point_cubes.append((cube, (l0, s0)))
    model = anomalies.estimate_stray_psf(point_cubes, steering, band=0,
                                         tap_count=p["tap_count"])
    corrected = anomalies.correct_stray(state["cube"], model, steering)
    extent = anomalies.kernel_extent(
        model.kernel(float(model.steering_deg[-1]), 0.5))
    state.update(cube=corrected, stray_model=model)
    if p["save"]:
        model.to_json(out / "stray_model.json")
    return {"kernel_extent_px": extent,
            "grid_angles": model.steering_deg.size}


def _stage_smile(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    model = spectral.estimate_smile(cube, p["window"], p["stride"])
    corrected, _ = spectral.correct_smile(cube, model)
    check = spectral.estimate_smile(corrected)
    spacing = float(np.abs(np.diff(cube.centers_nm)).mean())
    state.update(cube=corrected, smile_model=model)
    if p["save"]:
        model.to_json(out / "smile_model.json")
    return {"peak_to_peak_nm": model.peak_to_peak_nm,
            "residual_peak_to_peak_nm": check.peak_to_peak_nm,
            "residual_fraction_of_band": abs(check.peak_to_peak_nm) / spacing}


def _stage_absolute_shift(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    mean_spectrum = cube.data.astype(np.float64).mean(axis=(0, 1))
    delta, per_line = spectral.absolute_shift(
        mean_spectrum, cube.centers_nm, search_nm=p["search_nm"])
    try:
        meta = tuple(dataclasses.replace(m, center_nm=m.center_nm - delta)
                     for m in cube.band_meta)
        state["cube"] = cube.with_data(cube.data, band_meta=meta)
    except HypercalError:
        # corrected centers would leave the instrument's nominal range;
        # keep the metadata and report the measured shift only
        pass
    return {"delta_nm": delta, "lines_used": len(per_line)}


def _stage_keystone(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    ref_band = min(p["ref_band"], cube.bands - 1)
    model = spectral.estimate_keystone(cube, ref_band=ref_band,
                                       n_fields=p["n_fields"])
    corrected, _ = spectral.correct_keystone(cube, model)
    check = spectral.estimate_keystone(corrected, ref_band=ref_band)
    state.update(cube=corrected, keystone_model=model)
    if p["save"]:
        model.to_json(out / "keystone_model.json")
    return {"max_shift_px": float(np.abs(model.shifts()).max()),
            "residual_px": float(np.abs(check.shifts()).max())}


def _stage_geocal(state, p, out: Path, cfg: PipelineConfig):
    lines, samples = state["cube"].lines, state["cube"].samples
    n_gcps, noise_m = max(p["gcps_per_strip"], 0), p["noise_m"]
    seed = cfg.seed
    true_bias = geometry.BoresightBias(
        droll=np.arctan(p["roll_km"] * 1000.0 / geometry.DEFAULT_ALTITUDE_M),
        dpitch=np.arctan(p["pitch_km"] * 1000.0
                         / geometry.DEFAULT_ALTITUDE_M))
    rng = np.random.default_rng(seed + 101)
    strips = []
    for i in range(p["strips"]):
        gm = geometry.make_geo(
            lines, samples,
            roll=np.deg2rad(rng.uniform(-5, 5)),
            pitch=np.deg2rad(rng.uniform(-5, 5)),
            track_start_north=rng.uniform(0, 1e5),
            track_across=rng.uniform(-1e4, 1e4))
        r = np.random.default_rng(seed + 200 + i)
        ls = r.uniform(2, lines - 3, n_gcps)
        ss = r.uniform(0, samples - 1, n_gcps)
        hs = r.uniform(0, 500, n_gcps)
        east, north = geometry.geolocate(gm.with_bias(true_bias), ls, ss, hs)
        east = east + r.normal(0, noise_m, n_gcps)
        north = north + r.normal(0, noise_m, n_gcps)
        gcps = [geometry.GroundControlPoint(l, s, e, n, h, f"strip{i}")
                for l, s, e, n, h in zip(ls, ss, east, north, hs)]
        strips.append((gm, gcps))
    bias = geometry.optimize_boresight(strips)
    final_cost = geometry.cost(bias, strips)
    res = np.vstack([geometry.residuals(gm.with_bias(bias), gc)
                     for gm, gc in strips])
    state["boresight"] = bias
    if p["save"]:
        for i, (_, gcps) in enumerate(strips):
            geometry.write_gcps(out / f"gcps_strip{i}.csv", gcps)
        geometry.write_bias_report(out / "boresight.txt", bias, final_cost)
    return {"mean_across_m": float(res[:, 0].mean()),
            "mean_along_m": float(res[:, 1].mean()),
            "std_across_m": float(res[:, 0].std()),
            "std_along_m": float(res[:, 1].std()), "final_cost_m": final_cost}


def _auto_grid(geo_model, margin_cells: int, cell_m: float) -> geometry.MapGrid:
    e0, n0 = geometry.geolocate(geo_model, 0, 0, 0.0)
    e1, n1 = geometry.geolocate(geo_model, geo_model.lines - 1,
                                geo_model.samples - 1, 0.0)
    origin_east = min(e0, e1) + margin_cells * cell_m
    origin_north = max(n0, n1) - margin_cells * cell_m
    span_n, span_e = abs(n1 - n0) / cell_m, abs(e1 - e0) / cell_m
    if not (max(span_n - 2 * margin_cells + 1, 1) * max(
            span_e - 2 * margin_cells + 1, 1)
            <= 64 * geo_model.lines * geo_model.samples):
        raise EstimationError("map grid oversamples the swath more than 8x "
                              "per axis; raise cell_m or margin_cells")
    rows = int(span_n) - 2 * margin_cells + 1
    cols = int(span_e) - 2 * margin_cells + 1
    return geometry.MapGrid(origin_east, origin_north, cell_m,
                            max(rows, 1), max(cols, 1))


def _stage_ortho(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    cell_m = p["cell_m"]
    gm = geometry.make_geo(cube.lines, cube.samples)
    if "boresight" in state:
        gm = gm.with_bias(state["boresight"])
    grid = _auto_grid(gm, p["margin_cells"], cell_m)
    ortho, valid = geometry.orthorectify(cube, gm, 0.0, grid)
    north, east = grid.centers()
    line, sample, conv = geometry._invert_mapping(
        gm, east, north, np.zeros_like(east))
    e2, n2 = geometry.geolocate(gm, np.clip(line, 0, gm.lines - 1),
                                np.clip(sample, 0, gm.samples - 1), 0.0)
    closure = np.hypot((e2 - east) / cell_m, (n2 - north) / cell_m)[conv]
    state.update(cube=ortho, geo=gm, grid=grid, ortho_valid=valid)
    if p["save"]:
        write_cube(ortho, out / "ortho.img")
        geometry.write_grid(out / "ortho.grid", grid)
    return {"valid_fraction": float(valid.mean()),
            "closure_max_px": float(closure.max()) if closure.size
            else float("nan")}


def _stage_bundle(state, p, out: Path, cfg: PipelineConfig):
    vnir = state["cube"]
    sensor = state["sensor"]
    if sensor.instrument != "vnir":
        raise EstimationError("bundle requires a VNIR primary cube")
    scene = state["scene"]
    swir_sensor = sim.make_sensor("swir", samples=scene.spatial.shape[1],
                                  read_noise_dn=0.0, seed=cfg.seed + 7)
    swir_raw, _ = sim.render_raw(scene, swir_sensor,
                                 sim.ArtifactConfig(noise=False),
                                 seed=cfg.seed + 90)
    gm = state["geo"]
    # instrument misalignment shifts the SWIR footprint by a fraction of a
    # map cell in both axes
    angle = np.arctan(p["offset_px"] * state["grid"].cell_m / gm.altitude_m)
    gm_swir = dataclasses.replace(gm, mounting=(gm.mounting[0] + angle,
                                                gm.mounting[1] + angle,
                                                gm.mounting[2]))
    swir_rad = swir_raw.data.astype(np.float64)
    swir_rad -= swir_sensor.dark_dn.T[None]
    swir_rad /= swir_sensor.gain_dn_per_radiance.T[None]
    swir_cube = SpectralCube(swir_rad, "radiance", swir_raw.band_meta, "bsq")
    del swir_raw, swir_rad
    swir_ortho, _ = geometry.orthorectify(swir_cube, gm_swir, 0.0,
                                          state["grid"])
    del swir_cube
    merged, resid = geometry.bundle(vnir, swir_ortho, patch=p["patch"])
    state["cube"] = merged
    if p["save"]:
        write_cube(merged, out / "bundle.img")
    return {"registration_residual_px": resid, "merged_bands": merged.bands}


def _stage_report(state, p, out: Path, cfg: PipelineConfig):
    bands = p["preview_bands"]
    cube = state["cube"]
    for b in bands:
        if not 0 <= b < cube.bands:
            raise ConfigError(f"preview band {b} outside the cube")
        name = f"preview_band{b:03d}.pgm"
        write_pgm(out / name, cube.data[:, :, b].astype(np.float64))
        # relative to the output directory, so the summary does not
        # depend on where the run was written
        state["report"].previews.append(name)
    return {"previews": len(bands)}


# ---------------------------------------------------------------------------
# the stage table: the one list of stages, parameters, defaults and
# prerequisites


STAGES = {stage.name: stage for stage in (
    Stage("simulate", _stage_simulate, {
        "scene": (str, "library-bars"), "lines": (_COUNT, 256),
        "samples": (_COUNT, 256), "level": (float, 100.0),
        "bands": (_optional(_COUNT), None), "smile_nm": (float, 0.0),
        "center_error_nm": (float, 0.0), "keystone_px": (float, 0.0),
        "prnu_spread": (float, 0.0), "read_noise_dn": (float, 2.0),
        "interference": (_components, ()), "bunch": (bool, False),
        "stray": (bool, False), "noise": (bool, True),
        "temperature_k": (_optional(float), None), "save": _SAVE},
        provides=("cube", "sensor", "manifest", "scene", "steering",
                  "clusters_true")),
    Stage("caldark", _stage_caldark, {
        "lines": (int, 400), "save": _SAVE,
        "temperatures": (_each(float), (283.0, 293.0, 303.0))},
        needs=("sensor",), provides=("dark",)),
    Stage("flat-field", _stage_flatfield, {
        "levels": (_each(float), (0.5, 2.0, 30.0, 60.0, 90.0)),
        "frames": (int, 200), "save": _SAVE},
        needs=("cube", "sensor", "dark"),
        provides=("cube", "flatfield")),
    Stage("bunch", _stage_bunch, {"mad_k": (float, anomalies.BUNCH_MAD_K)},
          after=("flat-field",), needs=("cube", "sensor"),
          provides=("cube",)),
    Stage("interference", _stage_interference,
          {"snr_threshold": (float, anomalies.INTERFERENCE_SNR)},
          after=("flat-field",), needs=("cube",), provides=("cube",)),
    Stage("stray", _stage_stray, {"tap_count": (int, 31), "save": _SAVE},
          after=("flat-field",), needs=("cube", "sensor", "steering"),
          provides=("cube", "stray_model")),
    Stage("smile", _stage_smile, {
        "window": (_COUNT, spectral.SMILE_WINDOW), "save": _SAVE,
        "stride": (_optional(_bounded(operator.index, 1)), None)},
        needs=("cube",), provides=("cube", "smile_model")),
    Stage("absolute-shift", _stage_absolute_shift,
          {"search_nm": (float, 15.0)},
          after=("smile",), needs=("cube",), provides=("cube",)),
    Stage("keystone", _stage_keystone, {
        "ref_band": (int, spectral.KEYSTONE_REF_BAND),
        "n_fields": (_COUNT, 5), "save": _SAVE},
        needs=("cube",), provides=("cube", "keystone_model")),
    Stage("geocal", _stage_geocal, {
        "strips": (int, 8), "gcps_per_strip": (int, 25),
        "noise_m": (_bounded(float, 0), 0.0), "roll_km": (float, 3.5),
        "pitch_km": (float, 2.0), "save": _SAVE},
        needs=("cube",), provides=("boresight",)),
    Stage("ortho", _stage_ortho, {
        "cell_m": (_bounded(float, 0, above=True), geometry.DEFAULT_GSD_M),
        "margin_cells": (int, 4), "save": _SAVE},
        needs=("cube",), provides=("cube", "geo", "grid", "ortho_valid")),
    Stage("bundle", _stage_bundle, {
        "offset_px": (float, 0.8), "patch": (int, 64), "save": _SAVE},
        after=("ortho",), needs=("cube", "sensor", "scene", "geo", "grid"),
        provides=("cube",)),
    Stage("report", _stage_report, {"preview_bands": (_each(int), ())},
          needs=("cube",)),
)}


def _write_summary(report: ReportBundle, out: Path) -> None:
    csv_path = out / "summary.csv"
    lines = ["schema_version,stage,metric,value"]
    for stage, metric, value in report.metrics:
        lines.append(f"{SCHEMA_VERSION},{stage},{metric},{value!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out / "summary.json"
    payload = {"schema_version": SCHEMA_VERSION, "previews": report.previews,
               "metrics": [{"stage": s, "metric": m, "value": v}
                           for s, m, v in report.metrics]}
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.summary_csv = str(csv_path)
    report.summary_json = str(json_path)


def run(config: PipelineConfig) -> ReportBundle:
    """Execute the configured stages in order and emit the report bundle; a
    stage missing a run-state input fails naming the stage that provides it."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    report = ReportBundle()
    state = {"report": report}
    for i, (name, given) in enumerate(config.stages):
        stage = STAGES[name]
        params = _stage_params(stage, given, f"stages[{i}]")
        for key in stage.needs:
            if key not in state:
                provider = next(s.name for s in STAGES.values()
                                if key in s.provides)
                raise StageError(name, ConfigError(
                    f"no {key!r} in the run state; add a {provider!r} "
                    f"stage first"))
        try:
            metrics = stage.fn(state, params, out, config)
        except HypercalError as exc:
            raise StageError(name, exc) from exc
        for metric, value in metrics.items():
            report.add(name, metric, value)
    _write_summary(report, out)
    return report
