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

from . import anomalies, geometry, radiometry, registration, spectral
from . import simulate as sim
from .cube import INSTRUMENTS, one_of, write_cube, write_json
from .errors import ConfigError, EstimationError, HypercalError

__all__ = ["PipelineConfig", "ReportBundle", "Stage", "StageError", "STAGES",
           "SCHEMA_VERSION", "load_config", "validate_config", "check_order",
           "default_config", "run", "write_pgm"]

SCHEMA_VERSION = 1

PRESETS = ("vnir", "swir", "dual")

# the chain's stray light: injected by simulate, measured by stray
_CHAIN_STRAY = sim.StrayLightSpec(tail_scale_px=2.2)


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


def _finite(value) -> float:
    """``float``, rejecting NaN and the infinities that JSON lets through."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"must be a finite number, not {value!r}")
    return value


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


def _patch(value) -> int:
    """A bundle patch side: an integer (not a bool) of at least the
    shortest side ``registration.shift_2d`` estimates on."""
    if isinstance(value, bool):
        raise ValueError(f"must be an integer, not {value!r}")
    return _bounded(operator.index, registration.SHIFT_2D_MIN_PATCH)(value)


def _components(value) -> tuple:
    """``sim.InterferenceComponent``s, none for an empty or false value.
    Errors carry the rest of the key path, e.g. ``[0].color``."""
    comps = []
    for j, comp in enumerate(value or ()):
        if not isinstance(comp, dict):
            raise ConfigError(f"[{j}]: must be a mapping")
        for key in list(comp) + ["frequency", "amplitude_dn"]:
            if key not in ("frequency", "amplitude_dn", "phase_rad", "kind"):
                raise ConfigError(f"[{j}].{key}: unknown key")
            if key not in comp:
                raise ConfigError(f"[{j}].{key}: missing")
        comp = dict(comp)
        for key in [k for k in comp if k != "kind"]:
            try:
                comp[key] = _finite(comp[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"[{j}].{key}: {exc}") from None
        try:
            comps.append(sim.InterferenceComponent(**comp))
        except HypercalError as exc:
            raise ConfigError(f"[{j}]: {exc}") from None
    return tuple(comps)


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


def default_config(preset: str = "vnir") -> PipelineConfig:
    """Full-chain configuration at desk scale, seed 0, written to ``out``:
    every stage in table order, ``bundle`` only for ``dual``."""
    changed = {  # the settings that differ from the stage defaults
        "simulate": {
            "smile_nm": 4.17, "keystone_px": 1.5, "prnu_spread": 0.02,
            "interference": [{"frequency": 0.125, "amplitude_dn": 8.0}],
            "bunch": True, "stray": True},
        "report": {"preview_bands": [30]}}
    stages = [{"name": name, **changed.get(name, {})}
              for name in STAGES if name != "bundle" or preset == "dual"]
    return validate_config({"preset": preset, "stages": stages})


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


def _keystone_ref(bands: int) -> int:
    """The keystone reference band of a ``bands``-band cube: the simulator's
    zero-keystone band, where stray light is also measured."""
    return min(spectral.KEYSTONE_REF_BAND, bands - 1)


def _stage_simulate(state, p, out: Path, cfg: PipelineConfig):
    instrument = "swir" if cfg.preset == "swir" else "vnir"
    lines, samples = p["lines"], p["samples"]
    scene = sim.synth_scene(p["scene"], lines, samples, level=p["level"])
    nbands = p["bands"] or INSTRUMENTS[instrument].bands
    sensor = sim.make_sensor(
        instrument, samples=samples, bands=nbands,
        smile_nm=sim.quadratic_smile(nbands, samples, p["smile_nm"]),
        center_error_nm=p["center_error_nm"],
        keystone_px=sim.linear_keystone(
            nbands, samples, p["keystone_px"], ref_band=_keystone_ref(nbands)),
        prnu_spread=p["prnu_spread"], read_noise_dn=p["read_noise_dn"],
        seed=cfg.seed + 7)
    clusters = ()
    if p["bunch"]:
        # clusters that fit the cube (unchanged from 256 samples, 13 bands)
        starts = (samples * 40 // 256, samples * 180 // 256)
        clusters = sim.make_bunch_clusters(
            bands=[b for b in (5, 12) if b < nbands], start_samples=starts,
            max_len=min(15, samples - starts[1]), seed=cfg.seed + 3)
    artifacts = sim.ArtifactConfig(
        interference=p["interference"], bunch=clusters,
        stray=_CHAIN_STRAY if p["stray"] else None, noise=p["noise"])
    steering = sim.linear_steering(lines)
    cube, manifest = sim.render_raw(
        scene, sensor, artifacts, seed=cfg.seed,
        temperature_k=p["temperature_k"], steering_deg=steering)
    state.update(cube=cube, sensor=sensor, manifest=manifest, scene=scene,
                 steering=steering, clusters_true=clusters)
    if p["save"]:
        write_cube(cube, out / "raw.img")
        write_json(manifest, out / "manifest.json", sort_keys=True)
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
        level = frame.data.mean(axis=0, dtype=np.float64).T
        dark = radiometry.DarkModel(
            level, np.zeros_like(level), sensor.t_ref_k, "vnir",
            float(frame.data.std(axis=0, dtype=np.float64).mean()))
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
    nu_before = radiometry.nonuniformity(sphere.data[:, :, band])
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
        sim.ArtifactConfig(bunch=state["clusters_true"], noise=True),
        seed=cfg.seed + 57, steering_deg=state["steering"])
    acq, _, _ = radiometry.apply_flatfield(acq, state["flatfield"],
                                           state["dark"])
    clusters = anomalies.detect_bunch_pixels(acq, k=p["mad_k"])
    del acq  # not resident during the repair
    corrected, valid = anomalies.correct_bunch_pixels(cube, clusters)
    state["cube"] = corrected
    return {"clusters_detected": len(clusters),
            "clusters_injected": len(state["clusters_true"]),
            "columns_uncorrected": int((~valid[0]).any(axis=1).sum())}


def _stage_interference(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    detected = anomalies.detect_interference(cube, p["snr_threshold"])
    cleaned = anomalies.remove_interference(cube, [f for f, _ in detected])
    mean_shift = abs(cleaned.data.mean() - cube.data.mean(dtype=np.float64))
    state["cube"] = cleaned
    metrics = {"components_detected": len(detected), "mean_shift": mean_shift}
    for i, (freq, amp) in enumerate(detected):
        metrics.update({f"freq_{i}_cpl": freq, f"amp_{i}": amp})
    return metrics


def _stage_stray(state, p, out: Path, cfg: PipelineConfig):
    sensor = state["sensor"]
    steering = state["steering"]
    # measure at the keystone reference band, where the injected band-to-band
    # spatial shift is zero and the point stays in its column; only that
    # band is rendered
    point_cubes = sim.point_source_grid(
        sensor.single_band(_keystone_ref(sensor.bands)), _CHAIN_STRAY,
        steering, seed=cfg.seed + 70)
    model = anomalies.estimate_stray_psf(point_cubes, steering,
                                         tap_count=p["tap_count"])
    corrected = anomalies.correct_stray(state["cube"], model, steering)
    extent = anomalies.kernel_extent(
        model.kernel(float(model.steering_deg[-1]), 0.5))
    state["cube"] = corrected
    if p["save"]:
        write_json(model, out / "stray_model.json")
    return {"kernel_extent_px": extent,
            "grid_angles": model.steering_deg.size}


def _stage_smile(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    model = spectral.estimate_smile(cube, p["window"], p["stride"])
    corrected, _ = spectral.correct_smile(cube, model)
    check = spectral.estimate_smile(corrected, p["window"], p["stride"])
    spacing = float(np.abs(np.diff(cube.centers_nm)).mean())
    state["cube"] = corrected
    if p["save"]:
        write_json(model, out / "smile_model.json")
    return {"peak_to_peak_nm": model.peak_to_peak_nm,
            "residual_peak_to_peak_nm": check.peak_to_peak_nm,
            "residual_fraction_of_band": abs(check.peak_to_peak_nm) / spacing}


def _stage_absolute_shift(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    mean_spectrum = cube.data.mean(axis=(0, 1), dtype=np.float64)
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
    check = spectral.estimate_keystone(corrected, ref_band=ref_band,
                                       n_fields=p["n_fields"])
    state["cube"] = corrected
    if p["save"]:
        write_json(model, out / "keystone_model.json")
    return {"max_shift_px": float(np.abs(model.shifts()).max()),
            "residual_px": float(np.abs(check.shifts()).max())}


def _stage_geocal(state, p, out: Path, cfg: PipelineConfig):
    lines, samples = state["cube"].lines, state["cube"].samples
    true_bias = geometry.BoresightBias(
        droll=np.arctan(p["roll_km"] * 1000.0 / geometry.DEFAULT_ALTITUDE_M),
        dpitch=np.arctan(p["pitch_km"] * 1000.0
                         / geometry.DEFAULT_ALTITUDE_M))
    rng = np.random.default_rng(cfg.seed + 101)
    strips = []
    for i in range(p["strips"]):
        gm = geometry.make_geo(
            lines, samples,
            roll=np.deg2rad(rng.uniform(-5, 5)),
            pitch=np.deg2rad(rng.uniform(-5, 5)),
            track_start_north=rng.uniform(0, 1e5),
            track_across=rng.uniform(-1e4, 1e4))
        strips.append((gm, sim.survey_gcps(
            gm.with_bias(true_bias), max(p["gcps_per_strip"], 0),
            p["noise_m"], cfg.seed + 200 + i, f"strip{i}")))
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


def _stage_ortho(state, p, out: Path, cfg: PipelineConfig):
    cube = state["cube"]
    cell_m = p["cell_m"]
    gm = geometry.make_geo(cube.lines, cube.samples)
    if "boresight" in state:
        gm = gm.with_bias(state["boresight"])
    grid = geometry.footprint_grid(gm, p["margin_cells"], cell_m)
    # the closure check reuses the inverse mapping the resampling ran on
    ortho, valid, (line, sample, conv) = geometry.orthorectify(
        cube, gm, 0.0, grid)
    north, east = (a[conv] for a in grid.centers())
    e2, n2 = geometry.geolocate(gm, line[conv], sample[conv], 0.0)
    closure = np.hypot((e2 - east) / cell_m, (n2 - north) / cell_m)
    state.update(cube=ortho, geo=gm, grid=grid)
    if p["save"]:
        write_cube(ortho, out / "ortho.img")
        geometry.write_grid(out / "ortho.grid", grid)
    return {"valid_fraction": float(valid.mean()),
            "closure_max_px": float(closure.max())}


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
    plan, (_, _, converged) = geometry.ortho_plan(
        swir_raw.data.shape[:2], gm_swir, 0.0, state["grid"])

    def swir_bands(bands):
        """SWIR radiance of ``bands`` on the map grid, worked out from the
        uint16 strip per call, so no whole float64 SWIR cube is made."""
        radiance = sim.ideal_radiance(swir_raw, swir_sensor, bands)
        return geometry.ortho_sample(plan, converged, radiance.data)

    merged, resid = geometry.bundle(vnir, swir_raw.band_meta, swir_bands,
                                    patch=p["patch"])
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
        write_pgm(out / name, cube.data[:, :, b])
        # relative to the output directory, so the summary does not
        # depend on where the run was written
        state["report"].previews.append(name)
    return {"previews": len(bands)}


# ---------------------------------------------------------------------------
# the stage table: the one list of stages, parameters, defaults and
# prerequisites


STAGES = {stage.name: stage for stage in (
    Stage("simulate", _stage_simulate, {
        "scene": (one_of(*sim.SCENE_PARAMS), "library-bars"),
        "lines": (_COUNT, 256), "samples": (_COUNT, 256),
        "level": (_finite, 100.0),
        "bands": (_optional(_COUNT), None), "smile_nm": (_finite, 0.0),
        "center_error_nm": (_finite, 0.0), "keystone_px": (_finite, 0.0),
        "prnu_spread": (_finite, 0.0), "read_noise_dn": (_finite, 2.0),
        "interference": (_components, ()), "bunch": (bool, False),
        "stray": (bool, False), "noise": (bool, True),
        "temperature_k": (_optional(_finite), None), "save": _SAVE},
        provides=("cube", "sensor", "manifest", "scene", "steering",
                  "clusters_true")),
    Stage("caldark", _stage_caldark, {
        "lines": (int, 400), "save": _SAVE,
        "temperatures": (_each(_finite), (283.0, 293.0, 303.0))},
        needs=("sensor",), provides=("dark",)),
    Stage("flat-field", _stage_flatfield, {
        "levels": (_each(_finite), (0.5, 2.0, 30.0, 60.0, 90.0)),
        "frames": (int, 200), "save": _SAVE},
        needs=("cube", "sensor", "dark"),
        provides=("cube", "flatfield")),
    Stage("bunch", _stage_bunch, {"mad_k": (_finite, anomalies.BUNCH_MAD_K)},
          after=("flat-field",), needs=("cube", "sensor", "flatfield", "dark",
                                        "clusters_true", "steering"),
          provides=("cube",)),
    Stage("interference", _stage_interference,
          {"snr_threshold": (_finite, anomalies.INTERFERENCE_SNR)},
          after=("flat-field",), needs=("cube",), provides=("cube",)),
    Stage("stray", _stage_stray, {"tap_count": (int, 31), "save": _SAVE},
          after=("flat-field",), needs=("cube", "sensor", "steering"),
          provides=("cube",)),
    Stage("smile", _stage_smile, {
        "window": (_COUNT, spectral.SMILE_WINDOW), "save": _SAVE,
        "stride": (_optional(_bounded(operator.index, 1)), None)},
        needs=("cube",), provides=("cube",)),
    Stage("absolute-shift", _stage_absolute_shift,
          {"search_nm": (_finite, 15.0)},
          after=("smile",), needs=("cube",), provides=("cube",)),
    Stage("keystone", _stage_keystone, {
        "ref_band": (int, spectral.KEYSTONE_REF_BAND),
        "n_fields": (_COUNT, 5), "save": _SAVE},
        needs=("cube",), provides=("cube",)),
    Stage("geocal", _stage_geocal, {
        "strips": (int, 8), "gcps_per_strip": (int, 25),
        "noise_m": (_bounded(_finite, 0), 0.0), "roll_km": (_finite, 3.5),
        "pitch_km": (_finite, 2.0), "save": _SAVE},
        needs=("cube",), provides=("boresight",)),
    Stage("ortho", _stage_ortho, {
        "cell_m": (_bounded(_finite, 0, above=True), geometry.DEFAULT_GSD_M),
        "margin_cells": (int, 4), "save": _SAVE},
        needs=("cube",), provides=("cube", "geo", "grid")),
    Stage("bundle", _stage_bundle, {
        "offset_px": (_finite, 0.8), "patch": (_optional(_patch), None),
        "save": _SAVE},
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create {out}: {exc}") from exc
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
        except (HypercalError, OSError) as exc:
            raise StageError(name, exc) from exc
        for metric, value in metrics.items():
            report.add(name, metric, value)
    try:
        _write_summary(report, out)
    except OSError as exc:
        raise HypercalError(f"cannot write the summary: {exc}") from exc
    return report
