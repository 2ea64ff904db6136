"""Pipeline orchestration: config validation, stage sequencing, and report
emission.

A pipeline run is a pure function of (config, seed, input files): stages run
sequentially in the configured order, each consuming and producing the shared
run state, and every metric lands in a CSV/JSON report bundle plus optional
PGM previews.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import anomalies, geometry, radiometry, spectral
from . import simulate as sim
from .cube import SpectralCube, write_cube
from .errors import ConfigError, EstimationError, HypercalError

__all__ = [
    "PipelineConfig", "ReportBundle", "StageError", "SCHEMA_VERSION",
    "load_config", "validate_config", "default_config", "run",
    "write_pgm",
]

SCHEMA_VERSION = 1

PRESETS = ("vnir", "swir", "dual")

# stages whose output depends on another stage having run first
_STAGE_DEPS = (
    ("flat-field", "bunch"),
    ("flat-field", "interference"),
    ("flat-field", "stray"),
    ("smile", "absolute-shift"),
    ("ortho", "bundle"),
)

# allowed parameter keys per stage
_STAGE_KEYS = {
    "simulate": {"scene", "lines", "samples", "level", "bands",
                 "smile_nm", "center_error_nm", "keystone_px", "prnu_spread",
                 "read_noise_dn", "interference", "bunch", "stray", "noise",
                 "temperature_k", "save"},
    "caldark": {"lines", "temperatures", "save"},
    "flat-field": {"levels", "frames", "save"},
    "bunch": {"mad_k"},
    "interference": {"snr_threshold"},
    "stray": {"tap_count", "save"},
    "smile": {"window", "stride", "save"},
    "absolute-shift": {"search_nm"},
    "keystone": {"ref_band", "n_fields", "save"},
    "geocal": {"strips", "gcps_per_strip", "noise_m", "roll_km", "pitch_km",
               "save"},
    "ortho": {"cell_m", "margin_cells", "save"},
    "bundle": {"offset_px", "patch", "save"},
    "report": {"preview_bands"},
}

_INTERFERENCE_KEYS = {"frequency", "amplitude_dn", "phase_rad", "kind"}


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


def validate_config(doc: dict) -> PipelineConfig:
    """Check a raw config document; unknown keys are rejected with their
    key path, and stage ordering must respect the dependency rules."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    allowed_top = {"seed", "preset", "out", "stages"}
    for key in doc:
        if key not in allowed_top:
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
        if name not in _STAGE_KEYS:
            raise ConfigError(f"{path}.name: unknown stage {name!r}")
        params = {k: v for k, v in block.items() if k != "name"}
        for key in params:
            if key not in _STAGE_KEYS[name]:
                raise ConfigError(f"{path}.{key}: unknown key for stage "
                                  f"{name!r}")
        if name == "simulate":
            for j, comp in enumerate(params.get("interference", []) or []):
                for key in comp:
                    if key not in _INTERFERENCE_KEYS:
                        raise ConfigError(
                            f"{path}.interference[{j}].{key}: unknown key")
        stages.append((name, params))

    names = [n for n, _ in stages]
    for prereq, dependent in _STAGE_DEPS:
        if dependent in names:
            if prereq not in names or names.index(prereq) > names.index(dependent):
                raise ConfigError(
                    f"stage {dependent!r} requires stage {prereq!r} earlier "
                    f"in the stage list")
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
        {"name": "bunch"},
        {"name": "interference"},
        {"name": "stray"},
        {"name": "smile"},
        {"name": "absolute-shift"},
        {"name": "keystone"},
        {"name": "geocal"},
        {"name": "ortho"},
        {"name": "report", "preview_bands": [30]},
    ]
    if preset == "dual":
        stages.insert(-1, {"name": "bundle"})
    doc = {"preset": preset, "seed": seed, "out": out, "stages": stages}
    return validate_config(doc)


# ---------------------------------------------------------------------------
# previews


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
# stage implementations; each mutates the shared run state


def _library_bars_scene(lines: int, samples: int, level: float):
    """Spectral-library spectra with an across-track bar pattern: enough
    spectral structure for smile/absolute-shift work and enough spatial
    structure for keystone estimation."""
    scene = sim.synth_scene("spectral-library", lines, samples, level=level)
    bars = sim.synth_scene("bar-target", lines, samples, period=8,
                           contrast=0.4)
    return dataclasses.replace(scene, spatial=scene.spatial * bars.spatial)


def _stage_simulate(state, params, out: Path, seed: int, preset: str):
    instrument = "swir" if preset == "swir" else "vnir"
    lines = int(params.get("lines", 256))
    samples = int(params.get("samples", 256))
    level = float(params.get("level", 100.0))
    bands = params.get("bands")
    kind = params.get("scene", "library-bars")
    if kind == "library-bars":
        scene = _library_bars_scene(lines, samples, level)
    else:
        scene = sim.synth_scene(kind, lines, samples, level=level)
    nbands = int(bands) if bands is not None else \
        (256 if instrument == "swir" else 60)
    smile_p2p = float(params.get("smile_nm", 0.0))
    keystone_max = float(params.get("keystone_px", 0.0))
    sensor = sim.make_sensor(
        instrument, samples=samples, bands=nbands,
        smile_nm=sim.quadratic_smile(nbands, samples, smile_p2p),
        center_error_nm=float(params.get("center_error_nm", 0.0)),
        keystone_px=sim.linear_keystone(
            nbands, samples, keystone_max,
            ref_band=min(spectral.KEYSTONE_REF_BAND, nbands - 1)),
        prnu_spread=float(params.get("prnu_spread", 0.0)),
        read_noise_dn=float(params.get("read_noise_dn", 2.0)),
        seed=seed + 7)
    components = tuple(
        sim.InterferenceComponent(
            frequency=float(c["frequency"]),
            amplitude_dn=float(c["amplitude_dn"]),
            phase_rad=float(c.get("phase_rad", 0.0)),
            kind=c.get("kind", "periodic"))
        for c in (params.get("interference") or []))
    clusters = ()
    if params.get("bunch"):
        clusters = sim.make_bunch_clusters(
            bands=(5, 12),
            start_samples=(samples * 40 // 256, samples * 180 // 256),
            seed=seed + 3)
    stray = sim.StrayLightSpec(tail_scale_px=2.2) if params.get("stray") \
        else None
    artifacts = sim.ArtifactConfig(interference=components, bunch=clusters,
                                   stray=stray,
                                   noise=bool(params.get("noise", True)))
    steering = sim.linear_steering(lines)
    cube, manifest = sim.render_raw(
        scene, sensor, artifacts, seed=seed,
        temperature_k=params.get("temperature_k"), steering_deg=steering)
    state.update(cube=cube, sensor=sensor, manifest=manifest, scene=scene,
                 steering=steering, clusters_true=clusters)
    if params.get("save", True):
        write_cube(cube, out / "raw.img")
        manifest.to_json(out / "manifest.json")
    state["report"].add("simulate", "lines", cube.lines)
    state["report"].add("simulate", "bands", cube.bands)
    state["report"].add("simulate", "raw_mean_dn",
                        float(cube.data.mean()))


def _stage_caldark(state, params, out: Path, seed: int):
    sensor = state["sensor"]
    lines = int(params.get("lines", 400))
    if sensor.instrument == "swir":
        temps = params.get("temperatures", [283.0, 293.0, 303.0])
        darks = [(float(t), sim.render_dark(sensor, lines, float(t),
                                            seed=seed + 11 + i))
                 for i, t in enumerate(temps)]
        dark = radiometry.fit_dark_swir(darks, t_ref_k=sensor.t_ref_k)
    else:
        frame = sim.render_dark(sensor, lines, sensor.t_ref_k, seed=seed + 11)
        level = frame.data.astype(np.float64).mean(axis=0).T
        dark = radiometry.DarkModel(level, np.zeros_like(level),
                                    sensor.t_ref_k, "vnir",
                                    float(frame.data.astype(np.float64)
                                          .std(axis=0).mean()))
    state["dark"] = dark
    if params.get("save", True):
        dark.save(out / "dark.bin")
    state["report"].add("caldark", "dark_mean_dn", float(dark.dark_dn.mean()))
    state["report"].add("caldark", "stability_dn", dark.stability_dn)


def _stage_flatfield(state, params, out: Path, seed: int):
    sensor = state["sensor"]
    levels = [float(v) for v in params.get("levels",
                                           [0.5, 2.0, 30.0, 60.0, 90.0])]
    frames = int(params.get("frames", 200))
    acquisitions = [(lv, sim.render_sphere(sensor, lv, frames,
                                           seed=seed + 23 + i))
                    for i, lv in enumerate(levels)]
    table = radiometry.fit_flatfield(acquisitions)
    cube = state["cube"]
    band = min(30, cube.bands - 1)
    sphere = sim.render_sphere(sensor, 60.0, 64, seed=seed + 41)
    nu_before = radiometry.nonuniformity(
        sphere.data[:, :, band].astype(np.float64))
    corrected, _, _ = radiometry.apply_flatfield(sphere, table, state["dark"])
    nu_after = radiometry.nonuniformity(corrected.data[:, :, band])
    rad, valid, clamped = radiometry.apply_flatfield(cube, table,
                                                     state["dark"])
    state.update(cube=rad, flatfield=table, validity=valid)
    if params.get("save", True):
        table.save(out / "flatfield.bin")
    rep = state["report"]
    rep.add("flat-field", "nonuniformity_before_pct", nu_before)
    rep.add("flat-field", "nonuniformity_after_pct", nu_after)
    rep.add("flat-field", "clamped_pixels", clamped)
    rep.add("flat-field", "flagged_pixels", int(table.flagged.sum()))


def _stage_bunch(state, params, out: Path, seed: int):
    cube = state["cube"]
    # detect on a homogeneous calibration acquisition: the defect is a
    # fixed sensor property, and a structured scene would masquerade as
    # hot columns
    sensor = state["sensor"]
    flat = sim.synth_scene("uniform", cube.lines, cube.samples, level=60.0)
    acq, _ = sim.render_raw(
        flat, sensor,
        sim.ArtifactConfig(bunch=state.get("clusters_true", ()), noise=True),
        seed=seed + 57, steering_deg=state.get("steering"))
    if "flatfield" in state:
        acq, _, _ = radiometry.apply_flatfield(acq, state["flatfield"],
                                               state["dark"])
    clusters = anomalies.detect_bunch_pixels(
        acq, k=float(params.get("mad_k", anomalies.BUNCH_MAD_K)))
    corrected, valid = anomalies.correct_bunch_pixels(cube, clusters)
    state["cube"] = corrected
    rep = state["report"]
    rep.add("bunch", "clusters_detected", len(clusters))
    rep.add("bunch", "clusters_injected", len(state.get("clusters_true", ())))
    rep.add("bunch", "columns_uncorrected", int((~valid).any(axis=(0, 2)).sum()))


def _stage_interference(state, params, out: Path, seed: int):
    cube = state["cube"]
    thr = float(params.get("snr_threshold", anomalies.INTERFERENCE_SNR))
    detected = anomalies.detect_interference(cube, snr_threshold=thr)
    cleaned = anomalies.remove_interference(cube, [f for f, _ in detected])
    mean_shift = abs(cleaned.data.mean() - cube.data.astype(np.float64).mean())
    state["cube"] = cleaned
    rep = state["report"]
    rep.add("interference", "components_detected", len(detected))
    rep.add("interference", "mean_shift", mean_shift)
    for i, (freq, amp) in enumerate(detected):
        rep.add("interference", f"freq_{i}_cpl", freq)
        rep.add("interference", f"amp_{i}", amp)


def _stage_stray(state, params, out: Path, seed: int):
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
                                 seed=seed + 70, steering_deg=steering)
        point_cubes.append((cube, (l0, s0)))
    model = anomalies.estimate_stray_psf(
        point_cubes, steering, band=0,
        tap_count=int(params.get("tap_count", 31)))
    corrected = anomalies.correct_stray(state["cube"], model, steering)
    extent = anomalies.kernel_extent(
        model.kernel(float(model.steering_deg[-1]), 0.5))
    state.update(cube=corrected, stray_model=model)
    if params.get("save", True):
        model.to_json(out / "stray_model.json")
    rep = state["report"]
    rep.add("stray", "kernel_extent_px", extent)
    rep.add("stray", "grid_angles", model.steering_deg.size)


def _stage_smile(state, params, out: Path, seed: int):
    cube = state["cube"]
    model = spectral.estimate_smile(
        cube, window=int(params.get("window", spectral.SMILE_WINDOW)),
        stride=params.get("stride"))
    corrected, _ = spectral.correct_smile(cube, model)
    check = spectral.estimate_smile(corrected)
    spacing = float(np.abs(np.diff(cube.centers_nm)).mean())
    state.update(cube=corrected, smile_model=model)
    if params.get("save", True):
        model.to_json(out / "smile_model.json")
    rep = state["report"]
    rep.add("smile", "peak_to_peak_nm", model.peak_to_peak_nm)
    rep.add("smile", "residual_peak_to_peak_nm", check.peak_to_peak_nm)
    rep.add("smile", "residual_fraction_of_band",
            abs(check.peak_to_peak_nm) / spacing)


def _stage_absolute_shift(state, params, out: Path, seed: int):
    cube = state["cube"]
    mean_spectrum = cube.data.astype(np.float64).mean(axis=(0, 1))
    delta, per_line = spectral.absolute_shift(
        mean_spectrum, cube.centers_nm,
        search_nm=float(params.get("search_nm", 15.0)))
    try:
        meta = tuple(dataclasses.replace(m, center_nm=m.center_nm - delta)
                     for m in cube.band_meta)
        state["cube"] = cube.with_data(cube.data, band_meta=meta)
    except HypercalError:
        # corrected centers would leave the instrument's nominal range;
        # keep the metadata and report the measured shift only
        pass
    rep = state["report"]
    rep.add("absolute-shift", "delta_nm", delta)
    rep.add("absolute-shift", "lines_used", len(per_line))


def _stage_keystone(state, params, out: Path, seed: int):
    cube = state["cube"]
    ref_band = min(int(params.get("ref_band", spectral.KEYSTONE_REF_BAND)),
                   cube.bands - 1)
    model = spectral.estimate_keystone(
        cube, ref_band=ref_band,
        n_fields=int(params.get("n_fields", 5)))
    corrected, _ = spectral.correct_keystone(cube, model)
    check = spectral.estimate_keystone(corrected, ref_band=ref_band)
    state.update(cube=corrected, keystone_model=model)
    if params.get("save", True):
        model.to_json(out / "keystone_model.json")
    rep = state["report"]
    rep.add("keystone", "max_shift_px", float(np.abs(model.shifts()).max()))
    rep.add("keystone", "residual_px", float(np.abs(check.shifts()).max()))


def _stage_geocal(state, params, out: Path, seed: int):
    lines, samples = state["cube"].lines, state["cube"].samples
    n_strips = int(params.get("strips", 8))
    n_gcps = int(params.get("gcps_per_strip", 25))
    noise_m = float(params.get("noise_m", 0.0))
    roll_km = float(params.get("roll_km", 3.5))
    pitch_km = float(params.get("pitch_km", 2.0))
    true_bias = geometry.BoresightBias(
        droll=np.arctan(roll_km * 1000.0 / geometry.DEFAULT_ALTITUDE_M),
        dpitch=np.arctan(pitch_km * 1000.0 / geometry.DEFAULT_ALTITUDE_M))
    rng = np.random.default_rng(seed + 101)
    strips = []
    for i in range(n_strips):
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
        geometry.write_gcps(out / f"gcps_strip{i}.csv", gcps)
    bias = geometry.optimize_boresight(strips)
    final_cost = geometry.cost(bias, strips)
    res = np.vstack([geometry.residuals(gm.with_bias(bias), gc)
                     for gm, gc in strips])
    state["boresight"] = bias
    if params.get("save", True):
        geometry.write_bias_report(out / "boresight.txt", bias, final_cost)
    rep = state["report"]
    rep.add("geocal", "mean_across_m", float(res[:, 0].mean()))
    rep.add("geocal", "mean_along_m", float(res[:, 1].mean()))
    rep.add("geocal", "std_across_m", float(res[:, 0].std()))
    rep.add("geocal", "std_along_m", float(res[:, 1].std()))
    rep.add("geocal", "final_cost_m", final_cost)


def _auto_grid(geo_model, margin_cells: int, cell_m: float) -> geometry.MapGrid:
    e0, n0 = geometry.geolocate(geo_model, 0, 0, 0.0)
    e1, n1 = geometry.geolocate(geo_model, geo_model.lines - 1,
                                geo_model.samples - 1, 0.0)
    origin_east = min(e0, e1) + margin_cells * cell_m
    origin_north = max(n0, n1) - margin_cells * cell_m
    rows = int((abs(n1 - n0)) / cell_m) - 2 * margin_cells + 1
    cols = int((abs(e1 - e0)) / cell_m) - 2 * margin_cells + 1
    return geometry.MapGrid(origin_east, origin_north, cell_m,
                            max(rows, 1), max(cols, 1))


def _stage_ortho(state, params, out: Path, seed: int):
    cube = state["cube"]
    cell_m = float(params.get("cell_m", geometry.DEFAULT_GSD_M))
    margin = int(params.get("margin_cells", 4))
    gm = geometry.make_geo(cube.lines, cube.samples)
    if "boresight" in state:
        gm = gm.with_bias(state["boresight"])
    grid = _auto_grid(gm, margin, cell_m)
    ortho, valid = geometry.orthorectify(cube, gm, 0.0, grid)
    north, east = grid.centers()
    line, sample, conv = geometry._invert_mapping(
        gm, east, north, np.zeros_like(east))
    e2, n2 = geometry.geolocate(gm, np.clip(line, 0, gm.lines - 1),
                                np.clip(sample, 0, gm.samples - 1), 0.0)
    closure = np.hypot((e2 - east) / cell_m, (n2 - north) / cell_m)[conv]
    state.update(cube=ortho, geo=gm, grid=grid, ortho_valid=valid)
    if params.get("save", True):
        write_cube(ortho, out / "ortho.img")
        geometry.write_grid(out / "ortho.grid", grid)
    rep = state["report"]
    rep.add("ortho", "valid_fraction", float(valid.mean()))
    rep.add("ortho", "closure_max_px",
            float(closure.max()) if closure.size else float("nan"))


def _stage_bundle(state, params, out: Path, seed: int):
    vnir = state["cube"]
    sensor = state["sensor"]
    if sensor.instrument != "vnir":
        raise EstimationError("bundle requires a VNIR primary cube")
    scene = state["scene"]
    offset_px = float(params.get("offset_px", 0.8))
    swir_sensor = sim.make_sensor("swir", samples=scene.spatial.shape[1],
                                  read_noise_dn=0.0, seed=seed + 7)
    swir_raw, _ = sim.render_raw(scene, swir_sensor,
                                 sim.ArtifactConfig(noise=False),
                                 seed=seed + 90)
    gm = state["geo"]
    # instrument misalignment shifts the SWIR footprint by a fraction of a
    # map cell in both axes
    angle = np.arctan(offset_px * state["grid"].cell_m / gm.altitude_m)
    gm_swir = dataclasses.replace(gm, mounting=(gm.mounting[0] + angle,
                                                gm.mounting[1] + angle,
                                                gm.mounting[2]))
    swir_rad = (swir_raw.data.astype(np.float64)
                - swir_sensor.dark_dn.T[None]) / \
        swir_sensor.gain_dn_per_radiance.T[None]
    swir_cube = SpectralCube(swir_rad, "radiance", swir_raw.band_meta, "bsq")
    swir_ortho, _ = geometry.orthorectify(swir_cube, gm_swir, 0.0,
                                          state["grid"])
    merged, resid = geometry.bundle(vnir, swir_ortho,
                                    patch=int(params.get("patch", 64)))
    state["cube"] = merged
    if params.get("save", True):
        write_cube(merged, out / "bundle.img")
    rep = state["report"]
    rep.add("bundle", "registration_residual_px", resid)
    rep.add("bundle", "merged_bands", merged.bands)


def _stage_report(state, params, out: Path, seed: int):
    bands = params.get("preview_bands", [])
    cube = state["cube"]
    for b in bands:
        b = int(b)
        if not 0 <= b < cube.bands:
            raise ConfigError(f"preview band {b} outside the cube")
        name = f"preview_band{b:03d}.pgm"
        write_pgm(out / name, cube.data[:, :, b].astype(np.float64))
        # relative to the output directory, so the summary does not
        # depend on where the run was written
        state["report"].previews.append(name)
    state["report"].add("report", "previews", len(bands))


_STAGE_FUNCS = {
    "simulate": _stage_simulate,
    "caldark": _stage_caldark,
    "flat-field": _stage_flatfield,
    "bunch": _stage_bunch,
    "interference": _stage_interference,
    "stray": _stage_stray,
    "smile": _stage_smile,
    "absolute-shift": _stage_absolute_shift,
    "keystone": _stage_keystone,
    "geocal": _stage_geocal,
    "ortho": _stage_ortho,
    "bundle": _stage_bundle,
    "report": _stage_report,
}

# stages that read the current cube from the run state
_NEEDS_CUBE = {"flat-field", "bunch", "interference", "stray", "smile",
               "absolute-shift", "keystone", "ortho", "bundle", "report"}


def _write_summary(report: ReportBundle, out: Path) -> None:
    csv_path = out / "summary.csv"
    lines = ["schema_version,stage,metric,value"]
    for stage, metric, value in report.metrics:
        lines.append(f"{SCHEMA_VERSION},{stage},{metric},{value!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out / "summary.json"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metrics": [{"stage": s, "metric": m, "value": v}
                    for s, m, v in report.metrics],
        "previews": report.previews,
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.summary_csv = str(csv_path)
    report.summary_json = str(json_path)


def run(config: PipelineConfig) -> ReportBundle:
    """Execute the configured stages in order and emit the report bundle."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    report = ReportBundle()
    state = {"report": report}
    preset = config.preset
    for name, params in config.stages:
        if name in _NEEDS_CUBE and "cube" not in state:
            raise StageError(name, ConfigError(
                "no cube in the run state; add a 'simulate' stage first"))
        if name in ("caldark", "flat-field", "stray") and "sensor" not in state:
            raise StageError(name, ConfigError(
                "no sensor in the run state; add a 'simulate' stage first"))
        if name == "flat-field" and "dark" not in state:
            raise StageError(name, ConfigError(
                "no dark model in the run state; add a 'caldark' stage first"))
        try:
            if name == "simulate":
                _stage_simulate(state, params, out, config.seed, preset)
            else:
                _STAGE_FUNCS[name](state, params, out, config.seed)
        except HypercalError as exc:
            if isinstance(exc, StageError):
                raise
            raise StageError(name, exc) from exc
    _write_summary(report, out)
    return report
