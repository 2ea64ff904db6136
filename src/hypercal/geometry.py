"""Pushbroom geolocation, boresight-bias calibration, orthorectification,
and VNIR-SWIR bundling.

Geometry is expressed on a local flat-Earth tangent plane: ``east`` is the
across-track axis and ``north`` the along-track axis, both in meters.  The
line of sight is built from the per-line attitude, the instrument mounting
angles, the boresight bias under calibration, and a small-angle per-sample
look angle ``(sample - center) * gsd / altitude``.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, EstimationError
from .cube import SpectralCube
from .kernels import cubic_apply, cubic_plan
from .registration import shift_2d

__all__ = [
    "BoresightBias", "GroundControlPoint", "GeoModel",
    "MapGrid", "make_geo", "geolocate", "residuals", "cost",
    "optimize_boresight", "orthorectify", "bundle",
    "read_gcps", "write_gcps", "read_grid", "write_grid", "write_bias_report",
]

DEFAULT_ALTITUDE_M = 630_000.0
DEFAULT_GSD_M = 30.0
YAW_BOUND_RAD = np.deg2rad(0.05)
BORESIGHT_RESTARTS = 4         # Nelder-Mead restarts after the first run
INVERT_MAX_ITER = 20           # fixed-point steps of the inverse mapping
INVERT_TOL_PX = 0.01           # inverse-mapping convergence, both axes
OFFSET_MIN_CONFIDENCE = 0.02   # patch correlations below this are dropped
BUNDLE_DEGREE = 2              # misregistration polynomial order per axis


@dataclass(frozen=True)
class BoresightBias:
    """Instrument alignment bias relative to the platform frame (radians)."""

    droll: float = 0.0
    dpitch: float = 0.0
    dyaw: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.droll, self.dpitch, self.dyaw])


@dataclass(frozen=True)
class GroundControlPoint:
    """Tie between an image location and surveyed ground coordinates."""

    line: float
    sample: float
    east: float
    north: float
    height: float
    strip_id: str = ""

    def __post_init__(self) -> None:
        vals = (self.line, self.sample, self.east, self.north, self.height)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigError("ground control point has non-finite fields")


@dataclass(frozen=True)
class GeoModel:
    """Pushbroom viewing geometry for one strip.

    ``track_along_m``/``track_across_m`` give the sub-satellite ground track
    per line; ``roll``/``pitch``/``yaw`` the attitude series in radians.
    """

    altitude_m: float
    gsd_m: float
    samples: int
    track_along_m: np.ndarray
    track_across_m: np.ndarray
    roll: np.ndarray
    pitch: np.ndarray
    yaw: np.ndarray
    steering_deg: np.ndarray
    mounting: tuple = (0.0, 0.0, 0.0)
    bias: BoresightBias = field(default_factory=BoresightBias)

    def __post_init__(self) -> None:
        if self.altitude_m <= 0:
            raise ConfigError("orbit altitude must be positive")
        if self.samples < 2:
            raise ConfigError("strip must have at least 2 samples")
        n = self.track_along_m.shape[0]
        for name in ("track_across_m", "roll", "pitch", "yaw", "steering_deg"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(
                    "attitude/track series must all cover the strip lines")
        if np.any(np.abs(self.roll) >= 0.5) or np.any(np.abs(self.pitch) >= 0.5):
            raise ConfigError("attitude roll/pitch out of supported range")

    @property
    def lines(self) -> int:
        return self.track_along_m.shape[0]

    def look_angle(self, sample) -> np.ndarray:
        """Across-track look angle (rad), zero at the center sample."""
        center = (self.samples - 1) / 2.0
        return (np.asarray(sample, dtype=np.float64) - center) * \
            self.gsd_m / self.altitude_m

    def with_bias(self, bias: BoresightBias) -> "GeoModel":
        return dataclasses.replace(self, bias=bias)


def make_geo(lines: int, samples: int, altitude_m: float = DEFAULT_ALTITUDE_M,
             gsd_m: float = DEFAULT_GSD_M, roll=0.0, pitch=0.0, yaw=0.0,
             steering_deg=0.0, mounting=(0.0, 0.0, 0.0),
             bias: BoresightBias | None = None,
             track_start_north: float = 0.0,
             track_across: float = 0.0) -> GeoModel:
    """Build a straight-track geometry: the satellite advances one GSD of
    along-track (north) distance per line at constant across-track offset."""

    def series(v):
        arr = np.asarray(v, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(lines, float(arr))
        if arr.shape != (lines,):
            raise ConfigError("attitude series must be scalar or one per line")
        return arr

    along = track_start_north + gsd_m * np.arange(lines, dtype=np.float64)
    return GeoModel(
        altitude_m=float(altitude_m), gsd_m=float(gsd_m), samples=int(samples),
        track_along_m=along,
        track_across_m=np.full(lines, float(track_across)),
        roll=series(roll), pitch=series(pitch), yaw=series(yaw),
        steering_deg=series(steering_deg), mounting=tuple(mounting),
        bias=bias if bias is not None else BoresightBias())


def _los(geo: GeoModel, line, sample):
    """Unit-free line-of-sight components (east, north, down) per input."""
    line = np.asarray(line, dtype=np.float64)
    sample = np.asarray(sample, dtype=np.float64)
    idx = np.arange(geo.lines, dtype=np.float64)
    roll = np.interp(line, idx, geo.roll) + geo.mounting[0] + geo.bias.droll
    pitch = np.interp(line, idx, geo.pitch) + geo.mounting[1] + geo.bias.dpitch
    yaw = np.interp(line, idx, geo.yaw) + geo.mounting[2] + geo.bias.dyaw
    look = geo.look_angle(sample)
    # instrument-frame ray: across-track fan, z pointing down
    vx = np.sin(look)
    vy = np.zeros_like(vx)
    vz = np.cos(look)
    # roll about the along-track axis moves the footprint across track
    cr, sr = np.cos(roll), np.sin(roll)
    vx, vz = vx * cr + vz * sr, -vx * sr + vz * cr
    # pitch about the across-track axis moves the footprint along track
    cp, sp = np.cos(pitch), np.sin(pitch)
    vy, vz = vy * cp + vz * sp, -vy * sp + vz * cp
    # yaw rotates the ground-plane components
    cy, sy = np.cos(yaw), np.sin(yaw)
    vx, vy = vx * cy - vy * sy, vx * sy + vy * cy
    return vx, vy, vz


def geolocate(geo: GeoModel, line, sample, height=0.0):
    """Ground (east, north) meters of image coordinates at a given height.

    Intersects the line of sight with the horizontal plane at ``height``
    on the local tangent frame.  Accepts scalars or arrays.
    """
    line = np.asarray(line, dtype=np.float64)
    sample = np.asarray(sample, dtype=np.float64)
    height = np.asarray(height, dtype=np.float64)
    vx, vy, vz = _los(geo, line, sample)
    if np.any(vz <= 1e-9):
        raise EstimationError("line of sight does not intersect the ground")
    dist = (geo.altitude_m - height) / vz
    idx = np.arange(geo.lines, dtype=np.float64)
    east = np.interp(line, idx, geo.track_across_m) + dist * vx
    north = np.interp(line, idx, geo.track_along_m) + dist * vy
    if east.ndim == 0:
        return float(east), float(north)
    return east, north


def residuals(geo: GeoModel, gcps) -> np.ndarray:
    """Per-GCP (across, along) residuals in meters: predicted - surveyed."""
    if not gcps:
        raise EstimationError("no ground control points supplied")
    lines = np.array([g.line for g in gcps])
    samples = np.array([g.sample for g in gcps])
    heights = np.array([g.height for g in gcps])
    east, north = geolocate(geo, lines, samples, heights)
    res = np.empty((len(gcps), 2))
    res[:, 0] = east - np.array([g.east for g in gcps])
    res[:, 1] = north - np.array([g.north for g in gcps])
    return res


def cost(bias: BoresightBias, strips) -> float:
    """Boresight objective: per strip, |mean| plus std of the across- and
    along-track residuals, summed over strips (meters).

    ``strips`` is a sequence of ``(GeoModel, [GroundControlPoint])`` pairs.
    """
    if not strips:
        raise EstimationError("no strips supplied")
    total = 0.0
    for geo, gcps in strips:
        res = residuals(geo.with_bias(bias), gcps)
        total += (abs(res[:, 0].mean()) + abs(res[:, 1].mean())
                  + res[:, 0].std() + res[:, 1].std())
    return float(total)


def optimize_boresight(strips) -> BoresightBias:
    """Fit a common boresight bias to all strips by derivative-free search.

    Nelder-Mead with up to BORESIGHT_RESTARTS restarts on stall, yaw held
    within YAW_BOUND_RAD; converged when a restart improves the cost by
    less than 0.01 m over its iterations.
    """
    def objective(x):
        if abs(x[2]) > YAW_BOUND_RAD:
            return 1e12 * (1.0 + abs(x[2]))
        val = cost(BoresightBias(*x), strips)
        if not np.isfinite(val):
            raise EstimationError("non-finite boresight cost (bad GCPs)")
        return val

    x0 = np.zeros(3)
    best_x, best_f = x0, objective(x0)
    step = np.deg2rad(0.1)
    for _ in range(BORESIGHT_RESTARTS + 1):
        simplex = np.vstack([best_x, best_x + np.diag([step, step,
                                                       min(step, YAW_BOUND_RAD / 2)])])
        res = minimize(objective, best_x, method="Nelder-Mead",
                       options={"initial_simplex": simplex, "fatol": 1e-4,
                                "xatol": 1e-9, "maxiter": 2000})
        improved = best_f - res.fun
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
        if improved < 0.01:
            break
        step /= 10.0
    return BoresightBias(*best_x)


@dataclass(frozen=True)
class MapGrid:
    """North-up map grid: cell (0, 0) is the north-west corner."""

    origin_east: float
    origin_north: float
    cell_m: float
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.cell_m <= 0 or self.rows <= 0 or self.cols <= 0:
            raise ConfigError("map grid must have positive size and cell")

    def centers(self):
        east = self.origin_east + self.cell_m * np.arange(self.cols)
        north = self.origin_north - self.cell_m * np.arange(self.rows)
        return np.meshgrid(north, east, indexing="ij")


def _invert_mapping(geo: GeoModel, east, north, height):
    """Iteratively solve geolocate(line, sample) == (east, north)."""
    east = np.asarray(east, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    height = np.broadcast_to(np.asarray(height, dtype=np.float64), east.shape)
    # first guess from the nominal straight-track mapping
    line = (north - geo.track_along_m[0]) / geo.gsd_m
    sample = np.full_like(east, (geo.samples - 1) / 2.0)
    converged = np.zeros(east.shape, dtype=bool)
    for _ in range(INVERT_MAX_ITER):
        ln = np.clip(line, 0.0, geo.lines - 1.0)
        sm = np.clip(sample, 0.0, geo.samples - 1.0)
        e, n = geolocate(geo, ln, sm, height)
        dl = (north - n) / geo.gsd_m
        ds = (east - e) / geo.gsd_m
        line = ln + dl
        sample = sm + ds
        converged = (np.abs(dl) < INVERT_TOL_PX) & (np.abs(ds) < INVERT_TOL_PX)
        if converged.all():
            break
    inside = ((line >= 0) & (line <= geo.lines - 1)
              & (sample >= 0) & (sample <= geo.samples - 1))
    return line, sample, converged & inside


def orthorectify(cube: SpectralCube, geo: GeoModel, height, grid: MapGrid):
    """Resample a strip onto a map grid using terrain heights.

    ``height`` is a constant or a raster matching the grid.  Returns
    ``(ortho cube, validity mask)``; cells whose inverse mapping failed to
    converge inside the strip footprint are masked.
    """
    if cube.data.shape[0] != geo.lines or cube.data.shape[1] != geo.samples:
        raise ConfigError("cube extent does not match the geometry model")
    north, east = grid.centers()
    h = np.asarray(height, dtype=np.float64)
    if h.ndim == 2 and h.shape != (grid.rows, grid.cols):
        raise ConfigError("height raster must match the map grid")
    line, sample, valid = _invert_mapping(geo, east, north, h)
    if not valid.any():
        raise EstimationError("map grid does not overlap the strip footprint")
    plan = cubic_plan(cube.data.shape[:2], line, sample)
    out = cubic_apply(plan, cube.data)
    out[~valid] = 0.0
    return cube.with_data(out), valid & plan.valid


def _poly2d_design(y, x, degree: int) -> np.ndarray:
    cols = []
    for dy in range(degree + 1):
        for dx in range(degree + 1):
            cols.append((y ** dy) * (x ** dx))
    return np.stack(cols, axis=-1)


def _measure_offsets(ref: np.ndarray, mov: np.ndarray, patch: int):
    """Patch-grid misregistration of ``mov`` relative to ``ref``."""
    rows, cols = ref.shape
    ys, xs, dys, dxs = [], [], [], []
    for y0 in range(0, rows - patch + 1, patch):
        for x0 in range(0, cols - patch + 1, patch):
            a = ref[y0:y0 + patch, x0:x0 + patch]
            b = mov[y0:y0 + patch, x0:x0 + patch]
            if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
                continue
            dy, dx, conf = shift_2d(a, b)
            if conf < OFFSET_MIN_CONFIDENCE:
                continue
            ys.append(y0 + patch / 2)
            xs.append(x0 + patch / 2)
            dys.append(dy)
            dxs.append(dx)
    if len(ys) < 3:
        raise EstimationError(
            "shared bands are featureless: no registration signal")
    return (np.array(ys), np.array(xs), np.array(dys), np.array(dxs))


def bundle(vnir: SpectralCube, swir: SpectralCube, patch: int = 64):
    """Co-register SWIR to VNIR on a shared map grid and merge the bands.

    Misregistration is measured with sub-pixel patch correlation on the
    spectrally overlapping bands, modeled as a polynomial surface of degree
    BUNDLE_DEGREE per axis, and applied to the SWIR cube only.  The merged
    cube keeps every VNIR band plus the SWIR bands above the VNIR range,
    so wavelengths increase strictly across the seam.  Returns
    ``(merged cube, residual_px)``.
    """
    if vnir.data.shape[:2] != swir.data.shape[:2]:
        raise ConfigError("bundle inputs must share one map grid")
    if patch < 1:
        raise EstimationError("patch must be at least 1 pixel")
    v_centers = np.array([m.center_nm for m in vnir.band_meta])
    s_centers = np.array([m.center_nm for m in swir.band_meta])
    vmax = v_centers.max()
    shared = np.nonzero(s_centers <= vmax)[0]
    if shared.size == 0:
        raise ConfigError("no shared-band wavelength overlap present")

    # each shared SWIR band is measured against its closest VNIR band
    closest = [int(np.argmin(np.abs(v_centers - s_centers[sb])))
               for sb in shared]

    def offsets(movs):
        """Patch offsets of every shared pair with a registration signal;
        ``movs`` yields the shared SWIR bands in order."""
        found = []
        for vb, mov in zip(closest, movs):
            try:
                found.append(_measure_offsets(
                    vnir.data[:, :, vb].astype(np.float64), mov, patch))
            except EstimationError:
                continue
        return found

    found = offsets(swir.data[:, :, sb].astype(np.float64) for sb in shared)
    if not found:
        raise EstimationError(
            "shared bands are featureless: no registration signal")
    ys, xs, dys, dxs = (np.concatenate(s) for s in zip(*found))

    rows, cols = vnir.data.shape[:2]
    design = _poly2d_design(ys / rows, xs / cols, BUNDLE_DEGREE)
    cy, *_ = np.linalg.lstsq(design, dys, rcond=None)
    cx, *_ = np.linalg.lstsq(design, dxs, rcond=None)

    gy, gx = np.meshgrid(np.arange(rows) / rows, np.arange(cols) / cols,
                         indexing="ij")
    full = _poly2d_design(gy, gx, BUNDLE_DEGREE)
    # shift_2d reports mov ~ ref shifted by d, so sampling mov at
    # coordinate + d pulls it back onto the reference
    map_y = np.arange(rows)[:, None] + full @ cy
    map_x = np.arange(cols)[None, :] + full @ cx

    plan = cubic_plan((rows, cols), map_y, map_x)
    # residual check on the shared overlap after correction
    reg = cubic_apply(plan, swir.data, shared)
    resid = max([0.0] + [float(np.hypot(dy, dx).max()) for _, _, dy, dx
                         in offsets(np.moveaxis(reg, 2, 0))])

    keep = np.nonzero(s_centers > vmax)[0]
    merged = np.empty((rows, cols, vnir.bands + keep.size))
    merged[:, :, :vnir.bands] = vnir.data
    cubic_apply(plan, swir.data, keep, out=merged[:, :, vnir.bands:])
    meta = tuple(vnir.band_meta) + tuple(swir.band_meta[i] for i in keep)
    out = SpectralCube(data=merged, pixel_kind="radiance",
                       band_meta=meta, interleave=vnir.interleave)
    return out, resid


# ---------------------------------------------------------------------------
# external interfaces

GCP_HEADER = ["line", "sample", "east", "north", "height", "strip_id"]


def write_gcps(path: str, gcps) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GCP_HEADER)
        for g in gcps:
            writer.writerow([g.line, g.sample, g.east, g.north, g.height,
                             g.strip_id])


def read_gcps(path: str):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != GCP_HEADER:
            raise ConfigError(f"bad GCP header in {os.path.basename(path)}")
        gcps = []
        for row in reader:
            if not row:
                continue
            gcps.append(GroundControlPoint(
                float(row[0]), float(row[1]), float(row[2]), float(row[3]),
                float(row[4]), row[5]))
    return gcps


def write_grid(path: str, grid: MapGrid) -> None:
    with open(path, "w") as fh:
        fh.write(f"origin_east = {grid.origin_east!r}\n")
        fh.write(f"origin_north = {grid.origin_north!r}\n")
        fh.write(f"cell_m = {grid.cell_m!r}\n")
        fh.write(f"rows = {grid.rows}\n")
        fh.write(f"cols = {grid.cols}\n")


def read_grid(path: str) -> MapGrid:
    fields = {}
    with open(path) as fh:
        for raw in fh:
            if "=" not in raw:
                continue
            key, val = raw.split("=", 1)
            fields[key.strip()] = val.strip()
    try:
        return MapGrid(float(fields["origin_east"]),
                       float(fields["origin_north"]),
                       float(fields["cell_m"]),
                       int(fields["rows"]), int(fields["cols"]))
    except KeyError as exc:
        raise ConfigError(f"grid sidecar missing field {exc}") from exc


def write_bias_report(path: str, bias: BoresightBias, final_cost: float) -> None:
    with open(path, "w") as fh:
        fh.write(f"delta_roll_deg = {np.rad2deg(bias.droll):.6f}\n")
        fh.write(f"delta_pitch_deg = {np.rad2deg(bias.dpitch):.6f}\n")
        fh.write(f"delta_yaw_deg = {np.rad2deg(bias.dyaw):.6f}\n")
        fh.write(f"final_cost_m = {final_cost:.6f}\n")
