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
from numpy.polynomial.polynomial import polyvander2d

from .errors import ConfigError, EstimationError
from .cube import SpectralCube, read_header, write_header
from .kernels import cubic_apply, cubic_plan
from .registration import shift_2d

__all__ = [
    "BoresightBias", "GroundControlPoint", "GeoModel",
    "MapGrid", "footprint_grid", "make_geo", "geolocate", "residuals", "cost",
    "optimize_boresight", "orthorectify", "bundle",
    "read_gcps", "write_gcps", "read_grid", "write_grid", "write_bias_report",
]

DEFAULT_ALTITUDE_M = 630_000.0
DEFAULT_GSD_M = 30.0
YAW_BOUND_RAD = np.deg2rad(0.05)
BORESIGHT_RESTARTS = 4         # Nelder-Mead restarts after the first run
NM_FATOL = 1e-4                # Nelder-Mead stop: spread of simplex values
NM_XATOL = 1e-9                # ... and of simplex vertices (rad)
NM_MAX_ITER = 2000             # Nelder-Mead iteration cap (counted from 1)
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
    mounting: tuple = (0.0, 0.0, 0.0)
    bias: BoresightBias = field(default_factory=BoresightBias)

    def __post_init__(self) -> None:
        if self.altitude_m <= 0:
            raise ConfigError("orbit altitude must be positive")
        if self.samples < 2:
            raise ConfigError("strip must have at least 2 samples")
        n = self.track_along_m.shape[0]
        for name in ("track_across_m", "roll", "pitch", "yaw"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(
                    "attitude/track series must all cover the strip lines")
        if np.any(np.abs(self.roll) >= 0.5) or np.any(np.abs(self.pitch) >= 0.5):
            raise ConfigError("attitude roll/pitch out of supported range")

    @property
    def lines(self) -> int:
        return self.track_along_m.shape[0]

    def with_bias(self, bias: BoresightBias) -> "GeoModel":
        return dataclasses.replace(self, bias=bias)


def make_geo(lines: int, samples: int, roll=0.0, pitch=0.0, yaw=0.0,
             track_start_north: float = 0.0,
             track_across: float = 0.0) -> GeoModel:
    """Build a straight-track geometry at DEFAULT_ALTITUDE_M: the satellite
    advances one DEFAULT_GSD_M of along-track (north) distance per line at
    constant across-track offset."""

    def series(v):
        arr = np.asarray(v, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(lines, float(arr))
        if arr.shape != (lines,):
            raise ConfigError("attitude series must be scalar or one per line")
        return arr

    along = track_start_north + DEFAULT_GSD_M * np.arange(lines, dtype=float)
    return GeoModel(
        altitude_m=DEFAULT_ALTITUDE_M, gsd_m=DEFAULT_GSD_M,
        samples=int(samples), track_along_m=along,
        track_across_m=np.full(lines, float(track_across)),
        roll=series(roll), pitch=series(pitch), yaw=series(yaw))


def _point_terms(geo: GeoModel, line, sample, height):
    """What the ground intersection needs of points that does not depend on
    the boresight bias: attitude plus mounting (roll, pitch, yaw) at the
    fractional line, sine and cosine of the across-track look angle (zero at
    the center sample), ``altitude - height``, and the track (east, north)
    at the line."""
    idx = np.arange(geo.lines, dtype=np.float64)
    look = (sample - (geo.samples - 1) / 2.0) * geo.gsd_m / geo.altitude_m
    return (*(np.interp(line, idx, series) + mount for series, mount in
              zip((geo.roll, geo.pitch, geo.yaw), geo.mounting)),
            np.sin(look), np.cos(look), geo.altitude_m - height,
            np.interp(line, idx, geo.track_across_m),
            np.interp(line, idx, geo.track_along_m))


def _ground(terms, bias):
    """Ground (east, north) meters where the lines of sight of
    :func:`_point_terms` meet their horizontal planes under a boresight
    bias ``(droll, dpitch, dyaw)``."""
    roll, pitch, yaw = (angle + d for angle, d in zip(terms[:3], bias))
    # instrument-frame ray: across-track fan, z pointing down
    vx, vz, depth, track_e, track_n = terms[3:]
    vy = np.zeros_like(vx)
    # roll about the along-track axis moves the footprint across track
    cr, sr = np.cos(roll), np.sin(roll)
    vx, vz = vx * cr + vz * sr, -vx * sr + vz * cr
    # pitch about the across-track axis moves the footprint along track
    cp, sp = np.cos(pitch), np.sin(pitch)
    vy, vz = vy * cp + vz * sp, -vy * sp + vz * cp
    # yaw rotates the ground-plane components
    cy, sy = np.cos(yaw), np.sin(yaw)
    vx, vy = vx * cy - vy * sy, vx * sy + vy * cy
    if np.any(vz <= 1e-9):
        raise EstimationError("line of sight does not intersect the ground")
    dist = depth / vz
    return track_e + dist * vx, track_n + dist * vy


def geolocate(geo: GeoModel, line, sample, height=0.0):
    """Ground (east, north) meters of image coordinates at a given height.

    Intersects the line of sight with the horizontal plane at ``height``
    on the local tangent frame.  Accepts scalars or arrays.
    """
    terms = _point_terms(geo, *(np.asarray(v, dtype=np.float64)
                                for v in (line, sample, height)))
    east, north = _ground(terms, dataclasses.astuple(geo.bias))
    if east.ndim == 0:
        return float(east), float(north)
    return east, north


def residuals(geo: GeoModel, gcps) -> np.ndarray:
    """Per-GCP (across, along) residuals in meters: predicted - surveyed."""
    terms, _ = _gcp_terms([(geo, gcps)])
    return _gcp_residuals(terms, dataclasses.astuple(geo.bias)).T.copy()


def _gcp_terms(strips):
    """The :func:`_point_terms` of every GCP of every strip in strip order,
    then their surveyed (east, north), as a ``(10, n)`` array, and each
    strip's slice of its columns."""
    if not strips:
        raise EstimationError("no strips supplied")
    parts, slices, stop = [], [], 0
    for geo, gcps in strips:
        if not gcps:
            raise EstimationError("no ground control points supplied")
        line, sample, height, east, north = np.array(
            [(g.line, g.sample, g.height, g.east, g.north) for g in gcps],
            dtype=np.float64).T
        parts.append(np.array([*_point_terms(geo, line, sample, height),
                               east, north]))
        slices.append(slice(stop, stop + len(gcps)))
        stop += len(gcps)
    return np.concatenate(parts, axis=1), slices


def _gcp_residuals(terms, bias) -> np.ndarray:
    """``(2, n)`` predicted - surveyed (east, north) of :func:`_gcp_terms`
    under a bias ``(droll, dpitch, dyaw)``."""
    east, north = _ground(terms[:8], bias)
    return np.array([east - terms[8], north - terms[9]])


def _terms_cost(terms, slices, bias) -> float:
    """The boresight cost of one bias in one pass over every GCP."""
    res = _gcp_residuals(terms, bias)
    total = 0.0
    for s in slices:
        (me, mn), (se, sn) = res[:, s].mean(axis=1), res[:, s].std(axis=1)
        total += abs(me) + abs(mn) + se + sn
    return float(total)


def cost(bias: BoresightBias, strips) -> float:
    """Boresight objective: per strip, |mean| plus std of the across- and
    along-track residuals, summed over strips (meters).

    ``strips`` is a sequence of ``(GeoModel, [GroundControlPoint])`` pairs;
    each strip's own ``bias`` is replaced by ``bias``.
    """
    return _terms_cost(*_gcp_terms(strips), dataclasses.astuple(bias))


def _nelder_mead(fn, simplex):
    """Minimize ``fn`` from an ``(n + 1, n)`` starting simplex by the
    downhill simplex of Nelder & Mead (Computer Journal 7, 1965).

    Step for step the non-adaptive variant of SciPy's ``minimize(...,
    method="Nelder-Mead")`` with NM_FATOL, NM_XATOL and NM_MAX_ITER: the
    same coefficients, evaluation order, sorts and stopping test, so it
    returns the same bits.  ``fn`` gets a copy of each point.  Returns the
    best vertex and the lowest function value.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=np.float64)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = fn(np.copy(sim[k]))
    # SciPy sorts twice here; argsort need not be stable, so two sorts
    # order tied values as SciPy does
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    for _ in range(NM_MAX_ITER - 1):
        if (np.max(np.abs(sim[1:] - sim[0])) <= NM_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= NM_FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = fn(np.copy(xr))
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = fn(np.copy(xe))
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            # outside contraction
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = fn(np.copy(xc))
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            # inside contraction
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = fn(np.copy(xcc))
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = fn(np.copy(sim[j]))
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def optimize_boresight(strips) -> BoresightBias:
    """Fit a common boresight bias to all strips by derivative-free search.

    Nelder-Mead with up to BORESIGHT_RESTARTS restarts on stall, yaw held
    within YAW_BOUND_RAD; converged when a restart improves the cost by
    less than 0.01 m over its iterations.
    """
    terms, slices = _gcp_terms(strips)

    def objective(x):
        if abs(x[2]) > YAW_BOUND_RAD:
            return 1e12 * (1.0 + abs(x[2]))
        val = _terms_cost(terms, slices, x)
        if not np.isfinite(val):
            raise EstimationError("non-finite boresight cost (bad GCPs)")
        return val

    x0 = np.zeros(3)
    best_x, best_f = x0, objective(x0)
    step = np.deg2rad(0.1)
    for _ in range(BORESIGHT_RESTARTS + 1):
        simplex = np.vstack([best_x, best_x + np.diag([step, step,
                                                       min(step, YAW_BOUND_RAD / 2)])])
        x, f = _nelder_mead(objective, simplex)
        improved = best_f - f
        if f < best_f:
            best_x, best_f = x, float(f)
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


def footprint_grid(geo: GeoModel, margin_cells: int, cell_m: float) -> MapGrid:
    """The map grid of ``cell_m`` cells spanning the strip's ground
    footprint between its first and last pixel, ``margin_cells`` inside it
    on every side (outside for a negative margin)."""
    e0, n0 = geolocate(geo, 0, 0, 0.0)
    e1, n1 = geolocate(geo, geo.lines - 1, geo.samples - 1, 0.0)
    origin_east = min(e0, e1) + margin_cells * cell_m
    origin_north = max(n0, n1) - margin_cells * cell_m
    span_n, span_e = abs(n1 - n0) / cell_m, abs(e1 - e0) / cell_m
    if not (max(span_n - 2 * margin_cells + 1, 1) * max(
            span_e - 2 * margin_cells + 1, 1)
            <= 64 * geo.lines * geo.samples):
        raise EstimationError("map grid oversamples the swath more than 8x "
                              "per axis; raise cell_m or margin_cells")
    rows = int(span_n) - 2 * margin_cells + 1
    cols = int(span_e) - 2 * margin_cells + 1
    return MapGrid(origin_east, origin_north, cell_m, max(rows, 1),
                   max(cols, 1))


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
    ``(ortho cube, validity mask, (line, sample, converged))``: cells whose
    inverse mapping failed to converge inside the strip footprint are
    masked, and the last item is the inverse mapping the cube was sampled
    at.
    """
    if cube.data.shape[0] != geo.lines or cube.data.shape[1] != geo.samples:
        raise ConfigError("cube extent does not match the geometry model")
    north, east = grid.centers()
    h = np.asarray(height, dtype=np.float64)
    if h.ndim == 2 and h.shape != (grid.rows, grid.cols):
        raise ConfigError("height raster must match the map grid")
    line, sample, valid = mapping = _invert_mapping(geo, east, north, h)
    if not valid.any():
        raise EstimationError("map grid does not overlap the strip footprint")
    plan = cubic_plan(cube.data.shape[:2], line, sample)
    out = cubic_apply(plan, cube.data)
    out[~valid] = 0.0
    return cube.with_data(out), valid & plan.valid, mapping


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


def bundle(vnir: SpectralCube, swir: SpectralCube, patch: int | None = None):
    """Co-register SWIR to VNIR on a shared map grid and merge the bands.

    Misregistration is measured with sub-pixel patch correlation on the
    spectrally overlapping bands, modeled as a polynomial surface of degree
    BUNDLE_DEGREE per axis, and applied to the SWIR cube only.  The default
    ``patch`` is the largest of 64, 32 and 16 px giving BUNDLE_DEGREE + 1
    patches along each grid axis.  The merged cube keeps every VNIR band
    plus the SWIR bands above the VNIR range, so wavelengths increase
    strictly across the seam.  The registered SWIR cube is sampled in one
    pass, straight into the merged cube's buffer; the residual is measured
    on its shared bands there before the VNIR bands overwrite them.
    Returns ``(merged cube, residual_px)``.
    """
    if vnir.data.shape[:2] != swir.data.shape[:2]:
        raise ConfigError("bundle inputs must share one map grid")
    rows, cols = vnir.data.shape[:2]
    if patch is None:
        patch = next((p for p in (64, 32) if min(rows, cols) // p
                      > BUNDLE_DEGREE), 16)
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

    degrees = [BUNDLE_DEGREE, BUNDLE_DEGREE]
    design = polyvander2d(ys / rows, xs / cols, degrees)
    cy, *_ = np.linalg.lstsq(design, dys, rcond=None)
    cx, *_ = np.linalg.lstsq(design, dxs, rcond=None)

    gy, gx = np.meshgrid(np.arange(rows) / rows, np.arange(cols) / cols,
                         indexing="ij")
    # terms made the fastest axis, so each map is one contiguous matmul
    full = np.ascontiguousarray(polyvander2d(gy, gx, degrees))
    # shift_2d reports mov ~ ref shifted by d, so sampling mov at
    # coordinate + d pulls it back onto the reference
    map_y = np.arange(rows)[:, None] + full @ cy
    map_x = np.arange(cols)[None, :] + full @ cx

    # SWIR centers increase, so the shared bands lead.  SWIR band i goes to
    # merged band vnir.bands - shared.size + i: the bands above the VNIR
    # range land in place, the shared ones where the VNIR bands go.  With
    # fewer VNIR bands than shared ones the buffer starts at SWIR band 0
    # and the merged cube is its tail.
    lead = max(vnir.bands - shared.size, 0)
    buf = np.empty((rows, cols, lead + swir.bands))
    cubic_apply(cubic_plan((rows, cols), map_y, map_x), swir.data,
                out=buf[:, :, lead:])
    # residual check on the shared overlap after correction
    resid = max([0.0] + [float(np.hypot(dy, dx).max()) for _, _, dy, dx
                         in offsets(buf[:, :, lead + sb] for sb in shared)])

    merged = buf[:, :, lead + shared.size - vnir.bands:]
    merged[:, :, :vnir.bands] = vnir.data
    meta = vnir.band_meta + swir.band_meta[shared.size:]
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
    """Read a :func:`write_gcps` file.  A bad header, a short row or a
    field that is not a number is a ``ConfigError`` naming the row (the
    header is row 1) and the column."""
    name = os.path.basename(path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [None]
    if header is None or [h.strip() for h in header] != GCP_HEADER:
        raise ConfigError(f"bad GCP header in {name}")
    gcps = []
    for i, row in enumerate(rows, 2):
        if not row:
            continue
        if len(row) < len(GCP_HEADER):
            raise ConfigError(f"{name} row {i}: column "
                              f"{GCP_HEADER[len(row)]!r} is missing")
        values = []
        for column, text in zip(GCP_HEADER, row[:5]):
            try:
                values.append(float(text))
            except ValueError:
                raise ConfigError(f"{name} row {i}: column {column!r}: "
                                  f"{text!r} is not a number") from None
        gcps.append(GroundControlPoint(*values, row[5]))
    return gcps


def write_grid(path: str, grid: MapGrid) -> None:
    write_header(path, dataclasses.asdict(grid))


def read_grid(path: str) -> MapGrid:
    """Read a :func:`write_grid` file; a field that is missing or not a
    number is a ``ConfigError`` naming it."""
    return MapGrid(**read_header(path, {
        "origin_east": float, "origin_north": float, "cell_m": float,
        "rows": int, "cols": int}, ConfigError))


def write_bias_report(path: str, bias: BoresightBias, final_cost: float) -> None:
    write_header(path, {
        "delta_roll_deg": f"{np.rad2deg(bias.droll):.6f}",
        "delta_pitch_deg": f"{np.rad2deg(bias.dpitch):.6f}",
        "delta_yaw_deg": f"{np.rad2deg(bias.dyaw):.6f}",
        "final_cost_m": f"{final_cost:.6f}"})
