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
from .registration import SHIFT_2D_MIN_PATCH, shift_2d

__all__ = [
    "BoresightBias", "GroundControlPoint", "GeoModel",
    "MapGrid", "footprint_grid", "make_geo", "geolocate", "residuals", "cost",
    "optimize_boresight", "ortho_plan", "ortho_sample", "orthorectify",
    "bundle",
    "read_gcps", "write_gcps", "read_grid", "write_grid", "write_bias_report",
]

DEFAULT_ALTITUDE_M = 630_000.0
DEFAULT_GSD_M = 30.0
YAW_BOUND_RAD = np.deg2rad(0.05)
FIT_MAX_STEPS = 50             # Gauss-Newton steps before the fit refuses
FIT_TOL_RAD = 1e-9             # converged step, and Jacobian difference step
INVERT_MAX_ITER = 20           # fixed-point steps of the inverse mapping
INVERT_TOL_PX = 0.01           # inverse-mapping convergence, both axes
OFFSET_MIN_CONFIDENCE = 0.02   # patch correlations below this are dropped
BUNDLE_DEGREE = 2              # misregistration polynomial order per axis
BUNDLE_BAND_BLOCK = 16         # SWIR bands per block read by bundle
SPAN_SNAP_CELLS = 1e-6         # footprint span tolerance below a whole count


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


def cost(bias: BoresightBias, strips) -> float:
    """Boresight fit quality: per strip, |mean| plus std of the across- and
    along-track residuals, summed over strips (meters).

    ``strips`` is a sequence of ``(GeoModel, [GroundControlPoint])`` pairs;
    each strip's own ``bias`` is replaced by ``bias``.
    """
    terms, slices = _gcp_terms(strips)
    res = _gcp_residuals(terms, dataclasses.astuple(bias))
    total = 0.0
    for s in slices:
        (me, mn), (se, sn) = res[:, s].mean(axis=1), res[:, s].std(axis=1)
        total += abs(me) + abs(mn) + se + sn
    return float(total)


def optimize_boresight(strips) -> BoresightBias:
    """Fit a common boresight bias to all strips by least squares.

    Damped Gauss-Newton on the across- and along-track residuals of every
    GCP, from zero bias: each step solves the forward-difference Jacobian
    (difference step FIT_TOL_RAD) by ``np.linalg.lstsq`` and is halved
    until the sum of squares does not rise.  GCPs barely fix yaw, so after
    each step yaw is clamped to within YAW_BOUND_RAD; this is a clamp, not
    a prior: it adds no term to the sum of squares.  While yaw rests on the
    bound and the step would push it further out, the step fits roll and
    pitch alone, so they are the least-squares fit at that yaw.  Converged
    when a step moves no angle by FIT_TOL_RAD or more.  Non-finite
    residuals, or no convergence within FIT_MAX_STEPS steps, raise
    ``EstimationError``.
    """
    terms, _ = _gcp_terms(strips)

    def fit_residuals(x):
        """The residuals at bias ``x`` and their sum of squares, which is
        inf or nan where they overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            res = _gcp_residuals(terms, x).ravel()
            return res, float(res @ res)

    x = np.zeros(3)
    res, ss = fit_residuals(x)
    if not np.isfinite(ss):
        raise EstimationError("non-finite GCP residuals (bad GCPs)")
    for _ in range(FIT_MAX_STEPS):
        jac = np.column_stack([fit_residuals(x + d)[0] - res
                               for d in np.eye(3) * FIT_TOL_RAD]) / FIT_TOL_RAD
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        if abs(x[2]) == YAW_BOUND_RAD and step[2] * x[2] > 0:
            # yaw rests on its bound and the step pushes past it: hold yaw
            # there and fit roll and pitch alone, so the clamp does not
            # bend them
            step = np.append(np.linalg.lstsq(jac[:, :2], -res,
                                             rcond=None)[0], 0.0)
        while True:
            trial = x + step
            trial[2] = np.clip(trial[2], -YAW_BOUND_RAD, YAW_BOUND_RAD)
            trial_res, trial_ss = fit_residuals(trial)
            # a non-finite sum compares False, so that step is halved too
            if trial_ss <= ss or np.abs(step).max() < FIT_TOL_RAD:
                break
            step /= 2.0
        moved = np.abs(trial - x).max()
        if trial_ss <= ss:
            x, res, ss = trial, trial_res, trial_ss
        if moved < FIT_TOL_RAD:
            return BoresightBias(*x)
    raise EstimationError("boresight fit did not converge within "
                          f"{FIT_MAX_STEPS} steps")


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
    # a span a rounding error short of a whole cell count keeps that count
    rows = int(span_n + SPAN_SNAP_CELLS) - 2 * margin_cells + 1
    cols = int(span_e + SPAN_SNAP_CELLS) - 2 * margin_cells + 1
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


def ortho_plan(shape, geo: GeoModel, height, grid: MapGrid):
    """The cubic sampling plan of a ``shape`` (lines, samples) strip onto a
    map grid, worked out once for any number of bands.

    ``height`` is a constant or a raster matching the grid.  Returns
    ``(plan, (line, sample, converged))``: the inverse mapping the plan
    samples at, where ``converged`` marks the cells whose inverse mapping
    converged inside the strip footprint.
    """
    if tuple(shape) != (geo.lines, geo.samples):
        raise ConfigError("cube extent does not match the geometry model")
    north, east = grid.centers()
    h = np.asarray(height, dtype=np.float64)
    if h.ndim == 2 and h.shape != (grid.rows, grid.cols):
        raise ConfigError("height raster must match the map grid")
    line, sample, converged = mapping = _invert_mapping(geo, east, north, h)
    if not converged.any():
        raise EstimationError("map grid does not overlap the strip footprint")
    return cubic_plan(shape, line, sample), mapping


def ortho_sample(plan, converged, stack: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The bands of a band-last strip ``stack`` on the map grid of an
    :func:`ortho_plan`, zero in the cells whose mapping did not converge,
    in ``out`` (made if None; may overlap the stack as
    :func:`~hypercal.kernels.cubic_apply` allows)."""
    out = cubic_apply(plan, stack, out=out)
    out[~converged] = 0.0
    return out


def orthorectify(cube: SpectralCube, geo: GeoModel, height, grid: MapGrid,
                 out: np.ndarray | None = None):
    """Resample a strip onto a map grid using terrain heights.

    Returns ``(ortho cube, validity mask, (line, sample, converged))``: cells
    whose inverse mapping failed to converge inside the strip footprint are
    masked, and the last item is the inverse mapping the cube was sampled
    at (see :func:`ortho_plan`).  ``out`` is a float64 array of the cube's
    shape, which may be ``cube.data`` itself: the ortho cube takes its
    leading ``rows*cols`` pixels, sampled from copied band blocks.  The
    cube is sampled into a new array instead when ``out`` is None or not
    C-contiguous, or when the grid has more cells than the strip pixels.
    """
    if out is not None and out.shape != cube.data.shape:
        raise ValueError("out must have the cube's shape")
    lines, samples, nb = cube.data.shape
    plan, mapping = ortho_plan((lines, samples), geo, height, grid)
    converged = mapping[2]
    dst = None
    if out is not None and out.dtype == np.float64 \
            and out.flags.c_contiguous and converged.size <= lines * samples:
        dst = out.reshape(lines * samples, nb)[:converged.size].reshape(
            converged.shape + (nb,))
    data = ortho_sample(plan, converged, cube.data, out=dst)
    return cube.with_data(data), converged & plan.valid, mapping


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


def _warp_plan(rows: int, cols: int, cy, cx):
    """The cubic sampling plan of a ``(rows, cols)`` grid displaced by the
    polynomial surfaces ``cy`` (lines) and ``cx`` (samples) of degree
    BUNDLE_DEGREE per axis in grid coordinates over the grid size."""
    gy, gx = np.meshgrid(np.arange(rows) / rows, np.arange(cols) / cols,
                         indexing="ij")
    # terms made the fastest axis, so each map is one contiguous matmul
    full = np.ascontiguousarray(
        polyvander2d(gy, gx, [BUNDLE_DEGREE, BUNDLE_DEGREE]))
    # shift_2d reports mov ~ ref shifted by d, so sampling mov at
    # coordinate + d pulls it back onto the reference
    map_y = np.arange(rows)[:, None] + full @ cy
    map_x = np.arange(cols)[None, :] + full @ cx
    return cubic_plan((rows, cols), map_y, map_x)


def bundle(take_vnir, swir_meta, swir_bands, patch: int | None = None):
    """Co-register SWIR to VNIR on a shared map grid and merge the bands.

    ``take_vnir()`` is called once and returns the VNIR cube on the map
    grid; ``swir_bands(slice)`` returns those bands of ``swir_meta`` on the
    grid as a ``(rows, cols, k)`` array.  Misregistration is measured with
    sub-pixel patch correlation on the spectrally overlapping (shared)
    bands, modeled as a polynomial surface of degree BUNDLE_DEGREE per
    axis, and applied to the SWIR bands only.  The default ``patch`` is the
    largest of 64, 32 and 16 px giving BUNDLE_DEGREE + 1 patches along each
    grid axis.  The merged cube keeps every VNIR band plus the SWIR bands
    above the VNIR range, so wavelengths increase strictly across the seam.

    Each SWIR band is read once, at most BUNDLE_BAND_BLOCK at a time and one
    block resident: the shared bands for the fit and the residual, then the
    rest straight into the merged cube.  Before those last reads the VNIR
    bands are copied in and the VNIR cube is dropped, so the caller frees it
    by keeping no reference; it is taken by a call because CPython 3.10
    keeps a passed argument alive until the call returns.  Returns
    ``(merged cube, residual_px)``.
    """
    vnir = take_vnir()
    rows, cols, nv = vnir.data.shape
    if patch is None:
        patch = next((p for p in (64, 32) if min(rows, cols) // p
                      > BUNDLE_DEGREE), SHIFT_2D_MIN_PATCH)
    if patch < SHIFT_2D_MIN_PATCH:
        raise EstimationError(
            f"patch must be at least {SHIFT_2D_MIN_PATCH} pixels")
    v_centers = vnir.centers_nm
    s_centers = np.array([m.center_nm for m in swir_meta])
    # SWIR centers increase, so the shared bands lead
    n_shared = int(np.count_nonzero(s_centers <= v_centers.max()))
    if n_shared == 0:
        raise ConfigError("no shared-band wavelength overlap present")

    def read(b0, stop):
        """Up to BUNDLE_BAND_BLOCK SWIR bands from ``b0``, below ``stop``."""
        block = swir_bands(slice(b0, min(b0 + BUNDLE_BAND_BLOCK, stop)))
        if block.shape[:2] != (rows, cols):
            raise ConfigError("bundle inputs must share one map grid")
        return block

    # each shared SWIR band is fitted to its closest VNIR band, both float64
    closest = [int(np.argmin(np.abs(v_centers - c)))
               for c in s_centers[:n_shared]]
    planes = {vb: vnir.data[:, :, vb].astype(np.float64)
              for vb in set(closest)}
    held = np.empty((rows, cols, n_shared))
    for b0 in range(0, n_shared, BUNDLE_BAND_BLOCK):
        block = read(b0, n_shared)
        held[:, :, b0:b0 + block.shape[2]] = block
        del block  # released before the next block is read

    def offsets(movs):
        """Patch offsets of every shared pair with a registration signal;
        ``movs`` yields the shared SWIR bands in order."""
        found = []
        for vb, mov in zip(closest, movs):
            try:
                found.append(_measure_offsets(planes[vb], mov, patch))
            except EstimationError:
                continue
        return found

    found = offsets(held[:, :, sb].copy() for sb in range(n_shared))
    if not found:
        raise EstimationError(
            "shared bands are featureless: no registration signal")
    ys, xs, dys, dxs = (np.concatenate(s) for s in zip(*found))

    design = polyvander2d(ys / rows, xs / cols,
                          [BUNDLE_DEGREE, BUNDLE_DEGREE])
    cy, *_ = np.linalg.lstsq(design, dys, rcond=None)
    cx, *_ = np.linalg.lstsq(design, dxs, rcond=None)

    warp = _warp_plan(rows, cols, cy, cx)

    merged = np.empty((rows, cols, nv + len(swir_meta) - n_shared))
    merged[:, :, :nv] = vnir.data
    meta = vnir.band_meta + tuple(swir_meta[n_shared:])
    interleave = vnir.interleave
    del vnir  # with no reference left in the caller, the cube goes
    # residual check on the shared overlap after correction
    fixed = cubic_apply(warp, held)
    resid = max([0.0] + [float(np.hypot(dy, dx).max()) for _, _, dy, dx
                         in offsets(fixed[:, :, sb]
                                    for sb in range(n_shared))])
    del held, planes, fixed
    for b0 in range(n_shared, len(swir_meta), BUNDLE_BAND_BLOCK):
        block = read(b0, len(swir_meta))
        m0 = nv + b0 - n_shared
        cubic_apply(warp, block, out=merged[:, :, m0:m0 + block.shape[2]])
        del block  # released before the next block is read
    out = SpectralCube(data=merged, pixel_kind="radiance",
                       band_meta=meta, interleave=interleave)
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
