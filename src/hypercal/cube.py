"""Spectral cube data model and bit-exact raw/header file I/O.

Cubes are stored as raw little-endian binary alongside a plain-text
``key = value`` sidecar header (same basename, ``.hdr``).  Two interleaves
are supported: band-sequential (``bsq``) and band-interleaved-by-line
(``bil``).  12-bit DN cubes live in an unsigned 16-bit container; radiance
cubes are 64-bit float in W m-2 sr-1 um-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import CubeFormatError

DN_MAX = 4095  # 12-bit radiometric resolution

_VNIR_RANGE = (400.0, 900.0)
_SWIR_RANGE = (850.0, 2500.0)

_DTYPES = {"dn12": np.dtype("<u2"), "radiance": np.dtype("<f8")}


@dataclass(frozen=True)
class BandMeta:
    """Per-band metadata: center wavelength, bandwidth, instrument, quality."""

    center_nm: float
    fwhm_nm: float
    instrument: str = "vnir"
    quality: str = "good"

    def __post_init__(self):
        if self.instrument not in ("vnir", "swir"):
            raise CubeFormatError(f"unknown instrument {self.instrument!r}")
        if self.quality not in ("good", "bad"):
            raise CubeFormatError(f"unknown quality {self.quality!r}")
        if not self.fwhm_nm > 0:
            raise CubeFormatError("fwhm_nm must be positive")
        lo, hi = _VNIR_RANGE if self.instrument == "vnir" else _SWIR_RANGE
        if not (lo <= self.center_nm <= hi):
            raise CubeFormatError(
                f"{self.instrument} center {self.center_nm} nm outside [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class RegionOfInterest:
    """Inclusive line/sample/band ranges."""

    line_start: int
    line_end: int
    sample_start: int
    sample_end: int
    band_start: int
    band_end: int

    def __post_init__(self):
        for lo, hi in ((self.line_start, self.line_end),
                       (self.sample_start, self.sample_end),
                       (self.band_start, self.band_end)):
            if lo < 0 or lo > hi:
                raise CubeFormatError("ROI ranges must satisfy 0 <= start <= end")


@dataclass(frozen=True)
class SpectralCube:
    """Dense (lines, samples, bands) raster with per-band metadata.

    Immutable after construction; operations return new cubes.
    """

    data: np.ndarray
    pixel_kind: str
    band_meta: tuple = field(default_factory=tuple)
    interleave: str = "bsq"

    def __post_init__(self):
        if self.pixel_kind not in _DTYPES:
            raise CubeFormatError(f"unknown pixel_kind {self.pixel_kind!r}")
        if self.interleave not in ("bsq", "bil"):
            raise CubeFormatError(f"unknown interleave {self.interleave!r}")
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise CubeFormatError("cube data must be 3-D (lines, samples, bands)")
        if self.pixel_kind == "dn12":
            # float input must already sit on the 12-bit grid: a cast would
            # silently truncate fractions and turn NaN into 0
            if data.dtype.kind == "f" and not np.all(
                    (data >= 0) & (data <= DN_MAX) & (data == np.rint(data))):
                raise CubeFormatError(
                    f"dn12 values must be whole numbers in [0, {DN_MAX}]")
            data = np.ascontiguousarray(data, dtype=np.uint16)
            if data.size and data.max() > DN_MAX:
                raise CubeFormatError(f"dn12 values must lie in [0, {DN_MAX}]")
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        meta = tuple(self.band_meta)
        if len(meta) != data.shape[2]:
            raise CubeFormatError("band_meta length must equal band count")
        object.__setattr__(self, "band_meta", meta)
        for instrument in ("vnir", "swir"):
            centers = [m.center_nm for m in meta if m.instrument == instrument]
            if any(b <= a for a, b in zip(centers, centers[1:])):
                raise CubeFormatError(
                    f"{instrument} centers must be strictly increasing")

    @property
    def lines(self) -> int:
        return self.data.shape[0]

    @property
    def samples(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    @property
    def centers_nm(self) -> np.ndarray:
        return np.array([m.center_nm for m in self.band_meta])

    @property
    def bad_bands(self) -> list:
        return [i for i, m in enumerate(self.band_meta) if m.quality == "bad"]

    def full_roi(self) -> RegionOfInterest:
        return RegionOfInterest(0, self.lines - 1, 0, self.samples - 1,
                                0, self.bands - 1)

    def with_data(self, data: np.ndarray, pixel_kind: str | None = None,
                  band_meta=None) -> "SpectralCube":
        """A cube derived from this one.  Float data for a ``dn12`` cube is
        rounded half to even and clipped onto the 12-bit grid."""
        pixel_kind = pixel_kind or self.pixel_kind
        if pixel_kind == "dn12" and np.asarray(data).dtype.kind == "f":
            data = np.rint(data)
            data = np.clip(data, 0, DN_MAX, out=data).astype(np.uint16)
        return SpectralCube(
            data=data,
            pixel_kind=pixel_kind,
            band_meta=tuple(band_meta) if band_meta is not None else self.band_meta,
            interleave=self.interleave,
        )

    def with_quality(self, bad_bands) -> "SpectralCube":
        bad = set(int(b) for b in bad_bands)
        meta = tuple(
            replace(m, quality="bad") if i in bad else m
            for i, m in enumerate(self.band_meta)
        )
        return self.with_data(self.data, band_meta=meta)


def uniform_band_meta(bands: int, instrument: str = "vnir",
                      lo: float | None = None, hi: float | None = None,
                      fwhm: float | None = None) -> tuple:
    """Evenly spaced band metadata over the instrument's spectral range."""
    if instrument == "vnir":
        lo = 400.0 if lo is None else lo
        hi = 900.0 if hi is None else hi
        fwhm = 9.24 if fwhm is None else fwhm
    else:
        lo = 850.0 if lo is None else lo
        hi = 2500.0 if hi is None else hi
        fwhm = 5.87 if fwhm is None else fwhm
    centers = np.linspace(lo, hi, bands)
    return tuple(BandMeta(float(c), float(fwhm), instrument) for c in centers)


def _header_path(path: Path) -> Path:
    return path.with_suffix(".hdr")


def write_cube(cube: SpectralCube, path, interleave: str | None = None) -> None:
    """Write a cube and its sidecar header; re-reading yields an equal cube
    regardless of interleave."""
    path = Path(path)
    interleave = interleave or cube.interleave
    if interleave not in ("bsq", "bil"):
        raise CubeFormatError(f"unknown interleave {interleave!r}")
    dtype = _DTYPES[cube.pixel_kind]
    if interleave == "bsq":
        slabs = (cube.data[:, :, b] for b in range(cube.bands))
    else:
        slabs = (cube.data[i].T for i in range(cube.lines))
    try:
        # one (lines, samples) band or (bands, samples) line at a time
        with open(path, "wb") as fh:
            for slab in slabs:
                fh.write(np.ascontiguousarray(slab, dtype=dtype))
    except OSError as exc:
        raise CubeFormatError(f"cannot write {path}: {exc}") from exc

    lines = [
        f"lines = {cube.lines}",
        f"samples = {cube.samples}",
        f"bands = {cube.bands}",
        f"interleave = {interleave}",
        f"pixel_kind = {cube.pixel_kind}",
        "byte_order = little-endian",
        "center_nm = " + ",".join(repr(m.center_nm) for m in cube.band_meta),
        "fwhm_nm = " + ",".join(repr(m.fwhm_nm) for m in cube.band_meta),
        "instrument = " + ",".join(m.instrument for m in cube.band_meta),
        "bad_bands = " + ",".join(str(i) for i in cube.bad_bands),
    ]
    _header_path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_header(hdr_path: Path) -> dict:
    if not hdr_path.exists():
        raise CubeFormatError(f"missing header {hdr_path}")
    entries = {}
    for raw in hdr_path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CubeFormatError(f"garbled header line: {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def read_cube(path) -> SpectralCube:
    """Read a cube written by :func:`write_cube` (bit-exact round trip)."""
    path = Path(path)
    hdr = _parse_header(_header_path(path))
    try:
        nl = int(hdr["lines"])
        ns = int(hdr["samples"])
        nb = int(hdr["bands"])
        interleave = hdr["interleave"]
        pixel_kind = hdr["pixel_kind"]
        centers = [float(v) for v in hdr["center_nm"].split(",") if v]
        fwhms = [float(v) for v in hdr["fwhm_nm"].split(",") if v]
        instruments = [v for v in hdr["instrument"].split(",") if v]
        bad = {int(v) for v in hdr.get("bad_bands", "").split(",") if v}
    except (KeyError, ValueError) as exc:
        raise CubeFormatError(f"garbled header {_header_path(path)}: {exc}") from exc
    if hdr.get("byte_order", "little-endian") != "little-endian":
        raise CubeFormatError("only little-endian cubes are supported")
    if interleave not in ("bsq", "bil") or pixel_kind not in _DTYPES:
        raise CubeFormatError("invalid interleave or pixel_kind in header")
    if not (len(centers) == len(fwhms) == len(instruments) == nb):
        raise CubeFormatError("band metadata length does not match band count")

    dtype = _DTYPES[pixel_kind]
    raw = np.frombuffer(path.read_bytes(), dtype=dtype)
    if raw.size != nl * ns * nb:
        raise CubeFormatError(
            f"data size {raw.size} does not match header {nl}x{ns}x{nb}")
    if interleave == "bsq":
        data = np.transpose(raw.reshape(nb, nl, ns), (1, 2, 0))
    else:
        data = np.transpose(raw.reshape(nl, nb, ns), (0, 2, 1))
    meta = tuple(
        BandMeta(c, f, inst, "bad" if i in bad else "good")
        for i, (c, f, inst) in enumerate(zip(centers, fwhms, instruments))
    )
    return SpectralCube(data=np.ascontiguousarray(data), pixel_kind=pixel_kind,
                        band_meta=meta, interleave=interleave)


def region_stats(cube: SpectralCube, roi: RegionOfInterest) -> dict:
    """Per-band mean/std/min/max over a region (population std, float64)."""
    if (roi.line_end >= cube.lines or roi.sample_end >= cube.samples
            or roi.band_end >= cube.bands):
        raise CubeFormatError("ROI exceeds cube dimensions")
    block = cube.data[roi.line_start:roi.line_end + 1,
                      roi.sample_start:roi.sample_end + 1,
                      roi.band_start:roi.band_end + 1].astype(np.float64)
    if block.size == 0:
        raise CubeFormatError("empty region")
    return {
        "mean": block.mean(axis=(0, 1)),
        "std": block.std(axis=(0, 1)),
        "min": block.min(axis=(0, 1)),
        "max": block.max(axis=(0, 1)),
    }
