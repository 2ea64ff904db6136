"""Spectral cube data model and bit-exact raw/header file I/O.

Cubes are stored as raw little-endian binary alongside a plain-text
``key = value`` sidecar header (same basename, ``.hdr``).  Two interleaves
are supported: band-sequential (``bsq``) and band-interleaved-by-line
(``bil``).  12-bit DN cubes live in an unsigned 16-bit container; radiance
cubes are 64-bit float in W m-2 sr-1 um-1.

Every ``key = value`` file is written by :func:`write_header` and read back,
field by field, by :func:`read_header`; every raw payload (cube data and
the calibration-table sidecars) by :func:`write_payload` and
:func:`read_payload`.  Every JSON model file and the
artifact manifest go through :func:`write_json`; the model classes read
theirs back through :func:`read_model`.  ``INSTRUMENTS`` holds
each camera's band-center range, default band count and band width.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import CubeFormatError

DN_MAX = 4095  # 12-bit radiometric resolution


@dataclass(frozen=True)
class Instrument:
    """One camera's facts, shared by the simulator and the cube checks."""

    range_nm: tuple     # (lowest, highest) band center
    bands: int          # default band count
    fwhm_nm: float      # default band FWHM


INSTRUMENTS = {"vnir": Instrument((400.0, 900.0), 60, 9.24),
               "swir": Instrument((850.0, 2500.0), 256, 5.87)}

_DTYPES = {"dn12": np.dtype("<u2"), "radiance": np.dtype("<f8")}

_SLAB_BYTES = 8 << 20  # per block of whole bands in a band-sequential write
_TILE_PX = 256         # pixels per transposed tile of a block


@dataclass(frozen=True)
class BandMeta:
    """Per-band metadata: center wavelength, bandwidth, instrument, quality."""

    center_nm: float
    fwhm_nm: float
    instrument: str = "vnir"
    quality: str = "good"

    def __post_init__(self):
        if self.instrument not in INSTRUMENTS:
            raise CubeFormatError(f"unknown instrument {self.instrument!r}")
        if self.quality not in ("good", "bad"):
            raise CubeFormatError(f"unknown quality {self.quality!r}")
        if not self.fwhm_nm > 0:
            raise CubeFormatError("fwhm_nm must be positive")
        lo, hi = INSTRUMENTS[self.instrument].range_nm
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

    Fields are immutable; operations return new cubes, which may share data.
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

    def with_data(self, data: np.ndarray, pixel_kind: str | None = None,
                  band_meta=None) -> "SpectralCube":
        """A cube derived from this one.  Float data for a ``dn12`` cube is
        rounded half to even and clipped onto the 12-bit grid (so +-inf
        saturates to DN_MAX or 0); NaN has no DN and is rejected."""
        pixel_kind = pixel_kind or self.pixel_kind
        if pixel_kind == "dn12" and np.asarray(data).dtype.kind == "f":
            nan = int(np.count_nonzero(np.isnan(data)))
            if nan:
                raise CubeFormatError(f"{nan} NaN values in dn12 data")
            data = np.rint(data)
            data = np.clip(data, 0, DN_MAX, out=data).astype(np.uint16)
        return SpectralCube(
            data=data,
            pixel_kind=pixel_kind,
            band_meta=tuple(band_meta) if band_meta is not None else self.band_meta,
            interleave=self.interleave,
        )


def write_cube(cube: SpectralCube, path) -> None:
    """Write a cube in its own interleave, with its sidecar header;
    re-reading yields an equal cube."""
    path = Path(path)
    dtype = _DTYPES[cube.pixel_kind]
    # one band or one (bands, samples) line per write call
    if cube.interleave == "bsq":
        write_payload(path, _band_planes(cube.data, dtype), dtype)
    else:
        write_payload(path, (cube.data[i].T for i in range(cube.lines)),
                      dtype)
    write_header(path.with_suffix(".hdr"), {
        "lines": cube.lines, "samples": cube.samples, "bands": cube.bands,
        "interleave": cube.interleave, "pixel_kind": cube.pixel_kind,
        "byte_order": "little-endian",
        "center_nm": ",".join(repr(m.center_nm) for m in cube.band_meta),
        "fwhm_nm": ",".join(repr(m.fwhm_nm) for m in cube.band_meta),
        "instrument": ",".join(m.instrument for m in cube.band_meta),
        "bad_bands": ",".join(str(i) for i in cube.bad_bands)})


def _band_planes(data: np.ndarray, dtype: np.dtype):
    """The bands of a pixel-interleaved cube, one flat plane at a time, each
    valid until the next is drawn.  Blocks of whole bands within
    ``_SLAB_BYTES`` are transposed into one reused buffer ``_TILE_PX``
    pixels at a time, so that the pixels read stay in cache across the
    block's bands."""
    pixels = data.shape[0] * data.shape[1]
    flat = data.reshape(pixels, data.shape[2])
    step = max(1, _SLAB_BYTES // (dtype.itemsize * pixels or 1))
    buf = np.empty((min(step, data.shape[2]), pixels), dtype)
    for b0 in range(0, data.shape[2], step):
        bands = flat[:, b0:b0 + step]
        block = buf[:bands.shape[1]]
        for p0 in range(0, pixels, _TILE_PX):
            block[:, p0:p0 + _TILE_PX] = bands[p0:p0 + _TILE_PX].T
        yield from block


def write_payload(path, blocks, dtype) -> None:
    """Write the arrays ``blocks`` yields to ``path`` back to back as raw
    ``dtype``, one write call each; :func:`read_payload` reads them back."""
    try:
        with open(path, "wb") as fh:
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype=dtype))
    except OSError as exc:
        raise CubeFormatError(f"cannot write {path}: {exc}") from exc


def read_payload(path, dtype, count: int) -> np.ndarray:
    """The ``count`` raw ``dtype`` values of a :func:`write_payload` file, a
    read-only flat array; a missing file or another size is a
    ``CubeFormatError`` naming the file."""
    try:
        raw = np.frombuffer(Path(path).read_bytes(), dtype=dtype)
    except OSError as exc:
        raise CubeFormatError(f"cannot read payload {path}: "
                              f"{exc.strerror}") from None
    if raw.size != count:
        raise CubeFormatError(f"payload {path} holds {raw.size} values, "
                              f"its header gives {count}")
    return raw


def write_header(path, entries: dict) -> None:
    """Write a ``key = value`` text file, one entry per line in the given
    order; :func:`read_header` reads it back."""
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in entries.items()),
                          encoding="utf-8")


def read_header(path, fields: dict, error=CubeFormatError) -> dict:
    """The ``fields`` of a :func:`write_header` file, each mapped to its
    converter, or to ``(converter, default text)`` if it may be absent.
    Blank and ``#`` lines are skipped and a line without ``=`` is garbled
    (``CubeFormatError``); a field that is missing or that its converter
    rejects raises ``error`` naming the field and the file."""
    path = Path(path)
    if not path.exists():
        raise CubeFormatError(f"missing header {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CubeFormatError(f"{path} is not UTF-8 text: {exc}") from None
    entries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise CubeFormatError(f"garbled header line: {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    values = {}
    for name, spec in fields.items():
        convert, *default = spec if isinstance(spec, tuple) else (spec,)
        if name not in entries and not default:
            raise error(f"{path}: field {name!r} is missing")
        try:
            values[name] = convert(entries.get(name, *default))
        except (TypeError, ValueError) as exc:
            raise error(f"{path}: field {name!r}: {exc}") from None
    return values


def one_of(*choices):
    """A :func:`read_header` converter that passes only ``choices``."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {choices}")
        return value
    return convert


def _listed(convert):
    """Converter of a comma-separated list, empty items dropped."""
    return lambda value: [convert(v) for v in value.split(",") if v]


def read_cube(path) -> SpectralCube:
    """Read a cube written by :func:`write_cube` (bit-exact round trip)."""
    path = Path(path)
    hdr = read_header(path.with_suffix(".hdr"), {
        "lines": int, "samples": int, "bands": int,
        "interleave": one_of("bsq", "bil"), "pixel_kind": one_of(*_DTYPES),
        "center_nm": _listed(float), "fwhm_nm": _listed(float),
        "instrument": _listed(str), "bad_bands": (_listed(int), ""),
        "byte_order": (one_of("little-endian"), "little-endian")})
    nl, ns, nb = hdr["lines"], hdr["samples"], hdr["bands"]
    interleave, pixel_kind = hdr["interleave"], hdr["pixel_kind"]
    band_fields = (hdr["center_nm"], hdr["fwhm_nm"], hdr["instrument"])
    if any(len(v) != nb for v in band_fields):
        raise CubeFormatError("band metadata length does not match band count")

    raw = read_payload(path, _DTYPES[pixel_kind], nl * ns * nb)
    if interleave == "bsq":
        data = np.transpose(raw.reshape(nb, nl, ns), (1, 2, 0))
    else:
        data = np.transpose(raw.reshape(nl, nb, ns), (0, 2, 1))
    meta = tuple(
        BandMeta(c, f, inst, "bad" if i in hdr["bad_bands"] else "good")
        for i, (c, f, inst) in enumerate(zip(*band_fields)))
    # one copy: the payload is a read-only view of the file's bytes
    return SpectralCube(data=data.copy(), pixel_kind=pixel_kind,
                        band_meta=meta, interleave=interleave)


def _to_jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, tuple):
        return [_to_jsonable(v) for v in value]
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    return value


def _json(value, pad: str, sort_keys: bool) -> str:
    """``json.dumps(_to_jsonable(value), indent=1, sort_keys=sort_keys)``
    nested at indent ``pad``.  A non-empty bool or numeric array has its
    numbers encoded by one call of the C encoder (which ``indent`` turns
    off) and laid out row by row; a mapping with string keys is laid out
    here; anything else goes through ``json.dumps`` whole."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    inner = pad + " "
    if (isinstance(value, np.ndarray) and value.ndim and value.size
            and value.dtype.kind in "biuf"):
        # numbers hold no ", ": the compact list splits into its items
        items = json.dumps(value.ravel().tolist())[1:-1].split(", ")
        return _json_rows(items, value.shape, pad)
    if isinstance(value, dict) and value \
            and all(isinstance(k, str) for k in value):
        keys = sorted(value) if sort_keys else value
        return "{\n" + inner + (",\n" + inner).join(
            json.dumps(k) + ": " + _json(value[k], inner, sort_keys)
            for k in keys) + "\n" + pad + "}"
    # every newline of the output is layout: strings escape theirs
    return json.dumps(_to_jsonable(value), indent=1,
                      sort_keys=sort_keys).replace("\n", "\n" + pad)


def _json_rows(items: list, shape, pad: str) -> str:
    """The ``indent=1`` layout at indent ``pad`` of an array of ``shape``
    whose encoded numbers, in C order, are ``items``."""
    inner = pad + " "
    if len(shape) > 1:
        step = len(items) // shape[0]
        items = [_json_rows(items[i:i + step], shape[1:], inner)
                 for i in range(0, len(items), step)]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def write_json(value, path, sort_keys: bool = False) -> None:
    """Write a model or mapping as JSON with a one-space indent: arrays and
    tuples become lists, dataclasses mappings in field order.  The bytes
    are those of ``json.dumps(..., indent=1)``; arrays are encoded at the C
    encoder's speed (:func:`_json`)."""
    Path(path).write_text(_json(value, "", sort_keys), encoding="utf-8")


def read_json(path):
    """Read a :func:`write_json` file; arrays come back as lists."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_model(cls, path):
    """Read a model dataclass ``cls`` back from its :func:`write_json` file;
    list fields come back as arrays.  A file that is unreadable, not a JSON
    object, short of a required field, with an unknown one or with a value
    ``cls`` rejects is a ``CubeFormatError`` naming the file (and fields)."""
    try:
        doc = read_json(path)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or UTF-8
        raise CubeFormatError(f"cannot read model {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CubeFormatError(f"model {path} is not a JSON object")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    extra = sorted(set(doc) - {f.name for f in fields(cls)})
    if missing or extra:
        raise CubeFormatError(f"model {path}: missing fields {missing}, "
                              f"unknown fields {extra}")
    try:
        return cls(**{k: np.asarray(v) if isinstance(v, list) else v
                      for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise CubeFormatError(f"model {path}: {exc}") from None


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
