"""Procedural datasets with known generative factors.

Two generators: a centered regular-polygon raster set (shape, scale,
rotation and fill color all drawn uniformly, rendered without
anti-aliasing so outputs are bit-exact), and a fast smooth random map from
a mix of angular and bounded continuous factors to 16-dimensional samples.
Both ship with a seekable little-endian binary container, written in
fixed-size blocks of records through one reused buffer: a 2dshapes set is
rendered block by block straight into that buffer, so the writer's peak
memory does not grow with the record count.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, Reader, all_finite, json_value, sized_output
from .geometry import TWO_PI

DATASET_MAGIC = b"TDDS1"

KIND_UNIFORM = "uniform"
KIND_ANGLE = "angle"
KIND_CATEGORICAL = "categorical"

SYNTHETIC_SAMPLE_DIM = 16
_SYNTHETIC_HIDDEN = 32


@dataclass(frozen=True)
class Factor:
    name: str
    kind: str
    lo: float = 0.0
    hi: float = 1.0
    n: int = 0

    def __post_init__(self):
        if self.kind == KIND_UNIFORM:
            if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
                raise ValueError(f"uniform factor {self.name!r} needs finite lo < hi")
        elif self.kind == KIND_ANGLE:
            object.__setattr__(self, "lo", 0.0)
            object.__setattr__(self, "hi", TWO_PI)
        elif self.kind == KIND_CATEGORICAL:
            if self.n < 2:
                raise ValueError(f"categorical factor {self.name!r} needs n >= 2")
        else:
            raise ValueError(f"unknown factor kind {self.kind!r}")

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind}
        if self.kind == KIND_UNIFORM:
            out.update(lo=self.lo, hi=self.hi)
        elif self.kind == KIND_CATEGORICAL:
            out.update(n=self.n)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Factor":
        """A factor from its JSON object. name, kind, lo and hi are read by
        errors.json_value, and n must be a JSON integer; a missing or
        wrong-typed field raises ValueError."""
        name = json_value(data, "name", "factor", str)
        n = data.get("n", 0)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"factor {name!r} field n must be an integer")
        return cls(name=name, kind=json_value(data, "kind", "factor", str),
                   lo=json_value(data, "lo", "factor", default=0.0),
                   hi=json_value(data, "hi", "factor", default=1.0), n=n)


@dataclass(frozen=True)
class FactorSpec:
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")

    @property
    def k(self) -> int:
        return len(self.factors)

    def to_json(self) -> str:
        return json.dumps([f.to_dict() for f in self.factors], sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "FactorSpec":
        entries = json.loads(blob)
        if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
            raise ValueError("factor spec must be a JSON list of factor objects")
        return cls(tuple(Factor.from_dict(d) for d in entries))


SHAPES_SPEC = FactorSpec((
    Factor("shape", KIND_CATEGORICAL, n=4),
    Factor("scale", KIND_UNIFORM, lo=20.0, hi=40.0),
    Factor("rotation", KIND_ANGLE),
    Factor("red", KIND_UNIFORM, lo=0.0, hi=1.0),
    Factor("green", KIND_UNIFORM, lo=0.0, hi=1.0),
    Factor("blue", KIND_UNIFORM, lo=0.0, hi=1.0),
))


def sample_factors(spec: FactorSpec, count: int, seed: int) -> np.ndarray:
    """(count, K) i.i.d. factor draws; categoricals come back as float indices."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    columns = []
    for factor in spec.factors:
        if factor.kind == KIND_CATEGORICAL:
            columns.append(rng.integers(0, factor.n, size=count).astype(float))
        else:
            columns.append(rng.uniform(factor.lo, factor.hi, size=count))
    return np.column_stack(columns)


# -- polygon rendering -------------------------------------------------------------

_POLYGON_SIDES = {0: 3, 1: 4, 2: 5, 3: 6}  # triangle, square, pentagon, hexagon


def _reject_first(bad: np.ndarray, what: str, values: np.ndarray) -> None:
    """Raise ValueError naming the first row flagged in `bad`."""
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"factor row {row}: {what}, got {values[row]}")


def _checked_rows(factors, width: int, height: int) -> np.ndarray:
    """factors as float (N, 6) rows, or ValueError naming the first bad row."""
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 2 or factors.shape[0] < 1 or factors.shape[1] != 6:
        raise ValueError(f"expected (N, 6) factor rows with N >= 1, got shape {factors.shape}")
    shape_idx, scale, rotation = factors[:, 0], factors[:, 1], factors[:, 2]
    colors = factors[:, 3:]
    # Written as ~(in range) so that NaN fails every check.
    _reject_first(~np.isin(shape_idx, tuple(_POLYGON_SIDES)),
                  "shape index must be one of 0..3", shape_idx)
    _reject_first(~((scale >= 20.0) & (scale <= 40.0)), "scale outside [20, 40]", scale)
    _reject_first(~np.isfinite(rotation), "non-finite rotation", rotation)
    _reject_first(~((colors >= 0.0) & (colors <= 1.0)).all(axis=1),
                  "color channels must lie in [0, 1]", colors)
    if width < 8 or height < 8:
        raise ValueError("image dimensions must be >= 8")
    return factors


def _span_mask(lo: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """(..., width) bool mask of the pixel centres x + 0.5 with lo <= x + 0.5 < hi.

    Each span's first and end columns come from searchsorted over the
    centres, and its row is the AND of two rows of (width + 1, width)
    tables, columns >= first and columns < end: the bits of comparing
    every centre with lo and hi, in about half the time.
    """
    px = np.arange(width) + 0.5
    columns = np.arange(width)
    bounds = np.arange(width + 1)[:, None]
    first = np.searchsorted(px, lo)
    end = np.searchsorted(px, hi)
    inside = np.take(columns >= bounds, first, axis=0)
    inside &= np.take(columns < bounds, end, axis=0)
    return inside


def render_batch(factors: np.ndarray, width: int, height: int, out=None) -> np.ndarray:
    """Rasterize each factor row to one flattened (H*W*3) image in [0, 1].

    A row is (shape, scale, rotation, red, green, blue): a regular polygon
    (3..6 sides by shape index) centered in the image, circumradius
    scale * width / 64 pixels, rotated by the rotation factor, filled with
    the RGB color over a white background. Rows grow downward. Pixel
    centers (x+0.5, y+0.5) are filled by the even-odd rule without anti-aliasing,
    which for a convex polygon is one span between a pixel row's 0 or 2 edge crossings.

    Without out, the images come back as a new float64 (N, H*W*3) array.
    With out, a float array of that shape (such as the strided float32
    pixel field of a block of file records), they are written into it and
    out is returned; a float32 out holds exactly the float64 result rounded
    to float32.
    """
    factors = _checked_rows(factors, width, height)
    n = len(factors)
    shape_idx, scale, rotation = factors[:, 0], factors[:, 1], factors[:, 2]
    colors = factors[:, 3:]

    sides = np.array([_POLYGON_SIDES[index] for index in shape_idx])
    # One (corners, N) vertex table: a polygon of fewer sides repeats vertex 0.
    corners = np.arange(max(_POLYGON_SIDES.values()))[:, None]
    angles = rotation + TWO_PI * np.where(corners < sides, corners, 0) / sides
    radius = scale * width / 64.0
    vx = (width / 2.0 + radius * np.cos(angles))[:, :, None]
    vy = (height / 2.0 + radius * np.sin(angles))[:, :, None]
    py = np.arange(height) + 0.5
    lo = np.full((n, height), np.inf)
    hi = np.full((n, height), -np.inf)
    # A horizontal edge, padding's (v0, v0) among them, divides by zero,
    # but it crosses no row, so it leaves the span alone.
    with np.errstate(divide="ignore", invalid="ignore"):
        for x1, y1, x2, y2 in zip(vx, vy, np.roll(vx, -1, 0), np.roll(vy, -1, 0)):
            crosses_row = (y1 > py) != (y2 > py)
            x_at_row = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            np.minimum(lo, x_at_row, out=lo, where=crosses_row)
            np.maximum(hi, x_at_row, out=hi, where=crosses_row)
    inside = _span_mask(lo, hi, width)

    if out is None:
        out = np.empty((n, height * width * 3))
    elif out.shape != (n, height * width * 3):
        raise ValueError(f"out must have shape {(n, height * width * 3)}, got {out.shape}")
    out[...] = 1.0
    # One channel at a time: a (N, H*W) mask copies several times faster
    # than one broadcast over the size-3 channel axis. Splitting the last
    # axis is always a view, so this writes into out even when it is strided.
    pixels = out.reshape(n, height * width, 3)
    inside = inside.reshape(n, height * width)
    for channel in range(3):
        np.copyto(pixels[:, :, channel], colors[:, channel, None], where=inside)
    return out


# -- smooth synthetic map ------------------------------------------------------------


def synthetic_spec(k: int) -> FactorSpec:
    """K factors alternating angular (even index) and bounded continuous (odd)."""
    if not 1 <= k <= 8:
        raise ValueError("k must be in 1..8")
    factors = []
    for i in range(k):
        if i % 2 == 0:
            factors.append(Factor(f"angle_{i}", KIND_ANGLE))
        else:
            factors.append(Factor(f"slider_{i}", KIND_UNIFORM, lo=-1.0, hi=1.0))
    return FactorSpec(tuple(factors))


def _synthetic_features(spec: FactorSpec, z: np.ndarray) -> np.ndarray:
    """Periodic factors enter as (cos, sin) pairs so the map respects their topology."""
    parts = []
    for i, factor in enumerate(spec.factors):
        if factor.kind == KIND_ANGLE:
            parts.append(np.cos(z[:, i : i + 1]))
            parts.append(np.sin(z[:, i : i + 1]))
        else:
            parts.append(z[:, i : i + 1])
    return np.concatenate(parts, axis=1)


def make_synthetic_dataset(k: int, count: int, seed: int, noise_sigma: float = 0.0) -> Dataset:
    """Samples x in R^16 from a fixed seeded two-layer smooth map of K factors.

    The map output passes through tanh, so samples live in (-1, 1) and need
    no rescaling for the tanh decoder.
    """
    spec = synthetic_spec(k)
    factor_seq, map_seq, noise_seq = np.random.SeedSequence(seed).spawn(3)
    z = sample_factors(spec, count, factor_seq)
    features = _synthetic_features(spec, z)
    f_dim = features.shape[1]

    map_rng = np.random.default_rng(map_seq)
    w1 = map_rng.normal(0.0, 1.8 / np.sqrt(f_dim), size=(f_dim, _SYNTHETIC_HIDDEN))
    b1 = map_rng.normal(0.0, 0.3, size=_SYNTHETIC_HIDDEN)
    w2 = map_rng.normal(0.0, 1.8 / np.sqrt(_SYNTHETIC_HIDDEN),
                        size=(_SYNTHETIC_HIDDEN, SYNTHETIC_SAMPLE_DIM))
    b2 = map_rng.normal(0.0, 0.1, size=SYNTHETIC_SAMPLE_DIM)
    x = np.tanh(np.tanh(features @ w1 + b1) @ w2 + b2)
    if noise_sigma > 0.0:
        x = x + np.random.default_rng(noise_seq).normal(0.0, noise_sigma, size=x.shape)
    return Dataset(x=x, factors=z, spec=spec, width=SYNTHETIC_SAMPLE_DIM, height=1,
                   channels=1)


# -- container io ---------------------------------------------------------------------


# Records per write: about this many bytes of them, so 85 records at 64x64x3.
RECORD_BLOCK_BYTES = 4 << 20
# A record type must fit in a C int before numpy sees it.
MAX_RECORD_BYTES = int(np.iinfo(np.intc).max)
# The TDDS1 header's record count field is a u32.
MAX_RECORD_COUNT = 2**32 - 1


def record_bytes(k: int, pixels: int) -> int:
    """Size of one TDDS1 record: K f64 factor values, then the f32 pixels."""
    return 8 * k + 4 * pixels


def _record_dtype(k: int, pixels: int) -> np.dtype:
    """The packed TDDS1 record; its record_bytes must not exceed MAX_RECORD_BYTES."""
    return np.dtype([("z", "<f8", (k,)), ("x", "<f4", (pixels,))])


@dataclass
class Dataset:
    """Samples plus their generative factors; training code must only see the samples.

    x holds the samples as stored: a float64 array for a dataset made in
    memory, and for a loaded one the float32 pixel view of the file buffer,
    so loading copies no pixels; whoever needs rows as float64 converts just
    those (engine.scale_in).
    """

    x: np.ndarray  # (N, width*height*channels)
    factors: np.ndarray  # (N, K)
    spec: FactorSpec
    width: int
    height: int
    channels: int

    def __post_init__(self):
        self.x = np.asarray(self.x)
        self.factors = np.asarray(self.factors, dtype=float)
        if self.x.shape[0] != self.factors.shape[0]:
            raise ValueError("sample/factor row mismatch")
        if self.x.shape[1] != self.width * self.height * self.channels:
            raise ValueError("sample width does not match the declared dimensions")
        if self.factors.shape[1] != self.spec.k:
            raise ValueError("factor width does not match the spec")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def fill_pixels(self, lo: int, hi: int, out: np.ndarray) -> None:
        out[...] = self.x[lo:hi]


@dataclass(frozen=True)
class ShapesSource:
    """2dshapes factor rows whose images are rendered only when needed.

    save_dataset renders them one block of records at a time, straight into
    its file buffer; render() renders them all into an in-memory Dataset.
    """

    factors: np.ndarray  # (N, 6), checked rows
    width: int
    height: int
    spec = SHAPES_SPEC
    channels = 3

    def __post_init__(self):
        object.__setattr__(self, "factors", _checked_rows(self.factors, self.width, self.height))

    @property
    def n(self) -> int:
        return len(self.factors)

    def fill_pixels(self, lo: int, hi: int, out: np.ndarray) -> None:
        render_batch(self.factors[lo:hi], self.width, self.height, out=out)

    def render(self) -> Dataset:
        return Dataset(x=render_batch(self.factors, self.width, self.height),
                       factors=self.factors, spec=self.spec, width=self.width,
                       height=self.height, channels=self.channels)


def save_dataset(dataset, path) -> None:
    """Write a Dataset or a ShapesSource as a TDDS1 file.

    The header goes first, then the records in blocks of about
    RECORD_BLOCK_BYTES through one reused record buffer, whose float32 pixel
    field dataset.fill_pixels fills row block by row block. So a
    ShapesSource is rendered straight into the buffer, no (N, pixels) array
    is ever made, and the peak memory does not grow with N. The file's blocks
    are reserved before the header is written (errors.sized_output).
    """
    spec_blob = dataset.spec.to_json().encode("utf-8")
    n, pixels = dataset.n, dataset.width * dataset.height * dataset.channels
    record = _record_dtype(dataset.spec.k, pixels)
    # Packed fields, both assigned in full: no zero fill.
    records = np.empty(min(n, max(1, RECORD_BLOCK_BYTES // record.itemsize)), dtype=record)
    header = DATASET_MAGIC + struct.pack("<IIIIII", n, dataset.width, dataset.height,
                                         dataset.channels, dataset.spec.k,
                                         len(spec_blob)) + spec_blob
    with sized_output(path, len(header) + n * record.itemsize) as fh:
        fh.write(header)
        for lo in range(0, n, len(records)):
            block = records[: min(len(records), n - lo)]
            block["z"] = dataset.factors[lo : lo + len(block)]
            dataset.fill_pixels(lo, lo + len(block), block["x"])
            fh.write(memoryview(block).cast("B"))


def load_dataset(path) -> Dataset:
    reader = Reader(path)
    if reader.take(len(DATASET_MAGIC)) != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic in {path}")
    n, width, height, channels, k, spec_len = reader.unpack("<IIIIII")
    try:
        spec = FactorSpec.from_json(str(reader.take(spec_len), "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"unreadable factor spec in {path}: {exc}") from exc
    if spec.k != k:
        raise FormatError(f"factor spec lists {spec.k} factors, header says {k}")
    pixels = width * height * channels
    record_size = record_bytes(k, pixels)
    if record_size > MAX_RECORD_BYTES:
        raise FormatError(f"header declares {record_size}-byte records in {path}")
    # Records are read in place, from a view of the file's buffer, and the
    # pixels stay there: x is their float32 view.
    records = np.frombuffer(reader.take(n * record_size), _record_dtype(k, pixels), n)
    reader.done()
    x, factors = records["x"].reshape(n, pixels), records["z"].astype(float).reshape(n, k)
    if not all_finite(x):
        raise FormatError(f"non-finite pixel in {path}")
    if not all_finite(factors):
        raise FormatError(f"non-finite factor value in {path}")
    return Dataset(
        x=x,
        factors=factors,
        spec=spec,
        width=width,
        height=height,
        channels=channels,
    )


def shapes_source(count: int, seed: int, width: int = 16, height: int = 16) -> ShapesSource:
    return ShapesSource(sample_factors(SHAPES_SPEC, count, seed), width, height)


# -- image export ----------------------------------------------------------------------


def write_ppm(image: np.ndarray, path) -> None:
    """Binary PPM (P6, maxval 255); values rounded half-up from [0, 1]."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) image")
    height, width = image.shape[:2]
    data = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
