"""Procedural datasets with known generative factors.

Two generators: a centered regular-polygon raster set (shape, scale,
rotation and fill color all drawn uniformly, rendered without
anti-aliasing so outputs are bit-exact), and a fast smooth random map from
a mix of angular and bounded continuous factors to 16-dimensional samples.
Both ship with a seekable little-endian binary container.
"""
from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, Reader
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
        """A factor from its JSON object; wrong-typed fields raise ValueError."""
        name, kind = data["name"], data["kind"]
        lo, hi, n = data.get("lo", 0.0), data.get("hi", 1.0), data.get("n", 0)
        if not isinstance(name, str) or not isinstance(kind, str):
            raise ValueError("factor name and kind must be strings")
        for key, value in (("lo", lo), ("hi", hi)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"factor {name!r} field {key} must be a number")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"factor {name!r} field {key} overflows a float")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"factor {name!r} field n must be an integer")
        return cls(name=name, kind=kind, lo=lo, hi=hi, n=n)


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


def render_batch(factors: np.ndarray, width: int, height: int) -> np.ndarray:
    """Rasterize each factor row to one flattened (H*W*3) image in [0, 1].

    A row is (shape, scale, rotation, red, green, blue): a regular polygon
    (3..6 sides by shape index) centered in the image, circumradius
    scale * width / 64 pixels, rotated by the rotation factor, filled with
    the RGB color over a white background. Rows grow downward. Pixel
    centers (x+0.5, y+0.5) are filled by the even-odd rule without
    anti-aliasing, one side count at a time over all of its rows, straight
    into the (N, H*W*3) output.
    """
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

    px = np.arange(width) + 0.5
    py = (np.arange(height) + 0.5)[:, None]
    inside = np.empty((len(factors), height, width), dtype=bool)
    for index, sides in _POLYGON_SIDES.items():
        rows = np.flatnonzero(shape_idx == index)
        radius = (scale[rows] * width / 64.0)[:, None]
        angles = rotation[rows, None] + TWO_PI * np.arange(sides) / sides
        vx = (width / 2.0 + radius * np.cos(angles))[:, :, None, None]
        vy = (height / 2.0 + radius * np.sin(angles))[:, :, None, None]
        group = np.zeros((rows.size, height, width), dtype=bool)
        hit = np.empty_like(group)
        # A horizontal edge divides by zero, but it crosses no row, so it
        # leaves the mask alone.
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(sides):
                x1, y1 = vx[:, i], vy[:, i]
                x2, y2 = vx[:, (i + 1) % sides], vy[:, (i + 1) % sides]
                crosses_row = (y1 > py) != (y2 > py)
                x_at_row = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                np.less(px, x_at_row, out=hit)
                hit &= crosses_row
                group ^= hit
        inside[rows] = group

    # One channel at a time: a (N, H*W) mask copies several times faster
    # than one broadcast over the size-3 channel axis.
    out = np.ones((len(factors), height * width * 3))
    pixels = out.reshape(len(factors), height * width, 3)
    inside = inside.reshape(len(factors), height * width)
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


def synthetic_map_dataset(k: int, count: int, seed: int, noise_sigma: float = 0.0):
    """Samples x in R^16 from a fixed seeded two-layer smooth map of K factors.

    Returns (samples (N, 16), factors (N, K), spec). The map output passes
    through tanh, so samples live in (-1, 1) and need no rescaling for the
    tanh decoder.
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
    return x, z, spec


# -- container io ---------------------------------------------------------------------


@dataclass
class Dataset:
    """Samples plus their generative factors; training code must only see .samples."""

    samples: np.ndarray  # (N, width*height*channels)
    factors: np.ndarray  # (N, K)
    spec: FactorSpec
    width: int
    height: int
    channels: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.factors = np.asarray(self.factors, dtype=float)
        if self.samples.shape[0] != self.factors.shape[0]:
            raise ValueError("sample/factor row mismatch")
        if self.samples.shape[1] != self.width * self.height * self.channels:
            raise ValueError("sample width does not match the declared dimensions")
        if self.factors.shape[1] != self.spec.k:
            raise ValueError("factor width does not match the spec")

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def save_dataset(dataset: Dataset, path) -> None:
    spec_blob = dataset.spec.to_json().encode("utf-8")
    pixels = dataset.width * dataset.height * dataset.channels
    record_dtype = np.dtype([("z", "<f8", (dataset.spec.k,)), ("x", "<f4", (pixels,))])
    # Packed fields, both assigned in full: no zero fill and no float32 temporary.
    records = np.empty(dataset.n, dtype=record_dtype)
    records["z"] = dataset.factors
    records["x"] = dataset.samples
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIII", dataset.n, dataset.width, dataset.height,
                             dataset.channels, dataset.spec.k))
        fh.write(struct.pack("<I", len(spec_blob)))
        fh.write(spec_blob)
        fh.write(memoryview(records).cast("B"))


def load_dataset(path) -> Dataset:
    reader = Reader(path)
    if reader.take(len(DATASET_MAGIC)) != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic in {path}")
    n, width, height, channels, k, spec_len = reader.unpack("<IIIIII")
    try:
        spec = FactorSpec.from_json(str(reader.take(spec_len), "utf-8"))
    except (ValueError, KeyError) as exc:
        raise FormatError(f"unreadable factor spec in {path}: {exc}") from exc
    if spec.k != k:
        raise FormatError(f"factor spec lists {spec.k} factors, header says {k}")
    # A record type must fit in a C int before numpy sees it.
    pixels = width * height * channels
    record_size = 8 * k + 4 * pixels
    if record_size > np.iinfo(np.intc).max:
        raise FormatError(f"header declares {record_size}-byte records in {path}")
    record_dtype = np.dtype([("z", "<f8", (k,)), ("x", "<f4", (pixels,))])
    # Records are read in place, from a view of the file's buffer.
    records = np.frombuffer(reader.take(n * record_size), dtype=record_dtype, count=n)
    reader.done()
    return Dataset(
        samples=records["x"].astype(float).reshape(n, pixels),
        factors=records["z"].astype(float).reshape(n, k),
        spec=spec,
        width=width,
        height=height,
        channels=channels,
    )


def make_2dshapes_dataset(count: int, seed: int, width: int = 16, height: int = 16) -> Dataset:
    factors = sample_factors(SHAPES_SPEC, count, seed)
    return Dataset(
        samples=render_batch(factors, width, height),
        factors=factors,
        spec=SHAPES_SPEC,
        width=width,
        height=height,
        channels=3,
    )


def make_synthetic_dataset(k: int, count: int, seed: int, noise_sigma: float = 0.0) -> Dataset:
    samples, factors, spec = synthetic_map_dataset(k, count, seed, noise_sigma)
    return Dataset(
        samples=samples,
        factors=factors,
        spec=spec,
        width=SYNTHETIC_SAMPLE_DIM,
        height=1,
        channels=1,
    )


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
