"""Exception types shared across the package, the one checked reader of JSON
values, the bounded reader of both binary containers, the one finiteness
check of arrays (max_abs), and the staged writer of every output file with
the sized writer of those whose size is known before their first byte."""
import contextlib
import math
import os
import struct
import sys
import tempfile

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment or training configuration."""


class FormatError(ValueError):
    """A binary dataset or checkpoint file failed to parse."""


class NumericsError(RuntimeError):
    """A computation produced non-finite values."""


REQUIRED = object()  # the default of a JSON value that must be given


def json_value(block: dict, key: str, where: str, kind=float, default=REQUIRED,
               lo=None, hi=None):
    """block[key] checked and read as kind, or default when block has no key.

    kind is float, int or str, or a one-item list of one of them ([int]) for
    a JSON list of such values, each checked alone. A number is never a bool
    and never an int too large for a float; it is finite, an integral float
    is a valid int and an int a valid float, and lo <= value <= hi for each
    bound given. A str is a non-empty string. Every failure is a ConfigError
    naming where.key (or key alone when where is empty).
    """
    name = f"{where}.{key}" if where else key
    if key not in block:
        if default is REQUIRED:
            raise ConfigError(f"{name} is required")
        return default
    value = block[key]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_checked(item, name, kind[0], lo, hi) for item in value]
    return _checked(value, name, kind, lo, hi)


def _checked(value, name: str, kind, lo, hi):
    if kind is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is an integer too large for a float")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = kind(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = (f"in {lo}..{hi}" if lo is not None and hi is not None
                  else f">= {lo}" if lo is not None else f"<= {hi}")
        raise ConfigError(f"{name} must be {bounds}, got {value}")
    return value


class Reader:
    """A whole file read once into a writable buffer, then parsed front to back.

    Every read is checked against the bytes present before it is made, so a
    size field in a header can never make the parser allocate or read past
    the end; take() hands out views of the buffer, not copies. The buffer
    ends on a multiple of tail_alignment bytes, so that a payload of items
    that size at the end of the file is aligned for numpy.
    """

    def __init__(self, path, tail_alignment: int = 1):
        self.path = path
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            pad = -size % tail_alignment
            blob = memoryview(bytearray(pad + size))[pad:]
            self.blob = blob[: fh.readinto(blob)]
        self.offset = 0

    def take(self, size: int) -> memoryview:
        if self.offset + size > len(self.blob):
            raise FormatError(f"truncated file: {self.path}")
        out = self.blob[self.offset : self.offset + size]
        self.offset += size
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self):
        if self.offset != len(self.blob):
            raise FormatError(f"{len(self.blob) - self.offset} trailing bytes in {self.path}")


def max_abs(a: np.ndarray):
    """The largest |value| of a float array, of its dtype (0 when it is empty):
    NaN or inf when a value is not finite.

    min and max propagate NaN and reach any infinity, so no mask the size of
    the array is allocated.
    """
    return np.maximum(-a.min(initial=0.0), a.max(initial=0.0))


def write_files(directory, writers) -> None:
    """Write a set of files in directory so that each appears whole or not at all.

    writers maps each file name to a write(tmp_path) callable that makes the
    file at tmp_path. They all write into one temp directory inside directory
    (its name ends in .tmp), and only once every writer has returned is each
    result renamed over its name, so a writer that fails replaces no file.
    The temp directory is removed whatever happens.
    """
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(suffix=".tmp", prefix=".", dir=directory,
                                     ignore_cleanup_errors=True) as tmp:
        for name, write in writers.items():
            write(os.path.join(tmp, name))
        for name in writers:
            os.replace(os.path.join(tmp, name), os.path.join(directory, name))


@contextlib.contextmanager
def sized_output(path, size: int):
    """The file at path opened for writing, with size bytes of disk reserved
    before any is written; a block that ends at another size raises, before
    write_files renames anything.

    Reserved blocks carry no delayed allocation, so ext4 forces no writeback
    when the file is renamed over an earlier one, and a full disk fails here
    before a byte is computed. Reserving after a write would wait for its
    writeback (btrfs). Without os.posix_fallocate (not Linux) nothing is
    reserved; nor for size 0, which posix_fallocate refuses.
    """
    with open(path, "wb") as fh:
        reserve = getattr(os, "posix_fallocate", None)
        if reserve is not None and size > 0:
            reserve(fh.fileno(), 0, size)
        yield fh
        if fh.tell() != size:
            raise RuntimeError(f"wrote {fh.tell()} bytes to {path}, expected {size}")
