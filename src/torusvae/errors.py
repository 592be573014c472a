"""Exception types shared across the package, and the bounded reader of both binary containers."""
import os
import struct


class ConfigError(ValueError):
    """Invalid experiment or training configuration."""


class FormatError(ValueError):
    """A binary dataset or checkpoint file failed to parse."""


class NumericsError(RuntimeError):
    """A computation produced non-finite values."""


class Reader:
    """A whole file read once into a writable buffer, then parsed front to back.

    Every read is checked against the bytes present before it is made, so a
    size field in a header can never make the parser allocate or read past
    the end; take() hands out views of the buffer, not copies.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            blob = memoryview(bytearray(os.fstat(fh.fileno()).st_size))
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
