"""Exception types shared across the package, the bounded reader of both
binary containers, and the staged writer of every output file."""
import os
import struct
import tempfile


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
