"""Fuzzed dataset and checkpoint loaders: a malformed file raises FormatError.

Every case starts from a valid file and changes it: a truncation, one flipped
bit in the header or factor spec block, or one size field overwritten. The
loader runs under tracemalloc. Any exception other than FormatError fails
the case, and so does a load that allocates more than a small multiple of
the file it reads.
"""
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusvae import datasets as ds
from torusvae import engine as e
from torusvae.errors import FormatError

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

# A peak of four times the file plus a fixed allowance for the parser's own
# objects (the spec JSON, tracebacks): the loaders hold the file, the float64
# arrays they build from it and nothing sized by a header field alone.
PEAK_FILE_MULTIPLE = 4
PEAK_SLACK = 2**16


def dataset_seeds():
    """name -> (file bytes, end of the spec block) for small valid datasets."""
    out = {}
    for name, data in (("2dshapes", ds.shapes_source(2, seed=3, width=8, height=8).render()),
                       ("synthetic", ds.make_synthetic_dataset(2, 3, seed=4))):
        blob = _saved(ds.save_dataset, data)
        (spec_len,) = struct.unpack_from("<I", blob, len(ds.DATASET_MAGIC) + 20)
        out[name] = (blob, len(ds.DATASET_MAGIC) + 24 + spec_len)
    return out


def checkpoint_seeds():
    """name -> (file bytes, end of the layer table) for small valid checkpoints."""
    out = {}
    for name, latent, hidden in (("torus", e.LatentSpec(e.TORUS, 2), (4,)),
                                 ("euclidean", e.LatentSpec(e.EUCLIDEAN, 3), (4, 3))):
        model = e.build_vae(latent, 5, hidden, np.random.default_rng(1))
        blob = _saved(e.save_checkpoint, model)
        out[name] = (blob, len(blob) - 8 * model.flat.size)
    return out


def _saved(save, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed"
        save(obj, path)
        return path.read_bytes()


DATASETS = dataset_seeds()
CHECKPOINTS = checkpoint_seeds()
SEEDS = [(ds.load_dataset, name, *v) for name, v in DATASETS.items()] + [
    (e.load_checkpoint, name, *v) for name, v in CHECKPOINTS.items()]


def dataset_fields():
    """(offset, struct format) of every size field in a TDDS1 header."""
    at = len(ds.DATASET_MAGIC)
    return [(at + 4 * i, "<I") for i in range(6)]  # n, width, height, channels, k, spec_len


def checkpoint_fields(name):
    """(offset, struct format) of latent dim, input dim, layer counts and layer sizes."""
    blob = CHECKPOINTS[name][0]
    at = len(e.CHECKPOINT_MAGIC) + 2
    fields = [(at, "<I"), (at + 4, "<I")]
    at += 8
    for _ in range(2):  # encoder, then decoder
        (count,) = struct.unpack_from("<B", blob, at)
        fields.append((at, "<B"))
        at += 1
        for _ in range(count):
            fields += [(at, "<I"), (at + 4, "<I")]
            at += 9
    return fields


FIELDS = ([(ds.load_dataset, name, f) for name in DATASETS for f in dataset_fields()]
          + [(e.load_checkpoint, name, f) for name in CHECKPOINTS for f in checkpoint_fields(name)])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case"


def attempt(loader, path, blob) -> bool:
    """Load blob from path: True when it loads, False on FormatError.

    Any other exception propagates. The tracemalloc peak of the load must
    stay within PEAK_FILE_MULTIPLE times the file plus PEAK_SLACK.
    """
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        try:
            loader(path)
            loaded = True
        except FormatError:
            loaded = False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_FILE_MULTIPLE * len(blob) + PEAK_SLACK, (peak, len(blob))
    return loaded


@pytest.mark.parametrize("loader,name,blob,header_end", SEEDS, ids=[s[1] for s in SEEDS])
def test_seed_files_load(loader, name, blob, header_end, path):
    assert attempt(loader, path, blob)


@pytest.mark.parametrize("loader,name,blob,header_end", SEEDS, ids=[s[1] for s in SEEDS])
def test_truncation_at_every_length(loader, name, blob, header_end, path):
    for cut in range(len(blob)):
        assert not attempt(loader, path, blob[:cut]), cut


@FUZZ
@given(data=st.data())
def test_bit_flip_in_header_or_spec(data, path):
    # A flip may leave a valid file (a factor name, an activation tag), so a
    # load is allowed; anything but FormatError is not.
    loader, _, blob, header_end = data.draw(st.sampled_from(SEEDS))
    at = data.draw(st.integers(0, header_end - 1))
    bit = data.draw(st.integers(0, 7))
    flipped = bytearray(blob)
    flipped[at] ^= 1 << bit
    attempt(loader, path, bytes(flipped))


@FUZZ
@given(data=st.data())
def test_oversized_size_field(data, path):
    loader, name, (at, fmt) = data.draw(st.sampled_from(FIELDS))
    blob = (DATASETS if loader is ds.load_dataset else CHECKPOINTS)[name][0]
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    value = data.draw(st.one_of(st.just(top), st.just(0), st.integers(0, top)))
    (old,) = struct.unpack_from(fmt, blob, at)
    changed = bytearray(blob)
    struct.pack_into(fmt, changed, at, value)
    loaded = attempt(loader, path, bytes(changed))
    assert loaded == (value == old)
