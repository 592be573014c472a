"""The sized writer of the dataset, the checkpoint and the heatmaps: each file's disk blocks
are reserved before a byte of it is written, a writer that ends at another
size replaces no file, a reservation that fails stops the command before it
renders anything, and the reserved file holds the same bytes as one written
without a reservation (where os has no posix_fallocate)."""
import errno
import hashlib
import json
import os

import numpy as np
import pytest

from torusvae import cli, datasets as ds, engine, metrics
from torusvae.errors import sized_output, write_files


def hashes(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture
def reservations(monkeypatch):
    """The (offset, length) of every posix_fallocate call, each passed through."""
    calls, reserve = [], os.posix_fallocate

    def recorded(fd, offset, length):
        calls.append((offset, length))
        return reserve(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", recorded)
    return calls


class TestSizeGuard:
    @pytest.mark.parametrize("written", [3, 5], ids=["short", "over"])
    def test_wrong_size_replaces_no_file(self, tmp_path, written):
        (tmp_path / "f").write_bytes(b"old")

        def write(path):
            with sized_output(path, 4) as fh:
                fh.write(b"x" * written)

        with pytest.raises(RuntimeError, match=f"wrote {written} bytes .* expected 4"):
            write_files(tmp_path, {"f": write})
        assert (tmp_path / "f").read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_exact_size_is_reserved_then_renamed(self, tmp_path, reservations):
        (tmp_path / "f").write_bytes(b"old")

        def write(path):
            with sized_output(path, 4) as fh:
                fh.write(b"ne")
                fh.write(b"w!")

        write_files(tmp_path, {"f": write})
        assert reservations == [(0, 4)]
        assert (tmp_path / "f").read_bytes() == b"new!"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_size_0_reserves_nothing(self, tmp_path, reservations):
        def write(path):
            with sized_output(path, 0):
                pass

        write_files(tmp_path, {"f": write})
        assert reservations == []
        assert (tmp_path / "f").read_bytes() == b""


def test_failed_reservation_stops_generate_before_any_render(tmp_path, monkeypatch, capsys):
    """A dataset that does not fit on the disk exits 2 before one image is
    rendered, and the previous dataset and sidecar keep their bytes."""
    cfg = {"out_dir": str(tmp_path / "out"),
           "dataset": {"kind": "2dshapes", "count": 120, "seed": 31, "width": 8,
                       "height": 8, "path": "data.tdds"}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["generate", "--config", str(config)]) == 0
    before = hashes(tmp_path / "out")
    cfg["dataset"]["seed"] += 1  # new bytes, so a replaced dataset would show
    config.write_text(json.dumps(cfg))
    renders = []

    def no_space(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def counted_render(*args, **kwargs):
        renders.append(args)

    monkeypatch.setattr(os, "posix_fallocate", no_space)
    monkeypatch.setattr(ds, "render_batch", counted_render)
    assert cli.main(["generate", "--config", str(config)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert renders == []
    assert hashes(tmp_path / "out") == before
    assert not list(tmp_path.rglob("*.tmp"))


def checkpoint(mode):
    latent = engine.LatentSpec(mode, 3)
    return engine.build_vae(latent, 12, (8, 5), np.random.default_rng(4), engine.SCALE_UNIT)


OUTPUTS = {
    "synthetic-n1": lambda path: ds.save_dataset(ds.make_synthetic_dataset(3, 1, 2), path),
    # 85 records a block at 64 px: blocks of 85, 85 and a partial 30.
    "2dshapes-64px": lambda path: ds.save_dataset(ds.shapes_source(200, 9, 64, 64), path),
    "checkpoint-torus": lambda path: engine.save_checkpoint(checkpoint(engine.TORUS), path),
    "checkpoint-euclidean": lambda path: engine.save_checkpoint(
        checkpoint(engine.EUCLIDEAN), path),
}


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_reserved_file_has_the_bytes_of_an_unreserved_one(tmp_path, monkeypatch,
                                                          reservations, name):
    OUTPUTS[name](tmp_path / "reserved")
    ((offset, size),) = reservations
    reserved = (tmp_path / "reserved").read_bytes()
    assert offset == 0 and len(reserved) == size
    monkeypatch.delattr(os, "posix_fallocate")
    OUTPUTS[name](tmp_path / "plain")
    assert (tmp_path / "plain").read_bytes() == reserved


def test_every_heatmap_csv_is_reserved_at_its_size(tmp_path, reservations):
    rng = np.random.default_rng(6)
    bundle = metrics.heatmap_export(rng.standard_normal((40, 3)), rng.standard_normal((40, 2)),
                                    np.abs(rng.standard_normal((3, 2))), bins=4)
    paths = metrics.write_heatmap_bundle(bundle, tmp_path)
    assert len(paths) == 7
    assert reservations == [(0, path.stat().st_size) for path in paths]
