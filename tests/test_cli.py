import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from torusvae import cli, datasets as ds, engine, geometry, metrics
from torusvae.errors import ConfigError, FormatError, json_value
from helpers import REFUSED_CHECKPOINTS, traced_peak, write_checkpoint


def base_config(out_dir, kind="synthetic", epochs=3):
    config = {
        "out_dir": str(out_dir),
        "dataset": {"kind": kind, "count": 120, "seed": 31, "path": "data.tdds"},
        "model": {
            "mode": "torus", "latent_dim": 2, "beta": 1.0, "learning_rate": 2e-3,
            "batch_size": 32, "epochs": epochs, "seed": 7, "hidden": [12],
            "checkpoint": "model.tdvae", "report": "train_report.json",
        },
        "metrics": {"split_seed": 5, "folds": 5, "report": "dci_report.json",
                    "heatmap_dir": "heatmaps"},
        "sweep": {"betas": [0.0, 1.0], "dims": [2, 3], "csv": "sweep.csv"},
        "traverse": {"circle": 0, "steps": 5, "prefix": "strip"},
    }
    if kind == "synthetic":
        config["dataset"]["factors"] = 2
    else:
        config["dataset"].update(width=8, height=8)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return path


def run(*argv):
    return cli.main(list(argv))


def trained_2dshapes(tmp_path):
    """Config of a small 2dshapes model, generated and trained under tmp_path/out."""
    cfg = base_config(tmp_path / "out", kind="2dshapes", epochs=2)
    cfg["dataset"]["count"] = 80
    cfg["model"]["batch_size"] = 16
    config = write_config(tmp_path, cfg)
    run("generate", "--config", str(config))
    run("train", "--config", str(config))
    return config


def tree_hashes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestGenerate:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("generate", "--config", str(config)) == 0
        data_path = tmp_path / "out" / "data.tdds"
        assert data_path.read_bytes()[:5] == b"TDDS1"
        loaded = ds.load_dataset(data_path)
        assert loaded.n == 120
        sidecar = json.loads((tmp_path / "out" / "data.tdds.json").read_text())
        assert ds.FactorSpec.from_json(json.dumps(sidecar)) == loaded.spec

    def test_same_seed_same_bytes(self, tmp_path):
        config_a = write_config(tmp_path, base_config(tmp_path / "a"), "a.json")
        config_b = write_config(tmp_path, base_config(tmp_path / "b"), "b.json")
        run("generate", "--config", str(config_a))
        run("generate", "--config", str(config_b))
        assert (tmp_path / "a" / "data.tdds").read_bytes() == (
            tmp_path / "b" / "data.tdds"
        ).read_bytes()

    def test_global_flags_accepted_before_subcommand(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("--config", str(config), "generate") == 0
        assert (tmp_path / "out" / "data.tdds").exists()

    def test_one_call_runs_the_traced_hooks(self, tmp_path, monkeypatch):
        """One 2dshapes generate is one save_dataset that renders every row in blocks.

        perfbench's traced mode wraps datasets.render_batch (sized by the
        length of its first argument, the factor rows) and
        datasets.save_dataset (sized by the file at its second argument, the
        path) by name to time the generate workload, so a change that
        renders or writes through other functions fails here, not in a
        benchmark run. The renders run inside the save, one per block of
        records, each into the block's buffer.
        """
        calls = []
        render_batch, save_dataset = ds.render_batch, ds.save_dataset

        def counted_render(factors, width, height, out=None):
            assert out is not None and out.dtype == np.float32
            calls.append(("render_batch", len(factors)))
            return render_batch(factors, width, height, out=out)

        def counted_save(dataset, path):
            calls.append(("save_dataset", str(path)))
            return save_dataset(dataset, path)

        monkeypatch.setattr(ds, "render_batch", counted_render)
        monkeypatch.setattr(ds, "save_dataset", counted_save)
        cfg = base_config(tmp_path / "out", kind="2dshapes")
        cfg["dataset"].update(count=200, width=64, height=64)
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 0
        (save, path), renders = calls[0], calls[1:]
        assert save == "save_dataset" and Path(path) != tmp_path / "out" / "data.tdds"
        assert Path(path).parent.name.endswith(".tmp")
        block = ds.RECORD_BLOCK_BYTES // ds.record_bytes(6, 64 * 64 * 3)
        assert renders == [("render_batch", n) for n in (block, block, 200 - 2 * block)]

    def test_out_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("generate", "--config", str(config), "--out", str(tmp_path / "other")) == 0
        assert (tmp_path / "other" / "data.tdds").exists()
        assert not (tmp_path / "out").exists()

    def test_failed_sidecar_keeps_the_previous_dataset(self, tmp_path, monkeypatch):
        """The dataset and its sidecar are replaced together or not at all: a
        sidecar write that fails after the new dataset was staged leaves the
        previous pair's bytes and no temp entry."""
        cfg = base_config(tmp_path / "out")
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 0
        before = tree_hashes(tmp_path / "out")
        cfg["dataset"]["seed"] += 1  # new bytes, so a replaced dataset would show
        write_config(tmp_path, cfg)
        staged = []

        def failing_write_bytes(path, data):
            staged.append(sorted(p.name for p in path.parent.iterdir()))
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
        assert run("generate", "--config", str(config)) == 2
        assert staged == [["data.tdds"]]
        assert tree_hashes(tmp_path / "out") == before
        assert not list(tmp_path.rglob("*.tmp"))


class TestTrain:
    def test_full_cycle_and_atomic_rerun(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        assert run("train", "--config", str(config)) == 0
        ckpt = tmp_path / "out" / "model.tdvae"
        first = ckpt.read_bytes()
        assert first[:6] == b"TDVAE1"
        report = json.loads((tmp_path / "out" / "train_report.json").read_text())
        assert report["best_epoch"] == int(np.argmin(report["val_mse"]))
        assert run("train", "--config", str(config)) == 0
        assert ckpt.read_bytes() == first

    def test_missing_dataset_is_validation_error(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("train", "--config", str(config)) == 1

    def test_euclidean_runs_same_config_shape(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["mode"] = "euclidean"
        cfg["model"]["latent_dim"] = 4
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        assert run("train", "--config", str(config)) == 0
        # the metrics pipeline consumes Euclidean mean codes through the same surface
        assert run("evaluate", "--config", str(config)) == 0
        report = json.loads((tmp_path / "out" / "dci_report.json").read_text())
        assert report["n_codes"] == 4

    def test_synthetic_k3_reaches_low_validation_mse(self, tmp_path):
        import time

        cfg = base_config(tmp_path / "out")
        cfg["dataset"].update(count=2000, factors=3, seed=303)
        cfg["model"].update(latent_dim=4, beta=0.0, epochs=60, hidden=[64, 32],
                            learning_rate=1e-3, batch_size=144)
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        start = time.monotonic()
        assert run("train", "--config", str(config)) == 0
        assert time.monotonic() - start < 600
        report = json.loads((tmp_path / "out" / "train_report.json").read_text())
        assert report["val_mse"][report["best_epoch"]] < 0.05

    def test_peak_memory_grows_with_the_file_not_with_a_float64_copy(self, tmp_path):
        """train keeps the float32 view of the file buffer and converts one
        batch at a time, so from 300 to 600 64-px images its traced peak grows
        by less than twice the file: a float64 copy of the samples alone
        would grow by twice the file."""
        peaks, sizes = [], []
        for count in (300, 600):
            root = tmp_path / str(count)
            root.mkdir()
            cfg = base_config(root / "out", kind="2dshapes", epochs=1)
            cfg["dataset"].update(count=count, width=64, height=64)
            cfg["model"]["hidden"] = [8]
            config = write_config(root, cfg)
            assert run("generate", "--config", str(config)) == 0
            sizes.append((root / "out" / "data.tdds").stat().st_size)
            peaks.append(traced_peak("train", config))
        assert peaks[1] - peaks[0] < 2 * (sizes[1] - sizes[0])

    def test_factors_never_reach_training(self, tmp_path):
        """Zeroing the factor block must not change the trained model bytes."""
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        original = (tmp_path / "out" / "model.tdvae").read_bytes()

        data_path = tmp_path / "out" / "data.tdds"
        loaded = ds.load_dataset(data_path)
        poisoned = ds.Dataset(
            x=loaded.x, factors=np.zeros_like(loaded.factors),
            spec=loaded.spec, width=loaded.width, height=loaded.height,
            channels=loaded.channels,
        )
        ds.save_dataset(poisoned, data_path)
        run("train", "--config", str(config))
        assert (tmp_path / "out" / "model.tdvae").read_bytes() == original


class TestEvaluate:
    def test_report_and_heatmaps(self, tmp_path):
        import jsonschema

        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        assert run("evaluate", "--config", str(config)) == 0
        report = json.loads((tmp_path / "out" / "dci_report.json").read_text())
        jsonschema.validate(report, metrics.DCI_REPORT_SCHEMA)
        assert report["dc_score"] == pytest.approx(
            np.sqrt(report["disentanglement"] * report["completeness"]), abs=1e-9
        )
        heatmaps = tmp_path / "out" / "heatmaps"
        assert (heatmaps / "importance.csv").exists()
        assert (heatmaps / "hist_code0_factor1.csv").exists()
        counts = np.loadtxt(heatmaps / "hist_code0_factor1.csv", delimiter=",", skiprows=1)
        assert counts.sum() == 24  # the 20% validation split of 120 rows

    def test_identity_bypass_mode(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["metrics"]["codes_source"] = "factors"
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        assert run("evaluate", "--config", str(config)) == 0
        report = json.loads((tmp_path / "out" / "dci_report.json").read_text())
        assert report["disentanglement"] > 0.95
        assert report["completeness"] > 0.95
        assert report["informativeness"] < 0.01

    def test_mode_mismatch_detected(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        cfg = base_config(tmp_path / "out")
        cfg["model"]["mode"] = "euclidean"
        cfg["model"]["latent_dim"] = 4
        mismatched = write_config(tmp_path, cfg, "mismatch.json")
        assert run("evaluate", "--config", str(mismatched)) == 1

    @pytest.mark.parametrize("hidden", [[16], [12, 12], [64, 32]])
    def test_hidden_width_mismatch_detected(self, tmp_path, capsys, hidden):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))  # hidden [12]
        cfg = base_config(tmp_path / "out")
        cfg["model"]["hidden"] = hidden
        mismatched = write_config(tmp_path, cfg, "mismatch.json")
        capsys.readouterr()
        assert run("evaluate", "--config", str(mismatched)) == 1
        err = capsys.readouterr().err
        assert "model.hidden" in err and "[12]" in err and str(hidden) in err
        assert not (tmp_path / "out" / "dci_report.json").exists()


class TestTraverse:
    def test_frames_written(self, tmp_path, capsys):
        """The frames are <prefix>_<step>.ppm, and the message names where they
        are, also for an absolute prefix, which does not lie under out_dir."""
        config = trained_2dshapes(tmp_path)
        cfg = json.loads(config.read_text())
        for prefix, stem in (("strip", tmp_path / "out" / "strip_"),
                             (str(tmp_path / "abs" / "p"), tmp_path / "abs" / "p_")):
            cfg["traverse"]["prefix"] = prefix
            write_config(tmp_path, cfg)
            capsys.readouterr()
            assert run("traverse", "--config", str(config)) == 0
            assert capsys.readouterr().out == f"wrote 5 frames to {stem}*.ppm\n"
            frames = sorted(stem.parent.glob(f"{stem.name}*.ppm"))
            assert len(frames) == 5
            for frame in frames:
                blob = frame.read_bytes()
                assert blob.startswith(b"P6\n8 8\n255\n")
                assert len(blob) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3

    def test_full_turn_matches_step_zero(self, tmp_path):
        config = trained_2dshapes(tmp_path)
        run("traverse", "--config", str(config))
        first = (tmp_path / "out" / "strip_000.ppm").read_bytes()
        # one full turn later: steps * (2pi / steps) folds back to angle 0
        cfg = json.loads(config.read_text())
        cfg["traverse"]["anchor"] = [2 * np.pi, 0.0]
        moved = write_config(tmp_path, cfg, "turn.json")
        run("traverse", "--config", str(moved))
        assert (tmp_path / "out" / "strip_000.ppm").read_bytes() == first

    def test_circle_index_validated(self, tmp_path, capsys):
        config = trained_2dshapes(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["traverse"]["circle"] = 9
        write_config(tmp_path, cfg)
        capsys.readouterr()
        assert run("traverse", "--config", str(config)) == 1
        assert "traverse.circle index 9 out of range for 2 circles" in capsys.readouterr().err

    def test_frames_are_the_manual_decode_of_their_angles(self, tmp_path):
        """Frame k decodes the embedding of the anchor with the traversed circle
        at 2 pi k / steps, scaled back to pixels."""
        config = trained_2dshapes(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["traverse"].update(circle=1, anchor=[0.3, 1.1])
        write_config(tmp_path, cfg)
        assert run("traverse", "--config", str(config)) == 0
        model = engine.load_checkpoint(tmp_path / "out" / "model.tdvae")
        for step in range(5):
            angles = np.array([0.3, 2 * np.pi * step / 5])
            sample = model.decode(geometry.embed_angles(angles[None, :]))[0]
            expected = tmp_path / "expected.ppm"
            ds.write_ppm(engine.scale_out(sample, model.input_scale).reshape(8, 8, 3), expected)
            frame = tmp_path / "out" / f"strip_{step:03d}.ppm"
            assert frame.read_bytes() == expected.read_bytes(), step

    def test_euclidean_checkpoint_exits_1(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", kind="2dshapes", epochs=1)
        cfg["model"]["mode"] = "euclidean"
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        assert run("train", "--config", str(config)) == 0
        capsys.readouterr()
        assert run("traverse", "--config", str(config)) == 1
        assert "traverse needs a circle-latent checkpoint" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("strip_*.ppm"))

    @pytest.mark.parametrize("anchor", [[0.0], [0.0, 0.0, 0.0]])
    def test_anchor_of_the_wrong_length_exits_1(self, tmp_path, capsys, anchor):
        config = trained_2dshapes(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["traverse"]["anchor"] = anchor
        write_config(tmp_path, cfg)
        capsys.readouterr()
        assert run("traverse", "--config", str(config)) == 1
        assert "anchor must list 2 angles" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("strip_*.ppm"))

    def test_synthetic_checkpoint_rejected(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        assert run("traverse", "--config", str(config)) == 1

    @pytest.mark.parametrize("steps", [1000, 1001])
    def test_steps_bounded_before_the_checkpoint_loads(self, tmp_path, capsys, monkeypatch,
                                                       steps):
        """Frame names sort in step order up to 1000 frames; a larger count
        exits 1 before the checkpoint is loaded."""
        class Reached(BaseException):
            pass

        def sentinel(path):
            raise Reached

        cfg = base_config(tmp_path / "out", kind="2dshapes")
        cfg["traverse"]["steps"] = steps
        config = write_config(tmp_path, cfg)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "model.tdvae").write_bytes(b"")
        monkeypatch.setattr(engine, "load_checkpoint", sentinel)
        if steps > 1000:
            assert run("traverse", "--config", str(config)) == 1
            assert "traverse.steps" in capsys.readouterr().err
        else:
            with pytest.raises(Reached):
                run("traverse", "--config", str(config))


class TestSweep:
    def test_grid_rows_and_determinism(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        assert run("sweep", "--config", str(config)) == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        header = lines[0].split(",")
        assert header[:3] == ["beta", "latent_dim", "dc_score"]
        assert header[-2:] == ["status", "flags"]
        for line in lines[1:]:
            assert line.split(",")[-2] == "ok"
        first = csv_path.read_bytes()
        run("sweep", "--config", str(config))
        assert csv_path.read_bytes() == first

    def test_workers_flag_matches_serial(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["sweep"]["dims"] = [2, 3]  # ascending, so the pool gets the cells reordered
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        run("sweep", "--config", str(config))
        serial = (tmp_path / "out" / "sweep.csv").read_bytes()
        run("sweep", "--config", str(config), "--workers", "2")
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == serial

    def test_pool_gets_longest_cells_first(self, tmp_path, monkeypatch):
        """With workers, cells go out by descending latent_dim, stably, and
        each job is (cell, settings): the dataset goes to the pool's initializer.
        The fake pool runs that initializer in this process, so the sweep
        dataset it sets is put back before the test ends."""
        submitted = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                submitted.append(max_workers)
                assert isinstance(initargs[0], ds.Dataset)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                assert all(len(job) == 2 for job in jobs)
                submitted.extend((job[0].beta, job[0].latent_dim) for job in jobs)
                return [fn(job) for job in jobs]

        cfg = base_config(tmp_path / "out")
        cfg["sweep"]["dims"] = [2, 3]
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "ProcessPoolExecutor", SerialPool)
            patch.setattr(cli, "_sweep_process", None)
            assert run("sweep", "--config", str(config), "--workers", "2") == 0
            assert submitted == [2, (0.0, 3), (1.0, 3), (0.0, 2), (1.0, 2)]
            # A pool gets no more workers than there are cells; the fake starts none.
            submitted.clear()
            assert run("sweep", "--config", str(config), "--workers", "5000") == 0
            assert submitted[0] == 4
            assert isinstance(cli._sweep_process, ds.Dataset)
        assert cli._sweep_process is None
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["2", "3", "2", "3"]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, monkeypatch, workers):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        capsys.readouterr()
        monkeypatch.setattr(cli, "_sweep_cell", None)  # no cell may run
        assert run("sweep", "--config", str(config), "--workers", workers) == 1
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @staticmethod
    def _partial_failure_rows(tmp_path, *flags):
        import csv as csv_mod

        cfg = base_config(tmp_path / "out")
        cfg["sweep"]["betas"] = [1.0, 1e308]  # beta * KL overflows on the first step
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        assert run("sweep", "--config", str(config), *flags) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))[1:]
        statuses = [row[-2] for row in rows]
        assert statuses.count("ok") == 2
        assert sum(1 for s in statuses if s.startswith("error")) == 2
        for row in rows:
            if row[-2] != "ok":
                assert "non-finite loss" in row[-2]
                assert row[2] == "" and row[-1] == ""  # failed cells carry no scores or flags
        assert [row[1] for row in rows] == ["2", "3", "2", "3"]
        assert [row[-2] == "ok" for row in rows] == [True, True, False, False]
        return rows

    def test_partial_failure_recorded(self, tmp_path):
        self._partial_failure_rows(tmp_path)

    def test_partial_failure_recorded_with_workers(self, tmp_path):
        """The D=3 cells run first in the pool, but every row keeps its grid place."""
        self._partial_failure_rows(tmp_path, "--workers", "2")

    @pytest.mark.parametrize("mode,dim", [("torus", 32), ("euclidean", 2**31)])
    def test_dim_over_the_latent_bound_exits_1_before_any_cell(self, tmp_path, capsys,
                                                               monkeypatch, mode, dim):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["mode"] = mode
        cfg["sweep"]["dims"] = [2, dim]
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        capsys.readouterr()
        monkeypatch.setattr(cli, "_sweep_cell", None)  # no cell may run
        assert run("sweep", "--config", str(config)) == 1
        assert f"sweep.dims must be in 1..{engine.MAX_LATENT_DIM[mode]}, got {dim}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_truncated_dataset_exits_1(self, tmp_path, capsys, workers):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        path = tmp_path / "out" / "data.tdds"
        path.write_bytes(path.read_bytes()[:-1])
        capsys.readouterr()
        assert run("sweep", "--config", str(config), "--workers", workers) == 1
        assert "truncated file" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_dataset_loaded_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        loads = []
        load_dataset = ds.load_dataset

        def counting(path):
            loads.append(path)
            return load_dataset(path)

        monkeypatch.setattr(ds, "load_dataset", counting)
        assert run("sweep", "--config", str(config)) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 and len(loads) == 1

    def test_report_flags_reach_the_csv(self, tmp_path, monkeypatch):
        run_dci = metrics.run_dci
        flags = iter([[], ["lasso_not_converged"], ["constant_code:0", "dead_code:1"], []])

        def flagged_run_dci(*args, **kwargs):
            evaluation = run_dci(*args, **kwargs)
            evaluation.report.flags = next(flags)
            return evaluation

        monkeypatch.setattr(metrics, "run_dci", flagged_run_dci)
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        assert run("sweep", "--config", str(config)) == 0
        text = (tmp_path / "out" / "sweep.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()]
        assert rows[0][-2:] == ["status", "flags"]
        assert [row[-2:] for row in rows[1:]] == [
            ["ok", ""], ["ok", "lasso_not_converged"], ["ok", "constant_code:0;dead_code:1"],
            ["ok", ""]]


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_parser_for_every_command(self, tmp_path, capsys, monkeypatch, command):
        """Shared flags parse the same on either side of the command, the later
        of a repeated flag wins, and no command takes --circle or --steps:
        traverse reads its circle and steps from the config alone."""
        parse = cli._build_parser().parse_args
        flags = ["--config", "c.json", "--out", "o", "--workers", "3"]
        before, after = parse([*flags, command]), parse([command, *flags])
        assert before == after
        assert (after.command, after.config, after.out, after.workers) == (
            command, "c.json", "o", 3)
        both = parse(["--config", "a", "--out", "a", "--workers", "2", command,
                      "--config", "b", "--out", "b", "--workers", "4"])
        assert (both.config, both.out, both.workers) == ("b", "b", 4)

        reached = []

        def stub(config, args):
            reached.append(args)
            return cli.EXIT_OK

        monkeypatch.setitem(cli._COMMANDS, command, (stub, cli._COMMANDS[command][1]))
        config = str(write_config(tmp_path, base_config(tmp_path / "out")))
        for flag in ("--circle", "--steps"):
            assert run(command, "--config", config, flag, "2") == 1
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not reached
        assert run(command + "s", "--config", config) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert run("--config", config) == 1
        assert "required: command" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_flag(self):
        assert run("generate") == 1

    def test_missing_config_file(self, tmp_path):
        assert run("generate", "--config", str(tmp_path / "nope.json")) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("generate", "--config", str(path)) == 1

    def test_missing_seed_is_error_not_default(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["dataset"]["seed"]
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 1

    @pytest.mark.parametrize("command", ["generate", "train", "sweep"])
    def test_rejected_config_leaves_no_out_dir(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = {"out_dir": "od/out", "dataset": {"kind": "synthetic", "count": 10, "factors": 2}}
        config = write_config(tmp_path, cfg)
        assert run(command, "--config", str(config)) == 1
        assert not (tmp_path / "od").exists()

    def test_unknown_dataset_kind(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["dataset"]["kind"] = "teapots"
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 1

    def test_unknown_subcommand(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("explode", "--config", str(config)) == 1

    @staticmethod
    def _dataset_with_spec(tmp_path, spec_blob):
        """Generate the base dataset, then swap in another factor-spec block."""
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("generate", "--config", str(config)) == 0
        path = tmp_path / "out" / "data.tdds"
        blob = path.read_bytes()
        spec_at = 5 + 5 * 4  # magic, then N, width, height, channels, K
        (spec_len,) = struct.unpack_from("<I", blob, spec_at)
        path.write_bytes(blob[:spec_at] + struct.pack("<I", len(spec_blob)) + spec_blob
                         + blob[spec_at + 4 + spec_len:])
        return config, path

    @pytest.mark.parametrize("spec_blob", [
        b"[1]", b"{}", b'"x"', pytest.param(b"[" * 10**5 + b"]" * 10**5, id="nested-too-deep")])
    def test_non_list_factor_spec_is_validation_error(self, tmp_path, spec_blob):
        config, path = self._dataset_with_spec(tmp_path, spec_blob)
        with pytest.raises(FormatError, match="factor spec"):
            ds.load_dataset(path)
        assert run("train", "--config", str(config)) == 1

    @pytest.mark.parametrize("factor", [
        {"name": "a", "kind": "uniform", "lo": "x", "hi": 1},
        {"name": "a", "kind": "uniform", "lo": True, "hi": 1},
        {"name": "c", "kind": "categorical", "n": "3"},
        {"name": "c", "kind": "categorical", "n": 3.0},
        {"name": 1, "kind": "angle"},
        {"name": "a", "kind": ["angle"]},
    ])
    def test_wrong_typed_factor_field_is_validation_error(self, tmp_path, factor):
        spec_blob = json.dumps([factor, {"name": "b", "kind": "angle"}]).encode()
        config, path = self._dataset_with_spec(tmp_path, spec_blob)
        with pytest.raises(FormatError, match="factor spec"):
            ds.load_dataset(path)
        assert run("train", "--config", str(config)) == 1

    @pytest.mark.parametrize("command,where,value,message", [
        ("traverse", ("traverse", "anchor"), ["x", 0], "traverse.anchor"),
        ("traverse", ("traverse", "anchor"), {"a": 1}, "traverse.anchor"),
        ("traverse", ("traverse", "anchor"), [0, float("nan")], "traverse.anchor"),
        ("traverse", ("traverse", "steps"), "many", "traverse.steps"),
        ("traverse", ("traverse", "circle"), "x", "traverse.circle"),
        ("traverse", ("traverse", "circle"), 0.7, "traverse.circle"),
        ("traverse", ("traverse", "circle"), True, "traverse.circle"),
        ("traverse", ("traverse",), [1], "'traverse' object"),
        ("generate", ("dataset", "count"), "x", "dataset.count"),
        ("generate", ("dataset", "width"), [1], "dataset.width"),
        ("sweep", ("model", "epochs"), "x", "model.epochs"),
        ("sweep", ("metrics", "folds"), "five", "metrics.folds"),
        ("evaluate", ("metrics", "folds"), 0, "metrics.folds"),
        ("evaluate", ("metrics", "folds"), 1, "metrics.folds"),
        ("evaluate", ("metrics", "alpha_grid"), [], "metrics.alpha_grid"),
        ("evaluate", ("metrics", "alpha_grid"), [-1, 0.1], "metrics.alpha_grid"),
        ("sweep", ("metrics", "folds"), 0, "metrics.folds"),
        ("sweep", ("metrics", "folds"), 1, "metrics.folds"),
        ("sweep", ("metrics", "alpha_grid"), [], "metrics.alpha_grid"),
        ("sweep", ("metrics", "alpha_grid"), [-1, 0.1], "metrics.alpha_grid"),
        ("train", ("model", "latent_dim"), 0, "model.latent_dim"),
        ("train", ("model", "hidden"), [12, 0], "model.hidden"),
        ("train", ("model", "beta"), -0.5, "model.beta"),
        ("train", ("model", "batch_size"), 0, "model.batch_size"),
        ("train", ("model", "val_fraction"), 1.5, "model.val_fraction"),
        ("sweep", ("sweep", "dims"), [2, 0], "sweep.dims"),
        ("sweep", ("sweep", "betas"), [-1.0], "sweep.betas"),
        ("train", ("model", "seed"), -1, "model.seed"),
        ("sweep", ("model", "seed"), -1, "model.seed"),
        ("evaluate", ("metrics", "split_seed"), -1, "metrics.split_seed"),
        ("train", ("model", "learning_rate"), 0, "model.learning_rate"),
        ("evaluate", ("model", "learning_rate"), 0, "model.learning_rate"),
        ("sweep", ("model", "learning_rate"), 0, "model.learning_rate"),
        ("train", ("model", "val_fraction"), 1.0, "model.val_fraction"),
        ("evaluate", ("model", "val_fraction"), 1.0, "model.val_fraction"),
        ("sweep", ("model", "val_fraction"), 1.0, "model.val_fraction"),
        ("train", ("model", "mode"), "tor", "model.mode"),
        ("evaluate", ("model", "mode"), "tor", "model.mode"),
        ("sweep", ("model", "mode"), "tor", "model.mode"),
        ("train", ("model", "hidden"), [4] * 255, "model.hidden"),
    ])
    def test_wrong_typed_config_value_is_validation_error(self, tmp_path, capsys, command,
                                                          where, value, message):
        if command in ("traverse", "evaluate"):
            trained_2dshapes(tmp_path)  # the dataset and checkpoint the bad config points at
        cfg = base_config(tmp_path / "out", kind="2dshapes", epochs=2)
        block = cfg
        for key in where[:-1]:
            block = block[key]
        block[where[-1]] = value
        config = write_config(tmp_path, cfg, "bad.json")
        if command == "sweep":
            assert run("generate", "--config", str(config)) == 0
        capsys.readouterr()
        assert run(command, "--config", str(config)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("kind,values,key", [
        ("2dshapes", {"width": 4}, "dataset.width"),
        ("2dshapes", {"height": 7}, "dataset.height"),
        ("2dshapes", {"count": 0}, "dataset.count"),
        ("2dshapes", {"seed": -1}, "dataset.seed"),
        ("2dshapes", {"width": 2**16, "height": 2**16}, "dataset.width"),
        ("2dshapes", {"width": 2**40}, "dataset.width"),
        ("synthetic", {"count": 2**32}, "dataset.count"),
        ("synthetic", {"seed": -3}, "dataset.seed"),
        ("synthetic", {"factors": 9}, "dataset.factors"),
        ("synthetic", {"factors": 0}, "dataset.factors"),
        ("synthetic", {"noise_sigma": -1}, "dataset.noise_sigma"),
    ])
    def test_out_of_range_dataset_value_is_validation_error(self, tmp_path, capsys, kind,
                                                            values, key):
        """Rejected before a factor row is drawn or a file is opened: no dataset
        file, no temp file and no output directory is left."""
        cfg = base_config(tmp_path / "out", kind=kind)
        cfg["dataset"].update(values)
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("kind,generator", [("2dshapes", "sample_factors"),
                                                ("synthetic", "make_synthetic_dataset")])
    def test_dataset_too_large_for_memory_is_validation_error(self, tmp_path, capsys,
                                                              monkeypatch, kind, generator):
        """A count whose rows do not fit in memory exits 1 naming dataset.count,
        before a directory or temp file is made. The generator is patched to
        raise, so that nothing is really allocated."""
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(ds, generator, out_of_memory)
        config = write_config(tmp_path, base_config(tmp_path / "out", kind=kind))
        assert run("generate", "--config", str(config)) == 1
        assert "dataset.count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("name", list(REFUSED_CHECKPOINTS))
    def test_refused_layer_table_exits_1(self, tmp_path, capsys, name):
        message, args = REFUSED_CHECKPOINTS[name]
        config = write_config(tmp_path, base_config(tmp_path / "out", kind="2dshapes"))
        assert run("generate", "--config", str(config)) == 0
        write_checkpoint(tmp_path / "out" / "model.tdvae", *args)
        for command in ("evaluate", "traverse"):
            capsys.readouterr()
            assert run(command, "--config", str(config)) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "dci_report.json").exists()
        assert not list((tmp_path / "out").glob("strip_*.ppm"))

    @pytest.mark.parametrize("command,value", [
        ("evaluate", "parameter"), ("traverse", "parameter"), ("train", "pixel"),
        ("evaluate", "factor")])
    def test_non_finite_input_file_exits_1(self, tmp_path, capsys, command, value):
        config = trained_2dshapes(tmp_path)
        out = tmp_path / "out"
        if value == "parameter":
            model = engine.load_checkpoint(out / "model.tdvae")
            model.flat[:] = np.nan
            engine.save_checkpoint(model, out / "model.tdvae")
        else:
            data = ds.load_dataset(out / "data.tdds")
            (data.x if value == "pixel" else data.factors)[3, 1] = np.nan
            ds.save_dataset(data, out / "data.tdds")
        capsys.readouterr()
        assert run(command, "--config", str(config)) == 1
        assert f"non-finite {value}" in capsys.readouterr().err

    def test_number_reader_types(self):
        assert json_value({"x": 3}, "x", "w") == 3.0
        assert isinstance(json_value({"x": 3}, "x", "w"), float)
        assert json_value({"x": 4.0}, "x", "w", int) == 4
        assert isinstance(json_value({"x": 4.0}, "x", "w", int), int)
        assert json_value({"betas": [0, 1, 3]}, "betas", "sweep", [float]) == [0.0, 1.0, 3.0]
        for bad in (True, "1", None, [1], float("inf")):
            with pytest.raises(ConfigError, match="w.x"):
                json_value({"x": bad}, "x", "w")
        with pytest.raises(ConfigError, match="w.x"):
            json_value({"x": 0.5}, "x", "w", int)

    def test_json_value_rules(self):
        assert json_value({}, "x", "w", default=None) is None
        with pytest.raises(ConfigError, match="w.x is required"):
            json_value({}, "x", "w")
        with pytest.raises(ConfigError, match="too large for a float"):
            json_value({"x": 10**400}, "x", "w", int)
        assert json_value({"x": 10**300}, "x", "w", int) == 10**300
        assert json_value({"x": 2}, "x", "w", int, lo=2, hi=2) == 2
        for bounds, message in (({"lo": 3}, ">= 3"), ({"hi": 1}, "<= 1"),
                                ({"lo": 3, "hi": 5}, "in 3..5")):
            with pytest.raises(ConfigError, match=f"w.x must be {message}, got 2"):
                json_value({"x": 2}, "x", "w", int, **bounds)
        with pytest.raises(ConfigError, match="w.x must be >= 0"):
            json_value({"x": [1, -1]}, "x", "w", [float], lo=0)
        with pytest.raises(ConfigError, match="w.x must be a list"):
            json_value({"x": 1}, "x", "w", [float])
        assert json_value({"x": "a"}, "x", "w", str) == "a"
        assert json_value({"out_dir": "a"}, "out_dir", "", str) == "a"
        for bad in ("", 7, None, ["a"]):
            with pytest.raises(ConfigError, match="w.x must be a non-empty string"):
                json_value({"x": bad}, "x", "w", str)

    # What a command does once its config is read; none may run for a bad config.
    WORK = [(ds, "shapes_source"), (ds, "make_synthetic_dataset"), (ds, "load_dataset"),
            (engine, "train"), (engine, "load_checkpoint"), (metrics, "run_dci")]

    @classmethod
    def _record_work(cls, monkeypatch) -> list:
        calls = []
        for owner, name in cls.WORK:
            def recorder(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorder)
        return calls

    @pytest.mark.parametrize("value", [7, "", None])
    @pytest.mark.parametrize("command,where", [
        ("generate", ("out_dir",)),
        ("train", ("out_dir",)),
        ("generate", ("dataset", "path")),
        ("train", ("dataset", "path")),
        ("train", ("model", "checkpoint")),
        ("train", ("model", "report")),
        ("evaluate", ("model", "checkpoint")),
        ("evaluate", ("metrics", "report")),
        ("evaluate", ("metrics", "heatmap_dir")),
        ("sweep", ("sweep", "csv")),
        ("traverse", ("traverse", "prefix")),
    ])
    def test_bad_path_value_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    command, where, value):
        """A path must be a non-empty string. A bad one exits 1 naming its key
        before the command loads, trains or scores anything, and writes
        nothing, not even into the working directory."""
        self._rejects_path_value(tmp_path, capsys, monkeypatch, command, where, value)

    @pytest.mark.parametrize("value", [".", "..", "sub/..", "sub/", "made_dir"])
    @pytest.mark.parametrize("command,where", [
        ("generate", ("dataset", "path")),
        ("train", ("model", "checkpoint")),
        ("train", ("model", "report")),
        ("evaluate", ("metrics", "report")),
        ("sweep", ("sweep", "csv")),
    ])
    def test_file_path_that_names_a_directory_exits_1(self, tmp_path, capsys, monkeypatch,
                                                      command, where, value):
        """A file-valued path whose last part is "." or ".." would name out_dir
        or a directory above it, a trailing slash names a directory too, and
        so does made_dir, a directory that exists in out_dir; each is rejected
        like any other bad path, not once the work is done and its output
        cannot be renamed into place."""
        (tmp_path / "out" / "made_dir").mkdir(parents=True)
        self._rejects_path_value(tmp_path, capsys, monkeypatch, command, where, value)

    @pytest.mark.parametrize("value", ["model.tdvae", "dci_report.json",
                                       "sub/../dci_report.json"])
    def test_heatmap_dir_that_names_a_file_exits_1(self, tmp_path, capsys, monkeypatch, value):
        """metrics.heatmap_dir names a directory: an existing file (the
        checkpoint) or the metrics.report file, which evaluate writes first,
        exits 1 before anything loads, so the report is not replaced."""
        self._rejects_path_value(tmp_path, capsys, monkeypatch, "evaluate",
                                 ("metrics", "heatmap_dir"), value)

    class Reached(BaseException):
        """Raised by every stubbed entry point of work; cli.main catches only Exceptions."""

    @pytest.mark.parametrize("command,key,value,made_dir", [
        # Under an existing file: each of these ran the whole command, then exited 2.
        ("train", "model.checkpoint", "data.tdds/x", None),
        ("train", "model.report", "data.tdds/x", None),
        ("evaluate", "metrics.report", "data.tdds/x", None),
        ("evaluate", "metrics.heatmap_dir", "data.tdds/x", None),
        ("sweep", "sweep.csv", "data.tdds/x", None),
        ("traverse", "traverse.prefix", "data.tdds/t", None),
        ("generate", "dataset.path", "model.tdvae/d.tdds", None),
        ("generate", "--out", "model.tdvae", None),
        ("generate", "--out", "model.tdvae/o", None),
        ("generate", "dataset.path", "data.tdds", "data.tdds.json"),
        # The same file as another path: each of these exited 0 with a file lost.
        ("train", "model.checkpoint", "data.tdds", None),
        ("train", "model.report", "model.tdvae", None),
        ("evaluate", "metrics.report", "data.tdds", None),
        ("evaluate", "metrics.report", "model.tdvae", None),
        ("sweep", "sweep.csv", "data.tdds", None),
        # A frame of traverse.prefix "strip": exited 0 with the checkpoint replaced by frame 0.
        ("traverse", "model.checkpoint", "strip_000.ppm", None),
        ("traverse", "model.checkpoint", "strip_004.ppm", None),
        # Under or above another path of the command that does not exist yet: each
        # ran the whole command, then exited 2.
        ("train", "model.checkpoint", "train_report.json/model.tdvae", None),
        ("evaluate", "metrics.heatmap_dir", "dci_report.json/heatmaps", None),
    ])
    def test_path_that_clashes_with_a_file_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, key, value, made_dir):
        """A path under an existing file (or --out naming one), a sidecar where
        a directory is, or a path equal to another path of the command exits 1
        naming the key, before any work, and the input files keep their bytes."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "data.tdds").write_bytes(b"dataset")
        (out / "model.tdvae").write_bytes(b"checkpoint")
        if made_dir:
            (out / made_dir).mkdir()
        cfg = base_config(out, kind="2dshapes")
        flags = ()
        if key == "--out":
            flags = ("--out", str(out / value))
        else:
            section, name = key.split(".")
            cfg[section][name] = value
        config = write_config(tmp_path, cfg)

        def sentinel(*args, **kwargs):
            raise self.Reached

        for owner, name in self.WORK + [(cli, "write_files")]:
            monkeypatch.setattr(owner, name, sentinel)
        capsys.readouterr()
        assert run(command, "--config", str(config), *flags) == 1
        err = capsys.readouterr().err
        assert key in err and (key != "--out" or "out_dir" not in err), err
        assert (out / "data.tdds").read_bytes() == b"dataset"
        assert (out / "model.tdvae").read_bytes() == b"checkpoint"

    def _rejects_path_value(self, tmp_path, capsys, monkeypatch, command, where, value):
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(trained_2dshapes(tmp_path).read_text())
        block = cfg
        for key in where[:-1]:
            block = block[key]
        block[where[-1]] = value
        config = write_config(tmp_path, cfg, "bad.json")
        before = tree_hashes(tmp_path)
        calls = self._record_work(monkeypatch)
        capsys.readouterr()
        assert run(command, "--config", str(config)) == 1
        assert ".".join(where) in capsys.readouterr().err
        assert calls == []
        assert tree_hashes(tmp_path) == before

    @pytest.mark.parametrize("command,where", [("generate", ("dataset", "noise_sigma")),
                                               ("train", ("model", "beta")),
                                               ("evaluate", ("metrics", "holdout_fraction"))])
    def test_integer_too_large_for_a_float_exits_1(self, tmp_path, capsys, command, where):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("generate", "--config", str(config)) == 0
        assert run("train", "--config", str(config)) == 0
        cfg = base_config(tmp_path / "out")
        cfg[where[0]][where[1]] = 10**400
        config = write_config(tmp_path, cfg, "bad.json")
        capsys.readouterr()
        assert run(command, "--config", str(config)) == 1
        assert ".".join(where) in capsys.readouterr().err

    def test_integer_of_too_many_digits_exits_1(self, tmp_path, capsys):
        """json.loads refuses integers of more than 4300 digits with a ValueError."""
        cfg = base_config(tmp_path / "out")
        cfg["dataset"]["seed"] = "SEED"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace('"SEED"', "1" + "0" * 4999))
        assert run("generate", "--config", str(path)) == 1
        assert "not valid UTF-8 JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_nested_too_deep_exits_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5 + "]" * 10**5)
        assert run("generate", "--config", str(path)) == 1
        assert "not valid UTF-8 JSON" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"out_dir": "caf\u00e9"}'.encode("latin-1"))
        assert run("generate", "--config", str(path)) == 1

    def test_config_path_that_is_a_directory(self, tmp_path):
        assert run("generate", "--config", str(tmp_path)) == 1

    @pytest.mark.parametrize("command,key", [("train", ("dataset", "path")),
                                             ("evaluate", ("model", "checkpoint"))])
    def test_input_path_that_is_a_directory(self, tmp_path, command, key):
        cfg = base_config(tmp_path / "out")
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 0
        cfg[key[0]][key[1]] = str(tmp_path)
        config = write_config(tmp_path, cfg)
        assert run(command, "--config", str(config)) == 1

    def test_latent_dim_too_large_for_memory_exits_1(self, tmp_path, capsys):
        """At latent dim 64 the decoder would have 2^64 + 64 inputs: the latent
        bound refuses the dim before 2^64 is computed or anything allocated."""
        cfg = base_config(tmp_path / "out")
        cfg["model"]["latent_dim"] = 64
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 0
        capsys.readouterr()
        assert run("train", "--config", str(config)) == 1
        assert "latent dim 64" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.tdvae").exists()

    @pytest.mark.parametrize("dim", [32, 15000, 10**18])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_latent_dim_over_the_bound_exits_1(self, tmp_path, capsys, command, dim):
        """A torus latent dim whose 2^dim + dim decoder inputs no u32 holds is
        refused when the config is read, before 2^dim is computed."""
        cfg = base_config(tmp_path / "out")
        cfg["model"]["latent_dim"] = dim
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 0
        capsys.readouterr()
        assert run(command, "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert f"model.latent_dim must be <= 31 for a torus latent: latent dim {dim}" in err
        assert not (tmp_path / "out" / "model.tdvae").exists()
        assert not (tmp_path / "out" / "dci_report.json").exists()

    def test_hidden_too_wide_for_memory_exits_1(self, tmp_path, capsys):
        """A hidden layer of 10^13 units makes a model of petabytes: more
        bytes than an address space holds, so the allocation is refused
        before any memory is touched."""
        cfg = base_config(tmp_path / "out")
        cfg["model"]["hidden"] = [10**13]
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 0
        capsys.readouterr()
        assert run("train", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert "latent dim 2 with layer widths [" in err
        assert err.count(", 10000000000000, ") == 2  # the encoder's and the decoder's
        assert not (tmp_path / "out" / "model.tdvae").exists()

    def test_runtime_failure_is_two(self, tmp_path, capsys, monkeypatch):
        def failing_train(*args):
            raise RuntimeError("simulated failure")

        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("generate", "--config", str(config)) == 0
        monkeypatch.setattr(engine, "train", failing_train)
        capsys.readouterr()
        assert run("train", "--config", str(config)) == 2
        assert "runtime failure: simulated failure" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.tdvae").exists()


class TestDeterminism:
    def test_whole_pipeline_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_config(out))
        for command in ("generate", "train", "evaluate", "sweep"):
            assert run(command, "--config", str(config)) == 0
        first = tree_hashes(out)
        assert first
        for command in ("generate", "train", "evaluate", "sweep"):
            assert run(command, "--config", str(config)) == 0
        assert tree_hashes(out) == first
