import hashlib
import json
import struct

import numpy as np
import pytest

from torusvae import cli, datasets as ds, metrics
from torusvae.errors import ConfigError, FormatError


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
        if path.is_file() and not path.name.endswith(".json.tmp"):
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
        """One 2dshapes generate is one render_batch of every row and one save_dataset.

        perfbench's traced mode wraps datasets.render_batch (sized by the
        length of its first argument) and datasets.save_dataset by name to
        time the generate workload, so a change that renders in pieces or
        writes through another function fails here, not in a benchmark run.
        """
        calls = []
        render_batch, save_dataset = ds.render_batch, ds.save_dataset

        def counted_render(factors, *args):
            calls.append(("render_batch", len(factors)))
            return render_batch(factors, *args)

        def counted_save(dataset, path):
            calls.append(("save_dataset", dataset.n))
            return save_dataset(dataset, path)

        monkeypatch.setattr(ds, "render_batch", counted_render)
        monkeypatch.setattr(ds, "save_dataset", counted_save)
        config = write_config(tmp_path, base_config(tmp_path / "out", kind="2dshapes"))
        assert run("generate", "--config", str(config)) == 0
        assert calls == [("render_batch", 120), ("save_dataset", 120)]

    def test_out_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("generate", "--config", str(config), "--out", str(tmp_path / "other")) == 0
        assert (tmp_path / "other" / "data.tdds").exists()
        assert not (tmp_path / "out").exists()


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

    def test_factors_never_reach_training(self, tmp_path):
        """Zeroing the factor block must not change the trained model bytes."""
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        original = (tmp_path / "out" / "model.tdvae").read_bytes()

        data_path = tmp_path / "out" / "data.tdds"
        loaded = ds.load_dataset(data_path)
        poisoned = ds.Dataset(
            samples=loaded.samples, factors=np.zeros_like(loaded.factors),
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


class TestTraverse:
    def test_frames_written(self, tmp_path):
        config = trained_2dshapes(tmp_path)
        assert run("traverse", "--config", str(config)) == 0
        frames = sorted((tmp_path / "out").glob("strip_*.ppm"))
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

    def test_circle_index_validated(self, tmp_path):
        config = trained_2dshapes(tmp_path)
        assert run("traverse", "--config", str(config), "--circle", "9") == 1

    def test_synthetic_checkpoint_rejected(self, tmp_path):
        config = write_config(tmp_path, base_config(tmp_path / "out"))
        run("generate", "--config", str(config))
        run("train", "--config", str(config))
        assert run("traverse", "--config", str(config)) == 1


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
        for line in lines[1:]:
            assert line.endswith(",ok")
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
        """With workers, cells go out by descending latent_dim, stably."""
        submitted = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                submitted.extend((job[0].beta, job[0].latent_dim) for job in jobs)
                return [fn(job) for job in jobs]

        cfg = base_config(tmp_path / "out")
        cfg["sweep"]["dims"] = [2, 3]
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        assert run("sweep", "--config", str(config), "--workers", "2") == 0
        assert submitted == [(0.0, 3), (1.0, 3), (0.0, 2), (1.0, 2)]
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["2", "3", "2", "3"]

    @staticmethod
    def _partial_failure_rows(tmp_path, *flags):
        import csv as csv_mod

        cfg = base_config(tmp_path / "out")
        cfg["sweep"]["dims"] = [2, 40]  # 2**40 latent entries cannot be allocated
        config = write_config(tmp_path, cfg)
        run("generate", "--config", str(config))
        assert run("sweep", "--config", str(config), *flags) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))[1:]
        statuses = [row[-1] for row in rows]
        assert statuses.count("ok") == 2
        assert sum(1 for s in statuses if s.startswith("error")) == 2
        for row in rows:
            if row[-1] != "ok":
                assert row[2] == ""  # failed cells carry no scores
        return rows

    def test_partial_failure_recorded(self, tmp_path):
        self._partial_failure_rows(tmp_path)

    def test_partial_failure_recorded_with_workers(self, tmp_path):
        """The D=40 cells run first in the pool, but their error rows keep their grid places."""
        rows = self._partial_failure_rows(tmp_path, "--workers", "2")
        assert [row[1] for row in rows] == ["2", "40", "2", "40"]
        assert [row[-1] == "ok" for row in rows] == [True, False, True, False]


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

    @pytest.mark.parametrize("spec_blob", [b"[1]", b"{}", b'"x"'])
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

    def test_number_reader_types(self):
        assert cli._number(3, "x") == 3.0 and isinstance(cli._number(3, "x"), float)
        assert cli._number(4.0, "x", int) == 4 and isinstance(cli._number(4.0, "x", int), int)
        assert cli._numbers([0, 1, 3], "sweep.betas") == [0.0, 1.0, 3.0]
        for bad in (True, "1", None, [1], float("inf")):
            with pytest.raises(ConfigError):
                cli._number(bad, "x")
        with pytest.raises(ConfigError):
            cli._number(0.5, "x", int)

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

    def test_runtime_failure_is_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        cfg = base_config(blocker / "out")
        config = write_config(tmp_path, cfg)
        assert run("generate", "--config", str(config)) == 2


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
