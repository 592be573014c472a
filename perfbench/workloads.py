"""The benchmark's workloads: their inputs, the command each op runs, and output checks.

Each workload drives `torusvae.cli.main` in-process as a closed loop: one caller,
each command sent only after the previous one returned. An op fails on a
non-zero exit code, on an output check that does not hold, on outputs that
differ from an earlier op with the same inputs, or on an input file whose
sha256 no longer matches the one recorded when the inputs were made.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from torusvae import cli, metrics

HERE = Path(__file__).resolve().parent
FROZEN_DIR = HERE / "data"
FROZEN_INPUTS = FROZEN_DIR / "frozen_inputs.json"

# evaluate-euclidean reads a committed checkpoint over this fixed dataset; the
# benchmark seed only picks the metric split seeds (see EvaluateEuclidean).
EVALUATE_DATASET = {"kind": "synthetic", "count": 2000, "seed": 505, "factors": 5,
                    "path": "k5.tdds"}
EVALUATE_MODEL = {"mode": "euclidean", "latent_dim": 10, "beta": 1.0,
                  "learning_rate": 1e-3, "batch_size": 144, "epochs": 40, "seed": 1,
                  "hidden": [128]}
EVALUATE_CHECKPOINT = "evaluate_euclidean.tdvae"


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class CheckError(Exception):
    """An output check that did not hold."""


class Workload:
    name = ""
    command = ""
    inputs: tuple = ()  # files made by prepare(), relative to the output directory

    def configs(self, seed: int, out_dir: Path) -> list:
        """One config per op variant; ops cycle through them in order."""
        raise NotImplementedError

    def pool_workers(self) -> int:
        """Process-pool workers the command runs (`--workers`; 0: no pool)."""
        return 0

    def outputs(self, out_dir: Path) -> list:
        """Files an op writes, relative to out_dir, in a fixed order."""
        raise NotImplementedError

    def check(self, out_dir: Path) -> dict:
        """Validate one op's outputs; return its quality figures. Raises CheckError."""
        raise NotImplementedError

    def work(self) -> dict:
        """Work one op does, for throughput figures (name -> amount)."""
        return {}

    def frozen_hashes(self, out_dir: Path) -> dict:
        """Input hashes fixed in the repository rather than recorded at set-up."""
        return {}


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise CheckError(f"{what} is not finite: {value}")
    return value


def _dc(value, what: str) -> float:
    value = _finite(value, what)
    if not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} outside [0, 1]: {value}")
    return value


class Train2dShapes(Workload):
    # The README / acceptance-criterion-8 model on 16x16x3 2dshapes, with fewer
    # rows and epochs so that one op takes a fraction of a second.
    name = "train-2dshapes"
    command = "train"
    inputs = ("data.tdds", "data.tdds.json")
    count, epochs = 720, 4

    def configs(self, seed, out_dir):
        return [{
            "out_dir": str(out_dir),
            "dataset": {"kind": "2dshapes", "count": self.count, "seed": seed,
                        "width": 16, "height": 16, "path": "data.tdds"},
            "model": {"mode": "torus", "latent_dim": 4, "beta": 1.0, "learning_rate": 1e-3,
                      "batch_size": 144, "epochs": self.epochs, "seed": seed,
                      "hidden": [128, 64]},
        }]

    def outputs(self, out_dir):
        return ["model.tdvae", "train_report.json"]

    def check(self, out_dir):
        report = json.loads((out_dir / "train_report.json").read_text())
        return {"val_mse": _finite(report["val_mse"][report["best_epoch"]], "val_mse")}

    def work(self):
        rows = self.count - round(self.count * 0.2)
        return {"train.samples": rows * self.epochs}


class SweepSynthetic(Workload):
    # Acceptance criterion 9's dataset and model on a 2 x 2 grid; D=8 cells cost
    # about three D=4 cells, so pool workers sit idle at the end of each op.
    # Five-fold CV halves the per-cell DCI, whose lasso work varies by a fifth
    # between seeds; the lasso is evaluate-euclidean's to measure.
    name = "sweep-synthetic"
    command = "sweep"
    inputs = ("k5.tdds", "k5.tdds.json")
    count, epochs = 1000, 12
    betas, dims = (0.0, 1.0), (4, 8)

    def configs(self, seed, out_dir):
        return [{
            "out_dir": str(out_dir),
            "dataset": {"kind": "synthetic", "count": self.count, "seed": seed, "factors": 5,
                        "path": "k5.tdds"},
            "model": {"mode": "torus", "latent_dim": 4, "beta": 1.0, "learning_rate": 1e-3,
                      "batch_size": 144, "epochs": self.epochs, "seed": seed, "hidden": [128]},
            "metrics": {"split_seed": seed, "folds": 5},
            "sweep": {"betas": list(self.betas), "dims": list(self.dims), "csv": "sweep.csv"},
        }]

    def pool_workers(self):
        return nproc()

    def outputs(self, out_dir):
        return ["sweep.csv"]

    def check(self, out_dir):
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.betas) * len(self.dims):
            raise CheckError(f"sweep.csv has {len(rows)} cells")
        for row in rows:
            if row["status"] != "ok":
                raise CheckError(f"sweep cell beta={row['beta']} D={row['latent_dim']}: "
                                 f"{row['status']}")
        mse = [_finite(row["mse"], "cell mse") for row in rows]
        dc = [_dc(row["dc_score"], "cell dc_score") for row in rows]
        return {"val_mse": sum(mse) / len(mse), "dc_score": sum(dc) / len(dc)}

    def work(self):
        rows = self.count - round(self.count * 0.2)
        cells = len(self.betas) * len(self.dims)
        return {"train.samples": rows * self.epochs * cells, "sweep.cells": cells}


class EvaluateEuclidean(Workload):
    # A committed Euclidean L=10 checkpoint: its correlated codes make the lasso
    # run thousands of coordinate-descent sweeps, so lasso_fit is nearly all of
    # the command. The DCI cost of one split seed differs from another's by up
    # to a sixth, so ops cycle through SPLITS seeds drawn from the run's seed;
    # a run's median then depends little on which seed it was given.
    name = "evaluate-euclidean"
    command = "evaluate"
    inputs = ("k5.tdds", "k5.tdds.json")
    SPLITS = 16

    def configs(self, seed, out_dir):
        checkpoint = str(FROZEN_DIR / EVALUATE_CHECKPOINT)
        return [{
            "out_dir": str(out_dir),
            "dataset": dict(EVALUATE_DATASET),
            "model": dict(EVALUATE_MODEL, checkpoint=checkpoint),
            "metrics": {"split_seed": seed * self.SPLITS + i, "report": "dci_report.json",
                        "heatmap_dir": "heatmaps"},
        } for i in range(self.SPLITS)]

    def outputs(self, out_dir):
        heatmaps = sorted(p.name for p in (out_dir / "heatmaps").glob("*.csv"))
        return ["dci_report.json"] + [f"heatmaps/{name}" for name in heatmaps]

    def check(self, out_dir):
        import jsonschema

        report = json.loads((out_dir / "dci_report.json").read_text())
        try:
            jsonschema.validate(report, metrics.DCI_REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise CheckError(f"dci_report.json fails the schema: {exc.message}") from exc
        expected = 1 + report["n_codes"] * report["n_factors"]
        found = len(list((out_dir / "heatmaps").glob("*.csv")))
        if found != expected:
            raise CheckError(f"{found} heatmap CSVs, expected {expected}")
        return {"dc_score": _dc(report["dc_score"], "dc_score")}

    def frozen_hashes(self, out_dir):
        frozen = json.loads(FROZEN_INPUTS.read_text())
        return {
            str(out_dir / "k5.tdds"): frozen["dataset_sha256"],
            str(FROZEN_DIR / EVALUATE_CHECKPOINT): frozen["checkpoint_sha256"],
        }


class Generate2dShapes(Workload):
    # The rasterizer's 64-pixel reference canvas, where per-pixel work outweighs
    # per-image Python overhead; the only workload that writes a dataset.
    name = "generate-2dshapes"
    command = "generate"
    count = 600

    def configs(self, seed, out_dir):
        return [{
            "out_dir": str(out_dir),
            "dataset": {"kind": "2dshapes", "count": self.count, "seed": seed,
                        "width": 64, "height": 64, "path": "shapes64.tdds"},
        }]

    def outputs(self, out_dir):
        return ["shapes64.tdds", "shapes64.tdds.json"]

    def check(self, out_dir):
        with open(out_dir / "shapes64.tdds", "rb") as fh:
            head = fh.read(9)
        if head[:5] != b"TDDS1" or int.from_bytes(head[5:9], "little") != self.count:
            raise CheckError("shapes64.tdds header does not match the requested dataset")
        return {}

    def work(self):
        return {"generate.images": self.count}


WORKLOADS = {w.name: w for w in (Train2dShapes(), SweepSynthetic(), EvaluateEuclidean(),
                                 Generate2dShapes())}


# -- running ops -------------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    problems: list
    quality: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # this process's peak so far plus the op's children's peaks
    children: int = 0  # child processes the op started and reaped

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def config_path(workdir: Path, index: int) -> Path:
    return workdir / f"config_{index}.json"


def prepare(workload: Workload, seed: int, workdir: Path) -> None:
    """Write the op configs, make the workload's inputs and record their sha256s."""
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = workload.configs(seed, out_dir)
    for i, config in enumerate(configs):
        config_path(workdir, i).write_text(json.dumps(config, indent=1, sort_keys=True))
    if workload.inputs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["generate", "--config", str(config_path(workdir, 0))])
        if code != 0:
            raise RuntimeError(f"generating the {workload.name} inputs exited with {code}")
    hashes = {str(out_dir / name): sha256(out_dir / name) for name in workload.inputs}
    (workdir / "inputs.json").write_text(json.dumps(hashes, indent=1, sort_keys=True))


class ReapedChildren:
    """Records the peak resident set of each child process reaped while installed.

    multiprocessing reaps its pool workers with os.waitpid, which drops the
    child's resource usage; os.wait4 reaps the same way and returns it. This
    gives each op its own workers' peaks, where RUSAGE_CHILDREN keeps only the
    largest child of the whole run.
    """

    def __init__(self):
        self.peak_kib = []
        self._saved = None

    def _waitpid(self, pid, options):
        reaped, status, usage = os.wait4(pid, options)
        if reaped:
            self.peak_kib.append(usage.ru_maxrss)
        return reaped, status

    def __enter__(self):
        self._saved, os.waitpid = os.waitpid, self._waitpid
        return self

    def __exit__(self, *exc):
        os.waitpid = self._saved


class OpRunner:
    """Runs a workload's ops one after another and checks each one's outputs."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.variants = len(list(workdir.glob("config_*.json")))
        recorded = json.loads((workdir / "inputs.json").read_text())
        self.input_hashes = dict(recorded, **workload.frozen_hashes(self.out_dir))
        self.first_outputs = {}  # op key -> output sha256s of its first run
        self.results = []

    def run(self, key: int) -> OpResult:
        """Run the op of config `key` and check it."""
        problems = []
        for path, digest in self.input_hashes.items():
            actual = sha256(path) if os.path.exists(path) else "missing"
            if actual != digest:
                problems.append(f"input {Path(path).name} changed: sha256 {actual[:12]}")
        argv = [self.workload.command, "--config", str(config_path(self.workdir, key))]
        if self.workload.pool_workers():
            argv += ["--workers", str(self.workload.pool_workers())]
        # Each op starts with no garbage left by the previous one, as a command
        # in a fresh process would; otherwise the autodiff graphs' reference
        # cycles carry over and the peak resident set depends on op count.
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), ReapedChildren() as children:
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_rss_mb = (own_kib + sum(children.peak_kib)) / 1024.0
        quality = {}
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                quality = self.workload.check(self.out_dir)
                digests = {name: sha256(self.out_dir / name)
                           for name in self.workload.outputs(self.out_dir)}
            except (CheckError, OSError, KeyError, ValueError) as exc:
                problems.append(f"{type(exc).__name__}: {exc}")
            else:
                first = self.first_outputs.setdefault(key, digests)
                if digests != first:
                    problems.append("outputs differ from an earlier op with the same inputs")
        result = OpResult(seconds, problems, quality, peak_rss_mb, len(children.peak_kib))
        self.results.append(result)
        return result

    def output_hashes(self) -> dict:
        return {f"{key}:{name}": digest for key, digests in sorted(self.first_outputs.items())
                for name, digest in digests.items()}


def failure_summary(results) -> tuple:
    """(attempted, failed, failed / attempted) over op results."""
    attempted = len(results)
    failed = sum(1 for r in results if r.failed)
    return attempted, failed, (failed / attempted if attempted else 1.0)
