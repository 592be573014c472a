"""Command-line front end: generate, train, evaluate, sweep, traverse.

Every command is a pure function of the JSON config and its input files, so
reruns reproduce identical bytes. Each command reads and checks all of its
config through errors.json_value before it loads or computes anything, so a
bad value exits 1 having done no work; each input file is loaded once per
command (sweep's cells share one loaded dataset). Every output goes through
errors.write_files (staged in a temp directory, then renamed into place), so
an interruption never leaves a truncated file; _Paths checks every path a
command reads or writes before that. One parser reads the command line: a
flag may come before or after the command, and the last of a repeated one wins.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import datasets, engine, geometry, metrics
from .errors import ConfigError, FormatError, json_value, write_files

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


# -- config ----------------------------------------------------------------------


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    # ValueError: bad UTF-8, bad JSON or an integer of too many digits;
    # RecursionError: arrays or objects nested too deep to parse.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _section(config: dict, name: str) -> dict:
    if name not in config or not isinstance(config[name], dict):
        raise ConfigError(f"config needs a {name!r} object")
    return config[name]


class _Paths:
    """The paths one command reads and writes, each checked as it is read: taken
    relative to --out, else out_dir, unless absolute, a file path names no
    directory and a directory path no file, the nearest existing ancestor of
    either is a directory, and claim keeps the paths apart. check_inputs, once
    every config value is read, requires each input to be an existing file."""

    def __init__(self, config: dict, args):
        self.config, self.seen, self.inputs = config, {}, []
        value = args.out or json_value(config, "out_dir", "", str, ".")
        self.out_dir = _checked_path("--out" if args.out else "out_dir", value, Path(value), True)

    def get(self, section, key, default, directory=False, made_by="", suffix="") -> Path:
        """section.key (or default) plus suffix, checked; made_by writes an input."""
        name = f"{section}.{key}"
        value = json_value(_section(self.config, section), key, section, str, default) + suffix
        path = _checked_path(name, value, self.out_dir / value, directory)
        self.inputs += [(path, made_by)] if made_by else []
        return self.claim(name, path, directory)

    def claim(self, name: str, path: Path, directory: bool) -> Path:
        """Record path, and its ancestors as directories, under the key name; refuse a
        path that another key names too, unless both are directories."""
        real = path.resolve()
        for part, is_dir in [(real, directory)] + [(parent, True) for parent in real.parents]:
            other, other_is_dir = self.seen.setdefault(part, (name, is_dir))
            if other != name and not (is_dir and other_is_dir):
                raise ConfigError(f"{name} names {path}, which clashes with the path of {other}")
        return path

    def check_inputs(self) -> None:
        for path, made_by in self.inputs:
            if not path.is_file():
                raise ConfigError(f"input file not found: {path} (run {made_by} first)")


def _checked_path(name: str, value: str, path: Path, directory: bool) -> Path:
    if directory and path.exists() and not path.is_dir():
        raise ConfigError(f"{name} must name a directory, not the file {path}")
    if not directory and (value.endswith("/") or Path(value).name in ("", ".", "..")
                          or path.is_dir()):
        raise ConfigError(f"{name} must name a file, not the directory {path}")
    ancestor = next((p for p in path.parents if p.exists()), path)
    if not ancestor.is_dir():
        raise ConfigError(f"{name} names {path}, under the file {ancestor}")
    return path


def _json_writer(obj):
    """A write_files writer of obj as indented, key-sorted JSON."""
    blob = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return lambda tmp: Path(tmp).write_bytes(blob)


# -- dataset plumbing --------------------------------------------------------------


def _build_dataset(block: dict):
    """The dataset block as what save_dataset writes: a 2dshapes ShapesSource
    (rendered block by block as it is written) or a synthetic Dataset."""
    kind = json_value(block, "kind", "dataset", str)
    count = json_value(block, "count", "dataset", int, lo=1, hi=datasets.MAX_RECORD_COUNT)
    seed = json_value(block, "seed", "dataset", int, lo=0)
    try:
        if kind == "2dshapes":
            return datasets.shapes_source(count, seed, *_image_size(block))
        if kind == "synthetic":
            return datasets.make_synthetic_dataset(
                json_value(block, "factors", "dataset", int, lo=1, hi=8), count, seed,
                json_value(block, "noise_sigma", "dataset", default=0.0, lo=0.0))
    except MemoryError:
        raise ConfigError(f"dataset.count = {count} needs more memory than is free") from None
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _image_size(block: dict) -> tuple:
    """(width, height) of a 2dshapes dataset block: each at least 8, and a
    record (6 factors, width * height * 3 pixels) that load_dataset accepts."""
    width, height = (json_value(block, key, "dataset", int, 16, lo=8)
                     for key in ("width", "height"))
    limit = datasets.MAX_RECORD_BYTES
    if datasets.record_bytes(datasets.SHAPES_SPEC.k, width * height * 3) > limit:
        raise ConfigError(f"dataset.width x dataset.height = {width}x{height} makes "
                          f"records larger than {limit} bytes")
    return width, height


def _train_config(config: dict, beta=None, latent_dim=None) -> engine.TrainConfig:
    """The model block as a TrainConfig; a sweep cell passes its own beta and latent_dim.

    json_value reads each value's type, and TrainConfig checks the ranges of
    its fields; each of its messages starts with the field's name, which is
    also the model key.
    """
    block = _section(config, "model")
    dataset_kind = json_value(_section(config, "dataset"), "kind", "dataset", str)
    fields = dict(
        mode=json_value(block, "mode", "model", str, engine.TORUS),
        latent_dim=(json_value(block, "latent_dim", "model", int)
                    if latent_dim is None else latent_dim),
        beta=json_value(block, "beta", "model", default=1.0) if beta is None else beta,
        learning_rate=json_value(block, "learning_rate", "model", default=0.0001),
        batch_size=json_value(block, "batch_size", "model", int, 144),
        epochs=json_value(block, "epochs", "model", int, 50),
        seed=json_value(block, "seed", "model", int, lo=0),
        hidden=tuple(json_value(block, "hidden", "model", [int], engine.TrainConfig.hidden,
                                lo=1)),
        val_fraction=json_value(block, "val_fraction", "model",
                                default=engine.TrainConfig.val_fraction),
        input_scale=engine.SCALE_UNIT if dataset_kind == "2dshapes" else engine.SCALE_SYMMETRIC,
    )
    try:
        return engine.TrainConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"model.{exc}") from None


class MetricsSettings(NamedTuple):
    """The checked metrics block: the run_dci arguments and where codes come from."""

    split_seed: int
    grid: tuple
    folds: int
    holdout_fraction: float
    codes_source: str  # "encoder" (model codes) or "factors" (identity bypass)


def _metrics_settings(config: dict) -> MetricsSettings:
    block = _section(config, "metrics")
    split_seed = json_value(block, "split_seed", "metrics", int, lo=0)
    grid = tuple(json_value(block, "alpha_grid", "metrics", [float],
                            metrics.DEFAULT_ALPHA_GRID, lo=0.0))
    if not grid:
        raise ConfigError("metrics.alpha_grid must list at least one alpha")
    folds = json_value(block, "folds", "metrics", int, 10, lo=2)
    holdout = json_value(block, "holdout_fraction", "metrics", default=0.2)
    if not 0.0 < holdout < 1.0:
        raise ConfigError(f"metrics.holdout_fraction must be in (0, 1), got {holdout}")
    source = json_value(block, "codes_source", "metrics", str, "encoder")
    if source not in ("encoder", "factors"):
        raise ConfigError(f"unknown metrics.codes_source {source!r}")
    return MetricsSettings(split_seed, grid, folds, holdout, source)


# -- commands ------------------------------------------------------------------------


def cmd_generate(config: dict, args) -> int:
    paths = _Paths(config, args)
    path = paths.get("dataset", "path", "dataset.tdds")
    sidecar = paths.get("dataset", "path", "dataset.tdds", suffix=".json")
    dataset = _build_dataset(_section(config, "dataset"))
    write_files(path.parent, {
        path.name: lambda tmp: datasets.save_dataset(dataset, tmp),
        sidecar.name: _json_writer(json.loads(dataset.spec.to_json())),
    })
    print(f"wrote {dataset.n} records to {path}")
    return EXIT_OK


def _helper_allowed(workers: int) -> bool:
    """Whether each of `workers` trains running at once may run engine.train's
    helper thread: only when BLAS runs each call on one thread and this
    process may use at least two cores per train. BLAS threads that wait for
    work spin on their cores, so beside them the helper only slows a train
    down."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return _blas_threads() == 1 and cores >= 2 * workers


def _blas_threads() -> int | None:
    """The threads OpenBLAS runs a call on, as it reads them from the
    environment when numpy loads: the first positive count of these
    variables, or None when none sets one (then it runs one per core)."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def cmd_train(config: dict, args) -> int:
    paths = _Paths(config, args)
    train_config = _train_config(config)
    dataset_path = paths.get("dataset", "path", "dataset.tdds", made_by="generate")
    checkpoint_path = paths.get("model", "checkpoint", "model.tdvae")
    report_path = paths.get("model", "report", "train_report.json")
    paths.check_inputs()

    model, report = engine.train(train_config, datasets.load_dataset(dataset_path).x,
                                 _helper_allowed(1))
    write_files(checkpoint_path.parent,
                {checkpoint_path.name: lambda tmp: engine.save_checkpoint(model, tmp)})
    write_files(report_path.parent,
                {report_path.name: _json_writer(dataclasses.asdict(report))})
    print(
        f"trained {train_config.mode} latent_dim={train_config.latent_dim} "
        f"beta={train_config.beta}: best epoch {report.best_epoch}, "
        f"val MSE {report.val_mse[report.best_epoch]:.6g}"
    )
    return EXIT_OK


def _validation_dci(model, dataset, train_config: engine.TrainConfig,
                    settings: MetricsSettings) -> metrics.DciEvaluation:
    """DCI of the validation rows that train held out, coded by the model or the factors."""
    _, rows = engine.split_rows(train_config.seed, dataset.n, train_config.val_fraction)
    factors = dataset.factors[rows]
    if settings.codes_source == "factors":
        codes = factors
    else:
        codes = model.codes(engine.scale_in(dataset.x[rows], model.input_scale))
    return metrics.run_dci(codes, factors, settings.split_seed, settings.grid,
                           settings.folds, settings.holdout_fraction)


def cmd_evaluate(config: dict, args) -> int:
    paths = _Paths(config, args)
    train_config = _train_config(config)
    settings = _metrics_settings(config)
    dataset_path = paths.get("dataset", "path", "dataset.tdds", made_by="generate")
    checkpoint_path = paths.get("model", "checkpoint", "model.tdvae", made_by="train")
    report_path = paths.get("metrics", "report", "dci_report.json")
    heatmap_dir = paths.get("metrics", "heatmap_dir", "heatmaps", directory=True)
    paths.check_inputs()

    dataset = datasets.load_dataset(dataset_path)
    model = engine.load_checkpoint(checkpoint_path)
    if model.input_dim != dataset.x.shape[1]:
        raise ConfigError(
            f"checkpoint expects {model.input_dim}-dim samples, "
            f"dataset provides {dataset.x.shape[1]}"
        )
    if (settings.codes_source == "encoder"
            and (model.latent, model.hidden) != (train_config.latent(), train_config.hidden)):
        raise ConfigError(f"checkpoint is {model.latent.mode}/{model.latent.dim} with hidden "
                          f"widths {list(model.hidden)} but config says {train_config.mode}/"
                          f"{train_config.latent_dim}, model.hidden {list(train_config.hidden)}")

    evaluation = _validation_dci(model, dataset, train_config, settings)
    report = evaluation.report
    write_files(report_path.parent, {report_path.name: _json_writer(dataclasses.asdict(report))})
    bundle = metrics.heatmap_export(evaluation.codes, evaluation.factors, evaluation.importance)
    metrics.write_heatmap_bundle(bundle, heatmap_dir)
    print(
        f"dci: D={report.disentanglement:.4f} C={report.completeness:.4f} "
        f"I={report.informativeness:.4f} DC={report.dc_score:.4f}"
    )
    return EXIT_OK


def cmd_sweep(config: dict, args) -> int:
    """Train and score every (beta, latent_dim) cell.

    Every cell's settings are read, and then the dataset is loaded once,
    before the first cell starts, so a bad value or a bad dataset file is a
    validation error; a cell that fails at run time becomes an error row.
    """
    paths = _Paths(config, args)
    sweep_block = _section(config, "sweep")
    betas = json_value(sweep_block, "betas", "sweep", [float], (0.0, 1.0, 3.0, 6.0, 9.0), lo=0.0)
    # The model's latent bound; an unknown mode is refused with the cells.
    mode = json_value(_section(config, "model"), "mode", "model", str, engine.TORUS)
    dims = json_value(sweep_block, "dims", "sweep", [int], (4, 5, 6, 8), lo=1,
                      hi=engine.MAX_LATENT_DIM.get(mode))
    if not betas or not dims:
        raise ConfigError("sweep grids must be non-empty")
    csv_path = paths.get("sweep", "csv", "sweep.csv")
    settings = _metrics_settings(config)
    cells = [_train_config(config, beta=beta, latent_dim=dim) for beta in betas for dim in dims]
    dataset_path = paths.get("dataset", "path", "dataset.tdds", made_by="generate")
    paths.check_inputs()
    dataset = datasets.load_dataset(dataset_path)
    jobs = [(cell, settings) for cell in cells]
    # A pool forks all of its workers at once, so it never gets more than there are cells.
    workers = min(args.workers, len(jobs))
    process = (dataset, _helper_allowed(workers))
    if workers > 1:
        # Longest cells first, so that no worker starts a large cell last while
        # the others sit idle; the rows then go back into grid order. Each
        # worker gets the dataset once, as it starts, not once per cell.
        order = sorted(range(len(jobs)), key=lambda i: -jobs[i][0].latent_dim)
        rows = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_sweep_process,
                                 initargs=process) as pool:
            for i, row in zip(order, pool.map(_sweep_cell, [jobs[i] for i in order])):
                rows[i] = row
    else:
        _set_sweep_process(*process)
        try:
            rows = [_sweep_cell(job) for job in jobs]
        finally:
            _set_sweep_process(None, False)

    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "beta", "latent_dim", "dc_score", "disentanglement",
                "completeness", "informativeness", "mse", "status", "flags",
            ])
            writer.writerows(rows)

    write_files(csv_path.parent, {csv_path.name: write})
    failures = sum(1 for row in rows if row[-2] != "ok")  # status, then flags
    print(f"sweep wrote {len(rows)} rows to {csv_path} ({failures} failed cells)")
    return EXIT_OK


# The dataset of the sweep that this process runs cells of, and whether its
# trains may run engine.train's helper thread.
_sweep_process = (None, False)


def _set_sweep_process(dataset, helper: bool) -> None:
    global _sweep_process
    _sweep_process = (dataset, helper)


def _sweep_cell(job):
    """One sweep row: train and score a (TrainConfig, MetricsSettings) job on
    the dataset, with the helper answer, that _set_sweep_process gave this process."""
    train_config, settings = job
    dataset, helper = _sweep_process
    beta, dim = train_config.beta, train_config.latent_dim
    fmt = metrics.FLOAT_FORMAT
    try:
        model, report = engine.train(train_config, dataset.x, helper)
        dci = _validation_dci(model, dataset, train_config, settings).report
        mse = report.val_mse[report.best_epoch]
        return [
            fmt % beta, str(dim), fmt % dci.dc_score, fmt % dci.disentanglement,
            fmt % dci.completeness, fmt % dci.informativeness, fmt % mse, "ok",
            ";".join(dci.flags),
        ]
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return [fmt % beta, str(dim), "", "", "", "", "", f"error: {exc}", ""]


def cmd_traverse(config: dict, args) -> int:
    config = {"traverse": {}, **config}  # every traverse key has a default
    paths = _Paths(config, args)
    block = _section(config, "traverse")
    circle = json_value(block, "circle", "traverse", int, 0, lo=0)
    # Frame names sort in step order up to {step:03d} = 999, and write_files
    # holds one writer per frame, so the count is bounded above.
    steps = json_value(block, "steps", "traverse", int, 12, lo=1, hi=1000)
    anchor = json_value(block, "anchor", "traverse", [float], None)
    stem = paths.get("traverse", "prefix", "traverse", suffix="_")
    frames = [paths.claim("traverse.prefix", stem.with_name(f"{stem.name}{step:03d}.ppm"), False)
              for step in range(steps)]
    if json_value(_section(config, "dataset"), "kind", "dataset", str) != "2dshapes":
        raise ConfigError("traverse writes PPM frames and needs an image dataset (2dshapes)")
    width, height = _image_size(config["dataset"])
    checkpoint_path = paths.get("model", "checkpoint", "model.tdvae", made_by="train")
    paths.check_inputs()

    model = engine.load_checkpoint(checkpoint_path)
    if model.latent.mode != engine.TORUS:
        raise ConfigError("traverse needs a circle-latent checkpoint")
    d = model.latent.dim
    if circle >= d:
        raise ConfigError(f"traverse.circle index {circle} out of range for {d} circles")
    anchor = np.zeros(d) if anchor is None else np.array(anchor)
    if anchor.shape != (d,):
        raise ConfigError(f"anchor must list {d} angles")
    if width * height * 3 != model.input_dim:
        raise ConfigError(
            f"dataset dims {width}x{height}x3 do not match the checkpoint input "
            f"({model.input_dim})"
        )

    def write_frame(step, tmp):
        angles = anchor.copy()
        angles[circle] = geometry.TWO_PI * step / steps
        sample = model.decode(geometry.embed_angles(angles[None, :]))[0]
        sample = engine.scale_out(sample, model.input_scale)
        datasets.write_ppm(sample.reshape(height, width, 3), tmp)

    write_files(stem.parent, {frame.name: functools.partial(write_frame, step)
                              for step, frame in enumerate(frames)})
    print(f"wrote {steps} frames to {stem}*.ppm")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------------


_COMMANDS = {  # name: (function, its --help summary)
    "generate": (cmd_generate, "write the dataset file"),
    "train": (cmd_train, "train and checkpoint a model"),
    "evaluate": (cmd_evaluate, "DCI report and heatmaps"),
    "sweep": (cmd_sweep, "beta x latent-dim grid"),
    "traverse": (cmd_traverse, "decode one circle sweep"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="torusvae", description="circle-product VAE experiment pipeline",
                     formatter_class=argparse.RawDescriptionHelpFormatter,
                     epilog="commands:\n" + "\n".join(
                         f"  {name:<10}{summary}" for name, (_, summary) in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--workers", type=int, default=1, help="parallel sweep cells")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        config = load_config(args.config)
        return _COMMANDS[args.command][0](config, args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surface anything else as runtime failure
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
