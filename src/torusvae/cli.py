"""Command-line front end: generate, train, evaluate, sweep, traverse.

Every command is a pure function of the JSON config and its input files, so
reruns reproduce identical bytes. Every output goes through
errors.write_files (staged in a temp directory, then renamed into place), so
an interruption never leaves a truncated file.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import datasets, engine, geometry, metrics
from .errors import ConfigError, FormatError, write_files

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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _section(config: dict, name: str) -> dict:
    if name not in config or not isinstance(config[name], dict):
        raise ConfigError(f"config needs a {name!r} object")
    return config[name]


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigError(f"{context}.{key} is required (seeds are never defaulted)")
    return section[key]


def _number(value, name: str, kind=float):
    """A numeric config value as kind (int or float).

    Bools, non-numbers, non-finite values and, for int, fractional values
    are ConfigErrors; an int is a valid float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if kind is int and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def _numbers(values, name: str, kind=float) -> list:
    """A config list of numbers, each read by _number."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return [_number(v, name, kind) for v in values]


def _out_dir(config: dict, args) -> Path:
    """The output directory; the writers create it, so a rejected config leaves none."""
    return Path(args.out if getattr(args, "out", None) else config.get("out_dir", "."))


def _resolve(out_dir: Path, name) -> Path:
    path = Path(name)
    return path if path.is_absolute() else out_dir / path


def _json_writer(obj):
    """A write_files writer of obj as indented, key-sorted JSON."""
    blob = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return lambda tmp: Path(tmp).write_bytes(blob)


# -- dataset plumbing --------------------------------------------------------------


def _build_dataset(block: dict):
    """The dataset block as what save_dataset writes: a 2dshapes ShapesSource
    (rendered block by block as it is written) or a synthetic Dataset."""
    kind = _require(block, "kind", "dataset")
    count = _number(_require(block, "count", "dataset"), "dataset.count", int)
    seed = _number(_require(block, "seed", "dataset"), "dataset.seed", int)
    if not 1 <= count <= datasets.MAX_RECORD_COUNT:
        raise ConfigError(f"dataset.count must be in 1..{datasets.MAX_RECORD_COUNT}, got {count}")
    if seed < 0:
        raise ConfigError(f"dataset.seed must be >= 0, got {seed}")
    try:
        if kind == "2dshapes":
            return datasets.shapes_source(count, seed, *_image_size(block))
        if kind == "synthetic":
            k = _number(_require(block, "factors", "dataset"), "dataset.factors", int)
            if not 1 <= k <= 8:
                raise ConfigError(f"dataset.factors must be in 1..8, got {k}")
            noise = _number(block.get("noise_sigma", 0.0), "dataset.noise_sigma")
            if noise < 0.0:
                raise ConfigError(f"dataset.noise_sigma must be >= 0, got {noise}")
            return datasets.make_synthetic_dataset(k, count, seed, noise)
    except MemoryError:
        raise ConfigError(f"dataset.count = {count} needs more memory than is free") from None
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _image_size(block: dict) -> tuple:
    """(width, height) of a 2dshapes dataset block: each at least 8, and a
    record (6 factors, width * height * 3 pixels) that load_dataset accepts."""
    size = []
    for key in ("width", "height"):
        value = _number(block.get(key, 16), f"dataset.{key}", int)
        if value < 8:
            raise ConfigError(f"dataset.{key} must be >= 8, got {value}")
        size.append(value)
    limit = datasets.MAX_RECORD_BYTES
    if datasets.record_bytes(datasets.SHAPES_SPEC.k, size[0] * size[1] * 3) > limit:
        raise ConfigError(f"dataset.width x dataset.height = {size[0]}x{size[1]} makes "
                          f"records larger than {limit} bytes")
    return tuple(size)


def _input_scale_for(kind: str) -> str:
    return engine.SCALE_UNIT if kind == "2dshapes" else engine.SCALE_SYMMETRIC


def _dataset_path(config: dict, out_dir: Path) -> Path:
    block = _section(config, "dataset")
    return _resolve(out_dir, block.get("path", "dataset.tdds"))


def _checkpoint_path(config: dict, out_dir: Path) -> Path:
    block = _section(config, "model")
    return _resolve(out_dir, block.get("checkpoint", "model.tdvae"))


def _input_file(path: Path, writer: str) -> Path:
    """path, if it is a regular file; writer names the command that makes it."""
    if not path.is_file():
        raise ConfigError(f"input file not found: {path} (run {writer} first)")
    return path


def _load_dataset(config: dict, out_dir: Path) -> datasets.Dataset:
    return datasets.load_dataset(_input_file(_dataset_path(config, out_dir), "generate"))


def _train_config(config: dict, beta=None, latent_dim=None) -> engine.TrainConfig:
    """The model block as a TrainConfig; a sweep cell passes its own beta and latent_dim."""
    block = _section(config, "model")
    dataset_kind = _require(_section(config, "dataset"), "kind", "dataset")

    def number(key, kind=float, default=None):  # default None: the key is required
        value = _require(block, key, "model") if default is None else block.get(key, default)
        return _number(value, f"model.{key}", kind)

    return engine.TrainConfig(
        mode=block.get("mode", "torus"),
        latent_dim=latent_dim if latent_dim is not None else number("latent_dim", int),
        beta=beta if beta is not None else number("beta", default=1.0),
        learning_rate=number("learning_rate", default=0.0001),
        batch_size=number("batch_size", int, 144),
        epochs=number("epochs", int, 50),
        seed=number("seed", int),
        hidden=tuple(_numbers(block.get("hidden", engine.TrainConfig.hidden),
                              "model.hidden", int)),
        val_fraction=number("val_fraction", default=engine.TrainConfig.val_fraction),
        input_scale=_input_scale_for(dataset_kind),
    )


class MetricsSettings(NamedTuple):
    """The checked metrics block: the run_dci arguments and where codes come from."""

    split_seed: int
    grid: tuple
    folds: int
    holdout_fraction: float
    codes_source: str  # "encoder" (model codes) or "factors" (identity bypass)


def _metrics_settings(config: dict) -> MetricsSettings:
    block = _section(config, "metrics")
    split_seed = _number(_require(block, "split_seed", "metrics"), "metrics.split_seed", int)
    grid = tuple(_numbers(block.get("alpha_grid", metrics.DEFAULT_ALPHA_GRID),
                          "metrics.alpha_grid"))
    if not grid or min(grid) < 0:
        raise ConfigError(f"metrics.alpha_grid must list alphas >= 0, got {list(grid)}")
    folds = _number(block.get("folds", 10), "metrics.folds", int)
    if folds < 2:
        raise ConfigError(f"metrics.folds must be >= 2, got {folds}")
    holdout = _number(block.get("holdout_fraction", 0.2), "metrics.holdout_fraction")
    if not 0.0 < holdout < 1.0:
        raise ConfigError(f"metrics.holdout_fraction must be in (0, 1), got {holdout}")
    source = block.get("codes_source", "encoder")
    if source not in ("encoder", "factors"):
        raise ConfigError(f"unknown metrics.codes_source {source!r}")
    return MetricsSettings(split_seed, grid, folds, holdout, source)


# -- commands ------------------------------------------------------------------------


def cmd_generate(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    block = _section(config, "dataset")
    dataset = _build_dataset(block)
    path = _dataset_path(config, out_dir)
    write_files(path.parent, {
        path.name: lambda tmp: datasets.save_dataset(dataset, tmp),
        path.name + ".json": _json_writer(json.loads(dataset.spec.to_json())),
    })
    print(f"wrote {dataset.n} records to {path}")
    return EXIT_OK


def cmd_train(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    dataset = _load_dataset(config, out_dir)
    train_config = _train_config(config)
    model, report = engine.train(train_config, dataset.samples)

    checkpoint_path = _checkpoint_path(config, out_dir)
    report_path = _resolve(out_dir, config["model"].get("report", "train_report.json"))
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
        codes = model.codes(engine.scale_in(dataset.samples[rows], model.input_scale))
    return metrics.run_dci(codes, factors, settings.split_seed, settings.grid,
                           settings.folds, settings.holdout_fraction)


def cmd_evaluate(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    train_config = _train_config(config)
    settings = _metrics_settings(config)
    dataset = _load_dataset(config, out_dir)
    model = engine.load_checkpoint(_input_file(_checkpoint_path(config, out_dir), "train"))
    if model.encoder.input_dim != dataset.samples.shape[1]:
        raise ConfigError(
            f"checkpoint expects {model.encoder.input_dim}-dim samples, "
            f"dataset provides {dataset.samples.shape[1]}"
        )
    if settings.codes_source == "encoder":
        if model.latent.mode != train_config.mode or model.latent.dim != train_config.latent_dim:
            raise ConfigError(
                f"checkpoint is {model.latent.mode}/{model.latent.dim} but config says "
                f"{train_config.mode}/{train_config.latent_dim}"
            )

    evaluation = _validation_dci(model, dataset, train_config, settings)
    report = evaluation.report
    metrics_block = config["metrics"]
    report_path = _resolve(out_dir, metrics_block.get("report", "dci_report.json"))
    write_files(report_path.parent, {report_path.name: _json_writer(report.to_dict())})

    bundle = metrics.heatmap_export(evaluation.codes, evaluation.factors, evaluation.importance)
    heatmap_dir = _resolve(out_dir, metrics_block.get("heatmap_dir", "heatmaps"))
    metrics.write_heatmap_bundle(bundle, heatmap_dir)
    print(
        f"dci: D={report.disentanglement:.4f} C={report.completeness:.4f} "
        f"I={report.informativeness:.4f} DC={report.dc_score:.4f}"
    )
    return EXIT_OK


def cmd_sweep(config: dict, args) -> int:
    """Train and score every (beta, latent_dim) cell.

    The whole config is read before the first cell starts, so a bad value is
    a validation error; a cell that fails at run time becomes an error row.
    """
    out_dir = _out_dir(config, args)
    sweep_block = _section(config, "sweep")
    betas = _numbers(sweep_block.get("betas", (0.0, 1.0, 3.0, 6.0, 9.0)), "sweep.betas")
    dims = _numbers(sweep_block.get("dims", (4, 5, 6, 8)), "sweep.dims", int)
    if not betas or not dims:
        raise ConfigError("sweep grids must be non-empty")
    settings = _metrics_settings(config)
    dataset_path = str(_input_file(_dataset_path(config, out_dir), "generate"))
    jobs = [(_train_config(config, beta=beta, latent_dim=dim), settings, dataset_path)
            for beta in betas for dim in dims]
    workers = max(1, getattr(args, "workers", 1) or 1)
    if workers > 1:
        # Longest cells first, so that no worker starts a large cell last while
        # the others sit idle; the rows then go back into grid order.
        order = sorted(range(len(jobs)), key=lambda i: -jobs[i][0].latent_dim)
        rows = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, row in zip(order, pool.map(_sweep_cell, [jobs[i] for i in order])):
                rows[i] = row
    else:
        rows = [_sweep_cell(job) for job in jobs]

    csv_path = _resolve(out_dir, sweep_block.get("csv", "sweep.csv"))

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


def _sweep_cell(job):
    train_config, settings, dataset_path = job
    beta, dim = train_config.beta, train_config.latent_dim
    fmt = metrics.FLOAT_FORMAT
    try:
        dataset = datasets.load_dataset(dataset_path)
        model, report = engine.train(train_config, dataset.samples)
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
    out_dir = _out_dir(config, args)
    traverse_block = _section(config, "traverse") if "traverse" in config else {}
    circle = _number(args.circle if getattr(args, "circle", None) is not None
                     else traverse_block.get("circle", 0), "traverse.circle", int)
    steps = _number(args.steps if getattr(args, "steps", None) is not None
                    else traverse_block.get("steps", 12), "traverse.steps", int)
    if steps < 1:
        raise ConfigError("steps must be >= 1")

    model = engine.load_checkpoint(_input_file(_checkpoint_path(config, out_dir), "train"))
    if model.latent.mode != engine.TORUS:
        raise ConfigError("traverse needs a circle-latent checkpoint")
    d = model.latent.dim
    if not 0 <= circle < d:
        raise ConfigError(f"circle index {circle} out of range for {d} circles")

    anchor = np.array(_numbers(traverse_block.get("anchor", [0.0] * d), "traverse.anchor"))
    if anchor.shape != (d,):
        raise ConfigError(f"anchor must list {d} angles")

    prefix = traverse_block.get("prefix", "traverse")
    width, height = _image_dims(config, model)

    def write_frame(step, tmp):
        angles = anchor.copy()
        angles[circle] = geometry.TWO_PI * step / steps
        sample = engine.scale_out(engine.generate(model, angles), model.input_scale)
        datasets.write_ppm(sample.reshape(height, width, 3), tmp)

    stem = out_dir / f"{prefix}_"  # a prefix may name a subdirectory of out_dir
    write_files(stem.parent, {f"{stem.name}{step:03d}.ppm": functools.partial(write_frame, step)
                              for step in range(steps)})
    print(f"wrote {steps} frames to {out_dir}/{prefix}_*.ppm")
    return EXIT_OK


def _image_dims(config: dict, model) -> tuple:
    block = _section(config, "dataset")
    if _require(block, "kind", "dataset") != "2dshapes":
        raise ConfigError("traverse writes PPM frames and needs an image dataset (2dshapes)")
    width, height = _image_size(block)
    if width * height * 3 != model.encoder.input_dim:
        raise ConfigError(
            f"dataset dims {width}x{height}x3 do not match the checkpoint input "
            f"({model.encoder.input_dim})"
        )
    return width, height


# -- entry point -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    # The global flags exist on the root parser (usable before the subcommand)
    # and again on every subcommand with SUPPRESS defaults, so a value given
    # after the subcommand wins and an omitted one never clobbers the root's.
    # The parents mechanism shares action objects, so the two positions need
    # distinct parser instances.
    shared = _Parser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS, help="experiment config JSON")
    shared.add_argument("--out", default=argparse.SUPPRESS, help="output directory override")
    shared.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="parallel sweep cells")

    parser = _Parser(prog="torusvae", description="circle-product VAE experiment pipeline")
    parser.add_argument("--config", default=None, help="experiment config JSON")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--workers", type=int, default=1, help="parallel sweep cells")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[shared], help="write the dataset file")
    sub.add_parser("train", parents=[shared], help="train and checkpoint a model")
    sub.add_parser("evaluate", parents=[shared], help="DCI report and heatmaps")
    sub.add_parser("sweep", parents=[shared], help="beta x latent-dim grid")
    traverse = sub.add_parser("traverse", parents=[shared], help="decode one circle sweep")
    traverse.add_argument("--circle", type=int, default=None, help="circle index to sweep")
    traverse.add_argument("--steps", type=int, default=None, help="number of frames")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "traverse": cmd_traverse,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if not args.config:
            raise ConfigError("--config is required")
        config = load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surface anything else as runtime failure
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
