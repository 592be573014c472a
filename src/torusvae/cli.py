"""Command-line front end: generate, train, evaluate, sweep, traverse.

Every command is a pure function of the JSON config and its input files, so
reruns reproduce identical bytes. Each command reads and checks all of its
config through its rows of CONFIG_KEYS before it loads or computes anything,
so a bad value or key exits 1 having done no work; each input file is loaded
once per command (sweep's cells share one loaded dataset). Every output goes
through errors.write_files (staged in a temp directory, then renamed into
place), so an interruption never leaves a truncated file; _Paths checks every
path a command reads or writes before that. One parser reads the command line:
a flag may come before or after the command, and the last of a repeated one
wins.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import datasets, engine, geometry, metrics
from .errors import REQUIRED, ConfigError, FormatError, json_value, write_files

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


# -- config ----------------------------------------------------------------------


class _Key(NamedTuple):
    kind: object  # of json_value
    default: object = REQUIRED
    lo: object = None  # the inclusive bounds
    hi: object = None
    path: str = ""  # FILE or DIRECTORY, relative to the output directory; "" if no path


FILE, DIRECTORY = "file", "directory"
# How each key that a command reads is read, by its name: a top-level key, or
# section.key. One config file serves every command, so load_config refuses any
# other key.
CONFIG_KEYS = {
    "out_dir": _Key(str, ".", path=DIRECTORY),
    "dataset.kind": _Key(str),  # "2dshapes" or "synthetic"
    "dataset.count": _Key(int, lo=1, hi=datasets.MAX_RECORD_COUNT),
    "dataset.seed": _Key(int, lo=0),
    "dataset.factors": _Key(int, lo=1, hi=8),
    "dataset.noise_sigma": _Key(float, 0.0, lo=0.0),
    "dataset.width": _Key(int, 16, lo=8),
    "dataset.height": _Key(int, 16, lo=8),
    "dataset.path": _Key(str, "dataset.tdds", path=FILE),
    # The model keys that name no path are the fields of engine.TrainConfig,
    # which checks the ranges that no bound here expresses.
    "model.mode": _Key(str, engine.TORUS),
    "model.latent_dim": _Key(int),
    "model.beta": _Key(float, 1.0, lo=0),  # not 0.0: the message says ">= 0"
    "model.learning_rate": _Key(float, 0.0001),
    "model.batch_size": _Key(int, 144, lo=1),
    "model.epochs": _Key(int, 50, lo=1),
    "model.seed": _Key(int, lo=0),
    "model.hidden": _Key([int], engine.TrainConfig.hidden, lo=1),
    "model.val_fraction": _Key(float, engine.TrainConfig.val_fraction),
    "model.checkpoint": _Key(str, "model.tdvae", path=FILE),
    "model.report": _Key(str, "train_report.json", path=FILE),
    "metrics.split_seed": _Key(int, lo=0),
    "metrics.alpha_grid": _Key([float], metrics.DEFAULT_ALPHA_GRID, lo=0.0),
    "metrics.folds": _Key(int, 10, lo=2),
    "metrics.holdout_fraction": _Key(float, 0.2),
    "metrics.codes_source": _Key(str, "encoder"),
    "metrics.report": _Key(str, "dci_report.json", path=FILE),
    "metrics.heatmap_dir": _Key(str, "heatmaps", path=DIRECTORY),
    "sweep.betas": _Key([float], (0.0, 1.0, 3.0, 6.0, 9.0), lo=0.0),
    "sweep.dims": _Key([int], (4, 5, 6, 8), lo=1),  # hi: the model's latent bound
    "sweep.csv": _Key(str, "sweep.csv", path=FILE),
    "traverse.circle": _Key(int, 0, lo=0),
    # Frame names sort in step order up to {step:03d} = 999, and write_files
    # holds one writer per frame, so the count is bounded above.
    "traverse.steps": _Key(int, 12, lo=1, hi=1000),
    "traverse.anchor": _Key([float], None),
    "traverse.prefix": _Key(str, "traverse", path=FILE),
}


def load_config(path) -> dict:
    """The config object at path, refused if an object in it holds a key twice
    (_object), or if any key in it is one that no command reads: a top-level
    key that is neither out_dir nor a section, or a key in a section that is
    an object (any other section is left to _value). The message names the
    first such key, and an unknown key the nearest known one of its level."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_object)
    except ConfigError:
        raise
    # ValueError: bad UTF-8, bad JSON or an integer of too many digits;
    # RecursionError: arrays or objects nested too deep to parse.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {name.partition(".")[0] for name in CONFIG_KEYS if "." in name}
    top = [name for name in CONFIG_KEYS if "." not in name] + sorted(sections)
    unknown = [(key, top) for key in config if key not in top] + [
        (f"{section}.{key}", list(CONFIG_KEYS)) for section, block in config.items()
        if section in sections and isinstance(block, dict)
        for key in block if f"{section}.{key}" not in CONFIG_KEYS]
    if unknown:
        import difflib  # only a refused config pays for its import
        name, known = unknown[0]
        near = difflib.get_close_matches(name, known, n=1)
        raise ConfigError(f"{name} is not a config key"
                          + (f" (did you mean {near[0]}?)" if near else ""))
    return config


def _object(pairs) -> dict:
    """A JSON object of its (key, value) pairs, refused if it holds a key twice,
    of which json would silently keep the last."""
    block = {}
    for key, value in pairs:
        if key in block:
            raise ConfigError(f"config key {key!r} appears twice in one object")
        block[key] = value
    return block


def _value(config: dict, name: str, **bounds):
    """The value of key name in config, read by its CONFIG_KEYS row with bounds
    in place of the row's."""
    section, _, key = name.rpartition(".")
    block = config.get(section) if section else config
    if not isinstance(block, dict):
        raise ConfigError(f"config needs a {section!r} object")
    row = CONFIG_KEYS[name]._replace(**bounds)
    return json_value(block, key, section, row.kind, row.default, row.lo, row.hi)


class _Paths:
    """The paths one command reads and writes, each checked as it is read: taken
    relative to --out, else out_dir, unless absolute, a file path names no
    directory and a directory path no file, the nearest existing ancestor of
    either is a directory, and claim keeps the paths apart. check_inputs, once
    every config value is read, requires each input to be an existing file."""

    def __init__(self, config: dict, args):
        self.config, self.seen, self.inputs = config, {}, []
        value = _value(config, "out_dir") if args.out is None else args.out
        self.out_dir = _checked_path("out_dir" if args.out is None else "--out", value,
                                     Path(value), True)

    def get(self, name, made_by="", suffix="") -> Path:
        """The path of key name plus suffix, checked; made_by writes an input."""
        directory = CONFIG_KEYS[name].path == DIRECTORY
        value = _value(self.config, name) + suffix
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


def _build_dataset(config: dict):
    """The dataset block as what save_dataset writes: a 2dshapes ShapesSource
    (rendered block by block as it is written) or a synthetic Dataset."""
    kind, count, seed = (_value(config, f"dataset.{key}") for key in ("kind", "count", "seed"))
    try:
        if kind == "2dshapes":
            return datasets.shapes_source(count, seed, *_image_size(config))
        if kind == "synthetic":
            return datasets.make_synthetic_dataset(_value(config, "dataset.factors"), count,
                                                   seed, _value(config, "dataset.noise_sigma"))
    except MemoryError:
        raise ConfigError(f"dataset.count = {count} needs more memory than is free") from None
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _image_size(config: dict) -> tuple:
    """(width, height) of a 2dshapes dataset block: each at least 8, and a
    record (6 factors, width * height * 3 pixels) that load_dataset accepts."""
    width, height = (_value(config, f"dataset.{key}") for key in ("width", "height"))
    limit = datasets.MAX_RECORD_BYTES
    if datasets.record_bytes(datasets.SHAPES_SPEC.k, width * height * 3) > limit:
        raise ConfigError(f"dataset.width x dataset.height = {width}x{height} makes "
                          f"records larger than {limit} bytes")
    return width, height


def _train_config(config: dict, **cell) -> engine.TrainConfig:
    """The model block as a TrainConfig; a sweep cell passes its own beta and latent_dim."""
    keys = [name.partition(".")[2] for name, row in CONFIG_KEYS.items()
            if name.startswith("model.") and not row.path]
    fields = {key: cell[key] if key in cell else _value(config, f"model.{key}") for key in keys}
    fields["hidden"] = tuple(fields["hidden"])
    image = _value(config, "dataset.kind") == "2dshapes"
    try:
        return engine.TrainConfig(
            **fields, input_scale=engine.SCALE_UNIT if image else engine.SCALE_SYMMETRIC)
    except ConfigError as exc:
        raise ConfigError(f"model.{exc}") from None


class MetricsSettings(NamedTuple):
    """The checked metrics block, one field per key: run_dci's arguments, then
    where codes come from."""

    split_seed: int
    alpha_grid: tuple
    folds: int
    holdout_fraction: float
    codes_source: str  # "encoder" (model codes) or "factors" (identity bypass)


def _metrics_settings(config: dict) -> MetricsSettings:
    settings = MetricsSettings(*(_value(config, f"metrics.{key}")
                                 for key in MetricsSettings._fields))
    if not settings.alpha_grid:
        raise ConfigError("metrics.alpha_grid must list at least one alpha")
    if not 0.0 < settings.holdout_fraction < 1.0:
        raise ConfigError(
            f"metrics.holdout_fraction must be in (0, 1), got {settings.holdout_fraction}")
    if settings.codes_source not in ("encoder", "factors"):
        raise ConfigError(f"unknown metrics.codes_source {settings.codes_source!r}")
    return settings._replace(alpha_grid=tuple(settings.alpha_grid))


# -- commands ------------------------------------------------------------------------


def cmd_generate(config: dict, args) -> int:
    paths = _Paths(config, args)
    path = paths.get("dataset.path")
    sidecar = paths.get("dataset.path", suffix=".json")
    dataset = _build_dataset(config)
    write_files(path.parent, {
        path.name: lambda tmp: datasets.save_dataset(dataset, tmp),
        sidecar.name: _json_writer(json.loads(dataset.spec.to_json())),
    })
    print(f"wrote {dataset.n} records to {path}")
    return EXIT_OK


def cmd_train(config: dict, args) -> int:
    paths = _Paths(config, args)
    train_config = _train_config(config)
    dataset_path = paths.get("dataset.path", made_by="generate")
    checkpoint_path = paths.get("model.checkpoint")
    report_path = paths.get("model.report")
    paths.check_inputs()

    model, report = engine.train(train_config, datasets.load_dataset(dataset_path).x)
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


def _checkpoint(path: Path, mode: str, latent_dim: int, hidden, input_dim: int):
    """The model of the checkpoint at path, refused unless it is the one that
    the config's model block describes for samples of input_dim values."""
    model = engine.load_checkpoint(path)
    found = (model.latent.mode, model.latent.dim, list(model.hidden), model.input_dim)
    wanted = (mode, latent_dim, list(hidden), input_dim)
    if found != wanted:
        raise ConfigError(f"checkpoint {path} holds {found}, but the config's (model.mode, "
                          f"model.latent_dim, model.hidden, input width) is {wanted}")
    return model


def _validation_dci(model, dataset, train_config: engine.TrainConfig,
                    settings: MetricsSettings) -> metrics.DciEvaluation:
    """DCI of the validation rows that train held out, coded by the model or the factors."""
    _, rows = engine.split_rows(train_config.seed, dataset.n, train_config.val_fraction)
    factors = dataset.factors[rows]
    if settings.codes_source == "factors":
        codes = factors
    else:
        codes = model.codes(engine.scale_in(dataset.x[rows], model.input_scale))
    return metrics.run_dci(codes, factors, *settings[:4])  # the fields before codes_source


def cmd_evaluate(config: dict, args) -> int:
    paths = _Paths(config, args)
    train_config = _train_config(config)
    settings = _metrics_settings(config)
    dataset_path = paths.get("dataset.path", made_by="generate")
    encoder = settings.codes_source == "encoder"  # the identity bypass reads no model
    checkpoint_path = paths.get("model.checkpoint", made_by="train") if encoder else None
    report_path = paths.get("metrics.report")
    heatmap_dir = paths.get("metrics.heatmap_dir")
    paths.check_inputs()

    dataset = datasets.load_dataset(dataset_path)
    model = _checkpoint(checkpoint_path, train_config.mode, train_config.latent_dim,
                        train_config.hidden, dataset.x.shape[1]) if encoder else None
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
    betas = _value(config, "sweep.betas")
    # The model's latent bound; an unknown mode is refused with the cells.
    dims = _value(config, "sweep.dims",
                  hi=engine.MAX_LATENT_DIM.get(_value(config, "model.mode")))
    if not betas or not dims:
        raise ConfigError("sweep grids must be non-empty")
    csv_path = paths.get("sweep.csv")
    settings = _metrics_settings(config)
    jobs = [(_train_config(config, beta=beta, latent_dim=dim), settings)
            for beta in betas for dim in dims]
    dataset_path = paths.get("dataset.path", made_by="generate")
    paths.check_inputs()
    dataset = datasets.load_dataset(dataset_path)
    # A pool forks all of its workers at once, so it never gets more than there are cells.
    workers = min(args.workers, len(jobs))
    if workers > 1:
        # Longest cells first, so that no worker starts a large cell last while
        # the others sit idle; the rows then go back into grid order. Each
        # worker gets the dataset once, as it starts, not once per cell.
        order = sorted(range(len(jobs)), key=lambda i: -jobs[i][0].latent_dim)
        rows = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_sweep_process,
                                 initargs=(dataset,)) as pool:
            for i, row in zip(order, pool.map(_sweep_cell, [jobs[i] for i in order])):
                rows[i] = row
    else:
        _set_sweep_process(dataset)
        try:
            rows = [_sweep_cell(job) for job in jobs]
        finally:
            _set_sweep_process(None)

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


_sweep_process = None  # the dataset of the sweep that this process runs cells of


def _set_sweep_process(dataset) -> None:
    global _sweep_process
    _sweep_process = dataset


def _sweep_cell(job):
    """One sweep row: train and score a (TrainConfig, MetricsSettings) job on
    the dataset _set_sweep_process gave this process."""
    train_config, settings = job
    dataset = _sweep_process
    beta, dim = train_config.beta, train_config.latent_dim
    fmt = metrics.FLOAT_FORMAT
    try:
        model, report = engine.train(train_config, dataset.x)
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
    circle, steps, anchor = (_value(config, f"traverse.{key}")
                             for key in ("circle", "steps", "anchor"))
    stem = paths.get("traverse.prefix", suffix="_")
    frames = [paths.claim("traverse.prefix", stem.with_name(f"{stem.name}{step:03d}.ppm"), False)
              for step in range(steps)]
    if _value(config, "dataset.kind") != "2dshapes":
        raise ConfigError("traverse writes PPM frames and needs an image dataset (2dshapes)")
    width, height = _image_size(config)
    mode = _value(config, "model.mode")
    if mode != engine.TORUS:
        raise ConfigError(f"traverse needs a circle-latent checkpoint, not model.mode {mode!r}")
    d = _value(config, "model.latent_dim", lo=1, hi=engine.MAX_LATENT_DIM[mode])
    if circle >= d:
        raise ConfigError(f"traverse.circle index {circle} out of range for {d} circles")
    anchor = np.zeros(d) if anchor is None else np.array(anchor)
    if anchor.shape != (d,):
        raise ConfigError(f"anchor must list {d} angles")
    hidden = _value(config, "model.hidden")
    checkpoint_path = paths.get("model.checkpoint", made_by="train")
    paths.check_inputs()

    model = _checkpoint(checkpoint_path, mode, d, hidden, width * height * 3)

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
        if args.out == "":
            raise ConfigError("--out must be a non-empty path")
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
