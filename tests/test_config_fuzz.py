"""Fuzzed CLI configs: a bad value exits 1 naming its key, or the command starts its work.

Every case starts from a small valid config of one command and changes one
value in it: a value of another JSON type, a dropped key, a key renamed to one
that no command reads, a key given twice in its object (written as JSON text,
which a dict cannot hold), a value nested in an object, a huge integer of either
sign, or a path of ".", "..", "/", with a trailing slash, under an existing
file (dataset.tdds/x) or equal to another file path of the command. The entry
points of real work (building, loading and writing datasets, training, loading
checkpoints, DCI and the staged writer) raise a sentinel, so a case must
either exit 1 with an error that names the changed key or reach the sentinel,
having read and accepted its whole config. A renamed or repeated key must be
refused, naming it. A file-valued path of one of the first four forms must be
refused, and so must a file or directory path of one of the last two, and a
latent dim over engine.MAX_LATENT_DIM (model.latent_dim of train, evaluate and
traverse, each of sweep.dims), whose layer widths no checkpoint header holds. Each case
runs under tracemalloc, and a peak over PEAK_BYTES fails it: no config value
may size an allocation before the work starts.
"""
import contextlib
import io
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torusvae import cli, datasets, engine, metrics

FUZZ = settings(derandomize=True, deadline=None, max_examples=400)

# The parser's own objects (argparse, the JSON text and its dict, a
# traceback) stay well under this; an array sized by a fuzzed integer would not.
PEAK_BYTES = 1 << 20

DATASETS = {
    "synthetic": {"kind": "synthetic", "count": 100, "seed": 1, "factors": 2,
                  "noise_sigma": 0.1, "path": "dataset.tdds"},
    "2dshapes": {"kind": "2dshapes", "count": 100, "seed": 1, "width": 16, "height": 16,
                 "path": "dataset.tdds"},
}
BLOCKS = {
    "model": {"mode": "torus", "latent_dim": 2, "beta": 1.0, "learning_rate": 1e-3,
              "batch_size": 32, "epochs": 2, "seed": 7, "hidden": [16, 8],
              "val_fraction": 0.2, "checkpoint": "model.tdvae", "report": "train_report.json"},
    "metrics": {"split_seed": 5, "alpha_grid": [0.01, 0.1], "folds": 3,
                "holdout_fraction": 0.2, "codes_source": "encoder",
                "report": "dci_report.json", "heatmap_dir": "heatmaps"},
    "sweep": {"betas": [0.0, 1.0], "dims": [2, 3], "csv": "sweep.csv"},
    "traverse": {"circle": 0, "steps": 4, "anchor": [0.0, 0.0], "prefix": "traverse"},
}
COMMANDS = {"generate": (), "train": ("model",), "evaluate": ("model", "metrics"),
            "sweep": ("model", "metrics", "sweep"), "traverse": ("model", "traverse")}
# Every path is relative to out_dir ".", where each file of the seed configs
# exists, as after a first run: the inputs at the default names, so dropping
# either key reads the same file, and the outputs, so an out_dir equal to any
# file path names a file.
FILES = ("dataset.tdds", "model.tdvae", "train_report.json", "dci_report.json", "sweep.csv")
UNDER_A_FILE = "dataset.tdds/x"
# The file-valued paths each command reads or writes.
FILE_KEYS = {"generate": {"dataset.path"},
             "train": {"dataset.path", "model.checkpoint", "model.report"},
             "evaluate": {"dataset.path", "model.checkpoint", "metrics.report"},
             "sweep": {"dataset.path", "sweep.csv"},
             "traverse": {"model.checkpoint"}}
# The keys of a latent dim each command reads; every base model is a torus.
LATENT_KEYS = {"train": {"model.latent_dim"}, "evaluate": {"model.latent_dim"},
               "sweep": {"sweep.dims"}, "traverse": {"model.latent_dim"}}
LATENT_BOUND = engine.MAX_LATENT_DIM[BLOCKS["model"]["mode"]]
# The directory-valued paths each command reads.
DIR_KEYS = {command: {"out_dir"} for command in FILE_KEYS} | {
    "evaluate": {"out_dir", "metrics.heatmap_dir"}}
PATH_KEYS = set().union(*FILE_KEYS.values()) | {"out_dir", "metrics.heatmap_dir",
                                                 "traverse.prefix"}
# Every config key, by its dotted name: out_dir and the keys of the seed blocks.
KEYS = {"out_dir"} | {f"{section}.{key}" for section, block in [
    *BLOCKS.items(), *(("dataset", block) for block in DATASETS.values())] for key in block}
WORK = [(datasets, "shapes_source"), (datasets, "make_synthetic_dataset"),
        (datasets, "load_dataset"), (engine, "train"), (engine, "load_checkpoint"),
        (metrics, "run_dci"), (cli, "write_files")]


class Reached(BaseException):
    """Raised by every entry point of real work; cli.main catches only Exceptions."""


def base_configs():
    """(command, config) for each command and dataset kind it takes."""
    out = []
    for command, blocks in COMMANDS.items():
        for kind in ("2dshapes",) if command == "traverse" else tuple(DATASETS):
            config = {"out_dir": ".", "dataset": dict(DATASETS[kind])}
            config.update({name: json.loads(json.dumps(BLOCKS[name])) for name in blocks})
            out.append((command, config))
    return out


BASES = base_configs()


def sites(value, at=()):
    """Key paths (dict keys and list indices) of every value below value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield at + (key,)
        if isinstance(item, (dict, list)):
            yield from sites(item, at + (key,))


def value_at(config, site):
    """The value at a site of config."""
    for key in site:
        config = config[key]
    return config


def key_name(site) -> str:
    """The dotted config key of a site, as error messages name it (list indices dropped)."""
    return ".".join(k for k in site if isinstance(k, str))


OTHER_TYPES = [None, True, "x", [], [1], {}]


def json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return type(value).__name__
    return "number" if isinstance(value, (int, float)) else type(value).__name__


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    for name in FILES:
        (path / name).write_bytes(b"")
    return path


def attempt(command, config, workdir):
    """(exit code, stderr, whether real work was reached) of one command on a
    config dict or JSON text."""
    path = workdir / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    err = io.StringIO()

    def sentinel(*args, **kwargs):
        raise Reached

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for owner, name in WORK:
            mp.setattr(owner, name, sentinel)
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                code, reached = cli.main([command, "--config", str(path)]), False
        except Reached:
            code, reached = None, True
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    assert peak <= PEAK_BYTES, peak
    return code, err.getvalue(), reached


@pytest.mark.parametrize("command,config", BASES, ids=[f"{c}-{b['dataset']['kind']}"
                                                       for c, b in BASES])
def test_seed_configs_reach_the_work(command, config, workdir):
    assert attempt(command, config, workdir)[2]


@st.composite
def mutations(draw):
    """(command, config, site, kind of change) with one value changed."""
    command, base = draw(st.sampled_from(BASES))
    config = json.loads(json.dumps(base))
    site = draw(st.sampled_from(list(sites(config))))
    *parent_keys, key = site
    parent = config
    for k in parent_keys:
        parent = parent[k]
    old = parent[key]
    kinds = ["swap", "nest", "huge"] + (["drop", "misspell", "repeat"]
                                        if isinstance(key, str) else [])
    if key_name(site) in PATH_KEYS and isinstance(key, str):
        kinds.append("path")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "misspell":
        # a name that neither the key's block nor the config's sections hold
        known = KEYS | {"dataset", *BLOCKS}
        new = draw(st.sampled_from([key[1:], key[:-1], key + key[-1], key.upper(), key + ".x"])
                   .filter(lambda new: key_name((*parent_keys, new)) not in known
                           and new not in parent))
        parent[new] = parent.pop(key)
        site = (*parent_keys, new)
    elif kind == "repeat":
        # the key given twice, first with a value of another type: JSON text
        marker = "\0repeated"
        parent[key] = marker
        pair = json.dumps(key) + ": "
        config = json.dumps(config).replace(pair + json.dumps(marker), pair + ", ".join(
            [json.dumps(draw(st.sampled_from(OTHER_TYPES))), pair + json.dumps(old)]))
    elif kind == "swap":
        parent[key] = draw(st.sampled_from(
            [v for v in OTHER_TYPES if json_type(v) != json_type(old)]))
    elif kind == "nest":
        parent[key] = {"nested": old}
    elif kind == "huge":
        size = draw(st.one_of(st.integers(2**53, 2**64), st.integers(16, 4000).map(
            lambda digits: 10**digits)))
        parent[key] = draw(st.sampled_from([size, -size]))
    else:
        clashes = [UNDER_A_FILE] + [base[section][name] for section, name in (
            other.split(".") for other in sorted(FILE_KEYS[command] - {key_name(site)}))]
        parent[key] = draw(st.sampled_from([".", "..", "/", old + "/"] + clashes))
        kind = "clash" if parent[key] in clashes else "path"
    return command, config, site, kind


@FUZZ
@given(case=mutations())
def test_mutated_config_exits_1_naming_the_key_or_reaches_the_work(case, workdir):
    command, config, site, kind = case
    name = key_name(site)
    code, err, reached = attempt(command, config, workdir)
    over_bound = (kind == "huge" and name in LATENT_KEYS.get(command, ())
                  and value_at(config, site) > LATENT_BOUND)
    if kind == "misspell":
        assert code == 1 and f"error: {name} is not a config key" in err, (code, err)
    elif kind == "repeat":
        assert code == 1 and f"config key {site[-1]!r} appears twice" in err, (code, err)
    elif (kind == "path" and name in FILE_KEYS[command]
            or kind == "clash" and name in FILE_KEYS[command] | DIR_KEYS[command]
            or over_bound):
        assert code == 1 and name in err, (code, err)
    elif not reached:
        assert code == 1, err
        # out_dir moves the input files too: a command that reads them may
        # find none where the changed out_dir points.
        missing_input = name == "out_dir" and "input file not found" in err
        assert name in err or missing_input, err


def test_hand_tables_agree_with_the_schema():
    """The hand tables above are this file's own oracle: they name the same
    file and directory keys as cli.CONFIG_KEYS, and the seed blocks hold every
    key of it and no other, so that the fuzz changes every key."""
    def names(path_kind):
        return {name for name, row in cli.CONFIG_KEYS.items() if path_kind in ("*", row.path)}

    assert names(cli.DIRECTORY) == set().union(*DIR_KEYS.values())
    assert names(cli.FILE) == set().union(*FILE_KEYS.values()) | {"traverse.prefix"}
    assert names(cli.FILE) | names(cli.DIRECTORY) == PATH_KEYS
    assert names("*") == KEYS


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_readme_configs_reach_the_work(command, tmp_path):
    """Each JSON config in the README passes every command's config read, with
    its inputs present at the paths it names, so it cannot drift from the table."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in map(json.loads, blocks):
        out = tmp_path / block["out_dir"]
        out.mkdir(parents=True, exist_ok=True)
        for section, key in (("dataset", "path"), ("model", "checkpoint")):
            (out / block[section][key]).write_bytes(b"")
        assert attempt(command, block, tmp_path)[2]


@pytest.mark.parametrize("command,key,dim", [
    (command, key, dim) for command in sorted(LATENT_KEYS)
    for key in sorted(LATENT_KEYS[command]) for dim in (LATENT_BOUND + 1, 2**31)])
def test_latent_dim_over_the_bound_exits_1_naming_the_key(command, key, dim, workdir):
    """Each latent-dim key, whatever cases the fuzz above happens to draw: a
    dim just over the bound, or one whose widths no u32 holds, exits 1
    naming the key before any work (in a list, as its last item)."""
    config = json.loads(json.dumps(next(base for c, base in BASES if c == command)))
    section, name = key.split(".")
    if isinstance(config[section][name], list):
        config[section][name][-1] = dim
    else:
        config[section][name] = dim
    code, err, reached = attempt(command, config, workdir)
    assert not reached and code == 1 and key in err, (code, err)
