"""Rebuild the frozen evaluate-euclidean checkpoint and its recorded input hashes.

Run from the repository root: `python3 perfbench/make_checkpoint.py`. It trains
the Euclidean L=10 baseline on the fixed synthetic K=5 dataset through the CLI
and writes `perfbench/data/evaluate_euclidean.tdvae` plus
`perfbench/data/frozen_inputs.json`. The benchmark never runs this: the
checkpoint is committed so that evaluate-euclidean's cost does not move when
training code changes.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from torusvae import cli  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_work" / "make_checkpoint"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = {
        "out_dir": str(work),
        "dataset": workloads.EVALUATE_DATASET,
        "model": dict(workloads.EVALUATE_MODEL, checkpoint="model.tdvae"),
    }
    config_file = work / "config.json"
    config_file.write_text(json.dumps(config))
    for command in ("generate", "train"):
        if cli.main([command, "--config", str(config_file)]) != 0:
            return 1
    target = workloads.FROZEN_DIR / workloads.EVALUATE_CHECKPOINT
    shutil.copyfile(work / "model.tdvae", target)
    frozen = {
        "checkpoint": workloads.EVALUATE_CHECKPOINT,
        "checkpoint_sha256": workloads.sha256(target),
        "dataset": workloads.EVALUATE_DATASET,
        "dataset_sha256": workloads.sha256(work / workloads.EVALUATE_DATASET["path"]),
        "model": workloads.EVALUATE_MODEL,
    }
    workloads.FROZEN_INPUTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    print(f"wrote {target} and {workloads.FROZEN_INPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
