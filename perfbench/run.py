"""Benchmark for the torusvae CLI: one workload per command that does real work.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from `src/`. Each run
makes its inputs from --seed, then runs the workload's command in a closed
loop (one in-process caller, each command after the previous one returned)
for --seconds, checking every op's outputs. The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`:

* --trace 0: end-to-end figures, measured with no wrappers installed. Times
  are rescaled to a reference host speed by a probe run between ops (see
  hostspeed.py).
* --trace 1: per-layer figures. Ops alternate between untraced and traced
  with layer spans (see spans.py), then one op runs under the counting pass.

The lines before it name every figure with its unit, the environment and the
sha256 of every input and output. `--workload all` runs every workload in
turn, each in its own process.
"""
from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: a sweep runs nproc pool workers
# of one BLAS thread each, so no workload runs more compute threads than cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT_S = 170

try:
    import hostspeed
    import spans
    import stats
    import workloads
except ImportError as _exc:  # e.g. a checkout without src/
    IMPORT_ERROR = _exc
else:
    IMPORT_ERROR = None

END_TO_END_UNITS = {"setup_s": "s", "cmd_s.norm": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def closed_loop(runner, seconds: float) -> tuple:
    """Run ops back to back, after one warm-up op, until `seconds` have passed.

    Returns the timed ops' results and the host-speed probes taken before the
    first of them and after each one.
    """
    hostspeed.probe()  # warm-up
    runner.run(0)  # warm-up: checked and counted, not timed
    deadline = time.perf_counter() + seconds
    results, probes = [], [hostspeed.probe()]
    while not results or time.perf_counter() < deadline:
        results.append(runner.run(len(runner.results) % runner.variants))
        probes.append(hostspeed.probe())
    return results, probes


def environment(seed: int, workers: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "sweep_workers": workers,
    }


def timed_run(workload, seed: int, seconds: float, workdir: Path) -> tuple:
    setups, setup_probes = [], [hostspeed.probe()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--prepare", str(workdir)],
            check=True, stdout=subprocess.DEVNULL,
        )
        setups.append(time.perf_counter() - start)
        setup_probes.append(hostspeed.probe())

    runner = workloads.OpRunner(workload, workdir)
    timed, probes = closed_loop(runner, seconds)
    durations = [r.seconds for r in timed]
    pct, tail, beyond = stats.tail(durations)
    figures = {
        "setup_s": stats.median(hostspeed.normalize(setups, setup_probes)),
        "cmd_s.norm": stats.median(hostspeed.normalize(durations, probes)),
        "peak_rss_mb": stats.median([r.peak_rss_mb for r in timed]),
    }
    info = [f"cmd_s.tail is p{pct} of {len(durations)} timed ops ({beyond} beyond it); "
            f"setup runs {[round(s, 4) for s in setups]}",
            f"op seconds {[round(d, 4) for d in durations]}",
            f"op peak_rss_mb {[round(r.peak_rss_mb, 1) for r in timed]} "
            f"with {sorted({r.children for r in timed})} children per op",
            f"probe seconds {[round(p, 4) for p in probes]}"]
    # The raw times are reported but not gated: on a shared host the load of
    # other tenants moves them by up to a factor of two between runs.
    extra = {"cmd_s.median": (stats.median(durations), "s"), "cmd_s.min": (min(durations), "s"),
             "cmd_s.tail": (tail, "s"), "setup_s.raw": (stats.median(setups), "s"),
             "probe_s.median": (stats.median(probes), "s")}
    wall = sum(durations)
    work = workload.work()
    if "train.samples" in work:
        extra["train.samples_per_s"] = (work["train.samples"] * len(timed) / wall, "1/s")
    if "generate.images" in work:
        extra["generate.images_per_s"] = (work["generate.images"] * len(timed) / wall, "1/s")
    if "sweep.cells" in work:
        extra["sweep.cells_per_min"] = (work["sweep.cells"] * len(timed) * 60.0 / wall, "1/min")
    for name in ("val_mse", "dc_score"):
        values = [r.quality[name] for r in timed if name in r.quality]
        if values:
            extra[name] = (stats.median(values), "1")
    attempted, failed, ratio = workloads.failure_summary(runner.results)
    extra["ops_failed_ratio"] = (ratio, "1")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in figures.items()}
    return runner, metrics, extra, info


def traced_run(workload, seed: int, seconds: float, workdir: Path) -> tuple:
    tracer = spans.Tracer(workdir / "spans")
    tracer.install_spans()
    try:
        workloads.prepare(workload, seed, workdir)
    finally:
        tracer.restore()
    setup_spans, _ = tracer.take()

    runner = workloads.OpRunner(workload, workdir)
    runner.run(0)  # warm-up
    # Each config runs once untraced and once traced, in turns of either
    # order, so that machine-speed drift and cache warmth from the previous op
    # reach both alike and leave trace.overhead_ratio alone.
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        key = len(traced) % runner.variants
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not trace:
                untraced.append(runner.run(key))
                continue
            tracer.install_spans()
            try:
                runner.run(key)
            finally:
                tracer.restore()
            traced.append(tracer.take()[0])
    tracer.install_counts()
    try:
        runner.run(0)  # counting pass; op 0 so that counts do not depend on the op count
    finally:
        tracer.restore()
    _, counted = tracer.take()

    figures = spans.layer_metrics(traced, counted, [r.seconds for r in untraced], setup_spans,
                                  max(1, workload.pool_workers()))
    metrics = {name: {"value": value, "unit": spans.PER_LAYER[name][0]}
               for name, value in figures.items()}
    info = [f"{len(untraced)} untraced and {len(traced)} traced ops"]
    return runner, metrics, {}, info


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if args.prepare:
        workloads.prepare(workload, args.seed, Path(args.prepare))
        return 0
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        runner, metrics, extra, info = run(workload, args.seed, args.seconds, workdir)
        outputs = runner.output_hashes()
        inputs = runner.input_hashes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted, failed, _ = workloads.failure_summary(runner.results)
    for i, result in enumerate(runner.results):
        if result.failed:
            print(f"op {i} failed: {'; '.join(result.problems)}", file=sys.stderr)
    print("env " + json.dumps(environment(args.seed, workload.pool_workers()), sort_keys=True))
    for path, digest in sorted(inputs.items()):
        print(f"input {Path(path).name} sha256={digest}")
    for name, digest in outputs.items():
        print(f"output {name} sha256={digest}")
    for line in info:
        print(f"note {line}")
    for name, figure in metrics.items():
        print(f"metric {name} {figure['value']!r} {figure['unit']}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print each one's lines and a combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import the program under test: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
