"""Self-tests for the benchmark's own arithmetic and accounting.

Run from the repository root: `python3 -m pytest perfbench/tests -q`.
"""
import json
import statistics

import pytest

import hostspeed
import spans
import stats
import workloads
from conftest import BENCH
from spans import Span


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    children = [
        (1.0, 3.0),
        (1.5, 2.5),  # nested inside the first child
        (2.0, 5.0),  # overlaps the first child (a parallel worker)
        (4.0, 6.0),  # overlaps the previous one
        (9.0, 12.0),  # runs past the parent's end
    ]
    # covered: [1, 6] and [9, 10] -> 6 of the parent's 10 seconds
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(4.0)


def test_self_time_without_children_is_the_duration():
    assert stats.self_time(2.0, 3.5, []) == pytest.approx(1.5)
    assert stats.union_length([(1.0, 1.0), (3.0, 2.0)]) == 0.0


def test_op_summary_self_times_follow_parent_ids():
    op = [
        Span("cli.main", 0.0, 10.0, "1:1", None),
        Span("engine.train", 1.0, 9.0, "1:2", "1:1"),
        Span("engine.elbo_loss", 1.0, 5.0, "1:3", "1:2"),
        Span("engine.encoder_forward", 1.0, 2.0, "1:4", "1:3"),
        Span("engine.decoder_forward", 2.5, 3.0, "1:5", "1:3"),
        Span("autodiff.backward", 3.0, 4.5, "1:6", "1:3"),
        Span("engine.adam_step", 5.0, 6.0, "1:7", "1:2", 56),
    ]
    summary = spans.summarize_op(op, workers=1)
    assert summary["engine.elbo_self_s"] == pytest.approx(4.0 - 3.0)
    assert summary["cli.self_s"] == pytest.approx(2.0)
    assert summary["engine.steps"] == 1
    assert summary["engine.adam_bytes_per_step"] == 56
    assert spans.step_seconds(op) == [pytest.approx(5.0)]


def test_pool_idle_share_counts_cells_from_every_worker():
    op = [
        Span("cli.main", 0.0, 4.0, "1:1", None),
        Span("cli.sweep_cell", 0.5, 1.5, "7:2", "1:1"),
        Span("cli.sweep_cell", 0.5, 3.5, "8:2", "1:1"),
        Span("cli.sweep_cell", 1.5, 2.5, "7:3", "1:1"),
    ]
    summary = spans.summarize_op(op, workers=2)
    assert summary["cli.pool_idle_share"] == pytest.approx(1.0 - 5.0 / 8.0)
    assert summary["cli.self_s"] == pytest.approx(1.0)  # [0, 0.5] and [3.5, 4]


# -- tail percentile ----------------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(5, 50), (19, 50), (20, 50), (39, 75), (40, 75),
                                    (91, 75), (92, 90), (199, 95), (999, 99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    values = [float(v) for v in range(n)]
    chosen, value, beyond = stats.tail(values)
    assert chosen == pct
    assert value == pytest.approx(stats.percentile(values, pct))
    assert sum(1 for v in values if v > value) == beyond
    if n >= 20:
        assert beyond >= stats.TAIL_MIN_BEYOND


def test_tail_below_twenty_samples_is_the_median():
    values = [3.0, 1.0, 2.0, 10.0]
    assert stats.tail(values)[1] == statistics.median(values)


# -- host-speed normalization --------------------------------------------------------------


def test_normalize_divides_each_duration_by_the_mean_of_its_two_probes():
    ref = hostspeed.REFERENCE_S
    durations = [1.0, 3.0]
    probes = [ref, 3.0 * ref, ref]  # the host slows to half speed and recovers
    assert hostspeed.normalize(durations, probes) == [pytest.approx(0.5), pytest.approx(1.5)]


def test_normalize_needs_a_probe_around_every_duration():
    with pytest.raises(ValueError):
        hostspeed.normalize([1.0, 2.0], [0.04, 0.04])


# -- failed ops -----------------------------------------------------------------------------


def test_a_missing_checkpoint_fails_its_op_and_counts_against_attempted(tmp_path):
    workload = workloads.WORKLOADS["evaluate-euclidean"]
    workloads.prepare(workload, seed=0, workdir=tmp_path)
    config_file = workloads.config_path(tmp_path, 1)
    config = json.loads(config_file.read_text())
    config["model"]["checkpoint"] = str(tmp_path / "missing.tdvae")
    config_file.write_text(json.dumps(config))

    runner = workloads.OpRunner(workload, tmp_path)
    good = runner.run(0)
    bad = runner.run(1)
    assert not good.failed, good.problems
    assert bad.problems == ["exit code 1"]
    assert workloads.failure_summary(runner.results) == (2, 1, 0.5)


def test_a_changed_input_fails_the_op(tmp_path):
    workload = workloads.WORKLOADS["generate-2dshapes"]
    workloads.prepare(workload, seed=0, workdir=tmp_path)
    runner = workloads.OpRunner(workload, tmp_path)
    runner.input_hashes = {str(tmp_path / "config_0.json"): "0" * 64}
    result = runner.run(0)
    assert result.failed and result.problems[0].startswith("input config_0.json changed")


def _touch_megabytes(mb):
    block = bytearray(mb << 20)
    block[::4096] = b"x" * len(block[::4096])


def test_reaped_children_records_each_pool_workers_peak_and_restores_waitpid():
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    waitpid = os.waitpid
    context = multiprocessing.get_context("fork")
    with workloads.ReapedChildren() as children:
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            list(pool.map(_touch_megabytes, [64, 0]))
    assert os.waitpid is waitpid
    assert len(children.peak_kib) == 2
    # one worker touched 64 MB and the other did not
    assert max(children.peak_kib) - min(children.peak_kib) > 32 << 10


# -- traced runs ------------------------------------------------------------------------------


def test_tracing_collects_pool_worker_spans_and_restores_the_program(tmp_path):
    from torusvae import cli, engine, metrics

    originals = (cli.main, cli._sweep_cell, engine.train, metrics.lasso_fit,
                 engine.DenseNetwork.forward, engine.VaeModel.__init__)
    config = {
        "out_dir": str(tmp_path / "out"),
        "dataset": {"kind": "synthetic", "count": 120, "seed": 1, "factors": 2},
        "model": {"mode": "torus", "latent_dim": 2, "epochs": 1, "seed": 1, "hidden": [8]},
        "metrics": {"split_seed": 1, "folds": 3},
        "sweep": {"betas": [0.0, 1.0], "dims": [2]},
    }
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    assert cli.main(["generate", "--config", str(config_file)]) == 0

    tracer = spans.Tracer(tmp_path / "spans")
    tracer.install_spans()
    try:
        assert cli.main(["sweep", "--config", str(config_file), "--workers", "2"]) == 0
    finally:
        tracer.restore()
    recorded, _ = tracer.take()

    assert (cli.main, cli._sweep_cell, engine.train, metrics.lasso_fit,
            engine.DenseNetwork.forward, engine.VaeModel.__init__) == originals
    (root,) = [s for s in recorded if s.name == "cli.main"]
    cells = [s for s in recorded if s.name == "cli.sweep_cell"]
    assert len(cells) == 2 and all(c.parent == root.sid for c in cells)
    assert all(not c.sid.startswith(root.sid.split(":")[0] + ":") for c in cells)
    names = {s.name for s in recorded}
    assert {"engine.encoder_forward", "engine.decoder_forward", "autodiff.backward",
            "metrics.lasso_fit"} <= names
    assert not list((tmp_path / "spans").iterdir())


def test_benchmark_json_lists_what_the_code_reports():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "cmd_s.norm", "peak_rss_mb"]
