"""Layer spans and counts, recorded from outside the program.

The traced run replaces the public functions of `autodiff`, `engine`,
`metrics`, `datasets` and `cli` with wrappers that record a span (name,
start, end, id, parent id, an optional size) around each call, and restores
them afterwards; `src/` is not touched. A separate counting pass wraps the
two per-element hot spots (Tensor construction and `soft_threshold`) with
bare counters, so their per-call cost never inflates the layer times.

Sweep cells run in forked pool workers, which inherit the wrappers. Each
worker writes the spans and counts of a cell to a file in the dump
directory before the cell returns; the parent folds them in after the op.
Span ids carry the process id, and `time.perf_counter` is the system-wide
monotonic clock on Linux, so spans from all processes share one timeline.
"""
from __future__ import annotations

import functools
import json
import os
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from stats import median, self_time

# Adam reads param, grad, m and v and writes m, v and param: seven f64 arrays.
ADAM_BYTES_PER_PARAM = 7 * 8

# name -> (unit, better); a traced run reports every one of these.
PER_LAYER = {
    "cli.cmd_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.sweep_cell_s.median": ("s", "lower"),
    "cli.sweep_cell_s.max": ("s", "lower"),
    "cli.pool_idle_share": ("ratio", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.tensors_per_step": ("count", "lower"),
    "engine.elbo_loss_s": ("s", "lower"),
    "engine.elbo_self_s": ("s", "lower"),
    "engine.encoder_forward_s": ("s", "lower"),
    "engine.decoder_forward_s": ("s", "lower"),
    "engine.adam_step_s": ("s", "lower"),
    "engine.adam_bytes_per_step": ("B-computed", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.step_s.median": ("s", "lower"),
    "engine.validation_s": ("s", "lower"),
    "engine.train_s": ("s", "lower"),
    "engine.codes_s": ("s", "lower"),
    "engine.load_checkpoint_s": ("s", "lower"),
    "engine.save_checkpoint_s": ("s", "lower"),
    "metrics.run_dci_s": ("s", "lower"),
    "metrics.lasso_cv_s": ("s", "lower"),
    "metrics.lasso_cv_calls": ("count", "lower"),
    "metrics.lasso_fit_s": ("s", "lower"),
    "metrics.lasso_fit_calls": ("count", "lower"),
    "metrics.cd_updates": ("count", "lower"),
    "metrics.heatmap_s": ("s", "lower"),
    "datasets.render_batch_s": ("s", "lower"),
    "datasets.images_rendered": ("count", "higher"),
    "datasets.setup_render_batch_s": ("s", "lower"),
    "datasets.save_dataset_s": ("s", "lower"),
    "datasets.save_dataset_bytes": ("B", "lower"),
    "datasets.load_dataset_s": ("s", "lower"),
    "datasets.load_dataset_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    sid: str
    parent: str | None
    value: float = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs and removes the wrappers; holds what they record in this process."""

    def __init__(self, dump_dir):
        self.root_pid = os.getpid()
        self.dump_dir = Path(dump_dir)
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._seq = 0
        self._undo = []
        self._roles = weakref.WeakKeyDictionary()  # DenseNetwork -> span name

    # -- installing ---------------------------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span(self, owner, attr, name, size=None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                label = name(args) if callable(name) else name
                tracer._seq += 1
                sid = f"{os.getpid()}:{tracer._seq}"
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(sid)
                done = False
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                    done = True
                    return result
                finally:
                    end = perf_counter()
                    tracer._stack.pop()
                    value = size(args) if size is not None and done else 0
                    tracer.spans.append(Span(label, start, end, sid, parent, value))
            return wrapper

        self._patch(owner, attr, make)

    def install_spans(self) -> None:
        from torusvae import autodiff, cli, datasets, engine, metrics

        span = self._span
        span(cli, "main", "cli.main")
        span(cli, "_sweep_cell", "cli.sweep_cell")
        self._patch(cli, "_sweep_cell", self._shipping)
        span(datasets, "load_dataset", "datasets.load_dataset",
             size=lambda a: os.path.getsize(a[0]))
        span(datasets, "save_dataset", "datasets.save_dataset",
             size=lambda a: os.path.getsize(a[1]))
        span(datasets, "render_batch", "datasets.render_batch", size=lambda a: len(a[0]))
        span(engine, "train", "engine.train")
        span(engine, "elbo_loss", "engine.elbo_loss")
        span(engine, "adam_step", "engine.adam_step",
             size=lambda a: ADAM_BYTES_PER_PARAM * sum(p.data.size for p in a[0]))
        span(engine, "validation_mse", "engine.validation")
        span(engine, "load_checkpoint", "engine.load_checkpoint")
        span(engine, "save_checkpoint", "engine.save_checkpoint")
        span(engine.VaeModel, "codes", "engine.codes")
        span(engine.DenseNetwork, "forward", lambda a: self._roles.get(a[0], "engine.forward"))
        span(autodiff.Tensor, "backward", "autodiff.backward")
        span(metrics, "run_dci", "metrics.run_dci")
        span(metrics, "lasso_cv", "metrics.lasso_cv")
        span(metrics, "lasso_fit", "metrics.lasso_fit")
        span(metrics, "heatmap_export", "metrics.heatmap")
        span(metrics, "write_heatmap_bundle", "metrics.heatmap")
        self._patch(engine.VaeModel, "__init__", self._naming_networks)

    def install_counts(self) -> None:
        from torusvae import autodiff, cli, engine, metrics

        counts = self.counts

        def counting(key):
            def make(original):
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return original(*args, **kwargs)
                return wrapper
            return make

        def step(original):
            def wrapper(*args, **kwargs):
                before = counts["autodiff.tensors"]
                try:
                    return original(*args, **kwargs)
                finally:
                    counts["engine.steps"] += 1
                    counts["autodiff.step_tensors"] += counts["autodiff.tensors"] - before
            return wrapper

        self._patch(autodiff.Tensor, "__init__", counting("autodiff.tensors"))
        self._patch(metrics, "soft_threshold", counting("metrics.cd_updates"))
        self._patch(engine, "elbo_loss", step)
        self._patch(cli, "_sweep_cell", self._shipping)

    def _naming_networks(self, original):
        roles = self._roles

        def wrapper(model, *args, **kwargs):
            original(model, *args, **kwargs)
            roles[model.encoder] = "engine.encoder_forward"
            roles[model.decoder] = "engine.decoder_forward"
        return wrapper

    # -- pool workers -------------------------------------------------------------

    def _shipping(self, original):
        def wrapper(job):
            mark, before = len(self.spans), Counter(self.counts)
            try:
                return original(job)
            finally:
                if os.getpid() != self.root_pid:
                    self._ship(mark, before)
        return wrapper

    def _ship(self, mark: int, before: Counter) -> None:
        delta = Counter(self.counts)
        delta.subtract(before)
        record = {"spans": [list(s) for s in self.spans[mark:]],
                  "counts": {k: v for k, v in delta.items() if v}}
        self._seq += 1
        (self.dump_dir / f"{os.getpid()}-{self._seq}.json").write_text(json.dumps(record))
        del self.spans[mark:]
        self.counts.clear()
        self.counts.update(before)

    def take(self) -> tuple:
        """Spans and counts recorded since the last take, pool workers' included."""
        for path in sorted(self.dump_dir.glob("*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            self.spans.extend(Span(*s) for s in record["spans"])
            self.counts.update(record["counts"])
        spans, counts = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts


# -- per-layer figures ----------------------------------------------------------------


def step_seconds(spans) -> list:
    """Each training step's time: an elbo_loss start to the matching adam_step end."""
    per_train = defaultdict(lambda: ([], []))
    for s in spans:
        if s.name == "engine.elbo_loss":
            per_train[s.parent][0].append(s)
        elif s.name == "engine.adam_step":
            per_train[s.parent][1].append(s)
    out = []
    for elbos, adams in per_train.values():
        elbos.sort(key=lambda s: s.start)
        adams.sort(key=lambda s: s.start)
        out.extend(a.end - e.start for e, a in zip(elbos, adams))
    return out


def summarize_op(spans, workers: int) -> dict:
    """Per-layer figures of one op from all of its spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append((s.start, s.end))

    def seconds(name):
        return sum(s.seconds for s in by_name[name])

    def sizes(name):
        return sum(s.value for s in by_name[name])

    (root,) = by_name["cli.main"]
    cells = sum(s.seconds for s in by_name["cli.sweep_cell"])
    adam = by_name["engine.adam_step"]
    return {
        "cli.cmd_s": root.seconds,
        "cli.self_s": self_time(root.start, root.end, children[root.sid]),
        "cli.pool_idle_share": 1.0 - cells / (workers * root.seconds) if cells else 0.0,
        "autodiff.backward_s": seconds("autodiff.backward"),
        "engine.elbo_loss_s": seconds("engine.elbo_loss"),
        "engine.elbo_self_s": sum(self_time(s.start, s.end, children[s.sid])
                                  for s in by_name["engine.elbo_loss"]),
        "engine.encoder_forward_s": seconds("engine.encoder_forward"),
        "engine.decoder_forward_s": seconds("engine.decoder_forward"),
        "engine.adam_step_s": seconds("engine.adam_step"),
        "engine.adam_bytes_per_step": sizes("engine.adam_step") / len(adam) if adam else 0.0,
        "engine.steps": len(by_name["engine.elbo_loss"]),
        "engine.validation_s": seconds("engine.validation"),
        "engine.train_s": seconds("engine.train"),
        "engine.codes_s": seconds("engine.codes"),
        "engine.load_checkpoint_s": seconds("engine.load_checkpoint"),
        "engine.save_checkpoint_s": seconds("engine.save_checkpoint"),
        "metrics.run_dci_s": seconds("metrics.run_dci"),
        "metrics.lasso_cv_s": seconds("metrics.lasso_cv"),
        "metrics.lasso_cv_calls": len(by_name["metrics.lasso_cv"]),
        "metrics.lasso_fit_s": seconds("metrics.lasso_fit"),
        "metrics.lasso_fit_calls": len(by_name["metrics.lasso_fit"]),
        "metrics.heatmap_s": seconds("metrics.heatmap"),
        "datasets.render_batch_s": seconds("datasets.render_batch"),
        "datasets.images_rendered": sizes("datasets.render_batch"),
        "datasets.save_dataset_s": seconds("datasets.save_dataset"),
        "datasets.save_dataset_bytes": sizes("datasets.save_dataset"),
        "datasets.load_dataset_s": seconds("datasets.load_dataset"),
        "datasets.load_dataset_bytes": sizes("datasets.load_dataset"),
    }


def layer_metrics(traced_ops, counted: Counter, untraced_seconds, setup_spans,
                  workers: int) -> dict:
    """Per-layer figures of a traced run.

    traced_ops holds the spans of each traced op; each figure is the median
    over ops of its per-op value, except the per-cell and per-step medians,
    which pool every cell and step of the run. Counts come from the one
    counting-pass op.
    """
    summaries = [summarize_op(spans, workers) for spans in traced_ops]
    out = {name: median([s[name] for s in summaries]) for name in summaries[0]}
    cells = [s.seconds for spans in traced_ops for s in spans if s.name == "cli.sweep_cell"]
    out["cli.sweep_cell_s.median"] = median(cells)
    out["cli.sweep_cell_s.max"] = max(cells, default=0.0)
    out["engine.step_s.median"] = median([t for spans in traced_ops for t in step_seconds(spans)])
    steps = counted["engine.steps"]
    out["autodiff.tensors_per_step"] = counted["autodiff.step_tensors"] / steps if steps else 0.0
    out["metrics.cd_updates"] = counted["metrics.cd_updates"]
    out["datasets.setup_render_batch_s"] = sum(
        s.seconds for s in setup_spans if s.name == "datasets.render_batch")
    out["trace.overhead_ratio"] = out["cli.cmd_s"] / median(untraced_seconds)
    return {name: out[name] for name in PER_LAYER}
