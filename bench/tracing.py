"""Span tracer that wraps corrstn entry points from outside the package.

A traced run replaces module attributes, call-site aliases (the name a
module imported from another one) and class methods with wrappers that
record a span per call: name, start, end, parent span and the run label the
workload set (setup, pass-0, request-17, ...). Spans stay in memory and are
written to a CSV file when the run ends. Nothing under ``src/`` knows about
the tracer, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from corrstn import autodiff, cli, data, metrics, model, neural, scorr, tcorr

# the package rebinds the name `mic` to the function; the module is needed
mic = importlib.import_module("corrstn.mic")

# (owner, attribute, span name); an owner may be a module, a call-site alias
# or a class. Several owners share a span name when one function is reached
# through more than one binding.
WRAPPED = (
    (mic, "mic_full", "mic.mic_full"),
    (tcorr, "mic_full", "mic.mic_full"),
    (mic, "pairwise_mic", "mic.pairwise_mic"),
    (scorr, "pairwise_mic", "mic.pairwise_mic"),
    (scorr, "compute_scorr", "scorr.compute_scorr"),
    (scorr, "top_u_normalize", "scorr.top_u_normalize"),
    (model, "top_u_normalize", "scorr.top_u_normalize"),
    (tcorr, "compute_tcorr", "tcorr.compute_tcorr"),
    (cli, "cmd_scorr", "cli.scorr"),
    (cli, "cmd_tcorr", "cli.tcorr"),
    (cli, "cmd_select", "cli.select"),
    (data, "generate_synthetic", "data.generate_synthetic"),
    (data, "load_tensor", "data.load_tensor"),
    (data, "assemble_samples", "data.assemble_samples"),
    (autodiff, "matmul", "autodiff.matmul"),
    (autodiff, "softmax", "autodiff.softmax"),
    (autodiff, "layer_norm", "autodiff.layer_norm"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (neural.CIATT, "__call__", "neural.CIATT"),
    (neural.CIGNN, "__call__", "neural.CIGNN"),
    (neural.TemporalConv, "__call__", "neural.TemporalConv"),
    (neural.LayerNorm, "__call__", "neural.LayerNorm"),
    (model.CorrSTN, "forward", "model.forward"),
    (model.CorrSTN, "forecast", "model.forecast"),
    (model.Adam, "step", "model.adam"),
    (model, "train", "model.train"),
    (model, "save_checkpoint", "model.checkpoint_io"),
    (model, "load_checkpoint", "model.checkpoint_io"),
    (metrics, "evaluate", "metrics.evaluate"),
    (metrics, "compute_report", "metrics.compute_report"),
)

# per-layer metric -> unit; every traced run reports all of them, so a layer
# a workload leaves idle reads 0
LAYER_UNITS = {
    "mic.pairwise_mic.s": "s",
    "mic.pairs": "count",
    "mic.pair_ms": "ms",
    "mic.mic_full.calls": "count",
    "mic.window_us": "us",
    "mic.degenerate": "count",
    "tcorr.compute_tcorr.s": "s",
    "tcorr.compute_tcorr.self_s": "s",
    "scorr.compute_scorr.s": "s",
    "scorr.top_u_normalize.s": "s",
    "cli.scorr.self_s": "s",
    "cli.tcorr.self_s": "s",
    "cli.select.s": "s",
    "data.generate_synthetic.s": "s",
    "data.load_tensor.s": "s",
    "data.assemble_samples.s": "s",
    "data.sample_bytes": "bytes",
    "autodiff.matmul.calls": "count",
    "autodiff.matmul.s": "s",
    "autodiff.softmax.s": "s",
    "autodiff.layer_norm.s": "s",
    "autodiff.backward.s": "s",
    "autodiff.graph_nodes": "count",
    "autodiff.graph_bytes": "bytes",
    "neural.CIATT.s": "s",
    "neural.CIGNN.s": "s",
    "neural.TemporalConv.s": "s",
    "neural.LayerNorm.s": "s",
    "model.forward.calls": "count",
    "model.forward.s": "s",
    "model.forecast.s": "s",
    "model.step_s.p50": "s",
    "model.adam.s": "s",
    "model.train.s": "s",
    "model.checkpoint_io.s": "s",
    "metrics.evaluate.s": "s",
    "metrics.compute_report.s": "s",
    # the request latency tail, which the end-to-end metrics cannot carry
    # because they must exist on every workload
    "forecast.p90_ms": "ms",
}


def patch(owner, attr: str, replacement):
    """Bind replacement to owner.attr and return a function that undoes it."""
    own = attr in vars(owner)
    original = vars(owner).get(attr)
    setattr(owner, attr, replacement)

    def undo():
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    return undo


def graph_size(root) -> tuple[int, int]:
    """Autograph nodes reachable from root and the bytes of their .data."""
    seen = set()
    stack = [root]
    nodes = nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        nbytes += node.data.size * node.data.itemsize
        stack.extend(getattr(node, "_parents", ()))
    return nodes, nbytes


def _after_pairwise(tracer, result):
    k = result.shape[0]
    tracer.counts["mic.pairs"] += k * (k - 1) // 2


def _after_mic_full(tracer, result):
    tracer.counts["mic.degenerate"] += bool(result.degenerate)


def _after_assemble(tracer, result):
    tracer.counts["data.sample_bytes"] += (result.encoder_input.nbytes
                                           + result.decoder_input.nbytes
                                           + result.target.nbytes)


def _after_forward(tracer, result):
    # the graph grows with batch and decoder length only, so one walk per
    # distinct output shape finds the largest graph at a fraction of the cost
    if result.shape in tracer.graphs_seen:
        return
    tracer.graphs_seen.add(result.shape)
    nodes, nbytes = graph_size(result)
    tracer.counts["autodiff.graph_nodes"] = max(
        tracer.counts["autodiff.graph_nodes"], nodes)
    tracer.counts["autodiff.graph_bytes"] = max(
        tracer.counts["autodiff.graph_bytes"], nbytes)


_AFTER = {
    "mic.pairwise_mic": _after_pairwise,
    "mic.mic_full": _after_mic_full,
    "data.assemble_samples": _after_assemble,
    "model.forward": _after_forward,
}


class Tracer:
    """Records spans of wrapped calls; single-threaded, one per process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, run]
        self.counts: Counter = Counter()
        self.graphs_seen: set = set()
        self.run = "setup"
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._paused = 0
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            # a binding a later refactor removed is skipped, not an error
            if hasattr(owner, attr):
                self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, owner, attr, name) -> None:
        original = getattr(owner, attr)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # nested calls of the same layer count once, in the outer span
            if tracer._paused or tracer._depth[name]:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, result)
            return result

        self._undo.append(patch(owner, attr, wrapper))

    @contextmanager
    def paused(self):
        """Calls made inside (warm-up, output checks) record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.run]
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        self._depth[name] += 1
        span[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        self._depth[span[0]] -= 1

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "run"])
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                out.writerow([index, name, f"{start - origin:.9f}",
                              f"{end - origin:.9f}", parent, run])

    def layer_metrics(self, step_seconds, p90_ms: float) -> dict:
        """Every per-layer metric in LAYER_UNITS from the recorded spans.

        step_seconds are the training-step durations and p90_ms the request
        latency tail the workload measured (empty and 0 where it has none).
        """
        total: Counter = Counter()
        calls: Counter = Counter()
        children: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        self_time: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - children[index]

        pairs = self.counts["mic.pairs"]
        windows = calls["mic.mic_full"]
        return {
            "mic.pairwise_mic.s": total["mic.pairwise_mic"],
            "mic.pairs": pairs,
            "mic.pair_ms": 1e3 * total["mic.pairwise_mic"] / pairs if pairs else 0.0,
            "mic.mic_full.calls": windows,
            "mic.window_us": 1e6 * total["mic.mic_full"] / windows if windows else 0.0,
            "mic.degenerate": self.counts["mic.degenerate"],
            "tcorr.compute_tcorr.s": total["tcorr.compute_tcorr"],
            "tcorr.compute_tcorr.self_s": self_time["tcorr.compute_tcorr"],
            "scorr.compute_scorr.s": total["scorr.compute_scorr"],
            "scorr.top_u_normalize.s": total["scorr.top_u_normalize"],
            "cli.scorr.self_s": self_time["cli.scorr"],
            "cli.tcorr.self_s": self_time["cli.tcorr"],
            "cli.select.s": total["cli.select"],
            "data.generate_synthetic.s": total["data.generate_synthetic"],
            "data.load_tensor.s": total["data.load_tensor"],
            "data.assemble_samples.s": total["data.assemble_samples"],
            "data.sample_bytes": self.counts["data.sample_bytes"],
            "autodiff.matmul.calls": calls["autodiff.matmul"],
            "autodiff.matmul.s": total["autodiff.matmul"],
            "autodiff.softmax.s": total["autodiff.softmax"],
            "autodiff.layer_norm.s": total["autodiff.layer_norm"],
            "autodiff.backward.s": total["autodiff.backward"],
            "autodiff.graph_nodes": self.counts["autodiff.graph_nodes"],
            "autodiff.graph_bytes": self.counts["autodiff.graph_bytes"],
            "neural.CIATT.s": total["neural.CIATT"],
            "neural.CIGNN.s": total["neural.CIGNN"],
            "neural.TemporalConv.s": total["neural.TemporalConv"],
            "neural.LayerNorm.s": total["neural.LayerNorm"],
            "model.forward.calls": calls["model.forward"],
            "model.forward.s": total["model.forward"],
            "model.forecast.s": total["model.forecast"],
            "model.step_s.p50": (statistics.median(step_seconds)
                                 if step_seconds else 0.0),
            "model.adam.s": total["model.adam"],
            "model.train.s": total["model.train"],
            "model.checkpoint_io.s": total["model.checkpoint_io"],
            "metrics.evaluate.s": total["metrics.evaluate"],
            "metrics.compute_report.s": total["metrics.compute_report"],
            "forecast.p90_ms": p90_ms,
        }
