"""Span tracing around the calls into oacpool's public functions.

Only traced runs use this module.  The package imports names by value
(``from .model import sgd_train``), so ``install()`` binds each wrapper in
every loaded ``oacpool`` namespace that holds the original function, and
``uninstall()`` puts the originals back.  Spans (round, name, start, end,
parent) stay in memory until the run writes them out; the round index is
the identifier the spans of one round share.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (module under oacpool, function): the layer boundaries that get a span.
LAYERS = (
    ("convpool", "conv_responses"),
    ("convpool", "oacp_forward_details"),
    ("pooling", "average_pool"),
    ("pooling", "max_pool"),
    ("pooling", "temporal_pyramid_pool"),
    ("model", "forward"),
    ("model", "backward"),
    ("model", "sgd_train"),
    ("model", "evaluate"),
    ("harness.experiments", "run_comparison"),
    ("harness.experiments", "prepare_dataset"),
    ("harness.manifest", "load_manifest"),
    ("harness.manifest", "load_dataset"),
    ("harness.manifest", "labeled_frames"),
    ("harness.featfile", "load_features"),
    ("harness.featfile", "save_features"),
    ("dimreduce", "class_signatures"),
    ("dimreduce", "kmeans_partition"),
    ("dimreduce", "lloyd_kmeans"),
    ("dimreduce", "reduce_sequence"),
    ("cli", "main"),
)


# Counters computed from a call's arguments and result at the boundary where
# the work happens.  Each takes (counts, arguments by parameter name, result).
def _count_conv(counts, args, result):
    # result is the (T_out, K, n) pre-activation array; each entry took l taps
    counts["conv_calls"] += 1
    counts["conv_madds"] += result.size * args["banks"].interval


def _count_backward(counts, args, result):
    cache = args["cache"]
    if cache.segment_argmax is not None:
        segments, dims, filters = cache.segment_argmax.shape
        counts["routed_rows"] += segments * dims * filters
        counts["allocated_rows"] += cache.pre_activation.shape[0] * dims * filters


def _count_sgd(counts, args, result):
    steps = len(args["data"]) * args["cfg"].epochs
    counts["sgd_steps"] += steps
    counts["sgd_params"] += steps * args["model"].parameter_total()


def _count_kmeans(counts, args, result):
    num_points, num_coords = np.shape(args["points"])
    counts["kmeans_calls"] += 1
    counts["kmeans_iters"] += len(result[2])
    array_bytes = num_points * args["k"] * num_coords * 8
    counts["kmeans_dist_bytes"] = max(counts["kmeans_dist_bytes"], array_bytes)


def _count_read(counts, args, result):
    counts["bytes_read"] += os.path.getsize(args["path"])


def _count_written(counts, args, result):
    counts["bytes_written"] += os.path.getsize(args["path"])


COUNTERS = {
    "convpool.conv_responses": _count_conv,
    "model.backward": _count_backward,
    "model.sgd_train": _count_sgd,
    "dimreduce.lloyd_kmeans": _count_kmeans,
    "harness.featfile.load_features": _count_read,
    "harness.featfile.save_features": _count_written,
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Collects spans and counters while installed; reports per-layer figures."""

    def __init__(self):
        self.spans: list = []  # (round, name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self.rounds: set[int] = set()
        self._round = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        params = list(inspect.signature(fn).parameters)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (self._round, name, start, end, parent)
            if counter is not None:
                counter(counts, {**dict(zip(params, args)), **kwargs}, result)
            return result

        return traced

    def install(self, round_index: int) -> None:
        self._round = round_index
        self.rounds.add(round_index)
        wrappers = {}
        for module, func in LAYERS:
            name = f"{module}.{func}"
            fn = getattr(importlib.import_module(f"oacpool.{module}"), func)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, COUNTERS.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "oacpool":
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((namespace, attr, value))
                    namespace[attr] = entry[1]

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            namespace[attr] = original

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["round", "name", "start_ns", "end_ns", "parent"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures per traced round; times are self times in ms."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ms: dict[str, list[float]] = {}
        for (_, name, start, end, _), covered in zip(self.spans, child_ns):
            self_ms.setdefault(name, []).append((end - start - covered) / 1e6)
        rounds = max(len(self.rounds), 1)
        out = {}
        for module, func in LAYERS:
            name = f"{module}.{func}"
            values = self_ms.get(name, [])
            out[f"{name}.calls"] = (len(values) / rounds, "count")
            out[f"{name}.busy_ms"] = (sum(values) / rounds, "ms")
            out[f"{name}.p50_ms"] = (float(np.percentile(values, 50)) if values else 0.0, "ms")
            out[f"{name}.p95_ms"] = (float(np.percentile(values, 95)) if values else 0.0, "ms")
        sgd = [
            (end - start, covered)
            for (_, name, start, end, _), covered in zip(self.spans, child_ns)
            if name == "model.sgd_train"
        ]
        step_ns = sum(total for total, _ in sgd)
        untimed_ns = sum(total - covered for total, covered in sgd)
        c = self.counts
        out.update(
            {
                "untimed_frac": (_ratio(untimed_ns, step_ns), "frac"),
                "convpool.conv_responses.madds_per_inst": (
                    _ratio(c["conv_madds"], c["conv_calls"]), "count"),
                "model.sgd_train.params_per_step": (
                    _ratio(c["sgd_params"], c["sgd_steps"]), "count"),
                "model.backward.routed_rows_frac": (
                    _ratio(c["routed_rows"], c["allocated_rows"]), "frac"),
                "dimreduce.lloyd_kmeans.iters_per_call": (
                    _ratio(c["kmeans_iters"], c["kmeans_calls"]), "count"),
                "dimreduce.lloyd_kmeans.dist_array_bytes": (c["kmeans_dist_bytes"], "bytes"),
                "harness.featfile.bytes_read_per_round": (c["bytes_read"] / rounds, "bytes"),
                "harness.featfile.bytes_written_per_round": (c["bytes_written"] / rounds, "bytes"),
            }
        )
        return out
