"""Out-of-program tracing: rebind datasp functions to span-recording wrappers.

Each function in spec.LAYERS is replaced, in this process only, at the
name its caller looks up (`datasp.training.*`, `datasp.cli.*`,
`datasp.synthetic.dijkstra`, and the `Compression.backward` method).  The
program's source is not touched.  Spans are kept in memory as
[name, stage, start, end, parent index] and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import spec

CALLER_MODULES = ("datasp.training", "datasp.cli")


def _sites(layer: str, function: str) -> list[tuple[object, str]]:
    """(namespace, attribute) pairs through which callers reach the function."""
    if function == "Compression.backward":
        graph = importlib.import_module("datasp.graph")
        owner = getattr(graph, "Compression", None)
        return [(owner, "backward")] if owner is not None else []
    if (layer, function) == ("synthetic", "dijkstra"):
        mod = importlib.import_module("datasp.synthetic")
        return [(mod, function)] if hasattr(mod, function) else []
    original = getattr(importlib.import_module(f"datasp.{layer}"), function, None)
    if original is None:
        return []
    sites = []
    for name in CALLER_MODULES:
        mod = importlib.import_module(name)
        if getattr(mod, function, None) is original:
            sites.append((mod, function))
    return sites


def _observe_shortcut_loss(counts, args, result):
    freq = args[1]
    counts["observed_terms"] += sum(1 for row in freq.frequencies.values()
                                    for f in row.values() if f > 0.0)
    counts["floored_terms"] += result[2]


def _observe_frequency_tensor(counts, args, result):
    counts["paths"] += len(args[0])
    counts["pairs"] += len(result.frequencies)


def _observe_subgraph(counts, args, result):
    counts["removed_nodes"] += len(result.removed)


OBSERVERS = {
    "training.shortcut_loss": _observe_shortcut_loss,
    "trajectories.build_frequency_tensor": _observe_frequency_tensor,
    "graph.sample_subgraph": _observe_subgraph,
}


class Tracer:
    """Span recorder; `installed()` rebinds the layer functions to it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stage = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.stage, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def stage_span(self, stage: str):
        self.stage = stage
        idx = self._open("stage." + stage)
        try:
            yield
        finally:
            self._close(idx)
            self.stage = ""

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every resolvable layer function; restore them on exit."""
        restore = []
        try:
            for layer, function, _ in spec.LAYERS:
                name = spec.span_name(layer, function)
                for owner, attr in _sites(layer, function):
                    original = getattr(owner, attr)
                    restore.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """calls, ms_per_call and share for every layer function, plus the
        derived mix fractions."""
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_in: dict[tuple[str, str], float] = defaultdict(float)
        stage_wall: dict[str, float] = defaultdict(float)
        for (name, stage, start, end, _), own in zip(self.spans, selfs):
            if name.startswith("stage."):
                stage_wall[stage] += end - start
                continue
            calls[name] += 1
            total[name] += end - start
            self_in[(name, stage)] += own

        def share(name, stage):
            wall = stage_wall.get(stage, 0.0)
            return self_in[(name, stage)] / wall if wall > 0 else 0.0

        out = {}
        for layer, function, home in spec.LAYERS:
            name = spec.span_name(layer, function)
            n = calls[name]
            out[f"{name}.calls"] = n
            out[f"{name}.ms_per_call"] = 1e3 * total[name] / n if n else 0.0
            out[f"{name}.share"] = share(name, home)

        anchor = total["training.anchor_gradients"]

        def of_anchor(*names):
            return sum(self_in[(n, "train")] for n in names) / anchor if anchor else 0.0

        out["mix.engine_of_anchor"] = of_anchor("engine.datasp_forward_efficient",
                                                "engine.datasp_backward")
        out["mix.exclusion_of_anchor"] = of_anchor("graph.sample_subgraph",
                                                   "graph.Compression.backward")
        out["mix.similarity_of_anchor"] = of_anchor("trajectories.similar_indices")
        named = [spec.span_name(l, f) for l, f, _ in spec.LAYERS]
        covered = sum(self_in[(n, "train")] for n in named if n not in spec.GROUPING_SPANS)
        out["trace.train_covered_frac"] = covered / stage_wall["train"] if stage_wall["train"] else 0.0
        query_wall = stage_wall["sample-paths"] + stage_wall["predict-dest"]
        query_engine = (self_in[("engine.datasp_forward_efficient", "sample-paths")]
                        + self_in[("engine.datasp_forward_efficient", "predict-dest")])
        out["engine.query_share"] = query_engine / query_wall if query_wall else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, stage, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "stage": stage, "start": start,
                                     "end": end, "parent": parent}) + "\n")
