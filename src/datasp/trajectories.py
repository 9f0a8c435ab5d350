"""Trajectory ingestion, context similarity and encoding.

A `Dataset` validates its trajectories and contexts once, when built, and
stores the contexts as matrices: `features` (N, F) and `discrete` (N, Dd) or
None.  Context similarity is one vectorised distance per anchor over them.

Observed paths are encoded as shortcut frequencies: for every ordered pair
of positions (a, b) in a cycle-free node sequence, the highest node strictly
between them is counted (or the source itself for an adjacent pair, marking
a direct connection).  Normalizing the counts per (i, j) yields the sparse
empirical counterpart F of the engine's shortcut tensor P.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import Graph


@dataclass
class ContextSample:
    features: np.ndarray
    discrete: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 1:
            raise ValidationError("context features must be a flat vector")
        if self.discrete is not None:
            self.discrete = np.asarray(self.discrete, dtype=np.int64)
            if self.discrete.ndim != 1:
                raise ValidationError("context discrete values must be a flat vector")


@dataclass
class TrajectoryRecord:
    context: ContextSample
    path: tuple[int, ...]


@dataclass
class Dataset:
    graph: Graph
    records: list[TrajectoryRecord]
    splits: dict[str, list[int]] = field(default_factory=dict)
    features: np.ndarray = field(init=False, repr=False)
    discrete: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        for rec in self.records:
            validate_trajectory(rec.path, self.graph)
        contexts = [rec.context for rec in self.records]
        if len({c.features.shape for c in contexts}) > 1:
            raise ValidationError("context feature dimensions differ within dataset")
        if len({None if c.discrete is None else c.discrete.shape for c in contexts}) > 1:
            raise ValidationError("discrete context vectors must be on every record or "
                                  "on none, all of one length")
        self.features = np.stack([c.features for c in contexts]) if contexts else np.zeros((0, 0))
        self.discrete = (np.stack([c.discrete for c in contexts])
                         if contexts and contexts[0].discrete is not None else None)

    def split_indices(self, name: str) -> list[int]:
        if name in self.splits:
            return self.splits[name]
        if not self.splits:
            return list(range(len(self.records)))
        raise ValidationError(f"unknown split {name!r}")


def validate_trajectory(path, graph: Graph) -> tuple[int, ...]:
    path = tuple(int(x) for x in path)
    if len(path) < 2:
        raise ValidationError("a trajectory needs at least two nodes")
    for u, v in zip(path[:-1], path[1:]):
        if u == v:
            raise ValidationError(f"consecutive repeated node {u} in trajectory")
        if not graph.has_edge(u, v):
            raise ValidationError(f"trajectory uses missing edge ({u}, {v})")
    return path


def highest_intermediate_decomposition(path) -> list[tuple[int, int, int]]:
    """All (i, j, k) subpath triples of a cycle-free trajectory.

    For positions a < b, k is the highest node strictly between them, or
    k = i for adjacent positions (a direct connection).
    """
    path = tuple(int(x) for x in path)
    if len(set(path)) != len(path):
        raise ValidationError("decomposition requires a cycle-free trajectory")
    if len(path) < 2:
        raise ValidationError("a trajectory needs at least two nodes")
    triples = []
    for a in range(len(path) - 1):
        running_max = -1
        for b in range(a + 1, len(path)):
            i, j = path[a], path[b]
            k = i if b == a + 1 else running_max
            triples.append((i, j, k))
            running_max = max(running_max, path[b])
    return triples


class FrequencyTensor:
    """Sparse empirical distribution of highest intermediate nodes.

    frequencies maps (i, j) -> {k: frequency}, each inner map summing to 1.
    pairs is the observed source/target set D.
    """

    def __init__(self, frequencies: dict[tuple[int, int], dict[int, float]]):
        self.frequencies = frequencies

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(self.frequencies)

    def row(self, i: int, j: int) -> dict[int, float]:
        return self.frequencies.get((i, j), {})

    def __len__(self) -> int:
        return len(self.frequencies)


def build_frequency_tensor(trajectories) -> FrequencyTensor:
    """Count decomposition triples over trajectories and normalize per pair."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ValidationError("build_frequency_tensor requires at least one trajectory")
    counts: dict[tuple[int, int], dict[int, float]] = {}
    for path in trajectories:
        for i, j, k in highest_intermediate_decomposition(path):
            row = counts.setdefault((i, j), {})
            row[k] = row.get(k, 0.0) + 1.0
    for row in counts.values():
        total = sum(row.values())
        for k in row:
            row[k] /= total
    return FrequencyTensor(counts)


def apply_node_exclusion_to_path(path, removed, node_map) -> tuple[int, ...] | None:
    """Drop removed nodes and remap the survivors to compressed indices.

    Returns None ("dropped") when fewer than two nodes survive.
    """
    removed = set(int(x) for x in removed)
    kept = [int(node_map[x]) for x in path if x not in removed]
    if any(x < 0 for x in kept):
        raise ValidationError("node_map does not cover a surviving node")
    if len(kept) < 2:
        return None
    return tuple(kept)


def similar_indices(dataset: Dataset, anchor_index: int, fraction: float,
                    candidate_indices=None) -> list[int]:
    """Indices of the ceil(fraction * N) candidates nearest to the anchor.

    The distance is the Euclidean distance between features, sqrt(d . d) of
    their difference d (the same bits as `np.linalg.norm(d)`), plus the
    Hamming distance between discrete vectors.  Ties go by candidate order.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    if not dataset.records:
        raise ValidationError("empty dataset")
    if candidate_indices is None:
        candidate_indices = list(range(len(dataset.records)))
    count = int(np.ceil(fraction * len(candidate_indices)))
    diff = dataset.features[candidate_indices] - dataset.features[anchor_index]
    dists = np.sqrt(np.vecdot(diff, diff))
    if dataset.discrete is not None:
        dists += (dataset.discrete[candidate_indices]
                  != dataset.discrete[anchor_index]).sum(axis=1)
    order = np.argsort(dists, kind="stable")[:count]
    return [candidate_indices[int(x)] for x in order]


def node_visit_frequencies(dataset: Dataset, indices=None) -> np.ndarray:
    """How often each node appears across the given trajectories."""
    freqs = np.zeros(dataset.graph.num_nodes)
    if indices is None:
        indices = range(len(dataset.records))
    for idx in indices:
        for node in dataset.records[idx].path:
            freqs[node] += 1.0
    return freqs


# ---------------------------------------------------------------------------
# JSONL trajectory files and dataset manifests


def trajectory_record_to_dict(rec: TrajectoryRecord) -> dict:
    doc: dict = {"context": [float(x) for x in rec.context.features],
                 "path": [int(x) for x in rec.path]}
    if rec.context.discrete is not None:
        doc["discrete"] = [int(x) for x in rec.context.discrete]
    return doc


def trajectory_record_from_dict(doc: dict) -> TrajectoryRecord:
    try:
        ctx = ContextSample(features=doc["context"],
                            discrete=doc.get("discrete"))
        path = tuple(int(x) for x in doc["path"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed trajectory record: {exc}") from exc
    return TrajectoryRecord(context=ctx, path=path)


def write_trajectories_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(trajectory_record_to_dict(rec), sort_keys=True))
            fh.write("\n")


def read_trajectories_jsonl(path) -> list[TrajectoryRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(trajectory_record_from_dict(json.loads(line)))
    return records


def load_dataset(manifest_path) -> tuple[Dataset, dict]:
    """Load a dataset from a manifest JSON; returns (dataset, manifest dict).

    Manifest schema: {"graph": path, "trajectories": path, "splits":
    {name: [indices]}, ...}; relative paths resolve against the manifest's
    directory.
    """
    import os

    from .graph import load_graph_json

    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    graph, prior, positions = load_graph_json(resolve(manifest["graph"]))
    records = read_trajectories_jsonl(resolve(manifest["trajectories"]))
    splits = {k: [int(i) for i in v] for k, v in manifest.get("splits", {}).items()}
    dataset = Dataset(graph=graph, records=records, splits=splits)
    manifest["_resolved"] = {
        "graph": resolve(manifest["graph"]),
        "trajectories": resolve(manifest["trajectories"]),
        "prior": prior,
        "positions": positions,
        "true_costs": resolve(manifest["true_costs"]) if "true_costs" in manifest else None,
    }
    return dataset, manifest
