"""Trajectory ingestion, context similarity and encoding.

A `Dataset` is the one in-memory form of a dataset, validated once when it
is built:

- `graph`: the `Graph` the trajectories run on;
- `paths`: one trajectory per record, a tuple of node ids along edges of
  the graph; a path may revisit a node, but `training.train_loop` rejects
  a train-split record that does (the encoding needs cycle-free paths);
- `features`: (N, F) float64 context features, one row per path;
- `discrete`: (N, Dd) int64 discrete context values, one row per path, or
  None;
- `prior`: one prior cost per edge of the graph, or None;
- `splits`: split name -> record indices in [0, N).

On disk a dataset is a manifest JSON, {"graph": path, "trajectories": path,
"true_costs": path (optional), "splits": {name: [index, ...]}, ...}, whose
relative paths resolve against the manifest's directory.  The graph file is
the document `graph.graph_from_json_dict` reads, and it gives the prior.
The trajectories file is JSONL with one record per line, in the order of
the record indices:

    {"context": [float, ...], "path": [int, ...], "discrete": [int, ...]}

"discrete" is optional, but must be on every record or on none, all of one
length; every "context" has the same length.  Node ids are JSON integers.

Context similarity is one vectorised distance per anchor over the context
matrices.  Observed paths are encoded as shortcut frequencies: for every
ordered pair of positions (a, b) in a cycle-free node sequence, the highest
node strictly between them is counted (or the source itself for an
adjacent pair, marking a direct connection).  Normalizing the counts per
(i, j) yields the sparse empirical counterpart F of the engine's shortcut
tensor P.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, is_int, is_real
from .graph import Graph, load_graph_json


@dataclass
class Dataset:
    graph: Graph
    paths: list[tuple[int, ...]]
    features: np.ndarray
    discrete: np.ndarray | None = None
    prior: np.ndarray | None = None
    splits: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        self.paths = [validate_trajectory(path, self.graph) for path in self.paths]
        n = len(self.paths)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError(f"features must be a matrix with one row per path "
                                  f"({n}), got shape {self.features.shape}")
        if self.discrete is not None:
            self.discrete = np.asarray(self.discrete, dtype=np.int64)
            if self.discrete.ndim != 2 or self.discrete.shape[0] != n:
                raise ValidationError(f"discrete must be a matrix with one row per path "
                                      f"({n}), got shape {self.discrete.shape}")
        if self.prior is not None:
            self.prior = np.asarray(self.prior, dtype=np.float64)
            if self.prior.shape != (self.graph.num_edges,):
                raise ValidationError(f"expected {self.graph.num_edges} prior costs, "
                                      f"got shape {self.prior.shape}")
        for name, indices in self.splits.items():
            if any(not 0 <= i < n for i in indices):
                raise ValidationError(f"split {name!r} has an index outside [0, {n})")

    def split_indices(self, name: str) -> list[int]:
        if name in self.splits:
            return self.splits[name]
        if not self.splits:
            return list(range(len(self.paths)))
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

    frequencies maps each observed pair (i, j) -> {k: frequency}, each
    inner map summing to 1.  triples = (i, j, k) are index arrays of its
    slots with a positive frequency, in the iteration order of frequencies,
    and weights their frequencies: the shape in which the training loss
    reads log P (`engine.datasp_forward_efficient(..., at=triples)`).
    """

    def __init__(self, frequencies: dict[tuple[int, int], dict[int, float]]):
        self.frequencies = frequencies
        slots = [(i, j, k, f) for (i, j), row in frequencies.items()
                 for k, f in row.items() if f > 0.0]
        self.triples = tuple(np.array([slot[axis] for slot in slots], dtype=np.intp)
                             for axis in range(3))
        self.weights = np.array([slot[3] for slot in slots], dtype=float)


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


def apply_node_exclusion_to_path(path, node_map) -> tuple[int, ...] | None:
    """Drop removed nodes (node_map -1) and remap the survivors to their
    compressed indices.

    Returns None ("dropped") when fewer than two nodes survive.
    """
    kept = tuple(k for k in (int(node_map[x]) for x in path) if k >= 0)
    return kept if len(kept) >= 2 else None


def similar_indices(dataset: Dataset, anchor_index: int, fraction: float,
                    candidate_indices) -> list[int]:
    """Indices of the ceil(fraction * N) candidates nearest to the anchor.

    The distance is the Euclidean distance between features, sqrt(d . d) of
    their difference d (the same bits as `np.linalg.norm(d)`), plus the
    Hamming distance between discrete vectors.  Ties go by candidate order.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    if not dataset.paths:
        raise ValidationError("empty dataset")
    count = int(np.ceil(fraction * len(candidate_indices)))
    diff = dataset.features[candidate_indices] - dataset.features[anchor_index]
    dists = np.sqrt(np.vecdot(diff, diff))
    if dataset.discrete is not None:
        dists += (dataset.discrete[candidate_indices]
                  != dataset.discrete[anchor_index]).sum(axis=1)
    order = np.argsort(dists, kind="stable")[:count]
    return [candidate_indices[int(x)] for x in order]


def node_visit_frequencies(dataset: Dataset, indices) -> np.ndarray:
    """How often each node appears across the trajectories at `indices`."""
    freqs = np.zeros(dataset.graph.num_nodes)
    for idx in indices:
        for node in dataset.paths[idx]:
            freqs[node] += 1.0
    return freqs


# ---------------------------------------------------------------------------
# JSONL trajectory files and dataset manifests


def write_trajectories_jsonl(path, dataset: Dataset) -> None:
    """Write the dataset's records in the JSONL schema of the module docstring."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, nodes in enumerate(dataset.paths):
            doc = {"context": dataset.features[idx].tolist(), "path": list(nodes)}
            if dataset.discrete is not None:
                doc["discrete"] = dataset.discrete[idx].tolist()
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(is_int(x) and -2**63 <= x < 2**63 for x in value):
        raise ValidationError(f"{what} must be a list of 64-bit integers, got {value!r}")
    return value


def load_dataset(manifest_path) -> tuple[Dataset, str | None]:
    """Load a dataset from its manifest (schema in the module docstring).

    Returns (dataset, path of the manifest's true costs or None).
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValidationError("a dataset manifest must be a JSON object")
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(key):
        if not isinstance(manifest.get(key), str):
            raise ValidationError(f"manifest {key!r} must be a file path, "
                                  f"got {manifest.get(key)!r}")
        return os.path.join(base, manifest[key])

    graph, prior, _ = load_graph_json(resolve("graph"))
    splits = manifest.get("splits", {})
    if not isinstance(splits, dict):
        raise ValidationError(f"manifest splits must be an object, got {splits!r}")
    splits = {name: _int_list(indices, f"split {name!r}") for name, indices in splits.items()}

    paths, contexts, discretes = [], [], []
    trajectories = resolve("trajectories")
    with open(trajectories, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            doc = json.loads(line)
            where = f"{trajectories}:{lineno}"
            if not isinstance(doc, dict) or "path" not in doc or "context" not in doc:
                raise ValidationError(f"{where}: a trajectory record needs a path and a context")
            paths.append(_int_list(doc["path"], f"{where}: path"))
            context = doc["context"]
            if not isinstance(context, list) or not all(is_real(x) for x in context):
                raise ValidationError(f"{where}: context must be a list of finite numbers")
            contexts.append(context)
            discrete = doc.get("discrete")
            discretes.append(None if discrete is None
                             else _int_list(discrete, f"{where}: discrete"))
    if len({len(c) for c in contexts}) > 1:
        raise ValidationError("context feature dimensions differ within dataset")
    if len({None if d is None else len(d) for d in discretes}) > 1:
        raise ValidationError("discrete context vectors must be on every record or "
                              "on none, all of one length")
    features = np.array(contexts, dtype=np.float64) if contexts else np.zeros((0, 0))
    discrete = (np.array(discretes, dtype=np.int64)
                if discretes and discretes[0] is not None else None)
    dataset = Dataset(graph=graph, paths=paths, features=features, discrete=discrete,
                      prior=prior, splits=splits)
    return dataset, resolve("true_costs") if manifest.get("true_costs") is not None else None
