"""The benchmark's traced layer functions still resolve where their callers
look them up.

perfbench/spans.py rebinds each function of perfbench/spec.py `LAYERS` at
the module global its caller reads (`datasp.training`, `datasp.cli`, ...).
A rename or a moved call there would otherwise only show in the slower
`python3 -m pytest -q perfbench` run.  The same holds for the observers in
perfbench/spans.py `OBSERVERS`, which read fields of their functions'
arguments and results, and for the searches of gen and eval, which must
still go through the names the bench wraps.
"""

import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path

import datasp.cli
import datasp.synthetic
import datasp.training
from datasp.costmodel import init_params
from datasp.engine import datasp_forward_efficient
from datasp.graph import build_cost_matrix, complete_graph, load_graph_json, sample_subgraph
from datasp.serialize import save_checkpoint
from datasp.training import shortcut_loss
from datasp.trajectories import build_frequency_tensor

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_bench_layer_resolves_at_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.import_module("spec")
    spans = importlib.import_module("spans")
    missing = [f"{layer}.{function}" for layer, function, _ in spec.LAYERS
               if not spans._sites(layer, function)]
    assert not missing, f"no caller binds {missing}"


def test_bench_observers_count_real_results(monkeypatch):
    # Each observer reads its function's positional arguments and result as
    # a training step passes and gets them; a changed field or return value
    # shows here as a wrong count.
    monkeypatch.syspath_prepend(str(BENCH))
    observers = importlib.import_module("spans").OBSERVERS
    graph = complete_graph(6)
    m = build_cost_matrix([abs(u - v) for u, v in graph.edges], graph)
    beta = 30.0
    kept = [0, 2, 3, 5]
    comp = sample_subgraph(graph, m, kept, beta)
    paths = [(0, 1, 3), (0, 2, 1, 3)]
    freq = build_frequency_tensor(paths)
    p, _, _ = datasp_forward_efficient(comp.matrix, beta)
    calls = {
        "graph.sample_subgraph": ((graph, m, kept, beta), comp),
        "trajectories.build_frequency_tensor": ((paths,), freq),
        "training.shortcut_loss": ((p, freq), shortcut_loss(p, freq)),
    }
    assert set(calls) == set(observers)

    counts = defaultdict(float)
    for name, (args, result) in calls.items():
        observers[name](counts, args, result)
    # nodes 1 and 4 removed; 6 decomposition pairs with 8 observed slots, of
    # which the two backtracking legs of (0, 2, 1, 3) floor at beta = 30
    assert counts == {"removed_nodes": 2, "paths": 2, "pairs": 6,
                      "observed_terms": 8, "floored_terms": 2}


def test_gen_and_eval_search_through_the_traced_names(tmp_path, monkeypatch):
    # The bench times gen's searches at `datasp.synthetic.dijkstra` and eval's
    # at the callers' `expected_optimal_path`; a search that bypassed those
    # names would drop out of its span unnoticed.
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(datasp.synthetic, "dijkstra")
    counted(datasp.training, "expected_optimal_path")
    counted(datasp.cli, "expected_optimal_path")

    def run(command, config):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        assert datasp.cli.main([command, "--config", str(path),
                                "--out", str(tmp_path / command)]) == 0

    run("gen", {"generator": {"num_nodes": 10, "num_samples": 20, "feature_dim": 3}})
    graph, _, _ = load_graph_json(tmp_path / "gen" / "graph.json")
    checkpoint = tmp_path / "init.bin"
    save_checkpoint(checkpoint, init_params(3, [4], graph.num_edges, seed=0))
    run("eval", {"dataset": str(tmp_path / "gen" / "manifest.json"),
                 "checkpoint": str(checkpoint)})
    assert set(calls) == {"datasp.synthetic.dijkstra", "datasp.training.expected_optimal_path",
                          "datasp.cli.expected_optimal_path"}
