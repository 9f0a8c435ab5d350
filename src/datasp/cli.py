"""Command-line entry point.

Subcommands: gen, train, eval, sample-paths, predict-dest, verify.  `main`
is the one runner: it resolves the command's config (DEFAULTS below overlaid
with the --config file and --seed; all fields optional), creates --out, and
calls `cmd_<command>(config, out_dir)`.  Every command writes its canonical
JSON outputs, its fully-resolved `<command>_config.json` among them, through
`_write_json`, and is byte-reproducible for a fixed seed.  `main` maps errors
to exit codes: 0 success, 2 validation error (including unreadable files,
undecodable text and malformed JSON or binary input), 3 numerical failure,
4 verification failure.

`sample-paths` and `predict-dest` record the sha256 of their checkpoint.  It
is hashed on a worker thread, started once the checkpoint loads and joined
after the query's compute, before any output is written (`_query_matrix`).

`verify` checks the engine against the brute-force walk oracle on a bundled
4-node fixture (and optionally an extra small graph): the walk census, the
distances and shortcut tensor, the sampler, and the shortcut-loss gradient
as training takes it, from log P at the observed triples only.  Its
`num_samples` walks form one Monte-Carlo estimate that drives both sampling
checks, the per-walk frequency bands and the total variation.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import struct
import sys
import threading

import numpy as np

from .costmodel import predict_costs
from .engine import datasp_backward, datasp_forward_efficient
from .errors import (
    GenerationError,
    NoPathError,
    NumericalError,
    ValidationError,
    VerificationError,
    is_real,
)
from .graph import (
    block_slices,
    build_cost_matrix,
    complete_graph,
    graph_to_json_dict,
    load_graph_json,
)
from .inference import (
    destination_likelihood,
    exp_negative_distance_weights,
    jaccard_edges,
    match_rate,
    monte_carlo_path_distribution,
    optimal_cost_rate,
    expected_optimal_path,
)
from .oracle import (
    WalkEnumerator,
    engine_deviations,
    maxent_distribution,
    normwise_gradient_error,
    total_variation,
    walk_cost_census,
)
from .serialize import (
    canonical_json,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
)
from .smoothing import check_beta
from .synthetic import GeneratorConfig, assign_splits, generate_synthetic_dataset
from .trajectories import build_frequency_tensor, load_dataset, write_trajectories_jsonl
from .training import TrainConfig, predicted_paths, shortcut_loss, train_loop

# Hyperparameter profiles, the only valid values of train's "profile":
# "synthetic" (generated-route experiments) and "real" (taxi-style ones).
PROFILES = {
    "synthetic": {"learning_rate": 1e-4, "beta": 1.0, "batch_size": 16, "alpha": 1e-5},
    "real": {"learning_rate": 1e-4, "beta": 30.0, "batch_size": 32, "alpha": 1e-5,
             "keep_fraction": 0.2},
}

DEFAULTS = {
    "gen": {
        "seed": 0,
        "generator": {},           # GeneratorConfig fields
        "split_fractions": [0.8, 0.1, 0.1],
    },
    "train": {
        "seed": 0,
        "dataset": None,           # manifest path (required)
        "profile": "synthetic",    # a PROFILES key: "synthetic" or "real"
        "training": {},            # TrainConfig fields
        "keep_fraction": None,     # derives keep_count; a set keep_count must match
        "resume": None,            # checkpoint path
    },
    "eval": {
        "seed": 0,
        "dataset": None,
        "checkpoint": None,        # None evaluates only the prior baseline
        "split": "test",
    },
    "sample-paths": {
        "seed": 0,
        "graph": None,
        "checkpoint": None,        # None samples under the prior costs
        "context": None,           # the checkpoint's input; set only with a checkpoint
        "source": 0,
        "target": 1,
        "num_samples": 1000,
        "beta": 1.0,
        "reject_cycles": False,
    },
    "predict-dest": {
        "seed": 0,
        "graph": None,
        "checkpoint": None,        # None scores under the prior costs
        "context": None,           # the checkpoint's input; set only with a checkpoint
        "partial": None,
        "prior": {"kind": "uniform"},  # or "exp-negative-distance", or "custom" + "weights"
        "beta": 1.0,
    },
    "verify": {
        "seed": 0,
        "num_samples": 100000,     # Monte-Carlo draws; one estimate serves both
                                   # the frequency bands and the total variation
        "beta": 1.0,
        "graph": None,             # extra graph to check, besides the fixture; the
                                   # visitable walks of all its pairs must number at
                                   # most 1,000,000 (a 5-node generated graph fits,
                                   # a 6-node one does not)
        "tolerance": 1e-9,
        "tv_tolerance": 0.01,
        "gradcheck_tolerance": 1e-4,
    },
}


def _merge_config(defaults: dict, overrides: dict) -> dict:
    """Defaults overlaid with the user's file; unknown top-level keys are
    rejected (nested blocks are validated downstream, against dataclass
    fields or command-specific schemas)."""
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ValidationError(f"unknown config key {key!r}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            merged = dict(defaults[key])
            merged.update(value)
            out[key] = merged
        else:
            out[key] = value
    return out


# The file-path fields of a config, and the one each command requires.
PATH_FIELDS = ("dataset", "graph", "checkpoint", "resume")
REQUIRED_PATH = {"train": "dataset", "eval": "dataset", "sample-paths": "graph",
                 "predict-dest": "graph"}


def _load_config(args, command: str) -> dict:
    """The command's config: DEFAULTS overlaid with the user's file and the
    --seed flag.  The seed and every path field are checked here."""
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValidationError(f"config must be a JSON object, got {overrides!r}")
    config = _merge_config(DEFAULTS[command], overrides)
    if args.seed is not None:
        config["seed"] = args.seed
    seed = config["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    for name in PATH_FIELDS:
        value = config.get(name)
        if ((value is not None or REQUIRED_PATH.get(command) == name)
                and not (isinstance(value, str) and value)):
            raise ValidationError(f"{name} must be a non-empty path string, got {value!r}")
    return config


def _nested(config: dict, block: str, cls) -> dict:
    """A nested config block of `cls` fields.  Unknown fields, and a seed
    other than the run's, are rejected."""
    fields = config[block]
    if not isinstance(fields, dict):
        raise ValidationError(f"{block} must be an object, got {fields!r}")
    unknown = set(fields) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown {block} fields: {sorted(unknown)}")
    if "seed" in fields and fields["seed"] != config["seed"]:
        raise ValidationError(f"{block}.seed {fields['seed']!r} differs from the run's "
                              f"seed {config['seed']}; set the top-level seed instead")
    return fields


def _validated(block: str, checked, *args):
    """`checked.validate(*args)`, with the config block named in its error."""
    try:
        return checked.validate(*args)
    except ValidationError as exc:
        raise ValidationError(f"{block}: {exc}") from None


def _write_json(out_dir: str, name: str, doc) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def _node_index(value, num_nodes: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < num_nodes:
        raise ValidationError(f"{name} must be a node index in [0, {num_nodes}), got {value!r}")
    return value


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return value


def _positive_float(value, name: str) -> float:
    if not is_real(value) or value <= 0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


@contextlib.contextmanager
def _query_matrix(config, graph, prior):
    """A query's cost matrix, from a checkpoint + context or else the prior,
    and a dict whose "sha256" is the checkpoint's digest (None without one)
    once the block exits.

    The digest is hashed on a worker thread, started as soon as the
    checkpoint loads: `hashlib` releases the GIL on large buffers, so the
    hash runs beside the query's sweep.  The worker runs only the hash, and
    is joined when the block exits, on every path out of it.
    """
    digest = {"sha256": None}
    if config["checkpoint"] is None:
        if config["context"] is not None:
            raise ValidationError("context is read only with a checkpoint; set checkpoint "
                                  "or drop context")
        if prior is None:
            raise ValidationError("graph has neither prior costs nor node positions")
        yield build_cost_matrix(prior, graph), digest
        return
    checkpoint = load_checkpoint(config["checkpoint"])
    worker = threading.Thread(target=lambda: digest.update(sha256=checkpoint.sha256))
    worker.start()
    try:
        if checkpoint.params.edge_count != graph.num_edges:
            raise ValidationError("checkpoint edge count does not match graph")
        context = config["context"]
        if not isinstance(context, list) or not all(is_real(x) for x in context):
            raise ValidationError(f"a checkpoint needs a context list of finite numbers, "
                                  f"got {context!r}")
        costs, _ = predict_costs(checkpoint.params, np.asarray(context, dtype=float), prior)
        yield build_cost_matrix(costs, graph), digest
    finally:
        worker.join()


# ---------------------------------------------------------------------------
# gen


def cmd_gen(config: dict, out_dir: str) -> int:
    gen_fields = {**_nested(config, "generator", GeneratorConfig), "seed": config["seed"]}
    gen_config = _validated("generator", GeneratorConfig(**gen_fields))
    splits = assign_splits(gen_config.num_samples, config["split_fractions"])

    result = generate_synthetic_dataset(gen_config)
    _write_json(out_dir, "graph.json", graph_to_json_dict(result.graph, prior=result.prior,
                                                          positions=result.positions))
    write_trajectories_jsonl(os.path.join(out_dir, "trajectories.jsonl"), result.dataset)
    save_tensor(os.path.join(out_dir, "true_costs.bin"), result.true_costs)

    manifest = {
        "graph": "graph.json",
        "trajectories": "trajectories.jsonl",
        "true_costs": "true_costs.bin",
        "splits": splits,
        "pair_pool": [[s, t] for s, t in result.pair_pool],
        "provenance": {
            "command": "gen",
            "seed": config["seed"],
            "generator": {k: getattr(gen_config, k)
                          for k in GeneratorConfig.__dataclass_fields__},
        },
    }
    _write_json(out_dir, "manifest.json", manifest)
    _write_json(out_dir, "gen_config.json", config)
    print(f"gen: {result.graph.num_nodes} nodes, {result.graph.num_edges} edges, "
          f"{len(result.dataset.paths)} trajectories -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(config: dict, out_dir: str) -> int:
    dataset, _ = load_dataset(config["dataset"])

    name = config["profile"]
    if not isinstance(name, str) or name not in PROFILES:
        raise ValidationError(f"unknown profile {name!r}; known profiles: "
                              f"{', '.join(sorted(PROFILES))}")
    profile = dict(PROFILES[name])
    keep_fraction = profile.pop("keep_fraction", None)
    explicit_fraction = config["keep_fraction"] is not None
    if explicit_fraction:
        keep_fraction = config["keep_fraction"]
        if not (is_real(keep_fraction) and 0.0 < keep_fraction <= 1.0):
            raise ValidationError(f"keep_fraction must be a number in (0, 1], "
                                  f"got {keep_fraction!r}")
    fields = {**profile, **_nested(config, "training", TrainConfig), "seed": config["seed"]}
    train_config = TrainConfig(**fields)
    if keep_fraction is not None:
        # A profile's keep_fraction is a default that keep_count overrides;
        # a keep_fraction set in the config must agree with keep_count.
        keep = max(2, int(round(keep_fraction * dataset.graph.num_nodes)))
        if train_config.keep_count is None:
            train_config.keep_count = keep
        elif explicit_fraction and train_config.keep_count != keep:
            raise ValidationError(
                f"training.keep_count {train_config.keep_count!r} differs from the "
                f"{keep} nodes that keep_fraction {keep_fraction!r} keeps of "
                f"{dataset.graph.num_nodes}; set one of them")
    _validated("training", train_config, dataset.graph.num_nodes)
    config["training"] = {k: getattr(train_config, k)
                          for k in TrainConfig.__dataclass_fields__}

    initial_params, initial_step, initial_opt = None, 0, None
    if config["resume"] is not None:
        resume = load_checkpoint(config["resume"])
        initial_params, initial_step, initial_opt = resume.params, resume.step, resume.opt_state

    checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
    log_path = os.path.join(out_dir, "train_log.jsonl")
    result = train_loop(dataset, train_config,
                        checkpoint_path=checkpoint_path, log_path=log_path,
                        initial_params=initial_params, initial_opt_state=initial_opt,
                        initial_step=initial_step)
    final_path = os.path.join(out_dir, "final.bin")
    save_checkpoint(final_path, result.params, step=result.step, extra={},
                    opt_state=result.opt_state)
    _write_json(out_dir, "train_config.json", config)
    best = (f"best val jaccard {result.best_val_jaccard:.4f}" if dataset.splits.get("val")
            else "no validation split")
    print(f"train: {result.step - initial_step} steps, {best} -> {checkpoint_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _metric_rows(dataset, params, split, true_costs):
    """One metrics row per method.  Each distinct PRIOR (source, target) path
    and each record's true optimum is searched for once, by block: the
    matrices of one `block_slices` slice are built, searched and dropped
    before the next."""
    graph, prior = dataset.graph, dataset.prior
    indices = dataset.split_indices(split)
    if not indices:
        raise ValidationError(f"split {split!r} is empty")
    obs = [list(dataset.paths[idx]) for idx in indices]
    ends = [(path[0], path[-1]) for path in obs]
    distinct = list(dict.fromkeys(ends))
    prior_paths = {}
    for block in block_slices(len(distinct), graph.num_nodes):
        pairs = distinct[block]
        costs = np.broadcast_to(prior, (len(pairs), graph.num_edges))
        found = expected_optimal_path(costs, graph, pairs)
        prior_paths.update((end, path) for end, (path, _) in zip(pairs, found))
    methods = [("PRIOR", [prior_paths[end] for end in ends])]
    if params is not None:
        methods.append(("DataSP", predicted_paths(params, dataset, indices)))
    if true_costs is not None:
        optima = []
        for block in block_slices(len(indices), graph.num_nodes):
            optima += [cost for _, cost in
                       expected_optimal_path(true_costs[indices[block]], graph, ends[block])]
        record_costs = [true_costs[idx] for idx in indices]
    rows = []
    for name, preds in methods:
        jacc = [jaccard_edges(p, o) for p, o in zip(preds, obs)]
        rows.append({
            "method": name,
            "jaccard_mean": float(np.mean(jacc)),
            "jaccard_std": float(np.std(jacc)),
            "match_pct": 100.0 * match_rate(preds, obs),
            "optimal_cost_pct": (100.0 * optimal_cost_rate(preds, record_costs, graph, optima)
                                 if true_costs is not None else None),
            "n_test": len(indices),
        })
    return rows


def cmd_eval(config: dict, out_dir: str) -> int:
    if not isinstance(config["split"], str):
        raise ValidationError(f"split must be a split name, got {config['split']!r}")
    dataset, true_costs_path = load_dataset(config["dataset"])
    if dataset.prior is None:
        raise ValidationError("evaluation requires prior costs")
    params = None
    if config["checkpoint"] is not None:
        params = load_checkpoint(config["checkpoint"]).params
    true_costs = None
    if true_costs_path:
        true_costs = load_tensor(true_costs_path)
        expected = (len(dataset.paths), dataset.graph.num_edges)
        if true_costs.shape != expected:
            raise ValidationError(f"true costs have shape {true_costs.shape}, "
                                  f"expected {expected}")

    rows = _metric_rows(dataset, params, config["split"], true_costs)

    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("method,jaccard_mean,jaccard_std,match_pct,optimal_cost_pct,n_test\n")
        for row in rows:
            opt = "" if row["optimal_cost_pct"] is None else f"{row['optimal_cost_pct']:.4f}"
            fh.write(f"{row['method']},{row['jaccard_mean']:.6f},{row['jaccard_std']:.6f},"
                     f"{row['match_pct']:.4f},{opt},{row['n_test']}\n")
    _write_json(out_dir, "metrics.json", {"rows": rows, "split": config["split"]})
    _write_json(out_dir, "eval_config.json", config)
    for row in rows:
        print(f"eval[{row['method']}]: jaccard={row['jaccard_mean']:.4f} "
              f"match={row['match_pct']:.2f}% n={row['n_test']}")
    return 0


# ---------------------------------------------------------------------------
# sample-paths


def cmd_sample_paths(config: dict, out_dir: str) -> int:
    graph, prior, _ = load_graph_json(config["graph"])
    source = _node_index(config["source"], graph.num_nodes, "source")
    target = _node_index(config["target"], graph.num_nodes, "target")
    num_samples = _positive_int(config["num_samples"], "num_samples")
    if not isinstance(config["reject_cycles"], bool):
        raise ValidationError(f"reject_cycles must be true or false, "
                              f"got {config['reject_cycles']!r}")
    with _query_matrix(config, graph, prior) as (m, digest):
        rng = np.random.default_rng(config["seed"])
        estimate = monte_carlo_path_distribution(m, config["beta"], source, target,
                                                 num_samples, rng,
                                                 reject_cycles=config["reject_cycles"])
    samples_path = os.path.join(out_dir, "samples.jsonl")
    with open(samples_path, "w", encoding="utf-8") as fh:
        for walk in sorted(estimate.counts, key=lambda w: (-estimate.counts[w], w)):
            fh.write(json.dumps({"path": list(walk), "count": estimate.counts[walk],
                                 "freq": estimate.frequencies[walk]}, sort_keys=True) + "\n")
    _write_json(out_dir, "samples_meta.json", {
        "beta": config["beta"],
        "checkpoint_sha256": digest["sha256"],
        "sample_count": estimate.sample_count,
        "rejected_count": estimate.rejected_count,
        # The sampler cannot dead-end, so it never resamples; the key stays
        # because existing readers of samples_meta.json (the benchmark) use it.
        "resample_events": 0,
        "source": source,
        "target": target,
    })
    _write_json(out_dir, "sample_paths_config.json", config)
    print(f"sample-paths: {estimate.sample_count} accepted walks, "
          f"{len(estimate.frequencies)} distinct -> {samples_path}")
    return 0


# ---------------------------------------------------------------------------
# predict-dest

# The fields each destination prior kind reads; any other field is an error.
PRIOR_FIELDS = {"uniform": {"kind"}, "exp-negative-distance": {"kind"},
                "custom": {"kind", "weights"}}


def cmd_predict_dest(config: dict, out_dir: str) -> int:
    if not isinstance(config["partial"], list) or len(config["partial"]) < 2:
        raise ValidationError("predict-dest config requires a partial path of at least two nodes")
    prior_cfg = config["prior"]
    if not isinstance(prior_cfg, dict):
        raise ValidationError(f"prior must be an object with a 'kind', got {prior_cfg!r}")
    kind = prior_cfg.get("kind", "uniform")
    if not (isinstance(kind, str) and kind in PRIOR_FIELDS):
        raise ValidationError(f"unknown destination prior kind {kind!r}")
    unread = sorted(set(prior_cfg) - PRIOR_FIELDS[kind])
    if unread:
        raise ValidationError(f"prior field {', '.join(unread)} is not read by kind {kind!r}")

    graph, prior, _ = load_graph_json(config["graph"])
    partial = [_node_index(x, graph.num_nodes, "partial path node") for x in config["partial"]]
    with _query_matrix(config, graph, prior) as (m, digest):
        if kind == "uniform":
            weights = np.ones(graph.num_nodes)
        elif kind == "exp-negative-distance":
            weights = exp_negative_distance_weights(m, partial[-1])
        else:
            weights = prior_cfg.get("weights")
            if not isinstance(weights, list) or not all(is_real(w) for w in weights):
                raise ValidationError(f"a custom prior needs a 'weights' list of finite "
                                      f"numbers, got {weights!r}")
        probs = destination_likelihood(m, config["beta"], partial, weights)
    _write_json(out_dir, "destinations.json", {
        "probabilities": {str(node): float(prob) for node, prob in enumerate(probs)
                          if prob > 0},
        "prior": {"kind": kind, "weights": [float(w) for w in weights]},
        "partial": partial,
        "beta": config["beta"],
        "checkpoint_sha256": digest["sha256"],
    })
    _write_json(out_dir, "predict_dest_config.json", config)
    top = max(range(len(probs)), key=lambda n: probs[n])
    print(f"predict-dest: top destination {top} (p={probs[top]:.4f})")
    return 0


# ---------------------------------------------------------------------------
# verify

# Walk census of the bundled fixture (complete 4-node graph, cost |i - j|,
# pair 0 -> 3): cost -> multiplicity, for all 21 visitable walks.  The
# sampling-frequency check compares the walks of cost 3 and 5 against
# theory, each cost with its tolerance band.
FIXTURE_CENSUS = {3.0: 4, 5.0: 4, 7.0: 7, 9.0: 5, 11.0: 1}
FIXTURE_FREQUENCY_BANDS = {3.0: 0.02, 5.0: 0.01}


def cmd_verify(config: dict, out_dir: str) -> int:
    beta = check_beta(config["beta"])
    tol, tv_tol, grad_tol = (_positive_float(config[name], name) for name in
                             ("tolerance", "tv_tolerance", "gradcheck_tolerance"))
    num_samples = _positive_int(config["num_samples"], "num_samples")
    checks: dict = {}

    def check(name, ok, **fields):
        checks[name] = {**fields, "ok": bool(ok)}

    graph = complete_graph(4)
    m = build_cost_matrix([abs(u - v) for u, v in graph.edges], graph)
    fixture = WalkEnumerator(m)
    walks = fixture.walks(0, 3)
    census = walk_cost_census(walks)
    check("walk_census", census == FIXTURE_CENSUS,
          tabulated={str(k): v for k, v in sorted(census.items())},
          expected={str(k): v for k, v in sorted(FIXTURE_CENSUS.items())})

    distance_dev, shortcut_dev = engine_deviations(fixture, beta)
    check("distance_consistency", distance_dev <= tol, max_deviation=distance_dev)
    check("shortcut_consistency", shortcut_dev <= tol, max_deviation=shortcut_dev)

    # One Monte-Carlo estimate serves the per-walk bands and the total variation.
    theory = maxent_distribution(walks, beta)
    observed = monte_carlo_path_distribution(m, beta, 0, 3, num_samples,
                                             np.random.default_rng(config["seed"])).frequencies
    cost = {w.nodes: w.cost for w in walks}
    bands = [{"walk": list(walk), "theory": prob, "observed": observed.get(walk, 0.0),
              "tolerance": FIXTURE_FREQUENCY_BANDS[cost[walk]]}
             for walk, prob in sorted(theory.items(), key=lambda kv: -kv[1])
             if cost[walk] in FIXTURE_FREQUENCY_BANDS]
    for band in bands:
        band["ok"] = abs(band["observed"] - band["theory"]) <= band["tolerance"]
    check("sampling_frequencies", all(band["ok"] for band in bands), walks=bands)
    tv = total_variation(theory, observed)
    check("sampling_total_variation", tv <= tv_tol, tv=tv)

    grad_err = _verify_gradients(m, beta)
    check("gradients", grad_err <= grad_tol, max_relative_error=grad_err)

    if config["graph"] is not None:
        extra_graph, extra_prior, _ = load_graph_json(config["graph"])
        if extra_prior is None:
            raise ValidationError("extra verification graph needs prior costs")
        d1, d2 = engine_deviations(WalkEnumerator(build_cost_matrix(extra_prior, extra_graph)),
                                   beta)
        check("extra_graph", d1 <= tol and d2 <= tol, distance=d1, shortcut=d2)

    failures = [name for name, result in checks.items() if not result["ok"]]
    _write_json(out_dir, "verify_report.json",
                {"beta": beta, "checks": checks, "ok": not failures, "failures": failures})
    _write_json(out_dir, "verify_config.json", config)
    for name, result in checks.items():
        print(f"verify[{name}]: {'PASS' if result['ok'] else 'FAIL'}")
    if failures:
        raise VerificationError(f"verification failed: {', '.join(failures)}")
    print("verify: all checks passed")
    return 0


def _verify_gradients(m, beta) -> float:
    """Normwise relative error of the shortcut-loss gradient on `m`, taken
    as training takes it: log P and its adjoint at the observed triples only."""
    freq = build_frequency_tensor([(0, 1, 2, 3), (0, 2, 3), (0, 3)])

    def loss_of(matrix):
        log_p, _, _ = datasp_forward_efficient(matrix, beta, at=freq.triples)
        value, _, _ = shortcut_loss(log_p, freq)
        return value

    log_p, dist, tape = datasp_forward_efficient(m, beta, at=freq.triples)
    _, grad_log_p, _ = shortcut_loss(log_p, freq)
    grad_m = datasp_backward(tape, grad_log_p, np.zeros_like(dist))
    return normwise_gradient_error(loss_of, grad_m, m, step=1e-5)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datasp",
        description="Learn latent edge costs from trajectories and sample "
                    "max-entropy paths with a differentiable shortest-path engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in [
        ("gen", cmd_gen),
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("sample-paths", cmd_sample_paths),
        ("predict-dest", cmd_predict_dest),
        ("verify", cmd_verify),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
    return parser


# What `main` reports as exit 2: invalid or unreadable input.
INPUT_ERRORS = (ValidationError, GenerationError, NoPathError, OSError,
                json.JSONDecodeError, UnicodeDecodeError, struct.error)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args, args.command)
        os.makedirs(args.out, exist_ok=True)
        return args.func(config, args.out)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
