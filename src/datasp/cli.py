"""Command-line entry point.

Subcommands: gen, train, eval, sample-paths, predict-dest, verify.  Every
command reads a JSON config (all fields optional, defaults documented in
DEFAULTS below), writes its fully-resolved config next to its outputs, and
is byte-reproducible for a fixed seed.  Exit codes: 0 success, 2 validation
error (including unreadable files and malformed JSON or binary input),
3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import struct
import sys

import numpy as np

from .costmodel import init_params, predict_costs
from .engine import datasp_forward_efficient, sweep
from .errors import (
    GenerationError,
    NoPathError,
    NumericalError,
    ValidationError,
    VerificationError,
)
from .graph import (
    build_cost_matrix,
    graph_to_json_dict,
    load_graph_json,
)
from .inference import (
    DestinationPrior,
    destination_likelihood,
    jaccard_edges,
    match_rate,
    monte_carlo_path_distribution,
    optimal_cost_rate,
    expected_optimal_path,
    swap_nodes_in_matrix,
)
from .oracle import (
    enumerate_visitable_walks,
    finite_difference_gradcheck,
    maxent_distribution,
    sampler_total_variation,
    verify_distance_consistency,
    verify_shortcut_consistency,
    walk_cost_census,
)
from .serialize import (
    canonical_json,
    file_sha256,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
)
from .synthetic import GeneratorConfig, assign_splits, generate_synthetic_dataset
from .trajectories import load_dataset, write_trajectories_jsonl
from .training import TrainConfig, evaluate_jaccard, init_params_for, train_loop

# Hyperparameter profiles; "synthetic" mirrors the defaults used for the
# generated-route experiments, "real" the taxi-style ones.
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
        "profile": "synthetic",
        "training": {},            # TrainConfig fields
        "keep_fraction": None,     # overrides keep_count when set
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
        "context": None,
        "source": 0,
        "target": 1,
        "num_samples": 1000,
        "beta": 1.0,
        "reject_cycles": False,
    },
    "predict-dest": {
        "seed": 0,
        "graph": None,
        "checkpoint": None,
        "context": None,
        "partial": None,
        "prior": {"kind": "uniform"},
        "beta": 1.0,
    },
    "verify": {
        "seed": 0,
        "num_samples": 10000,      # Monte-Carlo draws for the frequency table
        "tv_num_samples": 100000,  # draws for the total-variation check
        "beta": 1.0,
        "graph": None,             # extra graph to check, besides the fixture
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


def _load_config(args, command: str) -> dict:
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    config = _merge_config(DEFAULTS[command], overrides)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _write_resolved(config: dict, out_dir: str, command: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    name = command.replace("-", "_") + "_config.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(config))


def _node_index(value, num_nodes: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < num_nodes:
        raise ValidationError(f"{name} must be a node index in [0, {num_nodes}), got {value!r}")
    return value


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return value


def _model_costs(config, graph, prior, out_meta: dict):
    """Edge costs from a checkpoint + context, or the prior when absent."""
    if config.get("checkpoint"):
        params, _, _, _ = load_checkpoint(config["checkpoint"])
        if params.edge_count != graph.num_edges:
            raise ValidationError("checkpoint edge count does not match graph")
        context = config.get("context")
        if context is None:
            raise ValidationError("a context vector is required with a checkpoint")
        costs, _ = predict_costs(params, np.asarray(context, dtype=float), prior)
        out_meta["checkpoint_sha256"] = file_sha256(config["checkpoint"])
        return costs
    if prior is None:
        raise ValidationError("graph has neither prior costs nor node positions")
    out_meta["checkpoint_sha256"] = None
    return prior.copy()


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    config = _load_config(args, "gen")
    out_dir = args.out
    gen_fields = dict(config["generator"])
    gen_fields["seed"] = config["seed"]
    known = {f for f in GeneratorConfig.__dataclass_fields__}
    unknown = set(gen_fields) - known
    if unknown:
        raise ValidationError(f"unknown generator fields: {sorted(unknown)}")
    gen_config = GeneratorConfig(**gen_fields)

    result = generate_synthetic_dataset(gen_config)
    os.makedirs(out_dir, exist_ok=True)

    graph_path = os.path.join(out_dir, "graph.json")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(graph_to_json_dict(result.graph, prior=result.prior,
                                                   positions=result.positions)))
    traj_path = os.path.join(out_dir, "trajectories.jsonl")
    write_trajectories_jsonl(traj_path, result.dataset.records)
    costs_path = os.path.join(out_dir, "true_costs.bin")
    save_tensor(costs_path, result.true_costs)

    splits = assign_splits(len(result.dataset.records), tuple(config["split_fractions"]))
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
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest))
    _write_resolved(config, out_dir, "gen")
    print(f"gen: {result.graph.num_nodes} nodes, {result.graph.num_edges} edges, "
          f"{len(result.dataset.records)} trajectories -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    config = _load_config(args, "train")
    if not config["dataset"]:
        raise ValidationError("train config requires a dataset manifest path")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    dataset, manifest = load_dataset(config["dataset"])
    prior = manifest["_resolved"]["prior"]
    if prior is None:
        raise ValidationError("training requires prior costs (or node positions)")

    profile = dict(PROFILES.get(config["profile"], {}))
    keep_fraction = config.get("keep_fraction")
    if keep_fraction is None:
        keep_fraction = profile.pop("keep_fraction", None)
    else:
        profile.pop("keep_fraction", None)
    fields = dict(profile)
    fields.update(config["training"])
    fields["seed"] = config["seed"]
    known = {f for f in TrainConfig.__dataclass_fields__}
    unknown = set(fields) - known
    if unknown:
        raise ValidationError(f"unknown training fields: {sorted(unknown)}")
    train_config = TrainConfig(**fields)
    if keep_fraction is not None and train_config.keep_count is None:
        train_config.keep_count = max(2, int(round(keep_fraction * dataset.graph.num_nodes)))
    config["training"] = {k: getattr(train_config, k)
                          for k in TrainConfig.__dataclass_fields__}

    initial_params = None
    initial_opt = None
    initial_step = 0
    if config.get("resume"):
        from .training import AdamState

        initial_params, initial_step, _, opt = load_checkpoint(config["resume"])
        if opt is not None:
            initial_opt = AdamState(m=opt["m"], v=opt["v"], t=opt["t"])

    checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
    log_path = os.path.join(out_dir, "train_log.jsonl")
    _write_resolved(config, out_dir, "train")
    result = train_loop(dataset, dataset.graph, prior, train_config,
                        checkpoint_path=checkpoint_path, log_path=log_path,
                        initial_params=initial_params, initial_opt_state=initial_opt,
                        initial_step=initial_step)
    final_path = os.path.join(out_dir, "final.bin")
    save_checkpoint(final_path, result.params, step=result.step, extra={},
                    opt_state={"m": result.opt_state.m, "v": result.opt_state.v,
                               "t": result.opt_state.t})
    print(f"train: {result.step - initial_step} steps, "
          f"best val jaccard {result.best_val_jaccard:.4f} -> {checkpoint_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _metric_rows(dataset, graph, prior, params, split, true_costs):
    indices = dataset.split_indices(split)
    if not indices:
        raise ValidationError(f"split {split!r} is empty")
    rows = []
    methods = [("PRIOR", None)]
    if params is not None:
        methods.append(("DataSP", params))
    for name, model in methods:
        preds = []
        obs = []
        matrices = []
        for idx in indices:
            rec = dataset.records[idx]
            costs = prior if model is None else predict_costs(model, rec.context.features, prior)[0]
            pred, _ = expected_optimal_path(costs, graph, rec.path[0], rec.path[-1])
            if pred is None:
                raise NoPathError(f"pair in record {idx} unreachable under {name} costs")
            preds.append(pred)
            obs.append(list(rec.path))
            if true_costs is not None:
                matrices.append(build_cost_matrix(true_costs[idx], graph))
        jacc = [jaccard_edges(p, o) for p, o in zip(preds, obs)]
        row = {
            "method": name,
            "jaccard_mean": float(np.mean(jacc)),
            "jaccard_std": float(np.std(jacc)),
            "match_pct": 100.0 * match_rate(preds, obs),
            "optimal_cost_pct": (100.0 * optimal_cost_rate(preds, matrices)
                                 if true_costs is not None else None),
            "n_test": len(indices),
        }
        rows.append(row)
    return rows


def cmd_eval(args) -> int:
    config = _load_config(args, "eval")
    if not config["dataset"]:
        raise ValidationError("eval config requires a dataset manifest path")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    dataset, manifest = load_dataset(config["dataset"])
    prior = manifest["_resolved"]["prior"]
    if prior is None:
        raise ValidationError("evaluation requires prior costs")
    params = None
    if config.get("checkpoint"):
        params, _, _, _ = load_checkpoint(config["checkpoint"])
    true_costs = None
    if manifest["_resolved"].get("true_costs"):
        true_costs = load_tensor(manifest["_resolved"]["true_costs"])

    rows = _metric_rows(dataset, dataset.graph, prior, params, config["split"],
                        true_costs)

    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("method,jaccard_mean,jaccard_std,match_pct,optimal_cost_pct,n_test\n")
        for row in rows:
            opt = "" if row["optimal_cost_pct"] is None else f"{row['optimal_cost_pct']:.4f}"
            fh.write(f"{row['method']},{row['jaccard_mean']:.6f},{row['jaccard_std']:.6f},"
                     f"{row['match_pct']:.4f},{opt},{row['n_test']}\n")
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json({"rows": rows, "split": config["split"]}))
    _write_resolved(config, out_dir, "eval")
    for row in rows:
        print(f"eval[{row['method']}]: jaccard={row['jaccard_mean']:.4f} "
              f"match={row['match_pct']:.2f}% n={row['n_test']}")
    return 0


# ---------------------------------------------------------------------------
# sample-paths


def cmd_sample_paths(args) -> int:
    config = _load_config(args, "sample-paths")
    if not config["graph"]:
        raise ValidationError("sample-paths config requires a graph path")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    graph, prior, _ = load_graph_json(config["graph"])
    source = _node_index(config["source"], graph.num_nodes, "source")
    target = _node_index(config["target"], graph.num_nodes, "target")
    num_samples = _positive_int(config["num_samples"], "num_samples")
    meta: dict = {"beta": config["beta"]}
    costs = _model_costs(config, graph, prior, meta)
    tape = sweep(build_cost_matrix(costs, graph), config["beta"])

    rng = np.random.default_rng(config["seed"])
    estimate = monte_carlo_path_distribution(
        tape, source, target, num_samples, rng, reject_cycles=bool(config["reject_cycles"]),
    )
    samples_path = os.path.join(out_dir, "samples.jsonl")
    with open(samples_path, "w", encoding="utf-8") as fh:
        for walk in sorted(estimate.frequencies, key=lambda w: (-estimate.frequencies[w], w)):
            freq = estimate.frequencies[walk]
            count = round(freq * estimate.sample_count)
            fh.write(json.dumps({"path": list(walk), "count": int(count),
                                 "freq": freq}, sort_keys=True) + "\n")
    meta.update({
        "sample_count": estimate.sample_count,
        "rejected_count": estimate.rejected_count,
        # The sampler cannot dead-end, so it never resamples; the key stays
        # because existing readers of samples_meta.json (the benchmark) use it.
        "resample_events": 0,
        "source": source,
        "target": target,
    })
    with open(os.path.join(out_dir, "samples_meta.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(meta))
    _write_resolved(config, out_dir, "sample-paths")
    print(f"sample-paths: {estimate.sample_count} accepted walks, "
          f"{len(estimate.frequencies)} distinct -> {samples_path}")
    return 0


# ---------------------------------------------------------------------------
# predict-dest


def cmd_predict_dest(args) -> int:
    config = _load_config(args, "predict-dest")
    if not config["graph"]:
        raise ValidationError("predict-dest config requires a graph path")
    if not isinstance(config["partial"], list) or len(config["partial"]) < 2:
        raise ValidationError("predict-dest config requires a partial path of at least two nodes")
    prior_cfg = config["prior"]
    if not isinstance(prior_cfg, dict):
        raise ValidationError(f"prior must be an object with a 'kind', got {prior_cfg!r}")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    graph, prior, _ = load_graph_json(config["graph"])
    partial = [_node_index(x, graph.num_nodes, "partial path node") for x in config["partial"]]
    current = partial[-1]
    meta: dict = {"beta": config["beta"]}
    costs = _model_costs(config, graph, prior, meta)
    m = build_cost_matrix(costs, graph)

    kind = prior_cfg.get("kind", "uniform")
    if kind == "uniform":
        dest_prior = DestinationPrior.uniform(graph.num_nodes)
    elif kind == "exp-negative-distance":
        dest_prior = DestinationPrior.exp_negative_distance(m, current)
    elif kind == "custom":
        if "weights" not in prior_cfg:
            raise ValidationError("a custom prior needs a 'weights' list")
        dest_prior = DestinationPrior(weights=prior_cfg["weights"])
    else:
        raise ValidationError(f"unknown destination prior kind {kind!r}")

    tape = sweep(swap_nodes_in_matrix(m, current, graph.num_nodes - 1), config["beta"])
    probs = destination_likelihood(tape, partial, dest_prior)
    doc = {
        "probabilities": {str(node): float(prob) for node, prob in enumerate(probs)
                          if prob > 0},
        "prior": {"kind": dest_prior.kind,
                  "weights": [float(w) for w in dest_prior.weights]},
        "partial": partial,
        "beta": config["beta"],
        "checkpoint_sha256": meta.get("checkpoint_sha256"),
    }
    with open(os.path.join(out_dir, "destinations.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    _write_resolved(config, out_dir, "predict-dest")
    top = max(range(len(probs)), key=lambda n: probs[n])
    print(f"predict-dest: top destination {top} (p={probs[top]:.4f})")
    return 0


# ---------------------------------------------------------------------------
# verify

# Walk table for the bundled fixture (complete 4-node graph, cost |i - j|,
# beta 1, pair 0 -> 3): cost -> multiplicity for every walk of cost <= 9.
FIXTURE_CENSUS = {3.0: 4, 5.0: 4, 7.0: 7, 9.0: 5}
FIXTURE_DIRECT_PROB = 0.2136
FIXTURE_COST5_PROB = 0.0289


def _fixture_matrix():
    from .graph import complete_graph

    graph = complete_graph(4)
    costs = [abs(u - v) for u, v in graph.edges]
    return build_cost_matrix(costs, graph)


def cmd_verify(args) -> int:
    config = _load_config(args, "verify")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    beta = float(config["beta"])
    tol = float(config["tolerance"])
    report: dict = {"beta": beta, "checks": {}}
    failures = []

    m = _fixture_matrix()
    walks = enumerate_visitable_walks(m, 0, 3)
    census = walk_cost_census(walks)
    tabulated = {c: n for c, n in census.items() if c <= 9.0}
    extra_walks = [w for w in walks if w.cost > 9.0]
    theory = maxent_distribution(walks, beta)
    extra_mass = sum(theory[w.nodes] for w in extra_walks)
    census_ok = tabulated == FIXTURE_CENSUS
    report["checks"]["walk_census"] = {
        "tabulated": {str(k): v for k, v in sorted(tabulated.items())},
        "expected": {str(k): v for k, v in sorted(FIXTURE_CENSUS.items())},
        "extra_walks": [list(w.nodes) for w in extra_walks],
        "extra_mass": float(extra_mass),
        "ok": bool(census_ok and extra_mass < 1e-4),
    }
    if not report["checks"]["walk_census"]["ok"]:
        failures.append("walk_census")

    dev1 = verify_distance_consistency(m, beta)
    dev2 = verify_shortcut_consistency(m, beta)
    report["checks"]["distance_consistency"] = {"max_deviation": float(dev1),
                                            "ok": bool(dev1 <= tol)}
    report["checks"]["shortcut_consistency"] = {"max_deviation": float(dev2),
                                                "ok": bool(dev2 <= tol)}
    if dev1 > tol:
        failures.append("distance_consistency")
    if dev2 > tol:
        failures.append("shortcut_consistency")

    tape = sweep(m, beta)
    rng = np.random.default_rng(config["seed"])
    estimate = monte_carlo_path_distribution(
        tape, 0, 3, _positive_int(config["num_samples"], "num_samples"), rng)
    freq_checks = []
    ok_freq = True
    for walk, prob in sorted(theory.items(), key=lambda kv: -kv[1]):
        if abs(prob - FIXTURE_DIRECT_PROB) < 5e-4:
            tol_band = 0.02
        elif abs(prob - FIXTURE_COST5_PROB) < 5e-4:
            tol_band = 0.01
        else:
            continue
        observed = estimate.frequencies.get(walk, 0.0)
        good = abs(observed - prob) <= tol_band
        ok_freq = ok_freq and bool(good)
        freq_checks.append({"walk": list(walk), "theory": float(prob),
                            "observed": float(observed),
                            "tolerance": tol_band, "ok": bool(good)})
    report["checks"]["sampling_frequencies"] = {"walks": freq_checks, "ok": bool(ok_freq)}
    if not ok_freq:
        failures.append("sampling_frequencies")

    tv = sampler_total_variation(tape, 0, 3,
                                 _positive_int(config["tv_num_samples"], "tv_num_samples"),
                                 np.random.default_rng([config["seed"], 1]))
    tv_ok = tv <= float(config["tv_tolerance"])
    report["checks"]["sampling_total_variation"] = {"tv": float(tv), "ok": bool(tv_ok)}
    if not tv_ok:
        failures.append("sampling_total_variation")

    grad_err = _verify_gradients(m, beta)
    grad_ok = grad_err <= float(config["gradcheck_tolerance"])
    report["checks"]["gradients"] = {"max_relative_error": float(grad_err),
                                 "ok": bool(grad_ok)}
    if not grad_ok:
        failures.append("gradients")

    if config.get("graph"):
        extra_graph, extra_prior, _ = load_graph_json(config["graph"])
        if extra_prior is None:
            raise ValidationError("extra verification graph needs prior costs")
        m_extra = build_cost_matrix(extra_prior, extra_graph)
        d1 = verify_distance_consistency(m_extra, beta)
        d2 = verify_shortcut_consistency(m_extra, beta)
        ok = d1 <= tol and d2 <= tol
        report["checks"]["extra_graph"] = {"distance": float(d1), "shortcut": float(d2),
                                   "ok": bool(ok)}
        if not ok:
            failures.append("extra_graph")

    report["ok"] = not failures
    report["failures"] = failures
    with open(os.path.join(out_dir, "verify_report.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))
    _write_resolved(config, out_dir, "verify")
    for name, check in report["checks"].items():
        print(f"verify[{name}]: {'PASS' if check['ok'] else 'FAIL'}")
    if failures:
        raise VerificationError(f"verification failed: {', '.join(failures)}")
    print("verify: all checks passed")
    return 0


def _verify_gradients(m, beta) -> float:
    from .engine import datasp_backward
    from .trajectories import build_frequency_tensor
    from .training import shortcut_loss

    freq = build_frequency_tensor([(0, 1, 2, 3), (0, 2, 3), (0, 3)])

    def loss_of(matrix):
        p, _, _ = datasp_forward_efficient(matrix, beta)
        value, _, _ = shortcut_loss(p, freq)
        return value

    p, dist, tape = datasp_forward_efficient(m, beta)
    _, grad_p, _ = shortcut_loss(p, freq)
    grad_m = datasp_backward(tape, grad_p, np.zeros_like(dist))
    return finite_difference_gradcheck(loss_of, grad_m, m, step=1e-5)


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, GenerationError, NoPathError,
            OSError, json.JSONDecodeError, struct.error) as exc:
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
