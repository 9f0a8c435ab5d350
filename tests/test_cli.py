import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import datasp
from datasp.cli import main
from datasp.costmodel import init_params
from datasp.graph import load_graph_json
from datasp.serialize import load_checkpoint, load_tensor, save_checkpoint


# A JSON integer too large for a float64.
HUGE = 10 ** 400


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    cfg = {"generator": {"num_nodes": 14, "num_samples": 60, "pair_pool_size": 6,
                         "feature_dim": 3}}
    config_path = out / "cfg.json"
    config_path.write_text(json.dumps(cfg))
    assert run_cli("gen", "--config", str(config_path), "--out", str(out / "data"),
                   "--seed", "3") == 0
    return str(out / "data")


def test_gen_outputs_exist(gen_dir):
    for name in ("graph.json", "trajectories.jsonl", "manifest.json",
                 "true_costs.bin", "gen_config.json"):
        assert os.path.exists(os.path.join(gen_dir, name))
    manifest = json.load(open(os.path.join(gen_dir, "manifest.json")))
    assert manifest["provenance"]["seed"] == 3
    assert set(manifest["splits"]) == {"train", "val", "test"}


def test_gen_deterministic(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"generator": {"num_nodes": 10, "num_samples": 25,
                                      "pair_pool_size": 4, "feature_dim": 2}})
    assert run_cli("gen", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    assert run_cli("gen", "--config", cfg, "--out", str(tmp_path / "b")) == 0
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


def test_gen_zero_samples(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"generator": {"num_nodes": 8, "num_samples": 0,
                                      "pair_pool_size": 2, "feature_dim": 2}})
    assert run_cli("gen", "--config", cfg, "--out", str(tmp_path / "empty")) == 0
    assert (tmp_path / "empty" / "trajectories.jsonl").read_text() == ""
    manifest = json.load(open(tmp_path / "empty" / "manifest.json"))
    assert manifest["splits"]["train"] == []
    costs = load_tensor(tmp_path / "empty" / "true_costs.bin")
    assert costs.shape[0] == 0


def test_train_eval_cycle(gen_dir, tmp_path):
    manifest = os.path.join(gen_dir, "manifest.json")
    train_cfg = write_config(tmp_path, "train.json", {
        "dataset": manifest,
        "training": {"epochs": 1, "learning_rate": 1e-3, "batch_size": 8,
                     "similarity_fraction": 0.2, "hidden_sizes": [16]},
    })
    out = str(tmp_path / "run")
    assert run_cli("train", "--config", train_cfg, "--out", out, "--seed", "0") == 0
    assert os.path.exists(os.path.join(out, "checkpoint.bin"))
    log_lines = open(os.path.join(out, "train_log.jsonl")).read().splitlines()
    steps = [json.loads(line) for line in log_lines if "L_S" in line]
    assert steps and all("grad_norm" in s and "kept_nodes" in s for s in steps)

    eval_cfg = write_config(tmp_path, "eval.json", {
        "dataset": manifest,
        "checkpoint": os.path.join(out, "checkpoint.bin"),
        "split": "test",
    })
    eval_out = str(tmp_path / "eval")
    assert run_cli("eval", "--config", eval_cfg, "--out", eval_out) == 0
    rows = json.load(open(os.path.join(eval_out, "metrics.json")))["rows"]
    methods = {r["method"] for r in rows}
    assert methods == {"PRIOR", "DataSP"}
    csv_text = open(os.path.join(eval_out, "metrics.csv")).read()
    assert csv_text.startswith(
        "method,jaccard_mean,jaccard_std,match_pct,optimal_cost_pct,n_test")
    for row in rows:
        assert row["optimal_cost_pct"] is not None


def test_train_real_profile_steps_are_finite(tmp_path):
    # The real profile trains at beta = 30 with node exclusion (keep 20%).
    # Some shortcuts this run observes have P far below 1e-12; the loss on
    # log P keeps every one of them finite.
    gen_cfg = write_config(tmp_path, "gen.json",
                           {"generator": {"num_nodes": 30, "num_samples": 80,
                                          "pair_pool_size": 6, "feature_dim": 3}})
    assert run_cli("gen", "--config", gen_cfg, "--out", str(tmp_path / "data")) == 0
    train_cfg = write_config(tmp_path, "train.json", {
        "dataset": str(tmp_path / "data" / "manifest.json"),
        "profile": "real",
        "training": {"epochs": 1, "hidden_sizes": [8], "similarity_fraction": 0.2},
    })
    assert run_cli("train", "--config", train_cfg, "--out", str(tmp_path / "run")) == 0
    resolved = json.load(open(tmp_path / "run" / "train_config.json"))
    assert resolved["training"]["beta"] == 30.0 and resolved["training"]["keep_count"] == 6
    log_lines = open(tmp_path / "run" / "train_log.jsonl").read().splitlines()
    steps = [json.loads(line) for line in log_lines if "L_S" in line]
    trained = [s for s in steps if not s["skipped"]]
    assert trained
    for s in trained:
        assert all(np.isfinite(s[key]) for key in ("L_S", "L_P", "grad_norm"))


def test_train_epochs_zero_equals_prior_model(gen_dir, tmp_path):
    manifest = os.path.join(gen_dir, "manifest.json")
    train_cfg = write_config(tmp_path, "t0.json", {
        "dataset": manifest,
        "training": {"epochs": 0, "hidden_sizes": [16]},
    })
    out = str(tmp_path / "run0")
    assert run_cli("train", "--config", train_cfg, "--out", out) == 0
    checkpoint = load_checkpoint(os.path.join(out, "checkpoint.bin"))
    params, step = checkpoint.params, checkpoint.step
    assert step == 0
    assert not params.weights[-1].any()

    eval_cfg = write_config(tmp_path, "e0.json", {
        "dataset": manifest,
        "checkpoint": os.path.join(out, "checkpoint.bin"),
        "split": "val",
    })
    eval_out = str(tmp_path / "eval0")
    assert run_cli("eval", "--config", eval_cfg, "--out", eval_out) == 0
    rows = json.load(open(os.path.join(eval_out, "metrics.json")))["rows"]
    by_method = {r["method"]: r for r in rows}
    assert by_method["DataSP"]["jaccard_mean"] == pytest.approx(
        by_method["PRIOR"]["jaccard_mean"])
    assert by_method["DataSP"]["match_pct"] == pytest.approx(
        by_method["PRIOR"]["match_pct"])


def test_train_resume_continues_step_counter(gen_dir, tmp_path):
    manifest = os.path.join(gen_dir, "manifest.json")
    base = {"dataset": manifest,
            "training": {"epochs": 1, "hidden_sizes": [8], "batch_size": 8,
                         "similarity_fraction": 0.2}}
    first_cfg = write_config(tmp_path, "first.json", base)
    out1 = str(tmp_path / "r1")
    assert run_cli("train", "--config", first_cfg, "--out", out1) == 0
    step1 = load_checkpoint(os.path.join(out1, "final.bin")).step
    assert step1 > 0

    resumed = dict(base)
    resumed["resume"] = os.path.join(out1, "final.bin")
    second_cfg = write_config(tmp_path, "second.json", resumed)
    out2 = str(tmp_path / "r2")
    assert run_cli("train", "--config", second_cfg, "--out", out2) == 0
    log_lines = [json.loads(line) for line in
                 open(os.path.join(out2, "train_log.jsonl")).read().splitlines()]
    first_step = next(e["step"] for e in log_lines if "L_S" in e)
    assert first_step == step1


def test_train_seed_flag_sets_config_seed(gen_dir, tmp_path):
    manifest = os.path.join(gen_dir, "manifest.json")
    cfg = write_config(tmp_path, "seed.json", {
        "dataset": manifest,
        "seed": 5,
        "training": {"epochs": 0, "hidden_sizes": [8]},
    })
    out = str(tmp_path / "seed_run")
    assert run_cli("train", "--config", cfg, "--out", out, "--seed", "99") == 0
    resolved = json.load(open(os.path.join(out, "train_config.json")))
    assert resolved["seed"] == 99
    assert resolved["training"]["seed"] == 99


def test_sample_paths_command(gen_dir, tmp_path):
    graph = os.path.join(gen_dir, "graph.json")
    cfg = write_config(tmp_path, "sp.json", {
        "graph": graph, "source": 0, "target": 5, "num_samples": 50, "beta": 1.0,
    })
    out = str(tmp_path / "sp")
    assert run_cli("sample-paths", "--config", cfg, "--out", out) == 0
    lines = open(os.path.join(out, "samples.jsonl")).read().splitlines()
    records = [json.loads(line) for line in lines]
    assert sum(r["count"] for r in records) == 50
    assert abs(sum(r["freq"] for r in records) - 1.0) < 1e-9
    meta = json.load(open(os.path.join(out, "samples_meta.json")))
    assert meta["beta"] == 1.0
    assert meta["checkpoint_sha256"] is None


def test_sample_paths_single_sample(gen_dir, tmp_path):
    graph = os.path.join(gen_dir, "graph.json")
    cfg = write_config(tmp_path, "sp1.json", {
        "graph": graph, "source": 0, "target": 3, "num_samples": 1,
    })
    out = str(tmp_path / "sp1")
    assert run_cli("sample-paths", "--config", cfg, "--out", out) == 0
    lines = open(os.path.join(out, "samples.jsonl")).read().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["count"] == 1


def test_sample_paths_deterministic(gen_dir, tmp_path):
    graph = os.path.join(gen_dir, "graph.json")
    cfg = write_config(tmp_path, "spd.json", {
        "graph": graph, "source": 1, "target": 6, "num_samples": 200,
    })
    assert run_cli("sample-paths", "--config", cfg, "--out", str(tmp_path / "s1")) == 0
    assert run_cli("sample-paths", "--config", cfg, "--out", str(tmp_path / "s2")) == 0
    assert read_all(tmp_path / "s1") == read_all(tmp_path / "s2")


def test_predict_dest_command(gen_dir, tmp_path):
    graph = os.path.join(gen_dir, "graph.json")
    cfg = write_config(tmp_path, "pd.json", {
        "graph": graph, "partial": [0, 2], "prior": {"kind": "uniform"},
    })
    out = str(tmp_path / "pd")
    assert run_cli("predict-dest", "--config", cfg, "--out", out) == 0
    doc = json.load(open(os.path.join(out, "destinations.json")))
    total = sum(doc["probabilities"].values())
    assert total == pytest.approx(1.0, abs=1e-9)
    assert "0" not in doc["probabilities"]
    assert doc["prior"]["kind"] == "uniform"


def test_predict_dest_custom_two_candidates(gen_dir, tmp_path):
    graph_doc = {"num_nodes": 4, "directed": False,
                 "edges": [[0, 1], [1, 2], [1, 3], [2, 3], [0, 2]],
                 "prior_costs": [1.0, 1.0, 2.0, 1.0, 1.5]}
    graph_path = tmp_path / "toy_graph.json"
    graph_path.write_text(json.dumps(graph_doc))
    weights = [0.0, 0.0, 1.0, 1.0]
    cfg = write_config(tmp_path, "pd2.json", {
        "graph": str(graph_path), "partial": [0, 1],
        "prior": {"kind": "custom", "weights": weights},
    })
    out = str(tmp_path / "pd2")
    assert run_cli("predict-dest", "--config", cfg, "--out", out) == 0
    doc = json.load(open(os.path.join(out, "destinations.json")))
    probs = doc["probabilities"]
    assert set(probs) <= {"2", "3"}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_duplicate_undirected_edge_exits_2(tmp_path):
    graph_doc = {"num_nodes": 3, "directed": False, "edges": [[0, 1], [1, 2], [2, 1]],
                 "prior_costs": [1.0, 1.0, 1.0]}
    graph_path = tmp_path / "dup_graph.json"
    graph_path.write_text(json.dumps(graph_doc))
    cfg = write_config(tmp_path, "dup.json", {
        "graph": str(graph_path), "source": 0, "target": 2, "num_samples": 5,
    })
    assert run_cli("sample-paths", "--config", cfg, "--out", str(tmp_path / "dup")) == 2


def test_verify_command(tmp_path):
    out = str(tmp_path / "verify")
    assert run_cli("verify", "--out", out) == 0
    report = json.load(open(os.path.join(out, "verify_report.json")))
    assert report["ok"]
    census = report["checks"]["walk_census"]
    assert census["expected"] == census["tabulated"]
    assert report["checks"]["distance_consistency"]["max_deviation"] <= 1e-9


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 5.0, 10.0, 30.0])
def test_verify_passes_at_each_beta(beta, tmp_path):
    cfg = write_config(tmp_path, "v.json", {"beta": beta})
    assert run_cli("verify", "--config", cfg, "--out", str(tmp_path / "v")) == 0
    report = json.load(open(tmp_path / "v" / "verify_report.json"))
    assert report["ok"] and report["checks"]["walk_census"]["ok"]
    assert len(report["checks"]["sampling_frequencies"]["walks"]) == 8


def test_verify_catches_an_adjoint_off_by_one_percent(monkeypatch, tmp_path):
    from datasp import cli

    exact = cli.datasp_backward
    monkeypatch.setattr(cli, "datasp_backward", lambda *a: 0.99 * exact(*a))
    cfg = write_config(tmp_path, "v.json", {"beta": 5.0})
    assert run_cli("verify", "--config", cfg, "--out", str(tmp_path / "v")) == 4
    report = json.load(open(tmp_path / "v" / "verify_report.json"))
    assert report["failures"] == ["gradients"]


def test_resolved_train_config_runs_again(gen_dir, tmp_path):
    cfg = write_config(tmp_path, "t.json", {"dataset": os.path.join(gen_dir, "manifest.json"),
                                            "seed": 4, "keep_fraction": 0.5,
                                            "training": {"epochs": 0, "hidden_sizes": [8]}})
    assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    resolved = str(tmp_path / "a" / "train_config.json")
    assert json.load(open(resolved))["training"]["seed"] == 4
    assert json.load(open(resolved))["training"]["keep_count"] == 7
    assert run_cli("train", "--config", resolved, "--out", str(tmp_path / "b")) == 0
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


@pytest.mark.parametrize("command", ["gen", "train", "eval", "sample-paths", "predict-dest",
                                     "verify"])
def test_resolved_config_reproduces_every_output(command, gen_dir, tmp_path):
    # Each command's <command>_config.json, run again into a new directory,
    # writes the same files byte for byte.
    graph_path = os.path.join(gen_dir, "graph.json")
    manifest = os.path.join(gen_dir, "manifest.json")
    graph, _, _ = load_graph_json(graph_path)
    checkpoint = str(tmp_path / "init.bin")
    save_checkpoint(checkpoint, init_params(3, [8], graph.num_edges, seed=1))
    five = tmp_path / "five.json"
    five.write_text(json.dumps({"num_nodes": 5, "directed": False,
                                "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]],
                                "prior_costs": [1.0, 1.5, 1.0, 2.0, 1.0, 2.5]}))
    query = {"graph": graph_path, "checkpoint": checkpoint, "context": [0.1, -0.2, 0.3],
             "beta": 3.0}
    fields = {
        "gen": {"generator": {"num_nodes": 8, "num_samples": 20, "pair_pool_size": 3,
                              "feature_dim": 2}},
        "train": {"dataset": manifest, "resume": checkpoint, "keep_fraction": 0.5,
                  "training": {"hidden_sizes": [8], "similarity_fraction": 0.2}},
        "eval": {"dataset": manifest, "checkpoint": checkpoint},
        "sample-paths": {**query, "num_samples": 300, "reject_cycles": True},
        "predict-dest": {**query, "partial": [0, 2], "prior": {"kind": "exp-negative-distance"}},
        "verify": {"beta": 5.0, "graph": str(five)},
    }[command]
    cfg = write_config(tmp_path, "c.json", fields)
    assert run_cli(command, "--config", cfg, "--seed", "7", "--out", str(tmp_path / "a")) == 0
    resolved = str(tmp_path / "a" / (command.replace("-", "_") + "_config.json"))
    assert run_cli(command, "--config", resolved, "--out", str(tmp_path / "b")) == 0
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
    if command == "predict-dest":
        doc = json.loads((tmp_path / "a" / "destinations.json").read_text())
        assert doc["prior"]["kind"] == "exp-negative-distance"


def test_train_rejects_a_cyclic_training_record_before_logging(gen_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    record = json.loads((data / "manifest.json").read_text())["splits"]["train"][-1]
    lines = (data / "trajectories.jsonl").read_text().splitlines(keepends=True)
    doc = json.loads(lines[record])
    doc["path"] = doc["path"][:2] + doc["path"]  # u, v, u, v, ...
    lines[record] = json.dumps(doc) + "\n"
    (data / "trajectories.jsonl").write_text("".join(lines))
    manifest = str(data / "manifest.json")
    cfg = write_config(tmp_path, "t.json", {"dataset": manifest,
                                            "training": {"hidden_sizes": [8]}})
    assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: training record {record} ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out" / "train_log.jsonl")
    assert not os.path.exists(tmp_path / "out" / "train_config.json")
    # Evaluation still scores the record.
    cfg = write_config(tmp_path, "e.json", {"dataset": manifest, "split": "train"})
    assert run_cli("eval", "--config", cfg, "--out", str(tmp_path / "eval")) == 0


@pytest.mark.parametrize("field, model, training", [
    ("hidden_sizes", {"hidden_sizes": [4]}, {}),
    ("cost_floor", {"cost_floor": 1e-2}, {"hidden_sizes": [8]}),
    ("feature_dim", {"feature_dim": 2}, {"hidden_sizes": [8]}),
    ("edge_count", {"edge_count": 3}, {"hidden_sizes": [8]}),
])
def test_resume_refuses_a_model_of_another_shape(field, model, training, gen_dir, tmp_path,
                                                 capsys):
    graph, _, _ = load_graph_json(os.path.join(gen_dir, "graph.json"))
    shape = {"feature_dim": 3, "hidden_sizes": [8], "edge_count": graph.num_edges,
             "seed": 0, **model}
    checkpoint = str(tmp_path / "model.bin")
    save_checkpoint(checkpoint, init_params(**shape))
    cfg = write_config(tmp_path, "t.json", {"dataset": os.path.join(gen_dir, "manifest.json"),
                                            "resume": checkpoint,
                                            "training": {"epochs": 0, **training}})
    assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert not os.path.exists(tmp_path / "out" / "train_log.jsonl")
    assert not os.path.exists(tmp_path / "out" / "train_config.json")


def test_unknown_config_key_is_validation_error(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"no_such_key": 1})
    assert run_cli("gen", "--config", cfg, "--out", str(tmp_path / "x")) == 2


def test_missing_dataset_is_validation_error(tmp_path):
    cfg = write_config(tmp_path, "t.json", {"training": {"epochs": 1}})
    assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "x")) == 2



def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_first_record(data, edit):
    lines = (data / "trajectories.jsonl").read_text().splitlines(keepends=True)
    doc = json.loads(lines[0])
    edit(doc)
    (data / "trajectories.jsonl").write_text(json.dumps(doc) + "\n" + "".join(lines[1:]))


def _set_prior(value):
    def edit(doc):
        doc["prior_costs"] = value(doc)
    return edit


# Ways to break a copy of the generated dataset directory, by case name.
_BROKEN_DATASETS = {
    "manifest-not-object": lambda d: (d / "manifest.json").write_text("[1]"),
    "manifest-without-trajectories": lambda d: _edit_json(
        d / "manifest.json", lambda m: m.pop("trajectories")),
    "manifest-graph-not-path": lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(graph=7)),
    "trajectories-not-utf8": lambda d: (d / "trajectories.jsonl").write_bytes(b"\xff{}\n"),
    "split-index-past-end": lambda d: _edit_json(
        d / "manifest.json", lambda m: m["splits"].update(test=[9999])),
    "split-index-negative": lambda d: _edit_json(
        d / "manifest.json", lambda m: m["splits"].update(test=[-1])),
    "path-node-not-int": lambda d: _edit_first_record(
        d, lambda r: r["path"].__setitem__(0, r["path"][0] + 0.7)),
    "prior-costs-not-numbers": lambda d: _edit_json(
        d / "graph.json", _set_prior(lambda g: ["x"] * len(g["edges"]))),
    "prior-costs-not-list": lambda d: _edit_json(d / "graph.json", _set_prior(lambda g: 5)),
    "node-positions-not-pairs": lambda d: _edit_json(
        d / "graph.json", lambda g: g.update(node_positions="ab")),
    "edge-node-not-int": lambda d: _edit_json(
        d / "graph.json", lambda g: g["edges"][0].__setitem__(1, g["edges"][0][1] + 0.5)),
}


# Config files that are not a JSON object, by case name.
_BAD_CONFIG_TEXTS = {"malformed-config": '{"dataset": ', "config-is-list": "[]",
                     "config-is-null": "null"}


def _broken_eval_config(case, tmp_path, manifest):
    """Path of an eval config that fails to load in the way `case` names."""
    if case.startswith("checkpoint-cut-in-"):
        path = tmp_path / "truncated.bin"
        save_checkpoint(path, init_params(3, [4], 5, seed=0))
        blob = path.read_bytes()
        cut = {"length": 6, "header": 30, "payload": len(blob) - 8}[case.rsplit("-", 1)[1]]
        path.write_bytes(blob[:cut])
        return write_config(tmp_path, "eval.json", {"dataset": manifest,
                                                    "checkpoint": str(path)})
    if case == "checkpoint-without-hidden-sizes":
        path = tmp_path / "no_hidden.bin"
        save_checkpoint(path, init_params(3, [4], 5, seed=0))
        blob = path.read_bytes()
        (length,) = struct.unpack("<Q", blob[4:12])
        header = json.loads(blob[12:12 + length])
        del header["hidden_sizes"]
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(b"DSPC" + struct.pack("<Q", len(text)) + text + blob[12 + length:])
        return write_config(tmp_path, "eval.json", {"dataset": manifest,
                                                    "checkpoint": str(path)})
    if case in _BROKEN_DATASETS:
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(manifest), data)
        _BROKEN_DATASETS[case](data)
        return write_config(tmp_path, "eval.json", {"dataset": str(data / "manifest.json")})
    if case in _BAD_CONFIG_TEXTS:
        path = tmp_path / "config.json"
        path.write_text(_BAD_CONFIG_TEXTS[case])
        return str(path)
    if case == "missing-manifest":
        return write_config(tmp_path, "eval.json",
                            {"dataset": str(tmp_path / "no_such_manifest.json")})
    return str(tmp_path / "no_such_config.json")


@pytest.mark.parametrize("case", ["checkpoint-cut-in-length", "checkpoint-cut-in-header",
                                  "checkpoint-cut-in-payload", "malformed-config",
                                  "missing-manifest", "missing-config",
                                  "checkpoint-without-hidden-sizes", "config-is-list",
                                  "config-is-null", *_BROKEN_DATASETS])
def test_unreadable_input_exits_2_without_traceback(case, gen_dir, tmp_path, capsys):
    cfg = _broken_eval_config(case, tmp_path, os.path.join(gen_dir, "manifest.json"))
    assert run_cli("eval", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, fields", [
    ("predict-dest", {"partial": [0, 99]}),
    ("predict-dest", {"partial": [0, "x"]}),
    ("predict-dest", {"partial": [0, 2], "prior": {"kind": "custom"}}),
    ("predict-dest", {"partial": [0, 2], "prior": "uniform"}),
    ("sample-paths", {"target": "x"}),
    ("sample-paths", {"num_samples": "many"}),
    ("sample-paths", {"beta": "x"}),
    ("sample-paths", {"checkpoint": "CHECKPOINT", "context": "x"}),
    ("predict-dest", {"partial": [0, 2], "checkpoint": "CHECKPOINT", "context": [1, 2, "3"]}),
    ("sample-paths", {"beta": True}),
    ("sample-paths", {"beta": "2"}),
    ("predict-dest", {"partial": [0, 2], "beta": True}),
    ("predict-dest", {"partial": [0, 2], "beta": "2"}),
    ("predict-dest", {"partial": [0, 2], "prior": {"kind": "custom", "weights": [HUGE]}}),
    ("sample-paths", {"context": [1.0, 2.0, 3.0]}),
    ("predict-dest", {"partial": [0, 2], "context": [1.0, 2.0, 3.0]}),
    ("predict-dest", {"partial": [0, 2], "prior": {"kind": "uniform", "weights": [1.0]}}),
    ("predict-dest", {"partial": [0, 2],
                      "prior": {"kind": "exp-negative-distance", "weights": [1.0]}}),
    ("predict-dest", {"partial": [0, 2], "prior": {"kind": "custom", "weights": [1.0]}}),
    ("predict-dest", {"partial": [0, 2],
                      "prior": {"kind": "custom", "weights": [-1.0] + [1.0] * 13}}),
    ("predict-dest", {"partial": [0, 2], "prior": {"kind": "custom", "weights": [0.0] * 14}}),
], ids=["partial-out-of-range", "partial-not-int", "custom-prior-no-weights",
        "prior-not-object", "target-not-int", "num-samples-not-int", "beta-not-number",
        "context-not-list", "context-not-numbers", "sample-paths-beta-bool",
        "sample-paths-beta-numeric-string", "predict-dest-beta-bool",
        "predict-dest-beta-numeric-string", "custom-prior-weight-too-large",
        "sample-paths-context-without-checkpoint", "predict-dest-context-without-checkpoint",
        "uniform-prior-with-weights", "exp-negative-distance-prior-with-weights",
        "custom-prior-wrong-length", "custom-prior-negative-weight",
        "custom-prior-all-zero"])
def test_bad_query_config_exits_2_without_traceback(command, fields, gen_dir, tmp_path,
                                                    capsys):
    if fields.get("checkpoint") == "CHECKPOINT":
        graph, _, _ = load_graph_json(os.path.join(gen_dir, "graph.json"))
        fields = {**fields, "checkpoint": str(tmp_path / "init.bin")}
        save_checkpoint(fields["checkpoint"], init_params(3, [4], graph.num_edges, seed=0))
    cfg = write_config(tmp_path, "q.json",
                       {"graph": os.path.join(gen_dir, "graph.json"), **fields})
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, fields", [
    ("sample-paths", {"seed": "x"}),
    ("sample-paths", {"seed": -1}),
    ("gen", {"seed": "x"}),
    ("gen", {"seed": True}),
    ("train", {"seed": "x"}),
    ("verify", {"tolerance": "x"}),
    ("verify", {"tv_tolerance": "x"}),
    ("verify", {"gradcheck_tolerance": 0}),
    ("verify", {"beta": "x"}),
    ("train", {"keep_fraction": "x"}),
    ("train", {"training": {"beta": "x"}}),
    ("train", {"training": {"learning_rate": "x"}}),
    ("train", {"training": {"epochs": 1.5}}),
    ("train", {"training": {"hidden_sizes": "x"}}),
    ("gen", {"generator": {"num_nodes": "x"}}),
    ("gen", {"generator": {"num_nodes": 2.5}}),
    ("gen", {"generator": {"sparsity": "x"}}),
    ("gen", {"split_fractions": "x"}),
    ("eval", {"split": ["test"]}),
    ("train", {"training": {"batch_size": 2.5}}),
    ("train", {"keep_fraction": 0.0}),
    ("sample-paths", {"reject_cycles": "no"}),
    ("gen", {"generator": {"seed": 3}}),
    ("train", {"training": {"seed": 7}}),
    ("sample-paths", {"checkpoint": 5}),
    ("eval", {"dataset": 5}),
    ("train", {"resume": 7}),
    ("verify", {"graph": 5}),
    ("verify", {"beta": True}),
    ("verify", {"beta": "2"}),
    ("train", {"keep_fraction": 0.5, "training": {"keep_count": 3}}),
    ("verify", {"tolerance": HUGE}),
    ("verify", {"tv_tolerance": HUGE}),
    ("verify", {"gradcheck_tolerance": HUGE}),
    ("verify", {"tv_num_samples": 100000}),
    ("train", {"training": {"similarity_fraction": 1.5}}),
], ids=["sample-paths-seed-not-int", "sample-paths-seed-negative", "gen-seed-not-int",
        "gen-seed-bool", "train-seed-not-int", "verify-tolerance-not-number",
        "verify-tv-tolerance-not-number", "verify-gradcheck-tolerance-zero",
        "verify-beta-not-number", "train-keep-fraction-not-number",
        "train-beta-not-number", "train-learning-rate-not-number", "train-epochs-fractional",
        "train-hidden-sizes-not-list", "gen-num-nodes-not-int", "gen-num-nodes-fractional",
        "gen-sparsity-not-number", "gen-split-fractions-not-list", "eval-split-not-name",
        "train-batch-size-fractional", "train-keep-fraction-zero",
        "sample-paths-reject-cycles-not-bool", "gen-nested-seed-differs",
        "train-nested-seed-differs", "sample-paths-checkpoint-not-path",
        "eval-dataset-not-path", "train-resume-not-path", "verify-graph-not-path",
        "verify-beta-bool", "verify-beta-numeric-string",
        "train-keep-count-differs-from-keep-fraction", "verify-tolerance-too-large",
        "verify-tv-tolerance-too-large", "verify-gradcheck-tolerance-too-large",
        "verify-removed-tv-num-samples", "train-similarity-fraction-above-one"])
def test_bad_seed_or_verify_number_exits_2_without_traceback(command, fields, gen_dir,
                                                             tmp_path, capsys):
    needs = {"sample-paths": {"graph": os.path.join(gen_dir, "graph.json")},
             "train": {"dataset": os.path.join(gen_dir, "manifest.json")},
             "eval": {"dataset": os.path.join(gen_dir, "manifest.json")}}
    cfg = write_config(tmp_path, "c.json", {**needs.get(command, {}), **fields})
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(fields)) in err
    assert not os.path.exists(tmp_path / "out" / "train_log.jsonl")


def _with_contexts(gen_dir, tmp_path, case):
    """Manifest of a copy of the generated dataset whose contexts are
    malformed in the way `case` names."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    lines = (data / "trajectories.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    if case == "feature-lengths-differ":
        docs[-1]["context"] = docs[-1]["context"][:-1]
    elif case == "discrete-lengths-differ":
        for pos, doc in enumerate(docs):
            doc["discrete"] = [0, 1] if pos else [0, 1, 2]
    else:
        docs[-1]["discrete"] = [0, 1]
    (data / "trajectories.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in docs))
    return str(data / "manifest.json")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", ["feature-lengths-differ", "discrete-lengths-differ",
                                  "discrete-on-some-records"])
def test_malformed_contexts_exit_2_at_load(command, case, gen_dir, tmp_path, capsys):
    manifest = _with_contexts(gen_dir, tmp_path, case)
    cfg = write_config(tmp_path, "c.json", {"dataset": manifest})
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out" / "train_log.jsonl")


@pytest.mark.parametrize("profile", ["rael", ["real"], None])
def test_unknown_profile_exits_2(profile, gen_dir, tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {"dataset": os.path.join(gen_dir, "manifest.json"),
                                            "profile": profile})
    assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown profile") and err.count("\n") == 1
    assert "known profiles: real, synthetic" in err


def test_eval_runs_each_hard_path_search_once(gen_dir, tmp_path, monkeypatch):
    # Every dijkstra call runs exactly one graph.distances_to over its block,
    # so counting the (matrix, target) pairs of the latter counts the
    # hard-path searches of one eval.
    import datasp.graph
    from datasp.graph import block_slices, load_graph_json

    graph, _, _ = load_graph_json(os.path.join(gen_dir, "graph.json"))
    checkpoint = tmp_path / "init.bin"
    save_checkpoint(checkpoint, init_params(3, [4], graph.num_edges, seed=0))
    manifest = json.load(open(os.path.join(gen_dir, "manifest.json")))
    records = [json.loads(line) for line in
               open(os.path.join(gen_dir, "trajectories.jsonl"))]
    ends = [(records[i]["path"][0], records[i]["path"][-1])
            for i in manifest["splits"]["test"]]
    assert len(set(ends)) < len(ends)

    calls = []
    search = datasp.graph.distances_to
    monkeypatch.setattr(datasp.graph, "distances_to",
                        lambda m, targets: calls.append(len(targets)) or search(m, targets))
    cfg = write_config(tmp_path, "e.json", {"dataset": os.path.join(gen_dir, "manifest.json"),
                                            "checkpoint": str(checkpoint)})
    assert run_cli("eval", "--config", cfg, "--out", str(tmp_path / "out")) == 0
    # PRIOR: one per distinct pair; DataSP: one per record; true optimum: one
    # per record, shared by both methods.
    assert sum(calls) == len(set(ends)) + 2 * len(ends)
    # Each kind of search runs one dense search per block of its pairs.
    blocks = [len(block_slices(count, graph.num_nodes))
              for count in (len(set(ends)), len(ends), len(ends))]
    assert len(calls) == sum(blocks)


def test_eval_search_memory_stays_within_a_block():
    # Eval builds, searches and drops one block of cost matrices at a time,
    # so its peak allocation does not grow with the number of records.
    import tracemalloc

    from datasp.cli import _metric_rows
    from datasp.graph import BLOCK_FLOATS
    from datasp.synthetic import GeneratorConfig, generate_synthetic_dataset

    syn = generate_synthetic_dataset(GeneratorConfig(num_nodes=60, num_samples=300, seed=1))
    params = init_params(syn.config.feature_dim, [8], syn.graph.num_edges, seed=0)
    peaks = []
    for count in (150, 300):  # three and five blocks of up to 72 records
        syn.dataset.splits = {"test": list(range(count))}
        tracemalloc.start()
        try:
            _metric_rows(syn.dataset, params, "test", syn.true_costs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_bytes = 8 * BLOCK_FLOATS
    assert peaks[1] <= peaks[0] + block_bytes / 10
    assert peaks[1] <= 2 * block_bytes


def test_overflowing_checkpoint_prints_only_the_error_line(gen_dir, tmp_path):
    # A fresh process, so numpy's warnings reach stderr as a user would see them.
    graph, _, _ = load_graph_json(os.path.join(gen_dir, "graph.json"))
    params = init_params(3, [4], graph.num_edges, seed=0)
    for array in params.flat_arrays():
        array[...] = 1e200
    checkpoint = tmp_path / "huge.bin"
    save_checkpoint(checkpoint, params)
    cfg = write_config(tmp_path, "e.json", {"dataset": os.path.join(gen_dir, "manifest.json"),
                                            "checkpoint": str(checkpoint)})
    src = os.path.dirname(os.path.dirname(datasp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "datasp.cli", "eval", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: edge costs must be finite and strictly positive\n"


@pytest.mark.parametrize("command, fields", [
    ("sample-paths", {"source": 0, "target": 1}),
    ("predict-dest", {"partial": [0, 1]}),
    ("verify", {}),
])
def test_diverged_distances_exit_as_numerical_failure(gen_dir, tmp_path, command, fields):
    # At beta = 1e-308 the walk series diverges and every off-diagonal
    # smoothed distance is -inf: a numerical failure, not an unreachable pair.
    graph = {} if command == "verify" else {"graph": os.path.join(gen_dir, "graph.json")}
    cfg = write_config(tmp_path, "c.json", {**graph, **fields, "beta": 1e-308})
    src = os.path.dirname(os.path.dirname(datasp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "datasp.cli", command, "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("numerical failure:")


@pytest.mark.parametrize("command, fields", [
    ("sample-paths", {"source": 0, "target": 1, "num_samples": 50}),
    ("predict-dest", {"partial": [0, 2], "prior": {"kind": "custom", "weights": [1.0] * 14}}),
])
@pytest.mark.parametrize("outcome", ["ok", "diverged", "bad-input-after-load"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_query_digest_thread_ends_with_its_command(gen_dir, tmp_path, command, fields,
                                                    outcome):
    # The checkpoint is hashed on a worker thread while the query computes;
    # it is joined on every exit, and on success the recorded digest is the
    # file's.
    graph, _, _ = load_graph_json(os.path.join(gen_dir, "graph.json"))
    # A wide layer, so that the hash outlasts a query that fails early.
    params = [init_params(3, [4096], graph.num_edges, seed=seed) for seed in (1, 2, 3)]
    checkpoint = tmp_path / "c.bin"
    save_checkpoint(checkpoint, params[0], opt_state={"m": params[1].flat_arrays(),
                                                      "v": params[2].flat_arrays(), "t": 5})
    config = {**fields, "graph": os.path.join(gen_dir, "graph.json"),
              "checkpoint": str(checkpoint), "context": [0.1, -0.2, 0.3], "beta": 3.0}
    if outcome == "diverged":
        config["beta"] = 1e-308
    elif outcome == "bad-input-after-load" and command == "sample-paths":
        config["context"] = [0.1, "x", 0.3]
    elif outcome == "bad-input-after-load":
        config["prior"] = {"kind": "custom", "weights": [1.0, -1.0] + [1.0] * 12}
    cfg = write_config(tmp_path, "q.json", config)
    before = threading.active_count()
    code = run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert threading.active_count() == before
    assert code == {"ok": 0, "diverged": 3, "bad-input-after-load": 2}[outcome]
    if outcome == "ok":
        name = "samples_meta.json" if command == "sample-paths" else "destinations.json"
        recorded = json.loads((tmp_path / "out" / name).read_text())["checkpoint_sha256"]
        assert recorded == hashlib.sha256(checkpoint.read_bytes()).hexdigest()
