import json
import os

import numpy as np
import pytest

from datasp.cli import main
from datasp.costmodel import init_params
from datasp.serialize import load_checkpoint, load_tensor, save_checkpoint


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


def test_train_epochs_zero_equals_prior_model(gen_dir, tmp_path):
    manifest = os.path.join(gen_dir, "manifest.json")
    train_cfg = write_config(tmp_path, "t0.json", {
        "dataset": manifest,
        "training": {"epochs": 0, "hidden_sizes": [16]},
    })
    out = str(tmp_path / "run0")
    assert run_cli("train", "--config", train_cfg, "--out", out) == 0
    params, step, _, _ = load_checkpoint(os.path.join(out, "checkpoint.bin"))
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
    _, step1, _, _ = load_checkpoint(os.path.join(out1, "final.bin"))
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


def test_unknown_config_key_is_validation_error(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"no_such_key": 1})
    assert run_cli("gen", "--config", cfg, "--out", str(tmp_path / "x")) == 2


def test_missing_dataset_is_validation_error(tmp_path):
    cfg = write_config(tmp_path, "t.json", {"training": {"epochs": 1}})
    assert run_cli("train", "--config", cfg, "--out", str(tmp_path / "x")) == 2



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
    if case == "malformed-config":
        path = tmp_path / "malformed.json"
        path.write_text('{"dataset": ')
        return str(path)
    if case == "missing-manifest":
        return write_config(tmp_path, "eval.json",
                            {"dataset": str(tmp_path / "no_such_manifest.json")})
    return str(tmp_path / "no_such_config.json")


@pytest.mark.parametrize("case", ["checkpoint-cut-in-length", "checkpoint-cut-in-header",
                                  "checkpoint-cut-in-payload", "malformed-config",
                                  "missing-manifest", "missing-config"])
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
], ids=["partial-out-of-range", "partial-not-int", "custom-prior-no-weights",
        "prior-not-object", "target-not-int", "num-samples-not-int", "beta-not-number"])
def test_bad_query_config_exits_2_without_traceback(command, fields, gen_dir, tmp_path,
                                                    capsys):
    cfg = write_config(tmp_path, "q.json",
                       {"graph": os.path.join(gen_dir, "graph.json"), **fields})
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
