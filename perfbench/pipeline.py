"""The user pipeline gen -> train -> eval -> sample-paths xQ -> predict-dest xQ,
driven through `datasp.cli.main` in this process, with every output checked.

One client runs the stages one after another (a closed loop): each CLI call
starts only after the previous one has returned and its output was checked.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import io
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from datasp import cli
from datasp.engine import datasp_backward, datasp_forward_efficient
from datasp.graph import build_cost_matrix, load_graph_json
from datasp.synthetic import GeneratorConfig, generate_synthetic_dataset

import spec

SAMPLE_DRAWS = 1000
PROB_TOLERANCE = 1e-9


class Abort(Exception):
    """A failed operation after which the pipeline cannot go on."""


class Checks:
    """Counts operations (CLI calls and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            message = f"{name}: {detail}" if detail else name
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        if not self.check(name, ok, detail):
            raise Abort(name)


def walk_series_radius(m: np.ndarray, beta: float) -> float:
    """Spectral radius of A = exp(-beta * M) over the edges (0 off-edge)."""
    return float(np.abs(np.linalg.eigvals(np.exp(-beta * m))).max())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Pipeline:
    """One workload's CLI calls inside a work directory."""

    def __init__(self, workload: spec.Workload, seed: int, work: Path, checks: Checks,
                 tracer=None):
        self.w = workload
        self.seed = seed
        self.work = work
        self.checks = checks
        self.tracer = tracer
        self.work.mkdir(parents=True, exist_ok=True)
        self.data = self.work / "gen0"
        self.train_dir = self.work / "train"
        self.checkpoint = self.train_dir / "checkpoint.bin"
        self.wall: dict[str, list[float]] = {}

    # -- CLI calls ---------------------------------------------------------

    def cli(self, command: str, config: dict, out: Path) -> None:
        """Run one CLI command and record its wall time in self.wall."""
        config_path = self.work / f"{command}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(config_path), "--out", str(out)]
        # A user runs each command in a fresh process, so garbage that an
        # earlier call left in reference cycles (the sampler's closure holds
        # P) must not count towards the next call's memory or time.
        gc.collect()
        stage = self.tracer.stage_span(command) if self.tracer else nullcontext()
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), stage:
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
        except Exception:  # the program raised instead of exiting with a code
            traceback.print_exc()
            code = "exception"
            elapsed = 0.0
        self.checks.require(f"{command} exits 0", code == 0,
                            f"exit {code}; output: {captured.getvalue().strip()[-500:]}")
        self.wall.setdefault(command, []).append(elapsed)

    def gen(self, out: Path) -> None:
        config = {"seed": spec.DATASET_SEED,
                  "generator": {"num_nodes": self.w.num_nodes,
                                "num_samples": self.w.num_samples},
                  "split_fractions": list(self.w.split)}
        self.cli("gen", config, out)

    def setup(self) -> None:
        """gen the workload's dataset, read it back and check its health."""
        self.gen(self.data)
        self.manifest = json.loads((self.data / "manifest.json").read_text())
        self.records = _read_jsonl(self.data / "trajectories.jsonl")
        graph_doc = json.loads((self.data / "graph.json").read_text())
        self.edges = {(u, v) for u, v in graph_doc["edges"]}
        self._guard()
        self._queries = itertools.cycle(
            [(self.sample_paths, self.sample_paths_queries()),
             (self.predict_dest, self.predict_dest_queries())])
        self.resample_events = 0
        self.rejected = 0

    def regen(self, rep: int) -> None:
        """gen again into a fresh directory; the files must be identical."""
        out = self.work / f"gen{rep}"
        self.gen(out)
        names = sorted(p.name for p in self.data.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(self.data, out, names, shallow=False)
        self.checks.check("gen is deterministic", not mismatch and not errors,
                          f"differing files {mismatch + errors}")

    def _guard(self) -> None:
        """Numeric-health guard: the workload must sit where the walk series
        converges, rho(exp(-beta * M_prior)) < 1."""
        graph, prior, _ = load_graph_json(self.data / "graph.json")
        self.prior_matrix = build_cost_matrix(prior, graph)
        self.rho = walk_series_radius(self.prior_matrix, self.w.beta)
        self.checks.require("walk series converges", self.rho < 1.0,
                            f"rho={self.rho:.3f} at beta={self.w.beta}")

    def train(self) -> int:
        """Train one epoch; returns the number of anchors."""
        config = {"seed": self.seed, "dataset": str(self.data / "manifest.json"),
                  "profile": self.w.profile,
                  "training": {"beta": self.w.beta, "epochs": 1}}
        if self.w.keep_fraction is not None:
            config["keep_fraction"] = self.w.keep_fraction
        self.cli("train", config, self.train_dir)
        steps = [e for e in _read_jsonl(self.train_dir / "train_log.jsonl") if "L_S" in e]
        expected = len(self.manifest["splits"]["train"])
        bad = [e["step"] for e in steps if not e["skipped"]
               and not all(math.isfinite(e[k]) for k in ("L_S", "L_P", "grad_norm"))]
        self.checks.check("train log complete with finite losses",
                          len(steps) == expected and not bad,
                          f"{len(steps)} of {expected} steps; non-finite at {bad[:5]}")
        self.skipped = sum(1 for e in steps if e["skipped"])
        return len(steps)

    def eval(self) -> tuple[int, float]:
        """Evaluate the test split; returns its size and DataSP's Jaccard."""
        out = self.work / "eval"
        config = {"seed": self.seed, "dataset": str(self.data / "manifest.json"),
                  "checkpoint": str(self.checkpoint), "split": "test"}
        self.cli("eval", config, out)
        rows = json.loads((out / "metrics.json").read_text())["rows"]
        n_test = len(self.manifest["splits"]["test"])
        self.checks.check("eval n_test matches the test split",
                          [r["n_test"] for r in rows] == [n_test, n_test],
                          f"{[r['n_test'] for r in rows]} vs {n_test}")
        datasp_row = next(r for r in rows if r["method"] == "DataSP")
        return n_test, datasp_row["jaccard_mean"]

    def verify(self) -> None:
        self.cli("verify", {}, self.work / "verify")
        report = json.loads((self.work / "verify" / "verify_report.json").read_text())
        self.checks.check("verify passes", report["ok"], str(report["failures"]))

    # -- queries -----------------------------------------------------------

    def _test_record(self, rng) -> dict:
        test = self.manifest["splits"]["test"]
        return self.records[test[int(rng.integers(len(test)))]]

    def sample_paths_queries(self):
        rng = np.random.default_rng([self.seed, 1])
        while True:
            rec = self._test_record(rng)
            yield {"seed": int(rng.integers(2**31)), "graph": str(self.data / "graph.json"),
                   "checkpoint": str(self.checkpoint), "context": rec["context"],
                   "source": rec["path"][0], "target": rec["path"][-1],
                   "num_samples": SAMPLE_DRAWS, "beta": self.w.beta}

    def predict_dest_queries(self):
        rng = np.random.default_rng([self.seed, 2])
        while True:
            rec = self._test_record(rng)
            cut = int(rng.integers(2, len(rec["path"]) + 1))
            yield {"seed": self.seed, "graph": str(self.data / "graph.json"),
                   "checkpoint": str(self.checkpoint), "context": rec["context"],
                   "partial": rec["path"][:cut], "beta": self.w.beta}

    def sample_paths(self, config: dict) -> None:
        out = self.work / "sample_paths"
        self.cli("sample-paths", config, out)
        s, t = config["source"], config["target"]
        rows = _read_jsonl(out / "samples.jsonl")
        bad = [r["path"] for r in rows
               if r["path"][0] != s or r["path"][-1] != t
               or any((u, v) not in self.edges for u, v in zip(r["path"], r["path"][1:]))]
        self.checks.check("sampled walks run s->t over graph edges", not bad,
                          f"{len(bad)} bad walks, e.g. {bad[:1]}")
        total = sum(r["count"] for r in rows)
        self.checks.check("sample counts sum to the draws", total == config["num_samples"],
                          f"{total} != {config['num_samples']}")
        meta = json.loads((out / "samples_meta.json").read_text())
        self.resample_events += meta["resample_events"]
        self.rejected += meta["rejected_count"]

    def predict_dest(self, config: dict) -> None:
        out = self.work / "predict_dest"
        self.cli("predict-dest", config, out)
        probs = json.loads((out / "destinations.json").read_text())["probabilities"]
        total = sum(probs.values())
        visited = {str(x) for x in config["partial"][:-1]}
        self.checks.check("destination probabilities sum to 1",
                          abs(total - 1.0) <= PROB_TOLERANCE, f"sum {total!r}")
        self.checks.check("visited nodes get no destination mass",
                          not visited & set(probs) and all(p >= 0 for p in probs.values()),
                          f"visited {sorted(visited & set(probs))}")

    def query(self) -> None:
        """The next query: sample-paths and predict-dest take turns."""
        run, stream = next(self._queries)
        run(next(stream))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w: spec.Workload, seed: int, seconds: float, work: Path,
            checks: Checks) -> tuple[dict, dict]:
    """Untraced run: every end-to-end metric, plus the query counts.

    After training, `seconds` are cut into spec.SLICES slices.  Each slice
    repeats gen and eval once and then answers queries, the two kinds in
    turn, until the slice ends, so the repeats of every stage are spread over the whole window:
    on a shared machine whose speed drifts over seconds, that keeps one slow
    stretch from landing on a single stage.  Query latency is reported as
    the 10th percentile: on a shared 2-core sandbox whose speed switches
    between two levels about 1.45x apart for seconds to minutes at a time,
    it varied least from run to run; the median and 90th percentile of
    every run are printed and kept in the result file.
    """
    p = Pipeline(w, seed, work, checks)
    p.setup()
    anchors = p.train()
    jaccard = None
    slice_ends = []
    start = time.perf_counter()
    for i in range(spec.SLICES):
        p.regen(i + 1)
        n_test, score = p.eval()
        checks.check("eval is deterministic", jaccard in (None, score), f"{score} != {jaccard}")
        jaccard = score
        p.query()
        while time.perf_counter() - start < (i + 1) * seconds / spec.SLICES:
            p.query()
        slice_ends.append(len(p.wall["sample-paths"]))
    p.verify()
    ms = {k: [1e3 * x for x in p.wall[k]] for k in ("sample-paths", "predict-dest")}
    return {
        "setup_s": statistics.median(p.wall["gen"]),
        "train_anchors_per_s": anchors / p.wall["train"][0],
        "eval_records_per_s": n_test * len(p.wall["eval"]) / sum(p.wall["eval"]),
        "sample_paths_ms_p10": percentile(ms["sample-paths"], 10),
        "predict_dest_ms_p10": percentile(ms["predict-dest"], 10),
        "peak_rss_mb": peak_rss_mb(),
        "test_jaccard": jaccard,
    }, {"queries": {k: len(v) for k, v in ms.items()}, "wall_s": p.wall,
        "slice_ends": slice_ends}


def _full_pass(w, seed, work, checks, tracer=None) -> tuple[Pipeline, float]:
    p = Pipeline(w, seed, work, checks, tracer)
    p.setup()
    p.train()
    p.eval()
    for _ in range(2 * w.trace_queries):
        p.query()
    return p, sum(sum(v) for v in p.wall.values())


def traced(w: spec.Workload, seed: int, work: Path, checks: Checks,
           tracer) -> tuple[dict, dict]:
    """Traced run: an untraced pass, the same pass traced, then the engine
    sweep.  Every per-layer metric, plus each pass's stage wall times."""
    plain, plain_s = _full_pass(w, seed, work / "plain", checks)
    out = {"engine.walk_series_radius": plain.rho}
    _, dist, _ = datasp_forward_efficient(plain.prior_matrix, w.beta)
    off = ~np.eye(dist.shape[0], dtype=bool) & np.isfinite(dist)
    out["engine.min_distance"] = float(dist[off].min())

    with tracer.installed():
        tp, traced_s = _full_pass(w, seed, work / "traced", checks, tracer)
    same = filecmp.cmp(plain.train_dir / "train_log.jsonl",
                       tp.train_dir / "train_log.jsonl", shallow=False)
    checks.check("traced train log is byte-identical", same)
    plain.verify()

    out.update(tracer.layer_metrics())
    c = tracer.counts
    anchors = out["training.anchor_gradients.calls"]
    queries = w.trace_queries
    out.update({
        "training.floored_frac": c["floored_terms"] / c["observed_terms"] if c["observed_terms"] else 0.0,
        "training.skipped_frac": tp.skipped / anchors if anchors else 0.0,
        "trajectories.paths_per_anchor": c["paths"] / anchors if anchors else 0.0,
        "trajectories.pairs_per_anchor": c["pairs"] / anchors if anchors else 0.0,
        "graph.removed_nodes": (c["removed_nodes"] / out["graph.sample_subgraph.calls"]
                                if out["graph.sample_subgraph.calls"] else 0.0),
        "inference.resample_events_per_query": tp.resample_events / queries,
        "inference.rejected_per_query": tp.rejected / queries,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    out.update(engine_sweep(w.sweep_sizes))
    stage_s = {name: {cmd: sum(v) for cmd, v in p.wall.items()}
               for name, p in (("plain", plain), ("traced", tp))}
    return out, {"stage_s": stage_s}


def engine_sweep(sizes) -> dict[str, float]:
    """Engine forward/backward time and forward peak allocation at each V,
    on the prior costs of the generator's default graph, with fitted
    log-log exponents."""
    out = {}
    fwd, bwd = [], []
    for v in sizes:
        data = generate_synthetic_dataset(
            GeneratorConfig(num_nodes=v, num_samples=0, seed=spec.DATASET_SEED))
        m = build_cost_matrix(data.prior, data.graph)
        # A single repeat at the large sizes keeps the sweep within seconds;
        # the work there is long enough to time on its own.
        repeats = 3 if v < 100 else 1
        f_times, b_times = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            p, dist, tape = datasp_forward_efficient(m, spec.SWEEP_BETA)
            f_times.append(time.perf_counter() - start)
            grad_p = np.full(p.shape, 1.0 / v)
            start = time.perf_counter()
            datasp_backward(tape, grad_p, np.zeros_like(dist))
            b_times.append(time.perf_counter() - start)
            del p, dist, tape, grad_p
        tracemalloc.start()
        try:
            datasp_forward_efficient(m, spec.SWEEP_BETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fwd.append(1e3 * statistics.median(f_times))
        bwd.append(1e3 * statistics.median(b_times))
        out[f"engine.forward.ms.v{v}"] = fwd[-1]
        out[f"engine.backward.ms.v{v}"] = bwd[-1]
        out[f"engine.forward.peak_alloc_mb.v{v}"] = peak / 2**20
    logv = np.log(np.asarray(sizes, dtype=float))
    out["engine.forward.exponent"] = float(np.polyfit(logv, np.log(fwd), 1)[0])
    out["engine.backward.exponent"] = float(np.polyfit(logv, np.log(bwd), 1)[0])
    return out
