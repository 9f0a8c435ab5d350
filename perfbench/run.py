"""Benchmark of the datasp CLI pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload synth-v30 --seed 0 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

A run generates the workload's dataset, trains one epoch, evaluates the test
split and answers sample-paths / predict-dest queries, all through
`datasp.cli.main` in this process, and checks every output.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it repeats
the pipeline with each layer function wrapped in a span recorder, and
reports per-layer metrics plus an engine scaling sweep.  `--workload all`
runs each workload in a fresh process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
operation and output check passed.  A result file with the environment
(git sha, Python, numpy, BLAS, nproc), the failures and, for traced runs,
the spans is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS and OpenMP read these once, when numpy is first imported.
for _var in THREAD_VARS:
    try:
        _cap = min(int(os.environ.get(_var, NPROC)), NPROC)
    except ValueError:
        _cap = NPROC
    os.environ[_var] = str(max(_cap, 1))
os.environ.pop("DATASP_SEED", None)  # train would override the config seed with it

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_program():
    if not (SRC / "datasp" / "__init__.py").is_file():
        sys.exit(f"error: no datasp sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import datasp

    if Path(datasp.__file__).resolve().parent != SRC / "datasp":
        sys.exit(f"error: imported datasp from {datasp.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": NPROC,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    _import_program()
    import pipeline
    import spec
    from spans import Tracer

    w = spec.workload(name)
    tag = f"{name}-seed{seed}-trace{trace}"
    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    checks = pipeline.Checks()
    tracer = Tracer() if trace else None
    metrics, info = {}, {}
    try:
        if trace:
            metrics, info = pipeline.traced(w, seed, work, checks, tracer)
        else:
            metrics, info = pipeline.measure(w, seed, seconds, work, checks)
    except pipeline.Abort as exc:
        print(f"aborted after failed operation: {exc}", file=sys.stderr)
    defs = spec.per_layer(w.sweep_sizes) if trace else spec.END_TO_END
    if not checks.failures:
        shutil.rmtree(work, ignore_errors=True)
        missing = [m.name for m in defs if m.name not in metrics]
        checks.check("every metric reported", not missing, str(missing))

    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "environment": environment(), "correct": checks.failed == 0,
           "attempted": checks.attempted, "failed": checks.failed,
           "failures": checks.failures, "metrics": metrics, **info}
    if tracer is not None:
        spans_path = results / f"{tag}-spans.jsonl"
        tracer.write(spans_path)
        doc["spans"] = str(spans_path.relative_to(ROOT))
    (results / f"{tag}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))

    env = doc["environment"]
    print(f"env: git {env['git_sha'][:12]} python {env['python']} numpy {env['numpy']} "
          f"blas {env['blas']} nproc {env['nproc']}")
    print(f"workload {name} seed {seed} trace {trace}: "
          f"{checks.attempted} operations, {checks.failed} failed")
    reported = {}
    for m in defs:
        if m.name in metrics:
            value = float(metrics[m.name])
            reported[m.name] = {"value": value, "unit": m.unit}
            print(f"  {m.name:<56} {value:>14.6g} {m.unit}")
    for kind, count in info.get("queries", {}).items():
        ms = [1e3 * x for x in info["wall_s"][kind]]
        print(f"  ({kind}: {count} queries, p50 {pipeline.percentile(ms, 50):.4g} ms, "
              f"p90 {pipeline.percentile(ms, 90):.4g} ms)")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": reported}))
    return 0 if checks.failed == 0 else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload, gated or not, in a fresh process; one combined result line."""
    import spec

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in [*spec.WORKLOADS, spec.SYNTH_V30.name]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*spec.WORKLOADS, *spec.UNGATED, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS,
                        help="length of a timed run's window after training")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
