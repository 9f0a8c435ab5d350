"""The bench's own tests: a V=8 configuration through every stage and check,
and the committed BENCHMARK.json against spec.py.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import manifest
import spec

RUN = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_timed_smoke_run_reports_every_end_to_end_metric():
    result = _run(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    result = _run(1)
    assert result["correct"] and result["failed"] == 0
    expected = [m.name for m in spec.per_layer(spec.SMOKE.sweep_sizes)]
    assert list(result["metrics"]) == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # every layer function is reached through its rebound name
    for layer, function, _ in spec.LAYERS:
        assert metrics[f"{spec.span_name(layer, function)}.calls"] > 0, function
    assert 0 < metrics["engine.walk_series_radius"] < 1


def test_benchmark_json_is_rendered_from_spec():
    assert manifest.PATH.read_text() == manifest.render()
    doc = manifest.build()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
