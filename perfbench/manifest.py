"""Render BENCHMARK.json from spec.py: `python3 perfbench/manifest.py`."""

from __future__ import annotations

import json
from pathlib import Path

import spec

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def build() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in spec.WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in spec.END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in spec.per_layer()],
    }


def render() -> str:
    return json.dumps(build(), indent=2) + "\n"


if __name__ == "__main__":
    PATH.write_text(render())
