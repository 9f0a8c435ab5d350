"""The benchmark's traced layer functions still resolve where their callers
look them up.

perfbench/spans.py rebinds each function of perfbench/spec.py `LAYERS` at
the module global its caller reads (`datasp.training`, `datasp.cli`, ...).
A rename or a moved call there would otherwise only show in the slower
`python3 -m pytest -q perfbench` run.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_bench_layer_resolves_at_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.import_module("spec")
    spans = importlib.import_module("spans")
    missing = [f"{layer}.{function}" for layer, function, _ in spec.LAYERS
               if not spans._sites(layer, function)]
    assert not missing, f"no caller binds {missing}"
