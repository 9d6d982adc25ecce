"""perfbench's traced run wraps functions it looks up by name in each layer;
a rename in geninv must fail here before it breaks that run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"geninv.{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"geninv.{layer}"), name, None))]
    assert tracing.FUNCTIONS and missing == []
