"""perfbench's traced run wraps functions it looks up by name in each layer;
a rename in geninv, or a call it cannot see, must fail here before it breaks
that run. Its self-test also runs here, so a change that calls into a layer
a workload must leave idle fails the test suite and not only the benchmark."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [f"geninv.{layer}.{name}" for layer, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"geninv.{layer}"), name, None))]
    assert tracing.FUNCTIONS and missing == []


def test_tracer_sees_the_square_routes(monkeypatch):
    # group_inverse_poly reaches minimal_polynomial and q_polynomial, and
    # drazin_inverse mat_inverse, through module globals; a call made through
    # any other reference reads 0 calls here
    tracing = load_tracing(monkeypatch)
    geninv = importlib.import_module("geninv")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "geninv" or name.startswith("geninv."))]
    before = [dict(vars(m)) for m in modules]
    a = geninv.RMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])  # index 1
    names = ("square.minimal_polynomial", "square.q_polynomial", "exact.mat_inverse")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = []
        for run in (geninv.drazin_inverse, geninv.group_inverse_poly):
            start = [tracer.calls[tracing.FUNCTIONS.index(name)] for name in names]
            run(a)
            calls.append([tracer.calls[tracing.FUNCTIONS.index(name)] - s0
                          for name, s0 in zip(names, start)])
    finally:
        tracer.uninstall()
    assert calls == [[0, 0, 1], [1, 1, 0]]
    assert [dict(vars(m)) for m in modules] == before


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
