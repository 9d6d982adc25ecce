"""perfbench's traced run wraps functions it looks up by name in each layer;
a rename in geninv, or a call it cannot see, must fail here before it breaks
that run. Its self-test also runs here, so a change that calls into a layer
a workload must leave idle fails the test suite and not only the benchmark."""

import importlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import support

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


def per_call(monkeypatch, names, runs, a):
    """For each run, how often run(a) reaches each function in names, as the
    tracer counts it; the geninv namespaces must be as they were afterwards."""
    tracing = load_tracing(monkeypatch)
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "geninv" or name.startswith("geninv."))]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = []
        for run in runs:
            start = [tracer.calls[tracing.FUNCTIONS.index(name)] for name in names]
            run(a)
            calls.append([tracer.calls[tracing.FUNCTIONS.index(name)] - s0
                          for name, s0 in zip(names, start)])
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    return calls


def test_tracer_sees_the_square_routes(monkeypatch):
    # group_inverse_poly reaches minimal_polynomial, q_polynomial and, for
    # q(A), poly_at, and drazin_inverse mat_mul, through module globals: A^2,
    # R*A, (R*A)*C and C times the solve's (R*A*C)^-1*R. A call made through
    # any other reference reads 0 calls here
    geninv = importlib.import_module("geninv")
    a = geninv.RMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])  # index 1
    names = ("square.minimal_polynomial", "square.q_polynomial", "square.poly_at",
             "exact.mat_mul")
    calls = per_call(monkeypatch, names, (geninv.drazin_inverse, geninv.group_inverse_poly), a)
    assert calls == [[0, 0, 0, 4], [1, 1, 1, 6]]


def test_tracer_sees_the_drazin_ranks(monkeypatch):
    # a cold drazin_inverse at index k >= 1 forms A^2 .. A^(k+1) and then R*A,
    # (R*A)*C and C times (R*A*C)^-1*R, which one solve of [R*A*C | R] gives
    # with no inverse, and never calls mat_rank: the rank sequence ranks each
    # power by the elimination that gives its pivot columns and rows. At
    # k = 0 (C = R = I) it inverts A itself and forms no product
    geninv = importlib.import_module("geninv")
    names = ("exact.mat_mul", "exact.mat_rank", "exact.mat_inverse")
    for k in range(4):
        a = support.rand_with_index(random.Random(k), k, 4 - k)
        assert geninv.index_of(a) == k
        geninv.square._index_and_skeleton.cache_clear()
        calls = per_call(monkeypatch, names, (geninv.drazin_inverse,), a)
        assert calls == [[k + 3, 0, 0] if k else [0, 0, 1]]


def test_tracer_sees_the_pseudoinverse_route(monkeypatch):
    # moore_penrose is the full-rank form on A's pivot columns and rows: three
    # products around one solve of [Ct*A*Rt | Ct], with no inverse, and neither
    # the reduction nor its Gram blocks; at full row or column rank one side
    # cancels, leaving one product and one solve; a regular A is inverted
    # itself, with no product
    geninv = importlib.import_module("geninv")
    names = ("factorize.full_rank_reduce", "rect.compute_star_blocks", "exact.mat_mul",
             "exact.mat_inverse")
    a = geninv.RMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]])  # rank 2
    assert per_call(monkeypatch, names, (geninv.moore_penrose,), a) == [[0, 0, 3, 0]]
    a = geninv.RMatrix.from_rows([[1, 2, 3], [0, 1, 4]])  # full row rank
    assert per_call(monkeypatch, names, (geninv.moore_penrose,), a) == [[0, 0, 1, 0]]
    a = geninv.RMatrix.from_rows([[1, 2], [0, 1], [3, 4]])  # full column rank
    assert per_call(monkeypatch, names, (geninv.moore_penrose,), a) == [[0, 0, 1, 0]]
    a = geninv.RMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]])  # regular
    assert per_call(monkeypatch, names, (geninv.moore_penrose,), a) == [[0, 0, 0, 1]]


def test_tracer_sees_the_g13_family_route(monkeypatch):
    # on the library's reduction each forced side is one product and one
    # solve, Ct*C for the pivot columns C or R*Rt for the rows R on which
    # Q[:r, :] is nonzero, its answer put in place by row or column: no Gram
    # matrix of P or Q and no inverse; g134 takes both sides
    geninv = importlib.import_module("geninv")
    names = ("rect.compute_star_blocks", "exact.mat_mul", "exact.mat_inverse")
    constructors = (geninv.g13_inverse, geninv.g123_inverse, geninv.g14_inverse,
                    geninv.g124_inverse, geninv.g134_inverse)
    runs = [lambda a, g=g: g(geninv.full_rank_reduce(a)) for g in constructors]
    # rank 2; then pivot columns found out of order, [1, 0], which g134 must
    # still read as unit columns of P[:, :r] and take Z*Y with no product
    for a in ([[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]], [[0, 1, 2], [1, 0, 1], [1, 1, 3]]):
        a = geninv.RMatrix.from_rows(a)
        assert per_call(monkeypatch, names, runs, a) == [[0, 1, 0]] * 4 + [[0, 2, 0]]
        # g124 given x1 takes G^+ = (G^+*Y)*(A*Z) from the default g14: its
        # one product, then [I, x1]*Q, A*Z, g14*(A*Z) and that times [I, x1]*Q
        x1 = geninv.RMatrix.from_rows([[1], [2]])
        run = [lambda a: geninv.g124_inverse(geninv.full_rank_reduce(a), x1)]
        assert per_call(monkeypatch, names + ("rect.g14_inverse",), run, a) == [[0, 5, 0, 1]]


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
