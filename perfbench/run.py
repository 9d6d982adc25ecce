#!/usr/bin/env python3
"""geninv benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload pinv-rect --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository: geninv is imported from its ``src``
directory, never from an installed copy. One process and one thread issue
operations back to back, each starting when the previous one returned, in
whole rounds over the workload's inputs until ``--seconds`` have passed and
at least 100 operations were timed. Every output is checked against the
benchmark's own ``Fraction`` code after its timing ends.

Times are scaled to a reference host speed. The host this was written on
changes speed by up to 2x for minutes at a time, with CPU time equal to wall
time, so each operation and each set-up is preceded by a calibration, a fixed
``Fraction`` matrix product, and its latency is taken as latency /
calibration * CALIBRATION_REF_S. Each input's latency is the median of these
over the run's rounds. Latency percentiles are over the inputs of one round;
``ops_per_s`` is the round's input count over the sum of their latencies;
``setup_s`` is the median of the scaled set-ups timed after every round. The
run record keeps the raw timings and calibrations.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, reports per-layer calls, times and sizes per
traced round, and the tracing overhead against the untraced rounds. The last
line of standard output is one JSON object; a fuller record, with the spans
of a traced run, goes to ``.perfbench_out/`` in the checkout. The exit code is
0 when every output was correct, 1 when one was not, and 2 on a usage error
or when the checkout holds no geninv sources.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100  # every run times at least this many operations
# Seconds the calibration takes on the reference host (2 vCPU Xeon at 2.0 GHz,
# Python 3.11.7) in its fast phase; reported times are scaled to this speed.
CALIBRATION_REF_S = 0.00075


class Calibration:
    """A fixed 6x6 Fraction matrix product, timed to gauge the host's speed."""

    def __init__(self) -> None:
        rng = random.Random("calibration")
        self.a = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(6)]
                  for _ in range(6)]

    def __call__(self) -> float:
        gc.disable()  # a collection of the program's garbage is not the host's speed
        try:
            start = time.perf_counter()
            oracle.mul(self.a, self.a)
            return time.perf_counter() - start
        finally:
            gc.enable()


def geninv_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "geninv" or n.startswith("geninv.")}


def set_up(workload, data, workdir: str):
    """Import geninv afresh and load the inputs; returns the package, the
    loaded inputs and the time taken in seconds."""
    for name in geninv_modules():
        del sys.modules[name]
    start = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    g = sys.modules["geninv"]
    loaded = workload.load(g, data, workdir)
    return g, loaded, time.perf_counter() - start


def set_up_again(workload, data, workdir: str) -> float:
    """Time one more set-up, then put back the modules the operations use."""
    kept = geninv_modules()
    took = set_up(workload, data, workdir)[2]
    for name in geninv_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return took


def run_round(ops, failures: list, calibrate) -> list[tuple[float, float]]:
    """Run every op once, each right after a calibration; returns each op's
    (latency, calibration) in seconds."""
    timings = []
    for op in ops:
        cal = calibrate()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op counts as failed, the run goes on
            out, ok = exc, False
        else:
            ok = None
        timings.append((time.perf_counter() - start, cal))
        if ok is None:
            try:
                ok = op.verify(out)
            except Exception as exc:  # output too malformed to check: a failed op
                out, ok = exc, False
        if not ok:
            failures.append(f"{op.label}: {out!r}"[:300])
    return timings


def scaled(timings) -> float:
    """Median over repetitions of latency / calibration, in reference seconds."""
    return statistics.median(t / cal for t, cal in timings) * CALIBRATION_REF_S


def latency_metrics(rounds: list) -> dict:
    """End-to-end timings over the inputs of a round, each input's latency
    being its scaled median over the run's rounds."""
    per_input = [scaled(reps) for reps in zip(*rounds)]
    return {
        "ops_per_s": (len(per_input) / sum(per_input), "op/s"),
        "latency_p50_ms": (statistics.median(per_input) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(per_input, n=10)[8] * 1e3, "ms"),
    }


def measure(ops, seconds: float, set_up_once):
    """Time whole rounds, and one set-up after each; returns the metrics."""
    calibrate = Calibration()
    failures, rounds, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline or len(rounds) * len(ops) < MIN_OPS:
        rounds.append(run_round(ops, failures, calibrate))
        cal = calibrate()
        setups.append((set_up_once(), cal))
    attempted = len(rounds) * len(ops)
    metrics = latency_metrics(rounds)
    metrics["setup_s"] = (scaled(setups), "s")
    extra = {"rounds": len(rounds), "timings": rounds, "setup_timings": setups,
             "observed_ops_per_s": attempted / sum(t for r in rounds for t, _ in r)}
    return metrics, attempted, failures, extra


def measure_traced(ops, seconds: float):
    """Alternate untraced and traced rounds, swapping their order every pair."""
    calibrate = Calibration()
    failures, plain, traced = [], [], []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline or 2 * len(plain) * len(ops) < MIN_OPS:
        for with_trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_round(ops, failures, calibrate))
                continue
            tracer.install()
            try:
                traced.append(run_round(ops, failures, calibrate))
            finally:
                tracer.uninstall()
            tracer.end_round()
    units = tracing.metric_units()
    metrics = {name: (value, units[name])
               for name, value in tracer.metrics(len(traced)).items()}
    per_round = [sum(map(scaled, zip(*r))) for r in (plain, traced)]
    metrics["trace.overhead_pct"] = ((per_round[1] / per_round[0] - 1) * 100, "%")
    extra = {"rounds": 2 * len(traced), "traced_rounds": len(traced),
             "spans": tracer.span_records()}
    return metrics, 2 * len(traced) * len(ops), failures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geninv" / "__init__.py").is_file():
        print(f"run.py: no geninv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    data = workload.make(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    try:
        g, loaded, _ = set_up(workload, data, str(workdir))
        if Path(g.__file__).resolve().parent != (SRC / "geninv").resolve():
            print(f"run.py: imported geninv from {g.__file__}, not from {SRC}",
                  file=sys.stderr)
            return 2
        ops = workload.ops(g, data, loaded)
        if args.trace:
            metrics, attempted, failures, extra = measure_traced(ops, args.seconds)
        else:
            metrics, attempted, failures, extra = measure(
                ops, args.seconds, lambda: set_up_again(workload, data, str(workdir)))
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  ops_per_round=len(ops), failures=failures[:20], **extra)
    (OUT / f"{tag}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
