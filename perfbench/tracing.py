"""Spans around geninv's public functions, recorded from outside the library.

``Tracer`` wraps each function listed in ``LAYERS`` whose module is imported,
and binds the wrapper in
every ``geninv`` module namespace that holds the original, so that calls
between geninv's own modules are seen too; ``uninstall`` puts the originals
back. A span is (function, start, end, parent span); spans are kept in
memory and summed into calls, total and self time per function, where self
time is the span's duration minus that of its wrapped children. Size counts
are taken after a span ends, from its arguments and result; the time they
take is left out of the totals of the spans around them.
"""

from __future__ import annotations

import sys
import time

# layer (geninv module) -> the public functions traced in it
LAYERS = {
    "exact": ("mat_mul", "mat_rank", "mat_inverse", "mat_pow", "block_compose",
              "block_extract"),
    "factorize": ("full_rank_reduce",),
    "rect": ("moore_penrose", "compute_star_blocks", "g1_inverse", "g2_inverse",
             "g12_inverse", "g13_inverse", "g123_inverse", "g14_inverse",
             "g124_inverse", "g134_inverse"),
    "square": ("minimal_polynomial", "q_polynomial", "index_of", "poly_at",
               "drazin_inverse", "group_inverse_poly", "group_inverse_block", "is_ep"),
    "penrose": ("check",),
    "cli": ("run", "parse_matrix_text", "write_matrix"),
}

# extra size counts: metric name -> unit
SIZES = {
    "exact.mat_mul.scalar_muls": "count",
    "exact.mat_mul.max_bits": "bits",
    "factorize.full_rank_reduce.max_bits": "bits",
    "rect.moore_penrose.max_bits": "bits",
    "square.drazin_inverse.max_bits": "bits",
    "cli.write_matrix.bytes": "bytes",
}

FUNCTIONS = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units.update({f"{fn}.calls": "count", f"{fn}.total_s": "s", f"{fn}.self_s": "s"})
    units.update(SIZES)
    units["trace.overhead_pct"] = "%"
    return units


def _max_bits(m) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for row in m.entries for v in row), default=0)


def _mat_mul_sizes(counts, args, result) -> None:
    a, b = args[0], args[1]
    counts["exact.mat_mul.scalar_muls"] += a.rows * a.cols * b.cols
    counts["exact.mat_mul.max_bits"] = max(counts["exact.mat_mul.max_bits"], _max_bits(result))


def _bits_of(key, *fields):
    def record(counts, args, result):
        mats = [getattr(result, f) for f in fields] if fields else [result]
        counts[key] = max([counts[key]] + [_max_bits(m) for m in mats])
    return record


def _write_bytes(counts, args, result) -> None:
    counts["cli.write_matrix.bytes"] += len(result.encode())


SIZE_HOOKS = {
    "exact.mat_mul": _mat_mul_sizes,
    "factorize.full_rank_reduce": _bits_of("factorize.full_rank_reduce.max_bits", "p", "q"),
    "rect.moore_penrose": _bits_of("rect.moore_penrose.max_bits"),
    "square.drazin_inverse": _bits_of("square.drazin_inverse.max_bits"),
    "cli.write_matrix": _write_bytes,
}


class Tracer:
    """Records spans for the functions in ``LAYERS`` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int]] = []  # (fn, start, end, parent)
        self.calls = [0] * len(FUNCTIONS)
        self.total = [0.0] * len(FUNCTIONS)
        self.self_time = [0.0] * len(FUNCTIONS)
        self.counts = dict.fromkeys(SIZES, 0)
        self._stack: list[list] = []  # [span id, children's time] of open spans
        self._bound: list[tuple[object, str, object]] = []  # (module, name, original)
        self._counting = [0.0]  # time spent taking size counts, left out of every span
        self._mark = ([0.0] * len(FUNCTIONS), [0.0] * len(FUNCTIONS))
        self.best_total = [float("inf")] * len(FUNCTIONS)
        self.best_self = [float("inf")] * len(FUNCTIONS)

    def _wrap(self, fid: int, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counting = self._counting

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            counted = counting[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (fid, start, end, parent)
                took = end - start - (counting[0] - counted)
                self.calls[fid] += 1
                self.total[fid] += took
                self.self_time[fid] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if hook is not None:
                begin = clock()
                hook(self.counts, args, result)
                counting[0] += clock() - begin
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "geninv" or name.startswith("geninv."))]
        for fid, key in enumerate(FUNCTIONS):
            layer, name = key.split(".")
            if f"geninv.{layer}" not in sys.modules:
                continue  # a layer the workload never imports has no calls to see
            original = getattr(sys.modules[f"geninv.{layer}"], name)
            wrapper = self._wrap(fid, original, SIZE_HOOKS.get(key))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    def end_round(self) -> None:
        """Close a traced round: keep each function's lowest time in one round."""
        for fid in range(len(FUNCTIONS)):
            self.best_total[fid] = min(self.best_total[fid], self.total[fid] - self._mark[0][fid])
            self.best_self[fid] = min(self.best_self[fid], self.self_time[fid] - self._mark[1][fid])
        self._mark = (list(self.total), list(self.self_time))

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per round of the workload: calls and size counts, and each
        function's total and self time in its fastest traced round."""
        out: dict[str, float] = {}
        for fid, fn in enumerate(FUNCTIONS):
            out[f"{fn}.calls"] = self.calls[fid] // rounds  # every round is the same
            out[f"{fn}.total_s"] = self.best_total[fid]
            out[f"{fn}.self_s"] = self.best_self[fid]
        for key, value in self.counts.items():
            out[key] = value // rounds if key.endswith((".scalar_muls", ".bytes")) else value
        return out

    def span_records(self) -> list[list]:
        return [[FUNCTIONS[fid], start, end, parent]
                for fid, start, end, parent in self.spans]
