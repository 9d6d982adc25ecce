#!/usr/bin/env python3
"""Quick self-test of the benchmark, a few seconds long:

    python3 perfbench/selftest.py

For every workload at a tiny size it checks that each operation passes its
check, that a corrupted output (one entry off by 1, a wrong index, a flipped
answer, a non-zero exit code or a diagnostic) is rejected, and that one
traced round leaves idle layers at zero calls and restores every function it
wrapped. Exits 0 when all of that holds.
"""

from __future__ import annotations

import shutil
import sys

import oracle
import run
import tracing
from workloads import WORKLOADS

# layers that must see no calls on a workload
IDLE = {"pinv-rect": ("square",), "drazin-square": ("factorize", "rect", "cli"),
        "cli-small": ()}


def bump_matrix(text: str) -> str:
    rows = oracle.read_matrix(text)
    rows[0][0] += 1
    return oracle.format_matrix(rows)


def double_matrix(text: str) -> str:
    return oracle.format_matrix(oracle.scale(oracle.read_matrix(text), 2))


def corrupt_cli(command: str, out):
    """The same CLI answer with one fault put in."""
    code, text, err = out
    if command == "factor":
        head, _, r = text.rpartition("# r\n")
        text = f"{head}# r\n{int(r) + 1}\n"
    elif command == "index":
        text = f"{int(text) + 1}\n"
    elif command == "ep":
        text = "false\n" if text == "true\n" else "true\n"
    elif command in ("minpoly", "qpoly"):
        text = text.rstrip("\n") + " + 1\n"
    elif command == "verify":
        word = "yes" if " yes\n" in text else "no"
        text = text.replace(f" {word}\n", f" {'no' if word == 'yes' else 'yes'}\n", 1)
    elif command in ("pinv", "group", "drazin"):
        text = bump_matrix(text)
    else:
        # a {1}-type family is affine: one entry off by 1 may still be a member,
        # but 2X breaks A*X*A = A for every nonzero A
        text = double_matrix(text)
    return code, text, err


def corrupt_matrix_result(g, out):
    x, report = out
    rows = [list(row) for row in x.entries]
    rows[-1][-1] += 1
    return g.RMatrix.from_rows(rows), report


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name, workload in WORKLOADS.items():
        data = workload.make(seed=0, tiny=True)
        workdir = run.OUT / f"selftest-{name}"
        try:
            g, loaded, _ = run.set_up(workload, data, str(workdir))
            ops = workload.ops(g, data, loaded)
            before = {(m, attr): value for m, module in run.geninv_modules().items()
                      for attr, value in vars(module).items()}
            tracer = tracing.Tracer()
            tracer.install()
            try:
                outs = [op.run() for op in ops]
            finally:
                tracer.uninstall()
            tracer.end_round()
            for (m, attr), value in before.items():
                if vars(sys.modules[m])[attr] is not value:
                    problems.append(f"{name}: {m}.{attr} not restored after tracing")
            calls = tracer.metrics(1)
            for fn in tracing.FUNCTIONS:
                if fn.split(".")[0] in IDLE[name] and calls[f"{fn}.calls"]:
                    problems.append(f"{name}: idle layer function {fn} was called")
            for op, out in zip(ops, outs):
                if not op.verify(out):
                    problems.append(f"{name}: correct output rejected: {op.label}")
                if name == "cli-small":
                    bad = [corrupt_cli(op.label.split()[0], out), (1,) + out[1:],
                           out[:2] + ("geninv: x\n",)]
                else:
                    bad = [corrupt_matrix_result(g, out)]
                for wrong in bad:
                    if op.verify(wrong):
                        problems.append(f"{name}: corrupted output accepted: {op.label}")
            print(f"{name}: {len(ops)} ops checked")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(line, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
