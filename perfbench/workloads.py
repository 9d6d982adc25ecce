"""The benchmark's workloads: seeded inputs, one operation per input or
command, and a check of every output against ``oracle``.

A workload is built in three steps:

* ``make(seed, tiny)`` draws the inputs and their expected results with the
  benchmark's own ``Fraction`` code. It uses no geninv code and is not timed.
* ``load(geninv, data, workdir)`` turns the inputs into the program's types
  (``RMatrix.from_rows``, or written matrix files for the CLI). This is the
  set-up that ``setup_s`` times, together with importing geninv.
* ``ops(geninv, data, loaded)`` returns one round: a list of ``Op``, each a
  call into geninv and a check of its output, which runs outside the timing.
  A run repeats whole rounds.

Every call into geninv looks its function up on the package or module at
call time, so that the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    verify: Callable[[Any], bool]


def _ints(rng: random.Random, m: int, n: int, lo: int, hi: int):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m)]


def _of_rank(draw, r: int):
    """Draw matrices until one has rank ``r``."""
    while True:
        a = draw()
        if oracle.rank(a) == r:
            return a


def _regular(rng: random.Random, n: int, lo: int, hi: int):
    return _of_rank(lambda: _ints(rng, n, n, lo, hi), n)


def _regular_banded(rng: random.Random, n: int, lo: int, hi: int):
    """A regular integer matrix whose |det| has the bit length of the root mean
    square determinant of its kind, sqrt(n! * var^n). The determinant sets the
    size of the numbers in everything built from the matrix, and so the cost
    of exact arithmetic; fixing its octave keeps that cost alike across seeds."""
    var = ((hi - lo + 1) ** 2 - 1) / 12
    bits = int(math.log2(math.sqrt(math.factorial(n) * var ** n)))
    while True:
        a = _ints(rng, n, n, lo, hi)
        if int(abs(oracle.det(a))).bit_length() == bits:
            return a


def _jordan_zero(k: int):
    """Nilpotent Jordan block of size and index k (empty for k = 0)."""
    return [[Fraction(int(j == i + 1)) for j in range(k)] for i in range(k)]


def _entries(x) -> list[list[Fraction]]:
    return [list(row) for row in x.entries]


# --- pinv-rect ---------------------------------------------------------------

# (m, n, r): tall and wide, rank-deficient and full-rank, never square. A round
# draws each shape ROUND_COPIES times: 105 inputs, so that the 90th percentile
# of the per-input latencies has ten inputs beyond it and the round's cost
# varies little with the seed. The shapes form three cost tiers of 35 inputs,
# so that the median (input 53 of 105) lies mid-way in the second tier and the
# 90th percentile (input 95.4) inside the third, away from the jumps between
# tiers, where a small change of the inputs would move them a lot.
PINV_SHAPES = [(4, 6, 2), (6, 4, 2), (4, 6, 4), (6, 4, 4), (4, 7, 3),
               (6, 9, 3), (9, 6, 3), (6, 9, 6), (9, 6, 6), (9, 6, 4),
               (7, 11, 4), (11, 7, 4), (7, 11, 7), (11, 7, 7), (11, 7, 5)]
ROUND_COPIES = 7
PINV_TINY = [(2, 3, 1), (3, 2, 2), (2, 4, 2)]


def make_pinv(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(f"pinv-rect/{seed}")
    cases = []
    for m, n, r in PINV_TINY if tiny else PINV_SHAPES * ROUND_COPIES:
        left = _of_rank(lambda: _ints(rng, m, r, -9, 9), r)
        right = _of_rank(lambda: _ints(rng, r, n, -9, 9), r)
        cases.append({"label": f"{m}x{n}r{r}", "a": oracle.mul(left, right),
                      "expected": oracle.pinv_from_factors(left, right)})
    return cases


def load_matrices(g, data: list[dict], workdir: str) -> list:
    return [g.RMatrix.from_rows(case["a"]) for case in data]


def ops_pinv(g, data: list[dict], loaded: list) -> list[Op]:
    def one(case, a):
        def run():
            x = g.moore_penrose(a)
            return x, g.check(a, x)

        def verify(out) -> bool:
            x, report = out
            return _entries(x) == case["expected"] and "MP" in report.classes

        return Op(case["label"], run, verify)

    return [one(case, a) for case, a in zip(data, loaded)]


# --- drazin-square -----------------------------------------------------------

# (n, k): A = S*diag(N_k, M)*S^-1 of size n and index k, with M and S regular;
# each shape ROUND_COPIES times per round, in three cost tiers (n = 3, 5, 6)
# as for pinv-rect.
DRAZIN_SHAPES = [(3, 0), (3, 1), (3, 2), (3, 1), (3, 2),
                 (5, 0), (5, 1), (5, 2), (5, 3), (5, 1),
                 (6, 0), (6, 1), (6, 2), (6, 3), (6, 2)]
DRAZIN_TINY = [(2, 1), (3, 2), (2, 0)]


def make_drazin(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(f"drazin-square/{seed}")
    cases = []
    for n, k in DRAZIN_TINY if tiny else DRAZIN_SHAPES * ROUND_COPIES:
        m = _regular_banded(rng, n - k, -5, 5)
        s = _regular_banded(rng, n, -3, 3)
        s_inv = oracle.inverse(s)
        a = oracle.mul(oracle.mul(s, oracle.block_diag(_jordan_zero(k), m)), s_inv)
        expected = oracle.mul(oracle.mul(
            s, oracle.block_diag(oracle.zero(k, k), oracle.inverse(m))), s_inv)
        if oracle.index(a) != k or not oracle.drazin_holds(a, expected, k):
            raise AssertionError(f"construction of a {n}x{n} index-{k} input failed")
        cases.append({"label": f"{n}x{n}k{k}", "a": a, "expected": expected})
    return cases


def ops_drazin(g, data: list[dict], loaded: list) -> list[Op]:
    def one(case, a):
        def run():
            x = g.drazin_inverse(a)
            return x, g.check(a, x)

        def verify(out) -> bool:
            x, report = out
            return _entries(x) == case["expected"] and "Drazin" in report.classes

        return Op(case["label"], run, verify)

    return [one(case, a) for case, a in zip(data, loaded)]


# --- cli-small ---------------------------------------------------------------

# The paper's two worked examples with their hand-worked pseudoinverses. Both
# are EP, so the group and Drazin inverses equal the pseudoinverse.
GOLDEN = {
    "ex1": ([[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [["-23/36", "-1/6", "11/36"], ["-1/18", 0, "1/18"],
             ["19/36", "1/6", "-7/36"]]),
    "ex3": ([[1, 1, 1, 0, 0], [1, 2, 0, 1, 1], [1, 0, 2, -1, -1],
             [0, 1, -1, 1, 1], [0, 1, -1, 1, 1]],
            [["1/9", "1/9", "1/9", 0, 0], ["1/9", "25/144", "7/144", "1/16", "1/16"],
             ["1/9", "7/144", "25/144", "-1/16", "-1/16"],
             [0, "1/16", "-1/16", "1/16", "1/16"], [0, "1/16", "-1/16", "1/16", "1/16"]]),
}
GOLDEN_MINPOLY = {"ex1": "x^3 - 15*x^2 - 18*x"}

# (m, n, r) of the rectangular products L*R with small rational factors.
CLI_RECT = [(3, 5, 2), (5, 3, 3), (4, 6, 2), (6, 4, 4)]
CLI_RECT_TINY = [(2, 3, 1)]
G_FAMILY = ("pinv", "g1", "g12", "g13", "g123", "g14", "g124", "g134")
# Each command lists the equations its output must satisfy.
G_EQUATIONS = {"pinv": ("eq1", "eq2", "eq3", "eq4"), "g1": ("eq1",),
               "g12": ("eq1", "eq2"), "g13": ("eq1", "eq3"),
               "g123": ("eq1", "eq2", "eq3"), "g14": ("eq1", "eq4"),
               "g124": ("eq1", "eq2", "eq4"), "g134": ("eq1", "eq3", "eq4"),
               "g2": ("eq1", "eq2")}


def _small(rng: random.Random, m: int, n: int):
    return [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]
            for _ in range(m)]


def _unimodular(rng: random.Random, n: int):
    """L*U with unit triangular integer factors: integer with an integer inverse."""
    lower = [[Fraction(1 if i == j else rng.randint(-2, 2) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else rng.randint(-2, 2) if j > i else 0)
              for j in range(n)] for i in range(n)]
    return oracle.mul(lower, upper)


def _with_index(rng: random.Random, n: int, k: int):
    """S*diag(N_k, M)*S^-1 with unimodular S and its Drazin inverse."""
    s = _unimodular(rng, n)
    m = _regular(rng, n - k, -3, 3)
    s_inv = oracle.inverse(s)
    a = oracle.mul(oracle.mul(s, oracle.block_diag(_jordan_zero(k), m)), s_inv)
    ad = oracle.mul(oracle.mul(
        s, oracle.block_diag(oracle.zero(k, k), oracle.inverse(m))), s_inv)
    return a, ad


def make_cli(seed: int, tiny: bool = False) -> dict:
    """Matrix files to write and the commands to run on them.

    Every input carries a candidate computed here (its pseudoinverse, inverse
    or Drazin inverse); some candidates get one entry off by 1, so that
    ``verify`` also answers "no".
    """
    rng = random.Random(f"cli-small/{seed}")
    inputs = {}
    for name, (a, pinv) in GOLDEN.items():
        inputs[name] = {"a": oracle.frac_rows(a), "cand": oracle.frac_rows(pinv),
                        "golden": oracle.frac_rows(pinv)}
    for i, (m, n, r) in enumerate(CLI_RECT_TINY if tiny else CLI_RECT):
        left = _of_rank(lambda: _small(rng, m, r), r)
        right = _of_rank(lambda: _small(rng, r, n), r)
        inputs[f"rect{i}"] = {"a": oracle.mul(left, right),
                              "cand": oracle.pinv_from_factors(left, right)}
    reg = _regular(rng, 4, -4, 4)
    inputs["reg4"] = {"a": reg, "cand": oracle.inverse(reg)}
    while True:
        left = _of_rank(lambda: _small(rng, 5, 3), 3)
        right = _of_rank(lambda: _small(rng, 3, 5), 3)
        a = oracle.mul(left, right)
        if oracle.index(a) == 1:
            break
    inputs["idx1"] = {"a": a, "cand": oracle.pinv_from_factors(left, right)}
    for name, n, k in (("idx2", 6, 2), ("idx3", 5, 3)):
        a, ad = _with_index(rng, n, k)
        inputs[name] = {"a": a, "cand": ad}
    for j, name in enumerate(sorted(inputs)):
        spec = inputs[name]
        a = spec["a"]
        spec["rank"] = oracle.rank(a)
        spec["square"] = len(a) == len(a[0])
        if spec["square"]:
            spec["index"] = oracle.index(a)
            spec["degree"] = oracle.minpoly_degree(a)
        if j % 2:
            cand = [list(row) for row in spec["cand"]]
            cand[0][0] += 1
            spec["cand"] = cand
        m, n, r = len(a), len(a[0]), spec["rank"]
        spec["x0"] = oracle.eye(r)
        spec["f"] = _small(rng, r, m - r) if m > r else None
        spec["g"] = _small(rng, n - r, r) if n > r else None
    return {"inputs": inputs}


def load_cli(g, data: dict, workdir: str) -> dict:
    """Write every matrix as a MatrixFile; returns name -> {role: path}."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name, spec in data["inputs"].items():
        paths[name] = {}
        for role in ("a", "cand", "x0", "f", "g"):
            if spec[role] is None:
                continue
            path = os.path.join(workdir, f"{name}.{role}.rmat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(oracle.format_matrix(spec[role]))
            paths[name][role] = path
    return paths


def _cli_call(g, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = g.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli(command: str, spec: dict, text: str) -> bool:
    a = spec["a"]
    if command == "factor":
        p_text, _, rest = text.partition("# Q\n")
        q_text, _, r_text = rest.partition("# r\n")
        p, q = oracle.read_matrix(p_text), oracle.read_matrix(q_text)
        r = int(r_text)
        want = [[Fraction(int(i == j and i < r)) for j in range(len(a[0]))]
                for i in range(len(a))]
        return (p is not None and q is not None and r == spec["rank"]
                and oracle.rank(p) == len(p) and oracle.rank(q) == len(q)
                and oracle.same(oracle.mul(oracle.mul(q, a), p), want))
    if command == "index":
        return text == f"{spec['index']}\n"
    if command == "ep":
        return text == ("true\n" if oracle.is_ep(a) else "false\n")
    if command == "minpoly":
        # monic, of the degree where the powers of A first become dependent,
        # and annihilates A
        mu = oracle.read_poly(text)
        golden = GOLDEN_MINPOLY.get(spec["name"])
        return (mu[-1] == 1 and len(mu) - 1 == spec["degree"]
                and oracle.same(oracle.poly_eval(mu, a), oracle.zero(len(a), len(a)))
                and (golden is None or text == golden + "\n"))
    if command == "qpoly":
        # q is the one polynomial of degree below deg(mu) - k with A^(k+1)*q(A) = A^k
        q, k = oracle.read_poly(text), spec["index"]
        low = len(q) - 1 < spec["degree"] - k or q == [0]
        return low and oracle.same(oracle.mul(oracle.power(a, k + 1), oracle.poly_eval(q, a)),
                                   oracle.power(a, k))
    if command == "verify":
        got = {line.split()[0]: line.split()[-1]
               for line in text.splitlines() if line.startswith("eq")}
        want = oracle.penrose(a, spec["cand"], spec.get("index"))
        words = {k: "n/a" if v is None else "yes" if v else "no" for k, v in want.items()}
        classes = text.splitlines()[-1].split()[1:]
        mp = all(want[e] for e in ("eq1", "eq2", "eq3", "eq4"))
        drazin = bool(want["eq2"] and want["eq5"] and want["eq6"])
        return got == words and ("MP" in classes) == mp and ("Drazin" in classes) == drazin
    x = oracle.read_matrix(text)
    if x is None or (len(x), len(x[0])) != (len(a[0]), len(a)):
        return False
    if "golden" in spec and command in ("pinv", "group", "drazin"):
        return oracle.same(x, spec["golden"])
    if command == "group":
        eqs = oracle.penrose(a, x, spec["index"])
        return eqs["eq1"] and eqs["eq2"] and eqs["eq5"]
    if command == "drazin":
        return oracle.drazin_holds(a, x, spec["index"])
    eqs = oracle.penrose(a, x)
    return all(eqs[e] for e in G_EQUATIONS[command])


def ops_cli(g, data: dict, loaded: dict) -> list[Op]:
    def one(name, argv):
        spec = dict(data["inputs"][name], name=name)

        def run():
            return _cli_call(g, argv)

        def verify(out) -> bool:
            code, text, err = out
            return code == 0 and err == "" and _check_cli(argv[0], spec, text)

        return Op(f"{argv[0]} {name}", run, verify)

    ops = []
    for name in sorted(data["inputs"]):
        spec, files = data["inputs"][name], loaded[name]
        a = files["a"]
        commands = [[c, a] for c in G_FAMILY] + [["factor", a]]
        g2 = ["g2", a, "--x0", files["x0"]]
        for role in ("f", "g"):
            if role in files:
                g2 += [f"--{role}", files[role]]
        commands += [g2, ["verify", a, "--candidate", files["cand"]]]
        if spec["square"]:
            commands += [[c, a] for c in ("drazin", "index", "minpoly", "qpoly", "ep")]
            if spec["index"] <= 1:
                commands += [["group", a, "--method", m] for m in ("poly", "block")]
        ops += [one(name, argv) for argv in commands]
    return ops


@dataclass
class Workload:
    make: Callable[..., Any]
    load: Callable[..., Any]
    ops: Callable[..., list]
    modules: tuple[str, ...]


WORKLOADS = {
    "pinv-rect": Workload(make_pinv, load_matrices, ops_pinv, ("geninv",)),
    "drazin-square": Workload(make_drazin, load_matrices, ops_drazin, ("geninv",)),
    "cli-small": Workload(make_cli, load_cli, ops_cli, ("geninv", "geninv.cli")),
}
