"""Reference arithmetic for checking geninv's outputs.

Plain ``Fraction`` code over lists of rows that shares nothing with geninv:
products, Gauss-Jordan inverse, rank, the index by the rank sequence, the
Penrose equations, and readers for the CLI's MatrixFile and polynomial
text. It runs outside every timed region.
"""

from __future__ import annotations

from fractions import Fraction


def frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def eye(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zero(m: int, n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(m)]


def mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def tr(a):
    return [list(col) for col in zip(*a)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, s):
    return [[s * x for x in row] for row in a]


def power(a, k: int):
    out = eye(len(a))
    for _ in range(k):
        out = mul(out, a)
    return out


def same(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def rank(a) -> int:
    grid = [list(row) for row in a]
    r = 0
    for c in range(len(grid[0]) if grid else 0):
        piv = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        for i in range(r + 1, len(grid)):
            if grid[i][c]:
                f = grid[i][c] / grid[r][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        r += 1
    return r


def inverse(a):
    n = len(a)
    aug = [list(row) + e for row, e in zip(a, eye(n))]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def block_diag(a, b):
    """[[a, 0], [0, b]]; either block may be empty (an empty list)."""
    na, nb = len(a), len(b)
    return ([list(row) + [Fraction(0)] * nb for row in a]
            + [[Fraction(0)] * na + list(row) for row in b])


def index(a) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1))."""
    k, prev, p = 0, len(a), eye(len(a))
    while True:
        p = mul(p, a)
        cur = rank(p)
        if cur == prev:
            return k
        k, prev = k + 1, cur


def pinv_from_factors(l, r):
    """Moore-Penrose inverse of L*R for full-column-rank L and full-row-rank R:
    Rt (R Rt)^-1 (Lt L)^-1 Lt."""
    rt, lt = tr(r), tr(l)
    return mul(mul(rt, inverse(mul(r, rt))), mul(inverse(mul(lt, l)), lt))


def is_ep(a) -> bool:
    """A is EP exactly when A and At have the same null space."""
    return rank(list(a) + tr(a)) == rank(a)


def penrose(a, x, k=None) -> dict:
    """The six defining equations; eq5 and eq6 are None for non-square A.
    ``k`` is the index of A, computed here when not given."""
    ax, xa = mul(a, x), mul(x, a)
    out = {"eq1": same(mul(ax, a), a), "eq2": same(mul(x, ax), x),
           "eq3": same(tr(ax), ax), "eq4": same(tr(xa), xa),
           "eq5": None, "eq6": None}
    if len(a) == len(a[0]):
        ak = power(a, index(a) if k is None else k)
        out["eq5"] = same(ax, xa)
        out["eq6"] = same(mul(ak, xa), ak)
    return out


def drazin_holds(a, x, k: int) -> bool:
    """X*A*X = X, A*X = X*A and A^(k+1)*X = A^k: these fix the Drazin inverse."""
    ak = power(a, k)
    return (same(mul(mul(x, a), x), x) and same(mul(a, x), mul(x, a))
            and same(mul(mul(ak, a), x), ak))


def poly_eval(coeffs, a):
    """sum c_i A^i by Horner's scheme; ``coeffs`` from degree 0 upwards."""
    n = len(a)
    acc = zero(n, n)
    for c in reversed(coeffs):
        acc = add(mul(acc, a), scale(eye(n), c))
    return acc


def powers_independent(a, d: int) -> bool:
    """Whether I, A, ..., A^(d-1) are linearly independent."""
    flat, p = [], eye(len(a))
    for _ in range(d):
        flat.append([x for row in p for x in row])
        p = mul(p, a)
    return rank(flat) == d


def format_matrix(a) -> str:
    return f"{len(a)} {len(a[0])}\n" + "".join(" ".join(str(x) for x in row) + "\n"
                                                for row in a)


def read_matrix(text: str):
    """Rows of a MatrixFile text, or None when the text is not one."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or len(lines[0]) != 2:
        return None
    m, n = int(lines[0][0]), int(lines[0][1])
    rows = [[Fraction(t) for t in ln] for ln in lines[1:]]
    if len(rows) != m or any(len(row) != n for row in rows):
        return None
    return rows


def read_poly(text: str) -> list[Fraction]:
    """Coefficients, degree 0 upwards, of text such as ``x^3 - 15*x^2 - 18*x``."""
    coeffs: dict[int, Fraction] = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" not in term:
            c, d = Fraction(term), 0
        else:
            c_text, _, x_text = term.rpartition("x")
            c = Fraction(c_text.rstrip("*")) if c_text else Fraction(1)
            d = int(x_text[1:]) if x_text.startswith("^") else 1
        coeffs[d] = sign * c
    return [coeffs.get(d, Fraction(0)) for d in range(max(coeffs) + 1)]


def minpoly_degree(a) -> int:
    """Degree of the minimal polynomial: the number of independent powers I, A, ..."""
    d = 1
    while powers_independent(a, d + 1):
        d += 1
    return d


def det(a) -> Fraction:
    grid = [list(row) for row in a]
    n, out = len(grid), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if grid[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            grid[c], grid[piv] = grid[piv], grid[c]
            out = -out
        out *= grid[c][c]
        for i in range(c + 1, n):
            if grid[i][c]:
                f = grid[i][c] / grid[c][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[c])]
    return out
