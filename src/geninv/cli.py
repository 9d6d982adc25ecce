"""Command-line front end.

Matrix files hold a header line ``m n`` followed by m rows of n
whitespace-separated rationals (``-7/36``, ``3``, ``0``); lines starting
with ``#`` are comments. Output matrices use the same format in canonical
form: lowest terms, single spaces, LF line endings. ``--pretty`` switches
to an aligned table for human eyes.

Lines break at LF, CRLF or CR only. Exit codes: 0 success, 1 domain error
(violated precondition) or an output that cannot be written, 2 parse or usage
error. Diagnostics go to standard error.

One table, ``_COMMANDS``, lists the subcommands: each one's help, its
handler and its options. The parser is built from it, and ``run`` loads the
matrix file once and dispatches through it. A block or candidate path given
as ``''`` is read like any other path, and names no file.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from functools import cache

from .errors import GenInvError, ParseError
from .exact import RMatrix, _from_grid, format_rational, parse_rational
from .factorize import full_rank_reduce
from .penrose import check
from . import rect
from .rect import moore_penrose
from .square import (drazin_inverse, group_inverse_block, group_inverse_poly,
                     index_of, is_ep, minimal_polynomial, poly_str, q_polynomial)

PROG = "geninv"

_TOKEN_RE = re.compile(r"\S+")
_COUNT_RE = re.compile(r"[0-9]+\Z")  # ASCII only, as in entries: str.isdigit() takes "²"
# a line and its break, which is LF, CRLF or CR only: str.splitlines() also
# breaks at form feed, U+0085, U+2028 and other characters inside a line
_LINE_RE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def parse_matrix_text(text: str, filename: str = "<input>") -> RMatrix:
    """Parse MatrixFile text; raises ParseError with line/column on bad input."""
    header = None
    data_rows: list[tuple] = []
    last_line = 0
    for lineno, raw in enumerate(_LINE_RE.findall(text), start=1):
        last_line = lineno
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            counts = list(_TOKEN_RE.finditer(raw))
            if len(counts) != 2 or not all(_COUNT_RE.match(c.group()) for c in counts):
                raise ParseError("header must be two counts: m n",
                                 filename=filename, line=lineno, column=1)
            limit = sys.get_int_max_str_digits()
            for c in counts:
                if limit and len(c.group()) > limit:
                    raise ParseError(f"count has more than {limit} digits", filename=filename,
                                     line=lineno, column=c.start() + 1)
            m, n = (int(c.group()) for c in counts)
            if m < 1 or n < 1:
                raise ParseError("matrix dimensions must be at least 1",
                                 filename=filename, line=lineno, column=1)
            header = (m, n)
            continue
        if len(data_rows) == header[0]:
            raise ParseError("unexpected content after the last matrix row",
                             filename=filename, line=lineno, column=1)
        tokens = list(_TOKEN_RE.finditer(raw))
        if len(tokens) != header[1]:
            raise ParseError(f"expected {header[1]} entries, found {len(tokens)}",
                             filename=filename, line=lineno, column=1)
        values = []
        for tok in tokens:
            try:
                values.append(parse_rational(tok.group()))
            except ValueError as exc:
                raise ParseError(str(exc), filename=filename, line=lineno,
                                 column=tok.start() + 1) from exc
        data_rows.append(tuple(values))
    if header is None:
        raise ParseError("empty input: missing m n header",
                         filename=filename, line=max(last_line, 1), column=1)
    if len(data_rows) != header[0]:
        raise ParseError(f"expected {header[0]} matrix rows, found {len(data_rows)}",
                         filename=filename, line=max(last_line, 1), column=1)
    return _from_grid(header[0], header[1], data_rows)


def write_matrix(a: RMatrix) -> str:
    """Canonical MatrixFile text (round-trips byte-identically through the parser)."""
    lines = [f"{a.rows} {a.cols}"]
    lines += [" ".join(format_rational(v) for v in row) for row in a.entries]
    return "\n".join(lines) + "\n"


def pretty_matrix(a: RMatrix) -> str:
    return str(a) + "\n"


class _UsageError(Exception):
    pass


class _OutputTooLarge(Exception):
    pass


def _load(path: str) -> RMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count lines the way the parser does
        head = _LINE_RE.findall(data[:exc.start].decode("utf-8") + "?")
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", filename=path,
                         line=len(head), column=len(head[-1])) from exc
    return parse_matrix_text(text, filename=path)


def _text(render, value) -> str:
    """render(value); a number past Python's int-to-text limit is a size error."""
    try:
        return render(value)
    except ValueError as exc:  # the only error str() raises on an int
        raise _OutputTooLarge(f"output too large: a number has more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc


def _out(mat: RMatrix, args) -> str:
    return _text(pretty_matrix if args.pretty else write_matrix, mat)


def _cmd_factor(a: RMatrix, args) -> str:
    f = full_rank_reduce(a)
    return f"# P\n{_out(f.p, args)}# Q\n{_out(f.q, args)}# r\n{f.r}\n"


# subcommand gN -> ((option, keyword) per free block of rect.gN_inverse, help)
_G_COMMANDS = {
    "g1": ((("x1", "x1"), ("x2", "x2"), ("x3", "x3")), "a {1}-inverse"),
    "g2": ((("x0", "x0"), ("f", "fblk"), ("g", "gblk")), "a {2}-inverse from an idempotent core"),
    "g12": ((("x1", "x1"), ("x2", "x2")), "a {1,2}-inverse"),
    "g13": ((("x2", "x2"), ("x3", "x3")), "a {1,3}-inverse"),
    "g123": ((("x2", "x2"),), "a {1,2,3}-inverse"),
    "g14": ((("x1", "x1"), ("x3", "x3")), "a {1,4}-inverse"),
    "g124": ((("x1", "x1"),), "a {1,2,4}-inverse"),
    "g134": ((("x3", "x3"),), "a {1,3,4}-inverse"),
}


def _no_zero_conflict(args) -> None:
    if getattr(args, "zero", False) and any(
            getattr(args, option) is not None for option, _ in _G_COMMANDS[args.command][0]):
        raise _UsageError("--zero cannot be combined with explicit block files")


def _cmd_g(a: RMatrix, args) -> str:
    construct = getattr(rect, f"{args.command}_inverse")  # at call time, as a name would be
    f = full_rank_reduce(a)
    blocks = {kw: None if (path := getattr(args, option)) is None else _load(path)
              for option, kw in _G_COMMANDS[args.command][0]}
    return _out(construct(f, **blocks), args)


def _cmd_group(a: RMatrix, args) -> str:
    return _out(group_inverse_poly(a) if args.method == "poly" else group_inverse_block(a), args)


def _cmd_verify(a: RMatrix, args) -> str:
    rep = check(a, _load(args.candidate))
    eqs = {"eq1 AXA=A": rep.eq1, "eq2 XAX=X": rep.eq2, "eq3 (AX)^T=AX": rep.eq3,
           "eq4 (XA)^T=XA": rep.eq4, "eq5 AX=XA": rep.eq5, "eq6 A^kXA=A^k": rep.eq6}
    lines = [f"{eq}: {'n/a' if v is None else ('yes' if v else 'no')}" for eq, v in eqs.items()]
    return "\n".join(lines + ["classes: " + (" ".join(rep.classes) or "(none)")]) + "\n"


# subcommand -> (help, handler, *options), in the order help lists them. Every
# subcommand takes a matrix FILE and --pretty; each further option is (flag,
# keywords for add_argument). A handler takes the loaded matrix and the parsed
# arguments and returns the output text. It names the library function it
# calls, looked up at call time, so that a wrapper installed on a geninv module
# (such as perfbench's tracer) sees the call.
_COMMANDS = {
    "factor": ("full-rank reduction: print P, Q and r", _cmd_factor),
    "pinv": ("Moore-Penrose inverse", lambda a, args: _out(moore_penrose(a), args)),
    **{name: (help_, _cmd_g,
              *[(f"--{option}", {"metavar": "FILE", "help": f"file for free block {option}"})
                for option, _ in blocks],
              ("--zero", {"action": "store_true", "help": "use zero free blocks (the default)"}))
       for name, (blocks, help_) in _G_COMMANDS.items()},
    "group": ("group inverse (index <= 1)", _cmd_group,
              ("--method", {"choices": ("poly", "block"), "default": "poly",
                            "help": "polynomial route or block route (default: poly)"})),
    "drazin": ("Drazin inverse", lambda a, args: _out(drazin_inverse(a), args)),
    "index": ("index of a square matrix", lambda a, args: f"{index_of(a)}\n"),
    "minpoly": ("minimal polynomial of a square matrix",
                lambda a, args: _text(poly_str, minimal_polynomial(a).coeffs) + "\n"),
    "qpoly": ("q-polynomial of a square matrix",
              lambda a, args: _text(poly_str, q_polynomial(minimal_polynomial(a))) + "\n"),
    "ep": ("report whether a square matrix is EP",
           lambda a, args: "true\n" if is_ep(a) else "false\n"),
    "verify": ("check a candidate inverse against the defining equations", _cmd_verify,
               ("--candidate", {"metavar": "FILE", "required": True,
                                "help": "file with the candidate inverse X"})),
}


@cache  # built on the first run, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact generalized matrix inverses over the rationals.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_, _, *options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("matrix", metavar="FILE", help="input matrix file")
        p.add_argument("--pretty", action="store_true",
                       help="print an aligned table instead of MatrixFile text")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def run(argv) -> int:
    """Parse arguments, dispatch, and map errors to exit codes; write a command's output whole."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _no_zero_conflict(args)  # a usage error, reported before any file is read
        out = _COMMANDS[args.command][1](_load(args.matrix), args)
    except ParseError as exc:
        print(f"{PROG}: parse error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except _OutputTooLarge as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except GenInvError as exc:
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        if sys.stdout is None:  # the process was started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:  # the reader has gone, or the output cannot take it
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    # output a failed write left in the buffer is flushed again at exit; let
    # that flush go to the null device instead of reporting an error
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    raise SystemExit(code)
