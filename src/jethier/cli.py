"""Command-line front end: generate | deform | verify | dump.

Outputs are canonical JSON (sorted keys, fixed separators) or fixed-order
plain text, so identical configuration and seed produce identical bytes.
An output tree holds JetPoly and HbarSeries values as leaves: `to_json`
writes them in their canonical JSON form, and the text walk expands them
to it first.  The `deform` and `verify` reports are assembled here, as
plain dicts in the key order the text walk writes; the library modules
return values and verdicts only.
Exit codes: 0 all checks pass, 1 a verification failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import json
import math
import operator
import re
import shutil
import sys
import time

from .bracket import (
    PoissonOp,
    bracket_deformation,
    check_operator_homogeneity,
    check_series_homogeneity,
    defining_equation_residuals,
)
from .diffop import is_skew, operator_to_obj
from .genus0 import Genus0Data, NotClosed, check_commutation, trr_extend
from .givental import (
    GiventalGen,
    entry_deformation,
    gen_from_obj,
    gen_to_obj,
    r_deform_omega,  # noqa: F401  (perfbench's tracer test reads cli.r_deform_omega)
    table_to_obj,
)
from .jetcalc import (HbarSeries, JetPoly, jetpoly_to_obj, render, render_series,
                      series_to_obj, to_json)
from .kdvbase import (
    OutOfDerivableRange,
    kdv_omega_table,
    quasi_miura,
    tensor_power,
)
from .suites import run_suite


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial cells of --hessian, read by Python's expression parser
# ---------------------------------------------------------------------------

_CELL = re.compile(r"[0-9vw+\-*/^() \t]*")
_VAR = re.compile(r"[vw]([1-9][0-9]*)?")
_RING = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_PAIRS = 400_000  # term pairs a cell may multiply in all: about a second, (v1+v2+v3)^64 fits


def parse_poly(text: str) -> JetPoly:
    """Read a cell such as 'v', 'v1^3/6 + 2*v2' or '-(v1 - v2)^2/2'.

    The names v, w (color 1) and v<k>, w<k> (color k) are order-0
    coordinates.  A cell joins them and integers with + - * /, unary + and -,
    parentheses and ^ to an integer literal (above 64 only on one term with
    coefficient 1 or -1); a divisor must be a nonzero constant.  Python's
    parser reads the cell once ^ is spelled **.  Before each product the term
    pairs are counted, |a|*|b| for a*b and C(ceil(k/2)+t-1, t-1)^2 (the last
    squaring) for a^k with t >= 2 terms; a cell past _PAIRS in all is refused.
    """
    if not _CELL.fullmatch(text) or "**" in text:
        raise InputError(f"{text[:40]!r} is not made of integers, v, w, v<k>, w<k>, "
                         "+ - * / ^, parentheses and spaces")
    try:
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        why = exc.msg if isinstance(exc, SyntaxError) else "too long or nested too deeply"
        raise InputError(f"cannot read {text[:40]!r}: {why}") from exc
    return _poly(tree.body, [_PAIRS])


def _spend(budget: list, pairs: int) -> None:
    budget[0] -= pairs
    if budget[0] < 0:
        raise InputError(f"a cell may multiply at most {_PAIRS:,} term pairs")


def _poly(node, budget: list) -> JetPoly:
    # a chain such as a + b - c * d nests down its left operands: walk that
    # spine in a loop, stacking each step, so that only right operands recurse
    steps = []
    while isinstance(node, (ast.BinOp, ast.UnaryOp)):
        steps.append(node)
        node = node.left if isinstance(node, ast.BinOp) else node.operand
    if isinstance(node, ast.Constant):  # _CELL admits no literal but an int
        acc = JetPoly.const(node.value)
    elif isinstance(node, ast.Name) and _VAR.fullmatch(node.id):
        acc = JetPoly.var(int(node.id[1:] or 1), 0)
    else:  # a name other than v<k>, w<k>, or a call or tuple
        raise InputError(f"unknown term {getattr(node, 'id', type(node).__name__)!r}")
    for step in reversed(steps):
        op = type(step.op)
        if op is ast.USub or op is ast.UAdd:
            acc = -acc if op is ast.USub else acc
        elif op in _RING:
            right = _poly(step.right, budget)
            _spend(budget, acc.num_terms() * right.num_terms() if op is ast.Mult else 0)
            acc = _RING[op](acc, right)
        elif op is ast.Div:
            div = _poly(step.right, budget)
            if div.variables() or not div:
                raise InputError("a divisor must be a nonzero constant")
            acc = acc / div.constant_term()
        elif op is ast.Pow and isinstance(step.right, ast.Constant):
            k = step.right.value  # past 64, only a power that scales exponents stays small
            if k > 64 and (acc.num_terms() > 1 or any(abs(c) != 1 for _, c in acc.terms())):
                raise InputError("an exponent above 64 takes one term with coefficient 1 or -1")
            t = acc.num_terms()
            _spend(budget, math.comb((k + 1) // 2 + t - 1, t - 1) ** 2 if t > 1 else 0)
            acc = acc ** k
        else:
            raise InputError("an exponent must be an integer literal" if op is ast.Pow
                             else f"unsupported operator {op.__name__}")
    return acc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(obj: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(to_json(obj) + "\n")
    else:
        _emit_text(obj, out)


_TREES = (dict, list, JetPoly, HbarSeries)


def _emit_text(obj, out, indent=0) -> None:
    if isinstance(obj, JetPoly):
        obj = jetpoly_to_obj(obj)
    elif isinstance(obj, HbarSeries):
        obj = series_to_obj(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, _TREES):
                out.write(f"{pad}{key}:\n")
                _emit_text(val, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {val}\n")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, _TREES):
                _emit_text(val, out, indent)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}{val}\n")


def _load_generator(path: str) -> GiventalGen:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return gen_from_obj(obj)
    except RecursionError as exc:
        raise InputError(f"invalid generator file {path}: nested too deeply") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"invalid generator file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    fmt = args.format
    if args.what == "kdv":
        table = kdv_omega_table(args.pmax, args.qmax, args.hbar)
        if args.tensor > 1:
            table = tensor_power(table, args.tensor)
        checked = set()  # ids of the entry objects checked; symmetric entries share one
        for key, series in table.items():
            if id(series) not in checked and not check_series_homogeneity(series, 0).ok:
                print(f"internal verification failed at entry {key}",
                      file=sys.stderr)
                return 1
            checked.add(id(series))
        if fmt == "text":
            obj = {"dim": table.dim, "pmax": table.pmax, "qmax": table.qmax,
                   "trunc": table.trunc,
                   "entries": {f"{a}.{p}.{b}.{q}": render_series(v)
                               for (a, p, b, q), v in table.items()}}
        else:
            obj = table_to_obj(table)
        _emit(obj, fmt, sys.stdout)
        return 0
    # principal: the parser admits no other target
    if args.hessian is None:
        raise InputError("generate principal requires --hessian")
    try:
        rows = json.loads(args.hessian)
        if not (isinstance(rows, list) and len(rows) == args.dim
                and all(isinstance(row, list) and len(row) == args.dim
                        and all(isinstance(cell, str) for cell in row)
                        for row in rows)):
            raise InputError(f"expected a {args.dim}x{args.dim} array of strings")
        hess = {(i + 1, j + 1): parse_poly(cell)
                for i, row in enumerate(rows)
                for j, cell in enumerate(row)}
        data = Genus0Data(args.dim, hess)
    except RecursionError as exc:
        raise InputError("invalid Hessian: nested too deeply") from exc
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid Hessian: {exc}") from exc
    try:
        table = trr_extend(data, args.pmax, args.qmax)
    except NotClosed as exc:
        raise InputError(f"Hessian is not integrable: {exc}") from exc
    # the residual at (p, q) reads the entries (1, p+1; ., q) and
    # (1, q+1; ., 0), so both p and q stay below pmax
    for p in range(min(args.pmax - 1, 2) + 1):
        for q in range(min(args.qmax, args.pmax - 1, 2) + 1):
            if not check_commutation(table, 1, p, 1, q).is_zero():
                print("internal verification failed: commutation residual",
                      file=sys.stderr)
                return 1
    obj = {"dim": table.dim, "pmax": table.pmax, "qmax": table.qmax,
           "entries": {f"{a}.{p}.{b}.{q}":
                       v.coeffs[0] if fmt == "json" else render(v.coeffs[0])
                       for (a, p, b, q), v in table.items()}}
    _emit(obj, fmt, sys.stdout)
    return 0


def cmd_deform(args) -> int:
    gen = _load_generator(args.generator)
    trunc = args.hbar
    started = time.monotonic()
    # the entries read indices up to pmax and qmax, the bracket residuals
    # (a, pmax+1; b, 0); an upper generator reads up to level past those
    bound = (args.pmax + args.qmax + (args.what == "bracket")
             + (gen.level if gen.kind == "r" else 0))
    try:
        base = kdv_omega_table(bound, bound, trunc)
    except OutOfDerivableRange as exc:
        raise InputError(
            f"deformation at hbar-truncation {trunc} needs table bounds "
            f"{bound}: {exc}") from exc
    table = tensor_power(base, args.tensor) if args.tensor > 1 else base
    if gen.dim != table.dim:
        raise InputError(
            f"generator dimension {gen.dim} does not match table dimension "
            f"{table.dim} (use --tensor {gen.dim})")
    entries, residuals = [], []
    homogeneity_ok = skew_ok = order0_ok = symmetric_ok = True
    if args.what == "omega":
        deform = entry_deformation(table, gen)
        values: dict[tuple, object] = {}

        def entry(*index):
            # an entry and its symmetric partner may both be listed: compute once
            if index not in values:
                values[index] = deform(*index)
            return values[index]

        for a in range(1, table.dim + 1):
            for b in range(1, table.dim + 1):
                for p in range(args.pmax + 1):
                    for q in range(args.qmax + 1):
                        series = entry(a, p, b, q)
                        hom = check_series_homogeneity(series, 0)
                        sym = series == entry(b, q, a, p)
                        homogeneity_ok &= hom.ok
                        symmetric_ok &= sym
                        entries.append({
                            "index": [a, p, b, q],
                            "value": series,
                            "homogeneous": hom.ok,
                            "symmetric": sym,
                        })
    else:  # bracket: the parser admits no other target
        pop = PoissonOp.dx(table.dim, trunc)
        dP = bracket_deformation(table, pop, gen)
        skew_ok = is_skew(dP)
        order0_ok = all(dP.coeff(b, x, 0).is_zero()
                        for b in range(1, table.dim + 1)
                        for x in range(1, table.dim + 1))
        homogeneity_ok = check_operator_homogeneity(dP).ok
        entries.append({"operator": operator_to_obj(dP)})
        residuals = defining_equation_residuals(table, pop, gen, dP, args.pmax)
    elapsed = time.monotonic() - started
    all_pass = (homogeneity_ok and skew_ok and order0_ok and symmetric_ok
                and all(res.is_zero() for _, res in residuals))
    # deform reads no seed, but the benchmark's seed-1 goldens pin the "seed"
    # key; it goes when they are re-recorded (ROADMAP item 1c)
    report = {"generator": gen_to_obj(gen), "target": args.what, "seed": 7,
              "entries": entries,
              "residuals": [_residual_to_obj(ix, res) for ix, res in residuals],
              "homogeneity_ok": homogeneity_ok, "skew_ok": skew_ok, "order0_ok": order0_ok,
              "symmetric_ok": symmetric_ok, "all_pass": all_pass}
    _emit(report, args.format, sys.stdout)
    print(f"deform {args.what} finished in {elapsed:.3f}s", file=sys.stderr)
    return 0 if all_pass else 1


def _residual_to_obj(index: tuple, res: HbarSeries) -> dict:
    """A residual's index, monomial count and first monomial (lowest hbar first)."""
    out = {"index": list(index), "nonzero_monomials": res.num_terms()}
    for g, c in enumerate(res.coeffs):
        if c:
            out["first_nonzero_monomial"] = {"hbar": g, **jetpoly_to_obj(c)[0]}
            break
    return out


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=args.seed, count=args.count,
                       pmax=args.pmax, hbar=args.hbar)
    obj = {
        "suite": args.suite,
        "seed": args.seed,
        "count": args.count,
        "checks": [dataclasses.asdict(c) for c in checks],
        "passed": sum(1 for c in checks if c.ok),
        "failed": sum(1 for c in checks if not c.ok),
        "ok": all(c.ok for c in checks),
    }
    _emit(obj, args.format, sys.stdout)
    return 0 if obj["ok"] else 1


def cmd_dump(args) -> int:
    fmt = args.format
    if args.what == "flows":
        table = kdv_omega_table(0, 2, args.hbar)
        flows = {q: table.entry(1, 0, 1, q).dx() for q in range(3)}
        if fmt == "text":
            obj = {f"dw/dt{q}": render_series(f) for q, f in flows.items()}
        else:
            obj = {f"t{q}": f for q, f in flows.items()}
        _emit(obj, fmt, sys.stdout)
        return 0
    if args.what == "hamiltonians":
        table = kdv_omega_table(2, 0, args.hbar)
        dens = {p: table.unit_ext(1, p + 1) for p in range(-1, 2)}
        if fmt == "text":
            obj = {f"h{p}": render_series(v) for p, v in dens.items()}
        else:
            obj = {f"h{p}": v for p, v in dens.items()}
        _emit(obj, fmt, sys.stdout)
        return 0
    if args.what == "quasi-miura":
        m = quasi_miura("forward", args.hbar)
        inv = m.inverse_images()
        if fmt == "text":
            obj = {"forward": render_series(m.forward[0], "v"),
                   "inverse": render_series(inv[0], "w")}
        else:
            obj = {"forward": m.forward[0], "inverse": inv[0]}
        _emit(obj, fmt, sys.stdout)
        return 0
    # kdv-table: the parser admits no other target
    table = kdv_omega_table(args.pmax, args.qmax, args.hbar)
    _emit(table_to_obj(table), fmt, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Given(argparse.Action):
    """Store a flag's value and record, in `given`, that the flag was passed."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


# Flags a subcommand takes that one of its targets does not read.
UNREAD = {
    ("generate", "kdv"): ("dim", "hessian"),
    ("generate", "principal"): ("tensor", "hbar"),
    ("verify", "lemmas"): ("pmax", "hbar"),
    ("verify", "commutation"): ("hbar", "seed", "count"),
    ("verify", "quasimiura"): ("pmax", "hbar", "seed", "count"),
    ("verify", "homogeneity"): ("pmax", "hbar", "seed", "count"),
    ("verify", "uniqueness"): ("hbar", "seed", "count"),
    ("verify", "defining-equation"): ("seed", "count"),
    ("deform", "bracket"): ("qmax",),
    ("dump", "flows"): ("pmax", "qmax"),
    ("dump", "hamiltonians"): ("pmax", "qmax"),
    ("dump", "quasi-miura"): ("pmax", "qmax"),
}


def _reject_unread(args) -> None:
    target = args.suite if args.command == "verify" else args.what
    for name in UNREAD.get((args.command, target), ()):
        if name in args.given:
            raise InputError(f"{args.command} {target} does not read --{name}")


COMMANDS = ("generate", "deform", "verify", "dump")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.  Given one of COMMANDS, it adds only that
    subcommand's subparser, which parses and fails byte for byte as in the
    full parser; otherwise it adds all of them.  The terminal width, which
    argparse's formatters would each look up, is read once."""
    fmt = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="jethier", formatter_class=fmt,
        description="Exact hierarchy tables, symmetry deformations, and "
                    "identity verification at the KdV base point.")
    lazy = command in COMMANDS
    # the usage line lists every command either way
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if lazy else None)

    kinds = {"pmax": _at_least(0), "qmax": _at_least(0), "hbar": _at_least(0),
             "dim": _at_least(1), "tensor": _at_least(1), "count": _at_least(1),
             "seed": int}

    def flags(p, defaults):
        """Add the flags one subcommand reads, with their defaults."""
        for name, default in defaults.items():
            p.add_argument(f"--{name}", type=kinds[name], default=default,
                           action=_Given)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(given=frozenset())

    if not lazy or command == "generate":
        g = sub.add_parser("generate", formatter_class=fmt,
                           help="build and verify hierarchy tables")
        g.add_argument("what", choices=("kdv", "principal"))
        g.add_argument("--hessian", action=_Given,
                       help="JSON array of polynomial strings")
        flags(g, {"dim": 1, "pmax": 2, "qmax": 2, "hbar": 2, "tensor": 1})
        g.set_defaults(func=cmd_generate)

    if not lazy or command == "deform":
        d = sub.add_parser("deform", formatter_class=fmt, help="apply a symmetry generator")
        d.add_argument("what", choices=("omega", "bracket"))
        d.add_argument("--generator", required=True, help="generator JSON file")
        flags(d, {"pmax": 1, "qmax": 0, "hbar": 1, "tensor": 1})
        d.set_defaults(func=cmd_deform)

    if not lazy or command == "verify":
        v = sub.add_parser("verify", formatter_class=fmt, help="run a named verification suite")
        v.add_argument("suite", choices=("lemmas", "commutation", "quasimiura",
                                         "homogeneity", "uniqueness",
                                         "defining-equation", "all"))
        flags(v, {"pmax": 3, "hbar": 1, "seed": 7, "count": 100})
        v.set_defaults(func=cmd_verify)

    if not lazy or command == "dump":
        du = sub.add_parser("dump", formatter_class=fmt, help="print built-in base-point data")
        du.add_argument("what", choices=("kdv-table", "flows", "hamiltonians",
                                         "quasi-miura"))
        flags(du, {"pmax": 2, "qmax": 2, "hbar": 2})
        du.set_defaults(func=cmd_dump)
    return parser


def _at_least(least: int):
    """argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = f"integer >= {least}"
    return parse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _reject_unread(args)
        return args.func(args)
    except (InputError, OutOfDerivableRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
