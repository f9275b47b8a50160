"""Command-line front end: generate | deform | verify | dump.

Outputs are canonical JSON (sorted keys, fixed separators) or fixed-order
plain text, so identical configuration and seed produce identical bytes.
An output tree holds JetPoly and HbarSeries values as leaves: `to_json`
writes them in their canonical JSON form, and the text walk expands them
to it first.
Exit codes: 0 all checks pass, 1 a verification failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .bracket import (
    DeformationReport,
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
    kdv_flow,
    kdv_omega_table,
    quasi_miura,
    tensor_power,
)
from .suites import run_suite


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tiny polynomial expression parser for --hessian entries
# ---------------------------------------------------------------------------

def parse_poly(text: str) -> JetPoly:
    """Parse expressions like 'v', 'v1^2 + 1/2*v2', '-3*(v1+v2)'.

    Variables v, w (color 1) or v<k>, w<k> (color k) denote order-0
    coordinates; coefficients are integers or num/den rationals.
    """
    tokens = _tokenize(text)
    poly, pos = _parse_sum(tokens, 0)
    if pos != len(tokens):
        raise InputError(f"trailing input at token {pos} in {text!r}")
    return poly


def _tokenize(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*^()":
            out.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1 or not text[j + 1:k].strip("0"):
                    raise InputError(f"bad rational near {text[i:]!r}: "
                                     "the denominator must be a nonzero integer")
                out.append(Fraction(text[i:k]))
                i = k
            else:
                out.append(Fraction(text[i:j]))
                i = j
        elif c in "vw":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            color = int(text[i + 1:j]) if j > i + 1 else 1
            out.append(("var", color))
            i = j
        else:
            raise InputError(f"unexpected character {c!r} in {text!r}")
    return out


def _parse_sum(tokens, pos):
    sign = 1
    if pos < len(tokens) and tokens[pos] in ("+", "-"):
        sign = -1 if tokens[pos] == "-" else 1
        pos += 1
    acc, pos = _parse_product(tokens, pos)
    acc = acc * sign
    while pos < len(tokens) and tokens[pos] in ("+", "-"):
        sign = -1 if tokens[pos] == "-" else 1
        term, pos = _parse_product(tokens, pos + 1)
        acc = acc + term * sign
    return acc, pos


def _parse_product(tokens, pos):
    acc, pos = _parse_power(tokens, pos)
    while pos < len(tokens) and tokens[pos] == "*":
        nxt, pos = _parse_power(tokens, pos + 1)
        acc = acc * nxt
    return acc, pos


def _parse_power(tokens, pos):
    base, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos] == "^":
        pos += 1
        if pos >= len(tokens) or not isinstance(tokens[pos], Fraction) \
                or tokens[pos].denominator != 1:
            raise InputError("exponent must be an integer")
        base = base ** int(tokens[pos])
        pos += 1
    return base, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise InputError("unexpected end of expression")
    tok = tokens[pos]
    if tok == "(":
        inner, pos = _parse_sum(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise InputError("unbalanced parentheses")
        return inner, pos + 1
    if tok == "-":
        inner, pos = _parse_atom(tokens, pos + 1)
        return -inner, pos
    if isinstance(tok, Fraction):
        return JetPoly.const(tok), pos + 1
    if isinstance(tok, tuple) and tok[0] == "var":
        return JetPoly.var(tok[1], 0), pos + 1
    raise InputError(f"unexpected token {tok!r}")


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
    # an upper generator reads entries up to index level past the residuals'
    # pmax + 1 and the entries' qmax; a lower one reads none past them
    bound = args.pmax + 1 + args.qmax + (gen.level if gen.kind == "r" else 0)
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
    report = DeformationReport(generator=gen_to_obj(gen), target=args.what,
                               seed=args.seed)
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
                        report.homogeneity_ok &= hom.ok
                        report.symmetric_ok &= sym
                        report.entries.append({
                            "index": [a, p, b, q],
                            "value": series,
                            "homogeneous": hom.ok,
                            "symmetric": sym,
                        })
    else:  # bracket: the parser admits no other target
        pop = PoissonOp.dx(table.dim, trunc)
        dP = bracket_deformation(table, pop, gen)
        report.skew_ok = is_skew(dP)
        report.order0_ok = all(dP.coeff(b, x, 0).is_zero()
                               for b in range(1, table.dim + 1)
                               for x in range(1, table.dim + 1))
        report.homogeneity_ok = check_operator_homogeneity(dP).ok
        report.entries.append({"operator": operator_to_obj(dP)})
        report.residuals = defining_equation_residuals(table, pop, gen, dP, args.pmax)
    elapsed = time.monotonic() - started
    _emit(report.to_obj(), args.format, sys.stdout)
    print(f"deform {args.what} finished in {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.all_pass() else 1


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, seed=args.seed, count=args.count,
                       pmax=args.pmax, hbar=args.hbar)
    obj = {
        "suite": args.suite,
        "seed": args.seed,
        "count": args.count,
        "checks": [c.to_obj() for c in checks],
        "passed": sum(1 for c in checks if c.ok),
        "failed": sum(1 for c in checks if not c.ok),
        "ok": all(c.ok for c in checks),
    }
    _emit(obj, args.format, sys.stdout)
    return 0 if obj["ok"] else 1


def cmd_dump(args) -> int:
    fmt = args.format
    if args.what == "flows":
        flows = {q: kdv_flow(q, args.hbar) for q in range(3)}
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
    full parser; otherwise it adds all of them."""
    parser = argparse.ArgumentParser(
        prog="jethier",
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
        g = sub.add_parser("generate", help="build and verify hierarchy tables")
        g.add_argument("what", choices=("kdv", "principal"))
        g.add_argument("--hessian", action=_Given,
                       help="JSON array of polynomial strings")
        flags(g, {"dim": 1, "pmax": 2, "qmax": 2, "hbar": 2, "tensor": 1})
        g.set_defaults(func=cmd_generate)

    if not lazy or command == "deform":
        d = sub.add_parser("deform", help="apply a symmetry generator")
        d.add_argument("what", choices=("omega", "bracket"))
        d.add_argument("--generator", required=True, help="generator JSON file")
        flags(d, {"pmax": 1, "qmax": 0, "hbar": 1, "seed": 7, "tensor": 1})
        d.set_defaults(func=cmd_deform)

    if not lazy or command == "verify":
        v = sub.add_parser("verify", help="run a named verification suite")
        v.add_argument("suite", choices=("lemmas", "commutation", "quasimiura",
                                         "homogeneity", "uniqueness",
                                         "defining-equation", "all"))
        flags(v, {"pmax": 3, "hbar": 1, "seed": 7, "count": 100})
        v.set_defaults(func=cmd_verify)

    if not lazy or command == "dump":
        du = sub.add_parser("dump", help="print built-in base-point data")
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
