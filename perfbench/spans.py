"""Traced run: spans around the calls into each jethier module's public functions.

The tracer wraps the listed callables from outside the program: it replaces
every binding of each one, including names re-imported into other jethier
modules (`from .jetcalc import substitute`) and class aliases such as
`JetPoly.__radd__ = __add__`, and puts the originals back on `uninstall`.
No file of the program is edited.

Each call becomes a span (name, start, end, parent, job).  Spans are kept in
memory in compact arrays and written once, at the end of the run.  While the
run goes, the tracer also sums per callable the calls, the inclusive time
(outermost calls only, so recursion is not counted twice) and the self time
(span minus the time its child spans cover), plus the work counts of a few
callables.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

MODULES = ("jetcalc", "diffop", "genus0", "givental", "bracket", "kdvbase",
           "suites", "cli")

CALLABLES = {
    "jetcalc": ("JetPoly.mul", "JetPoly.add", "JetPoly.dx", "JetPoly.partial",
                "JetPoly.var_deriv", "JetPoly.t_op", "HbarSeries.mul",
                "HbarSeries.inverse", "formal_integrate", "substitute"),
    "diffop": ("compose", "adjoint", "is_skew", "apply_op",
               "conjugate_by_miura", "MiuraChange.inverse_images",
               "MiuraChange.express_in_target"),
    "genus0": ("trr_extend", "check_commutation"),
    "givental": ("r_deform_omega", "s_deform_omega", "triple_omega",
                 "table_to_obj"),
    "bracket": ("r_deform_bracket", "s_deform_bracket",
                "deformed_entries_for_residual", "def_a_residual",
                "check_series_homogeneity", "check_operator_homogeneity"),
    "kdvbase": ("kdv_omega_table", "tensor_power", "quasi_miura"),
    "suites": ("run_suite",),
    "cli": ("main", "build_parser", "_emit"),
}

# Operators are listed by name but live under their dunder attribute.
OPERATORS = {"mul": "__mul__", "add": "__add__"}

STATS = ("calls", "total_s", "self_s")

# Work counts, each updated from the arguments and result of one callable.
COUNTS = {
    "jetcalc.JetPoly.mul.term_pairs": "count",
    "jetcalc.JetPoly.mul.terms_out": "count",
    "jetcalc.JetPoly.mul.merge_ratio": "ratio",
    "jetcalc.formal_integrate.failed": "count",
    "diffop.conjugate_by_miura.terms_out": "count",
    "givental.r_deform_omega.terms_out": "count",
    "bracket.r_deform_bracket.terms_out": "count",
    "bracket.def_a_residual.nonzero": "count",
    "cli._emit.bytes": "count",
}

# Beyond this many spans (8 MB of arrays) calls are still counted and timed,
# but their spans are not kept.
MAX_SPANS = 250_000


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module in MODULES:
        for name in CALLABLES[module]:
            for stat in STATS:
                out.append((f"{module}.{name}.{stat}",
                            "count" if stat == "calls" else "s"))
    out += [(name, unit) for name, unit in COUNTS.items()]
    out += [(f"{module}.self_share", "ratio") for module in MODULES]
    out.append(("tracing_overhead", "ratio"))
    return out


def _terms(x) -> int:
    return x.num_terms() if hasattr(x, "num_terms") else 1


def _op_terms(op) -> int:
    return sum(c.num_terms() for _, _, c in op.entries())


def _count_mul(counts, args, result):
    if result is not NotImplemented:
        counts["jetcalc.JetPoly.mul.term_pairs"] += (_terms(args[0])
                                                     * _terms(args[1]))
        counts["jetcalc.JetPoly.mul.terms_out"] += result.num_terms()


def _count_size(name, size):
    def count(counts, args, result):
        counts[name] += size(result)
    return count


COUNTERS = {
    "jetcalc.JetPoly.mul": _count_mul,
    "diffop.conjugate_by_miura":
        _count_size("diffop.conjugate_by_miura.terms_out", _op_terms),
    "givental.r_deform_omega":
        _count_size("givental.r_deform_omega.terms_out", _terms),
    "bracket.r_deform_bracket":
        _count_size("bracket.r_deform_bracket.terms_out", _op_terms),
    "bracket.def_a_residual":
        _count_size("bracket.def_a_residual.nonzero", _terms),
}


def _resolve(module: str, name: str):
    """(owner, attribute) where the original callable is defined."""
    mod = importlib.import_module(f"jethier.{module}")
    if "." not in name:
        return mod, name
    cls_name, meth = name.split(".")
    return getattr(mod, cls_name), OPERATORS.get(meth, meth)


def bindings(original) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in jethier that is bound to `original`."""
    owners = []
    for module in ("__init__",) + MODULES:
        mod = importlib.import_module("jethier" if module == "__init__"
                                      else f"jethier.{module}")
        owners.append(mod)
        owners += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("jethier")]
    found, seen = [], set()
    for owner in owners:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, value in list(vars(owner).items()):
            if value is original:
                found.append((owner, attr))
    return found


def installed() -> bool:
    """True while any listed callable is replaced by a tracing wrapper."""
    for module in MODULES:
        for name in CALLABLES[module]:
            owner, attr = _resolve(module, name)
            if hasattr(vars(owner)[attr], "__wrapped__"):
                return True
    return False


class Tracer:
    """Span recorder; `install` wraps the callables, `uninstall` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = ["job"]
        for module in MODULES:
            self.names += [f"{module}.{name}" for name in CALLABLES[module]]
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.depth = [0] * n
        self.counts = {name: 0 for name in COUNTS}
        self.stack: list[list] = []  # [name index, child seconds, span id]
        self.job = -1
        self.next_span = 0
        self.dropped = 0
        self.spans = {"id": array("i"), "name": array("i"), "parent": array("i"),
                      "job": array("i"), "start": array("d"), "end": array("d")}
        self.originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------

    def _enter(self, idx: int) -> list:
        rec = [idx, 0.0, self.next_span]
        self.next_span += 1
        self.stack.append(rec)
        self.depth[idx] += 1
        return rec

    def _exit(self, rec: list, start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        idx = rec[0]
        dur = end - start
        self.depth[idx] -= 1
        self.calls[idx] += 1
        self.self_time[idx] += dur - rec[1]
        if self.depth[idx] == 0:
            self.total[idx] += dur
        parent = -1
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][2]
        if len(self.spans["id"]) < MAX_SPANS:
            sp = self.spans
            sp["id"].append(rec[2])
            sp["name"].append(idx)
            sp["parent"].append(parent)
            sp["job"].append(self.job)
            sp["start"].append(start)
            sp["end"].append(end)
        else:
            self.dropped += 1

    def span(self, idx: int, fn, *args, **kwargs):
        """Run fn inside a span named self.names[idx]."""
        rec = self._enter(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(rec, start, self.clock())

    def run_job(self, job_no: int, fn, *args):
        """Run one job under a root span; every span inside carries job_no."""
        self.job = job_no
        return self.span(0, fn, *args)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        counter = COUNTERS.get(name)
        tracer = self
        perf = self.clock

        if name == "jetcalc.formal_integrate":
            from jethier.jetcalc import NotExact

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = tracer._enter(idx)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                except NotExact:
                    tracer.counts["jetcalc.formal_integrate.failed"] += 1
                    raise
                finally:
                    tracer._exit(rec, start, perf())
            return wrapper

        if name == "cli._emit":
            @functools.wraps(fn)
            def wrapper(obj, fmt, out):
                rec = tracer._enter(idx)
                before = out.tell()
                start = perf()
                try:
                    return fn(obj, fmt, out)
                finally:
                    tracer._exit(rec, start, perf())
                    tracer.counts["cli._emit.bytes"] += out.tell() - before
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec, start, perf())
            if counter is not None:
                counter(tracer.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        for idx, name in enumerate(self.names[1:], start=1):
            module, callable_name = name.split(".", 1)
            owner, attr = _resolve(module, callable_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(idx, original)
            for where, where_attr in bindings(original):
                self.originals.append((where, where_attr, original))
                setattr(where, where_attr, wrapper)

    def uninstall(self) -> None:
        for where, attr, original in reversed(self.originals):
            setattr(where, attr, original)
        self.originals = []

    # -- results -------------------------------------------------------

    def metrics(self, passes: int, job_seconds: float) -> dict:
        """Per-layer metrics per pass of the mix; shares of the traced job time."""
        out = {}
        per = 1 / passes
        module_self = {m: 0.0 for m in MODULES}
        for idx, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[idx] * per
            out[f"{name}.total_s"] = self.total[idx] * per
            out[f"{name}.self_s"] = self.self_time[idx] * per
            module_self[name.split(".")[0]] += self.self_time[idx]
        for name in COUNTS:
            out[name] = self.counts[name] * per
        pairs = self.counts["jetcalc.JetPoly.mul.term_pairs"]
        out["jetcalc.JetPoly.mul.merge_ratio"] = (
            self.counts["jetcalc.JetPoly.mul.terms_out"] / pairs if pairs else 0.0)
        for module in MODULES:
            out[f"{module}.self_share"] = (module_self[module] / job_seconds
                                           if job_seconds else 0.0)
        return out

    def write(self, path: str) -> None:
        """Spans as a JSON index plus the raw arrays, in that order."""
        n = len(self.spans["id"])
        header = {"names": self.names, "spans": n, "dropped": self.dropped,
                  "fields": [[k, v.typecode] for k, v in self.spans.items()]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in self.spans.values():
                arr.tofile(fh)
