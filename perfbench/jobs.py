"""Running one job and checking its result.

A CLI job calls `jethier.cli.main(argv)` in this process with stdout and
stderr captured; its certificates (exit code, `"ok"` or `"all_pass"`) are
read from its output after the timed call.  A library job calls the public
API; its certificates (no order-0 term, skewness, the inverse round trip)
are API calls too and are timed with it.  CLI jobs hash stdout, library jobs
the canonical `operator_to_obj` JSON of the conjugated operator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass

from workloads import Job, canonical


@dataclass
class Outcome:
    seconds: float
    digest: str
    error: str = ""  # empty when every certificate holds


def generator_path(workdir: str, gen: dict) -> str:
    name = hashlib.sha256(canonical(gen).encode()).hexdigest()[:16]
    return os.path.join(workdir, f"gen-{name}.json")


def prepare(jobs: list[Job], workdir: str) -> None:
    """Write the generator files the CLI jobs read."""
    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        if job.generator is not None:
            path = generator_path(workdir, job.generator)
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    json.dump(job.generator, fh)


def run_cli(argv: list) -> tuple[int, str, str]:
    """`jethier.cli.main(argv)` with captured output; returns (code, out, err)."""
    from jethier import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error: the interpreter would exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def check_cli(argv: list, code: int, out: str, err: str) -> str:
    """Empty string when the CLI result carries every certificate it should."""
    if code != 0:
        return f"exit code {code}: {err.strip().splitlines()[-1:] or ''}"
    if not out:
        return "empty stdout"
    if "text" in argv:
        return ""
    try:
        obj = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if argv[0] == "deform" and obj.get("all_pass") is not True:
        return "deform report has all_pass false"
    if argv[0] == "verify" and (obj.get("ok") is not True or obj.get("failed")):
        return "verify report is not ok"
    if argv[0] == "generate" and not obj.get("entries"):
        return "generated table has no entries"
    return ""


def _miura_change(spec: dict):
    from jethier import HbarSeries, JetPoly, MiuraChange, dx, quasi_miura

    if spec["change"] == "quasi":
        return quasi_miura(spec["direction"], spec["hbar"])
    images = []
    for color, terms in enumerate(spec["g"], start=1):
        g = JetPoly({tuple(tuple(f) for f in mono): c for mono, c in terms})
        images.append(HbarSeries(spec["hbar"], [JetPoly.var(color, 0), dx(g)]))
    return MiuraChange(images)


def run_lib(spec: dict):
    """Conjugate d by the change and certify the result.

    Returns (conjugate, error).  The certificates: no order-0 term, skew,
    and conjugating back by the inverse change gives d again.
    """
    from jethier import DiffOperator, conjugate_by_miura, is_skew

    m = _miura_change(spec)
    d = DiffOperator.dx_op(m.dim, m.trunc)
    conj = conjugate_by_miura(d, m)
    dim = range(1, m.dim + 1)
    if not all(conj.coeff(r, c, 0).is_zero() for r in dim for c in dim):
        return conj, "conjugate has an order-0 term"
    if not is_skew(conj):
        return conj, "conjugate is not skew"
    if conjugate_by_miura(conj, m.inverse()) != d:
        return conj, "inverse round trip does not give d"
    return conj, ""


def _direct(fn, *args):
    return fn(*args)


def execute(job: Job, workdir: str, around=None) -> Outcome:
    """Run one job, timing only the call into jethier.

    `around(fn, *args)` runs the call; the traced run passes one that opens
    the job's root span.
    """
    around = around or _direct
    if job.kind == "cli":
        argv = list(job.argv)
        if job.generator is not None:
            path = generator_path(workdir, job.generator)
            argv = [path if a == "{generator}" else a for a in argv]
        t0 = time.perf_counter()
        code, out, err = around(run_cli, argv)
        seconds = time.perf_counter() - t0
        return Outcome(seconds, hashlib.sha256(out.encode()).hexdigest(),
                       check_cli(argv, code, out, err))
    from jethier.diffop import operator_to_obj

    t0 = time.perf_counter()
    try:
        conj, error = around(run_lib, job.spec)
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, "", f"raised {exc!r}")
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(canonical(operator_to_obj(conj)).encode()).hexdigest()
    return Outcome(seconds, digest, error)


def verdict(outcome: Outcome, job: Job, goldens: dict, seen: dict) -> str:
    """Failure reason, or "" when the job passes every check.

    `goldens` maps job keys to recorded digests; `seen` maps keys to the
    digest of the first run of that job in this process, so a repeat that
    prints different bytes fails too.
    """
    if outcome.error:
        return outcome.error
    want = goldens.get(job.key)
    if want is not None and want != outcome.digest:
        return "output differs from the golden"
    first = seen.setdefault(job.key, outcome.digest)
    if first != outcome.digest:
        return "output differs between repeats of the job"
    return ""
