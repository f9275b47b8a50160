"""Layered benchmark of jethier: seeded job mixes, closed loop, one thread.

    python3 perfbench/run.py --workload deform-bracket --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --record-goldens          # rewrite goldens.json

Jobs run one at a time in this process: CLI jobs call `jethier.cli.main`
with stdout captured, library jobs call the public API.  A run repeats whole
passes over the workload's seeded mix until `--seconds` have elapsed and at
least 100 jobs have run.  The fixed reference kernel is timed between jobs,
and each job time divided by the mean of the kernel times just before and
after it gives the drift-normalized `*_ref` figures.

With `--trace 0` the last line of stdout holds the end-to-end metrics; with
`--trace 1` the run spends half its time untraced and half traced, and the
last line holds the per-layer metrics of the traced half plus the tracing
overhead.  The program is imported from `src/` next to this directory and
from nowhere else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")

import jobs as jobmod  # noqa: E402  (modules of this directory)
import refkernel  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, mix  # noqa: E402

# Every end-to-end figure, with its unit.
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "job_p50_ref": "ref",
    "job_p90_ref": "ref",
    "run_ref": "ref",
    "setup_s": "s",
    "setup_wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}
# The figures on the result line, which BENCHMARK.json bounds.  Raw job times
# follow the host's speed, which moves by up to half between runs a minute
# apart, and failed_ratio is zero on a correct program; those are printed on
# the report lines, and failures also count in the result's "failed".
GATED = ("job_p50_ref", "job_p90_ref", "run_ref", "setup_s", "peak_rss_mb")
# Set-up is timed this many times a pass, between jobs, so that its median
# spans the same changes of host speed as the jobs do.
SETUP_PER_PASS = 3
# setup_s is set-up time scaled to a host where one kernel sample takes 1 ms.
NOMINAL_KERNEL_S = 1e-3
TAIL_JOBS = 100  # ten jobs beyond p90
MAX_LOOP_SECONDS = 120  # no new job starts after this, whatever --seconds says


class ProgramMissing(RuntimeError):
    pass


def import_program() -> None:
    """Import jethier from ./src of this checkout, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "jethier", "__init__.py")):
        raise ProgramMissing(f"no jethier package under {SRC}")
    sys.path.insert(0, SRC)
    import jethier
    import jethier.cli  # noqa: F401

    if not os.path.abspath(jethier.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"jethier imported from {jethier.__file__}")


def spawn_setup() -> float:
    """Wall time of a fresh interpreter running `import jethier, jethier.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import jethier, jethier.cli"],
                   env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=60)
    return time.perf_counter() - t0


def src_lines() -> int:
    pkg = os.path.join(SRC, "jethier")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Run:
    times: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # (wall seconds, kernel ratio)
    failures: list = field(default_factory=list)
    attempted: int = 0
    passes: float = 0.0

    @property
    def busy(self) -> float:
        return sum(self.times)


def timed_run(jobs: list, seconds: float, goldens: dict, seen: dict,
              tracer: spans.Tracer | None = None, min_jobs: int = 0,
              setup: bool = False) -> Run:
    """Whole passes over `jobs` until `seconds` have elapsed and at least
    `min_jobs` jobs have run (at least one pass).  With `setup`, set-up time
    is also measured between jobs, SETUP_PER_PASS times a pass."""
    if tracer is None and spans.installed():
        raise RuntimeError("untraced run would see wrapped functions")
    run = Run()
    if setup:
        spawn_setup()  # writes the byte-code cache, which users have too
    every = max(1, len(jobs) // SETUP_PER_PASS)
    gc.collect()
    before = refkernel.sample()
    run.kernel.append(before)
    start = time.perf_counter()
    done = 0
    while True:
        for job in jobs:
            if time.perf_counter() - start > MAX_LOOP_SECONDS:
                run.passes += done / len(jobs)
                return run
            around = None
            if tracer is not None:
                job_no = run.attempted
                around = lambda fn, *a: tracer.run_job(job_no, fn, *a)  # noqa: E731
            outcome = jobmod.execute(job, OUT, around)
            gc.collect()
            after = refkernel.sample()
            run.kernel.append(after)
            run.attempted += 1
            run.times.append(outcome.seconds)
            run.ratios.append(outcome.seconds / ((before + after) / 2))
            before = after
            if setup and (done + 1) % every == 0:
                wall = spawn_setup()
                before = refkernel.sample()
                run.setup.append((wall, wall / ((after + before) / 2)))
            reason = jobmod.verdict(outcome, job, goldens, seen)
            if reason:
                run.failures.append((job.key, reason))
            done += 1
        run.passes += 1
        done = 0
        if (time.perf_counter() - start >= seconds
                and run.attempted >= min_jobs):
            return run


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(run: Run) -> dict:
    return {
        "failed_ratio": len(run.failures) / run.attempted,
        "jobs_per_s": len(run.times) / run.busy,
        "job_p50_s": statistics.median(run.times),
        "job_p90_s": p90(run.times),
        "job_p50_ref": statistics.median(run.ratios),
        "job_p90_ref": p90(run.ratios),
        "run_ref": sum(run.ratios) / run.passes,
        "setup_s": statistics.median(r for _, r in run.setup) * NOMINAL_KERNEL_S,
        "setup_wall_s": statistics.median(w for w, _ in run.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def describe(workload: str, seed: int, jobs: list, run: Run, label: str) -> None:
    failed = len(run.failures)
    print(f"# {workload} seed {seed} {label}: {run.attempted} jobs "
          f"({len(jobs)} per pass, {run.passes:g} passes), job time "
          f"{min(run.times) * 1e3:.1f} ms .. {max(run.times) * 1e3:.1f} ms, "
          f"failed {failed}/{run.attempted}")
    print(f"# machine speed (not a metric): reference kernel median "
          f"{statistics.median(run.kernel) * 1e3:.4f} ms over "
          f"{len(run.kernel)} samples; src/ lines {src_lines()}")
    for key, reason in dict(run.failures).items():
        print(f"FAILED {reason}: {key}", file=sys.stderr)


def result_line(runs: list, metrics: dict, units: dict) -> str:
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def bench(workload: str, seed: int, seconds: float, trace: bool,
          goldens: dict) -> tuple:
    """One benchmark run; returns (runs, metrics, units)."""
    jobs = mix(workload, seed)
    jobmod.prepare(jobs, OUT)
    seen: dict = {}
    if not trace:
        run = timed_run(jobs, seconds, goldens, seen, min_jobs=TAIL_JOBS,
                        setup=True)
        describe(workload, seed, jobs, run, "untraced")
        metrics = end_to_end(run)
        print("# not gated: " + ", ".join(
            f"{name} {metrics[name]:.6g} {unit}" for name, unit in END_TO_END.items()
            if name not in GATED))
        return [run], metrics, {name: END_TO_END[name] for name in GATED}
    plain = timed_run(jobs, seconds / 2, goldens, seen)
    describe(workload, seed, jobs, plain, "untraced")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = timed_run(jobs, seconds / 2, goldens, seen, tracer)
    finally:
        tracer.uninstall()
    if spans.installed():
        raise RuntimeError("tracer left wrapped functions behind")
    describe(workload, seed, jobs, traced, "traced")
    metrics = tracer.metrics(traced.passes, traced.busy)
    metrics["tracing_overhead"] = ((len(traced.times) / traced.busy)
                                   / (len(plain.times) / plain.busy))
    path = os.path.join(OUT, f"spans-{workload}.bin")
    tracer.write(path)
    shares = sorted(((metrics[f"{m}.self_share"], m) for m in spans.MODULES),
                    reverse=True)
    print("# self-time shares: " + ", ".join(f"{m} {s:.1%}" for s, m in shares)
          + f"; spans in {os.path.relpath(path, ROOT)}")
    return [plain, traced], metrics, dict(spans.metric_names())


def record_goldens(seed: int) -> int:
    """Rewrite goldens.json from one pass of every mix on the pinned seed."""
    table = {}
    for workload in WORKLOADS:
        jobs = mix(workload, seed)
        jobmod.prepare(jobs, OUT)
        table[workload] = {}
        for job in jobs:
            outcome = jobmod.execute(job, OUT)
            if outcome.error:
                print(f"not recorded, {outcome.error}: {job.key}", file=sys.stderr)
                return 1
            table[workload][job.key] = outcome.digest
    with open(GOLDENS, "w") as fh:
        json.dump({"pinned_seed": seed, "workloads": table}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(map(len, table.values()))} goldens for seed {seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="mix seed (default: the pinned seed of goldens.json)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    seed = goldens["pinned_seed"] if args.seed is None else args.seed
    if args.record_goldens:
        return record_goldens(seed)

    def one(workload):
        return bench(workload, seed, args.seconds, bool(args.trace),
                     goldens["workloads"].get(workload, {}))

    if args.workload != "all":
        print(result_line(*one(args.workload)))
        return 0
    summary = {}
    for workload in WORKLOADS:
        _, metrics, units = one(workload)
        summary[workload] = (metrics, units if args.trace else END_TO_END)
        print()
    for workload, (metrics, units) in summary.items():
        print(f"== {workload}")
        for name, unit in units.items():
            print(f"  {name:48s} {metrics[name]:14.6g}  {unit}")
    print(json.dumps({w: {n: {"value": m[n], "unit": u[n]} for n in u}
                      for w, (m, u) in summary.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
