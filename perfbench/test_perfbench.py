"""Tests of the benchmark itself: mixes, span arithmetic, failure counting,
and that untraced runs see the program's own functions."""

from __future__ import annotations

import json

import pytest

import jobs as jobmod
import run
import spans
from workloads import WORKLOADS, Job, mix

run.import_program()

import jethier  # noqa: E402
from jethier import bracket, cli, givental, jetcalc  # noqa: E402
from jethier.jetcalc import JetPoly  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_jobs(workload):
    keys = lambda seed: [job.key for job in mix(workload, seed)]  # noqa: E731
    assert keys(3) == keys(3)
    assert keys(3) != keys(4)


def test_pinned_mixes_have_goldens():
    with open(run.GOLDENS) as fh:
        table = json.load(fh)
    for workload in WORKLOADS:
        keys = {job.key for job in mix(workload, table["pinned_seed"])}
        assert keys <= set(table["workloads"][workload])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    a, b, c = (tr.names.index(n) for n in
               ("jetcalc.substitute", "diffop.compose", "jetcalc.JetPoly.mul"))

    def leaf():
        clock.advance(2)

    def mid():
        clock.advance(1)
        tr.span(c, leaf)
        clock.advance(1)

    def job():
        clock.advance(1)
        tr.span(a, lambda: clock.advance(3))
        clock.advance(1)
        tr.span(b, mid)
        clock.advance(1)

    tr.run_job(0, job)
    # job [0,10] > a [1,4], b [5,9] > c [6,8]
    assert tr.total[0] == 10 and tr.self_time[0] == 3
    assert tr.total[a] == 3 and tr.self_time[a] == 3
    assert tr.total[b] == 4 and tr.self_time[b] == 2
    assert tr.total[c] == 2 and tr.self_time[c] == 2
    parent = dict(zip(tr.spans["id"], tr.spans["parent"]))
    name = dict(zip(tr.spans["id"], tr.spans["name"]))
    by_name = {name[i]: i for i in name}
    assert parent[by_name[c]] == by_name[b]
    assert parent[by_name[b]] == parent[by_name[a]] == by_name[0]
    assert set(tr.spans["job"]) == {0}


def test_recursive_spans_count_inclusive_time_once():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    f = tr.names.index("jetcalc.formal_integrate")

    def inner():
        clock.advance(2)

    def outer():
        clock.advance(1)
        tr.span(f, inner)

    tr.span(f, outer)
    assert tr.calls[f] == 2
    assert tr.total[f] == 3
    assert tr.self_time[f] == 3


def test_nonzero_exit_counts_as_failed():
    bad = Job("bad", ("generate", "kdv", "--pmax", "3", "--qmax", "3",
                      "--hbar", "2"))
    good = Job("good", ("dump", "flows", "--hbar", "1"))
    got = run.timed_run([bad, good], 0, {}, {})
    assert got.attempted == 2
    assert [key for key, _ in got.failures] == [bad.key]
    assert "exit code 2" in got.failures[0][1]


def test_golden_and_repeat_mismatches_count_as_failed(tmp_path):
    job = Job("good", ("dump", "flows", "--hbar", "1"))
    outcome = jobmod.execute(job, str(tmp_path))
    assert jobmod.verdict(outcome, job, {job.key: outcome.digest}, {}) == ""
    assert "golden" in jobmod.verdict(outcome, job, {job.key: "0" * 64}, {})
    assert "repeats" in jobmod.verdict(outcome, job, {}, {job.key: "0" * 64})
    got = run.timed_run([job], 0, {job.key: "0" * 64}, {})
    assert got.attempted == 1 and len(got.failures) == 1


def test_false_certificates_fail():
    assert jobmod.check_cli(["deform", "bracket"], 0, '{"all_pass": false}', "")
    assert jobmod.check_cli(["verify", "all"], 0, '{"ok": false}', "")
    assert jobmod.check_cli(["verify", "all"], 0, "", "")
    assert jobmod.check_cli(["verify", "all"], 0, '{"ok": true}', "") == ""


def test_untraced_run_sees_the_unwrapped_functions():
    originals = {
        "mul": vars(JetPoly)["__mul__"],
        "substitute": jetcalc.substitute,
        "r_deform_omega": givental.r_deform_omega,
        "main": cli.main,
    }
    tr = spans.Tracer()
    tr.install()
    try:
        assert spans.installed()
        # aliases and re-imported names are wrapped with the original
        assert JetPoly.__rmul__ is JetPoly.__mul__
        assert JetPoly.__mul__.__wrapped__ is originals["mul"]
        assert jethier.substitute is jetcalc.substitute
        assert bracket.r_deform_omega is givental.r_deform_omega
        assert cli.r_deform_omega.__wrapped__ is originals["r_deform_omega"]
        product = (JetPoly.var(1, 0) + 1) * (JetPoly.var(1, 0) + 2)
        assert product.num_terms() == 3
        assert tr.counts["jetcalc.JetPoly.mul.term_pairs"] == 4
        assert tr.counts["jetcalc.JetPoly.mul.terms_out"] == 3
    finally:
        tr.uninstall()
    assert not spans.installed()
    assert vars(JetPoly)["__mul__"] is originals["mul"]
    assert vars(JetPoly)["__rmul__"] is originals["mul"]
    assert jethier.substitute is originals["substitute"]
    assert bracket.r_deform_omega is originals["r_deform_omega"]
    assert cli.main is originals["main"]
    calls = list(tr.calls)
    got = run.timed_run([Job("good", ("dump", "flows", "--hbar", "1"))], 0, {}, {})
    assert got.attempted == 1 and not got.failures
    assert tr.calls == calls


def test_every_per_layer_metric_is_reported():
    tr = spans.Tracer()
    names = dict(spans.metric_names())
    reported = tr.metrics(1, 1.0)
    reported["tracing_overhead"] = 1.0
    assert set(reported) == set(names)
    assert len(names) <= 128


def test_benchmark_json_names_what_the_runs_print():
    with open(f"{run.ROOT}/BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, run.END_TO_END[name]) for name in run.GATED]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spans.metric_names()
