"""Byte-identity guard: replay pinned benchmark jobs against their goldens.

`perfbench/goldens.json` holds the SHA-256 of the stdout of every job of the
benchmark's seed-1 mixes (or of the canonical JSON of the conjugated
operator, for library jobs).  This replays every one of them, a few seconds
in all, through the benchmark's own job runner, so a refactor that changes
any printed byte fails here first.

The goldens pin today's bytes; `test_json_jobs_print_the_canonical_form`
pins the format itself, so it keeps checking after the goldens are recorded
again: every JSON-printing CLI job of the `tables`, `deform-bracket` and
`verify-suites` mixes must print what the standard library's encoder writes
for the same data, `json.dumps(obj, sort_keys=True, separators=(",", ": "),
indent=2)` and a newline.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import jobs as jobmod  # noqa: E402  (modules of perfbench/)
from workloads import WORKLOADS, mix  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    with open(os.path.join(PERFBENCH, "goldens.json")) as fh:
        table = json.load(fh)
    assert table["pinned_seed"] == 1
    return table["workloads"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pinned_jobs_match_goldens(goldens, tmp_path, workload):
    jobs = mix(workload, 1)
    assert jobs
    jobmod.prepare(jobs, str(tmp_path))
    bad = []
    for job in jobs:
        outcome = jobmod.execute(job, str(tmp_path))
        if outcome.error or outcome.digest != goldens[workload][job.key]:
            bad.append((job.size, job.key, outcome.error))
    assert not bad, bad


@pytest.mark.parametrize("workload", ["tables", "deform-bracket", "verify-suites"])
def test_json_jobs_print_the_canonical_form(tmp_path, workload):
    jobs = [job for job in mix(workload, 1)
            if job.kind == "cli" and "text" not in job.argv]
    assert jobs
    jobmod.prepare(jobs, str(tmp_path))
    for job in jobs:
        argv = [jobmod.generator_path(str(tmp_path), job.generator)
                if a == "{generator}" else a for a in job.argv]
        code, out, err = jobmod.run_cli(argv)
        assert code == 0, (job.key, err)
        canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ": "),
                               indent=2) + "\n"
        assert out == canonical, job.key
