"""Byte-identity guard: replay pinned benchmark jobs against their goldens.

`perfbench/goldens.json` holds the SHA-256 of the stdout of every job of the
benchmark's seed-1 mixes (or of the canonical JSON of the conjugated
operator, for library jobs).  This replays every one of them, a few seconds
in all, through the benchmark's own job runner, so a refactor that changes
any printed byte fails here first.
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
