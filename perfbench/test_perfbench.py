"""The benchmark's own checks.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the
repository root (about two minutes: every workload runs several times).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from layers import METRICS

WORKLOADS = run.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    """Two traced runs give identical counts, and the RunSpec executor
    under the tracer gives the pinned digests."""
    first, second = (
        run.run_rep(workload, run.DEFAULT_SEED, traced=True) for _ in range(2)
    )
    counts = [name for name, unit in METRICS.items() if unit == "count"]
    assert {n: first["layers"][n] for n in counts} == {
        n: second["layers"][n] for n in counts
    }
    failed, problems = run.judge(
        [first, second], run.load_pins(workload, run.DEFAULT_SEED)
    )
    assert problems == [] and failed == [0, 0]
    assert first["layers"]["simulation.events"] > 0


def _rep(digest: str) -> dict:
    return {"outcomes": [{"label": "p/s", "admitted": 10, "completed": 10,
                          "problems": [], "digest": digest}]}


def test_judge_fails_whole_runs_on_a_digest_mismatch():
    failed, problems = run.judge([_rep("a"), _rep("b")], {"p/s": "a"})
    assert failed == [0, 10] and len(problems) == 1


def test_judge_holds_unpinned_seeds_to_the_first_repetition():
    failed, problems = run.judge([_rep("a"), _rep("a"), _rep("c")], {})
    assert failed == [0, 0, 10] and len(problems) == 1


def test_exits_nonzero_without_the_sources(tmp_path):
    """Outside a checkout (no ``src/``) there is nothing to measure."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-central",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_check_flags_a_job_recorded_twice():
    """A duplicated job record fails the check on every plane, even when
    the count of distinct finished jobs still equals the admitted one."""
    import workloads
    from repro.sweep.spec import RunSpec, WorkloadParams

    params = WorkloadParams(
        profile=workloads.PROFILE, num_jobs=5, utilization=0.6,
        total_slots=50, seed=workloads.TRACE_SEED,
    )
    spec = RunSpec("centralized", "hopper", params, run_seed=1)
    [(label, result, admitted)] = workloads.execute([spec])
    assert workloads.check(label, result, admitted).problems == ()
    result.jobs.append(result.jobs[0])
    assert "a job finished twice" in workloads.check(
        label, result, admitted
    ).problems
