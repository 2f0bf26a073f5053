"""The benchmark's workloads: each one a list of RunSpecs run the way a
user runs them.

A workload name plus a seed yields the RunSpecs; :func:`execute` turns
them into results through ``RunSpec.execute``, the path a user's run
takes: ``build_trace``, then ``build_*_simulator`` and ``run()`` for
replays, or ``run_serving`` for open-loop streams.

All workloads replay the spark-facebook profile's trace seed 42. The
benchmark seed is the RunSpec ``run_seed`` (straggler draws, probe
targets, speculation coin flips): changing it changes every simulated
result but keeps the amount of work per run within about half a
percent, so run-to-run spread is host noise, not a different trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.metrics.serialize import dumps_result
from repro.sweep.spec import RunSpec, WorkloadParams

PROFILE = "spark-facebook"
TRACE_SEED = 42

#: Open-loop time layout of ``serve-decentral`` (virtual seconds). The
#: cooldown only bounds the drain, so that every admitted job finishes:
#: the engine stops when the last one does. (With a 20 s cooldown some
#: run seeds leave a heavy-tailed job unfinished; the longest drain over
#: run seeds 1-30 is 96 s.)
SERVING_REGIME = (
    ("warmup", 10.0),
    ("horizon", 310.0),
    ("cooldown", 10_000.0),
    ("window", 10.0),
)


def specs(workload: str, seed: int) -> List[RunSpec]:
    """The RunSpecs one run of ``workload`` executes, in order."""
    if workload == "replay-central":
        params = WorkloadParams(
            profile=PROFILE, num_jobs=800, utilization=0.6,
            total_slots=2000, seed=TRACE_SEED,
        )
        return [RunSpec("centralized", "hopper", params, run_seed=seed)]
    if workload == "serve-decentral":
        # num_jobs is only the stream's safety cap; the horizon ends it.
        params = WorkloadParams(
            profile=PROFILE, num_jobs=100_000, utilization=0.9,
            total_slots=400, seed=TRACE_SEED,
        )
        return [
            RunSpec(
                "serving", "hopper", params, run_seed=seed,
                knobs=SERVING_REGIME,
            )
        ]
    if workload == "scale-1m":
        params = WorkloadParams(
            profile=PROFILE, num_jobs=100, utilization=0.6,
            total_slots=1_000_000, seed=TRACE_SEED,
        )
        return [
            RunSpec(plane, "hopper", params, run_seed=seed)
            for plane in ("decentralized", "centralized", "batch")
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """One RunSpec's result, reduced to what the benchmark checks."""

    label: str
    admitted: int
    completed: int
    problems: Tuple[str, ...]
    digest: str
    total_copies: int
    speculative_copies: int
    speculative_wins: int


def execute(run_specs: List[RunSpec]):
    """Run every spec through ``RunSpec.execute``, as a user does.

    Returns ``(label, result, admitted)`` per spec. A replay admits every
    trace job (``workload.num_jobs``); a serving stream admits
    ``result.serving["regime"]["jobs_offered"]``.
    """
    runs = []
    for spec in run_specs:
        result = spec.execute()
        if spec.kind == "serving":
            admitted = int(result.serving["regime"]["jobs_offered"])
        else:
            admitted = spec.workload.num_jobs
        runs.append((f"{spec.kind}/{spec.system}", result, admitted))
    return runs


def check(label, result, admitted: int) -> Outcome:
    """Digest one result and list every way it is not a complete run."""
    problems = []
    finished = {record.job_id for record in result.jobs}
    if len(finished) != len(result.jobs):
        problems.append("a job finished twice")
    completed = len(finished)
    if completed != admitted:
        problems.append(f"{completed} of {admitted} admitted jobs finished")
    if any(r.finish_time < r.arrival_time for r in result.jobs):
        problems.append("a job finished before it arrived")
    if result.total_copies < sum(r.num_tasks for r in result.jobs):
        problems.append("fewer task copies than finished tasks")
    digest = hashlib.sha256(dumps_result(result).encode("utf-8")).hexdigest()
    return Outcome(
        label=label,
        admitted=admitted,
        completed=min(completed, admitted),
        problems=tuple(problems),
        digest=digest,
        total_copies=result.total_copies,
        speculative_copies=result.speculative_copies,
        speculative_wins=result.speculative_wins,
    )
