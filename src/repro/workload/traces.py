"""Traces: job sequences with arrival times, plus utilization targeting.

The paper speeds up trace replay to evaluate a range of average cluster
utilizations (60%-90%, §7.1). We reproduce this by rescaling interarrival
gaps so that the offered load ``rho = lambda * E[job work] / S`` matches a
target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Tuple

from repro.workload.job import Job


def arrival_rate_for_utilization(
    mean_job_work: float,
    total_slots: int,
    utilization: float,
) -> float:
    """Poisson arrival rate (jobs/time-unit) giving the target utilization.

    ``rho = lambda * E[work] / S  =>  lambda = rho * S / E[work]``.
    """
    if mean_job_work <= 0:
        raise ValueError("mean_job_work must be positive")
    if total_slots <= 0:
        raise ValueError("total_slots must be positive")
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    return utilization * total_slots / mean_job_work


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of jobs to replay.

    Immutable, like the jobs it holds: any number of runs, on any plane,
    can replay the same trace object.
    """

    jobs: Tuple[Job, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "jobs", tuple(sorted(self.jobs, key=lambda j: j.arrival_time))
        )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    @property
    def total_tasks(self) -> int:
        return sum(j.num_tasks for j in self.jobs)

    @property
    def total_work(self) -> float:
        return sum(t.size for j in self.jobs for t in j.all_tasks())

    def offered_utilization(self, total_slots: int) -> float:
        """Empirical offered load over the arrival window."""
        if not self.jobs or total_slots <= 0:
            return 0.0
        span = self.jobs[-1].arrival_time - self.jobs[0].arrival_time
        if span <= 0:
            return float("inf")
        return self.total_work / (span * total_slots)

    def rescaled_to_utilization(self, total_slots: int, utilization: float) -> "Trace":
        """Return a trace with interarrival gaps scaled to the target load.

        Mirrors the paper's "speed-up the trace appropriately" (§7.1).
        The rescaled jobs share their (immutable) phases with this trace.
        """
        current = self.offered_utilization(total_slots)
        if current in (0.0, float("inf")):
            raise ValueError("trace has no arrival span to rescale")
        factor = current / utilization
        base = self.jobs[0].arrival_time
        return Trace(
            jobs=[
                replace(job, arrival_time=base + (job.arrival_time - base) * factor)
                for job in self.jobs
            ]
        )


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Interleave several traces by arrival time.

    Traces produced by independent generators can carry colliding job
    ids (each generator numbers from 0); since the simulators key jobs by
    id, the merged jobs are renumbered sequentially when a collision
    exists. Only jobs whose id changes are rebuilt; the rest are shared
    with the sources, which is safe because jobs are immutable.
    """
    merged = Trace(jobs=[job for trace in traces for job in trace.jobs])
    if len({job.job_id for job in merged.jobs}) == len(merged.jobs):
        return merged
    return Trace(
        jobs=[
            job if job.job_id == new_id else _renumbered(job, new_id)
            for new_id, job in enumerate(merged.jobs)
        ]
    )


def _renumbered(job: Job, job_id: int) -> Job:
    """``job`` under a new id, its tasks' ``job_id`` included."""
    return replace(
        job,
        job_id=job_id,
        phases=[
            replace(
                phase,
                tasks=[replace(task, job_id=job_id) for task in phase.tasks],
            )
            for phase in job.phases
        ],
    )
