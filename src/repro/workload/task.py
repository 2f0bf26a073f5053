"""Tasks: the unit of scheduling.

A :class:`Task` carries an intrinsic *size* (work units); the actual
wall-clock duration of a given *copy* of a task is ``size * slowdown``
where the slowdown comes from the straggler model and is drawn
independently per copy — this is what makes speculative execution a race
worth running.

Tasks are immutable workload data: whether a task has finished in a run
is per-run progress, kept by that run's
:class:`~repro.speculation.base.JobExecutionView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True, init=False)
class Task:
    """One task of a job phase.

    Attributes
    ----------
    task_id:
        Globally unique identifier.
    job_id:
        Owning job.
    phase_index:
        Index of the owning phase within the job's DAG.
    size:
        Intrinsic work in time units (duration on a straggler-free, local
        slot).
    preferred_machines:
        Machines holding a replica of this task's input block, as the
        trace records them. Empty for tasks with no input (or
        intermediate phases reading over the network). A run with a
        :class:`~repro.cluster.datastore.DataStore` reads its placements
        from there instead.
    """

    task_id: int
    job_id: int
    phase_index: int
    size: float
    preferred_machines: Tuple[int, ...] = ()

    def __init__(self, task_id, job_id, phase_index, size, preferred_machines=()):
        # Written out rather than generated: a trace builds one Task per
        # task, and the generated frozen __init__ (a closure lookup per
        # field plus a __post_init__ call) costs ~30% more.
        if size <= 0:
            raise ValueError(f"task size must be positive, got {size}")
        setattr_ = object.__setattr__
        setattr_(self, "task_id", task_id)
        setattr_(self, "job_id", job_id)
        setattr_(self, "phase_index", phase_index)
        setattr_(self, "size", size)
        setattr_(self, "preferred_machines", preferred_machines)
