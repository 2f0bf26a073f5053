"""Jobs: DAGs of phases with pipelining (§4.2).

A :class:`Job` is immutable workload data shared by every simulator
plane and every replay of a trace. It exposes only structure (phases,
DAG shape, task counts). Per-run progress — which tasks finished, each
phase's remaining work, the runnable front, alpha's inputs — lives in
that run's :class:`~repro.speculation.base.JobExecutionView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workload.phase import Phase
from repro.workload.task import Task


@dataclass(frozen=True)
class Job:
    """A job: a DAG of phases, each a set of parallel tasks.

    Attributes
    ----------
    job_id:
        Unique id.
    arrival_time:
        Submission time.
    phases:
        Topologically ordered phases (parents precede children).
    name:
        Recurring-job key; jobs with the same name are assumed to be runs
        of the same periodic script (used by the alpha estimator, §6.3).
    weight:
        Fair-share weight (1.0 = normal).
    """

    job_id: int
    arrival_time: float
    phases: Tuple[Phase, ...]
    name: str = ""
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ValueError("job must contain at least one phase")
        seen = set()
        for phase in self.phases:
            for parent in phase.parents:
                if parent not in seen:
                    raise ValueError(
                        f"phase {phase.index} references parent {parent} that "
                        "does not precede it (phases must be topologically "
                        "ordered)"
                    )
            seen.add(phase.index)
        phase_by_index = {p.index: p for p in self.phases}
        if len(phase_by_index) != len(self.phases):
            raise ValueError("duplicate phase indices")
        object.__setattr__(self, "_phase_by_index", phase_by_index)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def dag_length(self) -> int:
        """Length of the longest parent chain (1 for single-phase jobs)."""
        depth: Dict[int, int] = {}
        for phase in self.phases:  # topological order
            if phase.parents:
                depth[phase.index] = 1 + max(depth[p] for p in phase.parents)
            else:
                depth[phase.index] = 1
        return max(depth.values())

    @property
    def num_tasks(self) -> int:
        return sum(p.num_tasks for p in self.phases)

    def phase(self, index: int) -> Phase:
        return self._phase_by_index[index]

    def all_tasks(self) -> List[Task]:
        return [t for p in self.phases for t in p.tasks]

    def downstream_of(self, phase: Phase) -> List[Phase]:
        """Phases that directly read this phase's output."""
        return [p for p in self.phases if phase.index in p.parents]


def make_single_phase_job(
    job_id: int,
    arrival_time: float,
    task_sizes: Sequence[float],
    name: str = "",
    preferred: Optional[Sequence[Tuple[int, ...]]] = None,
    task_id_start: int = 0,
) -> Job:
    """Convenience constructor for a single-phase job."""
    tasks = []
    for i, size in enumerate(task_sizes):
        prefs: Tuple[int, ...] = ()
        if preferred is not None:
            prefs = tuple(preferred[i])
        tasks.append(
            Task(
                task_id=task_id_start + i,
                job_id=job_id,
                phase_index=0,
                size=float(size),
                preferred_machines=prefs,
            )
        )
    phase = Phase(index=0, tasks=tasks)
    return Job(job_id=job_id, arrival_time=arrival_time, phases=[phase], name=name)


def make_chain_job(
    job_id: int,
    arrival_time: float,
    phase_task_sizes: Sequence[Sequence[float]],
    phase_output_data: Optional[Sequence[float]] = None,
    name: str = "",
    slowstart: float = 0.05,
    task_id_start: int = 0,
) -> Job:
    """Convenience constructor for a linear chain DAG (map → ... → reduce)."""
    phases: List[Phase] = []
    next_task_id = task_id_start
    for index, sizes in enumerate(phase_task_sizes):
        tasks = [
            Task(
                task_id=next_task_id + i,
                job_id=job_id,
                phase_index=index,
                size=float(s),
            )
            for i, s in enumerate(sizes)
        ]
        next_task_id += len(tasks)
        output = 0.0
        if phase_output_data is not None and index < len(phase_output_data):
            output = float(phase_output_data[index])
        parents = (index - 1,) if index > 0 else ()
        phases.append(
            Phase(
                index=index,
                tasks=tasks,
                parents=parents,
                output_data=output,
                slowstart=slowstart,
            )
        )
    return Job(job_id=job_id, arrival_time=arrival_time, phases=phases, name=name)
