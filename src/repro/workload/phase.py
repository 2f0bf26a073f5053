"""Phases: groups of parallel tasks inside a job's DAG.

Multi-phase jobs (map → shuffle → reduce, or longer Hive/Scope chains) are
modelled as DAGs of phases. Downstream phases *pipeline* with upstream
ones: they become runnable once parents have completed a slow-start
fraction of their tasks (§4.2, [6] in the paper), and their communication
volume feeds the DAG weighting factor alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.workload.task import Task


@dataclass(frozen=True)
class Phase:
    """One phase (stage) of a job.

    Attributes
    ----------
    index:
        Position of this phase within the job (also its id in the DAG).
    tasks:
        The phase's tasks.
    parents:
        Indices of upstream phases this phase reads from. Empty for input
        phases.
    output_data:
        Total intermediate data (arbitrary units, e.g. MB) this phase
        produces for downstream consumers; used to compute alpha.
    slowstart:
        Fraction of each parent's tasks that must be finished before this
        phase's tasks may begin (pipelining threshold).
    total_work:
        Sum of the task sizes, derived from ``tasks`` at construction
        (not a constructor argument, so every ``replace`` recomputes it).
    """

    index: int
    tasks: Tuple[Task, ...]
    parents: Tuple[int, ...] = ()
    output_data: float = 0.0
    slowstart: float = 0.05
    total_work: float = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "parents", tuple(self.parents))
        if not self.tasks:
            raise ValueError("phase must contain at least one task")
        if not 0.0 <= self.slowstart <= 1.0:
            raise ValueError("slowstart must be in [0, 1]")
        if self.output_data < 0:
            raise ValueError("output_data must be non-negative")
        object.__setattr__(self, "total_work", sum(t.size for t in self.tasks))

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def mean_task_size(self) -> float:
        """Average intrinsic task size."""
        return self.total_work / self.num_tasks

    def scaled(self, factor: float) -> "Phase":
        """This phase with every task size and the output stretched by
        ``factor`` (the serving regime's heavy-tailed job-size modifier).

        The total is the one product ``total_work * factor``, not a
        re-summed ``sum(size * factor)``, so it is bit-equal to the
        total the tasks were generated with, scaled once.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        scaled = replace(
            self,
            tasks=tuple(replace(t, size=t.size * factor) for t in self.tasks),
            output_data=self.output_data * factor,
        )
        object.__setattr__(scaled, "total_work", self.total_work * factor)
        return scaled
