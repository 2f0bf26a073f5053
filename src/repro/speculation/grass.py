"""GRASS — speculation for approximation analytics (Ananthanarayanan et
al., NSDI 2014), shown by its authors to perform near-optimal speculation.

GRASS combines two strategies and switches between them based on how much
of the job remains:

* **Resource Aware (RA)** early in the job: duplicate only when it saves
  resources (like Mantri — trem > 2·tnew), because early on, slots are
  better spent clearing fresh tasks;
* **Greedy Speculation (GS)** near the end: duplicate whenever a fresh
  copy is expected to finish sooner (trem > tnew), because in the last
  wave every straggler directly extends the job.

The switch point depends on the remaining fraction of tasks
(``switch_fraction``), the learned knob in the original system.
"""

from __future__ import annotations

from typing import List

from repro.speculation.base import (
    JobExecutionView,
    SpeculationPolicy,
    SpeculationRequest,
)


class GRASS(SpeculationPolicy):
    name = "grass"

    def __init__(
        self,
        detect_after: float = 0.5,
        switch_fraction: float = 0.15,
        ra_factor: float = 2.0,
    ) -> None:
        if detect_after < 0:
            raise ValueError("detect_after must be non-negative")
        if not 0.0 < switch_fraction < 1.0:
            raise ValueError("switch_fraction must be in (0, 1)")
        if ra_factor < 1.0:
            raise ValueError("ra_factor must be >= 1.0")
        self.detect_after = detect_after
        self.switch_fraction = switch_fraction
        self.ra_factor = ra_factor

    def _in_greedy_phase(self, view: JobExecutionView) -> bool:
        total = view.job.num_tasks
        remaining = view.remaining_tasks()
        return total > 0 and (remaining / total) <= self.switch_fraction

    def speculation_candidates(
        self, view: JobExecutionView, now: float
    ) -> List[SpeculationRequest]:
        factor = 1.0 if self._in_greedy_phase(view) else self.ra_factor
        requests: List[SpeculationRequest] = []
        for task in view.running_unfinished_tasks():
            copies = view.copies_of(task)
            if len(copies) >= self.max_copies_per_task():
                continue
            copy = max(copies, key=lambda c: c.duration)
            if now - copy.start_time < self.detect_after:
                continue
            trem = copy.estimated_remaining(now)
            tnew = view.estimate_new_copy_duration(task)
            if trem <= factor * tnew:
                continue
            requests.append(
                SpeculationRequest(
                    task=task,
                    expected_new_duration=tnew,
                    expected_benefit=trem - tnew,
                )
            )
        return self._slowest_first(requests)
