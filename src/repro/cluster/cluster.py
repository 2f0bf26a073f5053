"""The cluster: per-machine slot and membership state with O(1) totals.

Every machine has ``slots_per_machine`` slots. Per-machine state is two
flat lists indexed by machine id: a busy-slot count and a status
(:data:`LIVE`, :data:`EVICTED` by a blacklist policy, or :data:`RETIRED`
by an autoscaler). The aggregates (``total_slots``, ``busy_slots``,
``free_slots``, ``live_machine_count``) and the set of machines with a
free slot (an O(log machines) :class:`~repro.cluster.index.ClusterIndex`)
are kept by deltas: slot acquire/release, eviction, reinstatement,
retirement and growth each touch one machine's entries and never
rescan or rebuild.
"""

from __future__ import annotations

from typing import List

from repro.cluster.index import ClusterIndex

#: Machine statuses. Only a LIVE machine counts toward capacity and can
#: hold a free-index bit. Eviction (§2.2 blacklisting) is undone by
#: reinstatement; retirement is permanent — growth appends fresh ids.
LIVE, EVICTED, RETIRED = 0, 1, 2


class Cluster:
    """``num_machines`` machines of ``slots_per_machine`` slots each."""

    def __init__(self, num_machines: int, slots_per_machine: int = 1) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if slots_per_machine <= 0:
            raise ValueError("slots_per_machine must be positive")
        self.slots_per_machine = slots_per_machine
        #: Busy slots per machine id.
        self.machine_busy: List[int] = [0] * num_machines
        #: LIVE / EVICTED / RETIRED per machine id.
        self.machine_status: List[int] = [LIVE] * num_machines
        self._busy_count = 0
        self._total_slots = num_machines * slots_per_machine
        self._live_count = num_machines
        #: Incremental free-slot index (see repro.cluster.index).
        self.index = ClusterIndex(num_machines)

    @property
    def num_machines(self) -> int:
        return len(self.machine_status)

    @property
    def total_slots(self) -> int:
        """Slots on live machines."""
        return self._total_slots

    @property
    def busy_slots(self) -> int:
        return self._busy_count

    @property
    def free_slots(self) -> int:
        return self._total_slots - self._busy_count

    @property
    def live_machine_count(self) -> int:
        """Machines contributing capacity (neither evicted nor retired)."""
        return self._live_count

    def has_free_slot(self, machine_id: int) -> bool:
        return (
            self.machine_status[machine_id] == LIVE
            and self.machine_busy[machine_id] < self.slots_per_machine
        )

    # -- slot traffic -------------------------------------------------------

    def acquire_slot(self, machine_id: int) -> None:
        """Mark a slot busy on ``machine_id``."""
        busy = self.machine_busy[machine_id] + 1
        if busy > self.slots_per_machine:
            raise RuntimeError(f"machine {machine_id}: no free slot")
        self.machine_busy[machine_id] = busy
        self._busy_count += 1
        if busy == self.slots_per_machine:
            self.index.set_machine(machine_id, False)

    def release_slot(self, machine_id: int) -> None:
        """Mark a slot free on ``machine_id``. A slot freed on an evicted
        or retired machine does not return it to the free index."""
        busy = self.machine_busy[machine_id]
        if busy <= 0:
            raise RuntimeError(f"machine {machine_id}: no busy slot")
        self.machine_busy[machine_id] = busy - 1
        self._busy_count -= 1
        # Only a full live machine lacks its free bit.
        if (
            busy == self.slots_per_machine
            and self.machine_status[machine_id] == LIVE
        ):
            self.index.set_machine(machine_id, True)

    # -- membership (each an O(log machines) delta) ---------------------------

    def _leave(self, machine_id: int) -> None:
        self._total_slots -= self.slots_per_machine
        self._live_count -= 1
        self.index.set_machine(machine_id, False)

    def evict_machine(self, machine_id: int) -> None:
        """Blacklist a live machine (§2.2): it stops counting toward
        capacity and leaves the free index until reinstated. Copies
        still running on it are the caller's to kill."""
        if self.machine_status[machine_id] != LIVE:
            raise ValueError(f"machine {machine_id} is not live")
        self.machine_status[machine_id] = EVICTED
        self._leave(machine_id)

    def reinstate_machine(self, machine_id: int) -> None:
        """Return an evicted machine to service."""
        if self.machine_status[machine_id] != EVICTED:
            raise ValueError(f"machine {machine_id} is not evicted")
        self.machine_status[machine_id] = LIVE
        self._total_slots += self.slots_per_machine
        self._live_count += 1
        self.index.set_machine(
            machine_id, self.machine_busy[machine_id] < self.slots_per_machine
        )

    def add_machine(self) -> int:
        """Append one live, idle machine; returns its id.

        Machine ids are append-only: a new machine always gets the next
        id, so per-id state elsewhere (straggler flaky sets, worker
        lists) stays valid.
        """
        machine_id = len(self.machine_status)
        self.machine_busy.append(0)
        self.machine_status.append(LIVE)
        self._total_slots += self.slots_per_machine
        self._live_count += 1
        self.index.append_machine()
        return machine_id

    def remove_machine(self, machine_id: int) -> None:
        """Retire one machine for good (an evicted one may retire too).

        The id stays allocated but stops counting toward capacity and
        drops out of the free-slot index. Copies still running on it are
        the caller's problem — the plane simulators reuse their eviction
        kill→requeue paths.
        """
        status = self.machine_status[machine_id]
        if status == RETIRED:
            raise ValueError(f"machine {machine_id} already retired")
        self.machine_status[machine_id] = RETIRED
        if status == LIVE:
            self._leave(machine_id)

    def retire_machines(self, count: int, min_machines: int) -> List[int]:
        """Retire up to ``count`` live machines, highest ids first,
        keeping at least ``max(1, min_machines)`` live. Returns the
        retired ids in retirement order."""
        count = min(count, self._live_count - max(1, min_machines))
        status = self.machine_status
        retired: List[int] = []
        machine_id = len(status)
        while len(retired) < count:
            machine_id -= 1
            if status[machine_id] == LIVE:
                self.remove_machine(machine_id)
                retired.append(machine_id)
        return retired
