"""Naive per-machine reference model of :class:`repro.cluster.cluster.Cluster`.

Property tests drive a ``Cluster`` and a :class:`ReferenceCluster`
through the same operations and call :meth:`ReferenceCluster.check`
after every step: every aggregate and every index query the cluster
answers by deltas must equal what a from-scratch scan of the model's
machine list reports.
"""

from repro.cluster.cluster import EVICTED, LIVE, RETIRED


class _Machine:
    __slots__ = ("busy", "status")

    def __init__(self) -> None:
        self.busy = 0
        self.status = LIVE


class ReferenceCluster:
    def __init__(self, num_machines: int, slots_per_machine: int) -> None:
        self.slots = slots_per_machine
        self.machines = [_Machine() for _ in range(num_machines)]

    # -- scans ----------------------------------------------------------------

    def ids(self, status):
        return [i for i, m in enumerate(self.machines) if m.status == status]

    def free_ids(self):
        return [
            i
            for i, m in enumerate(self.machines)
            if m.status == LIVE and m.busy < self.slots
        ]

    def busy_ids(self):
        return [i for i, m in enumerate(self.machines) if m.busy]

    # -- operations (each mirrors one Cluster call) ---------------------------

    def acquire(self, machine_id: int) -> None:
        machine = self.machines[machine_id]
        assert machine.busy < self.slots
        machine.busy += 1

    def release(self, machine_id: int) -> None:
        machine = self.machines[machine_id]
        assert machine.busy > 0
        machine.busy -= 1

    def evict(self, machine_id: int) -> None:
        assert self.machines[machine_id].status == LIVE
        self.machines[machine_id].status = EVICTED

    def reinstate(self, machine_id: int) -> None:
        assert self.machines[machine_id].status == EVICTED
        self.machines[machine_id].status = LIVE

    def retire(self, machine_id: int) -> None:
        assert self.machines[machine_id].status != RETIRED
        self.machines[machine_id].status = RETIRED

    def retire_highest(self, count: int, min_machines: int):
        keep = max(1, min_machines)
        live = self.ids(LIVE)
        retired = []
        for machine_id in reversed(live):
            if len(retired) >= count or len(live) - len(retired) <= keep:
                break
            retired.append(machine_id)
        for machine_id in retired:
            self.retire(machine_id)
        return retired

    def add(self) -> int:
        self.machines.append(_Machine())
        return len(self.machines) - 1

    # -- the property ---------------------------------------------------------

    def check(self, cluster) -> None:
        free = self.free_ids()
        index = cluster.index
        assert index.free_machine_ids() == free
        assert index.free_machine_count == len(free)
        assert [index.nth_free_machine(k) for k in range(len(free))] == free
        assert index.first_free_machine() == (free[0] if free else None)
        assert len(index) == cluster.num_machines == len(self.machines)
        assert cluster.machine_busy == [m.busy for m in self.machines]
        assert cluster.machine_status == [m.status for m in self.machines]
        assert [
            cluster.has_free_slot(i) for i in range(len(self.machines))
        ] == [i in free for i in range(len(self.machines))]
        live = self.ids(LIVE)
        busy = sum(m.busy for m in self.machines)
        assert cluster.live_machine_count == len(live)
        assert cluster.total_slots == len(live) * self.slots
        assert cluster.busy_slots == busy
        assert cluster.free_slots == cluster.total_slots - busy
