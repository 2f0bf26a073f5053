"""Tests for the cluster's per-machine slots, the datastore and
blacklisting."""

import pytest

from repro.cluster.blacklist import Blacklist
from repro.cluster.cluster import EVICTED, Cluster
from repro.cluster.datastore import DataStore
from repro.simulation.rng import RandomSource
from repro.workload.job import make_chain_job, make_single_phase_job
from repro.workload.task import Task


def test_machine_slot_accounting():
    cluster = Cluster(num_machines=1, slots_per_machine=2)
    cluster.acquire_slot(0)
    assert cluster.machine_busy == [1]
    assert cluster.has_free_slot(0)
    cluster.acquire_slot(0)
    assert not cluster.has_free_slot(0)
    cluster.release_slot(0)
    assert cluster.machine_busy == [1]
    assert cluster.has_free_slot(0)


def test_machine_over_acquire_raises():
    cluster = Cluster(num_machines=2, slots_per_machine=1)
    cluster.acquire_slot(0)
    with pytest.raises(RuntimeError):
        cluster.acquire_slot(0)
    assert cluster.busy_slots == 1


def test_machine_over_release_raises():
    cluster = Cluster(num_machines=2, slots_per_machine=1)
    with pytest.raises(RuntimeError):
        cluster.release_slot(0)
    assert cluster.busy_slots == 0


def test_machine_requires_slots():
    with pytest.raises(ValueError):
        Cluster(num_machines=1, slots_per_machine=0)


def test_cluster_totals():
    cluster = Cluster(num_machines=10, slots_per_machine=4)
    assert cluster.num_machines == 10
    assert cluster.total_slots == 40
    assert cluster.free_slots == 40
    assert cluster.live_machine_count == 10


def test_cluster_slot_tracking_is_consistent():
    cluster = Cluster(num_machines=3, slots_per_machine=2)
    cluster.acquire_slot(0)
    cluster.acquire_slot(1)
    assert cluster.busy_slots == 2
    assert cluster.free_slots == 4
    cluster.release_slot(0)
    assert cluster.busy_slots == 1


def test_cluster_machines_with_free_slots():
    cluster = Cluster(num_machines=2, slots_per_machine=1)
    cluster.acquire_slot(0)
    assert cluster.index.free_machine_ids() == [1]
    assert [cluster.has_free_slot(i) for i in range(2)] == [False, True]


def test_cluster_requires_machines():
    with pytest.raises(ValueError):
        Cluster(num_machines=0)


def test_blacklist_strikes():
    blacklist = Blacklist(strikes_to_blacklist=2, strike_window=10.0)
    assert not blacklist.record_strike(3, now=0.0)
    # second strike within the window crosses the threshold
    assert blacklist.record_strike(3, now=1.0)
    assert blacklist.is_blacklisted(3)
    assert not blacklist.record_strike(3, now=2.0)  # already blacklisted
    blacklist.remove(3)
    assert not blacklist.is_blacklisted(3)
    assert blacklist.strike_count(3, now=2.0) == 0  # clean record


def test_cluster_evict_machine_removes_capacity():
    cluster = Cluster(num_machines=4, slots_per_machine=2)
    cluster.evict_machine(0)
    assert cluster.total_slots == 6
    assert cluster.live_machine_count == 3
    assert cluster.machine_status[0] == EVICTED
    assert not cluster.has_free_slot(0)
    cluster.reinstate_machine(0)
    assert cluster.total_slots == 8
    assert cluster.has_free_slot(0)


# -- datastore ------------------------------------------------------------------

def _job_with_input(num_tasks=4):
    return make_single_phase_job(0, 0.0, [1.0] * num_tasks)


def test_datastore_places_replicas():
    store = DataStore(num_machines=10, replicas=3)
    job = _job_with_input()
    store.place_job_inputs(job)
    for task in job.phases[0].tasks:
        assert len(store.local_machines(task)) == 3
        # Placements live in the store; the immutable task is untouched.
        assert task.preferred_machines == ()


def test_datastore_placement_is_stable():
    store = DataStore(num_machines=10)
    task = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    first = store.place_task_input(task)
    second = store.place_task_input(task)
    assert first == second


def test_datastore_locality_checks():
    store = DataStore(num_machines=10)
    task = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    placement = store.place_task_input(task)
    local = placement[0]
    remote = next(m for m in range(10) if m not in placement)
    assert store.is_local(task, local)
    assert not store.is_local(task, remote)
    assert store.duration_multiplier(task, local) == 1.0
    assert store.duration_multiplier(task, remote) == store.remote_penalty


def test_datastore_only_places_input_phases():
    store = DataStore(num_machines=10)
    job = make_chain_job(0, 0.0, [[1.0] * 2, [1.0]])
    store.place_job_inputs(job)
    assert all(store.local_machines(t) for t in job.phases[0].tasks)
    assert all(not store.local_machines(t) for t in job.phases[1].tasks)


def test_datastore_respects_existing_preference():
    store = DataStore(num_machines=10)
    task = Task(
        task_id=1, job_id=0, phase_index=0, size=1.0, preferred_machines=(7,)
    )
    assert store.place_task_input(task) == (7,)


def test_datastore_validates_params():
    with pytest.raises(ValueError):
        DataStore(num_machines=0)
    with pytest.raises(ValueError):
        DataStore(num_machines=5, remote_penalty=0.5)


def test_datastore_deterministic_with_seed():
    a = DataStore(num_machines=10, random_source=RandomSource(seed=3))
    b = DataStore(num_machines=10, random_source=RandomSource(seed=3))
    task_a = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    task_b = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    assert a.place_task_input(task_a) == b.place_task_input(task_b)
