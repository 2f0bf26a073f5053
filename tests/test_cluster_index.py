"""Property-style invariant tests for the cluster's delta-maintained state.

``Cluster`` answers every capacity and free-machine question from flat
per-machine lists, O(1) counters and the Fenwick :class:`ClusterIndex`,
all updated by deltas. They are only admissible if, after *any*
sequence of slot acquire/release, eviction, reinstatement, retirement
and growth, every answer equals what a from-scratch scan of a naive
per-machine model reports (``tests/cluster_model.py``).
"""

import random

import pytest

from cluster_model import ReferenceCluster
from repro.cluster.blacklist import Blacklist
from repro.cluster.cluster import EVICTED, LIVE, RETIRED, Cluster
from repro.cluster.index import ClusterIndex


def _pair(num_machines, slots_per_machine):
    return (
        Cluster(num_machines, slots_per_machine),
        ReferenceCluster(num_machines, slots_per_machine),
    )


def test_fresh_cluster_index_matches_scan():
    cluster, model = _pair(17, 3)
    model.check(cluster)


def test_index_tracks_acquire_release():
    cluster, model = _pair(5, 2)
    for _ in range(2):
        cluster.acquire_slot(2)
        model.acquire(2)
        model.check(cluster)
    assert 2 not in cluster.index.free_machine_ids()  # full -> out
    cluster.release_slot(2)
    model.release(2)
    model.check(cluster)
    assert 2 in cluster.index.free_machine_ids()  # a slot back -> in


@pytest.mark.parametrize("seed", range(8))
def test_cluster_matches_reference_model(seed):
    """Random interleavings of every Cluster mutation keep every query
    equal to the naive model after every step."""
    rng = random.Random(seed)
    cluster, model = _pair(rng.randint(1, 24), rng.randint(1, 3))
    for _ in range(400):
        op = rng.random()
        free = model.free_ids()
        live = model.ids(LIVE)
        evicted = model.ids(EVICTED)
        busy = model.busy_ids()
        if op < 0.35 and free:
            machine_id = rng.choice(free)
            cluster.acquire_slot(machine_id)
            model.acquire(machine_id)
        elif op < 0.6 and busy:
            # Includes slots still held on evicted/retired machines.
            machine_id = rng.choice(busy)
            cluster.release_slot(machine_id)
            model.release(machine_id)
        elif op < 0.7 and len(live) > 1:
            machine_id = rng.choice(live)
            cluster.evict_machine(machine_id)
            model.evict(machine_id)
        elif op < 0.8 and evicted:
            machine_id = rng.choice(evicted)
            cluster.reinstate_machine(machine_id)
            model.reinstate(machine_id)
        elif op < 0.85 and len(live) > 1:
            machine_id = rng.choice(live + evicted)
            cluster.remove_machine(machine_id)
            model.retire(machine_id)
        elif op < 0.9:
            count = rng.randint(1, 4)
            min_machines = rng.randint(0, 3)
            assert cluster.retire_machines(
                count, min_machines
            ) == model.retire_highest(count, min_machines)
        else:
            assert cluster.add_machine() == model.add()
        model.check(cluster)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_launch_kill_finish_sequences(seed):
    """Random acquire ("launch") / release ("kill"/"finish") sequences
    on a fixed membership keep the cluster equal to the model."""
    rng = random.Random(seed)
    cluster, model = _pair(rng.randint(1, 40), rng.randint(1, 3))
    for _ in range(300):
        busy = model.busy_ids()
        free = model.free_ids()
        if busy and (not free or rng.random() < 0.45):
            machine_id = rng.choice(busy)
            cluster.release_slot(machine_id)
            model.release(machine_id)
        elif free:
            machine_id = rng.choice(free)
            cluster.acquire_slot(machine_id)
            model.acquire(machine_id)
        model.check(cluster)


@pytest.mark.parametrize("seed", [10, 11])
def test_randomized_sequences_with_blacklisting(seed):
    """Eviction and reinstatement of idle and busy machines."""
    rng = random.Random(seed)
    cluster, model = _pair(20, 2)
    for _ in range(200):
        machine_id = rng.randrange(20)
        status = model.machines[machine_id].status
        if rng.random() < 0.3:
            if status == LIVE:
                cluster.evict_machine(machine_id)
                model.evict(machine_id)
            else:
                cluster.reinstate_machine(machine_id)
                model.reinstate(machine_id)
        elif machine_id in model.free_ids():
            cluster.acquire_slot(machine_id)
            model.acquire(machine_id)
        elif model.machines[machine_id].busy:
            cluster.release_slot(machine_id)
            model.release(machine_id)
        model.check(cluster)


def test_invalid_membership_transitions_raise():
    cluster = Cluster(num_machines=4, slots_per_machine=1)
    cluster.evict_machine(0)
    with pytest.raises(ValueError):
        cluster.evict_machine(0)  # evicting twice
    cluster.remove_machine(1)
    with pytest.raises(ValueError):
        cluster.evict_machine(1)  # evicting a retired machine
    with pytest.raises(ValueError):
        cluster.reinstate_machine(2)  # reinstating a live machine
    with pytest.raises(ValueError):
        cluster.reinstate_machine(1)  # reinstating a retired machine
    with pytest.raises(ValueError):
        cluster.remove_machine(1)  # retiring twice
    # A failed transition leaves the state untouched.
    assert cluster.machine_status == [EVICTED, RETIRED, LIVE, LIVE]
    assert cluster.total_slots == 2
    assert cluster.live_machine_count == 2
    assert cluster.index.free_machine_ids() == [2, 3]


def test_evicted_machine_may_retire_but_not_return():
    cluster, model = _pair(3, 2)
    for _ in range(2):
        cluster.acquire_slot(0)
        model.acquire(0)
    cluster.evict_machine(0)
    model.evict(0)
    cluster.remove_machine(0)
    model.retire(0)
    cluster.release_slot(0)
    model.release(0)
    model.check(cluster)
    with pytest.raises(ValueError):
        cluster.reinstate_machine(0)


def test_retire_machines_keeps_the_floor():
    cluster = Cluster(num_machines=6, slots_per_machine=1)
    cluster.evict_machine(5)
    # Highest *live* ids first: evicted 5 is skipped.
    assert cluster.retire_machines(2, min_machines=0) == [4, 3]
    # Clamped: at least max(1, min_machines) machines stay live.
    assert cluster.retire_machines(10, min_machines=2) == [2]
    assert cluster.retire_machines(10, min_machines=2) == []
    assert cluster.retire_machines(10, min_machines=0) == [1]
    assert cluster.live_machine_count == 1


def _brute_force_blacklist_step(reference, machine_id, now, k, window):
    history, blacklisted = reference
    if machine_id in blacklisted:
        return False
    history.setdefault(machine_id, []).append(now)
    if len([t for t in history[machine_id] if now - t < window]) >= k:
        blacklisted.add(machine_id)
        return True
    return False


@pytest.mark.parametrize("seed", range(6))
def test_blacklist_matches_brute_force_reference(seed):
    """Property: randomized strike/reinstatement sequences with
    non-decreasing timestamps keep the windowed Blacklist equal to a
    full-history brute-force reference at every step."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    window = rng.choice([1.0, 5.0, 20.0])
    num_machines = rng.randint(1, 12)
    actual = Blacklist(strikes_to_blacklist=k, strike_window=window)
    history, blacklisted = reference = ({}, set())
    now = 0.0
    for _ in range(400):
        now += rng.random() * 3.0
        machine_id = rng.randrange(num_machines)
        if rng.random() < 0.8:
            assert actual.record_strike(
                machine_id, now
            ) == _brute_force_blacklist_step(
                reference, machine_id, now, k, window
            )
        else:  # reinstatement wipes the strike record in both
            actual.remove(machine_id)
            blacklisted.discard(machine_id)
            history.pop(machine_id, None)
        assert actual.blacklisted_machines == blacklisted
        probe = rng.randrange(num_machines)
        if not actual.is_blacklisted(probe):
            assert actual.strike_count(probe, now) == len(
                [t for t in history.get(probe, []) if now - t < window]
            )


def test_blacklist_window_expires_old_strikes():
    blacklist = Blacklist(strikes_to_blacklist=2, strike_window=5.0)
    assert not blacklist.record_strike(0, now=0.0)
    # The first strike has aged out: the second one does not blacklist.
    assert not blacklist.record_strike(0, now=6.0)
    assert blacklist.record_strike(0, now=8.0)
    assert blacklist.is_blacklisted(0)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_index_invariants_under_midrun_eviction(seed):
    """Property: interleave slot traffic with simulator-style mid-run
    eviction (evict the machine, then kill its busy slots) and
    probation reinstatement; the cluster must equal the model at every
    step."""
    rng = random.Random(seed)
    num_machines = rng.randint(4, 24)
    cluster, model = _pair(num_machines, rng.randint(1, 3))
    policy_blacklist = Blacklist(strikes_to_blacklist=2, strike_window=8.0)
    now = 0.0
    for _ in range(250):
        now += rng.random()
        op = rng.random()
        if op < 0.45 and model.free_ids():
            machine_id = rng.choice(model.free_ids())
            cluster.acquire_slot(machine_id)
            model.acquire(machine_id)
        elif op < 0.7:
            if model.busy_ids():
                machine_id = rng.choice(model.busy_ids())
                cluster.release_slot(machine_id)
                model.release(machine_id)
        elif op < 0.9:
            machine_id = rng.randrange(num_machines)
            if policy_blacklist.record_strike(machine_id, now):
                cluster.evict_machine(machine_id)
                model.evict(machine_id)
                while model.machines[machine_id].busy:
                    cluster.release_slot(machine_id)
                    model.release(machine_id)
        else:
            evicted = sorted(policy_blacklist.blacklisted_machines)
            if evicted:  # probation served: reinstate one
                machine_id = rng.choice(evicted)
                policy_blacklist.remove(machine_id)
                cluster.reinstate_machine(machine_id)
                model.reinstate(machine_id)
        model.check(cluster)


def test_index_after_simulation_run_matches_scan():
    """End-to-end: after a full centralized replay (launch / kill /
    finish traffic) the cluster is idle and equals a fresh model."""
    from repro.centralized.config import CentralizedConfig
    from repro.centralized.simulator import CentralizedSimulator
    from repro.simulation.rng import RandomSource
    from repro.speculation import LATE
    from repro.stragglers.model import ParetoRedrawStragglerModel
    from repro.workload.generator import SPARK_FACEBOOK_PROFILE, TraceGenerator
    from repro.workload.traces import Trace
    from repro.registry import CENTRALIZED_SYSTEMS

    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=5),
        max_phase_tasks=40,
    )
    trace = Trace(jobs=gen.generate(12, interarrival_mean=1.0))
    cluster, model = _pair(15, 2)
    simulator = CentralizedSimulator(
        cluster=cluster,
        policy=CENTRALIZED_SYSTEMS.get("hopper").factory(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=trace,
        straggler_model=ParetoRedrawStragglerModel(beta=1.4),
        config=CentralizedConfig(),
        random_source=RandomSource(seed=6),
    )
    simulator.run()
    model.check(cluster)
    assert cluster.busy_slots == 0


def test_nth_free_machine_bounds():
    index = ClusterIndex(3)
    assert index.nth_free_machine(0) == 0
    assert index.nth_free_machine(2) == 2
    with pytest.raises(IndexError):
        index.nth_free_machine(3)
    with pytest.raises(IndexError):
        index.nth_free_machine(-1)


def test_nth_free_matches_selection_on_sparse_patterns():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 64)
        index = ClusterIndex(n)
        free_ids = []
        for machine_id in range(n):
            if rng.random() < 0.5:
                index.set_machine(machine_id, False)
            else:
                free_ids.append(machine_id)
        for _ in range(rng.randint(0, 5)):
            index.append_machine()
            free_ids.append(len(index) - 1)
        assert index.free_machine_count == len(free_ids)
        assert index.free_machine_ids() == free_ids
        for k, expected in enumerate(free_ids):
            assert index.nth_free_machine(k) == expected


def test_randrange_selection_equals_choice_on_scan():
    """The bit-identity cornerstone: rng.randrange(count) + nth_free
    consumes the same entropy and picks the same machine as
    rng.choice over a scan of the free machines."""
    cluster, model = _pair(50, 1)
    for machine_id in range(0, 50, 3):
        cluster.acquire_slot(machine_id)
        model.acquire(machine_id)

    rng_a = random.Random(7)
    rng_b = random.Random(7)
    for _ in range(200):
        via_choice = rng_a.choice(model.free_ids())
        via_index = cluster.index.nth_free_machine(
            rng_b.randrange(cluster.index.free_machine_count)
        )
        assert via_choice == via_index
        assert rng_a.getstate() == rng_b.getstate()
