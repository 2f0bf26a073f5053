"""Elastic-cluster tests: membership deltas, autoscaler policies, and
mid-run resizes on every scheduler plane.

The hard constraints under test:

* ``Cluster.add_machine`` / ``remove_machine`` are O(log machines)
  *deltas* — after any interleaving with slot traffic the Fenwick index
  and ``_total_slots`` must equal a from-scratch rebuild/rescan;
* the :class:`IncrementalAllocator` floors memo invalidates on a pool
  resize through its existing ``(membership_version, total_slots)`` key
  — no new hooks;
* every plane absorbs scheduled resizes mid-run and still completes the
  full trace (removal rides the kill→requeue path);
* serving-side utilization is computed over *live* capacity, both in
  the decentralized probe and in the windowed aggregator.
"""

import random

import pytest

from repro.centralized.policies import HopperPolicy
from repro.cluster.cluster import Cluster
from repro.cluster.elastic import (
    ReactiveAutoscaler,
    ScheduleAutoscaler,
    parse_resize_schedule,
)
from repro.cluster.index import ClusterIndex
from repro.core.allocation import JobAllocationState
from repro.core.incremental import IncrementalAllocator
from repro.experiments.harness import (
    WorkloadSpec,
    build_decentralized_simulator,
    build_trace,
    run_simulator,
)
from repro.serving.driver import _PLANE_PROBES
from repro.serving.windows import ServingRegime, WindowedAggregator

# -- schedule parsing --------------------------------------------------------


def test_parse_resize_schedule_round_trip():
    assert parse_resize_schedule("30:+8,90:-8") == ((30.0, 8), (90.0, -8))
    assert parse_resize_schedule("0:1") == ((0.0, 1),)


@pytest.mark.parametrize(
    "text", ["", "  ,  ", "30", "-5:2", "30:0", "abc:1", "30:xyz"]
)
def test_parse_resize_schedule_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_resize_schedule(text)


def test_schedule_autoscaler_validates():
    with pytest.raises(ValueError):
        ScheduleAutoscaler(())
    with pytest.raises(ValueError):
        ScheduleAutoscaler([(5.0, 0)])
    with pytest.raises(ValueError):
        ScheduleAutoscaler([(-1.0, 2)])


def test_reactive_autoscaler_validates_and_decides():
    with pytest.raises(ValueError):
        ReactiveAutoscaler(interval=0.0)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(lower=0.9, upper=0.5)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(step=0)
    policy = ReactiveAutoscaler(interval=2.0, upper=0.8, lower=0.2, step=3)
    assert policy.decide(0.0, 9, 10) == 3  # above upper -> grow
    assert policy.decide(0.0, 1, 10) == -3  # below lower -> shrink
    assert policy.decide(0.0, 5, 10) == 0  # inside the band -> hold
    assert policy.decide(0.0, 0, 0) == 3  # empty cluster must grow


# -- membership deltas vs from-scratch rebuild -------------------------------


def _assert_matches_rebuild(cluster: Cluster) -> None:
    """Index and totals must equal what a wholesale recompute reports."""
    rebuilt = ClusterIndex(cluster.machines)
    index = cluster.index
    assert len(index) == len(cluster.machines)
    assert index.free_machine_ids() == rebuilt.free_machine_ids()
    assert index.free_machine_count == rebuilt.free_machine_count
    for k in range(rebuilt.free_machine_count):
        assert index.nth_free_machine(k) == rebuilt.nth_free_machine(k)
    assert index.first_free_machine() == rebuilt.first_free_machine()
    assert cluster.total_slots == cluster._scan_total_slots()


def test_add_machine_appends_fresh_id():
    cluster = Cluster(num_machines=3, slots_per_machine=2)
    machine = cluster.add_machine()
    assert machine.machine_id == 3
    assert machine.num_slots == 2  # defaults from the existing fleet
    assert cluster.total_slots == 8
    _assert_matches_rebuild(cluster)


def test_remove_machine_retires_and_never_resurrects():
    cluster = Cluster(num_machines=4, slots_per_machine=2)
    cluster.acquire_slot(1)
    cluster.remove_machine(1)
    assert cluster.total_slots == 6
    assert 1 not in cluster.index.free_machine_ids()
    with pytest.raises(ValueError):
        cluster.remove_machine(1)
    # Releasing the straggling busy slot must not re-admit the machine.
    cluster.release_slot(1)
    assert 1 not in cluster.index.free_machine_ids()
    _assert_matches_rebuild(cluster)
    # Growth appends a fresh id; the retired id stays dead.
    machine = cluster.add_machine()
    assert machine.machine_id == 4
    assert cluster.live_machine_count() == 4
    _assert_matches_rebuild(cluster)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_membership_and_slot_traffic(seed):
    """Interleave add/remove with acquire/release; after *every* step the
    delta-maintained index and totals equal a from-scratch rebuild."""
    rng = random.Random(seed)
    cluster = Cluster(num_machines=rng.randint(1, 8), slots_per_machine=2)
    busy = []  # machine ids holding a slot we acquired
    for _ in range(250):
        op = rng.random()
        live = [
            m.machine_id
            for m in cluster.machines
            if not m.retired and not m.blacklisted
        ]
        if op < 0.15:
            cluster.add_machine(num_slots=rng.randint(1, 3))
        elif op < 0.30 and len(live) > 1:
            cluster.remove_machine(rng.choice(live))
        elif op < 0.65 and cluster.index.free_machine_count:
            free_ids = cluster.index.free_machine_ids()
            machine_id = rng.choice(free_ids)
            cluster.acquire_slot(machine_id)
            busy.append(machine_id)
        elif busy:
            # May release on a since-retired machine: the index must
            # keep it out even though a slot freed up.
            cluster.release_slot(busy.pop(rng.randrange(len(busy))))
        _assert_matches_rebuild(cluster)


# -- floors memo invalidation ------------------------------------------------


def _states(n):
    return [
        JobAllocationState(job_id=i, virtual_size=4.0, remaining_tasks=2)
        for i in range(n)
    ]


def test_floors_memo_invalidates_on_pool_resize():
    """The floors memo key is (membership_version, total_slots): a resize
    changes the slot pool and must recompute floors with no extra hook."""
    allocator = IncrementalAllocator(HopperPolicy(epsilon=0.5))
    for state in _states(3):
        allocator.reserve(state.job_id)
        allocator.upsert(state)
    floors_100 = allocator._fairness_floors(100)
    assert floors_100 is allocator._fairness_floors(100)  # memo hit
    assert allocator._floors_key == (allocator._membership_version, 100)
    floors_60 = allocator._fairness_floors(60)
    assert allocator._floors_key == (allocator._membership_version, 60)
    # Hopper floors are epsilon-scaled slot shares: a smaller pool means
    # strictly smaller floors, proving a real recompute happened.
    assert sum(floors_60.values()) < sum(floors_100.values())


def test_floors_memo_invalidates_on_membership_change():
    allocator = IncrementalAllocator(HopperPolicy(epsilon=0.5))
    states = _states(2)
    for state in states:
        allocator.reserve(state.job_id)
        allocator.upsert(state)
    before = allocator._fairness_floors(100)
    allocator.remove(states[0].job_id)
    after = allocator._fairness_floors(100)
    assert set(after) != set(before)
    assert allocator._floors_key == (allocator._membership_version, 100)


# -- mid-run resizes on every plane ------------------------------------------

_SPEC = WorkloadSpec(num_jobs=12, utilization=0.6, total_slots=48, seed=9)

@pytest.mark.parametrize("plane", ["batch", "centralized", "decentralized"])
def test_planes_complete_trace_through_shrink_and_grow(plane):
    """A shrink mid-run kills running copies; the kill→requeue path must
    still complete every job once capacity returns, on every plane."""
    trace = build_trace(_SPEC)
    result = run_simulator(
        "hopper",
        trace,
        _SPEC,
        plane=plane,
        autoscaler="schedule",
        resize_schedule="2:-4,10:+4",
    )
    assert len(result.jobs) == _SPEC.num_jobs
    baseline = run_simulator("hopper", trace, _SPEC, plane=plane)
    assert len(baseline.jobs) == _SPEC.num_jobs
    # The resize is not inert: some job's completion time moved.
    resized = {r.job_id: r.finish_time for r in result.jobs}
    static = {r.job_id: r.finish_time for r in baseline.jobs}
    assert resized != static


def test_centralized_shrink_only_leaves_smaller_cluster():
    trace = build_trace(_SPEC)
    from repro.experiments.harness import build_centralized_simulator

    simulator = build_centralized_simulator(
        trace,
        "hopper",
        _SPEC,
        autoscaler=ScheduleAutoscaler([(2.0, -3)]),
    )
    before = simulator.cluster.total_slots
    result = simulator.run()
    assert len(result.jobs) == _SPEC.num_jobs
    assert simulator.cluster.total_slots == before - 3 * 4
    assert simulator._elastic.machines_removed == 3
    assert simulator._elastic.resizes_applied == 1


def test_reactive_autoscaler_grows_overloaded_centralized_cluster():
    """A tiny cluster at high offered load sits above the upper
    threshold, so the reactive sampler must add machines mid-run."""
    spec = WorkloadSpec(num_jobs=12, utilization=0.85, total_slots=16, seed=9)
    trace = build_trace(spec)
    from repro.experiments.harness import build_centralized_simulator

    simulator = build_centralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler="reactive",
        scale_interval=1.0,
        scale_up_threshold=0.5,
        # lower=0 never fires: the run's draining tail must not shrink
        # the cluster back down and mask the growth under test.
        scale_down_threshold=0.0,
        scale_step=2,
    )
    before = simulator.cluster.total_slots
    result = simulator.run()
    assert len(result.jobs) == spec.num_jobs
    assert simulator._elastic.machines_added > 0
    assert simulator.cluster.total_slots > before


def test_remove_clamps_at_min_machines():
    spec = WorkloadSpec(num_jobs=4, utilization=0.5, total_slots=12, seed=3)
    trace = build_trace(spec)
    from repro.experiments.harness import build_centralized_simulator

    simulator = build_centralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler=ScheduleAutoscaler([(1.0, -100)], min_machines=2),
    )
    simulator.run()
    assert simulator.cluster.live_machine_count() == 2


# -- serving-side live capacity (the foregrounded bugfix) --------------------


def test_decentralized_probe_reports_live_capacity():
    """Regression: the serving probe once summed ``worker.num_slots``
    over *all* workers, counting evicted/retired capacity. It must track
    the live slot pool through a mid-serving shrink and grow-back."""
    spec = WorkloadSpec(num_jobs=6, utilization=0.5, total_slots=20, seed=4)
    trace = build_trace(spec)
    simulator = build_decentralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler=ScheduleAutoscaler([(1.0, -5)]),
    )
    probe = _PLANE_PROBES["decentralized"](simulator)
    assert probe.total_slots() == 20
    removed = simulator._autoscale_remove(5)
    assert removed == 5
    dead_sum = sum(w.num_slots for w in simulator.workers)
    assert dead_sum == 20  # the buggy denominator would still say 20
    assert probe.total_slots() == 15
    added = simulator._autoscale_add(2)
    assert added == 2
    assert probe.total_slots() == 17


def test_centralized_probe_tracks_resized_cluster():
    spec = WorkloadSpec(num_jobs=6, utilization=0.5, total_slots=20, seed=4)
    trace = build_trace(spec)
    from repro.experiments.harness import build_centralized_simulator

    simulator = build_centralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler=ScheduleAutoscaler([(1.0, -2)]),
    )
    probe = _PLANE_PROBES["centralized"](simulator)
    assert probe.total_slots() == 20
    simulator._autoscale_remove(2)
    assert probe.total_slots() == 12  # 2 machines x 4 slots gone


# -- windowed utilization under capacity change ------------------------------


def _regime():
    return ServingRegime(warmup=0.0, horizon=40.0, cooldown=0.0, window=10.0)


def test_windowed_utilization_constant_capacity_is_mean_of_ratios():
    aggregator = WindowedAggregator(_regime())
    aggregator.sample(0, 3, 10)
    aggregator.sample(0, 7, 10)
    overall = aggregator.finalize()["overall"]
    assert overall["mean_utilization"] == pytest.approx((0.3 + 0.7) / 2)


def test_windowed_utilization_weights_by_live_capacity():
    """A mid-window shrink must not let utilization exceed 1.0: the
    constant-denominator mean would report 14/20 + 6/5 style nonsense;
    the capacity-weighted mean stays a true slot-seconds ratio."""
    aggregator = WindowedAggregator(_regime())
    aggregator.sample(0, 14, 20)  # before the shrink
    aggregator.sample(0, 5, 5)  # after: 5 live slots, all busy
    overall = aggregator.finalize()["overall"]
    assert overall["mean_utilization"] == pytest.approx(19 / 25)
    assert overall["mean_utilization"] <= 1.0


def test_windowed_utilization_handles_zero_capacity_samples():
    aggregator = WindowedAggregator(_regime())
    aggregator.sample(0, 0, 0)
    assert aggregator.finalize()["overall"]["mean_utilization"] == 0.0
    varying = WindowedAggregator(_regime())
    varying.sample(0, 4, 8)
    varying.sample(0, 0, 0)  # cluster fully retired for one sample
    overall = varying.finalize()["overall"]
    assert overall["mean_utilization"] == pytest.approx(0.5)
