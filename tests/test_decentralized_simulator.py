"""Integration tests for the decentralized (Sparrow-style) simulator."""

import pytest

from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
from repro.decentralized.simulator import DecentralizedSimulator
from repro.simulation.rng import RandomSource
from repro.speculation import LATE, NoSpeculation
from repro.stragglers.model import NoStragglerModel, ParetoRedrawStragglerModel
from repro.workload.generator import SPARK_FACEBOOK_PROFILE, TraceGenerator
from repro.workload.job import make_chain_job, make_single_phase_job
from repro.workload.traces import Trace


def _config(**kwargs):
    defaults = dict(
        num_schedulers=3,
        probe_ratio=4.0,
        worker_policy=WorkerPolicy.HOPPER,
        epsilon=1.0,
        message_delay=0.0005,
    )
    defaults.update(kwargs)
    return DecentralizedConfig(**defaults)


def _simulate(trace, workers=20, config=None, straggler=None, spec=None, seed=7):
    sim = DecentralizedSimulator(
        num_workers=workers,
        speculation=spec or (lambda: LATE()),
        trace=trace,
        straggler_model=straggler or NoStragglerModel(),
        config=config or _config(),
        random_source=RandomSource(seed=seed),
    )
    return sim, sim.run(until=1_000_000)


def _trace(num_jobs=15, seed=0, max_tasks=30, interarrival=1.0):
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=seed),
        max_phase_tasks=max_tasks,
    )
    return Trace(jobs=gen.generate(num_jobs, interarrival_mean=interarrival))


def test_single_job_completes():
    job = make_single_phase_job(0, 0.0, [1.0] * 8)
    sim, result = _simulate(Trace(jobs=[job]), workers=8)
    assert result.num_jobs == 1
    # duration ~ 1 plus a few message RTTs
    assert result.jobs[0].duration == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize(
    "policy", [WorkerPolicy.FIFO, WorkerPolicy.SRPT, WorkerPolicy.HOPPER]
)
def test_all_jobs_complete_under_every_policy(policy):
    trace = _trace(num_jobs=12)
    sim, result = _simulate(
        trace,
        workers=30,
        config=_config(worker_policy=policy),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.num_jobs == 12


def test_workers_end_idle():
    trace = _trace(num_jobs=10)
    sim, result = _simulate(
        trace,
        workers=25,
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.num_jobs == 10
    for worker_id in range(len(sim.workers)):
        worker = sim.worker(worker_id)
        assert worker.busy_slots == 0
        assert worker.pending_episodes == 0


def test_occupied_accounting_balances():
    trace = _trace(num_jobs=10)
    sim, result = _simulate(
        trace,
        workers=25,
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    for scheduler in sim.schedulers:
        assert scheduler.jobs == {}


def test_messages_are_counted():
    trace = _trace(num_jobs=5)
    sim, result = _simulate(trace, workers=20)
    # at least probe_ratio messages per task were sent
    assert result.messages_sent >= 4 * trace.total_tasks * 0.5


def test_probe_ratio_bounds_queue_growth():
    trace = _trace(num_jobs=5)
    config = _config(probe_ratio=2.0, max_probes_per_job=50)
    sim, result = _simulate(trace, workers=20, config=config)
    assert result.num_jobs == 5


def test_speculation_happens_with_stragglers():
    trace = _trace(num_jobs=15, max_tasks=40)
    sim, result = _simulate(
        trace,
        workers=50,
        straggler=ParetoRedrawStragglerModel(beta=1.2),
    )
    assert result.speculative_copies > 0
    assert result.speculative_wins > 0


def test_no_speculation_policy_never_duplicates():
    trace = _trace(num_jobs=10)
    sim, result = _simulate(
        trace,
        workers=30,
        spec=lambda: NoSpeculation(),
        straggler=ParetoRedrawStragglerModel(beta=1.3),
    )
    assert result.speculative_copies == 0
    assert result.num_jobs == 10


def test_speculation_improves_completion_with_heavy_tails():
    trace = _trace(num_jobs=15, max_tasks=40)
    _, with_spec = _simulate(
        trace,
        workers=60,
        straggler=ParetoRedrawStragglerModel(beta=1.2),
    )
    _, without = _simulate(
        trace,
        workers=60,
        spec=lambda: NoSpeculation(),
        straggler=ParetoRedrawStragglerModel(beta=1.2),
    )
    assert with_spec.mean_job_duration < without.mean_job_duration


def test_dag_jobs_complete():
    job = make_chain_job(0, 0.0, [[1.0] * 6, [1.0] * 3], [5.0, 0.0])
    sim, result = _simulate(Trace(jobs=[job]), workers=12)
    assert result.num_jobs == 1


def test_refusals_record_guideline_decisions():
    trace = _trace(num_jobs=15, interarrival=0.2)
    sim, result = _simulate(
        trace,
        workers=15,  # scarce: force contention
        config=_config(refusal_threshold=2),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.guideline2_decisions + result.guideline3_decisions >= 0
    assert result.num_jobs == 15


def test_fifo_policy_is_sparrow_like():
    # FIFO worker policy must also drain everything.
    trace = _trace(num_jobs=10, interarrival=0.2)
    sim, result = _simulate(
        trace,
        workers=10,
        config=_config(worker_policy=WorkerPolicy.FIFO, probe_ratio=2.0),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.num_jobs == 10


def test_results_reproducible():
    trace = _trace(num_jobs=10)

    def run_once():
        _, result = _simulate(
            trace,
            workers=25,
            straggler=ParetoRedrawStragglerModel(beta=1.4),
            seed=3,
        )
        return sorted((r.job_id, r.duration) for r in result.jobs)

    assert run_once() == run_once()


def test_zero_message_delay_supported():
    trace = _trace(num_jobs=8)
    sim, result = _simulate(trace, workers=20, config=_config(message_delay=0.0))
    assert result.num_jobs == 8


def test_multi_slot_workers():
    job = make_single_phase_job(0, 0.0, [1.0] * 8)
    sim = DecentralizedSimulator(
        num_workers=4,
        slots_per_worker=2,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[job]),
        straggler_model=NoStragglerModel(),
        config=_config(),
        random_source=RandomSource(seed=1),
    )
    result = sim.run(until=10_000)
    assert result.num_jobs == 1
    assert sim.total_slots == 8


def test_srpt_worker_policy_prioritizes_small_jobs():
    small = make_single_phase_job(0, 0.0, [1.0] * 2, task_id_start=0)
    big = make_single_phase_job(1, 0.0, [1.0] * 30, task_id_start=100)
    trace = Trace(jobs=[big, small])
    sim, result = _simulate(
        trace,
        workers=8,
        config=_config(worker_policy=WorkerPolicy.SRPT, probe_ratio=2.0),
    )
    durations = {r.job_id: r.duration for r in result.jobs}
    assert durations[0] < durations[1]


# -- on-demand workers ---------------------------------------------------------

#: A small contended replay (60 slots, 20 jobs at 80% load) for the pins
#: and the membership tests below.
_PINNED = dict(
    profile="spark-facebook",
    num_jobs=20,
    utilization=0.8,
    total_slots=60,
    max_phase_tasks=30,
)
_CHURN = dict(
    straggler_model="machine-correlated",
    strike_threshold=1,
    blacklist_policy="strikes",
)


def _pinned_params():
    from repro.sweep import WorkloadParams

    return WorkloadParams(**_PINNED)


@pytest.mark.parametrize(
    "system,knobs,digest",
    [
        # power_of_d=2: candidates sorted by len(queue) + busy_slots.
        (
            "sparrow-po2",
            {},
            "51a744937e072231a6ed875f286faa8ac6805556a7bf5a6329d7de40a30680c6",
        ),
        # Late binding: reserve, then pull the task.
        (
            "sparrow-lb",
            {},
            "e1c3a2cecc1e5241502674885647add9a05af4c2949a933472d32e0b07d6428c",
        ),
        # The id pool after an eviction, a reinstatement and both resizes.
        (
            "sparrow-po2",
            dict(
                _CHURN,
                strike_threshold=2,
                blacklist_policy="strikes-probation",
                autoscaler="schedule",
                resize_schedule="5:-10,20:+12",
            ),
            "27b4bcb8139c2070bb70d230b1aa166a8981173d62c97bfaa3bb9552433a0ab8",
        ),
        # The reactive autoscaler samples the busy-slot total.
        (
            "hopper",
            dict(_CHURN, autoscaler="reactive", scale_interval=2.0),
            "23fdbf7fa75bb3d9d0f4cedc6898a9f15e2b9435e0bd22d03819801fcbf6165c",
        ),
    ],
)
def test_sampler_paths_are_pinned(system, knobs, digest):
    """Result digests of sampler paths no golden study covers, taken
    with one eager ``Worker`` per slot: creating workers on first probe
    must leave every draw and every result byte-identical."""
    import hashlib

    from repro.metrics.serialize import dumps_result
    from repro.sweep import RunSpec

    result = RunSpec(
        "decentralized",
        system,
        _pinned_params(),
        speculation="late",
        run_seed=5,
        knobs=knobs,
    ).execute()
    assert result.num_jobs == _PINNED["num_jobs"]
    assert hashlib.sha256(dumps_result(result).encode()).hexdigest() == digest


def _created(sim):
    return [w for w in sim.workers if w is not None]


def test_million_slot_build_creates_no_workers():
    job = make_single_phase_job(0, 0.0, [1.0] * 4)
    sim = DecentralizedSimulator(
        num_workers=1_000_000,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[job]),
        straggler_model=NoStragglerModel(),
        config=_config(),
    )
    assert len(sim.workers) == 1_000_000
    assert _created(sim) == []
    assert sim.total_slots == 1_000_000


def test_run_creates_only_probed_workers():
    trace = _trace(num_jobs=6, max_tasks=10)
    sim = DecentralizedSimulator(
        num_workers=5000,
        speculation=lambda: LATE(),
        trace=trace,
        straggler_model=ParetoRedrawStragglerModel(beta=1.4),
        config=_config(),
        random_source=RandomSource(seed=7),
    )
    sampled = []
    sample = sim.sample_workers

    def spying_sample(count):
        workers = sample(count)
        sampled.extend(w.worker_id for w in workers)
        return workers

    sim.sample_workers = spying_sample
    result = sim.run()
    assert result.num_jobs == 6
    created = _created(sim)
    assert 0 < len(created) <= len(sampled) < 5000
    assert {w.worker_id for w in created} == set(sampled)


def test_unprobed_workers_evicted_or_retired_stay_out_of_the_pool():
    """Membership changes may touch workers no probe has reached yet:
    they leave the sample pool, no probe ever targets them, and the
    run still finishes every job."""
    from repro.cluster.elastic import ScheduleAutoscaler
    from repro.cluster.policy import StrikeBlacklistPolicy

    trace = _trace(num_jobs=8)
    num_workers = 40
    sim = DecentralizedSimulator(
        num_workers=num_workers,
        speculation=lambda: LATE(),
        trace=trace,
        straggler_model=ParetoRedrawStragglerModel(beta=1.4),
        config=_config(),
        random_source=RandomSource(seed=7),
        # Inert policy: the test evicts by hand.
        blacklist_policy=StrikeBlacklistPolicy(num_workers, strike_threshold=10**6),
        autoscaler=ScheduleAutoscaler([(1e9, 1)]),
    )
    assert _created(sim) == []
    sim._evict_worker(3)
    assert sim._autoscale_remove(5) == 5  # retires ids 39..35
    gone = {3, 35, 36, 37, 38, 39}
    assert gone.isdisjoint(sim._sample_pool)
    assert len(sim._sample_pool) == num_workers - len(gone)
    assert sim.total_slots == num_workers - len(gone)
    assert all(sim.worker(i).evicted for i in gone)

    sampled = set()
    sample = sim.sample_workers

    def spying_sample(count):
        workers = sample(count)
        sampled.update(w.worker_id for w in workers)
        return workers

    sim.sample_workers = spying_sample
    result = sim.run(until=1_000)
    assert result.num_jobs == 8
    assert sampled and gone.isdisjoint(sampled)
    assert all(sim.worker(i).running == [] for i in gone)


def test_busy_slot_total_matches_workers_after_every_event():
    """The simulator's O(1) busy-slot total equals the sum over created
    workers (and over the live pool) after every event, through
    strike evictions and a scheduled shrink and grow."""
    from repro.cluster.elastic import ScheduleAutoscaler
    from repro.experiments.harness import build_simulator, build_trace

    spec = _pinned_params().to_workload_spec()
    sim = build_simulator(
        "hopper",
        build_trace(spec),
        spec,
        plane="decentralized",
        run_seed=5,
        autoscaler=ScheduleAutoscaler([(5.0, -10), (20.0, 12)]),
        **_CHURN,
    )

    def check():
        by_worker = sum(w.busy_slots for w in _created(sim))
        assert sim.busy_slots == by_worker
        live = [sim.workers[i] for i in sim._sample_pool]
        assert by_worker == sum(w.busy_slots for w in live if w is not None)

    sim.run(until=0.0)  # schedules the arrivals; no copy binds at t=0
    check()
    events = 0
    busy_seen = 0
    while sim.sim.peek_next_time() is not None:
        sim.sim.run(max_events=1)
        check()
        events += 1
        busy_seen = max(busy_seen, sim.busy_slots)
    result = sim.metrics.result
    assert result.num_jobs == _PINNED["num_jobs"]
    assert result.evictions > 0
    assert len(sim.workers) == _PINNED["total_slots"] + 12
    assert events > 100 and busy_seen > 0
    assert sim.busy_slots == 0
