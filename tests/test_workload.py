"""Tests for tasks, phases, jobs, DAGs and pipelining.

Workload objects are immutable; a run's progress over them lives in a
:class:`JobExecutionView`, so the progress tests drive one.
"""

from dataclasses import replace

import pytest

from repro.cluster.datastore import DataStore
from repro.runtime import LocalityJobRuntime
from repro.speculation.base import JobExecutionView
from repro.workload.job import Job, make_chain_job, make_single_phase_job
from repro.workload.phase import Phase
from repro.workload.task import Task


def _task(task_id=0, job_id=0, phase=0, size=1.0, prefs=()):
    return Task(
        task_id=task_id,
        job_id=job_id,
        phase_index=phase,
        size=size,
        preferred_machines=tuple(prefs),
    )


# -- Task ---------------------------------------------------------------------

def test_task_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        _task(size=0.0)


def _job_of(tasks, **phase_kwargs):
    phase = Phase(index=0, tasks=tasks, **phase_kwargs)
    return Job(job_id=0, arrival_time=0.0, phases=[phase])


def test_task_initial_state():
    task = _task()
    view = JobExecutionView(job=_job_of([task]))
    assert task.task_id not in view.finished
    assert view.remaining_tasks() == 1


def test_task_prefers_any_machine_without_placement():
    task = _task()
    runtime = LocalityJobRuntime(_job_of([task]))
    assert runtime.prefers(task, 0) and runtime.prefers(task, 99)


def test_task_prefers_only_replica_holders():
    task = _task(prefs=(1, 2))
    runtime = LocalityJobRuntime(_job_of([task]))
    assert runtime.prefers(task, 1)
    assert not runtime.prefers(task, 3)
    # With a DataStore, its placement is the one preference source.
    store = DataStore(num_machines=10)
    placed = _task(task_id=1)
    job = _job_of([placed])
    store.place_job_inputs(job)
    runtime = LocalityJobRuntime(job, datastore=store)
    replicas = store.local_machines(placed)
    assert len(replicas) == 3 and placed.preferred_machines == ()
    other = next(m for m in range(10) if m not in replicas)
    assert runtime.prefers(placed, replicas[0])
    assert not runtime.prefers(placed, other)


def test_task_reset_runtime_state():
    """Replaying from a clean slate needs no reset: a new run's view
    over the same task starts with nothing finished."""
    task = _task()
    job = _job_of([task])
    first = JobExecutionView(job=job)
    first.mark_finished(task)
    second = JobExecutionView(job=job)
    assert task.task_id not in second.finished
    assert not second.is_complete


# -- Phase ---------------------------------------------------------------------

def test_phase_requires_tasks():
    with pytest.raises(ValueError):
        Phase(index=0, tasks=[])


def test_phase_progress_counters():
    job = _job_of([_task(i) for i in range(4)])
    phase = job.phases[0]
    view = JobExecutionView(job=job)
    assert view.remaining_tasks() == 4
    view.mark_finished(phase.tasks[0])
    assert view.finished == {0}
    assert view.remaining_tasks() == 3
    assert view.phase_remaining_fraction(phase) == pytest.approx(0.75)
    assert not view.phase_is_complete(phase)


def test_phase_overfinish_raises():
    job = _job_of([_task(0)])
    view = JobExecutionView(job=job)
    view.mark_finished(job.phases[0].tasks[0])
    with pytest.raises(RuntimeError):
        view.mark_finished(job.phases[0].tasks[0])


def test_phase_remaining_work_tracks_sizes():
    tasks = [_task(i, size=float(i + 1)) for i in range(3)]  # 1+2+3 = 6
    job = _job_of(tasks)
    view = JobExecutionView(job=job)
    assert job.phases[0].total_work == pytest.approx(6.0)
    assert view.phase_remaining_work(job.phases[0]) == pytest.approx(6.0)
    view.mark_finished(tasks[1])
    assert view.phase_remaining_work(job.phases[0]) == pytest.approx(4.0)


def test_phase_mean_task_size():
    tasks = [_task(0, size=1.0), _task(1, size=3.0)]
    phase = Phase(index=0, tasks=tasks)
    assert phase.mean_task_size == pytest.approx(2.0)


def test_phase_scaled_is_a_new_phase_with_one_product_total():
    tasks = [_task(i, size=0.1 * (i + 1)) for i in range(3)]
    phase = Phase(index=0, tasks=tasks, output_data=4.0)
    scaled = phase.scaled(3.0)
    assert scaled.total_work == phase.total_work * 3.0
    assert [t.size for t in scaled.tasks] == [t.size * 3.0 for t in tasks]
    assert scaled.output_data == 12.0
    assert [t.size for t in phase.tasks] == [0.1, 0.2, 0.1 * 3]
    with pytest.raises(ValueError):
        phase.scaled(0.0)


def test_phase_total_work_is_derived_not_passed():
    tasks = [_task(i, size=float(i + 1)) for i in range(3)]
    phase = Phase(index=0, tasks=tasks)
    with pytest.raises(TypeError):
        Phase(index=0, tasks=tasks, total_work=1.0)
    # ``replace`` recomputes the total from the new tasks.
    fewer = replace(phase, tasks=tasks[:1])
    assert fewer.total_work == 1.0


def test_phase_remaining_output_data():
    job = _job_of([_task(i) for i in range(4)], output_data=8.0)
    phase = job.phases[0]
    view = JobExecutionView(job=job)
    assert view.remaining_output_data(phase) == pytest.approx(8.0)
    view.mark_finished(phase.tasks[0])
    assert view.remaining_output_data(phase) == pytest.approx(6.0)


def test_phase_reset():
    """A fresh view is the reset: another run's progress never leaks."""
    job = _job_of([_task(0, size=2.0)])
    phase = job.phases[0]
    JobExecutionView(job=job).mark_finished(phase.tasks[0])
    view = JobExecutionView(job=job)
    assert view.remaining_tasks() == 1
    assert view.phase_remaining_work(phase) == pytest.approx(2.0)
    assert not view.finished


def test_phase_validates_slowstart():
    with pytest.raises(ValueError):
        Phase(index=0, tasks=[_task(0)], slowstart=1.5)


# -- Job -----------------------------------------------------------------------

def test_single_phase_job_constructor():
    job = make_single_phase_job(1, 0.0, [1.0, 2.0, 3.0])
    assert job.num_tasks == 3
    assert job.dag_length == 1
    view = JobExecutionView(job=job)
    assert view.remaining_tasks() == 3
    assert view.runnable_phases() == [job.phases[0]]


def test_chain_job_constructor_and_dag_length():
    job = make_chain_job(2, 0.0, [[1.0] * 4, [1.0] * 2], [10.0, 0.0])
    assert job.num_phases == 2
    assert job.dag_length == 2
    assert job.phase(1).parents == (0,)
    assert job.phase(0).output_data == 10.0


def test_job_requires_topological_order():
    p0 = Phase(index=0, tasks=[_task(0, phase=0)], parents=(1,))
    p1 = Phase(index=1, tasks=[_task(1, phase=1)])
    with pytest.raises(ValueError):
        Job(job_id=0, arrival_time=0.0, phases=[p0, p1])


def test_job_rejects_duplicate_phase_indices():
    p0 = Phase(index=0, tasks=[_task(0)])
    p1 = Phase(index=0, tasks=[_task(1)])
    with pytest.raises(ValueError):
        Job(job_id=0, arrival_time=0.0, phases=[p0, p1])


def test_pipelining_gates_downstream_phase():
    job = make_chain_job(0, 0.0, [[1.0] * 10, [1.0] * 2], slowstart=0.3)
    downstream = job.phase(1)
    view = JobExecutionView(job=job)
    assert not view.phase_is_runnable(downstream)
    for task in job.phase(0).tasks[:3]:  # 30% of upstream
        view.mark_finished(task)
    assert view.phase_is_runnable(downstream)


def test_runnable_tasks_excludes_gated_phase():
    job = make_chain_job(0, 0.0, [[1.0] * 4, [1.0] * 2], slowstart=0.5)
    view = JobExecutionView(job=job)

    def runnable_tasks():
        return [
            t
            for p in view.runnable_phases()
            for t in p.tasks
            if t.task_id not in view.finished
        ]

    assert len(runnable_tasks()) == 4
    assert view.runnable_phases() == [job.phase(0)]
    for task in job.phase(0).tasks[:2]:
        view.mark_finished(task)
    # 2 left upstream + 2 downstream, all unfinished
    assert len(runnable_tasks()) == 4
    assert view.runnable_phases() == list(job.phases)


def test_job_completion_flags():
    job = make_single_phase_job(0, 0.0, [1.0])
    view = JobExecutionView(job=job)
    assert not view.is_complete
    view.mark_finished(job.phases[0].tasks[0])
    assert view.is_complete
    assert view.remaining_tasks() == 0


def test_downstream_virtual_tasks():
    job = make_chain_job(0, 0.0, [[2.0] * 4, [1.0]], [8.0, 0.0])
    # front mean task size 2, comm 8 -> 4 task-equivalents
    view = JobExecutionView(job=job)
    assert view.downstream_virtual_tasks() == pytest.approx(4.0)
    assert view.downstream_virtual_tasks(network_rate=2.0) == pytest.approx(2.0)


def test_job_reset_runtime_state():
    """A new run starts from a new view; the job carries no progress."""
    job = make_single_phase_job(0, 0.0, [1.0, 1.0])
    replayed = JobExecutionView(job=job)
    replayed.mark_finished(job.phases[0].tasks[0])
    view = JobExecutionView(job=job)
    assert not view.finished
    assert view.remaining_tasks() == 2


def test_dag_length_bushy():
    phases = [
        Phase(index=0, tasks=[_task(0, phase=0)]),
        Phase(index=1, tasks=[_task(1, phase=1)]),
        Phase(index=2, tasks=[_task(2, phase=2)], parents=(0, 1)),
    ]
    job = Job(job_id=0, arrival_time=0.0, phases=phases)
    assert job.dag_length == 2
    assert job.downstream_of(job.phase(0)) == [job.phase(2)]
