"""Tests for the LATE / Mantri / GRASS speculation algorithms."""

import pytest

from repro.speculation import (
    GRASS,
    LATE,
    Mantri,
    NoSpeculation,
    make_speculation_policy,
)
from repro.speculation.base import JobExecutionView
from repro.stragglers.progress import TaskCopy
from repro.workload.job import make_single_phase_job


def _view(num_tasks=4, sizes=None):
    sizes = sizes or [1.0] * num_tasks
    job = make_single_phase_job(0, 0.0, sizes)
    return JobExecutionView(job=job)


def _run_copy(view, task_index, start, duration, copy_id=None, speculative=False):
    task = view.job.phases[0].tasks[task_index]
    copy = TaskCopy(
        copy_id=copy_id if copy_id is not None else task_index,
        task=task,
        machine_id=0,
        start_time=start,
        duration=duration,
        speculative=speculative,
    )
    view.register_copy(copy)
    return copy


def test_factory():
    assert isinstance(make_speculation_policy("late"), LATE)
    assert isinstance(make_speculation_policy("mantri"), Mantri)
    assert isinstance(make_speculation_policy("grass"), GRASS)
    assert isinstance(make_speculation_policy("none"), NoSpeculation)
    with pytest.raises(ValueError):
        make_speculation_policy("bogus")


def test_no_speculation_never_proposes():
    view = _view()
    _run_copy(view, 0, 0.0, 100.0)
    assert NoSpeculation().speculation_candidates(view, 50.0) == []
    assert NoSpeculation().max_copies_per_task() == 1


def test_view_register_and_remove():
    view = _view()
    copy = _run_copy(view, 0, 0.0, 5.0)
    assert view.attempts(copy.task) == 1
    assert view.copies_of(copy.task) == [copy]
    view.remove_copy(copy)
    assert view.copies_of(copy.task) == []
    assert view.attempts(copy.task) == 1  # attempts are cumulative


def test_view_estimate_tnew_uses_median():
    view = _view()
    view.completed_durations.extend([1.0, 2.0, 9.0])
    task = view.job.phases[0].tasks[0]
    assert view.estimate_new_copy_duration(task) == 2.0


def test_view_estimate_tnew_falls_back_to_size():
    view = _view(sizes=[3.0, 1.0, 1.0, 1.0])
    task = view.job.phases[0].tasks[0]
    assert view.estimate_new_copy_duration(task) == 3.0


def test_late_speculates_clear_straggler():
    late = LATE(detect_after=1.0, speculative_cap_fraction=1.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)  # the straggler
    for i in (1, 2, 3):
        _run_copy(view, i, 0.0, 1.0)
    view.completed_durations.extend([1.0, 1.0])
    candidates = late.speculation_candidates(view, 2.0)
    assert [c.task.task_id for c in candidates] == [0]
    assert candidates[0].expected_benefit > 0


def test_late_waits_for_detection_window():
    late = LATE(detect_after=5.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)
    view.completed_durations.append(1.0)
    assert late.speculation_candidates(view, 2.0) == []


def test_late_skips_tasks_already_racing():
    late = LATE(detect_after=0.5, speculative_cap_fraction=1.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0, copy_id=0)
    _run_copy(view, 0, 1.0, 30.0, copy_id=10, speculative=True)
    view.completed_durations.append(1.0)
    assert late.speculation_candidates(view, 5.0) == []


def test_late_does_not_speculate_when_new_copy_cannot_win():
    late = LATE(detect_after=0.5, speculative_cap_fraction=1.0)
    view = _view()
    copy = _run_copy(view, 0, 0.0, 3.0)
    view.completed_durations.extend([2.9, 2.9, 2.9])
    # trem at t=2.5 is 0.5 < tnew 2.9: no point racing
    assert late.speculation_candidates(view, 2.5) == []


def test_late_cap_limits_concurrent_speculation():
    late = LATE(detect_after=0.5, speculative_cap_fraction=0.25)
    view = _view(num_tasks=8)
    for i in range(8):
        _run_copy(view, i, 0.0, 30.0)
    view.completed_durations.extend([1.0] * 4)
    candidates = late.speculation_candidates(view, 2.0)
    assert len(candidates) <= max(1, int(0.25 * 8))


def test_late_orders_by_benefit():
    late = LATE(detect_after=0.5, speculative_cap_fraction=1.0, slow_task_pct=1.0)
    view = _view()
    _run_copy(view, 0, 0.0, 20.0)
    _run_copy(view, 1, 0.0, 50.0)
    _run_copy(view, 2, 0.0, 1.2)
    _run_copy(view, 3, 0.0, 1.2)
    view.completed_durations.extend([1.0, 1.0])
    candidates = late.speculation_candidates(view, 2.0)
    benefits = [c.expected_benefit for c in candidates]
    assert benefits == sorted(benefits, reverse=True)
    assert candidates[0].task.task_id == 1


def test_late_validation():
    with pytest.raises(ValueError):
        LATE(detect_after=-1.0)
    with pytest.raises(ValueError):
        LATE(slow_task_pct=0.0)
    with pytest.raises(ValueError):
        LATE(speculative_cap_fraction=2.0)


def test_mantri_requires_resource_savings():
    mantri = Mantri(detect_after=0.5, resource_saving_factor=2.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)
    view.completed_durations.extend([10.0])
    # trem at t=2 is 28 > 2*10: speculate
    assert len(mantri.speculation_candidates(view, 2.0)) == 1
    # moderately slow task: trem 15 < 2*10: do not
    view2 = _view()
    _run_copy(view2, 0, 0.0, 17.0)
    view2.completed_durations.extend([10.0])
    assert mantri.speculation_candidates(view2, 2.0) == []


def test_mantri_early_detection():
    mantri = Mantri(detect_after=0.25)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)
    view.completed_durations.append(1.0)
    assert len(mantri.speculation_candidates(view, 0.5)) == 1


def test_mantri_validation():
    with pytest.raises(ValueError):
        Mantri(resource_saving_factor=0.5)
    with pytest.raises(ValueError):
        Mantri(max_simultaneous_copies=1)


def test_grass_is_conservative_early_aggressive_late():
    grass = GRASS(detect_after=0.5, switch_fraction=0.25, ra_factor=2.0)
    # Early phase: 4/4 tasks remaining -> RA mode, needs trem > 2*tnew.
    view = _view()
    _run_copy(view, 0, 0.0, 15.0)
    view.completed_durations.append(10.0)
    assert grass.speculation_candidates(view, 2.0) == []

    # Late phase: finish 3 of 4 tasks -> GS mode, needs only trem > tnew.
    view_late = _view()
    for i in (1, 2, 3):
        view_late.mark_finished(view_late.job.phases[0].tasks[i])
    _run_copy(view_late, 0, 0.0, 15.0)
    view_late.completed_durations.append(10.0)
    assert len(grass.speculation_candidates(view_late, 2.0)) == 1


def test_grass_validation():
    with pytest.raises(ValueError):
        GRASS(switch_fraction=0.0)
    with pytest.raises(ValueError):
        GRASS(ra_factor=0.5)


def test_policies_never_duplicate_finished_tasks():
    for policy in (LATE(detect_after=0.1), Mantri(), GRASS()):
        view = _view()
        copy = _run_copy(view, 0, 0.0, 30.0)
        view.mark_finished(copy.task)
        view.remove_copy(copy)
        assert policy.speculation_candidates(view, 5.0) == []
