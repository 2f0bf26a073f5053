"""Tests for online beta fitting and alpha (intermediate data) estimation."""

import random

import pytest

from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator, fit_pareto_shape
from repro.speculation.base import JobExecutionView
from repro.workload.distributions import ParetoDistribution
from repro.workload.job import make_chain_job


def test_fit_pareto_shape_recovers_true_beta():
    rng = random.Random(0)
    dist = ParetoDistribution(shape=1.4, scale=1.0)
    samples = dist.sample_many(rng, 20000)
    estimate = fit_pareto_shape(samples, scale=1.0)
    assert abs(estimate - 1.4) / 1.4 < 0.05


def test_fit_pareto_shape_uses_min_as_default_scale():
    rng = random.Random(1)
    dist = ParetoDistribution(shape=2.0, scale=3.0)
    samples = dist.sample_many(rng, 10000)
    estimate = fit_pareto_shape(samples)
    assert abs(estimate - 2.0) / 2.0 < 0.1


def test_fit_pareto_shape_validation():
    with pytest.raises(ValueError):
        fit_pareto_shape([])
    with pytest.raises(ValueError):
        fit_pareto_shape([1.0], scale=0.0)
    with pytest.raises(ValueError):
        fit_pareto_shape([1.0, 1.0], scale=1.0)  # no tail information


def test_online_estimator_returns_prior_until_warm():
    est = OnlineBetaEstimator(default_beta=1.7, min_samples=10)
    for _ in range(5):
        est.observe(2.0)
    assert est.beta == 1.7


def test_online_estimator_converges():
    # Reproduces the paper's claim that the error drops below ~5% early.
    est = OnlineBetaEstimator(default_beta=1.5, min_samples=20, refresh_every=1)
    rng = random.Random(2)
    dist = ParetoDistribution(shape=1.4, scale=1.0)
    for _ in range(5000):
        est.observe(dist.sample(rng))
    assert est.relative_error(1.4) < 0.05


def test_online_estimator_clamps():
    est = OnlineBetaEstimator(
        min_samples=5, clamp_range=(1.2, 1.8), refresh_every=1
    )
    for v in (1.0, 1.0001, 1.0002, 1.00005, 1.0001, 1.00007):
        est.observe(v)  # nearly constant: raw fit would explode
    assert 1.2 <= est.beta <= 1.8


def test_online_estimator_ignores_nonpositive():
    est = OnlineBetaEstimator()
    est.observe(-1.0)
    est.observe(0.0)
    assert est.num_observations == 0


def test_online_estimator_cache_refresh():
    est = OnlineBetaEstimator(min_samples=5, refresh_every=100)
    rng = random.Random(3)
    dist = ParetoDistribution(shape=1.5)
    for _ in range(50):
        est.observe(dist.sample(rng))
    first = est.beta
    # a handful more observations within refresh window: cached value
    for _ in range(10):
        est.observe(dist.sample(rng))
    assert est.beta == first


def test_online_estimator_validation():
    with pytest.raises(ValueError):
        OnlineBetaEstimator(default_beta=0.0)
    with pytest.raises(ValueError):
        OnlineBetaEstimator(min_samples=1)
    with pytest.raises(ValueError):
        OnlineBetaEstimator(window=5, min_samples=10)
    with pytest.raises(ValueError):
        OnlineBetaEstimator(clamp_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        OnlineBetaEstimator(refresh_every=0)


# -- alpha ----------------------------------------------------------------------

def _recurring_job(job_id, output, name="etl"):
    return make_chain_job(
        job_id=job_id,
        arrival_time=0.0,
        phase_task_sizes=[[1.0] * 10, [1.0] * 4],
        phase_output_data=[output, 0.0],
        name=name,
    )


def test_alpha_estimator_predicts_from_history():
    est = AlphaEstimator()
    for i, output in enumerate((20.0, 22.0, 18.0)):
        est.observe_job(_recurring_job(i, output))
    assert est.predict_phase_output("etl", 0) == pytest.approx(20.0)


def test_alpha_estimator_returns_none_without_history():
    est = AlphaEstimator()
    assert est.predict_phase_output("unknown", 0) is None


def test_alpha_prediction_neutral_without_history():
    est = AlphaEstimator()
    job = _recurring_job(0, 20.0, name="never-seen")
    assert est.predict_alpha(JobExecutionView(job=job)) == 1.0


def test_alpha_prediction_uses_history():
    est = AlphaEstimator()
    for i in range(3):
        est.observe_job(_recurring_job(i, 20.0))
    new_run = _recurring_job(9, 21.0)
    # upstream work 10, predicted downstream comm 20 -> alpha ~ 2
    assert est.predict_alpha(JobExecutionView(job=new_run)) == pytest.approx(2.0)


def test_alpha_accuracy_tracking():
    est = AlphaEstimator()
    est.observe_job(_recurring_job(0, 20.0))
    est.observe_job(_recurring_job(1, 20.0))  # perfect prediction
    assert est.accuracy == pytest.approx(1.0)
    est.observe_job(_recurring_job(2, 40.0))  # 50% error on this one
    assert 0.5 < est.accuracy < 1.0
    assert est.num_predictions_scored == 2


def test_alpha_estimator_ignores_anonymous_jobs():
    est = AlphaEstimator()
    est.observe_phase_output("", 0, 50.0)
    assert est.predict_phase_output("", 0) is None


def test_alpha_estimator_validation():
    with pytest.raises(ValueError):
        AlphaEstimator(network_rate=0.0)
    est = AlphaEstimator()
    with pytest.raises(ValueError):
        est.observe_phase_output("x", 0, -1.0)


def test_alpha_network_rate_scales_prediction():
    est = AlphaEstimator(network_rate=2.0)
    for i in range(2):
        est.observe_job(_recurring_job(i, 20.0))
    assert est.predict_alpha(
        JobExecutionView(job=_recurring_job(5, 20.0))
    ) == pytest.approx(1.0)
