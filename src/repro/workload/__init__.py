"""Workload substrate: tasks, phases, DAG jobs, and trace generators."""

from repro.workload.distributions import (
    BoundedParetoDistribution,
    ConstantDistribution,
    DiscreteDistribution,
    Distribution,
    EmpiricalDistribution,
    ExponentialDistribution,
    LogNormalDistribution,
    ParetoDistribution,
    UniformDistribution,
)
from repro.workload.task import Task
from repro.workload.phase import Phase
from repro.workload.job import Job
from repro.workload.generator import (
    TraceGenerator,
    WorkloadProfile,
    BinnedJobSizeDistribution,
    BING_PROFILE,
    FACEBOOK_PROFILE,
    SPARK_BING_PROFILE,
    SPARK_FACEBOOK_PROFILE,
)
from repro.workload.traces import Trace, arrival_rate_for_utilization

__all__ = [
    "BoundedParetoDistribution",
    "ConstantDistribution",
    "DiscreteDistribution",
    "Distribution",
    "EmpiricalDistribution",
    "ExponentialDistribution",
    "LogNormalDistribution",
    "ParetoDistribution",
    "UniformDistribution",
    "Task",
    "Phase",
    "Job",
    "TraceGenerator",
    "WorkloadProfile",
    "BinnedJobSizeDistribution",
    "FACEBOOK_PROFILE",
    "BING_PROFILE",
    "SPARK_FACEBOOK_PROFILE",
    "SPARK_BING_PROFILE",
    "Trace",
    "arrival_rate_for_utilization",
]
