"""Experiment harness: one entry point per paper table/figure.

Each ``figN_*`` function in :mod:`repro.experiments.figures` regenerates
the corresponding figure's rows/series at laptop scale and returns plain
data structures; ``benchmarks/`` wraps them in pytest-benchmark targets
that print paper-vs-measured tables.

A single replay is :func:`build_trace` followed by :func:`run_simulator`
(or :func:`build_simulator` to construct without running), on any plane:

    spec = WorkloadSpec(num_jobs=50, total_slots=200)
    result = run_simulator("hopper", build_trace(spec), spec,
                           plane="decentralized")
"""

from repro.experiments.harness import (
    WorkloadSpec,
    build_simulator,
    build_trace,
    run_simulator,
)
from repro.experiments import figures
from repro.experiments.motivating import (
    MotivatingExampleResult,
    run_motivating_example,
)

__all__ = [
    "WorkloadSpec",
    "build_trace",
    "build_simulator",
    "run_simulator",
    "figures",
    "MotivatingExampleResult",
    "run_motivating_example",
]
