"""Arrival processes and rho calibration for the serving regime.

The *when* of the open-loop stream. Each process generates successive
interarrival gaps from a seeded ``random.Random`` and is registered by
name in :data:`ARRIVAL_PROCESSES`, so new traffic shapes are one
``register()`` call (same extension pattern as every other registry).

All processes are parameterized by their **long-run mean rate** in
arrivals per virtual second, which the calibrator derives from a target
utilization: with mean job work ``E[W]`` (Monte-Carlo estimated by the
trace generator from a dedicated probe RNG stream) and ``S`` slots,

    rho = lambda * E[W] / S    =>    lambda = rho * S / E[W]

so ``rho in [0.7, 0.95]`` maps to heavy-traffic-but-stable offered
load. The heavy-tailed size modifier multiplies whole jobs by Pareto
draws; its mean multiplier feeds back into the calibration so the
*offered* rho stays at the target.
"""

from __future__ import annotations

import math
from dataclasses import replace
from random import Random

from repro.registry import Registry
from repro.workload.generator import TraceGenerator
from repro.workload.job import Job
from repro.workload.traces import arrival_rate_for_utilization

#: Registered arrival-process families; factories are called as
#: ``factory(rate, rng, **kwargs)`` and must return an
#: :class:`ArrivalProcess`.
ARRIVAL_PROCESSES = Registry("arrival process")


class ArrivalProcess:
    """Base class: a seeded stream of interarrival gaps.

    ``rate`` is the long-run mean arrival rate; subclasses may modulate
    the instantaneous rate around it (diurnal sine, MMPP bursts) but
    must preserve the mean so calibration holds.
    """

    def __init__(self, rate: float, rng: Random) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = float(rate)
        self._rng = rng

    def next_interarrival(self, now: float) -> float:
        """Gap to the next arrival, given the current virtual time."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Stationary Poisson stream (the M in M/G/S)."""

    def next_interarrival(self, now: float) -> float:
        return self._rng.expovariate(self.rate)


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal-rate nonhomogeneous Poisson (day/night swing).

    Instantaneous rate ``rate * (1 + amplitude * sin(2 pi t / period))``,
    sampled by thinning against the peak rate: candidate gaps are drawn
    at the peak and accepted with probability ``rate(t) / peak``, the
    standard exact simulation for a bounded-rate NHPP. The long-run mean
    is ``rate`` because the sine integrates to zero over a period.
    """

    def __init__(
        self,
        rate: float,
        rng: Random,
        amplitude: float = 0.6,
        period: float = 120.0,
    ) -> None:
        super().__init__(rate, rng)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if period <= 0:
            raise ValueError("period must be positive")
        self.amplitude = float(amplitude)
        self.period = float(period)

    def rate_at(self, t: float) -> float:
        return self.rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def next_interarrival(self, now: float) -> float:
        peak = self.rate * (1.0 + self.amplitude)
        t = now
        while True:
            t += self._rng.expovariate(peak)
            if self._rng.random() * peak < self.rate_at(t):
                return t - now


class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm / burst).

    The modulating chain alternates exponentially distributed calm and
    burst sojourns; arrivals are Poisson at ``calm_rate`` or
    ``burst_rate = burst_factor * calm_rate``. ``burst_fraction`` is the
    long-run fraction of time spent bursting, and ``calm_rate`` is
    chosen so the overall mean rate equals ``rate``:

        rate = (1 - f) * r_c + f * b * r_c  =>  r_c = rate / (1 - f + f b)

    Simulation uses competing exponentials per step (memorylessness
    makes redrawing the state-switch clock after every arrival exact).
    """

    def __init__(
        self,
        rate: float,
        rng: Random,
        burst_factor: float = 4.0,
        burst_fraction: float = 0.2,
        cycle: float = 50.0,
    ) -> None:
        super().__init__(rate, rng)
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if cycle <= 0:
            raise ValueError("cycle must be positive")
        calm_rate = rate / (1.0 - burst_fraction + burst_fraction * burst_factor)
        self._rates = (calm_rate, calm_rate * burst_factor)
        self._mean_hold = (
            cycle * (1.0 - burst_fraction),
            cycle * burst_fraction,
        )
        self._state = 0  # 0 = calm, 1 = burst

    def next_interarrival(self, now: float) -> float:
        gap = 0.0
        rng = self._rng
        while True:
            state = self._state
            to_switch = rng.expovariate(1.0 / self._mean_hold[state])
            to_arrival = rng.expovariate(self._rates[state])
            if to_arrival <= to_switch:
                return gap + to_arrival
            gap += to_switch
            self._state = 1 - state


ARRIVAL_PROCESSES.register(
    "poisson",
    PoissonArrivals,
    description="stationary Poisson stream at the calibrated rate",
)
ARRIVAL_PROCESSES.register(
    "diurnal",
    DiurnalArrivals,
    description="sinusoidal-rate NHPP (day/night swing), exact thinning",
)
ARRIVAL_PROCESSES.register(
    "bursty",
    BurstyArrivals,
    description="two-state MMPP: calm/burst sojourns, 4x burst rate",
)


def make_arrival_process(
    name: str, rate: float, rng: Random, **kwargs: object
) -> ArrivalProcess:
    """Build a registered arrival process at a long-run mean ``rate``."""
    return ARRIVAL_PROCESSES.get(name).factory(rate, rng, **kwargs)


class HeavyTailSizeModifier:
    """Pareto whole-job size multipliers (heavy-tailed job sizes).

    Each arriving job is scaled by an independent ``paretovariate(shape)``
    draw (support ``[1, inf)``), stretching every task size and phase
    output together — the "one elephant among mice" shape public cluster
    traces show. ``shape`` must exceed 1 so the mean multiplier
    ``shape / (shape - 1)`` is finite and calibration can divide it back
    out of the arrival rate.
    """

    def __init__(self, shape: float, rng: Random) -> None:
        if shape <= 1.0:
            raise ValueError(
                "heavy-tail shape must exceed 1 (finite mean multiplier)"
            )
        self.shape = float(shape)
        self._rng = rng

    @property
    def mean_multiplier(self) -> float:
        return self.shape / (self.shape - 1.0)

    def scale_job(self, job: Job) -> Job:
        """``job`` with one drawn multiplier applied to every phase."""
        multiplier = self._rng.paretovariate(self.shape)
        return replace(job, phases=[p.scaled(multiplier) for p in job.phases])


def estimate_mean_job_work(
    generator: TraceGenerator, samples: int = 200
) -> float:
    """Monte-Carlo mean job work of the generator's profile.

    Thin named wrapper over :meth:`TraceGenerator.mean_job_work`; the
    probe draws from a dedicated child RNG stream, so calling this never
    perturbs the jobs the generator will later produce.
    """
    return generator.mean_job_work(samples=samples)


def calibrate_arrival_rate(
    generator: TraceGenerator,
    total_slots: int,
    rho: float,
    size_multiplier_mean: float = 1.0,
    samples: int = 200,
) -> float:
    """Arrival rate that offers utilization ``rho`` on ``total_slots``.

    ``size_multiplier_mean`` compensates for a
    :class:`HeavyTailSizeModifier` inflating mean job work (pass its
    ``mean_multiplier``); 1.0 means sizes are used as generated.
    """
    if size_multiplier_mean <= 0:
        raise ValueError("size_multiplier_mean must be positive")
    mean_work = estimate_mean_job_work(generator, samples=samples)
    return arrival_rate_for_utilization(
        mean_work * size_multiplier_mean, total_slots, rho
    )
