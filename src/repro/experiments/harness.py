"""Shared experiment plumbing: trace construction and simulator builders.

Every figure experiment reduces to: build a trace at a target utilization,
replay it under two or more systems, and compare matched job records.
There is one way to do the replay: :func:`build_simulator` (or
:func:`run_simulator`, which also runs it) resolves a system name to its
plane and forwards the keywords to that plane's builder. The builders
own the (many) constructor arguments, each declared once, so figure
code and ``RunSpec`` executors stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro import registry
from repro.batch.simulator import BatchSimulator
from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.policies import CentralizedPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.cluster.datastore import DataStore
from repro.cluster.elastic import AutoscalerPolicy
from repro.cluster.policy import BlacklistPolicy
from repro.decentralized.config import DecentralizedConfig
from repro.decentralized.simulator import DecentralizedSimulator
from repro.metrics.collector import SimulationResult
from repro.obs import obs_from_env
from repro.simulation.rng import RandomSource
from repro.speculation import make_speculation_policy
from repro.speculation.base import SpeculationPolicy
from repro.stragglers.model import ParetoRedrawStragglerModel, StragglerModel
from repro.workload.generator import (
    FACEBOOK_PROFILE,
    TraceGenerator,
    WorkloadProfile,
)
from repro.workload.traces import Trace


@dataclass
class WorkloadSpec:
    """Declarative description of an experiment workload."""

    profile: WorkloadProfile = field(default_factory=lambda: FACEBOOK_PROFILE)
    num_jobs: int = 150
    utilization: float = 0.6
    total_slots: int = 400
    seed: int = 42
    max_phase_tasks: Optional[int] = 300
    locality_machines: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if not 0.0 < self.utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        if self.total_slots <= 0:
            raise ValueError("total_slots must be positive")


def build_trace(spec: WorkloadSpec) -> Trace:
    """Generate a trace and rescale it to the spec's offered utilization."""
    source = RandomSource(seed=spec.seed)
    generator = TraceGenerator(
        spec.profile,
        random_source=source,
        num_machines=spec.locality_machines,
        max_phase_tasks=spec.max_phase_tasks,
    )
    jobs = generator.generate(num_jobs=spec.num_jobs, interarrival_mean=1.0)
    trace = Trace(jobs=jobs)
    return trace.rescaled_to_utilization(spec.total_slots, spec.utilization)


def default_straggler_model(profile: WorkloadProfile) -> StragglerModel:
    """The paper-faithful i.i.d. Pareto redraw model for this profile."""
    return ParetoRedrawStragglerModel(
        beta=profile.beta, scale=profile.task_scale
    )


def _centralized_system(
    name: str, epsilon: float, systems: registry.Registry
) -> tuple[CentralizedPolicy, SpeculationMode]:
    """Resolve a centralized-family scheduler in ``systems``
    (``CENTRALIZED_SYSTEMS`` or ``BATCH_SYSTEMS``): the policy plus its
    registered default speculation mode.

    Plain-callable registrations (no
    :class:`~repro.registry.CentralizedSystemDefaults` wrapper) default
    to BEST_EFFORT, the mode every non-Hopper baseline runs under.
    """
    entry = systems.get(name.lower())
    mode_name = getattr(entry.factory, "speculation_mode", None)
    mode = (
        SpeculationMode(mode_name)
        if mode_name is not None
        else SpeculationMode.BEST_EFFORT
    )
    return entry.factory(epsilon=epsilon), mode


def _resolve_straggler_model(
    straggler_model: Union[StragglerModel, str, None],
    profile: WorkloadProfile,
    num_machines: Optional[int] = None,
) -> StragglerModel:
    """Accept a model instance, a registry name, or None (paper default).

    ``num_machines`` is the run's cluster size; machine-correlated models
    require it (the builders below pass it automatically).
    """
    if straggler_model is None:
        return default_straggler_model(profile)
    if isinstance(straggler_model, str):
        return registry.make_straggler_model(
            straggler_model, profile, num_machines=num_machines
        )
    return straggler_model


def _by_name(value, make, **knobs):
    """Build ``value`` with the registry factory ``make`` when it is a
    name, passing only the knobs the caller set (omitted ones keep the
    policy's own defaults). Instances and None pass through; the name
    ``"none"`` resolves through the registry to None, so a run that
    spells the default explicitly builds the exact same simulator."""
    if not isinstance(value, str):
        return value
    return make(value, **{k: v for k, v in knobs.items() if v is not None})


#: Sentinel: "the caller did not choose" — consult ``REPRO_OBS``. An
#: explicit ``obs=None`` forces observability off regardless of env.
_OBS_FROM_ENV = object()


def _plane_kwargs(
    trace: Trace,
    spec: WorkloadSpec,
    num_machines: int,
    speculation: Union[str, Callable[[], SpeculationPolicy]] = "late",
    straggler_model: Union[StragglerModel, str, None] = None,
    run_seed: int = 7,
    blacklist_policy: Union[BlacklistPolicy, str, None] = None,
    strike_threshold: Optional[int] = None,
    strike_window: Optional[float] = None,
    eviction_cap: Optional[float] = None,
    autoscaler: Union[AutoscalerPolicy, str, None] = None,
    resize_schedule: Optional[str] = None,
    scale_interval: Optional[float] = None,
    scale_up_threshold: Optional[float] = None,
    scale_down_threshold: Optional[float] = None,
    scale_step: Optional[int] = None,
    min_machines: Optional[int] = None,
    obs=_OBS_FROM_ENV,
) -> dict:
    """Constructor kwargs every plane shares.

    The trace is passed as is: it is immutable, so the same object can
    be replayed under several systems. ``speculation`` is a registered
    policy name or a zero-argument factory returning a fresh policy per
    job. String-valued ``straggler_model`` / ``blacklist_policy`` /
    ``autoscaler`` resolve through :mod:`repro.registry` with the run's
    ``num_machines`` wired in. With
    a blacklist policy the simulator evicts struck machines mid-run (see
    :mod:`repro.cluster.policy`); with an autoscaler it resizes the
    cluster mid-run (see :mod:`repro.cluster.elastic`).
    """
    return dict(
        speculation=(
            (lambda: make_speculation_policy(speculation))
            if isinstance(speculation, str)
            else speculation
        ),
        trace=trace,
        straggler_model=_resolve_straggler_model(
            straggler_model, spec.profile, num_machines=num_machines
        ),
        random_source=RandomSource(seed=run_seed),
        blacklist_policy=_by_name(
            blacklist_policy,
            registry.make_blacklist_policy,
            num_machines=num_machines,
            strike_threshold=strike_threshold,
            strike_window=strike_window,
            eviction_cap=eviction_cap,
        ),
        autoscaler=_by_name(
            autoscaler,
            registry.make_autoscaler,
            resize_schedule=resize_schedule,
            scale_interval=scale_interval,
            scale_up_threshold=scale_up_threshold,
            scale_down_threshold=scale_down_threshold,
            scale_step=scale_step,
            min_machines=min_machines,
        ),
        obs=obs_from_env() if obs is _OBS_FROM_ENV else obs,
    )


def _centralized_family_kwargs(
    trace: Trace,
    policy: str,
    spec: WorkloadSpec,
    systems: registry.Registry,
    epsilon: float = 0.1,
    locality_k_percent: float = 3.0,
    speculation_mode: Union[SpeculationMode, str, None] = None,
    with_locality: bool = False,
    slots_per_machine: int = 4,
    config: Optional[CentralizedConfig] = None,
    **shared,
) -> dict:
    """Constructor kwargs shared by the centralized and batch planes.

    Both planes build the exact same cluster, config, and seed
    hierarchy — the batch plane only adds *when* dispatch happens, so
    keeping construction common here guarantees the entropy streams
    stay aligned between them. ``policy`` resolves through ``systems``,
    whose entry carries the default speculation mode (BEST_EFFORT for
    the baselines, INTEGRATED for Hopper); ``speculation_mode`` overrides
    it, as an enum or its value string. ``shared`` is every keyword of
    :func:`_plane_kwargs`.
    """
    policy_obj, default_mode = _centralized_system(policy, epsilon, systems)
    if speculation_mode is None:
        speculation_mode = default_mode
    num_machines = max(1, spec.total_slots // slots_per_machine)
    cluster = Cluster(
        num_machines=num_machines, slots_per_machine=slots_per_machine
    )
    datastore = None
    if with_locality:
        datastore = DataStore(
            num_machines=num_machines,
            random_source=RandomSource(seed=spec.seed + 1),
        )
    if config is None:
        config = CentralizedConfig(
            epsilon=epsilon,
            locality_k_percent=locality_k_percent,
            speculation_mode=SpeculationMode(speculation_mode),
            default_beta=spec.profile.beta,
        )
    return dict(
        cluster=cluster,
        policy=policy_obj,
        config=config,
        datastore=datastore,
        **_plane_kwargs(trace, spec, num_machines, **shared),
    )


def build_centralized_simulator(
    trace: Trace, policy: str, spec: WorkloadSpec, **knobs
) -> CentralizedSimulator:
    """Construct (without running) a centralized simulator for ``trace``.

    ``policy`` names an entry of :data:`repro.registry.CENTRALIZED_SYSTEMS`.
    ``knobs`` are the keywords of :func:`_centralized_family_kwargs` and
    :func:`_plane_kwargs`. The serving driver builds through here too,
    then primes the engine before calling ``run()``.
    """
    return CentralizedSimulator(
        **_centralized_family_kwargs(
            trace, policy, spec, registry.CENTRALIZED_SYSTEMS, **knobs
        )
    )


def build_batch_simulator(
    trace: Trace,
    policy: str,
    spec: WorkloadSpec,
    round_interval: float = 0.5,
    **knobs,
) -> BatchSimulator:
    """Construct (without running) a batch-plane simulator for ``trace``.

    Same keywords as :func:`build_centralized_simulator` plus
    ``round_interval``, the period of the recurring scheduling round.
    ``policy`` names an entry of :data:`repro.registry.BATCH_SYSTEMS`.
    Autoscaler resizes land between rounds: the controller requests a
    dispatch, and the batch plane coalesces that into its next round.
    """
    return BatchSimulator(
        round_interval=round_interval,
        **_centralized_family_kwargs(
            trace, policy, spec, registry.BATCH_SYSTEMS, **knobs
        ),
    )


def build_decentralized_simulator(
    trace: Trace,
    system: str,
    spec: WorkloadSpec,
    probe_ratio: Optional[float] = None,
    epsilon: Optional[float] = None,
    refusal_threshold: int = 2,
    num_schedulers: int = 10,
    power_of_d: Optional[int] = None,
    config: Optional[DecentralizedConfig] = None,
    **shared,
) -> DecentralizedSimulator:
    """Construct (without running) a decentralized simulator for ``trace``.

    ``system`` names an entry of
    :data:`repro.registry.DECENTRALIZED_SYSTEMS`; each entry carries the
    paper's default probe ratio (2 for the baselines, 4 for Hopper) and
    fairness setting, overridable per experiment. Every worker is one
    machine, so blacklist and autoscaler policies act on workers.
    ``shared`` is every keyword of :func:`_plane_kwargs`. The serving
    driver builds through here too, then primes the engine before
    ``run()``.
    """
    defaults = registry.DECENTRALIZED_SYSTEMS.get(system).factory()
    if config is None:
        config = DecentralizedConfig(
            worker_policy=defaults.worker_policy,
            probe_ratio=(
                probe_ratio if probe_ratio is not None else defaults.probe_ratio
            ),
            epsilon=epsilon if epsilon is not None else defaults.epsilon,
            refusal_threshold=refusal_threshold,
            num_schedulers=num_schedulers,
            default_beta=spec.profile.beta,
            # getattr: custom registrations may hand back bare objects
            # without the late-binding/power-of-d fields.
            late_binding=getattr(defaults, "late_binding", False),
            power_of_d=(
                power_of_d
                if power_of_d is not None
                else getattr(defaults, "power_of_d", 1)
            ),
        )
    return DecentralizedSimulator(
        num_workers=spec.total_slots,
        config=config,
        name=system,
        **_plane_kwargs(trace, spec, spec.total_slots, **shared),
    )


# --------------------------------------------------------------------------
# The plane-agnostic surface
# --------------------------------------------------------------------------

#: plane name -> the per-plane builder it dispatches to. Planes without
#: a direct simulator (serving wraps a plane; single_job synthesizes its
#: own trace) are deliberately absent.
_PLANE_BUILDERS = {
    "centralized": build_centralized_simulator,
    "decentralized": build_decentralized_simulator,
    "batch": build_batch_simulator,
}


def build_simulator(
    system: str,
    trace: Trace,
    spec: WorkloadSpec,
    plane: Optional[str] = None,
    **knobs,
):
    """Construct a simulator for any plane, resolved by system name.

    ``system`` resolves through the plane-tagged
    :data:`repro.registry.SYSTEMS` table: pass a qualified name like
    ``"batch/hopper"``, or a bare name plus ``plane=``, or a bare name
    alone when it is registered on exactly one plane. Remaining
    ``knobs`` go to the plane's builder
    (:func:`build_centralized_simulator`,
    :func:`build_decentralized_simulator`, or
    :func:`build_batch_simulator`).
    """
    entry = registry.SYSTEMS.get(system, plane=plane)
    try:
        builder = _PLANE_BUILDERS[entry.plane]
    except KeyError:
        raise ValueError(
            f"plane {entry.plane!r} has no direct simulator builder "
            f"(valid planes: {', '.join(_PLANE_BUILDERS)}); serving "
            f"runs go through repro.serving.driver.run_serving"
        ) from None
    return builder(trace, entry.name, spec, **knobs)


def run_simulator(
    system: str,
    trace: Trace,
    spec: WorkloadSpec,
    until: Optional[float] = None,
    plane: Optional[str] = None,
    **knobs,
) -> SimulationResult:
    """Build and run a simulator for any plane (see
    :func:`build_simulator`). ``until=`` bounds the virtual horizon on
    every plane alike."""
    simulator = build_simulator(system, trace, spec, plane=plane, **knobs)
    return simulator.run(until=until)
