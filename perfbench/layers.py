"""Outside-in per-layer tracing of one benchmark run.

:meth:`Tracer.install` wraps the public entry points of every ``repro`` layer —
module functions, class methods, the beta-estimator property, and each
callback handed to the engine's ``schedule_at`` / ``schedule_many`` —
from outside ``src/``. Every wrapper pushes a frame on one in-memory
span stack, so a span's self time is its inclusive time minus the
inclusive time of the spans it called. Spans are aggregated per wrapped
function in memory and handed out once, after the run, by
:meth:`Tracer.table`; :func:`per_layer_metrics` reduces them to the
per-layer metrics the benchmark reports.

Which layer owns a span:

* a wrapped function or method belongs to the layer named in the tables
  below (``repro.<package>`` by default);
* an engine callback bound to a simulator instance belongs to that
  instance's plane (a ``BatchSimulator`` runs inherited centralized
  handlers, and their self time is batch time), one bound to an
  instance of another wrapped class to that class's layer, anything
  else to the package that defined the callback.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: (module, function, layer) — module-level functions to wrap. Every
#: module that imported one by name sees the wrapper too.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.harness", "build_trace", "workload"),
    ("repro.experiments.harness", "build_simulator", "harness"),
    ("repro.experiments.harness", "build_centralized_simulator", "harness"),
    ("repro.experiments.harness", "build_decentralized_simulator", "harness"),
    ("repro.experiments.harness", "build_batch_simulator", "harness"),
    ("repro.serving.driver", "run_serving", "serving"),
    ("repro.serving.arrivals", "calibrate_arrival_rate", "serving"),
    ("repro.estimation.beta", "fit_pareto_shape", "estimation.beta"),
    ("repro.core.virtual_size", "virtual_size", "core"),
    ("repro.core.locality", "pick_job_with_locality", "core"),
)

#: (module, class, layer) — wrap every public method the class defines
#: (see :data:`METHODS` for the rest).
CLASSES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workload.traces", "Trace", "workload"),
    ("repro.workload.generator", "TraceGenerator", "workload"),
    ("repro.core.incremental", "IncrementalAllocator", "core"),
    ("repro.centralized.policies", "CentralizedPolicy", "core"),
    ("repro.centralized.policies", "FairPolicy", "core"),
    ("repro.centralized.policies", "SRPTPolicy", "core"),
    ("repro.centralized.policies", "HopperPolicy", "core"),
    ("repro.cluster.cluster", "Cluster", "cluster"),
    ("repro.cluster.index", "ClusterIndex", "cluster"),
    ("repro.runtime.lifecycle", "CopyLedger", "runtime"),
    ("repro.runtime.job", "JobRuntime", "runtime"),
    ("repro.runtime.job", "LocalityJobRuntime", "runtime"),
    ("repro.speculation.base", "JobExecutionView", "speculation"),
    ("repro.speculation.late", "LATE", "speculation"),
    ("repro.estimation.beta", "OnlineBetaEstimator", "estimation.beta"),
    ("repro.estimation.alpha", "AlphaEstimator", "estimation.alpha"),
    ("repro.stragglers.model", "ParetoRedrawStragglerModel", "stragglers"),
    ("repro.stragglers.progress", "TaskCopy", "stragglers"),
    ("repro.metrics.collector", "MetricsCollector", "metrics"),
    ("repro.serving.windows", "WindowedAggregator", "serving.window"),
    ("repro.serving.driver", "OpenLoopDriver", "serving"),
    ("repro.decentralized.simulator", "DecentralizedSimulator",
     "decentralized.plane"),
    ("repro.decentralized.scheduler", "SchedulerAgent",
     "decentralized.scheduler"),
    ("repro.decentralized.scheduler", "SchedulerJob",
     "decentralized.scheduler"),
    ("repro.decentralized.worker", "Worker", "decentralized.worker"),
)

#: (module, class, attribute, layer) — single methods and properties:
#: the batch plane's rounds call the centralized reschedule, so it must
#: be its own span, and ``beta`` is a property.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.centralized.simulator", "CentralizedSimulator", "_reschedule",
     "centralized"),
    ("repro.estimation.beta", "OnlineBetaEstimator", "beta",
     "estimation.beta"),
)

#: Wrapped separately, one span per plane (see ``_install_plane_runs``).
SKIP = {"DecentralizedSimulator.run"}

#: Methods whose layer differs from their class's: the runtime's cached
#: speculation-candidate lookup is the speculation layer's entry point.
LAYER_OVERRIDES = {"JobRuntime.speculation_candidates": "speculation"}

#: Wrapped functions whose per-call host times are kept for quantiles.
SAMPLED = ("IncrementalAllocator.allocate",)

#: Plane simulator classes. An engine callback bound to an instance of
#: one of these (or of a :data:`CLASSES` class) belongs to its layer.
PLANES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.batch.simulator", "BatchSimulator", "batch"),
    ("repro.centralized.simulator", "CentralizedSimulator", "centralized"),
    ("repro.decentralized.simulator", "DecentralizedSimulator",
     "decentralized.plane"),
)


class Stat:
    """Aggregate of every span of one wrapped function."""

    __slots__ = ("name", "layer", "calls", "incl_s", "self_s", "samples")

    def __init__(self, name: str, layer: str, sampled: bool = False) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.samples: Optional[List[float]] = [] if sampled else None


def _module_layer(module: str) -> str:
    package = module.split(".")[1] if module.startswith("repro.") else "other"
    return {"experiments": "harness",
            "decentralized": "decentralized.plane"}.get(package, package)


class Tracer:
    """The span stack, the per-function stats, and the wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        # One child-time accumulator per open span; [0] is the root.
        self._stack: List[List[float]] = [[0.0]]
        self.event_s: List[float] = []
        self.heap_pushes = 0
        self._handlers: Dict[Any, Stat] = {}
        self._class_layers: Dict[type, str] = {}

    def stat(self, name: str, layer: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = Stat(name, layer, sampled=name in SAMPLED)
            self.stats[name] = stat
        return stat

    def wrap(self, fn: Callable, stat: Stat) -> Callable:
        """``fn`` as a span of ``stat``, with ``fn``'s name and module."""
        return functools.update_wrapper(
            self._span(fn, stat, stat.samples), fn
        )

    def _span(
        self, fn: Callable, stat: Stat, samples: Optional[List[float]]
    ) -> Callable:
        stack = self._stack

        def span(*args, **kwargs):
            stat.calls += 1
            children = [0.0]
            stack.append(children)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                stat.incl_s += elapsed
                stat.self_s += elapsed - children[0]
                stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return span

    # -- engine callbacks ----------------------------------------------------

    def handler_stat(self, fn: Callable) -> Stat:
        owner = getattr(fn, "__self__", None)
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "__wrapped__", func)
        code = getattr(func, "__code__", func)
        key = (code, type(owner))
        stat = self._handlers.get(key)
        if stat is None:
            layer = _module_layer(getattr(func, "__module__", "") or "")
            for cls in type(owner).__mro__:
                if cls in self._class_layers:
                    layer = self._class_layers[cls]
                    break
            name = getattr(func, "__qualname__", repr(func))
            stat = self.stat(f"event:{layer}:{name}", layer)
            self._handlers[key] = stat
        return stat

    def callback(self, fn: Callable) -> Callable:
        return self._span(fn, self.handler_stat(fn), self.event_s)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        originals: Dict[Callable, Callable] = {}

        def patch(owner, attr: str, layer: str, name: str) -> None:
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(
                    self.wrap(original.fget, self.stat(name, layer))
                )
                setattr(owner, attr, wrapped)
                return
            wrapped = self.wrap(original, self.stat(name, layer))
            setattr(owner, attr, wrapped)
            originals[original] = wrapped

        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            patch(module, attr, layer, attr)
        for module_name, class_name, layer in CLASSES:
            cls = _class(module_name, class_name)
            for attr, value in list(vars(cls).items()):
                name = f"{class_name}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not isinstance(value, types.FunctionType)
                ):
                    continue
                patch(cls, attr, LAYER_OVERRIDES.get(name, layer), name)
        for module_name, class_name, attr, layer in METHODS:
            patch(_class(module_name, class_name), attr, layer,
                  f"{class_name}.{attr}")
        self._class_layers = {
            _class(module_name, class_name): layer
            for module_name, class_name, layer in CLASSES + PLANES
        }
        self._install_plane_runs()
        self._install_engine()
        _rebind_imported_names(originals)

    def _install_plane_runs(self) -> None:
        """One span per plane ``run()``; the plane is the instance's."""
        planes = [(_class(m, c), layer) for m, c, layer in PLANES]
        for owner, _ in planes:
            original = vars(owner).get("run")
            if original is None:
                continue
            spans = {
                cls: self.wrap(original, self.stat(
                    f"{layer.split('.')[0]}.run", layer
                ))
                for cls, layer in planes
                if issubclass(cls, owner)
            }

            def run(sim, *args, _spans=spans, **kwargs):
                return _spans[type(sim)](sim, *args, **kwargs)

            owner.run = functools.update_wrapper(run, original)

    def _install_engine(self) -> None:
        from repro.simulation.engine import Simulator

        tracer = self
        schedule_at = Simulator.schedule_at
        schedule_many = Simulator.schedule_many

        def traced_schedule_at(sim, time, fn, *args, **kwargs):
            tracer.heap_pushes += 1
            return schedule_at(sim, time, tracer.callback(fn), *args, **kwargs)

        def traced_schedule_many(sim, items, **kwargs):
            handles = schedule_many(
                sim,
                ((t, tracer.callback(fn), a) for t, fn, a in items),
                **kwargs,
            )
            tracer.heap_pushes += len(handles)
            return handles

        engine = self.stat("Simulator.schedule", "simulation")
        Simulator.schedule_at = self.wrap(traced_schedule_at, engine)
        Simulator.schedule_many = self.wrap(traced_schedule_many, engine)
        Simulator.run = self.wrap(
            Simulator.run, self.stat("Simulator.run", "simulation")
        )

    # -- reporting -----------------------------------------------------------

    def table(self) -> List[Dict[str, Any]]:
        """Every wrapped function's aggregate, heaviest self time first."""
        rows = [
            {
                "name": s.name,
                "layer": s.layer,
                "calls": s.calls,
                "incl_s": s.incl_s,
                "self_s": s.self_s,
            }
            for s in self.stats.values()
            if s.calls
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


def _class(module_name: str, class_name: str) -> type:
    return getattr(importlib.import_module(module_name), class_name)


def _rebind_imported_names(originals: Dict[Callable, Callable]) -> None:
    """Point every ``from x import f`` copy (and module-level dict value)
    in the ``repro`` package at the wrapper of ``f``."""

    def wrapped(value):
        if isinstance(value, types.FunctionType):
            return originals.get(value)
        return None

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if wrapped(value) is not None:
                setattr(module, attr, wrapped(value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if wrapped(item) is not None:
                        value[key] = wrapped(item)


def _quantile_us(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


#: Every per-layer metric: name -> unit. ``per_layer_metrics`` fills
#: them all (0 where a layer did not run in this workload).
METRICS: Dict[str, str] = {
    "workload.build_trace_s": "s",
    "workload.fresh_copy_s": "s",
    "workload.fresh_copy_calls": "count",
    "harness.build_sim_s": "s",
    "harness.run_wall_s.decentralized": "s",
    "harness.run_wall_s.centralized": "s",
    "harness.run_wall_s.batch": "s",
    "simulation.events": "count",
    "simulation.heap_pushes": "count",
    "simulation.self_s": "s",
    "simulation.event_us_p50": "us",
    "simulation.event_us_p99": "us",
    "simulation.event_samples": "count",
    "core.allocate_calls": "count",
    "core.allocate_memo_hits": "count",
    "core.ordered_solves": "count",
    "core.full_solves": "count",
    "core.upserts": "count",
    "core.self_s": "s",
    "core.allocate_us_p99": "us",
    "centralized.handler_calls": "count",
    "centralized.self_s": "s",
    "batch.rounds": "count",
    "batch.self_s": "s",
    "cluster.first_free_calls": "count",
    "cluster.self_s": "s",
    "runtime.launches_original": "count",
    "runtime.launches_speculative": "count",
    "runtime.kills": "count",
    "runtime.pop_pending_calls": "count",
    "runtime.self_s": "s",
    "speculation.candidate_calls": "count",
    "speculation.policy_calls": "count",
    "speculation.self_s": "s",
    "speculation.win_frac": "frac",
    "estimation.beta_calls": "count",
    "estimation.fit_calls": "count",
    "estimation.beta_self_s": "s",
    "estimation.alpha_calls": "count",
    "estimation.alpha_s": "s",
    "stragglers.self_s": "s",
    "decentralized.messages": "count",
    "decentralized.probes": "count",
    "decentralized.offers": "count",
    "decentralized.offer_bind_frac": "frac",
    "decentralized.scheduler_self_s": "s",
    "decentralized.worker_self_s": "s",
    "decentralized.plane_self_s": "s",
    "serving.jobs_offered": "count",
    "serving.calibrate_s": "s",
    "serving.window_self_s": "s",
    "serving.self_s": "s",
    "metrics.record_calls": "count",
    "metrics.self_s": "s",
    "trace.overhead_frac": "frac",
}


def per_layer_metrics(tracer: Tracer, outcomes) -> Dict[str, float]:
    """Reduce the tracer's stats to :data:`METRICS` (all but
    ``trace.overhead_frac``, which needs an untraced run to compare)."""
    stats = tracer.stats

    def calls(name: str) -> int:
        stat = stats.get(name)
        return stat.calls if stat is not None else 0

    def incl(name: str) -> float:
        stat = stats.get(name)
        return stat.incl_s if stat is not None else 0.0

    layer_self: Dict[str, float] = {}
    for stat in stats.values():
        layer_self[stat.layer] = layer_self.get(stat.layer, 0.0) + stat.self_s
    allocate = stats.get("IncrementalAllocator.allocate")
    copies = sum(o.total_copies for o in outcomes)
    spec_copies = sum(o.speculative_copies for o in outcomes)
    spec_wins = sum(o.speculative_wins for o in outcomes)
    offers = calls("SchedulerAgent.on_slot_offer")
    ordered = sum(
        s.calls for s in stats.values() if s.name.endswith(".allocate_ordered")
    )
    full = sum(
        s.calls for s in stats.values()
        if s.name.endswith("Policy.allocate")
    )
    values: Dict[str, float] = {
        "workload.build_trace_s": incl("build_trace"),
        "workload.fresh_copy_s": incl("Trace.fresh_copy"),
        "workload.fresh_copy_calls": calls("Trace.fresh_copy"),
        "harness.build_sim_s": layer_self.get("harness", 0.0),
        "simulation.events": len(tracer.event_s),
        "simulation.heap_pushes": tracer.heap_pushes,
        "simulation.self_s": layer_self.get("simulation", 0.0),
        "simulation.event_us_p50": _quantile_us(tracer.event_s, 0.50),
        "simulation.event_us_p99": _quantile_us(tracer.event_s, 0.99),
        "simulation.event_samples": len(tracer.event_s),
        "core.allocate_calls": calls("IncrementalAllocator.allocate"),
        "core.allocate_memo_hits": (
            calls("IncrementalAllocator.allocate") - ordered
        ),
        "core.ordered_solves": ordered,
        "core.full_solves": full,
        "core.upserts": calls("IncrementalAllocator.upsert"),
        "core.self_s": layer_self.get("core", 0.0),
        "core.allocate_us_p99": _quantile_us(
            allocate.samples if allocate is not None else [], 0.99
        ),
        "centralized.handler_calls": sum(
            s.calls for s in stats.values()
            if s.name.startswith("event:centralized:")
        ),
        "centralized.self_s": layer_self.get("centralized", 0.0),
        "batch.rounds": sum(
            s.calls for s in stats.values()
            if s.name.endswith(":BatchSimulator._on_round")
        ),
        "batch.self_s": layer_self.get("batch", 0.0),
        "cluster.first_free_calls": calls("ClusterIndex.first_free_machine"),
        "cluster.self_s": layer_self.get("cluster", 0.0),
        "runtime.launches_original": copies - spec_copies,
        "runtime.launches_speculative": spec_copies,
        "runtime.kills": calls("CopyLedger.kill"),
        "runtime.pop_pending_calls": calls("JobRuntime.pop_pending"),
        "runtime.self_s": layer_self.get("runtime", 0.0),
        "speculation.candidate_calls": calls(
            "JobRuntime.speculation_candidates"
        ),
        "speculation.policy_calls": calls("LATE.speculation_candidates"),
        "speculation.self_s": layer_self.get("speculation", 0.0),
        "speculation.win_frac": spec_wins / spec_copies if spec_copies else 0.0,
        "estimation.beta_calls": calls("OnlineBetaEstimator.beta"),
        "estimation.fit_calls": calls("fit_pareto_shape"),
        "estimation.beta_self_s": layer_self.get("estimation.beta", 0.0),
        "estimation.alpha_calls": calls("AlphaEstimator.predict_alpha"),
        "estimation.alpha_s": layer_self.get("estimation.alpha", 0.0),
        "stragglers.self_s": layer_self.get("stragglers", 0.0),
        "decentralized.messages": calls("DecentralizedSimulator.send"),
        "decentralized.probes": calls("DecentralizedSimulator.sample_workers"),
        "decentralized.offers": offers,
        "decentralized.offer_bind_frac": (
            calls("DecentralizedSimulator.start_copy") / offers
            if offers else 0.0
        ),
        "decentralized.scheduler_self_s": layer_self.get(
            "decentralized.scheduler", 0.0
        ),
        "decentralized.worker_self_s": layer_self.get(
            "decentralized.worker", 0.0
        ),
        "decentralized.plane_self_s": layer_self.get(
            "decentralized.plane", 0.0
        ),
        "serving.jobs_offered": sum(
            o.admitted for o in outcomes if o.label.startswith("serving/")
        ),
        "serving.calibrate_s": incl("calibrate_arrival_rate"),
        "serving.window_self_s": layer_self.get("serving.window", 0.0),
        "serving.self_s": layer_self.get("serving", 0.0),
        "metrics.record_calls": sum(
            s.calls for s in stats.values()
            if s.name.startswith("MetricsCollector.record_")
        ),
        "metrics.self_s": layer_self.get("metrics", 0.0),
    }
    for plane in ("decentralized", "centralized", "batch"):
        values[f"harness.run_wall_s.{plane}"] = incl(f"{plane}.run")
    return values
