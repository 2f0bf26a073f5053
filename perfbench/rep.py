"""One repetition of one workload, in a fresh process.

Usage::

    python3 perfbench/rep.py --workload replay-central --seed 7 [--traced]

Imports ``repro`` from the checkout's ``src/`` and every module the
workload touches before the clock starts, runs the workload's RunSpecs
once, and prints one JSON object: set-up and event-loop wall time,
peak RSS, the per-spec result checks and digests, and a host-speed
reference time taken around the run. With ``--traced`` the layer
tracer is installed first and the object also carries the per-layer
metrics and span table.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules the workloads import lazily; importing them up front keeps
#: their import time out of ``setup_s``.
PRELOAD = (
    "repro.batch.simulator",
    "repro.centralized.simulator",
    "repro.decentralized.simulator",
    "repro.experiments.harness",
    "repro.metrics.serialize",
    "repro.registry",
    "repro.serving.arrivals",
    "repro.serving.driver",
    "repro.serving.windows",
    "repro.speculation",
    "repro.sweep.spec",
)


def load_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: repro resolved outside {SRC}: {repro.__file__}")
    for name in PRELOAD:
        importlib.import_module(name)


def host_reference_s(iterations: int = 750_000) -> float:
    """Wall time of a fixed pure-Python loop: a host-speed yardstick.

    A timed repetition runs it once just before and once just after the
    workload; the sum brackets the host's speed over the repetition."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


def _time_plane_runs(intervals: list) -> None:
    """Record the (start, end) of every outermost plane ``run()``."""
    from repro.centralized.simulator import CentralizedSimulator
    from repro.decentralized.simulator import DecentralizedSimulator

    depth = [0]
    for cls in (CentralizedSimulator, DecentralizedSimulator):
        original = cls.run

        def run(sim, *args, _original=original, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                return _original(sim, *args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    intervals.append((start, time.perf_counter()))

        cls.run = functools.update_wrapper(run, original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    os.environ.pop("REPRO_OBS", None)
    load_repro()
    import layers
    import workloads

    tracer = None
    if args.traced:
        tracer = layers.Tracer()
        tracer.install()
    intervals: list = []
    _time_plane_runs(intervals)
    run_specs = workloads.specs(args.workload, args.seed)
    modules_before = set(sys.modules)
    host_before_s = 0.0 if tracer is not None else host_reference_s()

    start = time.perf_counter()
    runs = workloads.execute(run_specs)
    total_s = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = sum(end - begin for begin, end in intervals)
    setup_s = 0.0
    previous_end = start
    for begin, end in intervals:
        setup_s += begin - previous_end
        previous_end = end
    outcomes = [workloads.check(*run) for run in runs]
    late_imports = sorted(
        name for name in set(sys.modules) - modules_before
        if name.startswith("repro")
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "total_s": total_s,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "late_imports": late_imports,
        "outcomes": [vars(outcome) for outcome in outcomes],
    }
    if tracer is not None:
        record["layers"] = layers.per_layer_metrics(tracer, outcomes)
        record["spans"] = tracer.table()
    else:
        record["host_ref_s"] = host_before_s + host_reference_s()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
