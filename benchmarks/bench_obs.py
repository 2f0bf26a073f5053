"""Observability overhead benchmark: tracer-off vs tracer-on throughput.

Runs the scale benchmark's quick grid on both system axes twice — once
with observability fully off (the production default; must stay within
the regression gate of the committed ``BENCH_scale.json`` baseline) and
once with the full ``Obs`` bundle (tracer + counters + timers) — and
reports the relative slowdown. Results land in ``BENCH_obs.json``; its
"off" rows are shaped exactly like ``BENCH_scale.json`` rows (no
``mode`` key) so ``check_regression.py`` can gate them against either
baseline, while "on" rows carry ``"mode": "obs"`` and never match an
off-row key.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py --quick
    PYTHONPATH=src python benchmarks/bench_obs.py --output fresh.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # allow plain `python benchmarks/...`
    sys.path.insert(0, str(_ROOT / "src"))
if str(_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from _tables import BENCH_SCHEMA_VERSION, print_table, write_bench_json  # noqa: E402
from bench_scale import (  # noqa: E402
    ELASTIC_SLOTS,
    FULL_GRID,
    PROBE_RATIO,
    QUICK_GRID,
    SYSTEMS,
    UTILIZATION,
    run_once_batch,
    run_once_centralized,
    run_once_decentralized,
    run_once_elastic,
)

_RUNNERS = {
    "decentralized": run_once_decentralized,
    "centralized": run_once_centralized,
    "batch": run_once_batch,
    "elastic": run_once_elastic,
}

#: Observability modes measured per grid point. "off" rows intentionally
#: omit the key entirely so their row shape (and check_regression row
#: key) matches BENCH_scale.json rows.
MODES = ("off", "on")


def _run_point(
    system: str, total_slots: int, num_jobs: int, mode: str, repeats: int
) -> Dict[str, Any]:
    """Best-of-``repeats`` for one (system, grid point, mode) cell."""
    from repro.obs import Obs

    run_once = _RUNNERS[system]
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeats):
        # Fresh Obs per repeat: the tracer must not accumulate records
        # (and so allocation pressure) across timed repetitions.
        obs = Obs(trace=True) if mode == "on" else None
        row = run_once(total_slots, num_jobs, obs=obs)
        if mode == "on":
            row["mode"] = "obs"
            row["trace_records"] = len(obs.tracer.records)
        if best is None or row["wall_seconds"] < best["wall_seconds"]:
            best = row
    assert best is not None
    return best


def run_benchmark(
    systems: Sequence[str], grid: Sequence[Tuple[int, int]], repeats: int
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for system in systems:
        # As in bench_scale, the elastic axis runs only its 10k point.
        points = (
            [p for p in grid if p[0] == ELASTIC_SLOTS]
            if system == "elastic"
            else grid
        )
        for total_slots, num_jobs in points:
            for mode in MODES:
                rows.append(
                    _run_point(system, total_slots, num_jobs, mode, repeats)
                )
    return rows


def _aggregate(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    total_events = sum(r["events"] for r in rows)
    total_wall = sum(r["wall_seconds"] for r in rows)
    return {
        "total_events": total_events,
        "total_wall_seconds": total_wall,
        "events_per_sec": total_events / total_wall if total_wall else 0.0,
    }


def _overhead(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Tracer-on slowdown vs tracer-off, overall and per system."""
    off = [r for r in rows if "mode" not in r]
    on = [r for r in rows if r.get("mode") == "obs"]

    def ratio(off_rows, on_rows) -> Optional[float]:
        off_rate = _aggregate(off_rows)["events_per_sec"]
        on_rate = _aggregate(on_rows)["events_per_sec"]
        return off_rate / on_rate if on_rate else None

    summary: Dict[str, Any] = {"overall_slowdown": ratio(off, on)}
    for system in sorted({r["system"] for r in rows}):
        summary[system] = ratio(
            [r for r in off if r["system"] == system],
            [r for r in on if r["system"] == system],
        )
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke grid (2k and 10k slots, fewer jobs)",
    )
    parser.add_argument(
        "--system",
        choices=(*SYSTEMS, "both"),
        default="both",
        help="which simulator axis to benchmark (default: both = all axes)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timed repetitions per point; best wall-clock wins (default 3)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "output JSON path (default: BENCH_obs.json for --quick — the "
            "grid CI gates on — and BENCH_obs.full.json for the full grid)"
        ),
    )
    args = parser.parse_args(argv)

    systems = SYSTEMS if args.system == "both" else (args.system,)
    grid = QUICK_GRID if args.quick else FULL_GRID
    rows = run_benchmark(systems, grid, max(args.repeats, 1))

    # The gateable aggregate covers tracer-off rows only: that is the
    # path every production run takes, and the one that must stay within
    # noise of the BENCH_scale baseline.
    off_rows = [r for r in rows if "mode" not in r]
    aggregate = _aggregate(off_rows)
    per_system = {
        system: _aggregate(
            [r for r in off_rows if r["system"] == system]
        )
        for system in systems
    }
    overhead = _overhead(rows)

    print_table(
        "Observability overhead: tracer-off vs tracer-on "
        f"({'quick' if args.quick else 'full'} grid, "
        f"decentralized d={PROBE_RATIO:g})",
        ("system", "slots", "jobs", "mode", "events", "wall s", "events/s"),
        [
            (
                r["system"],
                r["total_slots"],
                r["num_jobs"],
                r.get("mode", "off"),
                r["events"],
                r["wall_seconds"],
                r["events_per_sec"],
            )
            for r in rows
        ],
    )
    for system in systems:
        slowdown = overhead.get(system)
        tail = f"{slowdown:.3f}x" if slowdown else "n/a"
        print(
            f"{system}: tracer-off "
            f"{per_system[system]['events_per_sec']:,.0f} events/sec, "
            f"full-obs slowdown {tail}"
        )
    if overhead["overall_slowdown"]:
        print(
            f"\ntracer-off aggregate: {aggregate['events_per_sec']:,.0f} "
            f"events/sec; full-obs slowdown "
            f"{overhead['overall_slowdown']:.3f}x"
        )

    payload = {
        "quick": args.quick,
        "systems": list(systems),
        "probe_ratio": PROBE_RATIO,
        "utilization": UTILIZATION,
        "repeats": max(args.repeats, 1),
        "rows": rows,
        "aggregate": aggregate,
        "per_system": per_system,
        "obs_overhead": overhead,
    }
    if args.output:
        out = Path(args.output)
        doc = {
            "benchmark": "obs",
            "schema_version": BENCH_SCHEMA_VERSION,
            **payload,
        }
        import json

        out.write_text(json.dumps(doc, indent=2) + "\n")
    elif args.quick:
        out = write_bench_json("obs", payload)
    else:
        out = write_bench_json("obs.full", payload)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
