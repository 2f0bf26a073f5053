"""Whole-run benchmark of the Hopper simulator: one workload per call.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay-central --seed 7 \\
        --seconds 40 --trace 0

``--trace 0`` repeats the workload, each repetition in a fresh process
(``perfbench/rep.py``), as often as fits in ``--seconds`` (at least
three times) and reports the end-to-end metrics as medians over the
repetitions, with times scaled to a nominal host speed (see
``NOMINAL_HOST_REF_S``).
``--trace 1`` makes one untraced repetition and two traced ones
and reports the per-layer metrics (see ``layers.py``). Either way every
result is checked: all admitted jobs finish, and the result digests
match the pinned ones at the default seed or agree across repetitions
at any other seed. A human-readable report goes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
PINS = HERE / "pins.json"
SPANS_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("replay-central", "serve-decentral", "scale-1m")
#: The seed whose result digests are pinned in ``pins.json``.
DEFAULT_SEED = 7
MIN_REPS = 3
#: The nominal host runs the reference loop (``rep.host_reference_s``,
#: before plus after) in this many seconds. Timed metrics are scaled to
#: it: the host this benchmark was built on runs the loop in 0.21-0.57 s,
#: in phases of seconds to minutes, and moves raw wall times with it.
NOMINAL_HOST_REF_S = 0.25
#: A repetition that outlives this is a hung run, not a measurement.
REP_TIMEOUT_S = 150

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
}


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, traced: bool = False) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, str(REP), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RepFailed(
            f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(PINS.read_text()).get(workload, {})


def judge(reps: list, reference: dict) -> tuple:
    """Per-rep failed-job counts plus the problems found.

    ``reference`` maps spec label -> expected digest; labels missing
    from it are pinned to the first repetition's digest, so at an
    unpinned seed every repetition must reproduce the first.
    """
    reference = dict(reference)
    failed_per_rep = []
    problems = []
    for index, rep in enumerate(reps):
        failed = 0
        for outcome in rep["outcomes"]:
            label = outcome["label"]
            expected = reference.setdefault(label, outcome["digest"])
            bad = list(outcome["problems"])
            if outcome["digest"] != expected:
                bad.append(f"digest {outcome['digest'][:12]} != "
                           f"{expected[:12]}")
            if bad:
                failed += outcome["admitted"]
                problems += [f"rep {index} {label}: {p}" for p in bad]
            else:
                failed += outcome["admitted"] - outcome["completed"]
        failed_per_rep.append(failed)
    return failed_per_rep, problems


def attempted_jobs(rep: dict) -> int:
    return sum(outcome["admitted"] for outcome in rep["outcomes"])


def timed(workload: str, seed: int, seconds: float) -> dict:
    reps = []
    walls = []
    started = time.monotonic()
    # Start another repetition only if a typical one still fits.
    while len(reps) < MIN_REPS or (
        time.monotonic() - started + statistics.median(walls) <= seconds
    ):
        rep_started = time.monotonic()
        reps.append(run_rep(workload, seed))
        walls.append(time.monotonic() - rep_started)
    failed_per_rep, problems = judge(reps, load_pins(workload, seed))
    attempted = sum(attempted_jobs(rep) for rep in reps)
    failed = sum(failed_per_rep)
    def nominal(rep: dict, name: str) -> float:
        return rep[name] * NOMINAL_HOST_REF_S / rep["host_ref_s"]

    metrics = {
        "jobs_per_s": statistics.median(
            (attempted_jobs(rep) - bad) / nominal(rep, "total_s")
            for rep, bad in zip(reps, failed_per_rep)
        ),
        "setup_s": statistics.median(nominal(rep, "setup_s") for rep in reps),
        "run_s": statistics.median(nominal(rep, "run_s") for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "completed_frac": 1.0 - failed / attempted,
    }
    print(f"# {workload} seed={seed}: {len(reps)} repetitions, "
          f"{time.monotonic() - started:.1f} s")
    for index, rep in enumerate(reps):
        print(f"#   rep {index}: total {rep['total_s']:.3f} s  setup "
              f"{rep['setup_s']:.4f} s  run {rep['run_s']:.3f} s  rss "
              f"{rep['peak_rss_mb']:.1f} MB  host-ref "
              f"{rep['host_ref_s']:.3f} s"
              + (f"  late imports {rep['late_imports']}"
                 if rep["late_imports"] else ""))
    host = [rep["host_ref_s"] for rep in reps]
    print(f"# host-speed reference (scales the timed metrics): median "
          f"{statistics.median(host):.3f} s, range {min(host):.3f}-"
          f"{max(host):.3f} s")
    print(f"# unscaled wall-clock medians: jobs_per_s "
          f"{statistics.median(attempted_jobs(r) / r['total_s'] for r in reps):.3f}"
          f" 1/s, setup_s {statistics.median(r['setup_s'] for r in reps):.4f}"
          f" s, run_s {statistics.median(r['run_s'] for r in reps):.3f} s")
    for name, unit in END_TO_END.items():
        print(f"{workload:16s} {name:16s} {metrics[name]:14.6f} {unit}")
    print(f"{workload:16s} {'failed_frac':16s} {failed / attempted:14.6f} "
          f"frac")
    return _result(problems, attempted, failed, metrics, END_TO_END)


def traced(workload: str, seed: int) -> dict:
    plain = run_rep(workload, seed)
    traced_reps = [run_rep(workload, seed, traced=True) for _ in range(2)]
    reps = [plain] + traced_reps
    failed_per_rep, problems = judge(reps, load_pins(workload, seed))
    first, second = (rep["layers"] for rep in traced_reps)
    for name, unit in METRICS.items():
        if unit == "count" and first.get(name) != second.get(name):
            problems.append(
                f"count {name} differs between traced runs: "
                f"{first.get(name)} != {second.get(name)}"
            )
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced_reps)
        for name in METRICS
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(rep["total_s"] for rep in traced_reps)
        / plain["total_s"] - 1.0
    )
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{workload}-seed{seed}.spans.json"
    spans_path.write_text(json.dumps(traced_reps[0]["spans"], indent=1))
    print(f"# {workload} seed={seed}: traced wall "
          f"{traced_reps[0]['total_s']:.3f} s vs untraced "
          f"{plain['total_s']:.3f} s; spans in {spans_path.relative_to(ROOT)}")
    print(f"# heaviest self time ({'calls':>9s} {'self s':>9s} "
          f"{'incl s':>9s})")
    for row in traced_reps[0]["spans"][:15]:
        print(f"#   {row['name'][:60]:60s} {row['calls']:9d} "
              f"{row['self_s']:9.4f} {row['incl_s']:9.4f}")
    for name, unit in METRICS.items():
        print(f"{workload:16s} {name:34s} {metrics[name]:16.6f} {unit}")
    attempted = sum(attempted_jobs(rep) for rep in reps)
    return _result(problems, attempted, sum(failed_per_rep), metrics, METRICS)


def _result(problems, attempted, failed, metrics, units) -> dict:
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = timed(args.workload, args.seed, args.seconds)
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
