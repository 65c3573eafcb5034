"""fleetcharge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload week-compare --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The run writes its inputs, the program's reports and a
``result.json`` under ``.perfbench-out/<workload>/``, prints details on
stdout and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing, with times in reference seconds (see ``hostspeed.py`` and
``end_to_end``).  ``--trace 1`` reports the per-layer metrics: the first
half of the run repeats untraced passes, the second half traced passes, and
``trace.overhead_s`` is the difference of their median pass wall times.
Spans of the traced passes are written to ``spans.csv``.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = (4, 3)  # cold set-ups before and after the measured passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


def import_program():
    """Import fleetcharge from this checkout's sources, and nowhere else."""
    if not (SRC / "fleetcharge" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SetupError(f"no fleetcharge sources and fixtures under {ROOT}")
    sys.path.insert(0, str(SRC))
    import fleetcharge

    if Path(fleetcharge.__file__).resolve().parent != SRC / "fleetcharge":
        raise SetupError(f"fleetcharge imported from {fleetcharge.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure_setup(workload: str, inputs: dict, count: int, cpus, speed) -> list:
    """Cold set-ups in fresh processes: import fleetcharge, ingest the inputs.

    Returns (seconds, start, end) per set-up, the seconds as the set-up
    measured itself and start and end in this process's clock.  Each set-up
    runs on the next CPU of ``cpus``, between two samples of the host's
    ``speed`` on that CPU.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    arg = json.dumps({k: str(v) if isinstance(v, Path) else v for k, v in inputs.items()})
    times = []
    for _ in range(count):
        cpus.next()
        speed.sample()
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(probe), workload, arg],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        speed.sample()
        if out.returncode != 0:
            raise SetupError(f"setup probe failed: {out.stderr.strip()}")
        times.append((float(out.stdout.strip().splitlines()[-1]), start, end))
    return times


def tail_percentile(values: list):
    """(percentile, value): the highest whole percentile with >= 10 values above it.

    Nearest-rank percentiles; with 10 values or fewer the maximum (p100).
    """
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return 100, ordered[-1]
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]


@dataclass
class Context:
    inputs: dict
    ingested: object
    out_dir: Path
    probe: object
    tracer: object
    cpus: object
    speed: object  # HostSpeed, or None where wall seconds are reported as they are


def run_passes(workload, ctx, seconds: float) -> list:
    """Identical passes while the next one should end within ``seconds``.

    At least one pass runs, however long it takes.  Each pass runs on the
    next CPU of ``ctx.cpus``, between two samples of the host's speed, and
    starts from a collected heap, so the previous pass's garbage is not
    collected inside it.
    """
    passes = []
    t0 = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - t0 + last <= seconds:
        gc.collect()
        ctx.cpus.next()
        if ctx.speed is not None:
            ctx.speed.sample()
        start = time.perf_counter()
        passes.append(workload.run_pass(ctx))
        last = time.perf_counter() - start
        if ctx.speed is not None:
            ctx.speed.sample()
    return passes


def repeats_of(runs: list) -> list:
    """Each item's repeats over the passes, given one list per pass.

    Passes replay identical inputs deterministically, so the i-th reschedule
    (or the i-th stretch of work between two) is the same computation in
    every pass.
    """
    if any(len(r) != len(runs[0]) for r in runs):
        return [[v] for v in runs[0]]
    return [list(v) for v in zip(*runs)]


def timings(passes, repeats, scale) -> tuple:
    """(events per second, [ms of each reschedule of the measured policy]).

    Each span's wall seconds are weighted by ``scale(start, end)``.  Every
    reschedule counts at the median of its samples: its repeats over the
    passes and, where ``repeats`` has them, its repeats on its own.  The
    events of one pass are divided by a pass made of the medians: of each
    reschedule, and of the work before, between and after them.
    """
    def seconds(spans):
        return [(end - start) * scale(start, end) for start, end in spans]

    calls = repeats_of([seconds(p.call_spans) for p in passes])
    for idx, spans in repeats.items():
        calls[idx] += seconds(spans)
    calls_s = [statistics.median(v) for v in calls]
    gaps_s = [statistics.median(v) for v in repeats_of([seconds(p.gap_spans) for p in passes])]
    return (passes[0].events / (sum(calls_s) + sum(gaps_s)),
            [calls_s[i] * 1000.0 for i in passes[0].solve_idx])


def end_to_end(passes, repeats, setups, speed) -> tuple:
    """The end-to-end metrics of a run, and the same timings in wall seconds.

    Times are in reference seconds (see hostspeed.py): each span of wall time
    is scaled by the host's speed sampled around it.
    """
    p0 = passes[0]
    events_per_s, latencies = timings(passes, repeats, speed.scale)
    tail_p, tail = tail_percentile(latencies)
    setup_s = statistics.median(t * speed.scale(a, b) for t, a, b in setups)
    wall_events_per_s, wall_latencies = timings(passes, repeats, lambda start, end: 1.0)
    wall = {"setup_s": statistics.median(t for t, _, _ in setups),
            "events_per_s": wall_events_per_s,
            "solve_ms_p50": statistics.median(wall_latencies),
            "solve_ms_tail": tail_percentile(wall_latencies)[1],
            "host_speed": speed.summary()}
    metrics = {
        "setup_s": (setup_s, "s"),
        "events_per_s": (events_per_s, "1/s"),
        "solve_ms_p50": (statistics.median(latencies), "ms"),
        "solve_ms_tail": (tail, "ms"),
        "objective_mean": (statistics.fmean(p0.objectives) if p0.objectives else 0.0, "1"),
        "cost_usd": (p0.cost_usd, "usd"),
        "fade_exact_ah": (p0.fade_exact_ah, "Ah"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    rounds = max(map(len, repeats.values()), default=0)
    note = (f"solve_ms_tail is p{tail_p} of {len(latencies)} reschedules, each the median "
            f"of {len(passes)} passes and {rounds} repeats on its own")
    return metrics, note, latencies, wall


def per_layer(tracer, untraced, traced) -> dict:
    from tracer import LAYER_NAMES

    n = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for name in LAYER_NAMES:
        t = totals[name]
        metrics[f"{name}.count"] = (t["count"] / n, "count")
        metrics[f"{name}.busy_s"] = (t["busy_s"] / n, "s")
        metrics[f"{name}.self_s"] = (t["self_s"] / n, "s")
    solves = totals["solver.solve"]["count"]
    admits = totals["scheduler.admit_task"]["count"]
    metrics["solver.solve.iterations"] = (
        tracer.solve_iterations / solves if solves else 0.0, "count")
    metrics["solver.solve.converged_ratio"] = (
        tracer.solve_converged / solves if solves else 0.0, "ratio")
    metrics["scheduler.proposed_schedule.max_ms"] = (
        totals["scheduler.proposed_schedule"]["max_s"] * 1000.0, "ms")
    metrics["scheduler.admit_task.accept_ratio"] = (
        tracer.admit_accepted / admits if admits else 0.0, "ratio")
    metrics["cli.nonstrict_json_files"] = (float(traced[-1].nonstrict_json_files), "count")
    plain = statistics.median(p.wall_s for p in untraced)
    overhead = statistics.median(p.wall_s for p in traced) - plain
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-test only")
    args = parser.parse_args(argv)

    # One caller, no threads: pin native thread pools before numpy loads.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import (WORKLOADS, CpuRotation, RescheduleProbe, files_digest,
                           repeat_proposed)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    inputs = workload.prepare(ROOT, out_dir / "inputs", args.seed, args.tiny)
    inputs_digest = files_digest(v for v in inputs.values() if isinstance(v, Path))
    speed = HostSpeed()
    cpus = CpuRotation()
    try:
        setups = measure_setup(args.workload, inputs, SETUP_PROBES[0], cpus, speed)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install()
    # Traced runs report wall seconds as they are: no host speed samples.
    pass_speed = None if args.trace else speed
    probe = RescheduleProbe(speed=pass_speed,
                            keep_inputs=workload.repeat_proposed and not args.trace)
    probe.install()  # after the tracer, so it wraps the traced functions
    # Warm up on the tiny inputs: lazy imports and first-call costs are paid
    # once per process and would otherwise inflate the first measured pass.
    warm = workload.prepare(ROOT, out_dir / "warmup" / "inputs", args.seed, True)
    workload.run_pass(Context(inputs=warm, ingested=workload.ingest(warm),
                              out_dir=out_dir / "warmup", probe=probe, tracer=tracer,
                              cpus=cpus, speed=pass_speed))
    ctx = Context(inputs=inputs, ingested=workload.ingest(inputs), out_dir=out_dir,
                  probe=probe, tracer=tracer, cpus=cpus, speed=pass_speed)
    if args.trace:
        untraced = run_passes(workload, ctx, args.seconds / 2.0)
        with tracer.recording():
            traced = run_passes(workload, ctx, args.seconds / 2.0)
        passes = untraced + traced
    else:
        t0 = time.perf_counter()
        passes = run_passes(workload, ctx, args.seconds)
    probe.uninstall()
    tracer.uninstall()
    repeats, repeated, repeat_problems = {}, 0, []
    if probe.keep_inputs:
        repeats, repeated, repeat_problems = repeat_proposed(
            probe, cpus, speed, args.seconds - (time.perf_counter() - t0))
    try:
        setups += measure_setup(args.workload, inputs, SETUP_PROBES[1], cpus, speed)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cpus.release()

    problems = repeat_problems + [msg for p in passes for msg in p.problems]
    digests = sorted({p.report_digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes over identical inputs disagree: {len(digests)} report digests")
    attempted = sum(p.attempted for p in passes) + repeated
    failed = sum(p.failed for p in passes) + len(repeat_problems)
    latencies, wall = [], {}
    if args.trace:
        metrics = per_layer(tracer, untraced, traced)
        note = f"{len(untraced)} untraced and {len(traced)} traced passes"
        tracer.write_spans(out_dir / "spans.csv")
    else:
        metrics, note, latencies, wall = end_to_end(passes, repeats, setups, speed)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine_info(),
        "inputs_digest": inputs_digest, "report_digest": digests[0],
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "setup_s": [t for t, _, _ in setups], "wall": wall,
        "nonstrict_json_files": passes[-1].nonstrict_json_files,
        "note": note, "problems": problems[:50],
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(
        {"info": info, "result": result, "solve_ms": latencies}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
