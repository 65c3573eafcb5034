"""The benchmark's workloads: input generators and one measured pass each.

A workload writes its inputs once per run (from the seed, or from the bundled
fixtures), then repeats identical passes over them.  A pass replays every
event of the inputs in a closed loop from one caller: each reschedule is
issued only after the previous one returned, and simulated time never waits
for wall time.  ``ingest`` is the set-up a user pays before the first event:
parsing the inputs with fleetcharge.  Every pass returns a ``PassResult``
carrying its wall time (the benchmark's own checks excluded), one latency per
reschedule, the realized totals and everything the correctness checks found.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import gc
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

import fleetcharge.cli as fc_cli
import fleetcharge.ingest as fc_ingest
import fleetcharge.scheduler as fc_scheduler
import fleetcharge.simulator as fc_simulator
from fleetcharge.ingest import SESSION_HEADER
from fleetcharge.problem import build_constraints, objective_components
from fleetcharge.scheduler import Policy

AUDIT_TOL = 1e-6
SOC_TOL = 1e-6
TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


@dataclass
class PassResult:
    wall_s: float                       # pass wall time, benchmark checks excluded
    events: int = 0                     # events replayed
    call_spans: list = field(default_factory=list)  # (start, end) of every reschedule, in order
    gap_spans: list = field(default_factory=list)   # (start, end) of the work around them
    solve_idx: list = field(default_factory=list)   # positions in call_spans of the measured policy
    objectives: list = field(default_factory=list)  # objective of each returned plan
    cost_usd: float = 0.0               # realized totals under the measured policy
    fade_exact_ah: float = 0.0
    attempted: int = 0                  # reschedules issued
    failed: int = 0                     # reschedules that failed a check
    problems: list = field(default_factory=list)  # failures, described
    report_digest: str = ""             # digest of the report metrics
    nonstrict_json_files: int = 0       # written JSON files a strict parser rejects


# ---------------------------------------------------------------------------
# Outside-in probe of every reschedule
# ---------------------------------------------------------------------------


class RescheduleProbe:
    """Times and keeps every reschedule the simulator issues.

    Wraps the two policy functions as the simulator module sees them, the
    simulator entry point as the CLI sees it (to keep each ``RunResult``)
    and the CLI's event digest (to see what each policy replayed).  With a
    ``speed`` it samples the host's speed before a reschedule when a sample
    is due; with ``keep_inputs`` it keeps a copy of each proposed reschedule's
    arguments, so that the reschedule can be repeated on its own.
    """

    def __init__(self, speed=None, keep_inputs: bool = False):
        self.speed = speed
        self.keep_inputs = keep_inputs
        self.inputs = {}     # position in calls -> (args, kwargs) of a proposed reschedule
        self.calls = []      # (policy, ms, output or None, error or None)
        self.spans = []      # perf_counter() at (entry, start, end) of each reschedule
        self.results = []    # RunResult per simulator.run call
        self.digests = []
        self._patches = []

    def install(self):
        self._patch(fc_simulator, "proposed_schedule", self._timed("proposed"))
        self._patch(fc_simulator, "baseline_schedule", self._timed("baseline"))
        self._patch(fc_cli, "run", self._keep(self.results))
        self._patch(fc_cli, "events_digest", self._keep(self.digests))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self):
        self.calls.clear()
        self.spans.clear()
        self.inputs.clear()
        self.results.clear()
        self.digests.clear()

    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def _timed(self, policy):
        def make(fn):
            def timed(*args, **kwargs):
                entry = time.perf_counter()  # the probe's own work starts here
                if policy == "proposed" and self.keep_inputs:
                    self.inputs[len(self.calls)] = copy.deepcopy((args, kwargs))
                if self.speed is not None:
                    self.speed.sample_if_due()
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    t1 = time.perf_counter()
                    self.spans.append((entry, t0, t1))
                    self.calls.append((policy, (t1 - t0) * 1000.0, None,
                                       f"{type(exc).__name__}: {exc}"))
                    raise
                t1 = time.perf_counter()
                self.spans.append((entry, t0, t1))
                self.calls.append((policy, (t1 - t0) * 1000.0, out, None))
                return out
            return timed
        return make

    @staticmethod
    def _keep(store):
        def make(fn):
            def keep(*args, **kwargs):
                out = fn(*args, **kwargs)
                store.append(out)
                return out
            return keep
        return make


def check_reschedules(probe: RescheduleProbe, policy: str, res: PassResult):
    """Count and audit the probe's reschedules of ``policy`` into ``res``.

    A proposed plan must pass the constraint audit.  A baseline plan is not
    built to meet the energy windows, so only its physical limits are checked.
    """
    for idx, (kind, ms, out, error) in enumerate(probe.calls):
        if kind != policy:
            continue
        res.attempted += 1
        res.solve_idx.append(idx)
        if error is not None:
            res.failed += 1
            res.problems.append(f"{kind} reschedule raised {error}")
            continue
        alloc, inst = out[0], out[-1]
        if alloc is None:
            res.failed += 1
            res.problems.append(f"{kind} reschedule returned no allocation")
            continue
        if kind == "proposed":
            res.objectives.append(float(out[1].objective))
            violations = build_constraints(inst).audit(alloc, AUDIT_TOL)
        else:
            violations = physical_violations(alloc, inst)
        if violations:
            res.failed += 1
            res.problems.append(f"{kind} plan at t={inst.grid.t_s:.4f} h: {violations}")


def physical_violations(alloc, inst) -> list:
    """Current, station-cap and charging-period limits of a plan."""
    if alloc.shape != (inst.horizon, inst.n_vehicles):
        return [f"dimension-mismatch: {alloc.shape}"]
    if alloc.size == 0:
        return []
    checks = [
        (alloc.min() < -AUDIT_TOL, "negative current"),
        (alloc.max() > inst.i_max + AUDIT_TOL, "vehicle current limit exceeded"),
        (alloc.sum(axis=1).max() > inst.ic_max + AUDIT_TOL, "station current limit exceeded"),
        (np.any(~inst.active & (np.abs(alloc) > AUDIT_TOL)),
         "allocation outside a vehicle's charging period"),
    ]
    return [msg for bad, msg in checks if bad]


def check_departures(result, band: float, res: PassResult):
    """Every serviced departure lands in [soc_dep, soc_dep + band]."""
    for d in result.departures:
        lo, hi = d.soc_dep_required - SOC_TOL, d.soc_dep_required + band + SOC_TOL
        if not lo <= d.soc_at_departure <= hi:
            res.failed += 1
            res.problems.append(
                f"{d.vehicle_id} departed at SoC {d.soc_at_departure:.6f}, "
                f"outside [{d.soc_dep_required:.6f}, {d.soc_dep_required + band:.6f}]")


def split_wall(res: PassResult, t0: float, spans: list, t1: float):
    """Cut the pass wall time [t0, t1] into reschedules and the work between.

    The probe's own work before each reschedule belongs to neither.  A pass
    replays its events in a fixed order, so the i-th piece is the same
    computation in every pass over the same inputs.
    """
    res.call_spans = [(start, end) for _, start, end in spans]
    ends = [t0, *(end for _, _, end in spans)]
    entries = [*(entry for entry, _, _ in spans), t1]
    res.gap_spans = list(zip(ends, entries))


class CpuRotation:
    """Pins this single-threaded process to its allowed CPUs in turn.

    On a shared host each CPU's speed swings on its own, for seconds to
    minutes at a time; running successive repeats on different CPUs makes it
    less likely that every repeat of a piece of work falls in a slow spell.
    """

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)
        self.turn = 0

    def next(self):
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def release(self):
        os.sched_setaffinity(0, self.allowed)


def repeat_proposed(probe: RescheduleProbe, cpus: CpuRotation, speed,
                    seconds: float) -> tuple:
    """Repeat the last pass's proposed reschedules on their own.

    Rounds over every kept reschedule, at least one and more while the next
    should end within ``seconds``, each on the next CPU of ``cpus``.  Each
    repeat runs on a fresh copy of the kept arguments, after a sample of the
    host's ``speed`` when one is due, and must return the plan of the pass.  Returns
    ({position in calls: [(start, end), ...]}, number of repeats, [problems]);
    a repeat that raised or changed its plan is a problem and has no span.
    """
    kept = {idx: inputs for idx, inputs in probe.inputs.items()
            if probe.calls[idx][2] is not None}
    spans = {idx: [] for idx in kept}
    problems = []
    t_start = time.perf_counter()
    rounds, last = 0, 0.0
    while kept and (not rounds or time.perf_counter() - t_start + last <= seconds):
        gc.collect()
        cpus.next()
        speed.sample()
        round_start = time.perf_counter()
        for idx, inputs in kept.items():
            args, kwargs = copy.deepcopy(inputs)
            speed.sample_if_due()
            t0 = time.perf_counter()
            try:
                out = fc_scheduler.proposed_schedule(*args, **kwargs)
            except Exception as exc:
                problems.append(f"repeated proposed reschedule {idx} raised "
                                f"{type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            if np.array_equal(out[0], probe.calls[idx][2][0]):
                spans[idx].append((t0, t1))
            else:
                problems.append(f"repeated proposed reschedule {idx} changed its plan")
        speed.sample()
        last = time.perf_counter() - round_start
        rounds += 1
    return spans, rounds * len(kept), problems


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def nonstrict_json_count(out_dir: Path) -> int:
    """JSON files in ``out_dir`` that a strict parser (no NaN/Infinity) rejects."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    bad = 0
    for p in sorted(out_dir.glob("*.json")):
        try:
            json.loads(p.read_text(), parse_constant=reject)
        except ValueError:
            bad += 1
    return bad


def report_files(out_dir: Path) -> list:
    """Deterministic report files; timing sidecars are excluded by design."""
    return [p for p in out_dir.iterdir()
            if p.is_file() and not p.name.startswith("timing")]


def load_inputs(sessions, prices, config, policy_kind="proposed"):
    """The CLI's own ingest: config, sessions, events and the price curve.

    Called through the module, so that a traced pass records the ingest layers.
    """
    cfg = fc_ingest.load_config(config)
    sim_config = cfg.sim_config(Policy(policy_kind, weights=cfg.weights))
    events, epoch = fc_ingest.sessions_to_events(fc_ingest.parse_sessions(sessions),
                                                 sim_config)
    return sim_config, events, fc_ingest.parse_prices(prices).as_fn(epoch)


# ---------------------------------------------------------------------------
# `fleetcharge compare` on the bundled week
# ---------------------------------------------------------------------------


class WeekCompare:
    name = "week-compare"
    # A pass takes about a whole run, so each proposed reschedule is also
    # repeated on its own after it, for a second sample of its latency.
    repeat_proposed = True

    def prepare(self, root: Path, work: Path, seed: int, tiny: bool) -> dict:
        fx = root / "fixtures"
        inputs = {"sessions": fx / "sessions_week.csv",
                  "prices": fx / "prices_week.csv",
                  "config": fx / "config_week.cfg"}
        if tiny:  # first day of the week only
            inputs["sessions"] = write_prefix(fx / "sessions_week.csv",
                                              work / "sessions_week_day1.csv", days=1)
        return inputs

    def ingest(self, inputs: dict):
        return load_inputs(inputs["sessions"], inputs["prices"], inputs["config"])

    def run_pass(self, ctx) -> PassResult:
        out_dir = ctx.out_dir / "cli"
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in out_dir.iterdir():
            p.unlink()
        argv = ["compare", "--sessions", str(ctx.inputs["sessions"]),
                "--prices", str(ctx.inputs["prices"]),
                "--config", str(ctx.inputs["config"]), "--out", str(out_dir)]
        probe = ctx.probe
        probe.reset()
        table = io.StringIO()  # the CLI prints its report table; keep it off stdout
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(table):
            rc = fc_cli.main(argv)
        t1 = time.perf_counter()
        with ctx.tracer.paused():
            res = PassResult(wall_s=t1 - t0)
            split_wall(res, t0, probe.spans, t1)
            check_reschedules(probe, "proposed", res)
            sim_config, events, _ = ctx.ingested
            res.events = len(events) * len(probe.results)
            if rc != 0:
                res.failed += 1
                res.problems.append(f"fleetcharge compare exited with {rc}")
            else:
                self.check(probe, res, sim_config.soc_xtra_ah / sim_config.c_bat, out_dir)
            res.report_digest = files_digest(report_files(out_dir))
            res.nonstrict_json_files = nonstrict_json_count(out_dir)
        return res

    @staticmethod
    def check(probe, res, band, out_dir):
        if len(probe.results) != 2:
            res.problems.append(f"compare ran {len(probe.results)} replays, expected 2")
            return
        base, prop = probe.results
        check_departures(prop, band, res)
        report = json.loads((out_dir / "compare_report.json").read_text())
        if len(probe.digests) != 2 or probe.digests[0] != probe.digests[1] \
                or report["events_digest"] != probe.digests[0]:
            res.problems.append("compare did not see equal event digests")
        for kind, result in (("baseline", base), ("proposed", prop)):
            if json.dumps(report[kind], sort_keys=True) != \
                    json.dumps(result.metrics.as_dict(), sort_keys=True):
                res.problems.append(f"compare_report.json {kind} metrics differ from the replay")
        res.cost_usd = prop.metrics.total_charging_cost
        res.fade_exact_ah = prop.metrics.total_fade_exact


def write_prefix(src: Path, dst: Path, days: int) -> Path:
    """Sessions of ``src`` that connect within its first ``days`` calendar days."""
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    first = min(r[1][:10] for r in body)
    cutoff = (datetime.fromisoformat(first) + timedelta(days=days)).date().isoformat()
    dst.parent.mkdir(parents=True, exist_ok=True)
    with dst.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(r for r in body if r[1][:10] < cutoff)
    return dst


# ---------------------------------------------------------------------------
# Baseline replay of a generated multi-week depot log
# ---------------------------------------------------------------------------

DEPOT_START = datetime(2021, 6, 7, tzinfo=timezone.utc)  # a Monday
DEPOT_CONFIG = """\
# Generated depot: 40 spaces on a 1200 A feeder, 30-minute slots.
dt_minutes = 30
voltage_v = 410
c_bat_ah = 210
i_max_a = 80
ic_max_a = 1200
soc_xtra_fraction = 0.10
battery_cost_usd = 11610
peak_threshold = 0.75
default_soc_start = 0.4
"""


def depot_sessions(rng, spaces: int, days: int) -> list:
    """Day, midday and overnight sessions per space; a space holds one car."""
    rows = []
    for s in range(spaces):
        free_at = DEPOT_START
        plan = []
        for day in range(days):
            base = DEPOT_START + timedelta(days=day)
            if rng.random() < 0.85:   # commuter: morning to late afternoon
                plan.append((base + timedelta(hours=7.0 + 2.5 * rng.random()),
                             6.0 + 4.0 * rng.random(), 8.0 + 32.0 * rng.random()))
            if rng.random() < 0.30:   # midday top-up
                plan.append((base + timedelta(hours=11.0 + 2.0 * rng.random()),
                             1.5 + 2.5 * rng.random(), 5.0 + 15.0 * rng.random()))
            if rng.random() < 0.85:   # overnight parker
                plan.append((base + timedelta(hours=17.0 + 3.0 * rng.random()),
                             10.0 + 4.0 * rng.random(), 15.0 + 30.0 * rng.random()))
        for k, (arr, dur_h, kwh) in enumerate(plan):
            arr = max(arr, free_at + timedelta(minutes=15))
            arr = arr.replace(microsecond=0)
            dep = arr + timedelta(seconds=round(dur_h * 3600.0))
            rows.append((f"D{s:02d}-{k:03d}", arr, dep, round(kwh, 2), f"DP-{s:02d}"))
            free_at = dep
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def write_depot_inputs(work: Path, seed: int, spaces: int, days: int) -> dict:
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    sessions = work / "sessions_depot.csv"
    with sessions.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SESSION_HEADER)
        for sid, arr, dep, kwh, space in depot_sessions(rng, spaces, days):
            writer.writerow([sid, arr.strftime(TS_FORMAT), dep.strftime(TS_FORMAT),
                             f"{kwh:g}", space])
    prices = work / "prices_depot.csv"
    daily = [0.040, 0.040, 0.026, 0.026, 0.026, 0.055, 0.055, 0.055, 0.055, 0.045,
             0.045, 0.019, 0.019, 0.019, 0.070, 0.070, 0.070, 0.125, 0.125, 0.125,
             0.125, 0.055, 0.055, 0.055]
    with prices.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "price_usd_per_kwh"])
        for hour in range(24 * (days + 2)):
            ts = DEPOT_START + timedelta(hours=hour)
            price = daily[hour % 24] * (1.0 + 0.05 * rng.standard_normal())
            writer.writerow([ts.strftime(TS_FORMAT), f"{max(price, 0.001):.5f}"])
    config = work / "config_depot.cfg"
    config.write_text(DEPOT_CONFIG)
    return {"sessions": sessions, "prices": prices, "config": config}


class DepotBaseline:
    name = "depot-baseline"
    repeat_proposed = False
    spaces, days = 40, 28

    def prepare(self, root: Path, work: Path, seed: int, tiny: bool) -> dict:
        days = 1 if tiny else self.days
        spaces = 4 if tiny else self.spaces
        return write_depot_inputs(work, seed, spaces, days)

    def ingest(self, inputs: dict):
        return load_inputs(inputs["sessions"], inputs["prices"], inputs["config"],
                           policy_kind="baseline")

    def run_pass(self, ctx) -> PassResult:
        # Ingest belongs to set-up: it runs in every pass so that a traced
        # pass records it, but stays outside the pass wall time.
        sim_config, events, prices_fn = self.ingest(ctx.inputs)
        probe = ctx.probe
        probe.reset()
        t0 = time.perf_counter()
        result = fc_simulator.run(events, prices_fn, sim_config)
        t1 = time.perf_counter()
        with ctx.tracer.paused():
            m = result.metrics
            res = PassResult(wall_s=t1 - t0, events=len(events),
                             cost_usd=m.total_charging_cost,
                             fade_exact_ah=m.total_fade_exact)
            split_wall(res, t0, probe.spans, t1)
            check_reschedules(probe, "baseline", res)
            # A baseline plan has no solver objective; its raw charging cost
            # stands in for it.
            res.objectives = [objective_components(out[0], out[-1]).cost
                              for _, _, out, err in probe.calls if err is None]
            ledger_cost = sum(e.cost_usd for e in result.ledger)
            if not math.isclose(ledger_cost, m.total_charging_cost, rel_tol=1e-9):
                res.problems.append("ledger cost does not add up to the reported total")
            res.report_digest = hashlib.sha256(
                json.dumps(m.as_dict(), sort_keys=True).encode()).hexdigest()
        return res


WORKLOADS = {w.name: w for w in (WeekCompare(), DepotBaseline())}
