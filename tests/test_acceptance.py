"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The replayed weeks come from the bundled fixtures; criterion tolerances are
asserted exactly as stated, never loosened at runtime.
"""

import json
import time

import numpy as np
import pytest

from fleetcharge.cli import main
from fleetcharge.fade import FadeModelParams, calendric_fade_approx, fade_fit_report
from fleetcharge.ingest import load_config, parse_prices, parse_sessions, sessions_to_events
from fleetcharge.problem import ChargingTask, build_constraints
from fleetcharge.scheduler import (
    FleetState,
    Policy,
    StationLimits,
    VehicleState,
    baseline_schedule,
    proposed_schedule,
)
from fleetcharge.simulator import run
from fleetcharge.solver import feasibility_check, solve

from conftest import make_instance, price_fn
from oracles import oracle_grid_search


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def compare_outputs(fixture_paths, tmp_path_factory):
    """One timed `compare` run on the replayed mixed week."""
    out = tmp_path_factory.mktemp("compare")
    args = ["compare",
            "--sessions", str(fixture_paths["sessions_week"]),
            "--prices", str(fixture_paths["prices_week"]),
            "--config", str(fixture_paths["config_week"]),
            "--out", str(out)]
    t0 = time.perf_counter()
    rc = main(args)
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return out, elapsed, args


def test_criterion_1_directional_week_comparison(compare_outputs):
    """Proposed vs business-as-usual on a replayed fixture week: charging
    cost down by at least 30%, exact fade down by at least 5%, peak power
    period down by at least 20%, charging time up, within five minutes."""
    out, elapsed, _ = compare_outputs
    report = json.loads((out / "compare_report.json").read_text())
    d = report["delta_percent"]
    checks = {
        "cost": d["total_charging_cost_usd"] <= -30.0,
        "fade": d["total_fade_exact_ah"] <= -5.0,
        "peak": d["total_peak_power_period_h"] <= -20.0,
        "time": d["total_charging_time_h"] > 0.0,
        "runtime": elapsed <= 300.0,
    }
    detail = (
        f"cost {d['total_charging_cost_usd']:.1f}% (<= -30), "
        f"fade {d['total_fade_exact_ah']:.1f}% (<= -5), "
        f"peak {d['total_peak_power_period_h']:.1f}% (<= -20), "
        f"time {d['total_charging_time_h']:+.1f}% (> 0), "
        f"runtime {elapsed:.1f}s (<= 300)"
    )
    assert verdict(1, all(checks.values()), detail), detail


def test_criterion_2_solver_oracle_gap():
    """On randomized instances inside the oracle guard, the solver's
    normalized objective stays within 2% of the brute-force grid value and
    every solution passes the full constraint audit at 1e-6."""
    rng = np.random.default_rng(20210509)
    t0 = time.perf_counter()
    checked = 0
    worst_gap = -np.inf
    while checked < 20:
        n = int(rng.integers(1, 4))
        tt = int(rng.integers(2, 5)) if n < 3 else int(rng.integers(2, 5))
        while n * tt > 12:
            tt -= 1
        tasks = []
        for v in range(n):
            soc_start = float(rng.uniform(0.25, 0.55))
            level = int(rng.integers(1, min(7, 2 * tt) + 1))
            demand_ah = level * (80.0 / 7.0) * 0.5
            tasks.append(ChargingTask(
                f"v{v}", 0.0, tt * 0.5, soc_start,
                min(1.0, soc_start + demand_ah / 210.0),
            ))
        prices = {i * 0.5: float(rng.uniform(0.02, 0.25)) for i in range(tt)}
        inst = make_instance(
            tasks, prices=lambda t: prices[t],
            i_max=80.0, ic_max=float(rng.choice([120.0, 160.0, 400.0])),
            soc_xtra_ah=0.0,
        )
        weights = tuple(rng.uniform(0.1, 1.0, size=3))
        if not feasibility_check(inst).feasible:
            continue
        alloc, rep = solve(inst, weights)
        audit = build_constraints(inst).audit(alloc, 1e-6)
        assert audit == [], f"instance {checked}: {audit}"
        _, oracle_obj = oracle_grid_search(inst, weights, levels=8)
        gap = (rep.objective - oracle_obj) / max(abs(oracle_obj), 1e-9)
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.02, f"instance {checked}: gap {gap:.4f}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 20 and worst_gap <= 0.02 and elapsed <= 30.0
    assert verdict(
        2, ok,
        f"{checked} instances, worst gap {worst_gap * 100:.2f}% (<= 2%), "
        f"audits clean at 1e-6, runtime {elapsed:.1f}s (<= 30)",
    )


def test_criterion_3_real_time_bound():
    """A 14-vehicle, 100-slot synthetic event schedules in under a second."""
    limits = StationLimits(dt=0.5, i_max=80.0, ic_max=400.0, voltage=410.0,
                           c_bat=210.0, soc_xtra_ah=21.0,
                           fade_params=FadeModelParams())
    state = FleetState(now=0.0)
    for k in range(14):
        t_dep = 20.0 + 30.0 * k / 13.0
        task = ChargingTask(f"v{k:02d}", 0.0, t_dep,
                            0.35 + 0.02 * (k % 4), 0.80 + 0.01 * (k % 3))
        state.vehicles[task.vehicle_id] = VehicleState(task=task, soc_cur=task.soc_start)

    def prices(t):
        return 0.02 + 0.05 * (1 + np.sin(0.5 * (t % 24)))

    t0 = time.perf_counter()
    alloc, rep, inst = proposed_schedule(state, (1.0, 1.0, 1.0), limits, prices)
    ms = (time.perf_counter() - t0) * 1000.0
    ok = ms < 1000.0 and inst.horizon == 100 and alloc is not None
    assert verdict(3, ok, f"14 vehicles x {inst.horizon} slots in {ms:.0f} ms (< 1000)")


def test_criterion_4_fade_model_fidelity():
    """Quadratic-vs-exact fit quality on the default validation grid, plus
    the exact calendric intercept."""
    t0 = time.perf_counter()
    params = FadeModelParams()
    report = fade_fit_report(params, n=100)
    intercept = calendric_fade_approx(0.0, params)
    elapsed = time.perf_counter() - t0
    ok = (report["hi"]["r_squared"] >= 0.99
          and report["lo"]["r_squared"] >= 0.99
          and intercept == 5.356e-5
          and elapsed <= 5.0)
    assert verdict(
        4, ok,
        f"R^2 hi {report['hi']['r_squared']:.4f}, lo {report['lo']['r_squared']:.4f} "
        f"(>= 0.99); calendric(0) = {intercept!r} (= 5.356e-5); "
        f"runtime {elapsed:.2f}s (<= 5)",
    )


def test_criterion_5_constraint_realization(fixture_paths):
    """Replaying the full fixture week under the proposed policy, every
    serviced vehicle departs inside its SoC window and the station current
    cap holds in every realized slot."""
    cfg = load_config(fixture_paths["config_week"]).sim_config(Policy("proposed"))
    records = parse_sessions(fixture_paths["sessions_week"])
    events, epoch = sessions_to_events(records, cfg)
    prices_fn = parse_prices(fixture_paths["prices_week"]).as_fn(epoch)
    result = run(events, prices_fn, cfg)

    band = cfg.soc_xtra_ah / cfg.c_bat
    soc_ok = all(
        d.soc_dep_required - 1e-6 <= d.soc_at_departure <= d.soc_dep_required + band + 1e-6
        for d in result.departures
    )
    by_time = {}
    for e in result.ledger:
        key = round(e.time_h, 9)
        by_time[key] = by_time.get(key, 0.0) + e.current_a
    worst = max(by_time.values()) if by_time else 0.0
    cap_ok = worst <= cfg.ic_max + 1e-6
    ok = soc_ok and cap_ok and len(result.departures) == len(records)
    assert verdict(
        5, ok,
        f"{len(result.departures)} departures in [soc_dep, soc_dep+{band:.3f}]: "
        f"{soc_ok}; max station current {worst:.2f} A <= {cfg.ic_max:.0f} A: {cap_ok}",
    )


def test_criterion_6_deferred_charging():
    """With only the fade objective and a generous deadline, charge moves
    strictly later than the maximum-power baseline places it."""
    limits = StationLimits(dt=0.5, i_max=80.0, ic_max=400.0, voltage=410.0,
                           c_bat=210.0, soc_xtra_ah=21.0,
                           fade_params=FadeModelParams())
    task = ChargingTask("v", 0.0, 10.0, 0.4, 0.75)
    state = FleetState(now=0.0)
    state.vehicles["v"] = VehicleState(task=task, soc_cur=0.4)
    base_alloc, _ = baseline_schedule(state, limits, price_fn(0.1))
    prop_alloc, _, _ = proposed_schedule(state, (0.0, 1.0, 0.0), limits, price_fn(0.1))

    def mean_slot(a):
        w = a.sum(axis=1)
        return float((np.arange(len(w)) * w).sum() / w.sum())

    mb, mp = mean_slot(base_alloc), mean_slot(prop_alloc)
    assert verdict(6, mp > mb, f"charge-weighted mean slot {mp:.2f} > baseline {mb:.2f}")


def test_criterion_7_weight_sweep(fixture_paths, tmp_path):
    """Across the three weight triples, the cheapest week is the
    cost-weighted one and the shortest charging time is the
    availability-weighted one."""
    out = tmp_path / "sweep"
    rc = main(["sweep",
               "--sessions", str(fixture_paths["sessions_overnight"]),
               "--prices", str(fixture_paths["prices_overnight"]),
               "--config", str(fixture_paths["config_overnight"]),
               "--out", str(out)])
    assert rc == 0
    import csv
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    costs = [float(r["total_charging_cost_usd"]) for r in rows]
    times = [float(r["total_charging_time_h"]) for r in rows]
    ok = costs.index(min(costs)) == 0 and times.index(min(times)) == 2
    assert verdict(
        7, ok,
        f"costs {[round(c, 2) for c in costs]} min at triple 1: "
        f"{costs.index(min(costs)) == 0}; "
        f"times {[round(t, 2) for t in times]} min at triple 3: "
        f"{times.index(min(times)) == 2}",
    )


def test_criterion_8_determinism(compare_outputs, tmp_path):
    """A second `compare` run on identical inputs reproduces every report
    byte for byte."""
    out1, _, args = compare_outputs
    out2 = tmp_path / "again"
    rerun = args[:-1] + [str(out2)]
    assert main(rerun) == 0
    names = ["compare_report.txt", "compare_report.json",
             "metrics_baseline.json", "metrics_proposed.json",
             "ledger_baseline.csv", "ledger_proposed.csv"]
    different = [n for n in names
                 if (out1 / n).read_bytes() != (out2 / n).read_bytes()]
    assert verdict(
        8, not different,
        "byte-identical reports" if not different else f"differ: {different}",
    )
