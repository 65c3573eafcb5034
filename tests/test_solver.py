"""Solver tests: feasibility, optimality direction, oracle gap, determinism."""

import dataclasses
import warnings

import numpy as np
import pytest

from fleetcharge.problem import (
    ChargingTask,
    build_constraints,
    compute_normalization_points,
    normalized_objective,
    objective_components,
)
import fleetcharge.solver as solver_module
from fleetcharge.solver import (
    _MOVE_POLISH_CELLS,
    _SWAP_POLISH_ACTIVES,
    OracleError,
    SolveStatus,
    _column_parts,
    _fill_forward,
    _fill_latest,
    _fill_spread,
    _local_move_polish,
    _normalized_score,
    _project_vehicle_windows,
    _relocation_candidates,
    _repair_exact,
    _swap_candidates,
    feasibility_check,
    oracle_grid_search,
    single_objective_minimizer,
    solve,
)

from conftest import make_instance


def _points(inst):
    return compute_normalization_points(
        inst, lambda i, k: single_objective_minimizer(i, k)
    )


class TestFeasibilityCheck:
    def test_vehicle_counting_bound(self):
        # needs 120 Ah, can receive 50 A * 2 h = 100 Ah
        inst = make_instance(
            [ChargingTask("v", 0.0, 2.0, 0.2, 0.8)], i_max=50.0, ic_max=50.0, c_bat=200.0
        )
        res = feasibility_check(inst)
        assert not res.feasible
        assert res.reason == "vehicle-capacity"

    def test_station_counting_bound(self):
        # each vehicle fits alone (60 Ah <= 40 A * 2 h), jointly they need
        # 120 Ah but the station can deliver only 50 A * 2 h = 100 Ah
        tasks = [
            ChargingTask("a", 0.0, 2.0, 0.2, 0.5),
            ChargingTask("b", 0.0, 2.0, 0.2, 0.5),
        ]
        inst = make_instance(tasks, i_max=40.0, ic_max=50.0, c_bat=200.0)
        res = feasibility_check(inst)
        assert not res.feasible
        assert res.reason == "station-capacity"

    def test_zero_need_always_feasible(self):
        inst = make_instance([ChargingTask("v", 0.0, 2.0, 0.9, 0.5)])
        res = feasibility_check(inst)
        assert res.feasible
        assert np.allclose(res.point, 0.0)

    def test_feasible_point_passes_audit(self, two_by_three_instance):
        res = feasibility_check(two_by_three_instance)
        assert res.feasible
        assert build_constraints(two_by_three_instance).audit(res.point, 1e-6) == []


class TestSolveDirections:
    def test_cost_only_prefers_cheap_slot(self):
        """Demand fillable in one slot with prices (0.30, 0.10): all charge
        lands in the cheap second slot."""
        task = ChargingTask("v", 0.0, 1.0, 0.5, 0.69)  # 39.9 Ah on 210
        prices = {0.0: 0.30, 0.5: 0.10}
        inst = make_instance(
            [task], prices=lambda t: prices[t], weights=(1, 0, 0), i_max=80.0
        )
        alloc, rep = solve(inst)
        assert rep.status == SolveStatus.OPTIMAL_LOCAL
        assert alloc[1, 0] > 75.0
        assert alloc[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_availability_only_prefers_early_slot(self):
        task = ChargingTask("v", 0.0, 1.0, 0.5, 0.69)
        prices = {0.0: 0.30, 0.5: 0.10}
        inst = make_instance(
            [task], prices=lambda t: prices[t], weights=(0, 0, 1), i_max=80.0
        )
        alloc, _ = solve(inst)
        assert alloc[0, 0] > 75.0
        assert alloc[1, 0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_instance(self):
        inst = make_instance([])
        alloc, rep = solve(inst)
        assert alloc.shape == (0, 0)
        assert rep.status == SolveStatus.OPTIMAL_LOCAL

    def test_infeasible_returns_none(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 2.0, 0.2, 0.8)], i_max=50.0, ic_max=50.0, c_bat=200.0
        )
        alloc, rep = solve(inst)
        assert alloc is None
        assert rep.status == SolveStatus.INFEASIBLE
        assert rep.branch_assignment is None


class TestSolveContracts:
    def _random_instance(self, rng):
        n = rng.integers(1, 4)
        tasks = []
        for v in range(n):
            tt_target = rng.integers(2, 5)
            t_dep = tt_target * 0.5
            soc_start = float(rng.uniform(0.2, 0.6))
            soc_dep = float(min(1.0, soc_start + rng.uniform(0.05, 0.3)))
            tasks.append(ChargingTask(f"v{v}", 0.0, t_dep, soc_start, soc_dep))
        prices = {i * 0.5: float(rng.uniform(0.02, 0.3)) for i in range(8)}
        return make_instance(
            tasks,
            prices=lambda t: prices[t],
            i_max=80.0,
            ic_max=float(rng.choice([120.0, 200.0, 400.0])),
            soc_xtra_ah=float(rng.choice([0.0, 10.0, 21.0])),
            weights=tuple(rng.uniform(0.1, 1.0, size=3)),
        )

    def test_solutions_satisfy_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            inst = self._random_instance(rng)
            if not feasibility_check(inst).feasible:
                continue
            alloc, rep = solve(inst)
            assert build_constraints(inst).audit(alloc, 1e-6) == []
            assert rep.breakdown is not None
            assert rep.wall_time_ms >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        inst = self._random_instance(rng)
        a1, r1 = solve(inst)
        a2, r2 = solve(inst)
        assert np.array_equal(a1, a2)
        assert r1.objective == r2.objective

    def test_beats_feasible_warm_start(self):
        """A feasible maximum-power-style schedule is a descent start, so
        the returned objective never exceeds its objective."""
        task = ChargingTask("v", 0.0, 2.0, 0.5, 0.9)  # 84 Ah on 210
        prices = {i * 0.5: p for i, p in enumerate([0.3, 0.1, 0.2, 0.05])}
        inst = make_instance(
            [task], prices=lambda t: prices[t], soc_xtra_ah=21.0, i_max=80.0
        )
        warm = np.zeros((4, 1))
        warm[0, 0] = 80.0
        warm[1, 0] = 80.0
        warm[2, 0] = 10.0  # 85 Ah total, inside [84, 105]
        assert build_constraints(inst).audit(warm, 1e-9) == []
        pts = _points(inst)
        alloc, rep = solve(inst, points=pts, warm_start=warm)
        warm_obj = normalized_objective(objective_components(warm, inst), pts, inst.weights)
        assert rep.objective <= warm_obj + 1e-12

    def test_weight_monotone_cost_component(self):
        """Raising the cost weight never raises the cost component."""
        task = ChargingTask("v", 0.0, 1.5, 0.4, 0.7)
        prices = {0.0: 0.30, 0.5: 0.05, 1.0: 0.15}
        costs = []
        for a1 in (0.2, 1.0, 2.0, 5.0):
            inst = make_instance(
                [task], prices=lambda t: prices[t], weights=(a1, 1.0, 1.0), i_max=80.0
            )
            _, rep = solve(inst)
            costs.append(rep.breakdown.cost)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_branch_assignment_shape(self, two_by_three_instance):
        alloc, rep = solve(two_by_three_instance)
        assert rep.branch_assignment.shape == alloc.shape


class TestOracle:
    def test_cell_guard(self):
        tasks = [ChargingTask(f"v{v}", 0.0, 4.0, 0.4, 0.6) for v in range(4)]
        inst = make_instance(tasks)  # 8 slots x 4 vehicles
        with pytest.raises(OracleError, match="instance-too-large"):
            oracle_grid_search(inst)

    def test_unique_point_at_exact_demand(self):
        """Demand equal to one full-power slot leaves only the top grid level."""
        inst = make_instance(
            [ChargingTask("v", 0.0, 0.5, 0.5, 0.5 + 40.0 / 210.0)], i_max=80.0
        )
        alloc, _ = oracle_grid_search(inst, levels=8)
        assert alloc[0, 0] == pytest.approx(80.0)

    def test_cheap_slot_selection(self):
        prices = {0.0: 0.30, 0.5: 0.10}
        inst = make_instance(
            [ChargingTask("v", 0.0, 1.0, 0.5, 0.5 + 40.0 / 210.0)],
            prices=lambda t: prices[t],
            weights=(1, 0, 0),
            i_max=80.0,
        )
        alloc, _ = oracle_grid_search(inst, levels=8)
        assert alloc[1, 0] == pytest.approx(80.0)
        assert alloc[0, 0] == pytest.approx(0.0)

    def test_no_feasible_grid_point(self):
        """Two vehicles whose only window-nearest grid level is full power,
        but the station cap excludes charging both: the continuum is
        feasible, the two-level grid is not."""
        tasks = [
            ChargingTask("a", 0.0, 0.5, 0.4, 0.4 + 24.0 / 210.0),  # 24 Ah = 48 A
            ChargingTask("b", 0.0, 0.5, 0.4, 0.4 + 24.0 / 210.0),
        ]
        inst = make_instance(tasks, i_max=80.0, ic_max=104.0)
        assert feasibility_check(inst).feasible
        with pytest.raises(OracleError, match="no-feasible-grid-point"):
            oracle_grid_search(inst, levels=2)

    def test_solve_within_gap_on_small_instances(self):
        """Continuous solve lands within 2% of the grid oracle (often below
        it, since the grid is itself suboptimal)."""
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(6):
            n = int(rng.integers(1, 3))
            tt = int(rng.integers(2, 4))
            tasks = []
            for v in range(n):
                soc_start = float(rng.uniform(0.3, 0.5))
                # demand snapped to the oracle grid so the window floor is hit
                level = 80.0 / 7.0 * rng.integers(1, min(2 * tt, 6))
                tasks.append(
                    ChargingTask(
                        f"v{v}", 0.0, tt * 0.5, soc_start,
                        min(1.0, soc_start + level * 0.5 / 210.0),
                    )
                )
            prices = {i * 0.5: float(rng.uniform(0.02, 0.25)) for i in range(tt)}
            inst = make_instance(
                tasks, prices=lambda t: prices[t],
                i_max=80.0, ic_max=120.0, soc_xtra_ah=0.0,
                weights=tuple(rng.uniform(0.2, 1.0, size=3)),
            )
            if not feasibility_check(inst).feasible:
                continue
            pts = _points(inst)
            alloc, rep = solve(inst, points=pts)
            _, oracle_obj = oracle_grid_search(inst, levels=8, points=pts)
            scale = max(abs(oracle_obj), 1e-9)
            assert rep.objective <= oracle_obj + 0.02 * scale
            checked += 1
        assert checked >= 4


def _bisection_projection(y, inst, steps=200):
    """Reference column projection: bisection on the multiplier of
    ``x = clip(y + lam * d, 0, ub)``; an unreachable target ends at the top
    of the bracket, i.e. the box top."""
    ub = np.where(inst.active, inst.i_max, 0.0)
    x = np.clip(y, 0.0, ub)
    d = inst.durations
    for v in range(inst.n_vehicles):
        s = float(x[:, v] @ d[:, v])
        if inst.e_lo[v] - 1e-12 <= s <= inst.e_hi[v] + 1e-12:
            continue
        target = inst.e_lo[v] if s < inst.e_lo[v] else inst.e_hi[v]
        live = d[:, v] > 0
        dl, yl, ul = d[live, v], y[live, v], ub[live, v]
        span = float(np.max(np.maximum((ul - yl) / dl, np.abs(yl) / dl), initial=0.0)) + 1.0
        lo, hi = -span, span
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if np.clip(y[:, v] + mid * d[:, v], 0.0, ub[:, v]) @ d[:, v] < target:
                lo = mid
            else:
                hi = mid
        x[:, v] = np.clip(y[:, v] + 0.5 * (lo + hi) * d[:, v], 0.0, ub[:, v])
    return x


class TestProjection:
    def _case(self, rng):
        """Random columns on an 8-slot grid: idle (d = 0) active cells,
        inactive tails, windows that hold the clipped column, sit above it
        or below it, and one floor no current in the box can reach."""
        h, n = 8, 7
        slots = [h] + [int(rng.integers(3, h + 1)) for _ in range(n - 1)]
        tasks = [ChargingTask(f"v{v}", 0.0, 0.5 * tt, 0.2, 0.9) for v, tt in enumerate(slots)]
        base = make_instance(tasks, i_max=80.0, ic_max=400.0, soc_xtra_ah=21.0)
        active = base.active
        durations = np.where(active, rng.uniform(0.05, 0.5, size=(h, n)), 0.0)
        durations[rng.random((h, n)) < 0.2] = 0.0
        y = rng.normal(30.0, 60.0, size=(h, n))
        ub = np.where(active, base.i_max, 0.0)
        clipped = (np.clip(y, 0.0, ub) * durations).sum(axis=0)
        top = (ub * durations).sum(axis=0)
        e_lo, e_hi = np.empty(n), np.empty(n)
        for v in range(n):
            kind = v % 4 if v < n - 1 else 4
            if kind == 0:    # already inside
                e_lo[v], e_hi[v] = 0.5 * clipped[v], clipped[v] + 1.0
            elif kind == 1:  # floor above the clipped column
                e_lo[v] = clipped[v] + rng.uniform(0.1, 0.9) * (top[v] - clipped[v])
                e_hi[v] = e_lo[v] + 5.0
            elif kind == 2:  # top below the clipped column
                e_hi[v] = rng.uniform(0.1, 0.9) * clipped[v]
                e_lo[v] = 0.5 * e_hi[v]
            elif kind == 3:  # nothing may be delivered
                e_lo[v] = e_hi[v] = 0.0
            else:            # unreachable floor
                e_lo[v], e_hi[v] = top[v] + 10.0, top[v] + 20.0
        inst = dataclasses.replace(base, durations=durations, e_lo=e_lo, e_hi=e_hi)
        return y, inst, top

    def test_matches_bisection_inside_box_and_window(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            y, inst, top = self._case(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = _project_vehicle_windows(y, inst)
            ub = np.where(inst.active, inst.i_max, 0.0)
            assert np.all(x >= 0.0) and np.all(x <= ub)
            delivered = (x * inst.durations).sum(axis=0)
            reachable = inst.e_lo <= top
            assert np.all(delivered[reachable] >= inst.e_lo[reachable] - 1e-9)
            assert np.all(delivered[reachable] <= inst.e_hi[reachable] + 1e-9)
            assert np.all(delivered[~reachable] == top[~reachable])
            zero_top = (inst.durations > 0) & (inst.e_hi == 0.0)[None, :]
            assert np.all(x[zero_top] == 0.0)  # a zero top is met exactly
            np.testing.assert_allclose(x, _bisection_projection(y, inst), rtol=0.0, atol=1e-9)

    def test_unreachable_floor_is_box_top(self):
        y, inst, _ = self._case(np.random.default_rng(7))
        v = inst.n_vehicles - 1
        x = _project_vehicle_windows(y, inst)
        ub = np.where(inst.active, inst.i_max, 0.0)
        live = inst.durations[:, v] > 0
        assert np.array_equal(x[live, v], ub[live, v])
        assert np.array_equal(x[~live, v], np.clip(y[~live, v], 0.0, ub[~live, v]))


def _oracle_sized_instances(seed, count):
    """Instances drawn like acceptance criterion 2's (at most 12 cells)."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        n = int(rng.integers(1, 4))
        tt = int(rng.integers(2, 5))
        while n * tt > 12:
            tt -= 1
        tasks = []
        for v in range(n):
            soc_start = float(rng.uniform(0.25, 0.55))
            demand_ah = int(rng.integers(1, min(7, 2 * tt) + 1)) * (80.0 / 7.0) * 0.5
            tasks.append(ChargingTask(f"v{v}", 0.0, float(rng.integers(1, tt + 1)) * 0.5,
                                      soc_start, min(1.0, soc_start + demand_ah / 210.0)))
        prices = {i * 0.5: float(rng.uniform(0.02, 0.25)) for i in range(tt)}
        inst = make_instance(
            tasks, prices=lambda t, p=prices: p[t],
            i_max=80.0, ic_max=float(rng.choice([120.0, 160.0, 400.0])),
            soc_xtra_ah=float(rng.choice([0.0, 21.0])),
            weights=tuple(rng.uniform(0.1, 1.0, size=3)),
        )
        fc = feasibility_check(inst)
        if fc.feasible:
            found.append((inst, fc.point))
    return found


def _reference_polish(x, inst, objective_fn):
    """Local-move polish scoring every candidate as a full allocation."""
    if inst.horizon * inst.n_vehicles > _MOVE_POLISH_CELLS or x.size == 0:
        return x
    x = x.copy()
    best = objective_fn(x)
    for _ in range(6):
        col_sum = x.sum(axis=1)
        candidates = []
        for v in range(inst.n_vehicles):
            for col in _relocation_candidates(x, inst, col_sum, v):
                cand = x.copy()
                cand[:, v] = col
                candidates.append(cand)
        if int((x > 0).sum()) <= _SWAP_POLISH_ACTIVES:
            for u, v, col_u, col_v in _swap_candidates(x, inst, col_sum):
                cand = x.copy()
                cand[:, u], cand[:, v] = col_u, col_v
                candidates.append(cand)
        move = None
        for cand in candidates:
            obj = objective_fn(cand)
            if obj < best - 1e-12:
                best, move = obj, cand
        if move is None:
            break
        x = move
    return x


class TestColumnBatchedPolish:
    def test_column_parts_sum_to_objective_components(self):
        rng = np.random.default_rng(8)
        for inst, _ in _oracle_sized_instances(8, 12):
            alloc = rng.uniform(0.0, inst.i_max, size=(inst.horizon, inst.n_vehicles))
            alloc[rng.random(alloc.shape) < 0.4] = 0.0
            alloc[~inst.active & (rng.random(alloc.shape) < 0.5)] = 0.0
            parts = _column_parts(alloc, np.arange(inst.n_vehicles), inst)
            ref = objective_components(alloc, inst)
            np.testing.assert_allclose(
                parts.sum(axis=0), [ref.cost, ref.fade, ref.availability], rtol=1e-12
            )

    @pytest.mark.parametrize("batch_cells", [None, 1])
    def test_same_moves_as_full_allocation_scoring(self, batch_cells, monkeypatch):
        """Also with one candidate per batch, so the running best carries
        across batches."""
        if batch_cells is not None:
            monkeypatch.setattr(solver_module, "_POLISH_BATCH_CELLS", batch_cells)
        moved = 0
        for inst, point in _oracle_sized_instances(20210509, 12):
            pts = _points(inst)
            normalized = _normalized_score(pts, inst.weights)
            scorers = [
                (normalized, lambda a: normalized_objective(
                    objective_components(a, inst), pts, inst.weights)),
                (lambda parts: parts[:, 1], lambda a: objective_components(a, inst).fade),
            ]
            for start in (_fill_forward(inst), _fill_latest(inst), _fill_spread(inst)):
                x0 = _repair_exact(start, inst, anchor=point)
                for batched, full in scorers:
                    got = _local_move_polish(x0, inst, batched)
                    assert np.array_equal(got, _reference_polish(x0, inst, full))
                    moved += not np.array_equal(got, x0)
        assert moved >= 20
