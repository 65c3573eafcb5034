"""Solver tests: feasibility, optimality direction, oracle gap, determinism."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from fleetcharge.problem import (
    COMPONENTS,
    NORMALIZATION_EPS,
    ChargingTask,
    build_constraints,
    compute_normalization_points,
    max_power_allocation,
    normalized_objective,
    objective_components,
    soc_before_slots,
)
from fleetcharge.fade import BranchCoefficients
from fleetcharge.scheduler import ZERO_PRICES
import fleetcharge.solver as solver_module
from fleetcharge.solver import (
    _MOVE_POLISH_CELLS,
    _SWAP_POLISH_ACTIVES,
    SolveStatus,
    _BestTracker,
    _avail_coeffs,
    _branch_fixed_descent,
    _column_parts,
    _cost_coeffs,
    _derive_branches,
    _descend,
    _fill_latest,
    _fill_spread,
    _LinearProgram,
    _local_move_polish,
    _lp_matrices,
    _move_columns,
    _neighbourhood,
    _normalized_score,
    _score_moves,
    _Projector,
    _repair_exact,
    _Surrogate,
    _zero_snap_polish,
    feasibility_check,
    single_objective_minimizer,
    solve,
)

from conftest import ROOT, make_instance
from oracles import OracleError, oracle_grid_search


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

    def test_point_is_the_cost_vertex(self, two_by_three_instance):
        """The point is the cost LP's vertex, the one ``solve`` anchors on."""
        inst = two_by_three_instance
        want = _LinearProgram(inst)(_cost_coeffs(inst))
        assert feasibility_check(inst).point.tobytes() == want.tobytes()

    def test_zero_prices_solve_the_zero_cost_lp(self):
        """At zero prices, as in admission, every cost entry is +0.0, so the
        verdict solves the zero-cost LP byte for byte: same verdict, same
        vertex."""
        for inst in TestLinearProgram._instances():
            inst = dataclasses.replace(inst, wep=ZERO_PRICES(inst.wep))
            zero = inst.empty_allocation()
            assert _cost_coeffs(inst).tobytes() == zero.tobytes()
            got, ref = feasibility_check(inst), _LinearProgram(inst)(zero)
            assert got.feasible == (ref is not None)
            assert ref is None or got.point.tobytes() == ref.tobytes()


class TestSolveDirections:
    def test_cost_only_prefers_cheap_slot(self):
        """Demand fillable in one slot with prices (0.30, 0.10): all charge
        lands in the cheap second slot."""
        task = ChargingTask("v", 0.0, 1.0, 0.5, 0.69)  # 39.9 Ah on 210
        prices = {0.0: 0.30, 0.5: 0.10}
        inst = make_instance([task], prices=lambda t: prices[t], i_max=80.0)
        alloc, rep = solve(inst, (1, 0, 0))
        assert rep.status == SolveStatus.OPTIMAL_LOCAL
        assert alloc[1, 0] > 75.0
        assert alloc[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_availability_only_prefers_early_slot(self):
        task = ChargingTask("v", 0.0, 1.0, 0.5, 0.69)
        prices = {0.0: 0.30, 0.5: 0.10}
        inst = make_instance([task], prices=lambda t: prices[t], i_max=80.0)
        alloc, _ = solve(inst, (0, 0, 1))
        assert alloc[0, 0] > 75.0
        assert alloc[1, 0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_instance(self):
        inst = make_instance([])
        alloc, rep = solve(inst, (1.0, 1.0, 1.0))
        assert alloc.shape == (0, 0)
        assert rep.status == SolveStatus.OPTIMAL_LOCAL

    def test_infeasible_returns_none(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 2.0, 0.2, 0.8)], i_max=50.0, ic_max=50.0, c_bat=200.0
        )
        alloc, rep = solve(inst, (1.0, 1.0, 1.0))
        assert alloc is None
        assert rep.status == SolveStatus.INFEASIBLE
        assert rep.breakdown is None


class TestSolveContracts:
    def _random_instance(self, rng):
        """A random instance and objective weights, drawn after it."""
        n = rng.integers(1, 4)
        tasks = []
        for v in range(n):
            tt_target = rng.integers(2, 5)
            t_dep = tt_target * 0.5
            soc_start = float(rng.uniform(0.2, 0.6))
            soc_dep = float(min(1.0, soc_start + rng.uniform(0.05, 0.3)))
            tasks.append(ChargingTask(f"v{v}", 0.0, t_dep, soc_start, soc_dep))
        prices = {i * 0.5: float(rng.uniform(0.02, 0.3)) for i in range(8)}
        inst = make_instance(
            tasks,
            prices=lambda t: prices[t],
            i_max=80.0,
            ic_max=float(rng.choice([120.0, 200.0, 400.0])),
            soc_xtra_ah=float(rng.choice([0.0, 10.0, 21.0])),
        )
        return inst, tuple(rng.uniform(0.1, 1.0, size=3))

    def test_solutions_satisfy_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            inst, weights = self._random_instance(rng)
            if not feasibility_check(inst).feasible:
                continue
            alloc, rep = solve(inst, weights)
            assert build_constraints(inst).audit(alloc, 1e-6) == []
            assert rep.breakdown is not None
            assert rep.wall_time_ms >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        inst, weights = self._random_instance(rng)
        a1, r1 = solve(inst, weights)
        a2, r2 = solve(inst, weights)
        assert np.array_equal(a1, a2)
        assert r1.objective == r2.objective

    def test_beats_feasible_warm_start(self):
        """The maximum-power allocation is the first descent start, so when
        it is feasible the returned objective never exceeds its objective."""
        task = ChargingTask("v", 0.0, 2.0, 0.5, 0.9)  # 84 Ah on 210
        prices = {i * 0.5: p for i, p in enumerate([0.3, 0.1, 0.2, 0.05])}
        inst = make_instance(
            [task], prices=lambda t: prices[t], soc_xtra_ah=21.0, i_max=80.0
        )
        warm = max_power_allocation(inst)
        np.testing.assert_array_equal(warm[:, 0], [80.0, 80.0, 50.0, 0.0])  # 105 Ah: full
        assert build_constraints(inst).audit(warm, 1e-9) == []
        pts = _points(inst)
        alloc, rep = solve(inst, (1.0, 1.0, 1.0))
        warm_obj = normalized_objective(objective_components(warm, inst), pts, (1.0, 1.0, 1.0))
        assert rep.objective <= warm_obj + 1e-12

    def test_weight_monotone_cost_component(self):
        """Raising the cost weight never raises the cost component."""
        task = ChargingTask("v", 0.0, 1.5, 0.4, 0.7)
        prices = {0.0: 0.30, 0.5: 0.05, 1.0: 0.15}
        costs = []
        for a1 in (0.2, 1.0, 2.0, 5.0):
            inst = make_instance([task], prices=lambda t: prices[t], i_max=80.0)
            _, rep = solve(inst, (a1, 1.0, 1.0))
            costs.append(rep.breakdown.cost)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_payoff_table_does_not_depend_on_the_weights(self):
        """One frozen instance solved under the sweep's three default triples
        and under cost alone: the payoff points are the same every time,
        every plan passes the audit, and the weights move the plan."""
        inst = TestLinearProgram._sweep_instance()
        plans, points = [], []
        for weights in ((0.6, 0.3, 0.1), (0.3, 0.6, 0.1), (0.1, 0.3, 0.6), (1.0, 0.0, 0.0)):
            alloc, rep = solve(inst, weights)
            assert build_constraints(inst).audit(alloc, 1e-6) == []
            plans.append(alloc.tobytes())
            points.append(rep.points)
        assert all(p.utopia == points[0].utopia and p.nadir == points[0].nadir
                   for p in points)
        assert len(set(plans)) >= 2

    @staticmethod
    def _count_lps(monkeypatch):
        """Record the instance of every LP model ``solve`` builds and every
        cost it solves; returns (instances, costs)."""
        models, costs = [], []

        class Counted(_LinearProgram):
            def __init__(self, inst):
                models.append(inst)
                super().__init__(inst)

            def __call__(self, c):
                costs.append(np.array(c, dtype=float))
                return super().__call__(c)

        monkeypatch.setattr(solver_module, "_LinearProgram", Counted)
        return models, costs

    def test_one_feasibility_lp_per_solve(self, monkeypatch):
        """``solve`` builds one LP model for its instance, and its cost LP is
        its one feasibility LP: the LPs solved are exactly cost, availability
        and, when the linear objective part is non-zero, the LP corner.  No
        zero-cost LP is solved and no cost vector twice."""
        models, costs = self._count_lps(monkeypatch)
        task = ChargingTask("v", 0.0, 2.0, 0.5, 0.9)
        prices = {i * 0.5: p for i, p in enumerate([0.3, 0.1, 0.2, 0.05])}
        inst = make_instance([task], prices=lambda t: prices[t], soc_xtra_ah=21.0)
        for weights, n_lps in (((1.0, 1.0, 1.0), 3), ((0.0, 1.0, 0.0), 2)):
            models.clear()
            costs.clear()
            alloc, _ = solve(inst, weights)
            assert alloc is not None
            assert len(models) == 1 and models[0] is inst
            assert len(costs) == n_lps and all(c.any() for c in costs)
            np.testing.assert_array_equal(costs[0], _cost_coeffs(inst))
            np.testing.assert_array_equal(costs[1], _avail_coeffs(inst))
            assert len({c.tobytes() for c in costs}) == n_lps

    def test_report_points_are_the_payoff_table(self):
        """``solve`` reports the payoff points it used: exactly the table of
        :func:`single_objective_minimizer`, degenerate spreads included, and
        None on an empty or infeasible instance."""
        rng = np.random.default_rng(3)
        zero_need = make_instance([ChargingTask("v", 0.0, 2.0, 0.9, 0.5)])
        degenerate = 0
        for inst, weights in [*(self._random_instance(rng) for _ in range(6)),
                              (zero_need, (1.0, 1.0, 1.0))]:
            _, rep = solve(inst, weights)
            assert rep.points == _points(inst)
            degenerate += any(rep.points.spread(k) < NORMALIZATION_EPS for k in COMPONENTS)
        assert degenerate >= 1
        infeasible = make_instance(
            [ChargingTask("v", 0.0, 2.0, 0.2, 0.8)], i_max=50.0, ic_max=50.0, c_bat=200.0
        )
        assert solve(make_instance([]), (1.0, 1.0, 1.0))[1].points is None
        assert solve(infeasible, (1.0, 1.0, 1.0))[1].points is None

    def test_station_capacity_infeasible_returns_none(self, monkeypatch):
        """Two vehicles that each need 150 Ah in two hours on an 80 A feeder
        pass the counting bound; the cost LP, the only LP solved, finds
        them infeasible together."""
        inst = make_instance([ChargingTask(v, 0.0, 2.0, 0.0, 150.0 / 210.0) for v in "AB"],
                             ic_max=80.0)
        assert build_constraints(inst).feasible_by_construction
        _, costs = self._count_lps(monkeypatch)
        alloc, rep = solve(inst, (1.0, 1.0, 1.0))
        assert alloc is None
        assert rep.status == SolveStatus.INFEASIBLE
        assert rep.breakdown is None
        assert len(costs) == 1
        np.testing.assert_array_equal(costs[0], _cost_coeffs(inst))


class TestBestTracker:
    def test_tie_keeps_first_point(self):
        """Two identical vehicles: swapping their columns ties the objective,
        and the first point considered stays even though the second charges
        earlier."""
        tasks = [ChargingTask(v, 0.0, 1.0, 0.5, 0.5 + 20.0 / 210.0) for v in ("A", "B")]
        inst = make_instance(tasks)
        first = np.array([[0.0, 40.0], [40.0, 0.0]])
        second = first[:, ::-1].copy()
        points = _points(inst)
        objs = [normalized_objective(objective_components(x, inst), points, (1.0, 1.0, 1.0))
                for x in (first, second)]
        assert abs(objs[0] - objs[1]) <= 1e-12 * max(1.0, abs(objs[0]))
        tracker = _BestTracker(lambda x: normalized_objective(
            objective_components(x, inst), points, (1.0, 1.0, 1.0)))
        tracker.consider(first)
        tracker.consider(second)
        np.testing.assert_array_equal(tracker.alloc, first)
        assert tracker.objective == objs[0]

    def test_tie_is_relative_and_keeps_first(self):
        """The one rule of every caller (``solve`` on the normalized
        objective, the fade payoff on raw fade): a score within a relative
        1e-12 of the held one keeps the held point, a lower one replaces it."""
        tracker = _BestTracker(lambda x: float(x[0, 0]))
        for score, kept in ((0.5, 0.5), (0.5 - 5e-13, 0.5), (0.5 - 2e-12, 0.5 - 2e-12),
                            (4e6, 0.5 - 2e-12)):
            tracker.consider(np.array([[score]]))
            assert tracker.alloc[0, 0] == kept
        big = _BestTracker(lambda x: float(x[0, 0]))
        for score in (4e6, 4e6 * (1.0 - 5e-13)):
            big.consider(np.array([[score]]))
        assert big.alloc[0, 0] == 4e6


class TestZeroSnapPolish:
    """A cell below 2% of ``i_max`` moves its charge into the first other
    active slot of its vehicle with room under ``i_max`` and the station
    cap, else is dropped if the vehicle's window floor still holds; the
    tracker is offered the result only when some cell changed."""

    @staticmethod
    def _polish(x, inst):
        offered = []
        tracker = _BestTracker(lambda a: offered.append(a.copy()) or 0.0)
        before = x.copy()
        _zero_snap_polish(x, inst, tracker)
        assert np.array_equal(x, before)   # the polish works on a copy
        if tracker.alloc is not None:
            assert build_constraints(inst).audit(tracker.alloc) == []
        return offered

    def test_charge_moves_to_a_slot_with_room(self):
        """Slot 1 is at the cap and slot 2 at ``i_max``, so A's 0.5 Ah goes
        to slot 3."""
        tasks = [ChargingTask("A", 0.0, 2.0, 0.2, 0.6), ChargingTask("B", 0.0, 2.0, 0.2, 0.3)]
        inst = make_instance(tasks, ic_max=120.0, soc_xtra_ah=21.0)
        assert inst.vehicle_ids == ("A", "B")
        x = np.array([[1.0, 0.0], [60.0, 60.0], [80.0, 0.0], [50.0, 0.0]])
        assert build_constraints(inst).audit(x) == []
        (kept,) = self._polish(x, inst)
        expected = x.copy()
        expected[0, 0], expected[3, 0] = 0.0, 51.0
        np.testing.assert_array_equal(kept, expected)

    def test_charge_dropped_when_the_floor_holds(self):
        """Every other slot of A is at the cap, so its 0.5 Ah is dropped:
        60 Ah stay above its 42 Ah floor."""
        tasks = [ChargingTask("A", 0.0, 1.5, 0.2, 0.4), ChargingTask("B", 0.0, 1.5, 0.2, 0.4)]
        inst = make_instance(tasks, ic_max=120.0, soc_xtra_ah=21.0)
        x = np.array([[1.0, 0.0], [60.0, 60.0], [60.0, 60.0]])
        assert build_constraints(inst).audit(x) == []
        (kept,) = self._polish(x, inst)
        expected = x.copy()
        expected[0, 0] = 0.0
        np.testing.assert_array_equal(kept, expected)

    def test_nothing_offered_when_neither_is_possible(self):
        """The other slot is at ``i_max`` and dropping 0.5 Ah would take the
        vehicle below its 40.5 Ah floor."""
        inst = make_instance([ChargingTask("v", 0.0, 1.0, 0.2, 0.2 + 40.5 / 210.0)],
                             soc_xtra_ah=21.0)
        x = np.array([[1.0], [80.0]])
        assert build_constraints(inst).audit(x) == []
        assert inst.e_lo[0] > 40.0 + 1e-12
        assert self._polish(x, inst) == []


class TestRepairExact:
    def test_exhausted_top_up_falls_back_to_anchor(self):
        """A and B share slot 0 on an 80 A station with no headroom.  With A
        at 80 A there, B's floor has no room left, so the repair returns a
        copy of the anchor and leaves the anchor as it was.  B departs first,
        so it is column 0."""
        tasks = [ChargingTask("A", 0.0, 1.0, 0.4, 0.6), ChargingTask("B", 0.0, 0.5, 0.4, 0.5)]
        inst = make_instance(tasks, i_max=80.0, ic_max=80.0, c_bat=200.0, soc_xtra_ah=0.0)
        np.testing.assert_allclose(inst.e_lo, [20.0, 40.0])
        np.testing.assert_allclose(inst.e_hi, inst.e_lo)
        np.testing.assert_array_equal(inst.active, [[True, True], [False, True]])
        anchor = feasibility_check(inst).point
        kept = anchor.copy()
        x = np.array([[0.0, 80.0], [0.0, 0.0]])
        got = _repair_exact(x, inst, np.zeros_like(x), anchor)
        assert got is not anchor
        np.testing.assert_array_equal(got, kept)
        np.testing.assert_array_equal(anchor, kept)
        assert build_constraints(inst).audit(got, 1e-9) == []


def _loop_lp_triplets(inst):
    """Reference (rows, cols, data) of the LP rows, built cell by cell."""
    h, n = inst.horizon, inst.n_vehicles
    rows, cols, data = [], [], []
    for i in range(h):
        for v in range(n):
            rows.append(i)
            cols.append(i * n + v)
            data.append(1.0)
    for sign, first in ((1.0, h), (-1.0, h + n)):
        for v in range(n):
            for i in range(h):
                if inst.durations[i, v] > 0:
                    rows.append(first + v)
                    cols.append(i * n + v)
                    data.append(sign * inst.durations[i, v])
    return rows, cols, data


def _csc(a_ub, b_ub, inst):
    """The column-wise triple ``(start, index, value)`` of
    :func:`_lp_matrices` as a scipy matrix of its shape."""
    start, index, value = a_ub
    return sparse.csc_matrix((value, index, start),
                             shape=(len(b_ub), inst.horizon * inst.n_vehicles))


class TestLpMatrices:
    def test_rows_are_slot_sums_then_window_tops_then_floors(self):
        """Rows: station cap per slot, delivered Ah per vehicle against the
        window top, and its negation against the floor; the same column-wise
        arrays as a cell-by-cell build, each column's rows ascending."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            # partial last slots, and a vehicle leaving at the start (no slots)
            deps = [float(rng.uniform(0.1, 4.0)) for _ in range(n - 1)] + [0.0]
            tasks = [ChargingTask(f"v{v}", 0.0, t, 0.3, 0.5) for v, t in enumerate(deps)]
            inst = make_instance(tasks, ic_max=float(rng.uniform(80.0, 400.0)),
                                 soc_xtra_ah=10.0)
            triple, b_ub, bounds = _lp_matrices(inst)
            a_ub = _csc(triple, b_ub, inst)
            h, n = inst.horizon, inst.n_vehicles
            rows, cols, data = _loop_lp_triplets(inst)
            ref = sparse.csr_matrix((data, (rows, cols)), shape=(h + 2 * n, h * n)).tocsc()
            for got, name in zip(triple, ("indptr", "indices", "data")):
                np.testing.assert_array_equal(got, getattr(ref, name))
            start, index, _ = triple
            assert set(np.diff(start).tolist()) <= {1, 3}
            for j in range(h * n):
                assert np.all(np.diff(index[start[j]:start[j + 1]]) > 0)
            x = np.where(inst.active, rng.uniform(0.0, inst.i_max, size=(h, n)), 0.0)
            delivered = (x * inst.durations).sum(axis=0)
            np.testing.assert_allclose(
                a_ub @ x.ravel(),
                np.concatenate([x.sum(axis=1), delivered, -delivered]),
                rtol=1e-12, atol=1e-12,
            )
            np.testing.assert_array_equal(
                b_ub, np.concatenate([np.full(h, inst.ic_max), inst.e_hi, -inst.e_lo])
            )
            np.testing.assert_array_equal(
                bounds[:, 1], np.where(inst.active, inst.i_max, 0.0).ravel()
            )


def _linprog_reference(inst, c):
    """The LP through ``scipy.optimize.linprog(method="highs")``, with the
    model's clip and inactive-cell zeroing; None unless it succeeds."""
    if inst.horizon == 0 or inst.n_vehicles == 0:
        return inst.empty_allocation()
    triple, b_ub, bounds = _lp_matrices(inst)
    res = linprog(np.ravel(c), A_ub=_csc(triple, b_ub, inst), b_ub=b_ub, bounds=bounds,
                  method="highs")
    if not res.success:
        return None
    x = np.clip(res.x.reshape(inst.horizon, inst.n_vehicles), 0.0, None)
    x[~inst.active] = 0.0
    return x


class TestLinearProgram:
    """One HiGHS model per instance returns, byte for byte, what a fresh
    ``linprog`` call returns for the call orders of
    :meth:`test_equals_linprog_byte_for_byte`, and what a fresh model
    returns for the orders of :meth:`test_call_order_keeps_fresh_vertices`."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(23)
        for k in range(12):
            n = int(rng.integers(1, 5))
            # partial last slots, and a vehicle leaving at the start (no slots)
            tasks = [ChargingTask(f"v{v}", 0.0, float(rng.uniform(1.0, 4.0)), s,
                                  s + float(rng.uniform(0.05, 0.25)))
                     for v, s in enumerate(rng.uniform(0.3, 0.6, n))]
            tasks += [ChargingTask("idle", 0.0, 0.0, 0.5, 0.5)] * (k % 2)
            # a slack cap, or one that binds
            ic_max = 80.0 * len(tasks) if k % 3 == 0 else float(rng.uniform(80.0, 100.0))
            prices = rng.uniform(0.02, 0.3, 8)
            yield make_instance(tasks, prices=lambda t, p=prices: p[int(round(t / 0.5))],
                                ic_max=ic_max, soc_xtra_ah=15.0)
        # Two vehicles that each need 150 Ah in two hours on an 80 A feeder:
        # feasible alone, infeasible together.
        yield make_instance([ChargingTask(v, 0.0, 2.0, 0.0, 150.0 / 210.0) for v in "AB"],
                            ic_max=80.0)
        yield make_instance([])

    def test_equals_linprog_byte_for_byte(self):
        rng = np.random.default_rng(5)
        infeasible = binding = 0
        for inst in self._instances():
            shape = (inst.horizon, inst.n_vehicles)
            zero = np.zeros(shape)
            costs = [zero, _cost_coeffs(inst), zero, _avail_coeffs(inst),
                     rng.normal(size=shape), _cost_coeffs(inst) + _avail_coeffs(inst) / 50.0,
                     zero]
            lp = _LinearProgram(inst)
            for c in costs:
                got, ref = lp(c), _linprog_reference(inst, c)
                assert (got is None) == (ref is None)
                if ref is None:
                    infeasible += 1
                    continue
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                binding += bool(np.any(got.sum(axis=1) >= inst.ic_max - 1e-9))
        assert infeasible == 7  # every cost on the infeasible instance
        assert binding >= 10    # LPs whose optimum sits on the station cap

    @staticmethod
    def _sweep_instance():
        """Solve 140 of the overnight ``sweep``: four vehicles on one 80 A
        charger.  A model that changed its cost in place and cleared its
        solver returned another optimal vertex for the availability LP after
        the cost LP than a fresh model does."""
        t_s = 76.04083333333334
        tasks = [
            ChargingTask("N012", 71.91055555555556, 83.4161111111111,
                         0.6147502903600464, 0.6147502903600465),
            ChargingTask("N013", 73.1686111111111, 85.07, 0.44819460575558173,
                         0.6171893147502904),
            ChargingTask("N014", 74.62638888888888, 87.39694444444444, 0.4,
                         0.6054587688734031),
            ChargingTask("N015", 76.04083333333334, 87.67805555555556, 0.4,
                         0.6005807200929152),
        ]
        prices = [0.05523, 0.05508, 0.05489, 0.04017, 0.04006, 0.02595, 0.02589, 0.02587,
                  0.05483, 0.05501, 0.05518, 0.05527]
        return make_instance(tasks, prices=lambda t: prices[round(t - t_s)], t_s=t_s,
                             dt=1.0, ic_max=80.0, soc_xtra_ah=0.0)

    def test_call_order_keeps_fresh_vertices(self):
        """Costs that start non-zero, cost then availability and cost, zero,
        availability: every LP returns a fresh model's result."""
        sweep = self._sweep_instance()
        np.testing.assert_array_equal(sweep.grid.tt, [8, 10, 12, 12])
        for inst in [*self._instances(), sweep]:
            zero = inst.empty_allocation()
            cost, avail = _cost_coeffs(inst), _avail_coeffs(inst)
            for order in ((cost, avail), (cost, zero, avail)):
                lp = _LinearProgram(inst)
                for c in order:
                    got, ref = lp(c), _LinearProgram(inst)(c)
                    assert (got is None) == (ref is None)
                    assert ref is None or got.tobytes() == ref.tobytes()


_PROGRAM_LP = """
from fleetcharge.problem import StationLimits, build_instance
from fleetcharge.scheduler import ZERO_PRICES
from fleetcharge.solver import _highs, feasibility_check

NAME = "scipy.optimize._highspy._core"


def program_lp():
    inst = build_instance(["A"], [4.0], [0.4], [0.8], t_s=0.0, prices_fn=ZERO_PRICES,
                          limits=StationLimits(soc_xtra_ah=0.0))
    assert feasibility_check(inst).feasible
"""

_LOADER_PROBE = _PROGRAM_LP + """
import gc
import sys
import types


def scipy_lp():
    from scipy.optimize import linprog
    from scipy.optimize._highspy import _core

    res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=[(0, 1)] * 2,
                  method="highs")
    assert res.success and res.x.tolist() == [1.0, 0.0], res
    return _core


# The module the first side leaves in sys.modules must be the one both use.
if sys.argv[1] == "program":
    program_lp()
    first = sys.modules.get(NAME)
    imported = scipy_lp()
else:
    imported = scipy_lp()
    first = sys.modules.get(NAME)
    program_lp()
loaded = [m for m in gc.get_objects() if isinstance(m, types.ModuleType) and m.__name__ == NAME]
print(len(loaded), imported is first, sys.modules[NAME] is first, _highs() is first)
"""


class TestHighsLoader:
    """The program loads scipy's HiGHS extension on its own; scipy's own
    import of it and the program's share one module object, whichever comes
    first.  Each case runs in a fresh interpreter, so no other test has
    loaded either side."""

    @staticmethod
    def _run(*args, path=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [*map(str, path), str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        return subprocess.run([sys.executable, "-c", *args], capture_output=True,
                              text=True, env=env, timeout=300)

    @pytest.mark.parametrize("first", ["program", "scipy"])
    def test_one_module_object_either_order(self, first):
        done = self._run(_LOADER_PROBE, first)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "True", "True", "True"]

    def test_missing_extension_raises(self, tmp_path):
        """A scipy without the extension: the first LP raises ImportError
        naming the folder it looked in."""
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        folder = tmp_path / "scipy" / "optimize" / "_highspy"
        code = _PROGRAM_LP + "try:\n    program_lp()\nexcept ImportError as exc:\n    print(exc)\n"
        done = self._run(code, path=[tmp_path])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"no HiGHS extension in {folder}"


class TestOracle:
    def test_cell_guard(self):
        tasks = [ChargingTask(f"v{v}", 0.0, 4.0, 0.4, 0.6) for v in range(4)]
        inst = make_instance(tasks)  # 8 slots x 4 vehicles
        with pytest.raises(OracleError, match="instance-too-large"):
            oracle_grid_search(inst, (1.0, 1.0, 1.0))

    def test_unique_point_at_exact_demand(self):
        """Demand equal to one full-power slot leaves only the top grid level."""
        inst = make_instance(
            [ChargingTask("v", 0.0, 0.5, 0.5, 0.5 + 40.0 / 210.0)], i_max=80.0
        )
        alloc, _ = oracle_grid_search(inst, (1.0, 1.0, 1.0), levels=8)
        assert alloc[0, 0] == pytest.approx(80.0)

    def test_cheap_slot_selection(self):
        prices = {0.0: 0.30, 0.5: 0.10}
        inst = make_instance(
            [ChargingTask("v", 0.0, 1.0, 0.5, 0.5 + 40.0 / 210.0)],
            prices=lambda t: prices[t],
            i_max=80.0,
        )
        alloc, _ = oracle_grid_search(inst, (1, 0, 0), levels=8)
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
            oracle_grid_search(inst, (1.0, 1.0, 1.0), levels=2)

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
            )
            weights = tuple(rng.uniform(0.2, 1.0, size=3))
            if not feasibility_check(inst).feasible:
                continue
            pts = _points(inst)
            alloc, rep = solve(inst, weights)
            _, oracle_obj = oracle_grid_search(inst, weights, levels=8, points=pts)
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
    @staticmethod
    def _case(rng):
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
                x = _Projector(inst).windows(y[None])[0]
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
        x = _Projector(inst).windows(y[None])[0]
        ub = np.where(inst.active, inst.i_max, 0.0)
        live = inst.durations[:, v] > 0
        assert np.array_equal(x[live, v], ub[live, v])
        assert np.array_equal(x[~live, v], np.clip(y[~live, v], 0.0, ub[~live, v]))


def _reference_windows(y, inst):
    """The per-call column projection the projector replaced, kept as written."""
    ub = np.where(inst.active, inst.i_max, 0.0)
    x = np.clip(y, 0.0, ub)
    d = inst.durations
    s = (x * d).sum(axis=0)
    lo_bad = s < inst.e_lo - 1e-12
    hi_bad = s > inst.e_hi + 1e-12
    bad = np.where(lo_bad | hi_bad)[0]
    if len(bad) == 0:
        return x
    target = np.where(lo_bad, inst.e_lo, inst.e_hi)[bad]
    yc, dc, ubc = y[:, bad], d[:, bad], ub[:, bad]
    safe_d = np.where(dc > 0, dc, np.inf)
    points = np.concatenate([-yc / safe_d, (ubc - yc) / safe_d])
    bend = dc * dc
    bends = np.concatenate([bend, -bend])
    cols = np.arange(len(bad))
    order = points.argsort(axis=0, kind="stable")
    points = points[order, cols]
    slope = bends[order, cols].cumsum(axis=0)
    energy = np.zeros_like(points)
    np.cumsum(slope[:-1] * (points[1:] - points[:-1]), axis=0, out=energy[1:])
    reached = energy >= target
    first = reached.argmax(axis=0)
    seg = np.maximum(first - 1, 0)
    rise = slope[seg, cols]
    lam = points[seg, cols] + (target - energy[seg, cols]) / np.where(rise > 0, rise, 1.0)
    lam[first == 0] = points[0, first == 0] - 1.0
    top = ~reached.any(axis=0)
    lam[top] = points[-1, top] + 1.0
    x[:, bad] = np.clip(yc + lam * dc, 0.0, ubc)
    return x


def _reference_polytope(y, inst):
    """The alternating loop the projector replaced: window projections and a
    uniform shave of every slot over the station cap, 30 rounds at most."""
    n = max(inst.n_vehicles, 1)
    x = y
    for _ in range(30):
        x = _reference_windows(x, inst)
        col = x.sum(axis=1)
        excess = col - inst.ic_max
        if excess.max(initial=0.0) <= 1e-10:
            return x
        shave = np.maximum(excess, 0.0) / n
        x = x - shave[:, None]
    return _reference_windows(x, inst)


class TestProjector:
    @pytest.mark.parametrize("windows", ["mixed", "all-out", "none-out"])
    @pytest.mark.parametrize("ic_max", [400.0, 90.0, 30.0])
    def test_bit_equal_to_alternating_loop(self, windows, ic_max):
        """Seeded columns with idle cells, inactive tails, zero window tops and
        an unreachable floor; every column, some or none out of its window;
        a slack, a binding and a tight station cap.  One projector serves
        several calls, and no call changes an earlier call's output."""
        rng = np.random.default_rng(11)
        kept = []
        for _ in range(12):
            y, inst, top = TestProjection._case(rng)
            ub = np.where(inst.active, inst.i_max, 0.0)
            clipped = (np.clip(y, 0.0, ub) * inst.durations).sum(axis=0)
            if windows == "all-out":    # tops below, or floors above, every column
                inst = dataclasses.replace(
                    inst, e_lo=np.where(clipped > 0, 0.25 * clipped, 0.5 * top + 1.0),
                    e_hi=np.where(clipped > 0, 0.5 * clipped, 0.5 * top + 2.0))
                assert np.all((clipped < inst.e_lo - 1e-12) | (clipped > inst.e_hi + 1e-12))
            elif windows == "none-out":
                inst = dataclasses.replace(inst, e_lo=np.zeros_like(top), e_hi=top + 1.0)
            inst = dataclasses.replace(inst, ic_max=ic_max)
            project = _Projector(inst)
            for z in (y, 0.5 * y, y):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x = project(z[None])[0]
                    assert x.tobytes() == _reference_polytope(z, inst).tobytes()
                    assert np.array_equal(project.windows(z[None])[0], _reference_windows(z, inst))
                kept.append((x, x.copy()))
        assert all(np.array_equal(x, snapshot) for x, snapshot in kept)

    def test_one_vehicle_stack_sums_columns_pairwise(self):
        """numpy sums an (H, 1) column pairwise but an (H, k) block row by
        row.  With the window floor between the two sums of a 16-slot
        column, a stack of one-vehicle starts still treats each start as
        the per-start loop does."""
        task = ChargingTask("v", 0.0, 8.0, 0.2, 0.9)
        base = make_instance([task], i_max=80.0, soc_xtra_ah=21.0)
        rng = np.random.default_rng(0)
        while True:
            d = rng.uniform(0.05, 0.5, size=(16, 1))
            y = rng.uniform(0.0, 80.0, size=(16, 1))
            pairwise = (y * d).sum(axis=0)[0]
            by_rows = np.concatenate([y * d, y * d], axis=1).sum(axis=0)[0]
            if pairwise < by_rows:
                break
        e_lo = pairwise
        while not pairwise < e_lo - 1e-12 <= by_rows:
            e_lo = np.nextafter(e_lo, np.inf)
        inst = dataclasses.replace(base, durations=d, e_lo=np.array([e_lo]),
                                   e_hi=np.array([e_lo + 5.0]))
        stack = np.stack([y, y, 0.5 * y])
        project = _Projector(inst)
        for j, z in enumerate(stack):
            assert project(stack)[j].tobytes() == _reference_polytope(z, inst).tobytes()
            assert project.windows(stack)[j].tobytes() == _reference_windows(z, inst).tobytes()
        assert not np.array_equal(project(stack)[0], y)   # the floor moved the column

    @staticmethod
    def _rounds_alone(y, inst):
        """Rounds :func:`_reference_polytope` takes on one start: 31 when it
        stops at the 30-round cap and projects once more."""
        x = y
        for r in range(30):
            x = _reference_windows(x, inst)
            excess = x.sum(axis=1) - inst.ic_max
            if excess.max(initial=0.0) <= 1e-10:
                return r + 1
            x = x - (np.maximum(excess, 0.0) / inst.n_vehicles)[:, None]
        return 31

    @pytest.mark.parametrize("seed, ic_max", [(5, 150.0), (6, 200.0)])
    def test_stack_whose_starts_leave_at_different_rounds(self, seed, ic_max):
        """Starts that all leave in the first round (returned without a
        copy), and starts that leave after several rounds or at the 30-round
        cap, on columns with signed zeros, idle and inactive cells and
        reachable floors: each start is, byte for byte, the alternating loop
        run alone, and the result never shares memory with the input."""
        rng = np.random.default_rng(seed)
        y, inst, top = TestProjection._case(rng)
        floor = np.minimum(inst.e_lo, 0.3 * top)
        inst = dataclasses.replace(inst, e_lo=floor, ic_max=ic_max,
                                   e_hi=np.maximum(np.minimum(inst.e_hi, top), floor))
        y = np.where(rng.random(y.shape) < 0.2, -0.0, y)
        assert np.signbit(y[y == 0.0]).any() and not inst.active.all()
        mixed = np.stack([y, 0.5 * y, 0.25 * y, 0.1 * y, 0.05 * y, 2.0 * y, -y])
        rounds = np.array([self._rounds_alone(z, inst) for z in mixed])
        assert ((rounds > 1) & (rounds < 31)).any() and (rounds == 31).any()
        first = mixed[rounds == 1]
        assert len(first) >= 2
        project = _Projector(inst)
        for stack in (first, mixed, mixed[::-1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = project(stack)
            assert not np.shares_memory(x, stack)
            for j, z in enumerate(stack):
                assert x[j].tobytes() == _reference_polytope(z, inst).tobytes()


def _woken_cell_model(inst, slope):
    """Surrogate whose one cell sits at zero, pulled up with gradient ``slope``:
    any positive current pays the fade activation constant."""
    p = inst.fade_params
    half = 0.5 * inst.durations / inst.c_bat
    frac = inst.durations / inst.grid.dt
    lin = np.full((1, 1), slope) - frac * p.p1 * half
    project = _Projector(inst)
    calls = []

    def counted(y):
        calls.append(1)
        return project(y)

    is_hi = np.zeros((1, 1, 1), dtype=bool)
    return _Surrogate(inst, lin, 1.0, is_hi, counted), calls


class _Quadratic:
    """Smooth model ``0.5 * a * |x - c|^2`` on the box [0, 100]: a long step
    overshoots, and the rise shrinks with the step.  ``evaluate`` scores a
    stack (m, H, V) for the lockstep descent, which records the rows of
    each projection; ``value`` and ``gradient`` score one point (H, V) for
    the per-start reference, which counts its projections per line search."""

    def __init__(self, a, c):
        self.a, self.c = a, c
        self.trials = []   # per-start: projections per line search
        self.stacks = []   # stacked: rows per projection

    def project(self, y):
        if y.ndim == 3:
            self.stacks.append(len(y))
        else:
            self.trials[-1] += 1
        return np.clip(y, 0.0, 100.0)

    def value(self, x):
        return 0.5 * self.a * np.sum((x - self.c) ** 2, axis=(-2, -1))

    def gradient(self, x):
        self.trials.append(0)
        return self.a * (x - self.c)

    def evaluate(self, x, rows):
        return self.value(x), self.a * (x - self.c)


class TestLineSearch:
    def _instance(self):
        task = ChargingTask("v", 0.0, 0.5, 0.2, 0.2)   # nothing owed, 21 Ah allowed
        return dataclasses.replace(make_instance([task]), e_hi=np.array([21.0]))

    def test_stops_at_activation_jump(self, monkeypatch):
        """The descent projects trials ahead of need, so its projector calls
        are not its trials; the trials it consumes are counted instead.
        Every halved step wakes the cell to a new point, so each consumed
        trial passes one rise to ``_jump``."""
        inst = self._instance()
        x0 = np.zeros((1, 1))
        model, _ = _woken_cell_model(inst, -1e-5)
        assert model.evaluate(x0[None], [0])[1][0, 0, 0] == pytest.approx(-1e-5, rel=1e-6)
        jump = solver_module._jump

        def consumed_trials():
            model, _ = _woken_cell_model(inst, -1e-5)
            rises = []
            with monkeypatch.context() as m:
                m.setattr(solver_module, "_jump", lambda r: rises.append(r[-1]) or jump(r))
                (x,), (iters,) = _descend(model, x0[None])
            ref, _ = _woken_cell_model(inst, -1e-5)
            exits = []
            x_ref, iters_ref = _reference_descend(_OneStart(ref, 0), x0, exits)
            assert x.tobytes() == x_ref.tobytes() and np.all(x == 0.0)
            assert iters == iters_ref == 1
            return len(rises), exits

        jump_trials = solver_module.JUMP_TRIALS
        assert consumed_trials() == (jump_trials, [("jump", jump_trials)])
        monkeypatch.setattr(solver_module, "JUMP_TRIALS", 31)  # exit never fires
        assert consumed_trials() == (30, [("30-trials", 30)])   # every trial rejected

    def test_smooth_rise_backtracks_to_accept(self, monkeypatch):
        """The per-start reference projects each consumed trial once, so its
        count is the trials the descent consumed along the same path."""
        c = np.array([[3.0, 40.0], [0.0, 7.5]])
        x0 = np.array([[20.0, 10.0], [5.0, 0.0]])

        def descend():
            return _descend(_Quadratic(10.0, c), x0[None])

        (x,), (iters,) = descend()
        ref = _Quadratic(10.0, c)
        ref.trials.append(0)
        x_ref, iters_ref = _reference_descend(ref, x0, [])
        assert x.tobytes() == x_ref.tobytes() and iters == iters_ref
        # the first line search rejects more than JUMP_TRIALS overshoots, then accepts
        assert ref.trials[1] > solver_module.JUMP_TRIALS
        monkeypatch.setattr(solver_module, "JUMP_TRIALS", 31)
        (x_full,), _ = descend()
        assert np.array_equal(x, x_full)
        assert ref.value(x) < 1e-6 * ref.value(x0)

    def test_saturated_steps_are_not_a_jump(self, monkeypatch):
        """Long steps that the box clips to one corner give equal rises; they
        count once, so the search halves on until the candidate moves inside
        the box and is accepted."""
        c = np.array([[3.0, 40.0], [0.0, 7.5]])
        x0 = np.array([[20.0, 10.0], [5.0, 0.0]])
        model = _Quadratic(1000.0, c)
        corner = np.array([[0.0, 100.0], [0.0, 100.0]])
        _, g0 = model.evaluate(x0[None], [0])
        for step in (2.0, 1.0, 0.5):
            assert np.array_equal(model.project(x0[None] - step * g0)[0], corner)
        model.stacks.clear()
        (x,), _ = _descend(model, x0[None])
        monkeypatch.setattr(solver_module, "JUMP_TRIALS", 31)
        full = _Quadratic(1000.0, c)
        (x_full,), _ = _descend(full, x0[None])
        assert model.stacks == full.stacks and np.array_equal(x, x_full)
        assert not np.array_equal(x, x0)
        assert model.value(x) < 1e-6 * model.value(x0)


class _ReferenceSurrogate:
    """The per-start surrogate the stacked one replaced, kept as written."""

    def __init__(self, inst, lin, fade_weight, is_hi, project):
        self.coef = BranchCoefficients(*inst.fade_params.branch_coefficients(is_hi))
        self.inst = inst
        self.project = project
        self.lin = lin
        self.fw = fade_weight
        self.frac = np.where(inst.active, inst.durations / inst.grid.dt, 0.0)
        self.half = 0.5 * inst.durations / inst.c_bat
        self.dc = inst.durations / inst.c_bat

    def _soc_init(self, x):
        inst = self.inst
        delta = x * self.dc
        soc = np.empty_like(delta)
        soc[0, :] = inst.soc_start
        if inst.horizon > 1:
            soc[1:, :] = inst.soc_start[None, :] + np.cumsum(delta, axis=0)[:-1, :]
        return soc

    def _pieces(self, x):
        avg = self._soc_init(x) + self.half * x
        poly = self.coef.evaluate(avg, x)
        mask = self.inst.active & (x > 0.0) & (poly > 0.0)
        return avg, poly, mask

    def value(self, x) -> float:
        avg, poly, mask = self._pieces(x)
        p = self.inst.fade_params
        fade = float(np.sum(poly[mask])) + float(np.sum(self.frac * (p.p1 * avg + p.p2)))
        return float(np.sum(self.lin * x)) + self.fw * fade

    def gradient(self, x) -> np.ndarray:
        avg, poly, mask = self._pieces(x)
        p, c = self.inst.fade_params, self.coef
        own = np.where(
            mask,
            (c.p10 + c.p11 * x) * self.half + c.p01 + c.p11 * avg + 2.0 * x * c.p02,
            0.0,
        )
        own = own + self.frac * p.p1 * self.half
        path_src = np.where(mask, c.p10 + c.p11 * x, 0.0) + self.frac * p.p1
        suffix = np.flip(np.cumsum(np.flip(path_src, 0), 0), 0) - path_src
        return self.lin + self.fw * (own + self.dc * suffix)


def _reference_descend(model, x0, exits):
    """The per-start descent the lockstep one replaced, kept as written; it
    appends (exit, line-search trials) of the call to ``exits``."""
    x = model.project(x0)
    f = model.value(x)
    step = 1.0
    iters = trials = 0
    exit_ = "inner-cap"
    for _ in range(solver_module.MAX_INNER_ITERS):
        iters += 1
        g = model.gradient(x)
        g_inf = np.abs(g).max(initial=0.0)
        if g_inf <= 0:
            exit_ = "zero-gradient"
            break
        step = min(step * 2.0, 1e8)
        accepted = False
        rises, prev, why = [], None, "30-trials"
        for _bt in range(30):
            trials += 1
            cand = model.project(x - step * g)
            fc = model.value(cand)
            move = cand - x
            if fc <= f - 1e-4 * float(np.sum(move * move)) / max(step, 1e-16):
                dec = f - fc
                x, f = cand, fc
                accepted = True
                break
            if prev is None or not np.array_equal(cand, prev):
                rises.append(fc - f)
                if solver_module._jump(rises):
                    why = "jump"
                    break
            prev = cand
            step *= 0.5
            if step < 1e-12:
                why = "step-floor"
                break
        if not accepted:
            exit_ = why
            break
        if dec <= solver_module.TOL_OBJ * max(abs(f), 1.0):
            exit_ = "decrease"
            break
    exits.append((exit_, trials))
    return x, iters


def _reference_branch_loop(inst, lin, fw, x0, anchor):
    """The per-start branch-fixing loop, kept as written, on the alternating
    projection loop; returns (x, iterations, stable, rounds)."""
    project = lambda y: _reference_polytope(y, inst)  # noqa: E731
    x = _repair_exact(project(x0), inst, lin, anchor)
    iterations = rounds = 0
    for _ in range(solver_module.MAX_BRANCH_ITERS):
        rounds += 1
        branches = _derive_branches(x, inst)
        x, iters = _reference_descend(
            _ReferenceSurrogate(inst, lin, fw, branches, project), x, [])
        iterations += iters
        x = _repair_exact(x, inst, lin, anchor)
        stable = np.array_equal(_derive_branches(x, inst), branches)
        if stable:
            break
    return x, iterations, stable, rounds


def _descent_inputs(inst, weights):
    """``solve``'s surrogate weights under objective ``weights``, its four
    starts (k, H, V) and its repair anchor, the cost vertex of ``inst``."""
    pts = _points(inst)
    a = dict(zip(COMPONENTS, weights))
    scale = {k: pts.spread(k) for k in COMPONENTS}
    lin = (a["cost"] / scale["cost"]) * _cost_coeffs(inst) \
        + (a["availability"] / scale["availability"]) * _avail_coeffs(inst)
    fw = a["fade"] / scale["fade"]
    lp = _LinearProgram(inst)
    starts = [max_power_allocation(inst), lp(lin), _fill_latest(inst), _fill_spread(inst)]
    return lin, fw, np.stack(starts), lp(_cost_coeffs(inst))


def _descent_instance(rng, n, slots, ic_max, soc_low=0.2):
    """A random instance and objective weights, drawn after it."""
    tasks = []
    for v in range(n):
        soc_start = float(rng.uniform(soc_low, 0.6))
        tt = int(rng.integers(max(1, slots // 2), slots + 1))
        tasks.append(ChargingTask(f"v{v}", 0.0, 0.5 * tt, soc_start,
                                  min(1.0, soc_start + float(rng.uniform(0.1, 0.4)))))
    prices = {i * 0.5: float(rng.uniform(0.02, 0.3)) for i in range(slots)}
    inst = make_instance(tasks, prices=lambda t, p=prices: p[t], ic_max=ic_max, soc_xtra_ah=21.0)
    return inst, tuple(rng.uniform(0.1, 1.0, size=3))


class _Toy:
    """Per start j, ``a_j * sum|x - c_j| + 0.5 * q_j * sum (x - c_j)**2 +
    jump_j * #(x > 0)`` on the box [0, 100], in the stacked model interface."""

    def __init__(self, a, q, c, jump):
        self.a, self.q, self.c, self.jump = (
            np.asarray(v, dtype=float)[:, None, None] for v in (a, q, c, jump))

    def project(self, y):
        return np.clip(y, 0.0, 100.0)

    def evaluate(self, x, rows):
        a, q, c, jump = self.a[rows], self.q[rows], self.c[rows], self.jump[rows]
        cells = a * np.abs(x - c) + 0.5 * q * (x - c) ** 2 + jump * (x > 0)
        return cells.reshape(len(x), -1).sum(axis=1), a * np.sign(x - c) + q * (x - c)


class _OneStart:
    """Start ``j`` of a stacked model, in the per-start model interface:
    ``value`` and ``gradient`` each take their half of ``evaluate``."""

    def __init__(self, model, j):
        self.model, self.rows = model, [j]

    def project(self, y):
        return self.model.project(y[None])[0]

    def value(self, x):
        return float(self.model.evaluate(x[None], self.rows)[0][0])

    def gradient(self, x):
        return self.model.evaluate(x[None], self.rows)[1][0]


class TestLockstepDescent:
    """Each start of a stack follows, bit for bit, the path of the per-start
    descent, projection and branch loop that the stacked ones replaced."""

    @pytest.mark.parametrize("n, slots, ic_max, seed", [
        (1, 14, 400.0, 3),     # V = 1 with H > 8: column sums stay pairwise
        (3, 10, 400.0, 4),     # slack cap
        (5, 8, 110.0, 5),      # binding cap
    ])
    def test_each_start_follows_its_own_path(self, n, slots, ic_max, seed):
        inst, weights = _descent_instance(np.random.default_rng(seed), n, slots, ic_max)
        lin, fw, starts, _ = _descent_inputs(inst, weights)
        branches = np.stack([_derive_branches(x, inst) for x in starts])
        model = _Surrogate(inst, lin, fw, branches, _Projector(inst))
        x, iters = _descend(model, starts)
        exits = []
        for j, x0 in enumerate(starts):
            ref = _ReferenceSurrogate(inst, lin, fw, branches[j],
                                      lambda y: _reference_polytope(y, inst))
            x_ref, iters_ref = _reference_descend(ref, x0, exits)
            assert x[j].tobytes() == x_ref.tobytes()
            assert iters[j] == iters_ref
            # each start sums its own active cells
            assert model.evaluate(x[j:j + 1], [j])[0][0] == ref.value(x_ref)
        assert len({trials for _, trials in exits}) > 1   # starts stop at different ticks
        if ic_max < n * inst.i_max:
            assert np.any(x.sum(axis=2).max(axis=1) >= ic_max - 1e-9)   # the cap binds

    def test_starts_stop_at_different_exits(self):
        """One stack whose starts end on the decrease, jump and step-floor
        exits, each at its own tick.  The last start pays jumps on some
        rejected trials and still descends, so its rises must start afresh
        at each iteration."""
        toy = _Toy(a=[0.0, 0.0, 1e3, 0.54], q=[10.0, 1e-6, 0.0, 5.3],
                   c=[3.0, 1e-3, 1.0, 1.9], jump=[0.0, 1.0, 0.0, 1.6])
        starts = np.stack([np.full((2, 1), 20.0), np.zeros((2, 1)),
                           np.array([[2.0], [1.7]]), np.zeros((2, 1))])
        x, iters = _descend(toy, starts)
        exits = []
        for j, x0 in enumerate(starts):
            x_ref, iters_ref = _reference_descend(_OneStart(toy, j), x0, exits)
            assert x[j].tobytes() == x_ref.tobytes()
            assert iters[j] == iters_ref
        assert [e for e, _ in exits] == ["decrease", "jump", "step-floor", "decrease"]
        assert len({trials for _, trials in exits}) == 4

    @pytest.mark.parametrize("cells", [0, 1 << 30])
    def test_speculation_bound_changes_calls_not_paths(self, cells, monkeypatch):
        """With no room for speculative trials every call holds one row per
        live start; with room unbounded some call holds more.  Both follow
        the per-start paths bit for bit."""
        monkeypatch.setattr(solver_module, "_SPECULATIVE_CELLS", cells)
        inst, weights = _descent_instance(np.random.default_rng(5), 5, 8, 110.0)  # binding cap
        lin, fw, starts, _ = _descent_inputs(inst, weights)
        branches = np.stack([_derive_branches(x, inst) for x in starts])
        project = _Projector(inst)
        model = _Surrogate(inst, lin, fw, branches, project)
        projected, live = [], []   # per call: rows, and starts among them
        evaluate = model.evaluate

        def counted_project(y):
            projected.append(len(y))
            return project(y)

        def counted_evaluate(xs, rows):
            live.append(len(set(np.asarray(rows).tolist())))
            return evaluate(xs, rows)

        model.project, model.evaluate = counted_project, counted_evaluate
        x, iters = _descend(model, starts)
        exits = []
        for j, x0 in enumerate(starts):
            ref = _ReferenceSurrogate(inst, lin, fw, branches[j],
                                      lambda y: _reference_polytope(y, inst))
            x_ref, iters_ref = _reference_descend(ref, x0, exits)
            assert x[j].tobytes() == x_ref.tobytes()
            assert iters[j] == iters_ref
        # some line search takes more than one trial
        assert any(trials > it for (_, trials), it in zip(exits, iters))
        assert len(projected) == len(live)
        calls = list(zip(projected, live))[1:]   # the first call projects the starts
        if cells == 0:
            assert all(rows == n for rows, n in calls)
        else:
            assert any(rows > n for rows, n in calls)

    def test_branch_rounds_match_per_start_loop(self):
        """Low starting SoC puts high currents on the HI branch, so some
        starts need a second branch round while others are stable after one."""
        rng = np.random.default_rng(2024)
        rounds = []
        for _ in range(4):
            inst, weights = _descent_instance(rng, 3, 8, 160.0, soc_low=0.01)
            lin, fw, starts, anchor = _descent_inputs(inst, weights)
            iterations, stable, x = _branch_fixed_descent(inst, lin, fw, starts, anchor)
            assert x.shape == starts.shape
            for j, x0 in enumerate(starts):
                ref = _reference_branch_loop(inst, lin, fw, x0, anchor)
                assert x[j].tobytes() == ref[0].tobytes()
                assert (iterations[j], stable[j]) == (ref[1], ref[2])
                rounds.append(ref[3])
        assert 1 in rounds and max(rounds) >= 2


def _partial_slot_instance(rng, n, slots):
    """``n`` vehicles that each leave inside a slot, so every last slot is
    partial; low starting SoC, so both fade branches occur."""
    tasks = []
    for v in range(n):
        soc_start = float(rng.uniform(0.01, 0.6))
        t_dep = 0.5 * int(rng.integers(1, slots)) + float(rng.uniform(0.05, 0.45))
        tasks.append(ChargingTask(f"v{v}", 0.0, t_dep, soc_start, min(1.0, soc_start + 0.1)))
    inst = make_instance(tasks, ic_max=n * 80.0)
    last = inst.grid.tt - 1
    assert np.all(inst.durations[last, np.arange(n)] < inst.grid.dt)
    return inst


class TestOneSocTrajectory:
    """``soc_before_slots`` is the one SoC trajectory: each allocation of a
    stack gets its own call's values, rounded as the per-start surrogate
    rounded them, and the branch rule reads it for a whole stack at once."""

    @staticmethod
    def _stack(rng, inst, k=5):
        shape = (k, inst.horizon, inst.n_vehicles)
        return rng.uniform(0.0, inst.i_max, size=shape) * inst.active

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_stack_matches_each_start_and_reference_surrogate(self, seed):
        rng = np.random.default_rng(seed)
        inst = _partial_slot_instance(rng, 4, 9)
        x = self._stack(rng, inst)
        stacked = soc_before_slots(x, inst)
        ref = _ReferenceSurrogate(inst, 0.0, 1.0, np.zeros(x.shape[1:], dtype=bool), None)
        for j, xj in enumerate(x):
            assert stacked[j].tobytes() == soc_before_slots(xj, inst).tobytes()
            assert stacked[j].tobytes() == ref._soc_init(xj).tobytes()
        vs = np.array([2, 0, 2, 3])   # columns mapped to vehicles, one repeated
        assert soc_before_slots(x[..., vs], inst, vs).tobytes() == stacked[..., vs].tobytes()

    def test_derive_branches_on_a_stack(self):
        rng = np.random.default_rng(2024)
        inst = _partial_slot_instance(rng, 4, 9)
        x = self._stack(rng, inst)
        branches = _derive_branches(x, inst)
        assert branches.any() and not branches[inst.active[None] & (x > 0)].all()
        assert np.array_equal(branches, np.stack([_derive_branches(xj, inst) for xj in x]))


def _oracle_sized_instances(seed, count):
    """Feasible instances drawn like acceptance criterion 2's (at most 12
    cells), each with its objective weights and cost vertex."""
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
        )
        weights = tuple(rng.uniform(0.1, 1.0, size=3))
        fc = feasibility_check(inst)
        if fc.feasible:
            found.append((inst, weights, fc.point))
    return found


def _relocation_candidates(x, inst, col_sum, v):
    """Feasible single-slot relocations of vehicle v's charge, as new columns."""
    tt = int(inst.grid.tt[v])
    for i in np.nonzero(x[:tt, v] > 0.0)[0]:
        ah = x[i, v] * inst.durations[i, v]
        for j in range(tt):
            if j == i:
                continue
            d_j = inst.durations[j, v]
            if d_j <= 0:
                continue
            amps = ah / d_j
            room = min(inst.i_max - x[j, v], inst.ic_max - col_sum[j])
            if amps > room + 1e-12:
                continue
            cand = x[:, v].copy()
            cand[j] += amps
            cand[i] = 0.0
            yield cand


def _swap_candidates(x, inst, col_sum):
    """Pairwise exchanges: two vehicles trade the slots of one charge block.

    Needed when a single relocation is blocked by the station cap and only
    becomes feasible once the other vehicle vacates the target slot.
    Yields ``(u, v, column_u, column_v)``.
    """
    n = inst.n_vehicles
    cells = [
        (i, v)
        for v in range(n)
        for i in np.nonzero(x[: int(inst.grid.tt[v]), v] > 0.0)[0]
    ]
    for i, u in cells:
        for j, v in cells:
            if u == v or i == j:
                continue
            if j >= inst.grid.tt[u] or i >= inst.grid.tt[v]:
                continue
            d_ju, d_iv = inst.durations[j, u], inst.durations[i, v]
            if d_ju <= 0 or d_iv <= 0:
                continue
            amps_u = x[i, u] * inst.durations[i, u] / d_ju
            amps_v = x[j, v] * inst.durations[j, v] / d_iv
            if x[j, u] + amps_u > inst.i_max + 1e-12:
                continue
            if x[i, v] + amps_v > inst.i_max + 1e-12:
                continue
            if col_sum[j] - x[j, v] + amps_u > inst.ic_max + 1e-12:
                continue
            if col_sum[i] - x[i, u] + amps_v > inst.ic_max + 1e-12:
                continue
            cand_u, cand_v = x[:, u].copy(), x[:, v].copy()
            cand_u[j] += amps_u
            cand_u[i] -= x[i, u]
            cand_v[i] += amps_v
            cand_v[j] -= x[j, v]
            yield u, v, cand_u, cand_v


def _scalar_moves(x, inst):
    """One pass's moves ``(vehicles, columns)`` from the scalar enumeration."""
    col_sum = x.sum(axis=1)
    moves = [((v,), (col,)) for v in range(inst.n_vehicles)
             for col in _relocation_candidates(x, inst, col_sum, v)]
    if int((x > 0).sum()) <= _SWAP_POLISH_ACTIVES:
        moves += [((u, v), (cu, cv)) for u, v, cu, cv in _swap_candidates(x, inst, col_sum)]
    return moves


def _reference_polish(x, inst, objective_fn):
    """Local-move polish scoring every candidate as a full allocation."""
    if inst.horizon * inst.n_vehicles > _MOVE_POLISH_CELLS or x.size == 0:
        return x
    x = x.copy()
    best = objective_fn(x)
    for _ in range(6):
        move = None
        for vs, cols in _scalar_moves(x, inst):
            cand = x.copy()
            for v, col in zip(vs, cols):
                cand[:, v] = col
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
        for inst, _, _ in _oracle_sized_instances(8, 12):
            alloc = rng.uniform(0.0, inst.i_max, size=(inst.horizon, inst.n_vehicles))
            alloc[rng.random(alloc.shape) < 0.4] = 0.0
            alloc[~inst.active & (rng.random(alloc.shape) < 0.5)] = 0.0
            parts = _column_parts(alloc, np.arange(inst.n_vehicles), inst)
            ref = objective_components(alloc, inst)
            np.testing.assert_allclose(
                parts.sum(axis=0), [ref.cost, ref.fade, ref.availability], rtol=1e-12
            )

    @pytest.mark.parametrize("batch_cells", [None, 1, 7])
    def test_same_moves_as_full_allocation_scoring(self, batch_cells, monkeypatch):
        """Also with one move per batch, so the running best carries across
        batches, and with 1 to 3 moves per batch, so batches split a pass's
        relocations and swaps and some hold both."""
        if batch_cells is not None:
            monkeypatch.setattr(solver_module, "_POLISH_BATCH_CELLS", batch_cells)
        kinds, inner = set(), solver_module._score_moves

        def recorded(cols, vs, starts, *rest):
            # move widths: 1 for a relocation, 2 for a swap
            kinds.add(frozenset(np.diff(np.append(starts, len(vs))).tolist()))
            return inner(cols, vs, starts, *rest)

        monkeypatch.setattr(solver_module, "_score_moves", recorded)
        moved = 0
        for inst, weights, point in _oracle_sized_instances(20210509, 12):
            pts = _points(inst)
            normalized = _normalized_score(pts, weights)
            scorers = [
                (normalized, lambda a: normalized_objective(
                    objective_components(a, inst), pts, weights)),
                (lambda parts: parts[:, 1], lambda a: objective_components(a, inst).fade),
            ]
            for start in (max_power_allocation(inst), _fill_latest(inst), _fill_spread(inst)):
                x0 = _repair_exact(start, inst, np.zeros_like(start), point)
                for batched, full in scorers:
                    got = _local_move_polish(x0, inst, batched)
                    assert np.array_equal(got, _reference_polish(x0, inst, full))
                    moved += not np.array_equal(got, x0)
        assert moved >= 20
        mixed = frozenset({1, 2})
        assert (mixed in kinds) == (batch_cells != 1)
        if batch_cells == 7:
            assert {frozenset({1}), frozenset({2})} <= kinds

    def test_scored_columns_stay_within_the_batch_bound(self, monkeypatch):
        """One vehicle on 160 slots has 25,440 relocations per pass; no
        scoring call may see more than two columns per move of a batch."""
        inst = make_instance([ChargingTask("v", 0.0, 80.0, 0.2, 0.8)])
        h = inst.horizon
        seen, inner = [], solver_module._column_parts

        def counted(cols, vs, inst):
            seen.append(cols.shape[1])
            return inner(cols, vs, inst)

        monkeypatch.setattr(solver_module, "_column_parts", counted)
        # No move beats a constant score, so exactly one pass is scored.
        _local_move_polish(_fill_spread(inst), inst, lambda parts: np.zeros(len(parts)))
        assert (h, inst.n_vehicles) == (160, 1)
        assert sum(seen[1:]) == h * (h - 1)
        assert max(seen) <= 2 * max(1, solver_module._POLISH_BATCH_CELLS // h)


class TestNeighbourhood:
    @staticmethod
    def _cases():
        """Allocations on seeded instances: slack and binding caps, partial
        last slots, a vehicle with no slots, all-zero columns, currents on a
        coarse grid (so headroom ties the moved current exactly), currents
        within ulps of a threshold, and 30 or 31 active cells around the
        swap budget."""
        rng = np.random.default_rng(31)
        for k in range(16):
            n = int(rng.integers(1, 5))
            tasks = [ChargingTask(f"v{v}", 0.0, float(rng.uniform(0.4, 2.6)), 0.4, 0.6)
                     for v in range(n)]
            tasks += [ChargingTask("idle", 0.0, 0.0, 0.5, 0.5)] * (k % 2)
            ic_max = 80.0 * len(tasks) if k % 3 == 0 else float(rng.choice([90.0, 100.0]))
            inst = make_instance(tasks, ic_max=ic_max)
            shape = (inst.horizon, inst.n_vehicles)
            x = rng.uniform(0.0, inst.i_max, size=shape)
            if k % 4 == 1:
                x = np.round(x / 10.0) * 10.0
            x[rng.random(shape) < 0.3] = 0.0
            x[:, rng.random(inst.n_vehicles) < 0.25] = 0.0
            yield inst, np.where(inst.active, x, 0.0)
        # Currents that pair up to within a few ulps of the box and cap
        # thresholds (80 A + 1e-12), so the tolerance decides some moves.
        for ic_max in (400.0, 80.0) * 4:
            inst = make_instance([ChargingTask(v, 0.0, 3.0, 0.3, 0.6) for v in "AB"],
                                 ic_max=ic_max)
            x = rng.choice(rng.uniform(20.0, 60.0, size=2), size=(6, 2))
            jitter = rng.integers(-3, 4, size=x.shape) * np.spacing(80.0)
            near = rng.random(x.shape) < 0.5
            x[near] = (80.0 + 1e-12 - rng.permutation(x.ravel())[: near.sum()]) + jitter[near]
            yield inst, x
        tasks = [ChargingTask(f"v{v}", 0.0, 4.2, 0.3, 0.6) for v in range(4)]
        for ic_max in (400.0, 150.0):
            inst = make_instance(tasks, ic_max=ic_max)
            for actives in (_SWAP_POLISH_ACTIVES, _SWAP_POLISH_ACTIVES + 1):
                x = np.zeros((inst.horizon, inst.n_vehicles))
                cells = rng.permutation(x.size)[:actives]
                x.flat[cells] = rng.uniform(1.0, 60.0, size=actives)
                yield inst, x

    def test_equals_scalar_enumeration(self):
        swaps = relocations = 0
        gate = []
        for inst, x in self._cases():
            (owners, gain, amps, zero), bounds = _neighbourhood(x, inst)
            cols = _move_columns(x, owners, gain, amps, zero)
            ref = _scalar_moves(x, inst)
            assert len(bounds) == len(ref) + 1 and bounds[-1] == len(owners)
            for m, (vs, ref_cols) in enumerate(ref):
                c = slice(bounds[m], bounds[m + 1])
                assert owners[c].tolist() == list(vs)
                assert cols[:, c].T.tobytes() == np.stack(ref_cols).tobytes()
            width = np.diff(bounds)
            relocations += int((width == 1).sum())
            swaps += int((width == 2).sum())
            if int((x > 0).sum()) in (_SWAP_POLISH_ACTIVES, _SWAP_POLISH_ACTIVES + 1):
                gate.append((int((x > 0).sum()), bool((width == 2).any())))
        assert relocations >= 500 and swaps >= 500
        assert sorted(set(gate)) == [(_SWAP_POLISH_ACTIVES, True),
                                     (_SWAP_POLISH_ACTIVES + 1, False)]

    def test_move_scores_do_not_depend_on_batch_mates(self):
        """Every move of a pass scores alone as it does inside one batch
        holding the whole pass, bit for bit.  The horizons reach 8 slots and
        more, where numpy would sum a lone column pairwise."""
        rng = np.random.default_rng(47)
        compared = lone = 0
        for k in range(12):
            tasks = [ChargingTask(f"v{v}", 0.0, float(rng.uniform(4.0, 13.0)), 0.3, 0.6)
                     for v in range(1 + k % 3)]
            prices = rng.uniform(0.02, 0.3, 27)
            inst = make_instance(tasks, prices=lambda t, p=prices: p[int(round(t / 0.5))],
                                 ic_max=float(rng.choice([100.0, 400.0])))
            shape = (inst.horizon, inst.n_vehicles)
            x = np.where(inst.active, rng.uniform(0.0, inst.i_max, size=shape), 0.0)
            x[rng.random(shape) < 0.4] = 0.0
            (owners, gain, amps, zero), bounds = _neighbourhood(x, inst)
            parts = _column_parts(x, np.arange(inst.n_vehicles), inst)
            whole = _score_moves(_move_columns(x, owners, gain, amps, zero), owners,
                                 bounds[:-1], parts, inst, lambda p: p)
            for m in range(len(bounds) - 1):
                c = slice(bounds[m], bounds[m + 1])
                alone = _score_moves(_move_columns(x, owners[c], gain[c], amps[c], zero[c]),
                                     owners[c], np.zeros(1, dtype=int), parts, inst,
                                     lambda p: p)
                assert alone.tobytes() == whole[m:m + 1].tobytes()
                lone += c.stop - c.start == 1
            compared += len(bounds) - 1
        assert compared >= 2500 and lone < compared

    def test_batch_scores_equal_column_stacked_scores(self):
        """Each batch scores bit for bit as the scalar enumeration's columns,
        column-stacked, do: numpy's sums depend on the block's layout."""
        compared = 0
        for inst, x in self._cases():
            (owners, gain, amps, zero), bounds = _neighbourhood(x, inst)
            ref = _scalar_moves(x, inst)
            parts = _column_parts(x, np.arange(inst.n_vehicles), inst)
            size = max(1, solver_module._POLISH_BATCH_CELLS // inst.horizon)
            for first in range(0, len(ref), size):
                batch = ref[first:first + size]
                vs = np.array([v for move_vs, _ in batch for v in move_vs])
                new = _column_parts(np.column_stack([c for _, cols in batch for c in cols]),
                                    vs, inst)
                starts = np.cumsum([0] + [len(move_vs) for move_vs, _ in batch[:-1]])
                want = parts.sum(axis=0) + np.add.reduceat(new - parts[vs], starts, axis=0)
                s = bounds[first:first + size + 1]
                c = slice(s[0], s[-1])
                got = _score_moves(_move_columns(x, owners[c], gain[c], amps[c], zero[c]),
                                   owners[c], s[:-1] - s[0], parts, inst, lambda p: p)
                assert got.tobytes() == want.tobytes()
                compared += len(batch)
        assert compared >= 1000


@st.composite
def _polish_inputs(draw):
    """A small feasible instance, a cap that binds or not, objective weights
    and a repaired start on it."""
    n = draw(st.integers(1, 3))
    tasks = [ChargingTask(f"v{v}", 0.0, draw(st.floats(0.3, 2.5)),
                          s := draw(st.floats(0.2, 0.6)), s + draw(st.floats(0.02, 0.25)))
             for v in range(n)]
    prices = draw(st.lists(st.floats(0.02, 0.3), min_size=5, max_size=5))
    inst = make_instance(tasks, prices=lambda t: prices[int(round(t / 0.5))],
                         ic_max=draw(st.sampled_from([80.0, 120.0, 400.0])),
                         soc_xtra_ah=draw(st.sampled_from([0.0, 15.0])))
    weights = tuple(draw(st.floats(0.1, 1.0)) for _ in range(3))
    fc = feasibility_check(inst)
    assume(fc.feasible)
    start = draw(st.sampled_from([max_power_allocation, _fill_latest, _fill_spread]))(inst)
    return inst, weights, _repair_exact(start, inst, np.zeros_like(start), fc.point)


class TestPolishProperties:
    @given(case=_polish_inputs(), fade_only=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_never_hurts(self, case, fade_only):
        """The plan stays feasible, scores no higher than its input under
        the polish's own whole-allocation score, and repeats exactly."""
        inst, weights, x0 = case
        audit = build_constraints(inst).audit
        assume(audit(x0, 1e-9) == [])
        score = (lambda parts: parts[:, 1]) if fade_only else _normalized_score(
            _points(inst), weights)

        def whole(x):
            return score(_column_parts(x, np.arange(inst.n_vehicles), inst)
                         .sum(axis=0, keepdims=True))[0]

        got = _local_move_polish(x0, inst, score)
        assert audit(got, 1e-9) == []
        assert whole(got) <= whole(x0)
        assert got.tobytes() == _local_move_polish(x0, inst, score).tobytes()

