"""Scheduling policy tests: baseline fill, admission, slot application."""

import copy
import dataclasses
import gc
import math
import re
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetcharge.fade import FadeModelParams, InvalidSlotError, calendric_fade_approx, \
    cyclic_fade_approx, cyclic_fade_exact
from fleetcharge.problem import ChargingTask, build_instance, max_power_allocation
import fleetcharge.scheduler as scheduler_module
from fleetcharge.scheduler import (
    FleetState,
    Ledger,
    LedgerEntry,
    Policy,
    SocOverflowError,
    StationLimits,
    admit_task,
    apply_slot,
    baseline_schedule,
    proposed_schedule,
)
from fleetcharge.solver import feasibility_check

from conftest import fleet, ledger_row, price_fn, reachable, set_soc, slot_rows, soc_of

# A slot model rows are appended under: pack capacity (Ah), voltage (V),
# full slot length (h) and fade parameters.
LEDGER_MODEL = (200.0, 410.0, 0.5, FadeModelParams())


def limits(**over):
    base = dict(dt=1.0, i_max=50.0, ic_max=100.0, voltage=400.0, c_bat=200.0,
                soc_xtra_ah=10.0, fade_params=FadeModelParams())
    base.update(over)
    return StationLimits(**base)


class TestPolicy:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            Policy("proposed", weights=(bad, 1.0, 1.0))

    @pytest.mark.parametrize("weights, message", [
        ((1.0, 1.0), "three values"),
        ((1.0, 1.0, 1.0, 1.0), "three values"),
        ((-1.0, 1.0, 1.0), "nonnegative"),
        ((0.0, 0.0, 0.0), "not all zero"),
    ])
    def test_bad_weights_rejected(self, weights, message):
        with pytest.raises(ValueError, match=message):
            Policy("baseline", weights=weights)

    def test_weights_held_as_python_floats(self):
        policy = Policy("proposed", weights=(1, np.float64(0.5), 0))
        assert policy.weights == (1.0, 0.5, 0.0)
        assert all(type(w) is float for w in policy.weights)


class TestBaselineSchedule:
    def test_slots_to_full_charge(self):
        """Half-charged 200 Ah pack at 50 A with 1 h slots: two full-power
        slots, then idle."""
        task = ChargingTask("v", 0.0, 4.0, 0.5, 0.8)
        state = fleet(0.0, (task, 0.5))
        alloc, inst = baseline_schedule(state, limits())
        assert alloc[:, 0] == pytest.approx([50.0, 50.0, 0.0, 0.0])

    def test_earliest_departure_gets_the_station(self):
        lm = limits(ic_max=50.0)
        early = ChargingTask("early", 0.0, 2.0, 0.5, 0.8)
        late = ChargingTask("late", 0.0, 4.0, 0.5, 0.8)
        state = fleet(0.0, (late, 0.5), (early, 0.5))
        alloc, inst = baseline_schedule(state, lm)
        assert inst.vehicle_ids == ("early", "late")
        assert alloc[0] == pytest.approx([50.0, 0.0])  # late-departing curtailed

    def test_fractional_curtailment(self):
        lm = limits(ic_max=80.0)
        early = ChargingTask("early", 0.0, 2.0, 0.5, 0.8)
        late = ChargingTask("late", 0.0, 4.0, 0.5, 0.8)
        state = fleet(0.0, (late, 0.5), (early, 0.5))
        alloc, _ = baseline_schedule(state, lm)
        assert alloc[0] == pytest.approx([50.0, 30.0])

    def test_full_vehicle_gets_nothing(self):
        task = ChargingTask("v", 0.0, 4.0, 1.0, 1.0)
        state = fleet(0.0, (task, 1.0))
        alloc, _ = baseline_schedule(state, limits())
        assert np.allclose(alloc, 0.0)

    def test_final_slot_clipped_at_full_charge(self):
        """Nearly full pack: the single needed slot runs below maximum so
        the SoC recursion cannot overshoot."""
        task = ChargingTask("v", 0.0, 4.0, 0.95, 1.0)
        state = fleet(0.0, (task, 0.95))
        alloc, inst = baseline_schedule(state, limits())
        assert alloc[0, 0] == pytest.approx(10.0)  # 0.05 * 200 Ah over 1 h
        apply_slot(state, alloc, inst, 1.0, Ledger())  # must not overflow
        assert soc_of(state, "v") == pytest.approx(1.0)

    def test_never_exceeds_limits(self):
        lm = limits(ic_max=70.0)
        tasks = [ChargingTask(f"v{k}", 0.0, 3.0 + k, 0.4, 0.9) for k in range(3)]
        state = fleet(0.0, *[(t, t.soc_start) for t in tasks])
        alloc, _ = baseline_schedule(state, lm)
        assert alloc.max() <= lm.i_max + 1e-12
        assert alloc.sum(axis=1).max() <= lm.ic_max + 1e-12


class TestAdmission:
    def test_vehicle_capacity_reject(self):
        task = ChargingTask("v", 0.0, 1.0, 0.2, 0.8)  # 120 Ah in 50 A*1 h
        state = fleet(0.0)
        res = admit_task(task, state, limits())
        assert not res.accepted and res.reason == "vehicle-capacity"

    def test_empty_station_accept(self):
        task = ChargingTask("v", 0.0, 4.0, 0.4, 0.8)
        res = admit_task(task, fleet(0.0), limits())
        assert res.accepted

    def test_station_capacity_reject(self):
        lm = limits(i_max=40.0, ic_max=50.0)
        a = ChargingTask("a", 0.0, 2.0, 0.2, 0.5)
        state = fleet(0.0, (a, 0.2))
        b = ChargingTask("b", 0.0, 2.0, 0.2, 0.5)
        res = admit_task(b, state, lm)
        assert not res.accepted and res.reason == "station-capacity"

    @pytest.mark.parametrize("soc_start, accepted", [(0.2, False), (0.8, True)],
                             ids=["needs-charge", "needs-none"])
    def test_arrival_departing_before_the_clock_is_clamped(self, soc_start, accepted,
                                                           monkeypatch):
        """A newcomer whose departure is already past is clamped to the clock
        like any plugged vehicle: with no slot left it is rejected when it
        needs charge and accepted when it needs none.  The instance admission
        checks is the baseline's instance of the fleet with it added."""
        lm = limits()
        a = ChargingTask("a", 0.0, 8.0, 0.3, 0.6)
        state = fleet(5.0, (a, 0.3))
        late = ChargingTask("late", 0.0, 3.0, soc_start, 0.5)
        seen = []

        def recorded(inst):
            seen.append(inst)
            return feasibility_check(inst)

        monkeypatch.setattr(scheduler_module, "feasibility_check", recorded)
        res = admit_task(late, state, lm)
        assert res.accepted == accepted
        assert res.reason == (None if accepted else "vehicle-capacity")
        assert state.ids == ("a",)
        _, want = baseline_schedule(fleet(5.0, (a, 0.3), (late, soc_start)), lm)
        (got,) = seen
        assert got.vehicle_ids == want.vehicle_ids == ("late", "a")
        assert got.grid.tt.tolist() == want.grid.tt.tolist() == [0, 3]
        for f in dataclasses.fields(want):
            have, expect = getattr(got, f.name), getattr(want, f.name)
            if isinstance(expect, np.ndarray):
                assert (have.dtype, have.shape) == (expect.dtype, expect.shape), f.name
                assert have.tobytes() == expect.tobytes(), f.name
            elif f.name == "grid":
                assert (have.t_s, have.dt, have.horizon) == (expect.t_s, expect.dt,
                                                             expect.horizon)
            else:
                assert have == expect, f.name

    def test_accepted_implies_proposed_succeeds(self):
        lm = limits()
        state = fleet(0.0)
        rng = np.random.default_rng(2)
        for k in range(4):
            task = ChargingTask(
                f"v{k}", 0.0, float(rng.uniform(2.0, 5.0)),
                float(rng.uniform(0.3, 0.5)), float(rng.uniform(0.6, 0.9)),
            )
            if admit_task(task, state, lm).accepted:
                state.plug(task, task.soc_start)
        alloc, rep, inst = proposed_schedule(state, (1, 1, 1), lm, price_fn(0.1))
        assert alloc is not None
        assert rep.status != "infeasible"


class TestProposedSchedule:
    def test_empty_state(self):
        alloc, rep, inst = proposed_schedule(
            fleet(0.0), (1, 1, 1), limits(), price_fn(0.1)
        )
        assert alloc.shape == (0, 0)

    def test_availability_weights_load_earliest(self):
        task = ChargingTask("v", 0.0, 4.0, 0.5, 0.75)
        state = fleet(0.0, (task, 0.5))
        alloc, _, _ = proposed_schedule(state, (0, 0, 1), limits(), price_fn(0.1))
        assert alloc[0, 0] == pytest.approx(50.0)

    def test_fade_weights_defer_charge(self):
        """With only the fade objective and a generous deadline, the
        charge-weighted mean slot index moves later than the baseline's."""
        task = ChargingTask("v", 0.0, 8.0, 0.4, 0.7)
        state = fleet(0.0, (task, 0.4))
        lm = limits()
        base_alloc, _ = baseline_schedule(state, lm)
        prop_alloc, _, _ = proposed_schedule(state, (0, 1, 0), lm, price_fn(0.1))

        def mean_slot(a):
            weights = a.sum(axis=1)
            return float((np.arange(len(weights)) * weights).sum() / weights.sum())

        assert mean_slot(prop_alloc) > mean_slot(base_alloc)


class TestApplySlot:
    def _single(self, soc=0.5, t_dep=4.0):
        task = ChargingTask("v", 0.0, t_dep, soc, 0.9)
        state = fleet(0.0, (task, soc))
        _, inst = baseline_schedule(state, limits(dt=0.5), price_fn(0.2))
        return state, inst

    def test_idle_slot(self):
        state, inst = self._single()
        ledger = slot_rows(state, np.zeros((inst.horizon, 1)), inst, 0.5)
        assert soc_of(state, "v") == 0.5
        assert ledger[0].cost_usd == 0.0
        assert ledger[0].current_a == 0.0

    def test_soc_recursion(self):
        task = ChargingTask("v", 0.0, 4.0, 0.5, 0.9)
        state = fleet(0.0, (task, 0.5))
        _, inst = baseline_schedule(state, limits(dt=0.5, i_max=40.0))
        alloc = np.zeros((inst.horizon, 1))
        alloc[0, 0] = 40.0
        apply_slot(state, alloc, inst, 0.5, Ledger())
        assert soc_of(state, "v") == pytest.approx(0.6)  # +40*0.5/200
        assert state.now == pytest.approx(0.5)

    def test_ledger_fade_matches_slot_models(self):
        params = FadeModelParams()
        state, inst = self._single()
        alloc = np.zeros((inst.horizon, 1))
        alloc[0, 0] = 30.0
        ledger = slot_rows(state, alloc, inst, 0.5)
        approx, soc_avg, _ = cyclic_fade_approx(0.5, 30.0, 0.5, 200.0, params)
        cal = calendric_fade_approx(soc_avg, params)
        entry = ledger[0]
        assert entry.fade_exact_ah == pytest.approx(
            float(cyclic_fade_exact(0.5, 30.0, 0.5, 200.0, params)) + cal, rel=1e-12
        )
        assert entry.fade_approx_ah == pytest.approx(float(approx) + cal, rel=1e-12)

    def test_slot_rows_equal_each_vehicle_alone(self):
        """Applying a slot to its vehicles together gives each row, and each
        SoC, that applying it to that vehicle alone gives: one leaves inside
        the window, one idles at zero current and one charges on the HI
        branch."""
        socs = {"short": 0.5, "idle": 0.6, "hi": 0.05, "lo": 0.5}
        tasks = {vid: ChargingTask(vid, 0.0, 0.25 if vid == "short" else 4.0, soc, 0.9)
                 for vid, soc in socs.items()}
        state = fleet(0.0, *((tasks[vid], soc) for vid, soc in socs.items()))
        _, inst = baseline_schedule(state, limits(dt=0.5, ic_max=400.0), price_fn(0.2))
        amps = {"short": 40.0, "idle": 0.0, "hi": 50.0, "lo": 30.0}
        alloc = np.zeros((inst.horizon, inst.n_vehicles))
        alloc[0] = [amps[vid] for vid in inst.vehicle_ids]
        assert inst.fade_params.is_hi(amps["hi"], socs["hi"])
        assert not inst.fade_params.is_hi(amps["lo"], socs["lo"])

        rows = slot_rows(state, alloc, inst, 0.4)
        assert [e.vehicle_id for e in rows] == list(inst.vehicle_ids)
        assert state.now == 0.4
        by_id = {e.vehicle_id: e for e in rows}
        assert by_id["short"].duration_h == 0.25 and by_id["hi"].duration_h == 0.4
        for v, vid in enumerate(inst.vehicle_ids):
            alone = fleet(0.0, (tasks[vid], socs[vid]))
            _, own = baseline_schedule(alone, limits(dt=0.5, ic_max=400.0), price_fn(0.2))
            assert slot_rows(alone, alloc[:own.horizon, [v]], own, 0.4) == (by_id[vid],)
            assert soc_of(alone, vid) == soc_of(state, vid)

    def test_row_columns_equal_scalar_expressions(self):
        """Each row field, computed as a column over the slot's vehicles,
        has the bits of the per-vehicle scalar expression, a vehicle pushed
        just past full included: the CSV ledger prints too few digits to see
        a one-ulp change."""
        socs = {"lo": 0.5, "hi": 0.05, "idle": 0.6, "full": 0.9, "short": 0.3}
        tasks = {vid: ChargingTask(vid, 0.0, 0.25 if vid == "short" else 4.0, soc, 1.0)
                 for vid, soc in socs.items()}
        state = fleet(0.0, *((tasks[vid], soc) for vid, soc in socs.items()))
        _, inst = baseline_schedule(state, limits(dt=0.5, ic_max=400.0, voltage=410.0),
                                    price_fn(0.137))
        amps = {"lo": 31.7, "hi": 50.0, "idle": 0.0, "full": 50.0000001, "short": 41.3}
        alloc = np.zeros((inst.horizon, inst.n_vehicles))
        alloc[0] = [amps[vid] for vid in inst.vehicle_ids]
        window = 0.4
        assert 1.0 < socs["full"] + amps["full"] * window / 200.0 <= 1.0 + 1e-9

        rows = slot_rows(state, alloc, inst, window)
        price = float(inst.wep[0])
        assert len(rows) == inst.n_vehicles
        for v, e in enumerate(rows):
            vid = inst.vehicle_ids[v]
            a = amps[vid]
            d = min(window, float(inst.durations[0, v]))
            q = a * d
            kwh = q * 410.0 / 1000.0
            # the fade columns are checked against the slot models above
            expected = (0.0, vid, d, a, a * 410.0 / 1000.0, price, kwh * price, q,
                        min(socs[vid] + q / 200.0, 1.0), e.fade_exact_ah, e.fade_approx_ah)
            assert [x.hex() if isinstance(x, float) else x for x in e] == \
                [x.hex() if isinstance(x, float) else x for x in expected]
            assert soc_of(state, vid) == e.soc
        assert {e.vehicle_id: e.soc for e in rows}["full"] == 1.0
        assert {e.vehicle_id: e.duration_h for e in rows}["short"] == 0.25

    def test_overflow_leaves_state_unchanged(self):
        """The slot's vehicles are checked before any is charged: when the
        second would overflow, the first keeps its SoC and the clock stays."""
        first = ChargingTask("first", 0.0, 2.0, 0.5, 0.9)
        second = ChargingTask("second", 0.0, 4.0, 0.99, 1.0)
        state = fleet(0.0, (first, 0.5), (second, 0.99))
        _, inst = baseline_schedule(state, limits(dt=0.5), price_fn(0.2))
        assert inst.vehicle_ids == ("first", "second")
        alloc = np.zeros((inst.horizon, 2))
        alloc[0] = [50.0, 50.0]
        ledger = Ledger()
        with pytest.raises(SocOverflowError, match="vehicle second"):
            apply_slot(state, alloc, inst, 0.5, ledger)
        assert state.now == 0.0 and len(ledger) == 0
        assert (soc_of(state, "first"), soc_of(state, "second")) == (0.5, 0.99)

    @pytest.mark.parametrize("hours", [0.0, 1.0])
    def test_stale_plan_raises_and_changes_nothing(self, hours):
        """A plan walked after a plug, or after an unplug, with no new plan
        raises before anything changes: the clock, every fleet column and
        the ledger stay as they were, also for a walk of no length."""
        lm = limits(dt=0.5)
        state = fleet(0.0, (ChargingTask("a", 0.0, 2.0, 0.3, 0.9), 0.3),
                      (ChargingTask("b", 0.0, 4.0, 0.4, 0.9), 0.4))
        ledger = Ledger()
        apply_slot(state, *baseline_schedule(state, lm), 0.5, ledger)
        for change in ("plug", "unplug"):
            plan = baseline_schedule(state, lm)
            if change == "plug":
                state.plug(ChargingTask("c", 0.5, 3.0, 0.5, 0.9), 0.5)
            else:
                state.unplug("a")
            held, rows = _held(state), _ledger_bytes(ledger)
            with pytest.raises(ValueError, match="^the plan's vehicles are not the fleet's"):
                apply_slot(state, *plan, state.now + hours, ledger)
            assert all(a is b and x == y for (a, x), (b, y) in
                       zip(_held(state), held, strict=True)), change
            assert _ledger_bytes(ledger) == rows and len(ledger) == 2
        assert state.ids == ("c", "b") and state.now == 0.5

    def test_walk_equals_per_slot_reference(self):
        """A walk of two whole slots and the part of a third equals applying
        the plan one slot at a time, row by row and SoC by SoC, bit for bit:
        ``leave`` departs inside the second slot, and the third slot's window
        is measured from the clock the second left, which is not its start."""
        t_s, dt = 2 / 60, 0.5
        socs = {"stay": 0.3, "leave": 0.5, "hi": 0.05, "idle": 0.6}
        tasks = {vid: ChargingTask(vid, t_s, t_s + (0.75 if vid == "leave" else 4.0), soc, 1.0)
                 for vid, soc in socs.items()}
        state = fleet(t_s, *((tasks[vid], soc) for vid, soc in socs.items()))
        _, inst = baseline_schedule(state, limits(dt=dt, ic_max=400.0),
                                    price_fn(lambda t: 0.1 + 0.01 * round(t / dt)))
        amps = {"stay": 31.7, "leave": 40.0, "hi": 50.0, "idle": 0.0}
        alloc = np.array([[amps[vid] * (1.0 + 0.1 * i) for vid in inst.vehicle_ids]
                          for i in range(inst.horizon)])
        until = t_s + 1.2
        assert (t_s + dt) + dt != t_s + 2 * dt < until < t_s + 3 * dt

        rows, soc, clock = [], dict(zip(state.ids, state.soc_cur.tolist())), t_s
        for i in range(inst.horizon):
            start = t_s + i * dt
            window = dt if start + dt <= until else until - clock
            here = [v for v in range(inst.n_vehicles) if inst.durations[i, v] > 0]
            d = np.minimum(window, inst.durations[i, here])
            a = alloc[i, here]
            s0 = np.array([soc[inst.vehicle_ids[v]] for v in here])
            ah = a * d
            s1 = np.minimum(s0 + ah / 200.0, 1.0)
            exact = cyclic_fade_exact(s0, a, d, 200.0, inst.fade_params)
            approx, avg, _ = cyclic_fade_approx(s0, a, d, 200.0, inst.fade_params)
            cal = d / dt * calendric_fade_approx(np.minimum(avg, 1.0), inst.fade_params)
            price = float(inst.wep[i])
            for k, v in enumerate(here):
                vid = inst.vehicle_ids[v]
                rows.append(LedgerEntry(start, vid, d[k], a[k], a[k] * 400.0 / 1000.0, price,
                                        ah[k] * 400.0 / 1000.0 * price, ah[k], s1[k],
                                        exact[k] + cal[k], approx[k] + cal[k]))
                soc[vid] = s1[k]
            clock = start + window
            if start + dt >= until:
                break

        ledger = slot_rows(state, alloc, inst, until)
        assert [e.time_h for e in ledger] == [t_s] * 4 + [t_s + dt] * 4 + [t_s + 2 * dt] * 3
        assert [[x.hex() if isinstance(x, float) else x for x in e] for e in ledger] == \
            [[float(x).hex() if i != 1 else x for i, x in enumerate(e)] for e in rows]
        assert {vid: s.hex() for vid, s in zip(state.ids, state.soc_cur.tolist())} == \
            {vid: float(s).hex() for vid, s in soc.items()}
        assert state.now == until

    def test_integer_socs_walk_in_floats(self):
        """A fleet whose SoCs are all Python ints charges on from each
        slot's SoC: the walk keeps the SoC vector in floats, so a multi-slot
        walk conserves charge (the per-slot walk truncated it to an int
        between slots)."""
        task = ChargingTask("v", 0.0, 4.0, 0, 1)
        state = fleet(0.0, (task, 0))
        alloc, inst = baseline_schedule(state, limits(dt=0.5), price_fn(0.2))
        ledger = slot_rows(state, alloc, inst, 1.5)
        assert len(ledger) == 3
        assert soc_of(state, "v") == pytest.approx(
            sum(e.energy_ah for e in ledger) / inst.c_bat, rel=1e-12)
        assert ledger[0].soc < ledger[1].soc < ledger[2].soc

    def test_overflow_in_a_later_slot_changes_nothing(self):
        """A walk is checked whole before any of it applies: when the second
        slot would push a vehicle past full, the first slot's charge, the
        clock and the ledger all stay as they were."""
        task = ChargingTask("v", 0.0, 4.0, 0.9, 1.0)
        state = fleet(0.0, (task, 0.9))
        _, inst = baseline_schedule(state, limits(dt=0.5), price_fn(0.2))
        alloc = np.full((inst.horizon, 1), 40.0)  # +0.1 SoC per slot
        ledger = Ledger()
        ledger.append(*zip(TestLedger.PRIMITIVE[0]), *LEDGER_MODEL)
        with pytest.raises(SocOverflowError, match="vehicle v would reach SoC 1.1"):
            apply_slot(state, alloc, inst, 1.0, ledger)
        assert (state.now, soc_of(state, "v")) == (0.0, 0.9)
        assert list(ledger) == TestLedger.ROWS[:1]

    @pytest.mark.parametrize("soc, amps, error, field", [
        (-0.1, 10.0, InvalidSlotError, "soc_init"),
        (1.2, 0.0, InvalidSlotError, "soc_init"),
        (0.5, -1.0, InvalidSlotError, "current"),
        (0.5, float("nan"), InvalidSlotError, "current"),
        (0.99, 50.0, SocOverflowError, None),
    ], ids=["soc_init-below", "soc_init-above", "current", "current-nan", "overflow"])
    def test_invalid_slot_reports_field(self, soc, amps, error, field):
        """A slot its vehicle cannot charge raises, naming the field and the
        vehicle, and changes nothing."""
        state, inst = self._single()
        set_soc(state, "v", soc)
        alloc = np.zeros((inst.horizon, 1))
        alloc[0, 0] = amps
        ledger = Ledger()
        with pytest.raises(error, match="vehicle v") as err:
            apply_slot(state, alloc, inst, 0.5, ledger)
        if field is not None:
            assert err.value.field_name == field
        assert (state.now, soc_of(state, "v"), len(ledger)) == (0.0, soc, 0)

    def test_charge_conservation(self):
        state, inst = self._single()
        alloc = np.zeros((inst.horizon, 1))
        alloc[0, 0] = 25.0
        soc_before = soc_of(state, "v")
        ledger = slot_rows(state, alloc, inst, 0.5)
        delta = soc_of(state, "v") - soc_before
        assert delta == pytest.approx(ledger[0].energy_ah / 200.0, rel=1e-12)

    def test_partial_duration(self):
        state, inst = self._single()
        alloc = np.zeros((inst.horizon, 1))
        alloc[0, 0] = 40.0
        ledger = slot_rows(state, alloc, inst, 0.25)
        assert ledger[0].energy_ah == pytest.approx(10.0)
        assert state.now == pytest.approx(0.25)

    def test_rounding_gap_before_until_makes_no_row(self):
        # From 0.9166666666666666 h, slot 3 ends at 4.916666666666666 h but
        # slot 4 starts at 4.916666666666667 h: a walk to that start applies
        # four whole slots and no 8.9e-16 h row at 4.916666666666667 h.
        t0, until = 0.9166666666666666, 4.916666666666667
        assert t0 + 3.0 + 1.0 < until == t0 + 4.0
        task = ChargingTask("v", t0, 8.0, 0.1, 0.9)
        state = fleet(t0, (task, 0.1))
        alloc, inst = baseline_schedule(state, limits(dt=1.0, i_max=20.0))
        ledger = Ledger()
        apply_slot(state, alloc, inst, until, ledger)
        assert [e.time_h for e in ledger] == [t0 + i for i in range(4)]
        assert [e.duration_h for e in ledger] == [1.0] * 4
        assert soc_of(state, "v") == pytest.approx(0.1 + 4 * 20.0 / 200.0)
        assert state.now == until

    def test_soc_overflow_raises(self):
        state, inst = self._single(soc=0.99)
        alloc = np.zeros((inst.horizon, 1))
        alloc[0, 0] = 50.0  # 25 Ah on a 200 Ah pack: +0.125 SoC
        with pytest.raises(SocOverflowError):
            apply_slot(state, alloc, inst, 0.5, Ledger())


@dataclass
class VehicleState:
    """One plugged vehicle of a :class:`DictFleet`."""

    task: ChargingTask
    soc_cur: float


@dataclass
class DictFleet:
    """The fleet as :class:`FleetState` held it before its columns, kept as
    the reference the columns are checked against: a dict of
    :class:`VehicleState` by vehicle id, in plug order, and the clock."""

    now: float
    vehicles: dict = field(default_factory=dict)


def _dict_fleet(state) -> DictFleet:
    """The reference fleet holding what the column fleet ``state`` holds."""
    return DictFleet(state.now, {vid: VehicleState(task, soc) for vid, task, soc in
                                 zip(state.ids, state.tasks, state.soc_cur.tolist())})


def _reference_walk(state, alloc, inst, until, ledger):
    """:func:`apply_slot` as a loop over slots, gathering each slot's
    vehicles on their own, kept as written before the walk became one block;
    ``state`` is a :class:`DictFleet`."""
    now, grid, ids, vehicles = state.now, inst.grid, inst.vehicle_ids, state.vehicles
    if until <= now + 1e-12 or not inst.horizon:
        state.now = until
        return
    soc_v = np.array([vehicles[vid].soc_cur if vid in vehicles else 0.0 for vid in ids])
    walk = []  # per slot: start, index, vehicle columns; its rows' d, amps, SoC before and after
    for i in range(inst.horizon):
        slot_t = grid.t_s + i * grid.dt
        slot_end = slot_t + grid.dt
        window = grid.dt if slot_end <= until else until - now
        if window <= 1e-12:
            break
        d = np.minimum(window, inst.durations[i])
        cols = [v for v in np.flatnonzero(d > 0).tolist() if ids[v] in vehicles]
        soc, amps, d = soc_v[cols], alloc[i, cols], d[cols]
        soc_new = soc + amps * d / inst.c_bat
        soc_v[cols] = np.minimum(soc_new, 1.0)
        walk.append((slot_t, i, cols, d, amps, soc, soc_new))
        now = slot_t + window
        if slot_end >= until:
            break
    slot_t, slot_i, cols, d, amps, soc, soc_new = zip(*walk)
    n = [len(c) for c in cols]
    row_ids = [ids[v] for c in cols for v in c]
    d, amps, soc, soc_new = map(np.concatenate, (d, amps, soc, soc_new))
    for name, bad, value in (("current", ~(amps >= 0.0), amps),
                             ("soc_init", ~((0.0 <= soc) & (soc <= 1.0)), soc)):
        if bad.any():
            k = int(np.argmax(bad))
            raise InvalidSlotError(name, f"vehicle {row_ids[k]}: {value[k]} out of range")
    over = soc_new > 1.0 + 1e-9
    if over.any():
        k = int(np.argmax(over))
        raise SocOverflowError(f"vehicle {row_ids[k]} would reach SoC {soc_new[k]:.9f}")

    soc_out = np.minimum(soc_new, 1.0)
    for vid, s in dict(zip(row_ids, soc_out.tolist())).items():  # each vehicle's last row
        vehicles[vid].soc_cur = s
    state.now = until
    ledger.append(
        np.repeat(slot_t, n), row_ids, d, amps, np.repeat(inst.wep[list(slot_i)], n),
        soc, soc_out, inst.c_bat, inst.voltage, grid.dt, inst.fade_params,
    )


def _held(state):
    """Each of a :class:`FleetState`'s fields, with its bytes if an array."""
    return [(value, value.tobytes() if isinstance(value, np.ndarray) else value)
            for value in vars(state).values()]


def _ledger_bytes(ledger):
    return [ledger.column(name) if name == "vehicle_id" else ledger.column(name).tobytes()
            for name in LedgerEntry._fields]


def _fleet_state(state):
    """The clock and each vehicle's SoC, of a :class:`FleetState` or a
    :class:`DictFleet`, by vehicle id."""
    if isinstance(state, DictFleet):
        return state.now, {vid: float(vs.soc_cur) for vid, vs in state.vehicles.items()}
    return state.now, dict(zip(state.ids, state.soc_cur.tolist()))


class TestBlockWalk:
    """:func:`apply_slot` walks a plan as one block and gives, bit for bit,
    the rows, SoCs and errors of :func:`_reference_walk` on seeded random
    plans."""

    @staticmethod
    def _plan(seed, clock=None):
        """A random fleet at ``clock``, its max-power plan scaled down cell by
        cell, current on cells past each vehicle's stay (whose length is 0)
        and a vehicle filled to within 1e-9 above full."""
        rng = np.random.default_rng(seed)
        n, dt = int(rng.integers(1, 16)), float(rng.choice([0.25, 0.5, 1.0 / 3.0]))
        t_s = float(rng.uniform(0.0, 50.0)) if clock is None else clock
        stay = np.where(rng.random(n) < 0.3, rng.integers(0, 12, n) * dt, rng.uniform(0, 4, n))
        tasks = [ChargingTask(f"v{v:02d}", t_s, t_s + float(stay[v]), float(soc), 1.0)
                 for v, soc in enumerate(np.where(rng.random(n) < 0.2, 1.0, rng.random(n)))]
        state = fleet(t_s, *((task, task.soc_start) for task in tasks))
        lm = limits(dt=dt, i_max=80.0, ic_max=float(rng.choice([160.0, 1200.0])))
        _, inst = baseline_schedule(state, lm, price_fn(lambda t: 0.05 + 0.01 * (t % 3.0)))
        scale = np.where(rng.random(inst.durations.shape) < 0.5, 1.0,
                         rng.random(inst.durations.shape))
        alloc = max_power_allocation(inst) * scale
        alloc = np.where(inst.active, alloc, rng.uniform(0.0, 80.0, alloc.shape))
        first = np.flatnonzero(inst.durations[0] > 0) if inst.horizon else []
        if len(first):
            v = int(rng.choice(first))
            soc = soc_of(state, inst.vehicle_ids[v])
            alloc[:, v] = 0.0  # one slot takes it to 1 + 5e-10 from below full
            alloc[0, v] = (1.0 + 5e-10 - soc) * inst.c_bat / inst.durations[0, v]
        return rng, state, alloc, inst

    @staticmethod
    def _until(rng, inst):
        """A walk's end and its kind: inside the plan, on a slot boundary,
        one ulp past or before one, or past the plan's end."""
        t_s, dt = inst.grid.t_s, inst.grid.dt
        k = int(rng.integers(0, max(inst.horizon, 1) + 1))
        kind = ("inside", "boundary", "ulp_past", "ulp_before", "past_end")[int(rng.integers(0, 5))]
        return kind, {"inside": t_s + float(rng.uniform(0.0, max(inst.horizon, 1) * dt)),
                      "boundary": t_s + k * dt,
                      "ulp_past": math.nextafter(t_s + k * dt, math.inf),
                      "ulp_before": math.nextafter(t_s + k * dt, -math.inf),
                      "past_end": t_s + inst.horizon * dt + 1.0}[kind]

    def _both(self, state, alloc, inst, until, ledgers):
        """The two walks from copies of ``state``, the reference's as a
        :class:`DictFleet`: each one's final state and ledger bytes, or its
        error."""
        out = []
        for walk, ledger in zip((apply_slot, _reference_walk), ledgers):
            s = copy.deepcopy(state) if walk is apply_slot else _dict_fleet(state)
            try:
                walk(s, alloc, inst, until, ledger)
            except (InvalidSlotError, SocOverflowError) as exc:
                out.append((type(exc), str(exc), getattr(exc, "field_name", None),
                            _fleet_state(s), _ledger_bytes(ledger)))
            else:
                out.append((s, _fleet_state(s), _ledger_bytes(ledger)))
        return out

    def test_walk_equals_reference(self):
        """200 seeded plans, each walked once; every case the plans are drawn
        for occurs."""
        seen = dict.fromkeys(("inside", "boundary", "ulp_past", "ulp_before", "past_end",
                              "several_slots", "zero_length_current",
                              "above_full"), 0)
        for seed in range(200):
            rng, state, alloc, inst = self._plan(seed)
            kind, until = self._until(rng, inst)
            ledger = Ledger()
            (_, got, got_rows), (_, want, want_rows) = self._both(state, alloc, inst, until,
                                                                (ledger, Ledger()))
            assert got == want and got_rows == want_rows, seed
            seen[kind] += 1
            times = set(ledger.column("time_h"))
            seen["several_slots"] += len(times) > 1
            walked = inst.durations[:len(times)]
            seen["zero_length_current"] += bool(((walked == 0) & (alloc[:len(times)] > 0)).any())
            soc = dict(zip(state.ids, state.soc_cur.tolist()))
            for e in ledger:  # a row that reaches past full, within 1e-9, and ends at 1.0
                seen["above_full"] += soc[e.vehicle_id] + e.energy_ah / inst.c_bat > 1.0
                soc[e.vehicle_id] = e.soc
        assert min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("soc", [1.0 + 1e-12, -0.0, 0.25])
    def test_cell_without_length_leaves_the_soc_as_is(self, soc):
        """A cell of no length before a vehicle's next cell changes nothing of
        its SoC: one out of range still raises at the next cell, and a -0.0
        keeps its sign."""
        task = ChargingTask("v", 0.0, 4.0, 0.5, 1.0)
        state = fleet(0.0, (task, 0.5))
        _, inst = baseline_schedule(state, limits(dt=0.5), price_fn(0.2))
        inst = dataclasses.replace(inst, durations=np.where(
            np.arange(inst.horizon)[:, None] == 0, 0.0, inst.durations))
        set_soc(state, "v", soc)
        alloc = np.full((inst.horizon, 1), 10.0)
        got, want = self._both(state, alloc, inst, 1.0, (Ledger(), Ledger()))
        assert repr(got[1:]) == repr(want[1:])
        assert (got[0] is InvalidSlotError) == (soc > 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_replayed_walks_equal_reference(self, seed):
        """A run of walks, each from a plan built where the last one left the
        fleet, into one ledger per side."""
        rng, state, alloc, inst = self._plan(1000 + seed)
        ledgers, walks = (Ledger(), Ledger()), 0
        for _ in range(12):
            if not state.ids:
                break
            until = state.now + float(rng.choice([0.1, 0.5, 1.3, inst.grid.dt]))
            (state, got, got_rows), (_, want, want_rows) = self._both(state, alloc, inst, until,
                                                                    ledgers)
            assert got == want and got_rows == want_rows
            walks += 1
            alloc, inst = baseline_schedule(state, limits(dt=inst.grid.dt, i_max=80.0,
                                                          ic_max=inst.ic_max))
        assert walks > 0

    @pytest.mark.parametrize("fault", ["negative", "nan", "soc_above", "soc_below",
                                       "soc_nan", "overflow"])
    @pytest.mark.parametrize("seed", range(12))
    def test_faults_raise_as_reference(self, seed, fault):
        """A bad current, a bad SoC or an overflow past 1 + 1e-9 on one to
        three of the walk's rows raises the reference's error, naming its
        vehicle, with the state and the ledger untouched."""
        probe, draw = Ledger(), 2000 + 100 * seed
        while not len(probe):  # the first plan from the seed's on whose walk makes rows
            rng, state, alloc, inst = self._plan(draw)
            until = inst.grid.t_s + float(rng.uniform(0.1, 3.0))
            _reference_walk(_dict_fleet(state), alloc, inst, until, probe)
            draw += 1
        picks = rng.choice(len(probe), size=min(3, len(probe)), replace=False).tolist()
        alloc = alloc.copy()
        for k in picks:
            row = probe[k]
            v = inst.vehicle_ids.index(row.vehicle_id)
            i = round((row.time_h - inst.grid.t_s) / inst.grid.dt)
            if fault == "negative":
                alloc[i, v] = -1e-12
            elif fault == "nan":
                alloc[i, v] = math.nan
            elif fault == "overflow":
                alloc[i, v] = 2.0 * inst.c_bat / row.duration_h
            else:
                set_soc(state, row.vehicle_id, {
                    "soc_above": 1.0 + 1e-12, "soc_below": -1e-12, "soc_nan": math.nan}[fault])
        before = _fleet_state(state)
        kept = Ledger()
        kept.append(*zip(TestLedger.PRIMITIVE[0]), *LEDGER_MODEL)
        held = _ledger_bytes(kept)
        ledgers = (copy.deepcopy(kept), copy.deepcopy(kept))
        got, want = self._both(state, alloc, inst, until, ledgers)
        assert got[0] in (InvalidSlotError, SocOverflowError)
        assert repr(got) == repr(want)  # repr: a NaN SoC compares unequal to itself
        assert repr(got[3]) == repr(before) and got[4] == held


class TestLedger:
    # time, vehicle, duration, current, price, SoC before, SoC after
    PRIMITIVE = [
        (9.5, "a", 0.5, 80.0, 0.03, 0.4, 0.6),
        (9.5, "b", 0.25, 0.0, 0.03, 1.0, 1.0),
        (10.0, "a", 0.1, 12.5, 0.125, 0.6, 0.60625),
    ]
    ROWS = [ledger_row(*p, *LEDGER_MODEL) for p in PRIMITIVE]

    def test_rows_read_back_equal_hand_built_rows(self):
        """Each row read from the columns is the row built from its
        primitive fields, with Python floats, also from an integer current
        column."""
        ledger = Ledger()
        columns = list(zip(*self.PRIMITIVE[:2]))
        columns[LedgerEntry._fields.index("current_a")] = np.array([80, 0])
        ledger.append(*columns, *LEDGER_MODEL)
        assert list(ledger) == self.ROWS[:2]
        for row in ledger:
            assert type(row) is LedgerEntry
            assert [type(x) for x in row] == [float, str] + [float] * 9

    def test_sequence_protocol_and_row_order(self):
        """Appended columns read back in append order by ``len``, indexing,
        iteration and ``==`` against rows held in any sequence."""
        ledger = Ledger()
        assert len(ledger) == 0 and ledger == [] and list(ledger) == []
        ledger.append(*zip(*self.PRIMITIVE[:2]), *LEDGER_MODEL)
        ledger.append(*zip(*self.PRIMITIVE[2:]), *LEDGER_MODEL)
        assert len(ledger) == 3
        assert [ledger[i] for i in range(3)] == self.ROWS
        assert ledger[-1] == self.ROWS[-1]
        with pytest.raises(IndexError):
            ledger[3]
        with pytest.raises(TypeError):
            ledger[0:2]
        assert list(ledger) == self.ROWS and list(reversed(ledger)) == self.ROWS[::-1]
        assert ledger == self.ROWS and ledger == tuple(self.ROWS) and self.ROWS == ledger
        assert ledger != self.ROWS[:2] and ledger != self.ROWS[::-1]
        again = Ledger()
        again.append(*zip(*self.PRIMITIVE), *LEDGER_MODEL)
        assert again == ledger
        assert ledger != 3

    def test_column_holds_one_field_in_row_order(self):
        ledger = Ledger()
        ledger.append(*zip(*self.PRIMITIVE), *LEDGER_MODEL)
        for name in LedgerEntry._fields:
            assert list(ledger.column(name)) == [getattr(e, name) for e in self.ROWS]
        assert type(ledger.column("vehicle_id")) is list
        assert ledger.column("cost_usd").typecode == "d"

    def test_columns_of_any_layout_read_back_with_the_same_bits(self):
        """Rows appended from lists, from strided views of larger arrays and
        from integer arrays hold the bits of rows appended from contiguous
        float arrays."""
        time_h, ids, *rest = zip(*self.PRIMITIVE)
        floats = [np.array(c) for c in (time_h, *rest)]  # current is floats[2]

        def appended(cols):
            ledger = Ledger()
            ledger.append(cols[0], list(ids), *cols[1:], *LEDGER_MODEL)
            return _ledger_bytes(ledger)

        want = appended(floats)
        assert appended([c.tolist() for c in floats]) == want
        strided = [np.repeat(c, 2)[::2] for c in floats]
        assert not any(c.flags.c_contiguous for c in strided)
        assert appended(strided) == want
        whole_amps = np.array([80.0, 0.0, 12.0])
        assert appended(floats[:2] + [whole_amps.astype(int)] + floats[3:]) == \
            appended(floats[:2] + [whole_amps] + floats[3:])

    def test_each_append_derives_under_its_own_model(self):
        """Rows appended under another slot model than the pending rows
        derive under their own, read before or after the switch."""
        other = (210.0, 400.0, 0.25, FadeModelParams(k1=2e-4, p1=2e-4))
        read_between, read_after = Ledger(), Ledger()
        for ledger in (read_between, read_after):
            ledger.append(*zip(*self.PRIMITIVE[:2]), *LEDGER_MODEL)
            if ledger is read_between:
                assert list(ledger) == self.ROWS[:2]
            ledger.append(*zip(*self.PRIMITIVE[2:]), *other)
        expected = self.ROWS[:2] + [ledger_row(*self.PRIMITIVE[2], *other)]
        assert expected[2] != self.ROWS[2]
        assert list(read_between) == list(read_after) == expected


class TestFleetState:
    def test_instance_starts_at_current_soc(self):
        """Each reschedule's instance starts at the vehicles' current SoC and
        the clock, not at the task's arrival values."""
        task = ChargingTask("v", 0.0, 3.0, 0.4, 0.8)
        state = fleet(0.0, (task, 0.4))
        set_soc(state, "v", 0.6)
        state.now = 1.0
        _, inst = baseline_schedule(state, limits())
        assert inst.soc_start.tolist() == [0.6]
        assert (inst.grid.t_s, inst.durations.sum()) == (1.0, 2.0)
        set_soc(state, "v", 0.7)
        _, inst = baseline_schedule(state, limits())
        assert inst.soc_start.tolist() == [0.7]

    def test_instance_follows_charging_and_overdue_departures(self):
        """After a vehicle charges its instance starts at its new SoC with a
        smaller energy window, and once the clock passes a departure that
        vehicle's departure is the clock: no slot is left to it."""
        charging = ChargingTask("charging", 0.0, 4.0, 0.5, 0.9)
        idle = ChargingTask("idle", 0.0, 4.0, 1.0, 1.0)
        overdue = ChargingTask("overdue", 0.0, 0.75, 0.6, 0.6)
        state = fleet(0.0, (charging, 0.5), (idle, 1.0), (overdue, 0.6))
        _, inst = baseline_schedule(state, limits(dt=0.5))
        assert inst.vehicle_ids == ("overdue", "charging", "idle")
        alloc = np.zeros((inst.horizon, inst.n_vehicles))
        alloc[:, 1] = 40.0

        apply_slot(state, alloc, inst, 1.0, Ledger())  # past overdue's departure at 0.75
        _, later = baseline_schedule(state, limits(dt=0.5))
        assert later.vehicle_ids == ("overdue", "charging", "idle")
        assert later.soc_start.tolist() == [0.6, 0.7, 1.0]
        assert later.grid.tt.tolist() == [0, 6, 6]
        assert later.e_lo == pytest.approx([0.0, 0.2 * 200.0, 0.0])

    def test_soc_above_full_rejected(self):
        """A vehicle whose current SoC is out of range is named, as each
        task's construction named it."""
        state = fleet(0.0, (ChargingTask("ok", 0.0, 4.0, 0.5, 0.8), 0.5),
                      (ChargingTask("over", 0.0, 4.0, 0.5, 0.8), 0.5))
        set_soc(state, "over", 1.2)
        with pytest.raises(ValueError, match=r"vehicle over: soc_start 1.2 not in \[0, 1\]"):
            baseline_schedule(state, limits())


def _reference_instance(ref, limits, prices_fn):
    """The instance of a :class:`DictFleet` as it was assembled before the
    columns: one row per vehicle, in the fleet's (departure, id) order, each
    departure then clamped to the clock with ``max``."""
    now, ids, rows = ref.now, [], []
    for vs in sorted(ref.vehicles.values(), key=lambda vs: (vs.task.t_dep, vs.task.vehicle_id)):
        task = vs.task
        ids.append(task.vehicle_id)
        rows.append((max(task.t_dep, now), vs.soc_cur, task.soc_dep))
    t_dep, soc, soc_dep = np.array(rows, dtype=float).reshape(-1, 3).T
    return build_instance(ids, t_dep, soc, soc_dep, now, prices_fn, limits)


def _instance_bytes(inst):
    """An instance's vehicle order, grid and arrays, each array as its
    dtype, shape and bytes."""
    return (inst.vehicle_ids, inst.grid.t_s, inst.grid.dt, inst.horizon,
            *((a.dtype.str, a.shape, a.tobytes()) for a in
              (inst.grid.tt, inst.durations, inst.active, inst.e_lo, inst.e_hi,
               inst.soc_start, inst.wep)))


def _walk_both(state, ref, plan, until, ledgers):
    """One walk of ``plan`` on the column fleet and on its reference: each
    one's error, or None."""
    out = []
    for walk, fleet_state, ledger in zip((apply_slot, _reference_walk), (state, ref), ledgers):
        try:
            walk(fleet_state, *plan, until, ledger)
        except (InvalidSlotError, SocOverflowError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append(None)
    return out


_SEQ_IDS = ("v2", "v10", "a\x00", "a", "B")
_SEQ_LIMITS = limits(dt=0.5, i_max=80.0, ic_max=160.0)
_SEQ_PRICES = price_fn(lambda t: 0.05 + 0.01 * (t % 3.0))
# plug(id, departure on a 0.25 h grid, SoC, departure SoC, replan),
# unplug(id, replan) and walk(hours), each walk replanning after it; a walk
# after a plug or unplug that did not replan raises
_PLUG = st.tuples(st.just("plug"), st.sampled_from(_SEQ_IDS), st.integers(0, 16),
                  st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
_UNPLUG = st.tuples(st.just("unplug"), st.sampled_from(_SEQ_IDS), st.booleans())
_WALK = st.tuples(st.just("walk"), st.sampled_from([0.1, 0.25, 0.5, 0.6, 1.3]))


class TestFleetColumns:
    """The fleet's columns, checked against the dict fleet they replaced."""

    def test_plug_keeps_departure_then_id_order(self):
        tasks = [ChargingTask(vid, 0.0, t_dep, 0.5, 0.8)
                 for vid, t_dep in (("b", 2.0), ("a\x00", 1.0), ("Z", 1.0), ("a", 1.0),
                                    ("c", 0.5))]
        state = fleet(0.0, *((t, 0.1 * k) for k, t in enumerate(tasks)))
        assert state.ids == ("c", "Z", "a", "a\x00", "b")
        assert state.tasks == tuple(sorted(tasks, key=lambda t: (t.t_dep, t.vehicle_id)))
        assert state.t_dep.tolist() == [0.5, 1.0, 1.0, 1.0, 2.0]
        assert state.soc_cur.tolist() == [0.4, 0.2, 0.30000000000000004, 0.1, 0.0]
        assert state.soc_dep.tolist() == [0.8] * 5

    def test_unplug_returns_task_and_soc(self):
        a, b = ChargingTask("a", 0.0, 1.0, 0.5, 0.8), ChargingTask("b", 0.0, 2.0, 0.3, 0.9)
        state = fleet(0.0, (a, 0.6), (b, 0.3))
        assert state.unplug("ghost") is None
        assert state.unplug("a") == (a, 0.6)
        assert (state.ids, state.tasks, state.t_dep.tolist(), state.soc_dep.tolist(),
                state.soc_cur.tolist()) == (("b",), (b,), [2.0], [0.9], [0.3])
        assert state.unplug("a") is None

    def test_duplicate_plug_raises_and_changes_nothing(self):
        task = ChargingTask("a", 0.0, 1.0, 0.5, 0.8)
        state = fleet(0.0, (task, 0.5))
        held = list(vars(state).values())
        with pytest.raises(ValueError, match="duplicate arrival for a"):
            state.plug(ChargingTask("a", 0.0, 3.0, 0.2, 0.8), 0.2)
        assert all(a is b for a, b in zip(vars(state).values(), held, strict=True))

    def test_admission_and_walks_write_into_no_column(self):
        """Admission plugs the newcomer into a copy and a walk replaces the
        SoC column: a copy sharing the columns, and an instance built
        before, keep their values."""
        a = ChargingTask("a", 0.0, 4.0, 0.2, 0.9)
        state = fleet(0.0, (a, 0.2))
        kept = dataclasses.replace(state)
        assert admit_task(ChargingTask("b", 0.0, 3.0, 0.4, 0.8), state, limits()).accepted
        alloc, inst = baseline_schedule(state, limits())
        apply_slot(state, alloc, inst, 1.0, Ledger())
        assert state.ids == kept.ids == ("a",)
        assert (kept.soc_cur.tolist(), inst.soc_start.tolist()) == ([0.2], [0.2])
        assert soc_of(state, "a") == pytest.approx(0.45)

    @given(steps=st.lists(st.one_of(_PLUG, _UNPLUG, _WALK), max_size=24))
    @settings(max_examples=150, deadline=None)
    @example(steps=[("plug", "v2", 8, 0.3, 0.9, False), ("plug", "a", 8, 0.5, 0.9, False),
                    ("plug", "v10", 8, 0.1, 0.9, True), ("walk", 0.6)])  # tied departures
    @example(steps=[("plug", "B", 5, 0.2, 0.9, False), ("plug", "a", 4, 0.4, 0.9, False),
                    ("plug", "v2", 12, 0.4, 0.9, True), ("walk", 0.6),
                    ("walk", 0.25)])  # overdue vehicles clamped to the clock
    @example(steps=[("plug", "a", 10, 0.2, 0.9, False), ("plug", "B", 12, 0.3, 0.9, True),
                    ("unplug", "a", False), ("walk", 0.5)])  # a stale walk after an unplug
    @example(steps=[("plug", "v2", 0, 0.0, 0.0, False), ("unplug", "v2", False),
                    ("walk", 0.1)])  # the fleet back to the plan's vehicles walks it
    def test_steps_equal_dict_reference(self, steps):
        """A sequence of plugs, unplugs and walks on the column fleet and on
        the dict fleet: after each step the columns hold the dict's
        vehicles in (departure, id) order, each plan's instance and
        max-power plan are the reference's byte for byte, and each walk
        gives the reference's ledger rows, SoCs and errors; a walk of a plan
        made for other vehicles than the fleet now holds raises and changes
        nothing."""
        state, ref = fleet(1.0), DictFleet(1.0)
        ledgers, ref_ledgers = Ledger(), Ledger()

        def replan():
            alloc, inst = baseline_schedule(state, _SEQ_LIMITS, _SEQ_PRICES)
            want = _reference_instance(ref, _SEQ_LIMITS, _SEQ_PRICES)
            assert _instance_bytes(inst) == _instance_bytes(want)
            assert alloc.tobytes() == max_power_allocation(want).tobytes()
            return alloc, inst

        plan, planned = replan(), state.ids
        for step in steps:
            if step[0] == "plug":
                _, vid, k, soc, soc_dep, again = step
                task = ChargingTask(vid, min(state.now, 0.25 * k), 0.25 * k, soc, soc_dep)
                if vid in ref.vehicles:
                    with pytest.raises(ValueError, match=f"duplicate arrival for {re.escape(vid)}"):
                        state.plug(task, soc)
                else:
                    state.plug(task, soc)
                    ref.vehicles[vid] = VehicleState(task, soc)
            elif step[0] == "unplug":
                _, vid, again = step
                gone = ref.vehicles.pop(vid, None)
                assert state.unplug(vid) == (gone and (gone.task, gone.soc_cur))
            elif state.ids != planned:
                held, rows = list(vars(state).values()), _ledger_bytes(ledgers)
                with pytest.raises(ValueError, match="not the fleet's"):
                    apply_slot(state, *plan, state.now + step[1], ledgers)
                assert all(a is b for a, b in zip(vars(state).values(), held, strict=True))
                assert _ledger_bytes(ledgers) == rows
                again = True
            else:
                got, want = _walk_both(state, ref, plan, state.now + step[1],
                                       (ledgers, ref_ledgers))
                assert got == want
                assert _ledger_bytes(ledgers) == _ledger_bytes(ref_ledgers)
                again = True
            order = sorted(ref.vehicles, key=lambda v: (ref.vehicles[v].task.t_dep, v))
            assert state.ids == tuple(order)
            assert state.tasks == tuple(ref.vehicles[v].task for v in order)
            assert state.t_dep.tolist() == [ref.vehicles[v].task.t_dep for v in order]
            assert state.soc_dep.tolist() == [ref.vehicles[v].task.soc_dep for v in order]
            assert _fleet_state(state) == _fleet_state(ref)
            if again:
                plan, planned = replan(), state.ids


class TestKeptReschedule:
    """What a kept baseline reschedule holds on to, as a replay's probe
    keeps every ``(allocation, instance)``."""

    @staticmethod
    def depot(n, now=10.0):
        return fleet(now, *((ChargingTask(f"d{v:02d}", 0.0, now + 1.0 + 0.37 * v, 0.2, 0.9),
                             0.2 + 0.02 * v) for v in range(n)))

    def test_holds_no_task_or_vehicle_objects(self):
        kept = baseline_schedule(self.depot(8), limits(dt=0.5, ic_max=400.0))
        held = reachable(kept)
        assert not [o for o in held if isinstance(o, (ChargingTask, FleetState))]
        assert len(held) > 1 and kept[1].n_vehicles == 8

    def test_tracked_objects_do_not_grow_with_the_fleet(self):
        """A kept reschedule holds as many objects for the collector to track
        with 32 vehicles as with 4."""
        lm = limits(dt=0.5, ic_max=400.0)

        def tracked(n):
            kept = baseline_schedule(self.depot(n), lm)
            gc.collect()  # untracks the tuples that hold only atomic values
            assert kept[1].n_vehicles == n
            return sum(map(gc.is_tracked, reachable(kept)))

        assert tracked(4) == tracked(32)
