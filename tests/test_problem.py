"""Problem-assembly tests: grids, windows, objective values, normalization."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcharge.problem import (
    COMPONENTS,
    NORMALIZATION_EPS,
    ChargingTask,
    NormalizationPoints,
    ObjectiveBreakdown,
    availability_weights,
    build_constraints,
    build_instance,
    charging_period,
    compute_normalization_points,
    fade_terms,
    max_power_allocation,
    normalized_objective,
    objective_components,
)
from fleetcharge.scheduler import (ZERO_PRICES, StationLimits, _instance_from_state,
                                   baseline_schedule)
from fleetcharge.solver import single_objective_minimizer

from conftest import ROOT, fleet, make_instance, perfbench_workloads, price_fn, slot_rows

# Frozen reference (independent summation over the 2x3 instance in conftest,
# allocation below): cost in $, fade in Ah, availability in weighted W.
REF_ALLOC = np.array([[60.0, 60.0], [60.0, 60.0], [0.0, 60.0]])
REF_COST = 12.0
REF_FADE = 0.00122157705
REF_AVAIL = -38800.0


class TestChargingPeriod:
    def test_ceiling(self):
        assert charging_period(np.array([125.0 / 60.0]), 0.0, 0.5).tolist() == [5]

    def test_zero_duration(self):
        assert charging_period(np.array([3.0]), 3.0, 0.5).tolist() == [0]

    def test_exact_division(self):
        assert charging_period(np.array([2.0]), 0.0, 0.5).tolist() == [4]

    @pytest.mark.parametrize("seed", range(6))
    def test_array_equals_scalar_calls(self, seed):
        """Element by element, an array of departures gets the count of the
        rule written per departure, on and within 1e-9 slots of slot
        boundaries too, as ints, and a reshaped array the reshaped counts."""
        rng = np.random.default_rng(seed)
        t_s, dt = rng.uniform(0.0, 100.0), rng.choice([0.1, 0.25, 1 / 3, 0.5, 0.75])
        t_dep = _departures(rng, t_s, dt, 200)
        periods = charging_period(t_dep, t_s, dt)
        assert periods.dtype == np.dtype(int) and periods.shape == t_dep.shape
        assert periods.tolist() == [max(0, math.ceil((t - t_s) / dt - 1e-9))
                                    for t in t_dep.tolist()]
        grid = charging_period(t_dep.reshape(10, 20), t_s, dt)
        assert grid.tolist() == periods.reshape(10, 20).tolist()


class TestAvailabilityWeights:
    def test_single_slot(self):
        assert availability_weights(np.array([1])).tolist() == [[1.0]]

    def test_three_slots(self):
        assert availability_weights(np.array([3]))[:, 0] == pytest.approx([1 / 3, 1 / 4, 1 / 5])

    def test_two_slots(self):
        assert availability_weights(np.array([2]))[:, 0] == pytest.approx([0.5, 1 / 3])

    @given(tt=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_length_and_strict_decrease(self, tt):
        w = availability_weights(np.array([tt]))
        assert w.shape == (tt, 1)
        assert np.all(np.diff(w[:, 0]) < 0) or tt == 1

    def test_array_columns_equal_scalar_calls(self):
        """A column per count n, equal bit for bit to 1/(i + n) over its n
        slots and zero past them; a zero count gives a zero column, with no
        divide warning."""
        tt = np.array([3, 0, 1, 28, 7, 0, 28, 12])
        w = availability_weights(tt)
        assert w.shape == (28, len(tt))
        for v, n in enumerate(tt.tolist()):
            assert w[:n, v].tobytes() == (1 / (np.arange(n) + n)).tobytes()
            assert not w[n:, v].any()
        assert availability_weights(np.array([0, 0])).shape == (0, 2)


class TestTaskAndPrices:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            ChargingTask("x", 2.0, 1.0, 0.4, 0.8)
        with pytest.raises(ValueError):
            ChargingTask("x", 0.0, 1.0, -0.1, 0.8)

    def test_negative_price_rejected(self):
        prices = {0.0: 0.1, 0.5: -0.2}
        with pytest.raises(ValueError, match="prices must be >= 0"):
            make_instance([ChargingTask("v", 0.0, 1.0, 0.4, 0.8)],
                          prices=lambda t: prices[t])


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_price_rejected(self, bad):
        prices = {0.0: 0.1, 0.5: bad}
        with pytest.raises(ValueError, match="prices must be finite"):
            make_instance([ChargingTask("v", 0.0, 1.0, 0.4, 0.8)],
                          prices=lambda t: prices[t])

    def test_one_price_per_slot_start_required(self):
        """The price function takes the array of slot starts; one returning
        a single number is rejected, not broadcast."""
        with pytest.raises(ValueError, match="one price per slot start"):
            build_instance(["v"], [1.0], [0.4], [0.8], t_s=0.0, prices_fn=lambda t: 0.1,
                           limits=StationLimits(soc_xtra_ah=0.0))


_NAN, _INF = float("nan"), float("inf")
_BAD_LIMITS = (
    [(f, bad) for f in ("dt", "i_max", "ic_max", "voltage", "c_bat", "soc_xtra_ah")
     for bad in (_NAN, _INF, -_INF)]
    + [(f, bad) for f in ("dt", "i_max", "ic_max", "voltage", "c_bat") for bad in (0.0, -1.0)]
    + [("soc_xtra_ah", -1.0), ("i_max", 500.0)]  # i_max above the default ic_max, 400 A
)


class TestStationLimits:
    @pytest.mark.parametrize("field, bad", _BAD_LIMITS)
    def test_bad_limit_rejected_naming_the_field(self, field, bad):
        """Each limit is checked once, when the limits are built; NaN fails
        every check, so a NaN voltage or headroom cannot reach a plan."""
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            StationLimits(**{field: bad})

    def test_boundary_values_accepted(self):
        limits = StationLimits(soc_xtra_ah=0.0, i_max=400.0)
        assert (limits.soc_xtra_ah, limits.i_max) == (0.0, limits.ic_max)


class TestBuildInstance:
    @pytest.mark.parametrize("field", ["dt", "c_bat", "voltage"])
    def test_nonpositive_slot_length_and_pack_rejected(self, field):
        """The guard every ledger slot relies on for a positive length and
        pack size: ``apply_slot`` does not check them again."""
        with pytest.raises(ValueError, match="must be > 0"):
            make_instance([ChargingTask("v", 0.0, 1.0, 0.4, 0.8)], **{field: 0.0})

    @pytest.mark.parametrize("name, bad", [("soc_start", 1.2), ("soc_start", -0.1),
                                           ("soc_start", float("nan")), ("soc_dep", 1.5),
                                           ("soc_dep", float("nan"))])
    def test_soc_outside_unit_interval_rejected(self, name, bad):
        """The check each task's construction made: the first vehicle out of
        range, in the order given, is named."""
        cols = {"soc_start": [0.4, 0.4, 0.4], "soc_dep": [0.8, 0.8, 0.8]}
        cols[name][1] = cols[name][2] = bad
        with pytest.raises(ValueError, match=f"vehicle b: {name} {bad} not in \\[0, 1\\]"):
            build_instance(["a", "b", "c"], [1.0, 2.0, 0.5], cols["soc_start"], cols["soc_dep"],
                           t_s=0.0, prices_fn=ZERO_PRICES, limits=StationLimits(soc_xtra_ah=0.0))

    @pytest.mark.parametrize("bad_dep", ["a", "b"])
    def test_bad_soc_start_reported_before_bad_soc_dep(self, bad_dep):
        """One range check covers both SoC columns; when it fails, the first
        bad start SoC is named even where a departure SoC is bad before it
        in the order given."""
        soc_start = [0.4, 0.4, 1.5, -0.2]
        soc_dep = [0.8] * 4
        soc_dep["abcd".index(bad_dep)] = 2.0
        with pytest.raises(ValueError, match=r"^vehicle c: soc_start 1.5 not in \[0, 1\]$"):
            build_instance(list("abcd"), [1.0, 2.0, 0.5, 3.0], soc_start, soc_dep,
                           t_s=0.0, prices_fn=ZERO_PRICES, limits=StationLimits(soc_xtra_ah=0.0))
        with pytest.raises(ValueError, match=rf"^vehicle {bad_dep}: soc_dep 2.0 not in"):
            build_instance(list("abcd"), [1.0, 2.0, 0.5, 3.0], [0.4] * 4, soc_dep,
                           t_s=0.0, prices_fn=ZERO_PRICES, limits=StationLimits(soc_xtra_ah=0.0))

    @pytest.mark.parametrize("bad, message", [
        (1.5, "negative-duration: t_dep 1.5 before the start 2.0"),
        (_NAN, "t_dep nan not finite"), (_INF, "t_dep inf not finite"),
        (-_INF, "t_dep -inf not finite"),
    ], ids=["before-start", "nan", "inf", "-inf"])
    def test_bad_departure_named_in_input_order(self, bad, message):
        """One range check covers the departures; when it fails, the first
        bad vehicle in the order given is named, not the first in departure
        order, whatever is wrong with the later one."""
        for later in (0.5, _NAN, -_INF):
            with pytest.raises(ValueError, match=f"^vehicle b: {re.escape(message)}$"):
                build_instance(list("abcd"), [3.0, bad, 2.0, later], [0.4] * 4, [0.8] * 4,
                               t_s=2.0, prices_fn=ZERO_PRICES,
                               limits=StationLimits(soc_xtra_ah=0.0))

    @pytest.mark.parametrize("name", ["soc_start", "soc_dep"])
    def test_bad_soc_reported_before_bad_departure(self, name):
        """The SoC columns are checked first: a bad SoC is named even where a
        bad departure comes before it in the order given."""
        cols = {"soc_start": [0.4] * 3, "soc_dep": [0.8] * 3}
        cols[name][2] = 1.5
        with pytest.raises(ValueError, match=rf"^vehicle c: {name} 1.5 not in \[0, 1\]$"):
            build_instance(list("abc"), [1.0, _NAN, 1.0], cols["soc_start"], cols["soc_dep"],
                           t_s=0.0, prices_fn=ZERO_PRICES, limits=StationLimits(soc_xtra_ah=0.0))

    def test_overdue_vehicle_replayed_is_clamped(self):
        """A replay never reaches the departure check: a vehicle still
        plugged after its departure counts from the clock, with no slots and
        no plan, and the rest of the fleet is planned as usual."""
        state = fleet(5.0, *((ChargingTask(vid, 0.0, t_dep, 0.4, 0.8), 0.4)
                             for vid, t_dep in (("late", 4.0), ("ok", 6.0))))
        alloc, inst = baseline_schedule(state, StationLimits(soc_xtra_ah=0.0))
        assert inst.vehicle_ids == ("late", "ok")
        assert inst.grid.tt.tolist() == [0, 2]
        assert not alloc[:, 0].any() and alloc[:, 1].tolist() == [80.0, 80.0]

    def test_bounds_and_signed_zeros_accepted(self):
        """0, -0.0 and 1 are in range, for start SoCs, departure SoCs and
        prices."""
        inst = build_instance(list("abc"), [0.5, 1.0, 2.0], [0.0, -0.0, 1.0], [1.0, -0.0, 1.0],
                              t_s=0.0, prices_fn=lambda t: np.where(t > 0.7, -0.0, 0.0),
                              limits=StationLimits(soc_xtra_ah=0.0))
        assert inst.wep.tolist() == [0.0, 0.0, -0.0, -0.0]

    @pytest.mark.parametrize("prices, message", [
        ((0.1, _NAN, 0.1), "finite"), ((0.1, 0.1, _INF), "finite"), ((-_INF, 0.1, 0.1), "finite"),
        ((0.1, -1e-300, 0.1), ">= 0"), ((-0.2, 0.1, _NAN), "finite"), ((_NAN, -0.2, 0.1), "finite"),
    ], ids=["nan", "inf", "-inf", "negative", "negative-then-nan", "nan-then-negative"])
    def test_one_price_check_keeps_each_message(self, prices, message):
        """One range check covers the sampled prices; when it fails, a
        non-finite price is named before a negative one, wherever each
        falls in the curve."""
        curve = dict(zip((0.0, 0.5, 1.0), prices))
        with pytest.raises(ValueError, match=f"^prices must be {message}$"):
            make_instance([ChargingTask("v", 0.0, 1.5, 0.4, 0.8)], prices=lambda t: curve[t])

    def test_one_value_per_vehicle_required(self):
        with pytest.raises(ValueError, match="one value per vehicle"):
            build_instance(["a", "b"], [1.0, 2.0], [0.4], [0.8, 0.8], t_s=0.0,
                           prices_fn=ZERO_PRICES, limits=StationLimits(soc_xtra_ah=0.0))

    def test_edf_column_order(self):
        tasks = [
            ChargingTask("late", 0.0, 3.0, 0.4, 0.8),
            ChargingTask("early", 0.0, 1.0, 0.4, 0.8),
        ]
        inst = make_instance(tasks)
        assert inst.vehicle_ids == ("early", "late")

    def test_energy_window(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 4.0, 0.3, 0.8)], c_bat=200.0, soc_xtra_ah=15.0
        )
        assert inst.e_lo[0] == pytest.approx(100.0)
        assert inst.e_hi[0] == pytest.approx(115.0)

    def test_window_capped_at_full_charge(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 4.0, 0.5, 1.0)], c_bat=200.0, soc_xtra_ah=30.0
        )
        assert inst.e_hi[0] == pytest.approx(100.0)  # (1 - 0.5) * 200

    def test_zero_need_gets_no_allocation_window(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 4.0, 0.9, 0.8)], soc_xtra_ah=21.0
        )
        assert inst.e_lo[0] == 0.0
        assert inst.e_hi[0] == 0.0

    def test_fractional_last_slot(self):
        inst = make_instance([ChargingTask("v", 0.0, 1.25, 0.4, 0.8)], dt=0.5)
        assert inst.grid.tt[0] == 3
        assert inst.durations[:, 0] == pytest.approx([0.5, 0.5, 0.25])

    def test_infeasible_by_construction(self):
        # needs 120 Ah but can receive at most 50 A * 2 h = 100 Ah
        inst = make_instance(
            [ChargingTask("v", 0.0, 2.0, 0.2, 0.8)], i_max=50.0, ic_max=50.0, c_bat=200.0
        )
        cs = build_constraints(inst)
        assert not cs.feasible_by_construction
        assert "vehicle-capacity" in cs.infeasible_reason

    def test_first_short_vehicle_named(self):
        """The counting bound names the first vehicle, in column order,
        whose need exceeds what its current limit can deliver."""
        inst = make_instance([
            ChargingTask("ok", 0.0, 3.0, 0.5, 0.6),
            ChargingTask("late", 0.0, 1.5, 0.1, 0.9),
            ChargingTask("early", 0.0, 1.0, 0.2, 0.9),
        ], i_max=50.0, ic_max=150.0, c_bat=200.0)
        assert build_constraints(inst).infeasible_reason == (
            "vehicle-capacity: early needs 140.000 Ah but can receive at most 50.000 Ah")


def _departures(rng, t_s, dt, n):
    """``n`` departures from ``t_s`` over at most 28 slots: at the start, on a
    slot boundary, within or just beyond 1e-9 slots of one, or anywhere."""
    k = rng.integers(1, 29, n)
    near = rng.choice([-1.5, -0.9, -0.3, 0.3, 0.9, 1.5], n) * 1e-9
    kind = rng.integers(0, 4, n)
    return np.select(
        [kind == 0, kind == 1, kind == 2],
        [np.full(n, t_s), t_s + k * dt, t_s + (k + near) * dt],
        t_s + rng.uniform(0.0, 28.0, n) * dt,
    )


def _fleet(seed, n):
    """A seeded fleet of ``n`` vehicles, some full, some needing nothing,
    in (departure, id) order, and its slot grid ``(tasks, t_s, dt)``; from
    40 vehicles on, one departs at the start and one after 28 slots."""
    rng = np.random.default_rng(seed)
    t_s, dt = rng.uniform(0.0, 100.0), float(rng.choice([0.25, 1 / 3, 0.5, 0.75]))
    t_dep = _departures(rng, t_s, dt, n)
    if n >= 40:
        t_dep[:2] = t_s, t_s + 28 * dt
    soc = rng.choice([0.0, 1.0, 0.3, 0.55], n)
    soc = np.where(rng.random(n) < 0.5, soc, rng.uniform(0.0, 1.0, n))
    soc_dep = np.where(rng.random(n) < 0.2, 0.5 * soc, rng.uniform(soc, 1.0))
    tasks = [ChargingTask(f"v{v:02d}", t_s - 1.0, float(t_dep[v]), float(soc[v]),
                          float(soc_dep[v])) for v in range(n)]
    return sorted(tasks, key=lambda t: (t.t_dep, t.vehicle_id)), t_s, dt


def _reference_build(tasks, t_s, dt, prices_fn, c_bat, soc_xtra_ah):
    """The per-vehicle assembly the fleet-wide one replaced, kept as written
    (with ``charging_period`` and ``availability_weights`` inlined), of
    ``tasks`` in the order given, which is the fleet's."""
    ordered = tuple(tasks)
    tt = np.array([max(0, math.ceil((t.t_dep - t_s) / dt - 1e-9)) for t in ordered],
                  dtype=int)
    horizon = int(tt.max()) if len(tt) else 0
    n = len(ordered)
    durations = np.zeros((horizon, n))
    active = np.zeros((horizon, n), dtype=bool)
    avail_w = np.zeros((horizon, n))
    for v, task in enumerate(ordered):
        if tt[v] == 0:
            continue
        active[: tt[v], v] = True
        durations[: tt[v], v] = dt
        rem = (task.t_dep - t_s) - (tt[v] - 1) * dt
        durations[tt[v] - 1, v] = min(dt, max(rem, 0.0))
        avail_w[: tt[v], v] = 1.0 / (np.arange(tt[v]) + tt[v])
    soc_start = np.array([t.soc_start for t in ordered])
    need = np.array([max(0.0, t.soc_dep - t.soc_start) * c_bat for t in ordered])
    e_hi = np.where(need > 0.0, np.minimum(need + soc_xtra_ah, (1.0 - soc_start) * c_bat), 0.0)
    wep = np.array([prices_fn(t_s + i * dt) for i in range(horizon)])
    return {"vehicle_ids": tuple(t.vehicle_id for t in ordered), "tt": tt,
            "durations": durations, "active": active, "avail_w": avail_w,
            "soc_start": soc_start, "e_lo": need.copy(), "e_hi": e_hi, "wep": wep}


def _assert_equals_reference(inst, ref):
    """``inst`` holds the reference's vehicle order and, byte for byte, its
    arrays."""
    assert inst.vehicle_ids == ref["vehicle_ids"]
    got = {"tt": inst.grid.tt, "durations": inst.durations, "active": inst.active,
           "avail_w": inst.avail_w, "soc_start": inst.soc_start, "e_lo": inst.e_lo,
           "e_hi": inst.e_hi, "wep": inst.wep}
    for name, have in got.items():
        want = ref[name]
        assert have.dtype == want.dtype, name
        assert have.shape == want.shape, name
        assert have.tobytes() == want.tobytes(), name
    assert inst.horizon == len(ref["wep"])


def _reference_max_power(inst):
    """:func:`max_power_allocation` as a loop over vehicles, kept as written
    (with ``charging_period`` inlined)."""
    alloc = inst.empty_allocation()
    for v, soc_start in enumerate(inst.soc_start.tolist()):
        tt = int(inst.grid.tt[v])
        if tt == 0:
            continue
        n_slots = max(0, math.ceil(
            (1.0 - soc_start) * inst.c_bat / inst.i_max / inst.grid.dt - 1e-9))
        n_slots = min(n_slots, tt)
        remaining_ah = (1.0 - soc_start) * inst.c_bat
        for i in range(n_slots):
            d = inst.durations[i, v]
            if d <= 0 or remaining_ah <= 0:
                break
            amps = min(inst.i_max, remaining_ah / d)
            alloc[i, v] = amps
            remaining_ah -= amps * d
    for i in range(inst.horizon):
        row = alloc[i, :]
        used = np.cumsum(row)
        over = used - inst.ic_max
        if over[-1] <= 0:
            continue
        headroom = inst.ic_max - (used - row)
        alloc[i, :] = np.clip(np.minimum(row, headroom), 0.0, None)
    return alloc


def _charging_period_max_power(inst):
    """:func:`max_power_allocation` with the slots to full charge counted
    through :func:`charging_period` and the walk's start column stacked by
    ``vstack``, as it was written before it preallocated that column."""
    d, i_max = inst.durations, inst.i_max
    remaining_ah = (1.0 - inst.soc_start) * inst.c_bat
    n_slots = np.minimum(
        charging_period(remaining_ah / i_max, 0.0, inst.grid.dt), inst.grid.tt
    )
    left = np.subtract.accumulate(np.vstack([remaining_ah, i_max * d]))[:-1]
    go = (np.arange(inst.horizon)[:, None] < n_slots) & (d > 0) & (left > 0)
    amps = np.minimum(i_max, np.divide(left, d, out=np.zeros_like(d), where=go))
    alloc = np.where(np.logical_and.accumulate(go), amps, 0.0)
    used = np.add.accumulate(alloc, axis=1)
    over = used[:, -1:] > inst.ic_max
    if not over.any():
        return alloc
    capped = np.clip(np.minimum(alloc, inst.ic_max - (used - alloc)), 0.0, None)
    return np.where(over, capped, alloc)


def _step_prices(t):
    return 0.05 + 0.01 * (math.floor(t * 7.0) % 5)


class TestFleetWideAssembly:
    """``build_instance`` and ``max_power_allocation`` give, bit for bit,
    what their per-vehicle loops gave."""

    @pytest.mark.parametrize("seed, n", [(s, 40) for s in range(12)]
                             + [(s, n) for s, n in ((12, 1), (13, 2), (14, 5), (15, 0))])
    def test_build_instance_equals_reference(self, seed, n):
        tasks, t_s, dt = _fleet(seed, n)
        inst = make_instance(tasks, prices=_step_prices, t_s=t_s, dt=dt, soc_xtra_ah=21.0)
        ref = _reference_build(tasks, t_s, dt, _step_prices, inst.c_bat, 21.0)
        _assert_equals_reference(inst, ref)
        if n == 40:
            assert (ref["tt"] == 0).any() and (ref["tt"] == 28).any()
            partial = ref["durations"][ref["tt"][ref["tt"] > 0] - 1, np.flatnonzero(ref["tt"])]
            assert (partial < dt).any() and (partial == dt).any()

    @pytest.mark.parametrize("ic_max", [160.0, 400.0, 1200.0, 3200.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_max_power_equals_reference(self, seed, ic_max):
        tasks, t_s, dt = _fleet(100 + seed, 40)
        inst = make_instance(tasks, t_s=t_s, dt=dt, ic_max=ic_max)
        want = _reference_max_power(inst)
        assert max_power_allocation(inst).tobytes() == want.tobytes()
        binds = want.sum(axis=1).max() >= ic_max - 1e-6
        assert binds == (ic_max < 3200.0)

    @pytest.mark.parametrize("ic_max", [160.0, 400.0, 3200.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_cap_pass_runs_only_when_a_slot_passes_the_cap(self, seed, ic_max):
        """With a binding cap and with a slack one, the plan is, byte for
        byte, the headroom pass applied to every slot: skipping the pass
        when no slot's total passes the cap changes nothing."""
        tasks, t_s, dt = _fleet(100 + seed, 40)
        inst = make_instance(tasks, t_s=t_s, dt=dt, ic_max=ic_max)
        alloc = max_power_allocation(dataclasses.replace(inst, ic_max=np.inf))  # before the cap
        used = np.cumsum(alloc, axis=1)
        capped = np.clip(np.minimum(alloc, ic_max - (used - alloc)), 0.0, None)
        want = np.where(used[:, -1:] > ic_max, capped, alloc)
        assert max_power_allocation(inst).tobytes() == want.tobytes()
        assert (used[:, -1] > ic_max).any() == (ic_max < 3200.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_cap_pass_keeps_the_sign_of_zero_headroom(self, seed):
        """The cap pass clamps at zero, byte for byte, as
        ``np.clip(..., 0.0, None)`` does, -0.0 included: a cap of -0.0,
        which no ``StationLimits`` allows, leaves the first vehicle -0.0 of
        headroom in every slot where it charges."""
        tasks, t_s, dt = _fleet(100 + seed, 40)
        inst = dataclasses.replace(make_instance(tasks, t_s=t_s, dt=dt), ic_max=-0.0)
        alloc = max_power_allocation(dataclasses.replace(inst, ic_max=np.inf))  # before the cap
        used = np.cumsum(alloc, axis=1)
        curtailed = np.minimum(alloc, -0.0 - (used - alloc))
        assert np.signbit(curtailed[:, 0]).any() and (curtailed[:, 0] == 0.0).all()
        want = np.where(used[:, -1:] > -0.0, np.clip(curtailed, 0.0, None), alloc)
        assert max_power_allocation(inst).tobytes() == want.tobytes()

    def test_slot_at_the_cap_left_as_is(self):
        """Only a slot whose running sum passes the cap is curtailed: one that
        reaches it exactly keeps its currents, which a headroom pass would
        move by an ulp (7.140000000000006 -> 7.140000000000001 A here)."""
        tasks = [ChargingTask(f"v{k}", 0.0, 1.0 + k, soc, 1.0)
                 for k, soc in enumerate((0.803, 0.963, 0.983))]
        loose = max_power_allocation(make_instance(tasks, ic_max=240.0))
        cap = float(np.cumsum(loose[0])[-1])
        inst = make_instance(tasks, ic_max=cap)
        alloc = max_power_allocation(inst)
        assert alloc.tobytes() == _reference_max_power(inst).tobytes()
        assert alloc[0].tobytes() == loose[0].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_max_power_with_zero_length_slots(self, seed):
        """A slot of zero length stops a vehicle's charging, at its last slot
        or before it."""
        tasks, t_s, dt = _fleet(200 + seed, 40)
        inst = make_instance(tasks, t_s=t_s, dt=dt, ic_max=800.0)
        rng = np.random.default_rng(seed)
        durations = inst.durations.copy()
        tt = inst.grid.tt
        cut = np.flatnonzero(tt > 0)
        durations[tt[cut] - 1, cut] = 0.0
        early = cut[rng.random(len(cut)) < 0.3]
        durations[rng.integers(0, tt[early]), early] = 0.0
        inst = dataclasses.replace(inst, durations=durations)
        want = _reference_max_power(inst)
        assert max_power_allocation(inst).tobytes() == want.tobytes()

    @pytest.mark.parametrize("ic_max", [400.0, 3200.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_max_power_with_hand_set_slot_lengths(self, seed, ic_max):
        """Slot lengths drawn in [0, dt] within each vehicle's period: zeros,
        short slots in the middle and whole ones."""
        tasks, t_s, dt = _fleet(300 + seed, 40)
        inst = make_instance(tasks, t_s=t_s, dt=dt, ic_max=ic_max)
        rng = np.random.default_rng(300 + seed)
        draw = rng.random(inst.durations.shape)
        short = rng.uniform(0.0, dt, inst.durations.shape)
        durations = np.where(draw < 0.05, 0.0, np.where(draw < 0.4, short, dt))
        inst = dataclasses.replace(inst, durations=np.where(inst.active, durations, 0.0))
        want = _reference_max_power(inst)
        assert max_power_allocation(inst).tobytes() == want.tobytes()
        if ic_max == 3200.0:
            # a short middle slot that takes less than i_max ends a charge
            # before the vehicle's last slot
            d = inst.durations
            before_last = np.arange(inst.horizon)[:, None] < inst.grid.tt - 1
            assert ((want > 0) & (want < inst.i_max) & (d < dt) & before_last).any()

    def test_slot_that_takes_the_rest_ends_the_charge(self):
        """A vehicle charges nothing after a slot that took less than its
        limit, even where that slot is longer than the step and the next
        slot is still counted."""
        inst = make_instance([ChargingTask("v", 0.0, 1.5, 0.7, 1.0)])
        need = (1.0 - 0.7) * inst.c_bat
        assert inst.durations[:, 0].tolist() == [0.5, 0.5, 0.5]
        assert 0.5 * inst.i_max < need < inst.i_max  # two slots counted
        inst = dataclasses.replace(inst, durations=np.array([[1.0], [0.5], [0.5]]))
        alloc = max_power_allocation(inst)
        assert alloc[:, 0].tolist() == [need, 0.0, 0.0]
        assert alloc.tobytes() == _reference_max_power(inst).tobytes()

    @pytest.mark.parametrize("ic_max", [160.0, 1200.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_max_power_equals_charging_period_reference(self, seed, ic_max):
        """Stacking the walk's start in a preallocated array gives the plan of
        the code that stacked it with ``vstack``, bit for bit, with the
        grid's and with hand-set slot lengths."""
        for n in (40, 1, 0):
            tasks, t_s, dt = _fleet(400 + seed, n)
            inst = make_instance(tasks, t_s=t_s, dt=dt, ic_max=ic_max)
            rng = np.random.default_rng(400 + seed)
            short = np.where(rng.random(inst.durations.shape) < 0.3,
                             rng.uniform(0.0, dt, inst.durations.shape), inst.durations)
            for case in (inst, dataclasses.replace(inst, durations=np.where(inst.active,
                                                                            short, 0.0))):
                want = _charging_period_max_power(case)
                got = max_power_allocation(case)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("over", [0.0, 5e-10, 2e-9])
    def test_need_just_past_whole_slots_counts_by_the_ceil_rule(self, over):
        """A need of ``2 + over`` full-current slots counts two slots while
        ``over`` is within the 1e-9 slack of ``charging_period``'s ceil, and
        three past it."""
        soc = 1.0 - (2.0 + over) * 80.0 * 0.5 / 210.0
        inst = make_instance([ChargingTask("v", 0.0, 3.0, soc, 1.0)], i_max=80.0, c_bat=210.0)
        alloc = max_power_allocation(inst)
        assert alloc.tobytes() == _charging_period_max_power(inst).tobytes()
        assert alloc[:2, 0].tolist() == [80.0, 80.0]
        assert (alloc[2, 0] > 0.0) == (over > 1e-9)

    def test_max_power_equals_charging_period_reference_on_the_depot(self, tmp_path,
                                                                     monkeypatch):
        """Every 50th reschedule of the seed-1 28-day depot replay under the
        baseline (many vehicles, the 1200 A cap binding in some slots)."""
        import fleetcharge.simulator as simulator

        depot = perfbench_workloads().DepotBaseline()
        sim_config, events, prices_fn = depot.ingest(depot.prepare(ROOT, tmp_path, 1, tiny=False))
        plans, calls, schedule = [], 0, simulator.baseline_schedule

        def keep(*args):
            nonlocal calls
            alloc, inst = schedule(*args)
            if calls % 50 == 0:
                plans.append((alloc, inst))
            calls += 1
            return alloc, inst

        monkeypatch.setattr(simulator, "baseline_schedule", keep)
        simulator.run(events, prices_fn, sim_config)
        assert len(plans) > 80 and max(inst.n_vehicles for _, inst in plans) > 20
        assert any((alloc.sum(axis=1) >= inst.ic_max - 1e-9).any() for alloc, inst in plans)
        for alloc, inst in plans:
            want = _charging_period_max_power(inst)
            assert alloc.tobytes() == want.tobytes()
            assert max_power_allocation(inst).tobytes() == want.tobytes()

    def test_full_fleet_and_empty_fleet(self):
        full = [ChargingTask(f"f{v}", 0.0, 2.0 + v, 1.0, 1.0) for v in range(3)]
        inst = make_instance(full)
        assert max_power_allocation(inst).tobytes() == np.zeros((8, 3)).tobytes()
        empty = make_instance([])
        assert max_power_allocation(empty).shape == (0, 0)
        assert build_constraints(empty).infeasible_reason is None


class TestObjectiveComponents:
    def test_all_zero_allocation(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 1.5, 0.6, 0.7)], c_bat=200.0, prices=0.2
        )
        bd = objective_components(inst.empty_allocation(), inst)
        assert bd.cost == 0.0
        assert bd.availability == 0.0
        # three slots of calendric loss at the resting SoC
        expected = 3 * (inst.fade_params.p1 * 0.6 + inst.fade_params.p2)
        assert bd.fade == pytest.approx(expected, rel=1e-12)

    def test_single_slot_cost(self):
        inst = make_instance(
            [ChargingTask("v", 0.0, 0.25, 0.4, 0.41)],
            prices=0.10, dt=0.25, voltage=400.0, c_bat=200.0, i_max=30.0, ic_max=30.0,
        )
        alloc = np.array([[30.0]])
        bd = objective_components(alloc, inst)
        assert bd.cost == pytest.approx(0.30)  # 3 kWh at $0.10

    def test_frozen_two_by_three(self, two_by_three_instance):
        bd = objective_components(REF_ALLOC, two_by_three_instance)
        assert bd.cost == pytest.approx(REF_COST, rel=1e-12)
        assert bd.fade == pytest.approx(REF_FADE, rel=1e-9)
        assert bd.availability == pytest.approx(REF_AVAIL, rel=1e-12)

    def test_dimension_mismatch(self, two_by_three_instance):
        with pytest.raises(ValueError, match="dimension-mismatch"):
            objective_components(np.zeros((2, 2)), two_by_three_instance)

    def test_availability_gradient_sign(self, two_by_three_instance):
        """Raising any in-period current strictly lowers the availability
        term (weights are positive)."""
        inst = two_by_three_instance
        base = objective_components(REF_ALLOC, inst).availability
        bumped = REF_ALLOC.copy()
        bumped[1, 1] += 1.0
        assert objective_components(bumped, inst).availability < base


# Ids that share a departure, each group in neither its code-point order nor
# its numeric, case-blind, UTF-16 or NUL-stripped order; and two ids that do
# not.
_TIED = (("v10", "v2", "v1"), ("a\x00", "Z", "a", "B"),
         ("\U0001F68C", "\uFF21", "車両7", "é"))
_IDS = [vid for group in _TIED for vid in group] + ["bus-30", "bus-3"]


def _column_fleet(seed):
    """A seeded fleet state plugged in a shuffled order, its slot length
    and an arriving task.  The first group of ``_TIED`` departs at one
    instant, the second is overdue (each departure clamps to the clock) and
    the third departs inside a slot; one vehicle is full and two need
    nothing.  Each task's own start SoC differs from the vehicle's current
    SoC."""
    rng = np.random.default_rng(seed)
    now, dt = float(rng.uniform(0.0, 100.0)), float(rng.choice([0.25, 1 / 3, 0.5]))
    n = len(_IDS)
    t_dep = now + rng.uniform(0.0, 6.0, n)
    t_dep[0:3] = now + 2 * dt
    t_dep[3:7] = now - rng.uniform(0.0, 1.0, 4)
    t_dep[7:11] = now + 3.5 * dt
    soc = rng.uniform(0.0, 1.0, n)
    soc_dep = rng.uniform(soc, 1.0)
    soc[11] = soc_dep[11] = 1.0
    soc_dep[0], soc_dep[7] = 0.5 * soc[0], soc[7]
    state = fleet(now)
    for v in rng.permutation(n).tolist():
        task = ChargingTask(_IDS[v], now - 20.0, float(t_dep[v]), float(rng.uniform()),
                            float(soc_dep[v]))
        state.plug(task, float(soc[v]))
    extra = ChargingTask("new", now, now + 5 * dt + 0.1, 0.2, 0.8)
    return state, dt, extra


def _reanchored(state):
    """The per-vehicle tasks the column assembly replaced: each vehicle's
    task at its current SoC, its departure clamped to the clock."""
    return [ChargingTask(t.vehicle_id, t.t_arr, max(t.t_dep, state.now), soc, t.soc_dep)
            for t, soc in zip(state.tasks, state.soc_cur.tolist())]


def _with_newcomer(state, task):
    """The fleet admission assesses: a copy of ``state`` with ``task``
    plugged in at its start SoC."""
    assessed = dataclasses.replace(state)
    assessed.plug(task, task.soc_start)
    return assessed


class TestColumnAssembly:
    """A reschedule's instance, assembled from the fleet's columns, is byte
    for byte the instance of its re-anchored tasks in the fleet's order; an
    admission's is that of the fleet with the newcomer plugged in."""

    LIMITS = StationLimits(soc_xtra_ah=21.0)

    def instance(self, state, dt):
        limits = dataclasses.replace(self.LIMITS, dt=dt)
        return _instance_from_state(state, limits, price_fn(_step_prices))

    @pytest.mark.parametrize("admit", [False, True], ids=["fleet", "admission"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reanchored_tasks(self, seed, admit):
        state, dt, extra = _column_fleet(seed)
        assessed = _with_newcomer(state, extra) if admit else state
        tasks = _reanchored(assessed)
        assert [t.t_dep for t in tasks] == sorted(t.t_dep for t in tasks)
        ref = _reference_build(tasks, state.now, dt, _step_prices, self.LIMITS.c_bat,
                               self.LIMITS.soc_xtra_ah)
        _assert_equals_reference(self.instance(assessed, dt), ref)
        assert ("new" in ref["vehicle_ids"]) == admit

    @pytest.mark.parametrize("seed", range(4))
    def test_insertion_order_does_not_matter(self, seed):
        state, dt, extra = _column_fleet(seed)
        items = list(zip(state.tasks, state.soc_cur.tolist()))
        rng = np.random.default_rng(100 + seed)
        order = rng.permutation(len(items)).tolist()
        shuffled = fleet(state.now, *(items[k] for k in order))
        assert order != sorted(order) and shuffled.ids == state.ids
        for fleets in ((state, shuffled),
                       (_with_newcomer(state, extra), _with_newcomer(shuffled, extra))):
            a, b = (self.instance(assessed, dt) for assessed in fleets)
            assert a.vehicle_ids == b.vehicle_ids
            for name in ("durations", "active", "avail_w", "soc_start", "e_lo", "e_hi", "wep"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            assert a.grid.tt.tobytes() == b.grid.tt.tobytes()


class TestColumnOrder:
    """``build_instance`` keeps the columns as given and only checks their
    departure order: columns in the fleet's (departure, id) order, the
    order ``np.lexsort`` gives, or in any departure order with ties, build
    byte for byte the reference assembly in that order and keep the ids
    tuple given; departures that decrease raise."""

    LIMITS = StationLimits(dt=0.5, soc_xtra_ah=21.0)

    @staticmethod
    def columns(seed, arrangement):
        """Ten vehicles' columns as a tuple of ids and three float arrays,
        and the start: departures strictly increasing, reversed, with four
        tied, or with five before the start clamped to it; the ids in no
        order of their own."""
        rng = np.random.default_rng(seed)
        t_s, n = float(rng.uniform(0.0, 100.0)), 10
        t_dep = t_s + np.sort(rng.uniform(0.1, 6.0, n))
        ids = tuple(f"v{k}" for k in rng.permutation(n).tolist())
        soc = rng.uniform(0.0, 1.0, n)
        soc_dep = rng.uniform(soc, 1.0)
        if arrangement == "tied":
            t_dep[3:7] = t_dep[3]
        elif arrangement == "clamped":
            t_dep[:5] = np.maximum(t_s - np.sort(rng.uniform(0.0, 2.0, 5))[::-1], t_s)
        elif arrangement == "reversed":
            ids, t_dep, soc, soc_dep = ids[::-1], t_dep[::-1], soc[::-1], soc_dep[::-1]
        return ids, t_dep, soc, soc_dep, t_s

    @classmethod
    def fleet_columns(cls, seed, arrangement):
        """:meth:`columns` in (departure, id) order, as the fleet holds
        them: the order ``np.lexsort`` gives over an object array of ids,
        which compares them as Python does."""
        ids, t_dep, soc, soc_dep, t_s = cls.columns(seed, arrangement)
        order = np.lexsort((np.array(ids, dtype=object), t_dep))
        return tuple(ids[k] for k in order.tolist()), t_dep[order], soc[order], soc_dep[order], t_s

    def assert_equals_reference(self, columns):
        ids, t_dep, soc, soc_dep, t_s = columns
        inst = build_instance(ids, t_dep, soc, soc_dep, t_s, price_fn(_step_prices), self.LIMITS)
        assert inst.vehicle_ids is ids  # kept as given
        tasks = [ChargingTask(vid, t_s, float(dep), float(start), float(end))
                 for vid, dep, start, end in zip(ids, t_dep, soc, soc_dep)]
        _assert_equals_reference(inst, _reference_build(tasks, t_s, self.LIMITS.dt,
                                                        _step_prices, self.LIMITS.c_bat,
                                                        self.LIMITS.soc_xtra_ah))

    @pytest.mark.parametrize("arrangement", ["in-order", "reversed", "tied", "clamped"])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_lexsort_reference(self, seed, arrangement):
        ids, *_ = columns = self.fleet_columns(seed, arrangement)
        plugged = fleet(0.0, *((ChargingTask(vid, 0.0, float(dep), 0.5, 0.5), 0.5)
                               for vid, dep in zip(ids, columns[1])))
        assert plugged.ids == ids
        self.assert_equals_reference(columns)

    @pytest.mark.parametrize("arrangement", ["tied", "clamped"])
    @pytest.mark.parametrize("seed", range(4))
    def test_columns_in_departure_order_kept_as_given(self, seed, arrangement):
        """Ties out of id order are kept as they come."""
        ids, *_ = columns = self.columns(seed, arrangement)
        assert ids != self.fleet_columns(seed, arrangement)[0]
        self.assert_equals_reference(columns)

    @pytest.mark.parametrize("swap", [None, 0, 4, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_decreasing_departures_raise(self, seed, swap):
        """Reversed columns, or in-order columns with one neighbouring pair
        swapped, name the first vehicle whose departure is before the one
        before it, in input order."""
        ids, t_dep, soc, soc_dep, t_s = self.columns(seed, "in-order" if swap is not None
                                                     else "reversed")
        first = 1
        if swap is not None:
            order = list(range(len(ids)))
            order[swap:swap + 2] = swap + 1, swap
            ids, t_dep = tuple(ids[k] for k in order), t_dep[order]
            first = swap + 1
        message = (f"vehicle {ids[first]}: t_dep {t_dep[first]} before the departure "
                   f"{t_dep[first - 1]} of the vehicle before it: columns out of order")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_instance(ids, t_dep, soc, soc_dep, t_s, ZERO_PRICES, self.LIMITS)

    @pytest.mark.parametrize("arrangement", ["in-order", "reversed", "tied", "clamped"])
    def test_instance_keeps_its_own_start_socs(self, arrangement):
        ids, t_dep, soc, soc_dep, t_s = self.fleet_columns(0, arrangement)
        inst = build_instance(ids, t_dep, soc, soc_dep, t_s, ZERO_PRICES, self.LIMITS)
        held = inst.soc_start.tobytes()
        soc[:] = 0.5
        assert inst.soc_start.tobytes() == held

    @pytest.mark.parametrize("arrangement", ["in-order", "reversed", "tied", "clamped"])
    def test_first_bad_vehicle_named_in_input_order(self, arrangement):
        """The range checks run on the columns as given, before the order
        check: of two bad vehicles the first in input order is named, and a
        bad SoC or departure is named even in reversed columns."""
        ids, t_dep, soc, soc_dep, t_s = self.columns(1, arrangement)
        bad_soc, bad_dep = soc.copy(), t_dep.copy()
        bad_soc[[6, 2]] = 1.5, 1.25
        bad_dep[[7, 4]] = t_s - 1.0, t_s - 2.0
        with pytest.raises(ValueError, match=rf"^vehicle {ids[2]}: soc_start 1.25 not in"):
            build_instance(ids, t_dep, bad_soc, soc_dep, t_s, ZERO_PRICES, self.LIMITS)
        with pytest.raises(ValueError, match=rf"^vehicle {ids[4]}: negative-duration: "
                                             rf"t_dep {t_s - 2.0} before the start {t_s}$"):
            build_instance(ids, bad_dep, soc, soc_dep, t_s, ZERO_PRICES, self.LIMITS)


class TestFadeTerms:
    def test_cyclic_equals_scalar_kernel(self):
        """The fade the optimizer minimizes is the fade the ledger records:
        on a one-slot instance every ledger row's approximate fade equals
        its cell's cyclic plus calendric term bit for bit, across both
        branches, zero current and the clamp at zero."""
        socs = np.linspace(0.0, 0.8, 9)
        rng = np.random.default_rng(11)
        currents = np.concatenate([[0.0, 0.37, 1.13], rng.uniform(0.0, 80.0, 38)])
        cells = {f"v{k:03d}": (s, c) for k, (s, c) in
                 enumerate((s, c) for s in socs for c in currents)}
        tasks = [ChargingTask(vid, 0.0, 0.5, s, 1.0) for vid, (s, _) in cells.items()]
        inst = make_instance(tasks, ic_max=80.0 * len(tasks))
        alloc = np.array([[cells[vid][1] for vid in inst.vehicle_ids]])
        cyclic, calendric = fade_terms(alloc, inst)

        state = fleet(0.0, *((t, t.soc_start) for t in tasks))
        rows = slot_rows(state, alloc, inst, 0.5)
        assert [e.vehicle_id for e in rows] == list(inst.vehicle_ids)
        assert [e.fade_approx_ah for e in rows] == (cyclic[0] + calendric[0]).tolist()
        is_hi = alloc[0] >= inst.fade_params.branch_slope * inst.soc_start
        assert is_hi.any() and (~is_hi).any()
        assert np.any((alloc[0] > 0) & (cyclic[0] == 0.0))  # clamped cells


class TestConstraintAudit:
    def test_feasible_passes(self, two_by_three_instance):
        cs = build_constraints(two_by_three_instance)
        assert cs.audit(REF_ALLOC) == []

    def test_box_violation(self, two_by_three_instance):
        cs = build_constraints(two_by_three_instance)
        bad = REF_ALLOC.copy()
        bad[0, 0] = 100.0
        assert any("vehicle current" in p for p in cs.audit(bad))

    def test_station_violation(self, two_by_three_instance):
        cs = build_constraints(two_by_three_instance)
        bad = REF_ALLOC.copy()
        bad[0, :] = [60.0, 61.0]
        assert any("station current" in p for p in cs.audit(bad))

    def test_window_violation(self, two_by_three_instance):
        cs = build_constraints(two_by_three_instance)
        assert any("below window" in p for p in cs.audit(REF_ALLOC * 0.2))

    def test_out_of_period_violation(self, two_by_three_instance):
        cs = build_constraints(two_by_three_instance)
        bad = REF_ALLOC.copy()
        bad[2, 0] = 5.0  # vehicle A only has two slots
        assert any("charging period" in p for p in cs.audit(bad))


class TestNormalization:
    def _points(self):
        return NormalizationPoints(
            utopia={"cost": 2.0, "fade": 0.01, "availability": -500.0},
            nadir={"cost": 6.0, "fade": 0.03, "availability": -100.0},
        )

    def test_utopia_scores_zero(self):
        pts = self._points()
        bd = ObjectiveBreakdown(cost=2.0, fade=0.01, availability=-500.0)
        assert normalized_objective(bd, pts, (1, 1, 1)) == 0.0

    def test_nadir_scores_three(self):
        pts = self._points()
        bd = ObjectiveBreakdown(cost=6.0, fade=0.03, availability=-100.0)
        assert normalized_objective(bd, pts, (1, 1, 1)) == pytest.approx(3.0)

    def test_midway_single_weight(self):
        pts = self._points()
        bd = ObjectiveBreakdown(cost=4.0, fade=0.03, availability=-100.0)
        assert normalized_objective(bd, pts, (1, 0, 0)) == pytest.approx(0.5)

    def test_degenerate_spread_contributes_zero(self):
        pts = NormalizationPoints(
            utopia={"cost": 2.0, "fade": 0.01, "availability": -500.0},
            nadir={"cost": 2.0, "fade": 0.03, "availability": -100.0},
        )
        bd = ObjectiveBreakdown(cost=99.0, fade=0.01, availability=-500.0)
        assert normalized_objective(bd, pts, (1, 1, 1)) == 0.0

    @given(scale=st.floats(0.1, 50.0), shift=st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, scale, shift):
        """Rescaling a raw objective together with its utopia/nadir leaves
        the normalized value unchanged."""
        pts = self._points()
        bd = ObjectiveBreakdown(cost=4.4, fade=0.022, availability=-321.0)
        ref = normalized_objective(bd, pts, (1.0, 2.0, 0.5))
        pts2 = NormalizationPoints(
            utopia={**pts.utopia, "cost": scale * pts.utopia["cost"] + shift},
            nadir={**pts.nadir, "cost": scale * pts.nadir["cost"] + shift},
        )
        bd2 = ObjectiveBreakdown(
            cost=scale * bd.cost + shift, fade=bd.fade, availability=bd.availability
        )
        assert normalized_objective(bd2, pts2, (1.0, 2.0, 0.5)) == pytest.approx(ref)

    def test_weight_per_spread(self):
        """Weight over spread, 0.0 below the guard: the spread 1e-9 is at
        the guard and 5e-10 below it."""
        pts = NormalizationPoints(
            utopia={"cost": 2.0, "fade": 0.0, "availability": 0.0},
            nadir={"cost": 6.0, "fade": 5e-10, "availability": NORMALIZATION_EPS},
        )
        assert pts.weight_per_spread((2.0, 3.0, 0.5)) == {
            "cost": 0.5, "fade": 0.0, "availability": 0.5 / NORMALIZATION_EPS}
        assert pts.weight_per_spread((0.0, 1.0, 0.0)) == {
            "cost": 0.0, "fade": 0.0, "availability": 0.0}
        pts = self._points()
        bd = ObjectiveBreakdown(cost=4.4, fade=0.022, availability=-321.0)
        scale = pts.weight_per_spread((1.0, 2.0, 0.5))
        folded = sum(scale[k] * (bd.component(k) - pts.utopia[k]) for k in COMPONENTS)
        assert folded == pytest.approx(normalized_objective(bd, pts, (1.0, 2.0, 0.5)))

    def test_nadir_below_utopia_rejected(self):
        with pytest.raises(ValueError):
            NormalizationPoints(
                utopia={"cost": 2.0, "fade": 0.0, "availability": 0.0},
                nadir={"cost": 1.0, "fade": 0.0, "availability": 0.0},
            )


class TestNormalizationPointsComputation:
    def test_utopia_not_above_nadir(self, two_by_three_instance):
        pts = compute_normalization_points(
            two_by_three_instance, lambda i, k: single_objective_minimizer(i, k)
        )
        for k in COMPONENTS:
            assert pts.utopia[k] <= pts.nadir[k] + 1e-12

    def test_flat_price_cost_utopia_closed_form(self):
        """With flat prices the cheapest schedule buys exactly the minimum
        energy, so the cost utopia is demand times price."""
        task = ChargingTask("v", 0.0, 4.0, 0.3, 0.8)
        inst = make_instance([task], prices=0.15, voltage=400.0, c_bat=200.0)
        pts = compute_normalization_points(
            inst, lambda i, k: single_objective_minimizer(i, k)
        )
        expected = (0.8 - 0.3) * 200.0 * 400.0 * 0.15 / 1000.0
        assert pts.utopia["cost"] == pytest.approx(expected, rel=1e-6)

    def test_degenerate_instance_coincident_points(self):
        """Zero-need tasks admit only the empty allocation, so all three
        single-objective optima coincide."""
        inst = make_instance([ChargingTask("v", 0.0, 2.0, 0.9, 0.5)])
        pts = compute_normalization_points(
            inst, lambda i, k: single_objective_minimizer(i, k)
        )
        for k in COMPONENTS:
            assert pts.utopia[k] == pytest.approx(pts.nadir[k], abs=1e-12)
