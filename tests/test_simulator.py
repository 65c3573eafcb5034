"""Event-driven replay tests: metric operations, golden run, invariants."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetcharge.ingest import SessionRecord, sessions_to_events
import fleetcharge.simulator as simulator_module
from fleetcharge.problem import ChargingTask, availability_weights
from fleetcharge.scheduler import (
    _DERIVE_BATCH_ROWS,
    Ledger,
    LedgerEntry,
    Policy,
    apply_slot,
    baseline_schedule,
)
from fleetcharge.simulator import (
    ACTIVE_CURRENT_EPS,
    Event,
    SimConfig,
    peak_power_period,
    run,
    value_loss,
)

from conftest import fleet, ledger_row, price_fn, reachable, soc_of

# Golden totals for the three-session mini fixture below, frozen from the
# first run after hand-auditing the opening ledger rows (the first
# baseline row is 80 A for 0.5 h at $0.030/kWh: 16.4 kWh -> $0.492).
GOLDEN_BASELINE = dict(
    cost=8.2369,
    fade_exact=0.009190625531854318,
    fade_approx=0.00921557602826666,
    peak=4.25,
    time=5.75,
)
GOLDEN_PROPOSED = dict(
    cost=2.9021985624773916,
    fade_exact=0.005881106228065426,
    fade_approx=0.005976144924528774,
    peak=2.0,
    time=7.0,
)


def day_price(t):
    h = t % 24
    if h < 6:
        return 0.030
    if h < 9:
        return 0.055
    if h < 16:
        return 0.019
    if h < 17:
        return 0.070
    if h < 21:
        return 0.125
    return 0.055


day_prices = price_fn(day_price)


def mini_events():
    specs = [
        ("A", 0.0, 6.0, 0.40, 0.75),
        ("B", 1.25, 7.0, 0.40, 0.70),   # arrives mid-slot
        ("C", 20.0, 30.0, 0.40, 0.80),  # overnight
    ]
    events = []
    for vid, t0, t1, s0, s1 in specs:
        task = ChargingTask(vid, t0, t1, s0, s1)
        events.append(Event(time_h=t0, kind="arrival", task=task))
        events.append(Event(time_h=t1, kind="departure", vehicle_id=vid))
    return events


def config(kind="baseline", **over):
    base = dict(dt=0.5, voltage=410.0, c_bat=210.0, i_max=80.0, ic_max=160.0,
                soc_xtra_ah=21.0, policy=Policy(kind))
    base.update(over)
    return SimConfig(**base)


class TestMetricOps:
    def test_peak_power_period_counts_hours(self):
        cfg = config(dt=0.25, i_max=80.0)
        alloc = np.array([[80.0], [80.0], [80.0], [0.0]])
        assert peak_power_period(alloc, cfg) == pytest.approx(0.75)

    def test_peak_threshold_is_strict(self):
        cfg = config()
        alloc = np.full((4, 1), 0.75 * cfg.i_max)
        assert peak_power_period(alloc, cfg) == 0.0

    def test_peak_rule_is_the_ledgers(self):
        """A current one ulp above ``peak_threshold * i_max`` counts, as it
        does in the ledger's realized peak hours; one at it does not."""
        cfg = config(peak_threshold=0.51)
        at = cfg.peak_threshold * cfg.i_max
        alloc = np.array([[np.nextafter(at, np.inf)], [at]])
        assert peak_power_period(alloc, cfg) == cfg.dt

    def test_full_power_schedule(self):
        cfg = config()
        alloc = np.full((6, 2), cfg.i_max)
        assert peak_power_period(alloc, cfg) == pytest.approx(12 * cfg.dt)

    def test_value_loss(self):
        cfg = config()
        assert value_loss(0.0, cfg) == 0.0
        cfg2 = config(c_bat=209.76)
        assert value_loss(0.95, cfg2) == pytest.approx(52.58, abs=0.01)
        assert value_loss(cfg.c_bat, cfg) == pytest.approx(cfg.battery_cost_usd)

    def test_value_loss_rejects_negative(self):
        with pytest.raises(ValueError):
            value_loss(-1.0, config())


class TestRunBasics:
    def test_empty_events(self):
        res = run([], day_prices, config())
        m = res.metrics
        assert m.total_charging_cost == 0.0
        assert m.total_charging_time == 0.0
        assert m.per_event_peak_period == []

    def test_single_arrival_baseline_closed_form(self):
        """One vehicle, flat price: the baseline buys the full-charge energy
        at that price over ceil(full-charge) slots."""
        task = ChargingTask("v", 0.0, 6.0, 0.4, 0.8)
        events = [
            Event(time_h=0.0, kind="arrival", task=task),
            Event(time_h=6.0, kind="departure", vehicle_id="v"),
        ]
        cfg = config("baseline")
        res = run(events, price_fn(0.1), cfg)
        energy_kwh = (1.0 - 0.4) * 210.0 * 410.0 / 1000.0
        assert res.metrics.total_charging_cost == pytest.approx(0.1 * energy_kwh)
        # 126 Ah at 80 A on half-hour slots: 3 full slots and one partial
        assert res.metrics.total_charging_time == pytest.approx(2.0)
        assert res.departures[0].soc_at_departure == pytest.approx(1.0)

    def test_golden_baseline(self):
        res = run(mini_events(), day_prices, config("baseline"))
        m = res.metrics
        assert m.total_charging_cost == pytest.approx(GOLDEN_BASELINE["cost"], rel=1e-12)
        assert m.total_fade_exact == pytest.approx(GOLDEN_BASELINE["fade_exact"], rel=1e-12)
        assert m.total_fade_approx == pytest.approx(GOLDEN_BASELINE["fade_approx"], rel=1e-12)
        assert m.total_peak_power_period == pytest.approx(GOLDEN_BASELINE["peak"])
        assert m.total_charging_time == pytest.approx(GOLDEN_BASELINE["time"])
        assert m.total_value_loss == pytest.approx(
            cfg_value_loss(m.total_fade_exact), rel=1e-12
        )

    def test_golden_proposed(self):
        res = run(mini_events(), day_prices, config("proposed"))
        m = res.metrics
        assert m.total_charging_cost == pytest.approx(GOLDEN_PROPOSED["cost"], rel=1e-9)
        assert m.total_fade_exact == pytest.approx(GOLDEN_PROPOSED["fade_exact"], rel=1e-9)
        assert m.total_peak_power_period == pytest.approx(GOLDEN_PROPOSED["peak"])
        assert m.total_charging_time == pytest.approx(GOLDEN_PROPOSED["time"])
        assert m.n_rejected == 0

    def test_unmatched_departure(self):
        events = [Event(time_h=1.0, kind="departure", vehicle_id="ghost")]
        with pytest.raises(ValueError, match="unmatched-departure"):
            run(events, day_prices, config())

    @pytest.mark.parametrize("kind", ["baseline", "proposed"])
    def test_duplicate_arrival(self, kind):
        events = [Event(time_h=t, kind="arrival", task=ChargingTask("A", t, 4.0, 0.5, 0.7))
                  for t in (0.0, 1.0)]
        with pytest.raises(ValueError, match="^duplicate arrival for A$"):
            run(events, day_prices, config(kind))


class TestTailDrain:
    @pytest.mark.parametrize("kind", ["baseline", "proposed"])
    def test_vehicle_without_departure_is_walked_to_its_t_dep(self, kind, monkeypatch):
        """B arrives and never departs: after the last event (A's departure
        at 2.0 h) the last plan is walked to B's 4.25 h departure, inside a
        slot, and B's SoC is the one that plan gives it."""
        walks = []   # per walk: the state, B's SoC before it, the plan and its end

        def recorded(state, alloc, inst, until, ledger):
            b = soc_of(state, "B") if "B" in state.ids else None
            walks.append((state, b, alloc, inst, until))
            apply_slot(state, alloc, inst, until, ledger)

        monkeypatch.setattr(simulator_module, "apply_slot", recorded)
        t_dep = 4.25
        events = [
            Event(time_h=0.0, kind="arrival", task=ChargingTask("A", 0.0, 2.0, 0.5, 0.7)),
            Event(time_h=1.5, kind="arrival", task=ChargingTask("B", 1.5, t_dep, 0.4, 0.8)),
            Event(time_h=2.0, kind="departure", vehicle_id="A"),
        ]
        cfg = config(kind)
        res = run(events, day_prices, cfg)
        state, soc_before, alloc, inst, until = walks[-1]
        assert until == t_dep and state.now == t_dep
        assert inst.vehicle_ids == ("B",) and inst.grid.t_s == 2.0
        planned = soc_before + float(alloc[:, 0] @ inst.durations[:, 0]) / cfg.c_bat
        assert soc_of(state, "B") == pytest.approx(min(planned, 1.0), rel=1e-12)
        rows = [e for e in res.ledger if e.vehicle_id == "B"]
        assert rows[-1].time_h >= 2.0
        assert rows[-1].time_h + rows[-1].duration_h <= t_dep + 1e-12
        assert rows[-1].soc == soc_of(state, "B")
        assert [d.vehicle_id for d in res.departures] == ["A"]


class TestOverdueVehicles:
    @pytest.mark.parametrize("kind", ["baseline", "proposed"])
    def test_missed_departures_keep_the_fleet_order(self, kind, monkeypatch):
        """``b`` (2.0 h) and ``a`` (3.0 h) hold their target SoC and miss
        their departure events, so from 3.0 h both departures clamp to the
        clock while ``c`` charges on to 6.0 h and ``d`` comes and goes: the
        replay finishes, neither overdue vehicle makes a row after its
        departure, and every instance lists the vehicles in the fleet's
        (departure, id) order, ``b`` before ``a``, not in id order."""
        seen = []  # per reschedule: the fleet's ids, the instance's and its start

        def recorded(schedule):
            def call(state, *args):
                out = schedule(state, *args)
                seen.append((state.ids, out[-1].vehicle_ids, out[-1].grid.t_s))
                return out
            return call

        for name in ("baseline_schedule", "proposed_schedule"):
            monkeypatch.setattr(simulator_module, name, recorded(getattr(simulator_module, name)))
        events = [
            *(Event(time_h=0.0, kind="arrival", task=ChargingTask(vid, 0.0, t_dep, 0.8, 0.8))
              for vid, t_dep in (("a", 3.0), ("b", 2.0))),
            Event(time_h=0.0, kind="arrival", task=ChargingTask("c", 0.0, 6.0, 0.1, 0.9)),
            Event(time_h=4.0, kind="arrival", task=ChargingTask("d", 4.0, 4.5, 0.6, 0.6)),
            Event(time_h=4.5, kind="departure", vehicle_id="d"),
            Event(time_h=6.0, kind="departure", vehicle_id="c"),
        ]
        res = run(events, day_prices, config(kind))
        assert [d.vehicle_id for d in res.departures] == ["d", "c"] and not res.rejected
        for vid, t_dep in (("a", 3.0), ("b", 2.0)):
            assert all(e.time_h + e.duration_h <= t_dep + 1e-12
                       for e in res.ledger if e.vehicle_id == vid), vid
        assert any(e.time_h >= 3.0 and e.current_a > 0 for e in res.ledger if e.vehicle_id == "c")
        assert all(fleet_ids == inst_ids for fleet_ids, inst_ids, _ in seen)
        overdue = [tuple(v for v in ids if v in "ab") for _, ids, t_s in seen if t_s >= 3.0]
        assert len(overdue) == 3 and set(overdue) == {("b", "a")}


def cfg_value_loss(fade):
    cfg = config()
    return cfg.battery_cost_usd * fade / cfg.c_bat


class TestRunInvariants:
    def test_deterministic(self):
        r1 = run(mini_events(), day_prices, config("proposed"))
        r2 = run(mini_events(), day_prices, config("proposed"))
        assert r1.metrics.total_charging_cost == r2.metrics.total_charging_cost
        assert r1.metrics.total_fade_exact == r2.metrics.total_fade_exact
        assert [e.current_a for e in r1.ledger] == [e.current_a for e in r2.ledger]

    def test_departure_soc_band_under_proposed(self):
        cfg = config("proposed")
        res = run(mini_events(), day_prices, cfg)
        band = cfg.soc_xtra_ah / cfg.c_bat
        for d in res.departures:
            assert d.soc_at_departure >= d.soc_dep_required - 1e-6
            assert d.soc_at_departure <= d.soc_dep_required + band + 1e-6

    def test_fade_models_agree_on_realized_schedules(self):
        for kind in ("baseline", "proposed"):
            m = run(mini_events(), day_prices, config(kind)).metrics
            assert m.total_fade_approx == pytest.approx(m.total_fade_exact, rel=0.10)

    def test_metric_additivity_disjoint_runs(self):
        """Disjoint vehicle sets with non-overlapping occupancy: the merged
        run equals the sum of the separate runs on additive metrics."""
        first = [
            Event(time_h=0.0, kind="arrival",
                  task=ChargingTask("a", 0.0, 4.0, 0.4, 0.7)),
            Event(time_h=4.0, kind="departure", vehicle_id="a"),
        ]
        second = [
            Event(time_h=30.0, kind="arrival",
                  task=ChargingTask("b", 30.0, 35.0, 0.4, 0.75)),
            Event(time_h=35.0, kind="departure", vehicle_id="b"),
        ]
        cfg = config("proposed")
        merged = run(first + second, day_prices, cfg).metrics
        m1 = run(first, day_prices, cfg).metrics
        m2 = run(second, day_prices, cfg).metrics
        assert merged.total_charging_cost == pytest.approx(
            m1.total_charging_cost + m2.total_charging_cost, rel=1e-9
        )
        assert merged.total_fade_exact == pytest.approx(
            m1.total_fade_exact + m2.total_fade_exact, rel=1e-9
        )
        assert merged.total_charging_time == pytest.approx(
            m1.total_charging_time + m2.total_charging_time, rel=1e-9
        )

    def test_station_cap_respected_in_ledger(self):
        cfg = config("proposed", ic_max=120.0)
        res = run(mini_events(), day_prices, cfg)
        by_time = {}
        for e in res.ledger:
            by_time.setdefault(round(e.time_h, 9), 0.0)
            by_time[round(e.time_h, 9)] += e.current_a
        assert max(by_time.values()) <= cfg.ic_max + 1e-6


def rejection_log(cfg):
    """Five sessions on 2021-05-03 (id, connect, disconnect, kWh) on which
    the proposed policy rejects one arrival; the rejected vehicle departs
    inside an hour slot while the others charge."""
    specs = [
        ("S3", "02:55", "12:46", 33.45),
        ("S2", "04:28", "05:12", 5.88),
        ("S1", "05:53", "12:04", 50.02),
        ("S0", "08:18", "11:12", 29.16),
        ("S4", "09:10", "09:54", 28.51),
    ]

    def at(hhmm):
        h, m = map(int, hhmm.split(":"))
        return datetime(2021, 5, 3, h, m, tzinfo=timezone.utc)

    records = [SessionRecord(sid, at(c), at(d), kwh, f"P{sid}") for sid, c, d, kwh in specs]
    return sessions_to_events(records, cfg)[0]


class TestRejection:
    def test_rejected_departure_inside_a_slot(self):
        """Every event ends in a reschedule, the rejected departure too: no
        slot is applied twice, so each vehicle's ledger rows are disjoint in
        time and every departure lands in its SoC band."""
        cfg = SimConfig(dt=1.0, ic_max=80.0, policy=Policy("proposed"))
        events = rejection_log(cfg)
        res = run(events, price_fn(0.05), cfg)
        assert res.metrics.n_rejected == 1 and len(res.rejected) == 1
        rejected = res.rejected[0][0].vehicle_id
        assert sorted(d.vehicle_id for d in res.departures) == sorted(
            {"S0", "S1", "S2", "S3", "S4"} - {rejected})
        assert len(res.metrics.per_event_peak_period) == len(events)
        rows = {}
        for e in res.ledger:
            rows.setdefault(e.vehicle_id, []).append((e.time_h, e.time_h + e.duration_h))
        assert rejected not in rows
        for spans in rows.values():
            spans.sort()
            assert all(end <= nxt + 1e-9 for (_, end), (nxt, _) in zip(spans, spans[1:]))
        band = cfg.soc_xtra_ah / cfg.c_bat
        for d in res.departures:
            assert d.soc_dep_required - 1e-6 <= d.soc_at_departure
            assert d.soc_at_departure <= d.soc_dep_required + band + 1e-6


@st.composite
def session_logs(draw):
    """A small random log: 2-4 sessions whose arrivals and stays fall on the
    minute, so events land inside slots, on 30- or 60-minute slots and a
    feeder of one, one and a half or five chargers (80, 120 or 400 A)."""
    specs = []
    for k in range(draw(st.integers(2, 4))):
        arrive = draw(st.integers(0, 6 * 60)) / 60.0
        stay = draw(st.integers(10, 6 * 60)) / 60.0
        soc = draw(st.sampled_from([0.1, 0.4, 0.7]))
        need = draw(st.floats(0.0, 0.6))
        specs.append((f"R{k}", arrive, arrive + stay, soc, min(1.0, soc + need)))
    return (specs, draw(st.sampled_from([80.0, 120.0, 400.0])),
            draw(st.sampled_from([0.5, 1.0])), draw(st.sampled_from([0.0, 21.0])))


def log_events(specs):
    events = []
    for vid, t0, t1, s0, s1 in specs:
        events.append(Event(time_h=t0, kind="arrival", task=ChargingTask(vid, t0, t1, s0, s1)))
        events.append(Event(time_h=t1, kind="departure", vehicle_id=vid))
    return events


class TestRandomLogInvariants:
    @settings(max_examples=12, deadline=None)
    @given(session_logs())
    # Two long stays that overlap on one 80 A charger: the second arrival
    # is rejected, the other charges at the cap.
    @example(([("R0", 0.0, 2.0, 0.1, 0.7), ("R1", 0.5, 2.5, 0.1, 0.6),
               ("R2", 1.25, 3.0, 0.4, 0.45)], 80.0, 0.5, 0.0))
    # R2 departs at 9.899999999999999 h, one ulp before the end of R0's slot
    # [9.4, 9.9): that slot applies up to the departure, not whole, so R0's
    # next plan does not overlap it (a whole slot read 160 A on 80 A).
    @example(([("R0", 3.9166666666666665, 9.916666666666666, 0.1, 0.6),
               ("R1", 0.9, 6.9, 0.1, 0.1),
               ("R2", 4.283333333333333, 9.899999999999999, 0.1, 0.1)], 80.0, 0.5, 0.0))
    # R0 arrives at 4.916666666666667 h, which is where R2's slot 4 starts,
    # an ulp past the end slot 3 left: that gap applies nothing, so R2 has no
    # row at the arrival besides the next plan's (a row for it read 160 A).
    @example(([("R0", 4.916666666666667, 5.083333333333334, 0.1, 0.1),
               ("R1", 0.0, 0.16666666666666666, 0.1, 0.1),
               ("R2", 0.9166666666666666, 4.933333333333334, 0.1, 0.6)], 80.0, 1.0, 0.0))
    def test_proposed_replay_invariants(self, log):
        """Under the proposed policy, on any log: the ledger's energy is each
        vehicle's SoC change times the pack size, a vehicle's ledger rows
        are disjoint in time, the station cap holds at every instant,
        serviced departures land in their SoC band and a second run is
        identical.  No reschedule finds an admitted fleet infeasible."""
        specs, ic_max, dt, xtra = log
        cfg = config("proposed", dt=dt, ic_max=ic_max, soc_xtra_ah=xtra)
        res = run(log_events(specs), day_prices, cfg)
        rows = {}
        for e in res.ledger:
            rows.setdefault(e.vehicle_id, []).append(e)
        for d in res.departures:
            energy = sum(e.energy_ah for e in rows.get(d.vehicle_id, []))
            assert energy == pytest.approx((d.soc_at_departure - d.soc_start) * cfg.c_bat,
                                           abs=1e-6)
            assert d.soc_dep_required - 1e-6 <= d.soc_at_departure
            assert d.soc_at_departure <= d.soc_dep_required + xtra / cfg.c_bat + 1e-6
        for own in rows.values():
            spans = sorted((e.time_h, e.time_h + e.duration_h) for e in own)
            assert all(end <= nxt + 1e-9 for (_, end), (nxt, _) in zip(spans, spans[1:]))
        for t in {e.time_h for e in res.ledger}:
            load = sum(e.current_a for e in res.ledger
                       if e.time_h <= t < e.time_h + e.duration_h)
            assert load <= ic_max + 1e-6
        again = run(log_events(specs), day_prices, cfg)
        assert again.ledger == res.ledger
        assert again.departures == res.departures and again.rejected == res.rejected
        assert again.metrics.as_dict() == res.metrics.as_dict()


def depot_log(seed, spaces=10, days=3):
    """A seeded depot log: each space holds one stay after another for
    ``days``, on the minute, so that events land inside slots."""
    rng = np.random.default_rng(seed)
    specs = []
    for space in range(spaces):
        t, k = rng.integers(0, 8 * 60) / 60.0, 0
        while t < 24.0 * days:
            stay = rng.integers(30, 14 * 60) / 60.0
            soc = float(rng.choice([0.1, 0.3, 0.5]))
            specs.append((f"D{space:02d}-{k:02d}", t, t + stay, soc,
                          min(1.0, soc + rng.uniform(0.0, 0.6))))
            t, k = t + stay + rng.integers(15, 6 * 60) / 60.0, k + 1
    return specs


class TestLedgerReplay:
    """A seeded depot replay under the baseline, on a feeder of five of its
    ten chargers, so the station cap binds."""

    @pytest.fixture(scope="class")
    def replay(self):
        cfg = config(ic_max=400.0)
        return cfg, run(log_events(depot_log(7)), day_prices, cfg)

    def test_totals_are_sequential_sums_of_the_rows(self, replay):
        """Each metric total is a ``+=`` over the ledger's rows in order,
        bit for bit."""
        cfg, res = replay
        cost = exact = approx = hours = peak = 0.0
        for e in res.ledger:
            cost += e.cost_usd
            exact += e.fade_exact_ah
            approx += e.fade_approx_ah
            if e.current_a > ACTIVE_CURRENT_EPS:
                hours += e.duration_h
            if e.current_a > cfg.peak_threshold * cfg.i_max:
                peak += e.duration_h
        load = {}
        for e in res.ledger:
            load[e.time_h] = load.get(e.time_h, 0.0) + e.current_a
        assert max(load.values()) == pytest.approx(cfg.ic_max)
        assert len(res.ledger) > 1000 and 0.0 < peak < hours
        m = res.metrics
        assert [x.hex() for x in (m.total_charging_cost, m.total_fade_exact,
                                  m.total_fade_approx, m.total_charging_time,
                                  m.total_peak_power_period)] == \
            [x.hex() for x in (cost, exact, approx, hours, peak)]

    def test_ledger_holds_no_row_objects(self, replay):
        """A finished run's ledger keeps its rows as columns: nothing it
        refers to, directly or not, is a ``LedgerEntry``."""
        _, res = replay
        held = reachable(res.ledger)
        assert not [obj for obj in held if isinstance(obj, LedgerEntry)]
        assert len(held) > 1 and isinstance(res.ledger[0], LedgerEntry)


def test_baseline_replay_builds_no_availability_weights(monkeypatch):
    """The baseline never evaluates an objective, so none of a replay's
    instances holds availability weights; read, they are built from the
    instance's slot counts."""
    kept = []

    def keep(*args):
        alloc, inst = baseline_schedule(*args)
        kept.append(inst)
        return alloc, inst

    monkeypatch.setattr("fleetcharge.simulator.baseline_schedule", keep)
    run(log_events(depot_log(5)), day_prices, config(ic_max=400.0))
    assert len(kept) > 100 and max(inst.n_vehicles for inst in kept) > 5
    assert not [inst for inst in kept if "avail_w" in vars(inst)]
    for inst in kept:
        w = inst.avail_w
        want = availability_weights(inst.grid.tt)
        assert (w.dtype, w.shape, w.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert inst.avail_w is w


def test_derivation_does_not_depend_on_when_rows_are_read(monkeypatch):
    """A depot replay longer than two derivation batches holds the same
    column bytes whether its ledger is read once at the end or after every
    seventh walk, which derives part of a batch at a time; and each row's
    derived fields equal the fade kernels evaluated on that row alone, bit
    for bit."""
    specs, cfg = depot_log(11, spaces=20, days=6), config(ic_max=400.0)
    once = run(log_events(specs), day_prices, cfg).ledger
    assert len(once) > 2 * _DERIVE_BATCH_ROWS
    assert len(once._soc_before) < _DERIVE_BATCH_ROWS  # pending rows stay under a batch

    walks = reads = 0

    def walk_and_read(state, alloc, inst, until, ledger):
        nonlocal walks, reads
        apply_slot(state, alloc, inst, until, ledger)
        walks += 1
        if walks % 7 == 0 and len(ledger):
            reads += 1
            ledger[-1]

    monkeypatch.setattr("fleetcharge.simulator.apply_slot", walk_and_read)
    often = run(log_events(specs), day_prices, cfg).ledger
    assert reads > 10 * len(once) // _DERIVE_BATCH_ROWS  # most reads fall inside a batch
    assert once.column("vehicle_id") == often.column("vehicle_id")
    for name in LedgerEntry._fields[:1] + LedgerEntry._fields[2:]:
        assert once.column(name).tobytes() == often.column(name).tobytes(), name

    soc = {vid: s0 for vid, _, _, s0, _ in specs}  # each vehicle's SoC before its next row
    for e in once:
        row = ledger_row(e.time_h, e.vehicle_id, e.duration_h, e.current_a,
                         e.price_usd_per_kwh, soc[e.vehicle_id], e.soc,
                         cfg.c_bat, cfg.voltage, cfg.dt, cfg.fade_params)
        assert [x.hex() for x in e[2:]] == [x.hex() for x in row[2:]], e
        soc[e.vehicle_id] = e.soc


class TestAdvance:
    def _walk(self, until):
        """One vehicle's baseline plan anchored at 9.4 h on 30-minute slots,
        walked to ``until``."""
        state = fleet(9.4, (ChargingTask("v", 9.0, 12.0, 0.1, 0.9), 0.1))
        alloc, inst = baseline_schedule(state, config(), day_prices)
        ledger = Ledger()
        apply_slot(state, alloc, inst, until, ledger)
        return state, inst, ledger

    def test_event_an_ulp_before_a_slot_end_cuts_that_slot(self):
        until = 9.899999999999999
        state, inst, ledger = self._walk(until)
        assert inst.grid.t_s + inst.grid.dt > until
        assert len(ledger) == 1
        assert ledger[0].time_h + ledger[0].duration_h <= until
        assert state.now == until

    def test_event_on_a_slot_end_applies_the_slot_whole(self):
        until = 9.4 + 0.5
        state, inst, ledger = self._walk(until)
        assert inst.grid.t_s + inst.grid.dt == until
        assert [(e.time_h, e.duration_h) for e in ledger] == [(9.4, 0.5)]
        assert state.now == until

    def test_walk_shorter_than_the_guard_applies_nothing(self):
        """Two events a rounding error apart: the walk between them applies
        no slot and only moves the clock."""
        state, _, ledger = self._walk(9.4 + 1e-13)
        assert len(ledger) == 0 and soc_of(state, "v") == 0.1
        assert state.now == 9.4 + 1e-13


class TestEventValidation:
    def test_arrival_needs_task(self):
        with pytest.raises(ValueError):
            Event(time_h=0.0, kind="arrival")

    def test_departure_needs_vehicle(self):
        with pytest.raises(ValueError):
            Event(time_h=0.0, kind="departure")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Event(time_h=0.0, kind="pause", vehicle_id="x")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(peak_threshold=0.0)
        with pytest.raises(ValueError):
            SimConfig(battery_cost_usd=-5.0)

    @pytest.mark.parametrize("soc", [-0.01, 1.5, np.nan])
    def test_default_soc_start_outside_unit_interval_rejected(self, soc):
        with pytest.raises(ValueError, match="default_soc_start"):
            SimConfig(default_soc_start=soc)
