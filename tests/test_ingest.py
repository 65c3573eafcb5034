"""Ingest tests: session/price parsing, config loading, event digests."""

import bisect
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fleetcharge.ingest import (
    MalformedRowError,
    PriceCurve,
    PriceRecord,
    _first_instant_h,
    events_digest,
    load_config,
    parse_prices,
    parse_sessions,
    sessions_to_events,
)
from fleetcharge.scheduler import Policy
from fleetcharge.simulator import SimConfig

from conftest import FIXTURES, perfbench_workloads

UTC = timezone.utc


def write(path, text):
    path.write_text(text)
    return path


class TestParseSessions:
    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n")
        assert parse_sessions(p) == []

    def test_single_row_yields_event_pair(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "S1,2021-05-03T08:00:00Z,2021-05-03T16:00:00Z,20,CA-01\n")
        records = parse_sessions(p)
        assert len(records) == 1
        events, epoch = sessions_to_events(records, SimConfig())
        assert [e.kind for e in events] == ["arrival", "departure"]
        assert epoch == datetime(2021, 5, 3, 8, tzinfo=UTC)
        task = events[0].task
        assert task.soc_start == 0.4
        # 20 kWh on an 86.1 kWh pack
        assert task.soc_dep == pytest.approx(0.4 + 20.0 / 86.1)
        assert events[1].time_h == pytest.approx(8.0)

    def test_requested_energy_capped_at_full(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "S1,2021-05-03T08:00:00Z,2021-05-03T16:00:00Z,500,CA-01\n")
        events, _ = sessions_to_events(parse_sessions(p), SimConfig())
        assert events[0].task.soc_dep == 1.0

    def test_unsorted_rows_tolerated(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "S2,2021-05-03T10:00:00Z,2021-05-03T16:00:00Z,10,CA-02\n"
                  "S1,2021-05-03T08:00:00Z,2021-05-03T15:00:00Z,10,CA-01\n")
        records = parse_sessions(p)
        assert [r.session_id for r in records] == ["S1", "S2"]

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "S1,2021-05-03T08:00:00Z,not-a-time,10,CA-01\n")
        with pytest.raises(MalformedRowError, match=":2:"):
            parse_sessions(p)

    def test_negative_energy_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "S1,2021-05-03T08:00:00Z,2021-05-03T16:00:00Z,-5,CA-01\n")
        with pytest.raises(MalformedRowError):
            parse_sessions(p)

    @pytest.mark.parametrize("kwh", ["nan", "inf", "-inf"])
    def test_non_finite_energy_rejected(self, tmp_path, kwh):
        """A nan request would become a silent charge-to-full departure."""
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "S1,2021-05-03T08:00:00Z,2021-05-03T16:00:00Z,10,CA-01\n"
                  f"S2,2021-05-03T09:00:00Z,2021-05-03T16:00:00Z,{kwh},CA-02\n")
        with pytest.raises(MalformedRowError, match="s.csv:3: .*not finite"):
            parse_sessions(p)

    def test_bad_header_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "foo,bar\n1,2\n")
        with pytest.raises(MalformedRowError):
            parse_sessions(p)

    def test_repeated_session_id_rejected(self, tmp_path):
        """The replay keys vehicles by session id, so a second row with one
        id fails here, naming its line, and not later in the replay."""
        p = write(tmp_path / "s.csv",
                  "session_id,connection_time,disconnect_time,kwh_requested,space_id\n"
                  "R1,2021-05-03T08:00:00Z,2021-05-03T10:00:00Z,10,CA-01\n"
                  "R0,2021-05-03T08:00:00Z,2021-05-03T10:00:00Z,10,CA-02\n"
                  "R1,2021-05-03T09:00:00Z,2021-05-03T11:00:00Z,10,CA-03\n")
        with pytest.raises(MalformedRowError, match="s.csv:4: .*R1.*repeats"):
            parse_sessions(p)

    def test_week_fixture_shape(self, fixture_paths):
        """The bundled week is low density: one event pair per row and at
        most four vehicles connected at any instant."""
        records = parse_sessions(fixture_paths["sessions_week"])
        events, _ = sessions_to_events(records, SimConfig())
        assert len(events) == 2 * len(records)
        concurrency = high = 0
        for e in events:
            concurrency += 1 if e.kind == "arrival" else -1
            high = max(high, concurrency)
        assert high <= 4

    def test_events_digest_stable(self, fixture_paths):
        records = parse_sessions(fixture_paths["sessions_week"])
        e1, _ = sessions_to_events(records, SimConfig())
        e2, _ = sessions_to_events(records, SimConfig())
        assert events_digest(e1) == events_digest(e2)


class TestParsePrices:
    def test_flat_series(self, tmp_path):
        p = write(tmp_path / "p.csv",
                  "timestamp,price_usd_per_kwh\n"
                  "2021-05-03T00:00:00Z,0.10\n"
                  "2021-05-03T01:00:00Z,0.10\n")
        fn = parse_prices(p).as_fn(datetime(2021, 5, 3, tzinfo=UTC))
        assert fn(0.5) == 0.10

    def test_slot_start_rule_across_step(self, tmp_path):
        """A slot straddling a price step uses the price in force at the
        slot start."""
        p = write(tmp_path / "p.csv",
                  "timestamp,price_usd_per_kwh\n"
                  "2021-05-03T00:00:00Z,0.10\n"
                  "2021-05-03T01:15:00Z,0.30\n")
        fn = parse_prices(p).as_fn(datetime(2021, 5, 3, tzinfo=UTC))
        assert fn(1.0) == 0.10  # slot starting 01:00 predates the step
        assert fn(1.5) == 0.30

    def test_hourly_resampled_to_five_minutes(self, tmp_path):
        p = write(tmp_path / "p.csv",
                  "timestamp,price_usd_per_kwh\n"
                  "2021-05-03T00:00:00Z,0.10\n"
                  "2021-05-03T01:00:00Z,0.20\n")
        fn = parse_prices(p).as_fn(datetime(2021, 5, 3, tzinfo=UTC))
        firsts = [fn(i * 5 / 60.0) for i in range(12)]
        assert firsts == [0.10] * 12
        assert fn(1.0) == 0.20

    def test_instant_rounds_to_the_microsecond(self, tmp_path):
        """An instant is ``timedelta(hours=t_h)``, rounded to the microsecond
        as datetime arithmetic is: the last float below one hour is 01:00,
        where comparing float hours would keep the earlier price."""
        p = write(tmp_path / "p.csv",
                  "timestamp,price_usd_per_kwh\n"
                  "2021-05-03T00:00:00Z,0.10\n"
                  "2021-05-03T01:00:00Z,0.20\n")
        fn = parse_prices(p).as_fn(datetime(2021, 5, 3, tzinfo=UTC))
        t_h = 0.9999999999999999
        assert t_h < 1.0
        assert fn(t_h) == 0.20
        assert fn(1.0 - 1e-9) == 0.10  # 3.6 us before the step

    def test_array_lookup_follows_the_timedelta_rule(self):
        """One call over an array of instants gives, for each, the record a
        ``bisect`` over ``timedelta`` offsets picks: on uniform hours, on
        instants whose microsecond count is an exact half (both parities,
        both signs) amid records one microsecond apart, within two ulps of
        every record and before the first."""
        rng = np.random.default_rng(20)
        hour_us = 3_600_000_000
        epoch = datetime(2021, 5, 3, 7, 13, 5, 250001, tzinfo=UTC)
        # Ties are exact only where the fraction of an hour times 3.6e9 rounds
        # to a half: near zero, or late in an hour whose ulp is small.
        bases = [-100, -7 * hour_us - 2_900_000_000, -hour_us - 3_000_000_000,
                 2 * hour_us + 3_100_000_000, 6 * hour_us + 2_500_000_000,
                 300 * hour_us + 3_300_000_000]
        blocks = [base + np.arange(200) for base in bases]
        us = np.unique(np.concatenate([rng.integers(-10 * hour_us, 800 * hour_us, 300),
                                       *blocks]))
        records = tuple(PriceRecord(epoch + timedelta(microseconds=int(u)), 0.001 * k)
                        for k, u in enumerate(us))
        offsets = [r.timestamp - epoch for r in records]

        def reference(t_h):
            idx = bisect.bisect_right(offsets, timedelta(hours=t_h)) - 1
            return records[max(idx, 0)].price

        def ulps_around(t_h, n):
            out = [t_h]
            for direction in (np.inf, -np.inf):
                b = t_h
                for _ in range(n):
                    b = np.nextafter(b, direction)
                    out.append(b)
            return np.concatenate(out)

        near = ulps_around((np.concatenate(blocks) + 0.5) / 3.6e9, 40)
        leftover = np.modf(np.modf(near)[0] * 3.6e9)[0]
        halves = near[np.abs(leftover) == 0.5]
        truncated = np.trunc(halves * 3.6e9).astype(np.int64)
        assert len(halves) > 400 and np.any(halves < -1.0) and np.any(halves > 300.0)
        assert np.any(truncated % 2 == 0) and np.any(truncated % 2 == 1)
        bounds = np.array([o / timedelta(hours=1) for o in offsets])
        t_h = np.concatenate([rng.uniform(-50.0, 800.0, 100_000), halves,
                              ulps_around(bounds, 2), np.linspace(-1e4, bounds[0], 50)])
        got = PriceCurve(records=records).as_fn(epoch)(t_h)
        want = np.array([reference(t) for t in t_h.tolist()])
        assert got.shape == t_h.shape
        assert np.array_equal(got, want)

    @staticmethod
    def check_first_instants(records, epoch):
        """Each record's first instant is, as ``timedelta`` judges, the
        smallest float at or after its offset; the lookup maps it to that
        record and the float below it to the record before."""
        records = tuple(PriceRecord(r.timestamp, float(k)) for k, r in enumerate(records))
        offsets = [r.timestamp - epoch for r in records]
        firsts = np.array([_first_instant_h(o) for o in offsets])
        below = np.nextafter(firsts, -np.inf)
        for off, t, b in zip(offsets, firsts.tolist(), below.tolist()):
            assert timedelta(hours=b) < off <= timedelta(hours=t), off
        fn = PriceCurve(records=records).as_fn(epoch)
        assert fn(firsts).tolist() == list(range(len(records)))
        assert fn(below[1:]).tolist() == list(range(len(records) - 1))
        return offsets

    def test_first_instants_of_the_week_curve(self):
        epoch = parse_sessions(FIXTURES / "sessions_week.csv")[0].connection_time
        records = parse_prices(FIXTURES / "prices_week.csv").records
        offsets = self.check_first_instants(records, epoch)
        assert len(offsets) == 216 and offsets[0] < timedelta(0) < offsets[-1]

    def test_first_instants_of_a_depot_curve(self, tmp_path):
        inputs = perfbench_workloads().write_depot_inputs(tmp_path, 1, 40, 28)
        epoch = parse_sessions(inputs["sessions"])[0].connection_time
        offsets = self.check_first_instants(parse_prices(inputs["prices"]).records, epoch)
        assert len(offsets) == 720 and offsets[0] < timedelta(0) < offsets[-1]
        assert any(o % timedelta(seconds=1) == timedelta(0) != o % timedelta(hours=1)
                   for o in offsets)  # the epoch is not on the hour

    def test_first_instants_one_microsecond_apart(self):
        """Blocks of records one microsecond apart, before and after the
        epoch, at and around whole hours and far from it."""
        hour_us = 3_600_000_000
        epoch = datetime(2021, 5, 3, 7, 13, 5, 250001, tzinfo=UTC)
        bases = [-50 * hour_us - 100, -hour_us - 3_000_000_000, -100, hour_us - 100,
                 2 * hour_us + 3_100_000_000, 300 * hour_us + 3_300_000_000,
                 9000 * hour_us - 7]
        us = np.concatenate([base + np.arange(200) for base in bases]).tolist()
        offsets = self.check_first_instants(
            tuple(PriceRecord(epoch + timedelta(microseconds=u), 0.0) for u in us), epoch)
        assert timedelta(0) in offsets and timedelta(hours=1) in offsets

    @pytest.mark.parametrize("t_h", [np.nan, np.inf, -2.0**31])
    def test_instant_out_of_range_rejected(self, t_h):
        curve = PriceCurve(records=(PriceRecord(datetime(2021, 5, 3, tzinfo=UTC), 0.1),))
        with pytest.raises(ValueError, match="instants"):
            curve.as_fn(datetime(2021, 5, 3, tzinfo=UTC))(np.array([0.0, t_h]))

    def test_extends_both_directions(self, tmp_path):
        p = write(tmp_path / "p.csv",
                  "timestamp,price_usd_per_kwh\n2021-05-03T12:00:00Z,0.25\n")
        fn = parse_prices(p).as_fn(datetime(2021, 5, 3, 12, tzinfo=UTC))
        assert fn(-48.0) == 0.25
        assert fn(144.0) == 0.25

    def test_empty_series_rejected(self, tmp_path):
        p = write(tmp_path / "p.csv", "timestamp,price_usd_per_kwh\n")
        with pytest.raises(ValueError, match="empty-series"):
            parse_prices(p)

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_price_rejected(self, tmp_path, price):
        p = write(tmp_path / "p.csv",
                  "timestamp,price_usd_per_kwh\n"
                  "2021-05-03T00:00:00Z,0.10\n"
                  f"2021-05-03T01:00:00Z,{price}\n")
        with pytest.raises(MalformedRowError, match="p.csv:3: .*not finite"):
            parse_prices(p)

    def test_unparseable_timestamp(self, tmp_path):
        p = write(tmp_path / "p.csv", "timestamp,price_usd_per_kwh\nsoon,0.1\n")
        with pytest.raises(MalformedRowError):
            parse_prices(p)

    def test_duplicate_timestamps_rejected(self):
        ts = datetime(2021, 5, 3, tzinfo=UTC)
        with pytest.raises(ValueError):
            PriceCurve(records=(PriceRecord(ts, 0.1), PriceRecord(ts, 0.2)))


class TestRunConfig:
    def test_defaults(self):
        cfg = load_config(None)
        sim = cfg.sim_config(policy=Policy("baseline"))
        assert sim.dt == 0.5
        assert sim.voltage == 410.0
        assert sim.c_bat == 210.0
        assert sim.soc_xtra_ah == pytest.approx(21.0)
        assert sim.battery_cost_usd == 11610.0
        assert sim == SimConfig(policy=Policy("baseline"))

    def test_file_and_units(self, tmp_path):
        p = write(tmp_path / "c.cfg",
                  "# comment\n"
                  "dt_minutes = 15\n"
                  "ic_max_a = 250\n"
                  "soc_xtra_fraction = 0.05\n")
        cfg = load_config(p)
        sim = cfg.sim_config(policy=__import__("fleetcharge").Policy("baseline"))
        assert sim.dt == 0.25
        assert sim.ic_max == 250.0
        assert sim.soc_xtra_ah == pytest.approx(0.05 * 210.0)

    @pytest.mark.parametrize("key", ["frequency_hz", "fade_ea_j_per_mol", "fade_t_amb_k"])
    def test_unknown_key_rejected(self, tmp_path, key):
        p = write(tmp_path / "c.cfg", f"{key} = 50\n")
        with pytest.raises(MalformedRowError, match="unknown key"):
            load_config(p)

    def test_bad_number_rejected(self, tmp_path):
        p = write(tmp_path / "c.cfg", "dt_minutes = soon\n")
        with pytest.raises(MalformedRowError, match="bad number"):
            load_config(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_number_rejected(self, tmp_path, value):
        """nan passes every ``<= 0`` check."""
        p = write(tmp_path / "c.cfg", f"dt_minutes = 15\nic_max_a = {value}\n")
        with pytest.raises(MalformedRowError, match="c.cfg:2: .*not a finite number"):
            load_config(p)

    def test_fade_overrides(self, tmp_path):
        p = write(tmp_path / "c.cfg",
                  "fade_k1 = 2e-4\n"
                  "fade_branch_lo = 1e-6,-1e-5,1e-6,6e-7,-2e-10\n")
        params = load_config(p).fade_params()
        assert params.k1 == 2e-4
        assert params.branch_lo.p00 == 1e-6
        assert params.branch_hi.p00 == 4.169e-6  # untouched default

    @pytest.mark.parametrize("key", ["fade_branch_hi", "fade_branch_lo"])
    @pytest.mark.parametrize("value, message", [
        ("nan,0,0,0,0", "not a finite number"),
        ("1e-6,inf,0,0,0", "not a finite number"),
        ("1e-6,-1e-5,1e-6", "needs 5 comma-separated coefficients"),
        ("1e-6,-1e-5,high,6e-7,-2e-10", "bad number"),
    ])
    def test_bad_branch_tuple_rejected(self, tmp_path, key, value, message):
        """Branch tuples are checked when the file is read, with its line."""
        p = write(tmp_path / "c.cfg", f"fade_k1 = 2e-4\n{key} = {value}\n")
        with pytest.raises(MalformedRowError, match=f"c.cfg:2: .*{message}"):
            load_config(p)

    def test_weights(self, tmp_path):
        p = write(tmp_path / "c.cfg", "alpha_cost = 0.6\nalpha_availability = 0.1\n")
        assert load_config(p).weights == (0.6, 1.0, 0.1)

    def test_invalid_physical_value(self, tmp_path):
        p = write(tmp_path / "c.cfg", "voltage_v = -5\n")
        with pytest.raises(ValueError, match="voltage"):
            load_config(p).sim_config(Policy("baseline"))

    @pytest.mark.parametrize("text, message", [
        ("alpha_cost = -1\n", "nonnegative"),
        ("alpha_cost = 0\nalpha_fade = 0\nalpha_availability = 0\n", "not all zero"),
        ("i_max_a = 500\nic_max_a = 400\n", "i_max"),
        ("default_soc_start = 1.5\n", "default_soc_start"),
        ("default_soc_start = -0.01\n", "default_soc_start"),
    ])
    def test_bad_configuration_rejected_before_the_first_event(self, tmp_path, text, message):
        """A run's configuration and policy are checked when built, as every
        caller builds them right after loading the file."""
        cfg = load_config(write(tmp_path / "c.cfg", text))
        with pytest.raises(ValueError, match=message):
            cfg.sim_config(Policy("proposed", weights=cfg.weights))
