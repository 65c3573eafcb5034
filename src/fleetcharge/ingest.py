"""Parsing of session logs, price series and run configuration.

Sessions are CSV rows ``session_id,connection_time,disconnect_time,
kwh_requested,space_id`` with ISO-8601 UTC timestamps; each row becomes one
arrival and one departure event.  The required departure SoC is derived
from the requested energy and the pack size, with the arrival SoC
defaulting to the fleet's lower operating threshold.

Prices are CSV rows ``timestamp,price_usd_per_kwh`` interpreted as a
piecewise-constant curve: the price in force at a slot start applies to the
slot; the final price extends past the series and the first price extends
backward.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .fade import BranchCoefficients, FadeModelParams
from .problem import ChargingTask
from .scheduler import Policy
from .simulator import Event, SimConfig, event_sort_key

__all__ = [
    "SessionRecord",
    "PriceRecord",
    "PriceCurve",
    "RunConfig",
    "MalformedRowError",
    "parse_sessions",
    "sessions_to_events",
    "parse_prices",
    "load_config",
    "events_digest",
]

SESSION_HEADER = ["session_id", "connection_time", "disconnect_time",
                  "kwh_requested", "space_id"]
PRICE_HEADER = ["timestamp", "price_usd_per_kwh"]


class MalformedRowError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: malformed-row: {message}")
        self.line_no = line_no


def _parse_ts(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class SessionRecord:
    session_id: str
    connection_time: datetime
    disconnect_time: datetime
    kwh_requested: float
    space_id: str

    def __post_init__(self):
        if self.connection_time >= self.disconnect_time:
            raise ValueError(
                f"session {self.session_id}: connection not before disconnect"
            )
        if not math.isfinite(self.kwh_requested):
            raise ValueError(f"session {self.session_id}: energy request is not finite")
        if self.kwh_requested < 0:
            raise ValueError(f"session {self.session_id}: negative energy request")


def _read_csv(path: Path, header: list, parse) -> list | None:
    """``parse(row)`` of each data row of a CSV file in file order, or None
    when the file is empty.

    The first line must be ``header``; blank rows are skipped.  A wrong
    header, a wrong column count or a ``ValueError``/``OverflowError`` from
    ``parse`` raises :class:`MalformedRowError` naming the line.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            return None
        if [h.strip() for h in first] != header:
            raise MalformedRowError(path, 1, f"expected header {','.join(header)}")
        out = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise MalformedRowError(path, line_no, f"{len(row)} columns")
            try:
                out.append(parse(row))
            except (ValueError, OverflowError) as exc:
                raise MalformedRowError(path, line_no, str(exc)) from exc
    return out


def _session_record(row: list) -> SessionRecord:
    return SessionRecord(
        session_id=row[0].strip(),
        connection_time=_parse_ts(row[1]),
        disconnect_time=_parse_ts(row[2]),
        kwh_requested=float(row[3]),
        space_id=row[4].strip(),
    )


def parse_sessions(path) -> list:
    """Session records from a CSV file, sorted by connection time; an empty
    file holds none.  A session id repeated on a later row raises
    :class:`MalformedRowError` naming that row, as the replay keys vehicles
    by session id."""
    seen = set()

    def record(row):
        rec = _session_record(row)
        if rec.session_id in seen:
            raise ValueError(f"session {rec.session_id}: id repeats an earlier row")
        seen.add(rec.session_id)
        return rec

    records = _read_csv(Path(path), SESSION_HEADER, record) or []
    records.sort(key=lambda r: (r.connection_time, r.session_id))
    return records


def sessions_to_events(records: list, config: SimConfig):
    """(events, epoch): one arrival and one departure per session.

    Times are hours since the epoch (the earliest connection).  The
    departure SoC converts the requested energy through the pack size and
    is capped at full charge; the arrival SoC is the configured default.
    """
    if not records:
        return [], None
    epoch = min(r.connection_time for r in records)
    pack_kwh = config.voltage * config.c_bat / 1000.0
    events = []
    for r in records:
        t_arr = (r.connection_time - epoch).total_seconds() / 3600.0
        t_dep = (r.disconnect_time - epoch).total_seconds() / 3600.0
        soc_start = config.default_soc_start
        soc_dep = min(1.0, soc_start + r.kwh_requested / pack_kwh)
        task = ChargingTask(
            vehicle_id=r.session_id,
            t_arr=t_arr,
            t_dep=t_dep,
            soc_start=soc_start,
            soc_dep=soc_dep,
        )
        events.append(Event(time_h=t_arr, kind="arrival", task=task))
        events.append(Event(time_h=t_dep, kind="departure", vehicle_id=r.session_id))
    events.sort(key=event_sort_key)
    return events, epoch


def events_digest(events: list) -> str:
    """Stable digest of an event list, for input-identity assertions."""
    buf = io.StringIO()
    for e in events:
        if e.kind == "arrival":
            t = e.task
            buf.write(f"A,{t.vehicle_id},{t.t_arr!r},{t.t_dep!r},"
                      f"{t.soc_start!r},{t.soc_dep!r}\n")
        else:
            buf.write(f"D,{e.vehicle_id},{e.time_h!r}\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@dataclass(frozen=True)
class PriceRecord:
    timestamp: datetime
    price: float  # $/kWh


@dataclass(frozen=True)
class PriceCurve:
    """Piecewise-constant price curve over absolute time."""

    records: tuple

    def __post_init__(self):
        if not self.records:
            raise ValueError("empty-series: no price records")
        times = [r.timestamp for r in self.records]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("price records must be strictly time-ordered")

    def as_fn(self, epoch: datetime):
        """Price lookup keyed by hours since ``epoch``, sampled at slot starts.

        The returned function maps an array of instants to an array of
        prices.  The price in force at an instant is the latest record at or
        before it; the first record extends backward.  An instant is the
        time ``timedelta(hours=t_h)`` gives, rounded to the microsecond.
        Each record's first instant, the smallest float hour count that
        ``timedelta`` rounds to at least the record's offset from ``epoch``,
        is found once, here, so a lookup is one search over those floats.
        """
        firsts = np.array([_first_instant_h(r.timestamp - epoch) for r in self.records])
        prices = np.array([r.price for r in self.records])

        def fn(t_h):
            t_h = np.asarray(t_h, dtype=float)
            if not (np.abs(t_h) < 2.0**31).all():
                raise ValueError("instants must be finite hours within +-2**31")
            idx = firsts.searchsorted(t_h, side="right") - 1
            return prices[np.maximum(idx, 0)]

        return fn


def _first_instant_h(offset: timedelta) -> float:
    """The smallest float ``t`` with ``timedelta(hours=t) >= offset``.

    ``timedelta`` rounds hours to the microsecond, monotonically, so the
    answer lies a few ulps from ``(offset_us - 0.5) / 3.6e9``; it is found by
    stepping from there and asking ``timedelta`` itself.
    """
    t = (offset // timedelta(microseconds=1) - 0.5) / 3.6e9
    while timedelta(hours=t) >= offset:
        t = math.nextafter(t, -math.inf)
    while timedelta(hours=t) < offset:
        t = math.nextafter(t, math.inf)
    return t


def _price_record(row: list) -> PriceRecord:
    price = float(row[1])
    if not math.isfinite(price):
        raise ValueError("price is not finite")
    if price < 0:
        raise ValueError("negative price")
    return PriceRecord(timestamp=_parse_ts(row[0]), price=price)


def parse_prices(path) -> PriceCurve:
    """Price curve from a CSV file; tolerant of unordered rows.  An empty
    file lacks the header."""
    path = Path(path)
    records = _read_csv(path, PRICE_HEADER, _price_record)
    if records is None:
        raise MalformedRowError(path, 1, f"expected header {','.join(PRICE_HEADER)}")
    if not records:
        raise ValueError(f"empty-series: {path} has no price rows")
    records.sort(key=lambda r: r.timestamp)
    return PriceCurve(records=tuple(records))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "dt_minutes": 30.0,
    "voltage_v": 410.0,
    "c_bat_ah": 210.0,
    "i_max_a": 80.0,
    "ic_max_a": 400.0,
    "soc_xtra_fraction": 0.10,
    "battery_cost_usd": 11610.0,
    "peak_threshold": 0.75,
    "default_soc_start": 0.4,
    "alpha_cost": 1.0,
    "alpha_fade": 1.0,
    "alpha_availability": 1.0,
    # exact cyclic fade model overrides
    "fade_k1": None,
    "fade_k2": None,
    "fade_k3": None,
    "fade_k4": None,
    "fade_p1": None,
    "fade_p2": None,
    "fade_branch_slope": None,
    "fade_branch_hi": None,  # comma tuple p00,p10,p01,p11,p02
    "fade_branch_lo": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed flat key-value configuration of a run; its values are checked
    by the types built from it (:class:`SimConfig`, :class:`Policy`)."""

    values: dict

    @property
    def weights(self) -> tuple:
        v = self.values
        return (v["alpha_cost"], v["alpha_fade"], v["alpha_availability"])

    def fade_params(self) -> FadeModelParams:
        mapping = {
            "fade_k1": "k1", "fade_k2": "k2", "fade_k3": "k3", "fade_k4": "k4",
            "fade_p1": "p1", "fade_p2": "p2", "fade_branch_slope": "branch_slope",
            "fade_branch_hi": "branch_hi", "fade_branch_lo": "branch_lo",
        }
        return FadeModelParams(**{attr: self.values[key] for key, attr in mapping.items()
                                  if self.values[key] is not None})

    def sim_config(self, policy: Policy) -> SimConfig:
        v = self.values
        return SimConfig(
            dt=v["dt_minutes"] / 60.0,
            voltage=v["voltage_v"],
            c_bat=v["c_bat_ah"],
            i_max=v["i_max_a"],
            ic_max=v["ic_max_a"],
            soc_xtra_ah=v["soc_xtra_fraction"] * v["c_bat_ah"],
            battery_cost_usd=v["battery_cost_usd"],
            peak_threshold=v["peak_threshold"],
            default_soc_start=v["default_soc_start"],
            policy=policy,
            fade_params=self.fade_params(),
        )


def load_config(path=None) -> RunConfig:
    """Configuration from an optional ``key = value`` file over the defaults.

    Only the syntax is checked, naming the file and line: unknown keys are
    rejected; values are finite floats except the branch coefficient tuples,
    which are five finite floats separated by commas.  Lines starting with
    ``#`` are comments.  The values are checked when the run's
    :class:`SimConfig` and :class:`Policy` are built from them.
    """
    values = dict(_CONFIG_DEFAULTS)
    if path is not None:
        path = Path(path)
        for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedRowError(path, line_no, "expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in values:
                raise MalformedRowError(path, line_no, f"unknown key {key!r}")
            branch = key in ("fade_branch_hi", "fade_branch_lo")
            try:
                numbers = [float(x) for x in val.split(",")] if branch else [float(val)]
            except ValueError as exc:
                raise MalformedRowError(path, line_no, f"bad number {val!r}") from exc
            if not all(math.isfinite(x) for x in numbers):
                raise MalformedRowError(path, line_no, f"not a finite number {val!r}")
            if not branch:
                values[key] = numbers[0]
            elif len(numbers) == 5:
                values[key] = BranchCoefficients(*numbers)
            else:
                raise MalformedRowError(path, line_no,
                                        f"{key} needs 5 comma-separated coefficients")
    return RunConfig(values=values)
