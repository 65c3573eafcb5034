"""Replay seeded random session logs and count the ones that break an invariant.

Each log is drawn like ``session_logs`` in ``tests/test_simulator.py``: 2-4
sessions arriving on the minute within the first six hours and staying 10
minutes to six hours, arrival SoC 0.1, 0.4 or 0.7 and a need of up to 0.6, on
30- or 60-minute slots, an 80, 120 or 400 A feeder and 0 or 21 Ah of
extra-charge headroom.  The station and prices are those of the test's
``config()`` and ``day_prices``, restated here.  The script prints how many
logs

* raise during the replay,
* have one vehicle's consecutive ledger rows overlap in float (a row's
  ``time_h + duration_h`` past the next row's ``time_h``),
* load the feeder above its limit by more than 1e-6 A at some row start,

and the first log of each kind, in the test's ``(specs, ic_max, dt, xtra)``
form, so it can be pasted into an ``@example``.

    PYTHONPATH=src python scripts/random_logs.py --policy proposed --n 300 --seed 1

Standard library plus the package; no hypothesis.
"""

from __future__ import annotations

import argparse
import random

from fleetcharge.problem import ChargingTask
from fleetcharge.scheduler import Policy
from fleetcharge.simulator import Event, SimConfig, run


def day_prices(t):
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


def draw_log(rng: random.Random) -> tuple:
    specs = []
    for k in range(rng.randint(2, 4)):
        arrive = rng.randint(0, 6 * 60) / 60.0
        stay = rng.randint(10, 6 * 60) / 60.0
        soc = rng.choice([0.1, 0.4, 0.7])
        need = rng.uniform(0.0, 0.6)
        specs.append((f"R{k}", arrive, arrive + stay, soc, min(1.0, soc + need)))
    return (specs, rng.choice([80.0, 120.0, 400.0]), rng.choice([0.5, 1.0]),
            rng.choice([0.0, 21.0]))


def replay(log: tuple, kind: str):
    specs, ic_max, dt, xtra = log
    cfg = SimConfig(dt=dt, voltage=410.0, c_bat=210.0, i_max=80.0, ic_max=ic_max,
                    soc_xtra_ah=xtra, policy=Policy(kind))
    events = []
    for vid, t0, t1, s0, s1 in specs:
        events.append(Event(time_h=t0, kind="arrival", task=ChargingTask(vid, t0, t1, s0, s1)))
        events.append(Event(time_h=t1, kind="departure", vehicle_id=vid))
    return run(events, lambda t_h: [day_prices(t) for t in t_h.tolist()], cfg)


def overlaps(ledger) -> bool:
    rows = {}
    for e in ledger:
        rows.setdefault(e.vehicle_id, []).append((e.time_h, e.time_h + e.duration_h))
    for spans in rows.values():
        spans.sort()
        if any(end > nxt for (_, end), (nxt, _) in zip(spans, spans[1:])):
            return True
    return False


def over_feeder(ledger, ic_max: float) -> bool:
    for t in {e.time_h for e in ledger}:
        load = sum(e.current_a for e in ledger if e.time_h <= t < e.time_h + e.duration_h)
        if load > ic_max + 1e-6:
            return True
    return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--policy", choices=("baseline", "proposed"), default="proposed")
    ap.add_argument("--n", type=int, default=300, help="number of logs")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    found = {"raise": [], "overlap": [], "over-feeder": []}
    for _ in range(args.n):
        log = draw_log(rng)
        try:
            res = replay(log, args.policy)
        except Exception as exc:  # counted and shown, never silent
            found["raise"].append((log, f"{type(exc).__name__}: {exc}"))
            continue
        if overlaps(res.ledger):
            found["overlap"].append((log, None))
        if over_feeder(res.ledger, log[1]):
            found["over-feeder"].append((log, None))

    print(f"{args.n} logs, policy {args.policy}, seed {args.seed}")
    for kind, hits in found.items():
        print(f"{kind:<12} {len(hits)}")
    for kind, hits in found.items():
        if hits:
            log, note = hits[0]
            print(f"first {kind}: {log!r}" + (f"  ({note})" if note else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
