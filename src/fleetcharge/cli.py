"""Command-line driver: simulate, compare, sweep and validate-fade.

All report files are deterministic for identical inputs; measured
optimization wall time goes to a separate timing sidecar so that repeated
runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .fade import fade_fit_report
from .ingest import (
    RunConfig,
    events_digest,
    load_config,
    parse_prices,
    parse_sessions,
    sessions_to_events,
)
from .scheduler import ZERO_PRICES, Policy
from .simulator import RunResult, run

METRIC_ROWS = [
    ("total_charging_cost_usd", "Total charging cost ($)"),
    ("total_fade_exact_ah", "Total capacity fade, exact (Ah)"),
    ("total_fade_approx_ah", "Total capacity fade, approx (Ah)"),
    ("total_value_loss_usd", "Amortized battery value loss ($)"),
    ("total_peak_power_period_h", "Total peak power period (h)"),
    ("total_charging_time_h", "Total charging time (h)"),
    ("n_rejected", "Rejected tasks"),
]


def _parse_weights(raw: str) -> tuple:
    parts = [p for p in raw.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError(f"weights must be three comma-separated numbers, got {raw!r}")
    return tuple(float(p) for p in parts)


def _load_inputs(args, cfg: RunConfig, policy: Policy):
    sessions_path = Path(args.sessions)
    if not sessions_path.exists():
        raise FileNotFoundError(f"session file not found: {sessions_path}")
    prices_path = Path(args.prices)
    if not prices_path.exists():
        raise FileNotFoundError(f"price-gap: price file not found: {prices_path}")
    sim_config = cfg.sim_config(policy)
    records = parse_sessions(sessions_path)
    events, epoch = sessions_to_events(records, sim_config)
    curve = parse_prices(prices_path)
    prices_fn = curve.as_fn(epoch) if epoch is not None else ZERO_PRICES
    return events, prices_fn, sim_config


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _metrics_text(metrics_dict: dict) -> str:
    width = max(len(label) for _, label in METRIC_ROWS)
    lines = [f"{label:<{width}}  {metrics_dict[key]:>14.6f}"
             if isinstance(metrics_dict[key], float)
             else f"{label:<{width}}  {metrics_dict[key]:>14d}"
             for key, label in METRIC_ROWS]
    return "\n".join(lines) + "\n"


def _write_ledger(path: Path, result: RunResult):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "time", "vehicle_id", "current_a", "power_kw", "price",
            "cost_usd", "soc", "fade_exact_ah", "fade_approx_ah",
        ])
        for e in result.ledger:
            writer.writerow([
                f"{e.time_h:.6f}", e.vehicle_id, f"{e.current_a:.6f}",
                f"{e.power_kw:.6f}", f"{e.price_usd_per_kwh:.6f}",
                f"{e.cost_usd:.8f}", f"{e.soc:.8f}",
                f"{e.fade_exact_ah:.10e}", f"{e.fade_approx_ah:.10e}",
            ])


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    weights = _parse_weights(args.weights) if args.weights else cfg.weights
    policy = Policy(args.policy, weights=weights)
    events, prices_fn, sim_config = _load_inputs(args, cfg, policy)
    result = run(events, prices_fn, sim_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = policy.kind
    _write_json(out / f"metrics_{name}.json", result.metrics.as_dict())
    (out / f"metrics_{name}.txt").write_text(_metrics_text(result.metrics.as_dict()))
    _write_ledger(out / f"ledger_{name}.csv", result)
    _write_json(out / f"timing_{name}.json",
                {"max_opt_time_ms": result.metrics.max_opt_time_ms})
    print(_metrics_text(result.metrics.as_dict()), end="")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    weights = _parse_weights(args.weights) if args.weights else cfg.weights
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    digests = {}
    for kind in ("baseline", "proposed"):
        policy = Policy(kind, weights=weights)
        events, prices_fn, sim_config = _load_inputs(args, cfg, policy)
        digests[kind] = events_digest(events)
        results[kind] = run(events, prices_fn, sim_config)
    if digests["baseline"] != digests["proposed"]:
        raise RuntimeError("policies saw different event lists; inputs not identical")

    base = results["baseline"].metrics.as_dict()
    prop = results["proposed"].metrics.as_dict()
    lines = [f"{'metric':<38} {'baseline':>14} {'proposed':>14} {'delta %':>10}"]
    deltas = {}
    for key, label in METRIC_ROWS:
        b, p = base[key], prop[key]
        # A zero baseline has no percentage change: null in JSON, n/a in text.
        delta = (p - b) / b * 100.0 if b != 0 else None
        deltas[key] = delta
        shown = f"{delta:>9.1f}%" if delta is not None else f"{'n/a':>10}"
        lines.append(f"{label:<38} {b:>14.4f} {p:>14.4f} {shown}")
    report = "\n".join(lines) + "\n"

    for kind in ("baseline", "proposed"):
        _write_json(out / f"metrics_{kind}.json", results[kind].metrics.as_dict())
        _write_ledger(out / f"ledger_{kind}.csv", results[kind])
    (out / "compare_report.txt").write_text(report)
    _write_json(out / "compare_report.json", {
        "events_digest": digests["baseline"],
        "weights": list(weights),
        "baseline": base,
        "proposed": prop,
        "delta_percent": deltas,
    })
    _write_json(out / "timing.json", {
        k: {"max_opt_time_ms": results[k].metrics.max_opt_time_ms}
        for k in results
    })
    print(report, end="")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    triples = [_parse_weights(w) for w in (args.weights or [])]
    if not triples:
        triples = [(0.6, 0.3, 0.1), (0.3, 0.6, 0.1), (0.1, 0.3, 0.6)]
    policies = [Policy("proposed", weights=w) for w in triples]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # The events and prices do not depend on the weights: parse them once.
    events, prices_fn, _ = _load_inputs(args, cfg, Policy("proposed"))
    rows = []
    for policy in policies:
        result = run(events, prices_fn, cfg.sim_config(policy))
        rows.append((policy.weights, result.metrics.as_dict()))

    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha_cost", "alpha_fade", "alpha_availability"]
                        + [key for key, _ in METRIC_ROWS])
        for weights, metrics in rows:
            writer.writerow([f"{w:g}" for w in weights]
                            + [f"{metrics[key]:.8f}" for key, _ in METRIC_ROWS])
    lines = [f"{'weights':<18}" + "".join(f"{label:>34}" for _, label in METRIC_ROWS)]
    for weights, metrics in rows:
        w_str = "(" + ",".join(f"{w:g}" for w in weights) + ")"
        lines.append(f"{w_str:<18}"
                     + "".join(f"{metrics[key]:>34.4f}" for key, _ in METRIC_ROWS))
    (out / "sweep.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _fixed6(value: float | None) -> str:
    """Six decimals, or n/a for a statistic the report left undefined (null)."""
    return "n/a" if value is None else f"{value:.6f}"


def cmd_validate_fade(args) -> int:
    limits = load_config(args.config).sim_config(Policy("proposed"))
    report = fade_fit_report(
        limits.fade_params,
        n=args.grid_n,
        i_max=args.grid_imax if args.grid_imax is not None else limits.i_max,
        dt=limits.dt,
        c_bat=limits.c_bat,
    )
    text = (
        f"fade approximation fit over {report['grid_n']}x{report['grid_n']} grid "
        f"(I in (0, {report['i_max']:g}] A, dt={report['dt_hours']:g} h, "
        f"C={report['c_bat_ah']:g} Ah)\n"
        f"  high-current branch: R^2 = {_fixed6(report['hi']['r_squared'])} "
        f"over {report['hi']['n_points']} points\n"
        f"  low-current branch:  R^2 = {_fixed6(report['lo']['r_squared'])} "
        f"over {report['lo']['n_points']} points\n"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "fade_validation.json", report)
        (out / "fade_validation.txt").write_text(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetcharge",
        description="EV fleet charge scheduling: optimizer, simulator and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--sessions", required=True, help="session CSV file")
        p.add_argument("--prices", required=True, help="price CSV file")
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="run one policy and emit metrics")
    add_io(p_sim)
    p_sim.add_argument("--policy", choices=["baseline", "proposed"], required=True)
    p_sim.add_argument("--weights", default=None, help="A1,A2,A3")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="baseline vs proposed on the same inputs")
    add_io(p_cmp)
    p_cmp.add_argument("--weights", default=None, help="A1,A2,A3")
    p_cmp.set_defaults(func=cmd_compare)

    p_sw = sub.add_parser("sweep", help="proposed policy across weight triples")
    add_io(p_sw)
    p_sw.add_argument("--weights", action="append", default=None,
                      help="A1,A2,A3 (repeatable)")
    p_sw.set_defaults(func=cmd_sweep)

    p_vf = sub.add_parser("validate-fade",
                          help="grid-evaluate exact vs approximate fade")
    p_vf.add_argument("--config", default=None)
    p_vf.add_argument("--grid-n", type=int, default=100)
    p_vf.add_argument("--grid-imax", type=float, default=None)
    p_vf.add_argument("--out", default=None)
    p_vf.set_defaults(func=cmd_validate_fade)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001  (single CLI error surface)
        print(f"fleetcharge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
