"""Byte-identity check of fleetcharge's reports and solves.

Runs week ``compare``, overnight ``sweep``, overnight ``simulate --policy
proposed``, ``simulate --policy proposed`` on a dense depot day (perfbench's
generated 40-space log, seed 90210, one day, on a 400 A feeder, so the station
cap binds), ``simulate --policy proposed`` on the week with every vehicle
arriving at SoC 0.1 (low enough for the fade model's HI branch to be selected)
and ``simulate --policy baseline`` on a depot week (the same generator and
seed, seven days, its 1200 A config unchanged: the only run whose max-power
plans hold many vehicles and bind the cap; it makes no solves) from this
checkout's ``src/`` into one directory each.  Rewritten configs are
written under ``--out``; ``fixtures/`` is left as it is.  It prints a
sha256 per report file and, per run, the number of ``solve`` calls.  Each
call's outcome, which the reports alone do not show, is kept in
``<run>.solves``, one line per call in call order: a sha256 of the
allocation bytes, ``repr(objective)``, iterations and status.  ``--out``
must be new or empty, so every digest comes from this run.
``timing*.json`` holds wall times and is left out.  With ``--against DIR``
(the output directory of an earlier run, for example one made from another
commit) it lists the files that differ or exist on one side only, with, for
a file on both sides, how many of its values differ (JSON values, CSV
cells, words of other files) and the largest relative difference among
them, so an ulp-level change reads as one; it prints per run how many
solves differ and the largest relative objective gap among them, and exits
1 if anything differs.

With ``--objective`` every ``solve`` call's instance, objective weights,
payoff points and result are also pickled to ``<run>.pkl``.  Together with
``--against``, this checkout then re-solves each of the other run's
instances under its recorded weights, scores both plans
under shared payoff points (per component the lower utopia and the higher
nadir of the two sides) and prints per run the summed objective, how many
re-solves are better, worse or equal (within a relative 1e-12), the worst
regression, how many re-solved plans differ from the frozen ones and the
largest absolute current difference among them (so an ulp-level change
reads as one) and audit failures; a worse re-solve or a failed audit also
exits 1.  This judges a change meant to move plans, where byte identity
cannot.  It prints no solve times: the two sides ran in different
processes, so their times cannot judge speed.  The pickles are loaded, so
pass ``--against`` only a directory this script wrote.  ``--objective``
directories made before ``solve`` took the weights as an argument (when the
instance held them) hold four-field records and must be made again.

    python scripts/parity.py --out /tmp/parity-new
    python scripts/parity.py --out /tmp/parity-new --against /tmp/parity-old
    python scripts/parity.py --objective --out /tmp/obj-new --against /tmp/obj-old

Standard library plus, for ``--objective``, the package; the dense day's
inputs come from perfbench's generator.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DENSE = "dense-day"   # inputs written under --out by perfbench's generator
DEPOT = "depot-week"  # likewise, seven days, config as generated
DEPOT_DAYS = {DENSE: 1, DEPOT: 7}
LOWSOC = "week-lowsoc"  # week inputs copied under --out, config rewritten

RUNS = {
    "week-compare": ["compare", "week"],
    "overnight-sweep": ["sweep", "overnight"],
    "overnight-proposed": ["simulate", "overnight", "--policy", "proposed"],
    "dense-day-proposed": ["simulate", DENSE, "--policy", "proposed"],
    "week-lowsoc-proposed": ["simulate", LOWSOC, "--policy", "proposed"],
    "depot-baseline": ["simulate", DEPOT, "--policy", "baseline"],
}

# Runs the CLI with the scheduler's ``solve`` wrapped, and writes one line
# "<sha256 of the allocation> <objective> <iterations> <status>" per call to
# the file in argv[1].  Unless argv[2] is empty, it also pickles one
# (instance, weights, payoff points, allocation, report) tuple per call to
# that file; the points are the report's, None where ``solve`` computed none.
_HASHED_CLI = """
import hashlib, pickle, sys
import fleetcharge.cli as cli
import fleetcharge.scheduler as scheduler

lines, records, inner = [], [], scheduler.solve

def hashed(inst, weights):
    alloc, rep = inner(inst, weights)
    data = b"none" if alloc is None else repr(alloc.shape).encode() + alloc.tobytes()
    lines.append(f"{hashlib.sha256(data).hexdigest()} {float(rep.objective)!r} "
                 f"{int(rep.iterations)} {rep.status}\\n")
    records.append((inst, weights, rep.points, alloc, rep))
    return alloc, rep

scheduler.solve = hashed
code = cli.main(sys.argv[3:])
with open(sys.argv[1], "w") as fh:
    fh.writelines(lines)
if sys.argv[2]:
    with open(sys.argv[2], "wb") as fh:
        pickle.dump(records, fh)
sys.exit(code)
"""

_DEPOT_INPUTS = """
import sys
from pathlib import Path
from perfbench.workloads import write_depot_inputs

write_depot_inputs(Path(sys.argv[1]), seed=90210, spaces=40, days=int(sys.argv[2]))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def _set_key(config: Path, key: str, value: str) -> None:
    """Rewrite the ``key = ...`` line of a config file in place."""
    lines = config.read_text().splitlines(keepends=True)
    config.write_text("".join(f"{key} = {value}\n" if line.startswith(key) else line
                              for line in lines))


def _inputs(week: str, out: Path) -> dict:
    folder, stem = FIXTURES, week
    if week in DEPOT_DAYS:
        folder, stem = out / week, "depot"
        if not folder.exists():
            subprocess.run([sys.executable, "-c", _DEPOT_INPUTS, str(folder),
                            str(DEPOT_DAYS[week])], check=True, env=_env())
            if week == DENSE:
                _set_key(folder / "config_depot.cfg", "ic_max_a", "400")
    elif week == LOWSOC:
        folder, stem = out / LOWSOC, "week"
        if not folder.exists():
            shutil.copytree(FIXTURES, folder)
            _set_key(folder / "config_week.cfg", "default_soc_start", "0.1")
    return {k: folder / f"{k}_{stem}.{ext}"
            for k, ext in (("sessions", "csv"), ("prices", "csv"), ("config", "cfg"))}


def _run(name: str, out: Path, objective: bool) -> None:
    command, week, *extra = RUNS[name]
    inputs = _inputs(week, out)
    argv = [
        sys.executable, "-c", _HASHED_CLI, str(out / f"{name}.solves"),
        str(out / f"{name}.pkl") if objective else "", command,
        "--sessions", str(inputs["sessions"]),
        "--prices", str(inputs["prices"]),
        "--config", str(inputs["config"]),
        "--out", str(out / name), *extra,
    ]
    subprocess.run(argv, check=True, env=_env(), stdout=subprocess.DEVNULL)


def digests(out: Path) -> dict:
    """sha256 of every report of every run under ``out``, keyed by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for name in RUNS
        for path in sorted((out / name).rglob("*"))
        if path.is_file() and not path.name.startswith("timing")
    }


def solve_lines(out: Path) -> dict:
    """Per run, the ``solve`` calls' lines in call order, keyed by run name."""
    found = {name: out / f"{name}.solves" for name in RUNS}
    return {name: path.read_text().splitlines() for name, path in found.items()
            if path.exists()}


def _differ(mine: dict, theirs: dict) -> list:
    return sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))


def _relative(a, b) -> float:
    """Relative difference of two values read as numbers: 0.0 when equal
    (infinities too), inf when either is not a number or the difference is
    not finite."""
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if fa == fb:
        return 0.0
    return abs(fa - fb) / max(abs(fa), abs(fb)) if math.isfinite(fa - fb) else math.inf


def _values(path: Path) -> dict:
    """A report's values keyed by position: a JSON file's leaves by key path,
    a CSV file's cells by (row, column), another file's whitespace-separated
    words by (line, word)."""
    text = path.read_text()
    if path.suffix == ".json":
        out = {}

        def walk(node, key):
            if isinstance(node, (dict, list)):
                for k, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                    walk(child, key + (k,))
            else:
                out[key] = node

        walk(json.loads(text), ())
        return out
    rows = (csv.reader(io.StringIO(text)) if path.suffix == ".csv"
            else (line.split() for line in text.splitlines()))
    return {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)}


def _value_gap(mine: dict, theirs: dict) -> tuple:
    """(values that differ, largest relative difference among them) of two
    files' :func:`_values`; a value on one side only, or one that is not a
    number, differs with an infinite gap."""
    differ, gap = 0, 0.0
    for key in mine.keys() | theirs.keys():
        a, b = mine.get(key), theirs.get(key)
        if a != b:
            differ += 1
            gap = max(gap, _relative(a, b))
    return differ, gap


def _solve_gap(mine: list, theirs: list) -> tuple:
    """(solves that differ, largest relative objective gap among them).

    Solves are paired in call order; a solve present on one side only counts
    as differing, with an infinite gap.
    """
    differ = abs(len(mine) - len(theirs))
    gap = math.inf if differ else 0.0
    for a, b in zip(mine, theirs):
        if a == b:
            continue
        differ += 1
        gap = max(gap, _relative(a.split()[1], b.split()[1]))
    return differ, gap


def _plan_gap(theirs, mine) -> float:
    """Largest absolute current difference of two plans, in A: 0.0 when they
    are equal, inf when one side has no plan or the shapes differ."""
    if theirs is None or mine is None:
        return 0.0 if theirs is mine else math.inf
    if theirs.shape != mine.shape:
        return math.inf
    return float(abs(mine - theirs).max(initial=0.0))


def _resolve_all(records: list) -> list:
    """This checkout's (points, allocation, report) for each record's instance
    and weights."""
    from fleetcharge.solver import solve

    out = []
    for inst, weights, *_ in records:
        alloc, rep = solve(inst, weights)
        out.append((rep.points, alloc, rep))
    return out


def _score(inst, weights, points, alloc) -> float:
    """Normalized objective of ``alloc`` under ``weights`` and ``points``; inf
    for no plan."""
    from fleetcharge.problem import normalized_objective, objective_components

    if alloc is None:
        return math.inf
    if alloc.size == 0:
        return 0.0
    return float(normalized_objective(objective_components(alloc, inst), points, weights))


def _shared(a, b):
    """Per component the lower utopia and the higher nadir of two points."""
    from fleetcharge.problem import COMPONENTS, NormalizationPoints

    if a is None or b is None:
        return a or b
    return NormalizationPoints(utopia={k: min(a.utopia[k], b.utopia[k]) for k in COMPONENTS},
                               nadir={k: max(a.nadir[k], b.nadir[k]) for k in COMPONENTS})


def compare_objectives(name: str, records: list) -> bool:
    """Re-solve one run's pickled ``solve`` calls with this checkout and print
    their comparison; True unless a re-solve is worse or a plan fails the
    audit."""
    from fleetcharge.problem import build_constraints

    def audit_fails(inst, alloc):
        return alloc is not None and bool(build_constraints(inst).audit(alloc, 1e-6))

    resolved = _resolve_all(records)
    better = worse = equal = audits_theirs = audits_mine = moved = 0
    total_theirs = total_mine = largest = 0.0
    worst = None  # (rise, relative rise, solve number)
    for k, ((inst, weights, their_pts, their_x, _), (my_pts, my_x, _)) in enumerate(
            zip(records, resolved), start=1):
        points = _shared(their_pts, my_pts)
        theirs = _score(inst, weights, points, their_x)
        mine = _score(inst, weights, points, my_x)
        if math.isfinite(theirs) and math.isfinite(mine):
            total_theirs += theirs
            total_mine += mine
        if mine == theirs or abs(mine - theirs) <= 1e-12 * max(1.0, abs(theirs)):
            equal += 1
        elif mine < theirs:
            better += 1
        else:
            worse += 1
            rise = mine - theirs
            if worst is None or rise > worst[0]:
                worst = (rise, rise / max(abs(theirs), 1e-300), k)
        gap = _plan_gap(their_x, my_x)
        if gap:
            moved += 1
            largest = max(largest, gap)
        audits_theirs += audit_fails(inst, their_x)
        audits_mine += audit_fails(inst, my_x)
    change = 100.0 * (total_mine - total_theirs) / max(abs(total_theirs), 1e-300)
    worst_text = ("none" if worst is None
                  else f"+{worst[0]:.6g} ({100.0 * worst[1]:+.4g}%) at solve {worst[2]}")
    print(f"objective {name}: {len(records)} solves; summed {total_theirs:.9g} -> "
          f"{total_mine:.9g} ({change:+.4f}%); better {better}, worse {worse}, equal {equal}; "
          f"worst regression {worst_text}; plans differ {moved}, largest current "
          f"difference {largest:.3g} A; audit failures {audits_theirs} -> {audits_mine}")
    return worse == 0 and audits_mine == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the reports")
    parser.add_argument("--against", default=None,
                        help="output directory of an earlier run to compare with")
    parser.add_argument("--objective", action="store_true",
                        help="pickle every solve call; with --against, re-solve the other "
                             "run's instances and compare objectives under shared points")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        parser.error(f"--out {out} is not empty")
    frozen = {}
    if args.objective and args.against is not None:
        frozen = {name: Path(args.against) / f"{name}.pkl" for name in RUNS}
        missing = [str(path) for path in frozen.values() if not path.exists()]
        if missing:
            parser.error(f"no pickled solves (run it with --objective): {', '.join(missing)}")
    for name in RUNS:
        _run(name, out, args.objective)
    mine, my_solves = digests(out), solve_lines(out)
    for rel, digest in mine.items():
        print(f"{digest}  {rel}")
    for name, lines in my_solves.items():
        print(f"solves {len(lines)}  {name}")
    if args.against is None:
        return 0
    against = Path(args.against)
    theirs, their_solves = digests(against), solve_lines(against)
    differ = _differ(mine, theirs)
    for rel in differ:
        detail = ""
        if rel in mine and rel in theirs:
            n, gap = _value_gap(_values(out / rel), _values(against / rel))
            detail = f": {n} values differ, largest relative difference {gap:.3g}"
        print(f"differs: {rel}{detail}")
    solves_differ = 0
    for name in sorted(my_solves.keys() | their_solves.keys()):
        n, gap = _solve_gap(my_solves.get(name, []), their_solves.get(name, []))
        if n:
            solves_differ += n
            print(f"solves differ: {name}: {n} of {len(my_solves.get(name, []))}, "
                  f"largest relative objective gap {gap:.3g}")
    print(f"{len(differ)} of {len(mine.keys() | theirs.keys())} files differ; "
          f"{solves_differ} solves differ")
    no_worse = True
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, to unpickle and re-solve
    for name, path in frozen.items():
        with open(path, "rb") as fh:
            no_worse &= compare_objectives(name, pickle.load(fh))
    return 1 if differ or solves_differ or not no_worse else 0


if __name__ == "__main__":
    sys.exit(main())
