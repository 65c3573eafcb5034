"""Byte-identity check of fleetcharge's reports and solves.

Runs week ``compare``, overnight ``sweep``, overnight ``simulate --policy
proposed``, ``simulate --policy proposed`` on a dense depot day (perfbench's
generated 40-space log, seed 90210, one day, on a 400 A feeder, so the station
cap binds) and ``simulate --policy proposed`` on the week with every vehicle
arriving at SoC 0.1 (low enough for the fade model's HI branch to be selected)
from this checkout's ``src/`` into one directory each.  Rewritten configs are
written under ``--out``; ``fixtures/`` is left as it is.  It prints a
sha256 per report file and, per run, one sha256 over every ``solve`` call's
allocation bytes, ``repr(objective)``, iterations and status, which the
reports alone do not show.  ``--out`` must be new or empty, so every digest
comes from this run.  ``timing*.json`` holds wall times and is left out.
With ``--against DIR`` (the output directory of an earlier run, for example
one made from another commit) it lists the files and solve digests that
differ or exist on one side only, and exits 1 if there are any.

    python scripts/parity.py --out /tmp/parity-new
    python scripts/parity.py --out /tmp/parity-new --against /tmp/parity-old

Standard library only; the dense day's inputs come from perfbench's generator.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DENSE = "dense-day"   # inputs written under --out by perfbench's generator
LOWSOC = "week-lowsoc"  # week inputs copied under --out, config rewritten

RUNS = {
    "week-compare": ["compare", "week"],
    "overnight-sweep": ["sweep", "overnight"],
    "overnight-proposed": ["simulate", "overnight", "--policy", "proposed"],
    "dense-day-proposed": ["simulate", DENSE, "--policy", "proposed"],
    "week-lowsoc-proposed": ["simulate", LOWSOC, "--policy", "proposed"],
}

# Runs the CLI with the scheduler's ``solve`` wrapped, and writes
# "<sha256> <solves>" of every call's outcome to the file in argv[1].
_HASHED_CLI = """
import hashlib, sys
import fleetcharge.cli as cli
import fleetcharge.scheduler as scheduler

digest, solves, inner = hashlib.sha256(), [], scheduler.solve

def hashed(*args, **kwargs):
    alloc, rep = inner(*args, **kwargs)
    solves.append(1)
    digest.update(b"none" if alloc is None else repr(alloc.shape).encode() + alloc.tobytes())
    digest.update(f"|{float(rep.objective)!r}|{int(rep.iterations)}|{rep.status}|".encode())
    return alloc, rep

scheduler.solve = hashed
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(f"{digest.hexdigest()} {len(solves)}\\n")
sys.exit(code)
"""

_DENSE_INPUTS = """
import sys
from pathlib import Path
from perfbench.workloads import write_depot_inputs

write_depot_inputs(Path(sys.argv[1]), seed=90210, spaces=40, days=1)
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
    if week == DENSE:
        folder, stem = out / DENSE, "depot"
        if not folder.exists():
            subprocess.run([sys.executable, "-c", _DENSE_INPUTS, str(folder)],
                           check=True, env=_env())
            _set_key(folder / "config_depot.cfg", "ic_max_a", "400")
    elif week == LOWSOC:
        folder, stem = out / LOWSOC, "week"
        if not folder.exists():
            shutil.copytree(FIXTURES, folder)
            _set_key(folder / "config_week.cfg", "default_soc_start", "0.1")
    return {k: folder / f"{k}_{stem}.{ext}"
            for k, ext in (("sessions", "csv"), ("prices", "csv"), ("config", "cfg"))}


def _run(name: str, out: Path) -> None:
    command, week, *extra = RUNS[name]
    inputs = _inputs(week, out)
    argv = [
        sys.executable, "-c", _HASHED_CLI, str(out / f"{name}.solves"), command,
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


def solve_digests(out: Path) -> dict:
    """Per run, "<sha256> <solves>" over every ``solve`` call, keyed by run name."""
    found = {name: out / f"{name}.solves" for name in RUNS}
    return {name: path.read_text().strip() for name, path in found.items() if path.exists()}


def _differ(mine: dict, theirs: dict) -> list:
    return sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the reports")
    parser.add_argument("--against", default=None,
                        help="output directory of an earlier run to compare with")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        parser.error(f"--out {out} is not empty")
    for name in RUNS:
        _run(name, out)
    mine, my_solves = digests(out), solve_digests(out)
    for rel, digest in mine.items():
        print(f"{digest}  {rel}")
    for name, digest in my_solves.items():
        print(f"solves {digest}  {name}")
    if args.against is None:
        return 0
    against = Path(args.against)
    theirs = digests(against)
    differ = _differ(mine, theirs)
    solves_differ = _differ(my_solves, solve_digests(against))
    for rel in differ:
        print(f"differs: {rel}")
    for name in solves_differ:
        print(f"solves differ: {name}")
    print(f"{len(differ)} of {len(mine.keys() | theirs.keys())} files differ; "
          f"solve digests differ on {len(solves_differ)} of {len(RUNS)} runs")
    return 1 if differ or solves_differ else 0


if __name__ == "__main__":
    sys.exit(main())
