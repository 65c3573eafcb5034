"""Byte-identity check of fleetcharge's reports on the bundled fixtures.

Runs week ``compare``, overnight ``sweep`` and overnight ``simulate --policy
proposed`` from this checkout's ``src/`` into one directory each, then prints
a sha256 per report file.  ``--out`` must be new or empty, so every digest
comes from this run.  ``timing*.json`` holds wall times and is left out.
With ``--against DIR`` (the output directory of an earlier run, for example
one made from another commit) it lists the files that differ or exist on
one side only, and exits 1 if there are any.

    python scripts/parity.py --out /tmp/parity-new
    python scripts/parity.py --out /tmp/parity-new --against /tmp/parity-old

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

RUNS = {
    "week-compare": ["compare", "week"],
    "overnight-sweep": ["sweep", "overnight"],
    "overnight-proposed": ["simulate", "overnight", "--policy", "proposed"],
}


def _run(name: str, out: Path) -> None:
    command, week, *extra = RUNS[name]
    argv = [
        sys.executable, "-m", "fleetcharge.cli", command,
        "--sessions", str(FIXTURES / f"sessions_{week}.csv"),
        "--prices", str(FIXTURES / f"prices_{week}.csv"),
        "--config", str(FIXTURES / f"config_{week}.cfg"),
        "--out", str(out / name), *extra,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run(argv, check=True, env=env, stdout=subprocess.DEVNULL)


def digests(out: Path) -> dict:
    """sha256 of every report under ``out``, keyed by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.startswith("timing")
    }


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
    mine = digests(out)
    for rel, digest in mine.items():
        print(f"{digest}  {rel}")
    if args.against is None:
        return 0
    theirs = digests(Path(args.against))
    differ = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
    for rel in differ:
        print(f"differs: {rel}")
    print(f"{len(differ)} of {len(mine.keys() | theirs.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
