"""Time one cold set-up: import fleetcharge, then ingest a workload's inputs.

    python3 perfbench/setup_probe.py <workload> '<inputs as JSON>'

Prints the elapsed seconds.  ``run.py`` starts this several times in fresh
processes and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fleetcharge  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    workload, raw = sys.argv[1], json.loads(sys.argv[2])
    inputs = {k: Path(v) if isinstance(v, str) else v for k, v in raw.items()}
    WORKLOADS[workload].ingest(inputs)
    print(f"{time.perf_counter() - T0:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
