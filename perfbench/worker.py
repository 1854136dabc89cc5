"""Socket worker entry point of the benchmark's fleet.

    python3 perfbench/worker.py --connect HOST:PORT --cache-dir DIR [--trace-dir DIR]

Runs ``repro.engine.service.run_worker`` against the coordinator.  With
``--trace-dir`` it first installs the same layer wrappers as the traced
client, and flushes its spans to that directory after every task.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.engine.service import run_worker  # noqa: E402

from spans import Recorder, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    if args.trace_dir:
        install(Recorder(Path(args.trace_dir)))
    run_worker(args.connect, cache_dir=args.cache_dir, connect_retry_for=30.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
