"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpch-olap --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics and writes a Chrome trace of the wrapped
pass under ``perfbench/out/``. Progress lines go to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The program under test is imported from the checkout's
own ``src/``; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tpch-olap", "oltp-mixed", "fabric-trace")


def _use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path[:0] = [str(src), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data and deck sizes (tests use a small scale)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    _use_checkout_source()
    from perfbench.harness import run

    def log(line: str) -> None:
        print(f"perfbench {args.workload}: {line}", flush=True)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 scale=args.scale, log=log)
    for name, m in result["metrics"].items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
