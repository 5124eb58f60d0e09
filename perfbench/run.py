"""Benchmark of kisim: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

It imports kisim from ./src, times the real `kisim` commands through
kisim.cli.main, checks their outputs, and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, in host time calibrated for host speed
(see calibration.py); with --trace 1 the per-layer ones. The line before it is
a report with raw times, determinism digests, machine facts and span counts.
Run outputs and the digest store live in ./.perfbench.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import kisim.cli
    except ImportError as exc:
        print(f"perfbench: cannot import kisim from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(kisim.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported kisim from {kisim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2

    result, report = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        src=SRC, work_dir=ROOT / ".perfbench", import_s=import_s)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
