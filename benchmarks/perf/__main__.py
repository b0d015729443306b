"""CLI entry point: ``PYTHONPATH=src python -m benchmarks.perf``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.perf import DEFAULT_OUTPUT, TARGETS, run_suite, write_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="Simulation fast-path benchmarks; writes BENCH_perf.json.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workloads (seconds, not minutes)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per benchmark; best is reported")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check-targets", action="store_true",
                        help="exit non-zero if an ISSUE target speedup is "
                             "missed (only meaningful at full scale on the "
                             "reference machine)")
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "full"
    payload = run_suite(scale=scale, repeat=args.repeat)
    path = write_report(payload, args.output)

    metrics = payload["metrics"]
    speedups = payload["speedups_vs_baseline"]
    for name in sorted(metrics):
        shown = (f"{metrics[name]:>14,.0f}" if name.endswith("_per_s")
                 else f"{metrics[name]:>14.3f}")
        print(f"{name:>24}: {shown}   ({speedups[name]:.2f}x vs baseline)")
    print(f"report: {path}")

    if args.check_targets:
        missed = {name: floor for name, floor in TARGETS.items()
                  if speedups[name] < floor}
        if missed:
            for name, floor in missed.items():
                print(f"TARGET MISSED: {name} needs >= {floor}x, "
                      f"got {speedups[name]:.2f}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
