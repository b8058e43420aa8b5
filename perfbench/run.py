"""Benchmark of the cloudseg CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports cloudseg from its
``src/`` directory only; without those sources it exits with code 2 and
prints no result. See ``bench.py`` for what a run does and README.md for
the workloads and metrics.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cloudseg" / "__init__.py").is_file():
        print(f"perfbench: no cloudseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
