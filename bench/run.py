"""Benchmark of the inducedmaps package; see README.md in this directory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

The package is imported from ``src`` of the same checkout.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan", "certify", "cli-oneshot")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "inducedmaps" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2

    # One BLAS/OpenMP thread for this process and every CLI process it starts:
    # with the default pool some fresh processes stall persistently.  The
    # stall diagnostic of the traced run removes these again on purpose.
    # Set before numpy is first imported, which the imports below do.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import inducedmaps

    if Path(inducedmaps.__file__).resolve().parent != SRC / "inducedmaps":
        print(f"error: imported inducedmaps from {inducedmaps.__file__}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
