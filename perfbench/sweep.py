"""Run the benchmark over several seeds, on one checkout or alternating two.

Usage::

    python3 perfbench/sweep.py --out DIR [--runs 10] [--first-seed 1]
        [--workload W ...] [--trace] [--side NAME=CHECKOUT ...]

Each run executes this ``perfbench/run.py`` with the checkout as working
directory -- so both sides of a comparison are measured by the same
benchmark code -- and keeps its record as
``DIR/<side>/<workload>-s<seed>[-trace].json``.  With two sides the side
that runs first alternates from seed to seed, as the pair rule asks.
The default side is ``this=.``.  Summarise or compare the records with
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from common import HERE, load_spec


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--side", action="append", metavar="NAME=CHECKOUT")
    args = parser.parse_args(argv)

    sides = []
    for side in args.side or ["this=."]:
        name, sep, checkout = side.partition("=")
        if not sep or not name:
            parser.error(f"--side wants NAME=CHECKOUT, got {side!r}")
        sides.append((name, Path(checkout).resolve()))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    suffix = "-trace" if args.trace else ""
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        order = sides if seed % 2 else sides[::-1]
        for workload in workloads:
            for name, checkout in order:
                out = (args.out / name).resolve()
                out.mkdir(parents=True, exist_ok=True)
                record = out / f"{workload}-s{seed}{suffix}.json"
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds),
                     "--trace", "1" if args.trace else "0",
                     "--out", str(record)],
                    cwd=checkout, stdout=subprocess.PIPE, text=True,
                )
                last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{name} {workload} seed {seed}: exit "
                      f"{done.returncode} {last[0]}", flush=True)
                failures += done.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
