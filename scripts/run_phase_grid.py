#!/usr/bin/env python3
"""Reproduce the full synthetic phase-transition heatmaps.

Runs the 11 x 11 (d, ||mu||) grid with 10 seeds for both the plain and the
perturbed optimizer (2420 trials; about 3.2 minutes with --jobs 2 on 2
cores).  Use --reduced for the 3 x 4 x 3-seed acceptance-scale grid (about
5 s with --jobs 2 on 2 cores).  --jobs defaults to the CPUs the process may
run on.

    python scripts/run_phase_grid.py --out runs/phase [--jobs 4] [--reduced]

Outputs results.csv, heatmap_{sgd,sam}.{csv,pgm} and timings.csv (one row
per cell: the seconds spent building its dataset, training and testing)
under --out; rerun with --resume to continue an interrupted grid.
"""

import argparse

from samdyn.cli import _available_cpus
from samdyn.experiments import run_grid, phase_grid_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--jobs", type=int, default=_available_cpus(),
                    help="worker processes (default: the CPUs this process may run on)")
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args()

    spec = phase_grid_spec(reduced=args.reduced)
    results = run_grid(spec, args.out, jobs=args.jobs, resume=args.resume)
    failed = sum(r.failed for r in results)
    print(f"{len(results)} trials done, {failed} failed -> {args.out}/results.csv")


if __name__ == "__main__":
    main()
