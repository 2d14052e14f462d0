#!/usr/bin/env python3
"""Step-size ablation with minibatches of 10.

One SGD variant per step size over the phase-transition grid, expressed
purely via the grid spec (no training-loop changes).  The eta list is the
{0.001, 0.01, 0.1, 1} sweep in per-sample-sum units, rescaled to this
codebase's mean-reduction batch gradients (multiply by n = 20).

    python scripts/run_lr_ablation.py --out runs/lr_ablation [--jobs 4]

--jobs defaults to the CPUs the process may run on.
"""

import argparse

from samdyn.data import available_cpus
from samdyn.experiments import lr_ablation_spec, run_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--jobs", type=int, default=available_cpus(),
                    help="worker processes (default: the CPUs this process may run on)")
    ap.add_argument("--full", action="store_true", help="full 11x11 grid, 10 seeds")
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args()

    spec = lr_ablation_spec(reduced=not args.full)
    results = run_grid(spec, args.out, jobs=args.jobs, resume=args.resume)
    print(f"{len(results)} trials -> {args.out}/results.csv")
    for name in sorted(spec.train):
        sub = [r for r in results if r.algo == name and not r.failed]
        worst = max((r.train_loss for r in sub), default=float("nan"))
        print(f"  {name}: worst final train loss {worst:.4f}")


if __name__ == "__main__":
    main()
