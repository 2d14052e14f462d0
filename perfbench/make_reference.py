"""Regenerate reference/phase_grid.json, the per-trial outputs the
phase-grid correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every cell of phase_grid_spec(reduced=True) once through run_grid and
stores each trial's test error, its binomial stderr and its final train
loss, with the environment the file was made in.  Rerun it only when the
program is meant to change its outputs, and say so with the change.
"""

import dataclasses
import json
import shutil
import sys

from common import REFERENCE, SRC, WORK, environment, nproc


def main() -> int:
    sys.path.insert(0, str(SRC))
    from samdyn import experiments

    spec = experiments.phase_grid_spec(reduced=True)
    out = WORK / "reference"
    try:
        results = experiments.run_grid(spec, out, jobs=nproc())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    bad = [r for r in results if r.failed or r.invariant_violations]
    if bad:
        print(f"error: {len(bad)} trials failed; not writing a reference", file=sys.stderr)
        return 1
    payload = {
        "environment": environment(),
        "spec": {"d_values": spec.d_values, "mu_values": spec.mu_values,
                 "seeds": spec.seeds, "n": spec.n, "n_test": spec.n_test,
                 "base_seed": spec.base_seed},
        "trials": [
            {k: v for k, v in dataclasses.asdict(r).items()
             if k in ("algo", "d", "mu_norm", "seed", "test_error", "test_stderr",
                      "train_loss")}
            for r in results
        ],
    }
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} trials to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
