#!/usr/bin/env python3
"""List the sha256 of every output of the reference runs, for a purity check.

Runs, through samdyn's own CLI and into OUT: the reduced phase grid at
--jobs 1 and 2, the minibatch step-size ablation grid (four variants a
cell) at --jobs 2, the train and check demos, a decompose of the train
demo's checkpoints, and a gen-data at its default settings; then the
deactivation study at --seeds 3 on its default config, its stdout going
to OUT/deactivation_study.txt.  samdyn's messages go to stderr; stdout
gets one "sha256  relative/path" line per output file, sorted by path,
leaving out manifest.json and timings.csv, which record the run rather
than its numbers; for each manifest.json it gets a "sha256
relative/manifest.json:config" line instead, the digest of the run's
resolved settings as sorted JSON.  A refactor is pure when two
checkouts list the same lines:

    PYTHONPATH=src python scripts/output_digests.py /tmp/a > a.txt
    diff a.txt b.txt

OUT must not exist or be empty.  The runs work in OUT, so a manifest records
paths relative to it.  Exits nonzero if any run fails.
"""

import argparse
import contextlib
import hashlib
import json
import os
import runpy
import sys
from pathlib import Path

from samdyn.cli import main as samdyn

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STUDY = Path(__file__).resolve().parent / "run_deactivation_study.py"
UNDIGESTED = {"manifest.json", "timings.csv"}


def runs() -> list[list[str]]:
    """The runs' argv, with paths relative to OUT."""
    reduced = str(CONFIGS / "phase_reduced.cfg")
    return [
        ["grid", "--config", reduced, "--out", "grid_j1", "--jobs", "1"],
        ["grid", "--config", reduced, "--out", "grid_j2", "--jobs", "2"],
        ["grid", "--config", str(CONFIGS / "lr_ablation.cfg"), "--out", "lr_ablation",
         "--jobs", "2"],
        ["train", "--config", str(CONFIGS / "train_demo.cfg"), "--out", "train"],
        ["check", "--config", str(CONFIGS / "check_demo.cfg"), "--out", "check"],
        ["decompose", "--data", "train/dataset.npz", "--weights", "train/w_final.npz",
         "--weights0", "train/w0.npz", "--out", "decompose"],
        ["gen-data", "--d", "64", "--n", "8", "--mu-norm", "2.0",
         "--out", "gen_data/dataset.npz"],
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, help="directory the runs write into")
    args = ap.parse_args()
    if args.out.exists() and any(args.out.iterdir()):
        print(f"error: {args.out} is not empty", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)
    for argv in runs():
        with contextlib.redirect_stdout(sys.stderr):
            code = samdyn(argv)
        if code:
            print(f"error: samdyn {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    argv, sys.argv = sys.argv, [str(STUDY), "--seeds", "3"]
    try:
        with open("deactivation_study.txt", "w") as fh, contextlib.redirect_stdout(fh):
            runpy.run_path(str(STUDY), run_name="__main__")
    finally:
        sys.argv = argv
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            config = json.loads(path.read_text())["config"]
            digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
            print(f"{digest}  {path}:config")
        elif path.name not in UNDIGESTED:
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
