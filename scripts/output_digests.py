#!/usr/bin/env python3
"""List the sha256 of every output of the reference runs, for a purity check.

Runs, through samdyn's own CLI and into OUT: the reduced phase grid at
--jobs 1 and 2, the train and check demos, and a decompose of the train
demo's checkpoints.  samdyn's messages go to stderr; stdout gets one
"sha256  relative/path" line per output file, sorted by path, leaving out
manifest.json and timings.csv, which record the run rather than its
numbers.  A refactor is pure when two checkouts list the same lines:

    PYTHONPATH=src python scripts/output_digests.py /tmp/a > a.txt
    diff a.txt b.txt

OUT must not exist or be empty.  Exits nonzero if any run fails.
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

from samdyn.cli import main as samdyn

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNDIGESTED = {"manifest.json", "timings.csv"}


def runs(out: Path) -> list[list[str]]:
    train = out / "train"
    return [
        ["grid", "--config", str(CONFIGS / "phase_reduced.cfg"), "--out", str(out / "grid_j1"),
         "--jobs", "1"],
        ["grid", "--config", str(CONFIGS / "phase_reduced.cfg"), "--out", str(out / "grid_j2"),
         "--jobs", "2"],
        ["train", "--config", str(CONFIGS / "train_demo.cfg"), "--out", str(train)],
        ["check", "--config", str(CONFIGS / "check_demo.cfg"), "--out", str(out / "check")],
        ["decompose", "--data", str(train / "dataset.npz"), "--weights",
         str(train / "w_final.npz"), "--weights0", str(train / "w0.npz"),
         "--out", str(out / "decompose")],
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", type=Path, help="directory the runs write into")
    args = ap.parse_args()
    if args.out.exists() and any(args.out.iterdir()):
        print(f"error: {args.out} is not empty", file=sys.stderr)
        return 2
    for argv in runs(args.out):
        with contextlib.redirect_stdout(sys.stderr):
            code = samdyn(argv)
        if code:
            print(f"error: samdyn {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        if path.name not in UNDIGESTED:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
