"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, in about three minutes on two cores:
- a short run of each workload, untraced and traced, prints one final JSON
  line with exactly the metric names and units BENCHMARK.json lists, and
  every workload-specific end-to-end name (trials_per_s, verify_s, ...)
  with its unit;
- each correctness gate passes on real output and fails on deliberately
  corrupted output;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

from common import HERE, REFERENCE, ROOT, SRC, WORK

NAMED_METRICS = {
    "phase-grid": ["trials_per_s", "setup_s", "peak_rss_mb", "error_rate"],
    "tracked-sam": ["steps_per_s", "verify_s", "setup_s", "peak_rss_mb", "error_rate"],
    "wide-data": ["datasets_per_s", "setup_s", "peak_rss_mb", "error_rate"],
}


def check(cond, msg):
    if not cond:
        raise SystemExit(f"FAIL: {msg}")
    print(f"ok: {msg}")


def short_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in NAMED_METRICS:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            check(out.returncode == 0, f"{wl} trace {trace} exits 0")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace {trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{wl} trace {trace} correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{wl} trace {trace} emits every {key} metric with its unit")
            if trace == 0:
                names = {line.split()[0] for line in lines[:-1] if line.split()}
                check(set(NAMED_METRICS[wl]) <= names,
                      f"{wl} prints {', '.join(NAMED_METRICS[wl])}")


def gates_reject_corruption() -> None:
    sys.path.insert(0, str(SRC))
    import gates
    import workloads
    from samdyn.experiments import TrialResult

    reference = gates.load_reference(REFERENCE)
    fields = {f.name for f in dataclasses.fields(TrialResult)}
    results = [TrialResult(**{k: v for k, v in t.items() if k in fields})
               for t in reference.values()]
    check(not gates.phase_grid(results, reference, 1000), "phase-grid gate passes reference")
    for label, change in [
        ("shifted test error", lambda r: setattr(r, "test_error", r.test_error + 0.2)),
        ("invariant violation", lambda r: setattr(r, "invariant_violations", 1)),
        ("SGD loss over target", lambda r: setattr(r, "train_loss", 0.06)),
        ("failed trial", lambda r: setattr(r, "failed", True)),
    ]:
        bad = copy.deepcopy(results)
        change(next(r for r in bad if r.algo == "sgd"))
        check(len(gates.phase_grid(bad, reference, 1000)) == 1,
              f"phase-grid gate rejects one {label}")

    workdir = WORK / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _unit_gates(gates, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _unit_gates(gates, workloads, workdir) -> None:
    ts = workloads.TrackedSam(3, workdir)
    pairs, y = ts.run(0).outputs
    check(not gates.tracked_sam(pairs, y), "tracked-sam gate passes real output")
    label, coeffs, oracle = pairs[len(pairs) // 2]
    nudged = coeffs.copy()
    nudged.gamma[0, 0] += 1e-6
    check(gates.tracked_sam([(label, nudged, oracle)], y),
          "tracked-sam gate rejects one perturbed tracker coefficient")
    flipped = coeffs.copy()
    flipped.zeta[0, 0, int((y == 1).argmax())] = -1e-3
    check(gates.tracked_sam([(label, flipped, oracle)], y),
          "tracked-sam gate rejects a broken sign pattern")

    wd = workloads.WideData(3, workdir)
    generated, loaded, sol, report = wd.run(0).outputs
    check(not gates.wide_data(generated, loaded, sol, report), "wide-data gate passes real output")
    sample = loaded.samples[7]
    sample.y = -sample.y
    check(gates.wide_data(generated, loaded, sol, report),
          "wide-data gate rejects one flipped loaded label")
    sample.y = -sample.y
    check(gates.wide_data(generated, loaded, dataclasses.replace(sol, residual=1e-6), report),
          "wide-data gate rejects an oracle residual above 1e-8")
    report.mu_violations = [0]
    check(gates.wide_data(generated, loaded, sol, report),
          "wide-data gate rejects a concentration violation")


def fails_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(
        "work", "results", "__pycache__"))
    try:
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "wide-data", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and "{" not in out.stdout,
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fails_without_program()
    gates_reject_corruption()
    short_runs(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
