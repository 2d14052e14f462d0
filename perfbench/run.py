"""Benchmark of the samdyn package.

    python3 perfbench/run.py --workload phase-grid --seed 1 --seconds 20 --trace 0

Runs from the repository root against the sources in src/.  With --trace 0
it repeats units of the workload until --seconds have passed and reports
the end-to-end metrics; with --trace 1 it makes untraced and traced passes
over the same unit and reports the per-layer metrics.  Every unit's output
goes through the workload's correctness gate.  The metrics are printed one
per line with their units, and the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record, with the environment, goes to perfbench/results/, and with
--trace 1 the spans go there too.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from common import PACKAGE, RESULTS, SRC, WORK, environment, src_stats

WORKLOAD_NAMES = ("phase-grid", "tracked-sam", "wide-data")
SETUP_REPEATS = 5  # one in-process set-up plus four in fresh interpreters
# each workload's own name and unit for its throughput, printed beside ops_per_s
THROUGHPUT = {"phase-grid": ("trials_per_s", "trials/s"),
              "tracked-sam": ("steps_per_s", "steps/s"),
              "wide-data": ("datasets_per_s", "pipelines/s")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


class Session:
    """Runs units of one workload, gates each one, and drops its outputs
    as soon as it is judged so that memory holds one unit at a time."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None

    def unit(self, k: int, **kwargs):
        from workloads import Unit

        try:
            unit = self.workload.run(k, **kwargs)
        except Exception as exc:  # a crash in the program fails the unit, not the run
            traceback.print_exc()
            unit = Unit(ops=0, wall_s=0.0, outputs=(), error=f"{type(exc).__name__}: {exc}")
        rec = self.tracer.enter("gate") if self.tracer else None
        if unit.error:
            attempted, failures = 1, [unit.error]
        else:
            attempted, failures = self.workload.check(unit)
        unit.outputs = ()
        if rec:
            self.tracer.exit(rec)
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.failures += failures
        return unit

    def traced(self, fn):
        """fn() under a fresh trace; returns (its value, the tracer)."""
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        self.tracer = tracer
        try:
            rec = tracer.enter(tracing.ROOT_SPAN)
            try:
                value = fn()
            finally:
                tracer.exit(rec)
        finally:
            tracer.uninstall()
            self.tracer = None
        return value, tracer


def setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (the run_grid pool workers), from getrusage: KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_run(session, seconds: float) -> tuple[dict, dict]:
    """Repeat units until `seconds` have passed.

    Throughput is the work of all completed units over their summed wall
    time, which varies less from run to run than a median of unit rates.
    """
    units = []
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        units.append(session.unit(len(units)))
    ok = [u for u in units if u.ops]
    wall = sum(u.wall_s for u in ok)
    metrics = {"ops_per_s": sum(u.ops for u in ok) / wall if wall else 0.0}
    extra = {"units": len(units), "unit_wall_s": [u.wall_s for u in units],
             "unit_info": [u.info for u in units]}
    name, _unit = THROUGHPUT[session.workload.name]
    extra[name] = metrics["ops_per_s"]
    if session.workload.name == "tracked-sam" and ok:
        extra[name] = sum(u.ops for u in ok) / sum(u.info["train_s"] for u in ok)
        extra["verify_s"] = statistics.median(u.info["verify_s"] for u in ok)
    return metrics, extra


def traced_run(session) -> tuple[dict, dict]:
    import tracing

    out = session.workload.traced(session)
    tracer = out.pop("tracer")
    metrics = tracing.per_layer(tracer, {**out, "src_lines": src_stats()["src_lines"]})
    return metrics, {"absent_spans": tracer.absent, "spans": tracing.span_records(tracer),
                     "span_table": tracing.span_table(tracer)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no samdyn package under {SRC}; run from a samdyn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = perf_counter()
        from workloads import WORKLOADS  # imports numpy and samdyn: part of set-up

        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        session = Session(workload)
        if args.trace:
            from tracing import PER_LAYER as units

            metrics, extra = traced_run(session)
        else:
            setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            metrics, extra = timed_run(session, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
            extra["setup_samples_s"] = setups
            units = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = session.failed / session.attempted if session.attempted else 1.0
    labelled = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report(args, labelled, extra, error_rate, session)
    print(json.dumps({
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": max(session.attempted, 1),
        "failed": session.failed if session.attempted else 1,
        "metrics": labelled,
    }))
    return 0


def report(args, metrics, extra, error_rate, session) -> None:
    """Human-readable lines, and the full record under perfbench/results/."""
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}")
    blas = ", ".join(f"{v.get('threads')} threads ({k})" for k, v in env["blas"].items())
    print(f"env numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']} "
          f"blas {blas} *_NUM_THREADS {env['num_threads_env'] or 'unset'} "
          f"commit {env['git_commit']} src_lines {env['src_lines']}")
    if args.trace == 0:
        name, unit = THROUGHPUT[args.workload]
        print(f"{name} {extra.get(name, 0.0):.6g} {unit}")
        if "verify_s" in extra:
            print(f"verify_s {extra['verify_s']:.6g} s")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(f"error_rate {error_rate:.6g} fraction ({session.failed}/{session.attempted})")
    for msg in session.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = {"workload": args.workload, "seed": args.seed,
                 "absent_spans": extra["absent_spans"], "span_table": extra["span_table"],
                 "spans": extra.pop("spans")}
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "error_rate": error_rate,
              "attempted": session.attempted, "failed": session.failed,
              "failures": session.failures[:100],
              "metrics": metrics, "detail": extra}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
