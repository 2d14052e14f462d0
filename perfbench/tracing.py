"""Spans around calls into each samdyn module, and the per-layer metrics
derived from them.

The trace is installed from outside the package: each traced function is
replaced, for the duration of the traced run only, by a wrapper in every
module that looks the name up.  A name bound with `from .network import
gradient_with_aux` is looked up in the importing module, so the wrapper
must go there (samdyn.optim.gradient_with_aux), not only into the module
that defines it.  Spans stay in memory and are written out when the run
ends.  Self time is a span's duration minus the time its child spans
cover.
"""

import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
# Counts and sizes computed from array shapes repeat exactly, so their unit
# is "count".
PER_LAYER = {
    "network.gradient_with_aux.calls": "count",
    "network.gradient_with_aux.self_s": "s",
    "network.patch_preacts.self_s": "s",
    "network.gflop": "count",
    "network.read_mb": "count",
    "network.gflop_per_s": "GFLOP/s",
    "optim.steps": "count",
    "optim.perturbed_steps": "count",
    "optim.step.self_s": "s",
    "optim.state_stats.calls": "count",
    "optim.state_stats.self_s": "s",
    "optim.hooks_s": "s",
    "optim.train.self_s": "s",
    "decomposition.tracker.calls": "count",
    "decomposition.tracker.self_s": "s",
    "decomposition.oracle_solve.calls": "count",
    "decomposition.oracle_solve.ms_per_call": "ms",
    "decomposition.make_basis.self_s": "s",
    "decomposition.history_mb": "count",
    "checks.set_monotonicity.self_s": "s",
    "checks.logit_ratio.self_s": "s",
    "checks.coeff_bounds.self_s": "s",
    "checks.good_batches.self_s": "s",
    "checks.sam_deactivation.self_s": "s",
    "checks.deactivation_recorder.self_s": "s",
    "checks.deactivation_events": "count",
    "checks.deactivation_violations": "count",
    **{f"experiments.run_trial.{algo}.d{d}.s": "s"
       for algo in ("sgd", "sam") for d in (1000, 5000, 20000)},
    "experiments.estimate_test_error.self_s": "s",
    "experiments.test_samples_per_s": "1/s",
    "experiments.pool_speedup": "ratio",
    "data.gen_dataset.self_s": "s",
    "data.stack.calls": "count",
    "data.stack.self_s": "s",
    "data.save_dataset.self_s": "s",
    "data.load_dataset.self_s": "s",
    "data.concentration_report.self_s": "s",
    "data.materialized_mb": "count",
    "data.unique_mb": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "src.lines": "count",
}

ROOT_SPAN = "bench.traced"


class Tracer:
    """In-memory span recorder for one thread.

    A span is [name, parent index, start, end, time covered by children,
    attributes]; parents are the spans open when it starts.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.hook_spans: set[str] = set()
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def enter(self, name: str, attrs=None) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, parent, perf_counter(), None, 0.0, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def exit(self, rec: list) -> None:
        rec[3] = perf_counter()
        self._open.pop()
        if rec[1] >= 0:
            self.spans[rec[1]][4] += rec[3] - rec[2]

    def wrap(self, fn, name: str, note=None):
        """fn with a span around each call; note(tracer, span, bound
        arguments) runs after the call to record counts or attributes."""
        sig = inspect.signature(fn) if note else None

        def traced(*args, **kwargs):
            rec = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(rec)
                if note:
                    note(self, rec, sig.bind(*args, **kwargs).arguments)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class HookSpan:
    """A training hook with a span around each call."""

    def __init__(self, tracer: Tracer, hook, name: str):
        self.tracer, self.hook, self.name = tracer, hook, name
        tracer.hook_spans.add(name)

    def __call__(self, event) -> None:
        rec = self.tracer.enter(self.name)
        try:
            self.hook(event)
        finally:
            self.tracer.exit(rec)


class StepCounter:
    """Benchmark hook counting optimizer steps and perturbed (SAM) steps."""

    def __init__(self, counters: Counter):
        self.counters = counters

    def __call__(self, event) -> None:
        self.counters["optim.steps"] += 1
        if event.tau != 0.0:
            self.counters["optim.perturbed_steps"] += 1


def _note_gradient(tracer, rec, a):
    # pre-activations and the gradient contraction each multiply the
    # (2m, d) filters with the (B*P, d) patches and read both once
    w, patches = a["w"], a["patches"]
    two_m = w.shape[0] * w.shape[1]
    rows, d = patches.shape[0] * patches.shape[1], patches.shape[-1]
    tracer.counters["network.gflop"] += 2 * (2.0 * two_m * rows * d) / 1e9
    tracer.counters["network.read_mb"] += 2 * 8.0 * (two_m + rows) * d / 1e6


def _note_trial(tracer, rec, a):
    rec[5] = {"algo": a["variant"], "d": int(a["d"])}


def _note_test_error(tracer, rec, a):
    tracer.counters["experiments.test_samples"] += int(a["n_test"])


def _note_dataset(tracer, rec, a):
    n, d, P = int(a["n"]), a["params"].d, a["params"].P
    tracer.counters["data.materialized_mb"] += n * P * d * 8 / 1e6
    tracer.counters["data.unique_mb"] += n * d * 8 / 1e6


def install(tracer: Tracer) -> None:
    """Wrap every traced name where the package looks it up."""
    from samdyn import checks, cli, data, decomposition, experiments, network, optim

    hook_names = {
        decomposition.CoeffTracker: "decomposition.tracker",
        checks.SamDeactivationRecorder: "checks.deactivation_recorder",
    }
    train = optim.train
    train_sig = inspect.signature(train)

    def traced_train(*args, **kwargs):
        bound = train_sig.bind(*args, **kwargs)
        hooks = bound.arguments.get("hooks", ())
        bound.arguments["hooks"] = tuple(
            HookSpan(tracer, h, hook_names.get(type(h), f"optim.hook.{type(h).__name__}"))
            for h in hooks
        ) + (StepCounter(tracer.counters),)
        rec = tracer.enter("optim.train")
        try:
            return train(*bound.args, **bound.kwargs)
        finally:
            tracer.exit(rec)

    targets = [
        # (span name, defining module, attribute, other modules that import it, note)
        ("network.gradient_with_aux", network, "gradient_with_aux", [optim], _note_gradient),
        ("network.patch_preacts", network, "patch_preacts", [], None),
        ("optim.step", optim, "_step", [], None),
        ("optim.state_stats", optim, "_state_stats", [], None),
        ("decomposition.oracle_solve", decomposition, "oracle_solve", [cli], None),
        ("decomposition.make_basis", decomposition, "make_basis", [], None),
        ("decomposition.basis_from_dataset", decomposition, "basis_from_dataset", [cli], None),
        ("checks.set_monotonicity", checks, "check_set_monotonicity", [cli], None),
        ("checks.logit_ratio", checks, "check_logit_ratio", [cli], None),
        ("checks.coeff_bounds", checks, "check_coeff_bounds", [cli], None),
        ("checks.good_batches", checks, "check_good_batches", [cli], None),
        ("checks.sam_deactivation", checks, "check_sam_deactivation", [cli], None),
        ("experiments.run_grid", experiments, "run_grid", [cli], None),
        ("experiments.run_trial", experiments, "run_trial", [], _note_trial),
        ("experiments.estimate_test_error", experiments, "estimate_test_error", [],
         _note_test_error),
        ("data.gen_dataset", data, "gen_dataset", [experiments, checks, cli], _note_dataset),
        ("data.stack", data, "stack", [optim, decomposition, cli], None),
        ("data.save_dataset", data, "save_dataset", [cli], None),
        ("data.load_dataset", data, "load_dataset", [cli], None),
        ("data.concentration_report", data, "concentration_report", [cli], None),
    ]
    for name, home, attr, importers, note in targets:
        if attr not in home.__dict__:
            # a refactor may remove a name (the private steps, stack): report it, do not fail
            tracer.absent.append(f"{home.__name__}.{attr}")
            continue
        original = home.__dict__[attr]
        wrapped = tracer.wrap(original, name, note)
        for module in [home, *importers]:
            if module.__dict__.get(attr) is original:
                tracer.patch(module, attr, wrapped)
    for module in (optim, experiments, checks, cli):
        if module.__dict__.get("train") is train:
            tracer.patch(module, "train", traced_train)

    # methods and constructors the benchmark and run_trial call directly
    tracer.patch(decomposition.CoeffTracker, "state_at", tracer.wrap(
        decomposition.CoeffTracker.state_at, "decomposition.state_at"))
    tracer.patch(checks.TheoryConstants, "from_run", classmethod(tracer.wrap(
        checks.TheoryConstants.__dict__["from_run"].__func__, "checks.theory_constants")))
    tracker_init = decomposition.CoeffTracker.__init__
    tracer.patch(decomposition.CoeffTracker, "__init__",
                 tracer.wrap(tracker_init, "decomposition.tracker_init"))


def span_table(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for name, _parent, start, end, child, _attrs in tracer.spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child
    return dict(table)


def per_layer(tracer: Tracer, extra: dict) -> dict:
    """Every PER_LAYER metric; layers a workload bypasses read 0.

    extra supplies what the spans cannot: pool_speedup, overhead_frac,
    history_mb, deactivation counts and the src line count.
    """
    t = span_table(tracer)
    c = tracer.counters

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return t.get(name, {}).get("total_s", 0.0)

    grad_s = total_s("network.gradient_with_aux")
    oracle_calls = calls("decomposition.oracle_solve")
    root = t.get(ROOT_SPAN, {"total_s": 0.0, "self_s": 0.0})
    unattributed = sum(row["self_s"] for name, row in t.items() if name.startswith("bench."))
    trials = defaultdict(list)
    for name, _parent, start, end, _child, attrs in tracer.spans:
        if name == "experiments.run_trial" and attrs:
            trials[(attrs["algo"], attrs["d"])].append(end - start)
    test_s = total_s("experiments.estimate_test_error")

    m = {
        "network.gradient_with_aux.calls": calls("network.gradient_with_aux"),
        "network.gradient_with_aux.self_s": self_s("network.gradient_with_aux"),
        "network.patch_preacts.self_s": self_s("network.patch_preacts"),
        "network.gflop": c["network.gflop"],
        "network.read_mb": c["network.read_mb"],
        "network.gflop_per_s": c["network.gflop"] / grad_s if grad_s else 0.0,
        "optim.steps": c["optim.steps"],
        "optim.perturbed_steps": c["optim.perturbed_steps"],
        "optim.step.self_s": self_s("optim.step"),
        "optim.state_stats.calls": calls("optim.state_stats"),
        "optim.state_stats.self_s": self_s("optim.state_stats"),
        "optim.hooks_s": sum(total_s(name) for name in tracer.hook_spans),
        "optim.train.self_s": self_s("optim.train"),
        "decomposition.tracker.calls": calls("decomposition.tracker"),
        "decomposition.tracker.self_s": self_s("decomposition.tracker"),
        "decomposition.oracle_solve.calls": oracle_calls,
        "decomposition.oracle_solve.ms_per_call":
            1e3 * total_s("decomposition.oracle_solve") / oracle_calls if oracle_calls else 0.0,
        "decomposition.make_basis.self_s": self_s("decomposition.make_basis"),
        "decomposition.history_mb": extra.get("history_mb", 0.0),
        **{f"checks.{k}.self_s": self_s(f"checks.{k}") for k in (
            "set_monotonicity", "logit_ratio", "coeff_bounds", "good_batches",
            "sam_deactivation", "deactivation_recorder")},
        "checks.deactivation_events": extra.get("deactivation_events", 0),
        "checks.deactivation_violations": extra.get("deactivation_violations", 0),
        **{f"experiments.run_trial.{algo}.d{d}.s":
           statistics.median(trials[(algo, d)]) if trials[(algo, d)] else 0.0
           for algo in ("sgd", "sam") for d in (1000, 5000, 20000)},
        "experiments.estimate_test_error.self_s": self_s("experiments.estimate_test_error"),
        "experiments.test_samples_per_s":
            c["experiments.test_samples"] / test_s if test_s else 0.0,
        "experiments.pool_speedup": extra.get("pool_speedup", 0.0),
        "data.gen_dataset.self_s": self_s("data.gen_dataset"),
        "data.stack.calls": calls("data.stack"),
        "data.stack.self_s": self_s("data.stack"),
        "data.save_dataset.self_s": self_s("data.save_dataset"),
        "data.load_dataset.self_s": self_s("data.load_dataset"),
        "data.concentration_report.self_s": self_s("data.concentration_report"),
        "data.materialized_mb": c["data.materialized_mb"],
        "data.unique_mb": c["data.unique_mb"],
        "trace.wall_s": root["total_s"],
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / root["total_s"] if root["total_s"] else 0.0,
        "trace.overhead_frac": extra.get("overhead_frac", 0.0),
        "src.lines": extra.get("src_lines", 0),
    }
    if list(m) != list(PER_LAYER):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return m


def span_records(tracer: Tracer) -> list[dict]:
    """Spans as JSON rows, times relative to the first span's start."""
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    return [
        {"id": i, "name": name, "parent": parent, "start": start - t0, "end": end - t0,
         "self_s": end - start - child, **({"attrs": attrs} if attrs else {})}
        for i, (name, parent, start, end, child, attrs) in enumerate(tracer.spans)
    ]
