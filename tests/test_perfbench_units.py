"""Each benchmark workload runs two units through its own correctness gate,
and one unit under the benchmark's trace.

The workloads in perfbench/ call the package by name: CoeffTracker's
keep_history and check arguments, its history, state_at and coeffs, the
deactivation recorder's events and violations, data.stack and
Dataset.samples.  The trace (perfbench/tracing.py) wraps functions by
name and patches CoeffTracker.state_at and __init__ through the class.
A change that breaks one of those fails here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["phase-grid", "tracked-sam", "wide-data"])
def test_workload_units_pass_their_gate(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    for k in (0, 1):
        unit = workload.run(k)
        attempted, failures = workload.check(unit)
        assert attempted >= 1 and failures == [], (k, failures)


# names the trace looks for and the package no longer defines
_ABSENT_SPANS = {"samdyn.network.gradient_with_aux", "samdyn.network.patch_preacts",
                 "samdyn.decomposition.make_basis", "samdyn.experiments.run_trial"}


@pytest.mark.parametrize("name", ["phase-grid", "tracked-sam", "wide-data"])
def test_traced_unit_passes_its_gate(workloads, tmp_path, name):
    """Unit 0 under the installed trace (phase-grid on one worker, as the
    traced pass runs it) passes its gate, yields every per-layer metric,
    and misses only the spans of names the package no longer defines."""
    import tracing

    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        root = tracer.enter(tracing.ROOT_SPAN)
        unit = workload.run(0, **({"jobs": 1} if name == "phase-grid" else {}))
        tracer.exit(root)
    finally:
        tracer.uninstall()
    attempted, failures = workload.check(unit)
    assert attempted >= 1 and failures == []
    assert list(tracing.per_layer(tracer, {})) == list(tracing.PER_LAYER)
    assert set(tracer.absent) == _ABSENT_SPANS
