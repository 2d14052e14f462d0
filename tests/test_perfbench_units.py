"""Each benchmark workload runs two units through its own correctness gate.

The workloads in perfbench/ call the package by name: CoeffTracker's
keep_history and check arguments, its history, state_at and coeffs, the
deactivation recorder's events and violations, data.stack and
Dataset.samples.  A change that breaks one of those fails here.
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
