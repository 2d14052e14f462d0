"""Correctness gates: each takes a workload's outputs and returns a list
of failure messages, empty when the outputs are correct.

No tolerance here is looser than the matching one in the acceptance gate
(tests/test_acceptance.py): train loss 0.05, tracker against oracle 1e-8,
projection residual 1e-8.
"""

import json
import math

import numpy as np

LOSS_TARGET = 0.05
COEFF_TOL = 1e-8
RESIDUAL_TOL = 1e-8
# test-error agreement, in binomial stderrs of the reference trial
TEST_ERROR_SIGMAS = 3.0


def load_reference(path) -> dict:
    """Reference trials keyed by (algo, d, mu_norm, seed)."""
    with open(path) as fh:
        payload = json.load(fh)
    return {(t["algo"], t["d"], t["mu_norm"], t["seed"]): t for t in payload["trials"]}


def test_error_tolerance(ref_error: float, n_test: int) -> float:
    """Three binomial stderrs of the reference error rate, with the rate
    kept at least one sample from 0 and 1 so a perfect reference still
    allows a test point near the boundary to flip."""
    q = min(max(ref_error, 1.0 / n_test), 1.0 - 1.0 / n_test)
    return TEST_ERROR_SIGMAS * math.sqrt(q * (1.0 - q) / n_test)


def phase_grid(results, reference: dict, n_test: int) -> list[str]:
    """No failed trial, no set-inclusion violation, every SGD cell under the
    loss target, and each test error within tolerance of the reference."""
    failures = []
    for r in results:
        cell = f"{r.algo} d={r.d} mu={r.mu_norm:g} seed={r.seed}"
        ref = reference.get((r.algo, r.d, r.mu_norm, r.seed))
        if r.failed:
            failures.append(f"{cell}: trial failed: {r.error}")
        elif r.invariant_violations:
            failures.append(f"{cell}: {r.invariant_violations} invariant violations")
        elif r.algo == "sgd" and not r.train_loss <= LOSS_TARGET:
            failures.append(f"{cell}: train loss {r.train_loss:.4f} > {LOSS_TARGET}")
        elif ref is None:
            failures.append(f"{cell}: no reference trial")
        elif not abs(r.test_error - ref["test_error"]) <= test_error_tolerance(
                ref["test_error"], n_test):
            failures.append(
                f"{cell}: test error {r.test_error} vs reference {ref['test_error']}")
    return failures


def tracked_sam(pairs, y) -> list[str]:
    """At every recorded state the tracked coefficients keep their sign and
    label patterns and agree with the least-squares oracle to 1e-8.

    pairs holds (state label, tracked Coeffs, OracleCoeffs)."""
    failures = []
    for label, tracked, oracle in pairs:
        try:
            tracked.check_patterns(y)
        except AssertionError as exc:
            failures.append(f"state {label}: {exc}")
            continue
        gap = max(float(np.max(np.abs(oracle.gamma - tracked.gamma))),
                  float(np.max(np.abs(oracle.rho - tracked.rho))))
        if not gap <= COEFF_TOL:
            failures.append(f"state {label}: tracker/oracle gap {gap:.3e} > {COEFF_TOL}")
    return failures


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def wide_data(generated, loaded, oracle, report) -> list[str]:
    """Bitwise load round trip, oracle residual at most 1e-8 on an in-span
    checkpoint, and a clean concentration report.

    The round trip is compared sample by sample, so the gate allocates no
    second copy of the datasets and adds nothing to peak memory."""
    failures = []
    if (generated.params, generated.seed, generated.n) != (loaded.params, loaded.seed, loaded.n):
        failures.append("round trip changed params, seed or n")
    if not _same_bits(generated.mu, loaded.mu):
        failures.append("round trip changed mu")
    for i, (a, b) in enumerate(zip(generated.samples, loaded.samples)):
        changed = [f for f in ("patches", "y", "y_hat", "xi", "signal_pos")
                   if not _same_bits(getattr(a, f), getattr(b, f))]
        if changed:
            failures.append(f"round trip changed sample {i}: {', '.join(changed)}")
    if not oracle.residual <= RESIDUAL_TOL:
        failures.append(f"oracle residual {oracle.residual:.3e} > {RESIDUAL_TOL}")
    if not report.ok:
        failures.append(f"concentration report: {report.rows()}")
    return failures
