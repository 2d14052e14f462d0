"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured value against its pinned tolerance (run with -s to see them).
"""

import time

import numpy as np

from helpers import fd_gradient, min_kink_distance, model_gradient, reconstruct
from samdyn.checks import (
    SamDeactivationRecorder,
    activation_threshold,
    calibrate_sam_tau,
    check_logit_ratio,
    check_sam_deactivation,
    check_set_monotonicity,
    classify_regime,
    effective_sigma0,
    first_stage_epochs,
    own_noise_pre,
    scaled_tau,
)
from samdyn.data import DataParams, gen_dataset, make_signal
from samdyn.decomposition import oracle_solve
from samdyn.experiments import aggregate, run_grid, phase_grid_spec
from samdyn.network import NetConfig
from samdyn.optim import TrainConfig, train


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_gradient_matches_finite_differences():
    """Analytic gradients vs central differences (h = 1e-6), max relative
    error <= 1e-5 over 100 random non-kink configurations, under 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    checked = 0
    while checked < 100:
        d = int(rng.integers(3, 65))
        m = int(rng.integers(1, 9))
        P = int(rng.integers(2, 5))
        B = int(rng.integers(1, 17))
        params = DataParams(d=d, P=P, sigma_p=1.0, p=0.2, mu_norm=float(rng.uniform(0.5, 3.0)))
        ds = gen_dataset(params, make_signal(d, params.mu_norm), B,
                         seed=int(rng.integers(2**31)))
        patches = ds.patches()
        y = ds.y
        w = rng.normal(0.0, 0.3, size=(2, m, d))
        if min_kink_distance(w, patches) < 1e-4:
            continue
        g = model_gradient(w, ds.mu, ds.xi, y, ds.y_hat, P)[0]
        fd = fd_gradient(w, patches, y, h=1e-6)
        rel = float(np.max(np.abs(fd - g)) / np.max(np.abs(g)))
        worst = max(worst, rel)
        assert rel <= 1e-5, f"config {checked}: rel error {rel:.3e}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"gradient check took {elapsed:.2f}s"
    _report(1, "gradient correctness", f"max rel err {worst:.2e} <= 1e-5, {elapsed:.2f}s")


def test_criterion_2_decomposition_exactness(decomposition_runs):
    """Tracked (gamma, rho) match the least-squares oracle to 1e-8 and the
    reconstruction residual stays below 1e-8 relative, at every recorded
    iteration of 20 seeded SGD/SAM runs (d=500, n=8, m=4, 50 iterations),
    under 30 s."""
    start = time.monotonic()
    worst_coeff = 0.0
    worst_recon = 0.0
    states = 0
    for run in decomposition_runs["runs"]:
        ds = run["ds"]
        w0 = run["traj"].w0
        for rec in run["traj"].records:
            st = run["tracker"].state_at(rec.t, rec.b)
            sol = oracle_solve(rec.weights, w0, ds)
            dg = float(np.max(np.abs(sol.gamma - st.coeffs.gamma)))
            dr = float(np.max(np.abs(sol.rho - st.coeffs.rho)))
            worst_coeff = max(worst_coeff, dg, dr)
            rebuilt = reconstruct(st.coeffs, ds, w0)
            rel = float(
                np.linalg.norm(rebuilt - rec.weights) / np.linalg.norm(rec.weights)
            )
            worst_recon = max(worst_recon, rel)
            states += 1
    assert states == 20 * 51  # 50 iterations + initial state per run
    assert worst_coeff <= 1e-8, f"tracker/oracle gap {worst_coeff:.3e}"
    assert worst_recon <= 1e-8, f"reconstruction residual {worst_recon:.3e}"
    elapsed = time.monotonic() - start + decomposition_runs["train_seconds"]
    assert elapsed < 30.0, f"decomposition runs + check took {elapsed:.2f}s"
    _report(2, "decomposition exactness",
            f"max coeff gap {worst_coeff:.2e}, max recon {worst_recon:.2e}, "
            f"{elapsed:.1f}s incl. training")


def test_criterion_3_sam_tau_zero_is_bitwise_sgd():
    """tau=0 SAM and SGD produce bitwise-identical 100-epoch trajectories."""
    d, n, B = 200, 16, 4
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.1, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(d, 2.0), n, seed=77)
    net = NetConfig(m=5, d=d, init="uniform_fan_in")
    sgd = train(ds, net, TrainConfig(eta=0.1, B=B, epochs=100, algo="sgd", seed=11,
                                     snapshot_weights=True))
    sam = train(ds, net, TrainConfig(eta=0.1, B=B, epochs=100, algo="sam", tau=0.0,
                                     seed=11, snapshot_weights=True))
    assert np.array_equal(sgd.w_final, sam.w_final)
    for a, b in zip(sgd.records, sam.records):
        assert a.train_loss == b.train_loss
        assert np.array_equal(a.margins, b.margins)
        assert np.array_equal(a.weights, b.weights)
    _report(3, "sam tau=0 bitwise sgd", f"{len(sgd.records)} records identical")


def test_criterion_4_train_loss_under_target_everywhere(reduced_grid):
    """Every cell of the reduced grid trained with the full-batch preset
    reaches final train loss <= 0.05."""
    spec, out, results = reduced_grid
    sgd = [r for r in results if r.algo == "sgd"]
    assert len(sgd) == 3 * 4 * 3
    assert all(not r.failed for r in results)
    worst = max(r.train_loss for r in sgd)
    assert worst <= 0.05, f"worst SGD train loss {worst:.4f}"
    _report(4, "train loss target", f"worst SGD final loss {worst:.4f} <= 0.05")


def test_criterion_5_phase_transition_separation(reduced_grid):
    """Benign corner <= 0.05, harmful corner >= 0.2 for SGD; SAM improves
    by >= 0.05 on at least half the harmful-classified cells and its
    <= 0.1-error region contains SGD's."""
    spec, out, results = reduced_grid
    cells = {(a.algo, a.d, a.mu_norm): a.mean_test_error for a in aggregate(results)}

    benign_err = cells[("sgd", 1000, 10.0)]
    harmful_err = cells[("sgd", 20000, 1.0)]
    assert benign_err <= 0.05, f"benign corner err {benign_err:.3f}"
    assert harmful_err >= 0.2, f"harmful corner err {harmful_err:.3f}"

    harmful_cells = [
        (d, mu)
        for d in spec.d_values
        for mu in spec.mu_values
        if classify_regime(spec.n, mu, d, spec.P, spec.sigma_p) == "harmful"
    ]
    assert harmful_cells, "no harmful-classified cells on the grid"
    improved = [
        (d, mu)
        for (d, mu) in harmful_cells
        if cells[("sam", d, mu)] <= cells[("sgd", d, mu)] - 0.05
    ]
    assert len(improved) * 2 >= len(harmful_cells), (
        f"SAM improved only {len(improved)}/{len(harmful_cells)} harmful cells: "
        f"{[(d, mu, cells[('sgd', d, mu)], cells[('sam', d, mu)]) for d, mu in harmful_cells]}"
    )

    sgd_region = {
        (d, mu)
        for d in spec.d_values
        for mu in spec.mu_values
        if cells[("sgd", d, mu)] <= 0.1
    }
    sam_region = {
        (d, mu)
        for d in spec.d_values
        for mu in spec.mu_values
        if cells[("sam", d, mu)] <= 0.1
    }
    assert sgd_region <= sam_region, (
        f"containment fails on {sorted(sgd_region - sam_region)}"
    )
    _report(
        5, "phase transition",
        f"benign {benign_err:.3f}, harmful {harmful_err:.3f}, "
        f"SAM improved {len(improved)}/{len(harmful_cells)}, region contained",
    )


def test_criterion_6_bayes_floor(bayes_floor_runs):
    """With 10% label flipping at the strong-signal cell, converged SGD
    test error lands in [0.08, 0.15] (mean over 5 seeds, n_test=1000)."""
    errs = [run["test_error"] for run in bayes_floor_runs]
    mean_err = float(np.mean(errs))
    assert all(run["traj"].records[-1].train_loss < 0.5 for run in bayes_floor_runs)
    assert 0.08 <= mean_err <= 0.15, f"mean test error {mean_err:.4f}, seeds {errs}"
    _report(6, "bayes floor", f"mean test error {mean_err:.4f} in [0.08, 0.15]")


def test_criterion_7_sam_deactivation_zero_violations():
    """With sigma_0 = 1/(P sigma_p sqrt(d)) and the calibrated radius,
    every same-class activated pre-activation is pushed below zero by the
    perturbation throughout the first stage, across 10 seeds."""
    d, n, B, m, mu_norm, eta = 3000, 16, 8, 8, 3.0, 2e-4
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.0, mu_norm=mu_norm)
    sigma_0 = 1.0 / (params.P * params.sigma_p * np.sqrt(d))
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=sigma_0)
    c_cal, _ = calibrate_sam_tau(params, n, net, eta, B, seeds=(0, 1), iters=4)
    c_run = 1.25 * c_cal
    tau = scaled_tau(c_run, m, B, params.P, params.sigma_p, d)
    t1 = first_stage_epochs(m, B, n, eta, mu_norm)
    epochs = int(np.ceil(t1))
    total_events = 0
    total_viol = 0
    for seed in range(10):
        ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=3000 + seed)
        rec = SamDeactivationRecorder(ds.y, t1)
        cfg = TrainConfig(eta=eta, B=B, epochs=epochs, algo="sam", tau=tau, seed=seed)
        train(ds, net, cfg, hooks=(rec,))
        rep = check_sam_deactivation(rec)
        total_events += rep.total
        total_viol += rep.violations
    assert total_events > 0
    assert total_viol == 0, f"{total_viol}/{total_events} deactivation violations"
    _report(
        7, "sam deactivation",
        f"0/{total_events} violations over t <= {t1:.1f} epochs, "
        f"calibrated c = {c_cal:.3f}, run at tau = {tau:.4f}",
    )


def test_criterion_8_structural_invariants(reduced_grid, decomposition_runs):
    """zeta >= 0, omega <= 0, label-pattern zeros and the threshold/plain
    activation-set inclusion hold with zero violations over the criterion
    2, 4 and 5 runs."""
    spec, out, results = reduced_grid
    assert all(not r.failed for r in results)  # C's coefficients are checked per record
    grid_incl = sum(r.invariant_violations for r in results)
    assert grid_incl == 0, f"{grid_incl} set-inclusion violations in grid runs"

    incl = 0
    checked = 0
    for run in decomposition_runs["runs"]:
        y = run["ds"].y
        run["tracker"].coeffs.check_patterns(y)  # raises on violation
        thr = activation_threshold(
            effective_sigma0(run["net"]), run["ds"].params.sigma_p, run["ds"].params.d
        )
        for rec in run["traj"].records:
            own = own_noise_pre(rec.noise_pre, y)
            incl += int(np.sum(np.any((own > thr) & ~(own > 0), axis=1)))
            checked += 1
    assert incl == 0, f"{incl} inclusion violations in decomposition runs"
    _report(8, "structural invariants",
            f"0 violations over {len(results)} grid trials and {checked} recorded states")


def test_criterion_9_structure_reports_on_bayes_runs(bayes_floor_runs):
    """On the criterion-6 runs: within-epoch loss-derivative ratio stays
    below exp(5) at every recorded epoch, and activation-set monotonicity
    violations stay below 5%."""
    worst_ratio = 0.0
    worst_frac = 0.0
    for run in bayes_floor_runs:
        traj = run["traj"]
        ratio_rep = check_logit_ratio(traj, c1=5.0)
        assert ratio_rep.violations == 0, f"logit ratio {ratio_rep.worst_case_value:.1f}"
        worst_ratio = max(worst_ratio, ratio_rep.worst_case_value)
        d = run["ds"].params.d
        thr = activation_threshold(1.0 / np.sqrt(3 * d), 1.0, d)
        mono = check_set_monotonicity(traj, run["ds"].y, thr)
        assert mono.violation_fraction <= 0.05, f"monotonicity {mono.violation_fraction:.3f}"
        worst_frac = max(worst_frac, mono.violation_fraction)
    _report(9, "structure reports",
            f"max logit ratio {worst_ratio:.2f} <= {np.exp(5):.2f}, "
            f"max monotonicity violation fraction {worst_frac:.3f} <= 0.05")


def test_grid_error_monotone_in_signal(reduced_grid):
    """Supplementary grid-structure invariant: SGD mean test error is
    non-increasing in ||mu|| at fixed d, up to twice the Monte Carlo
    stderr of the difference."""
    spec, out, results = reduced_grid
    aggs = {(a.d, a.mu_norm): a for a in aggregate(results) if a.algo == "sgd"}
    for d in spec.d_values:
        mus = sorted(spec.mu_values)
        for lo, hi in zip(mus, mus[1:]):
            a, b = aggs[(d, lo)], aggs[(d, hi)]
            slack = 2 * np.hypot(a.stderr, b.stderr)
            assert b.mean_test_error <= a.mean_test_error + slack, (
                f"error rose from mu={lo} ({a.mean_test_error:.3f}) to "
                f"mu={hi} ({b.mean_test_error:.3f}) at d={d}"
            )


def test_criterion_10_grid_determinism(reduced_grid, tmp_path):
    """Re-running the criteria 4-5 grid with the identical spec produces a
    byte-identical results.csv."""
    spec, out, _ = reduced_grid
    rerun = tmp_path / "rerun"
    run_grid(phase_grid_spec(reduced=True), rerun, jobs=2)
    a = (out / "results.csv").read_bytes()
    b = (rerun / "results.csv").read_bytes()
    assert a == b
    _report(10, "grid determinism", f"results.csv identical ({len(a)} bytes)")
