import csv
import math

import numpy as np
import pytest

from samdyn import decomposition
from samdyn.checks import (
    CheckReport,
    RegimeThresholds,
    SamDeactivationRecorder,
    TheoryConstants,
    activation_threshold,
    calibrate_sam_tau,
    check_coeff_bounds,
    check_good_batches,
    check_logit_ratio,
    check_sam_deactivation,
    check_set_monotonicity,
    classify_regime,
    effective_sigma0,
    first_stage_epochs,
    good_batch_fractions,
    regime_ratio,
    scaled_tau,
    write_report_csv,
)
from samdyn.data import DELTA, DataParams, Dataset, gen_dataset, make_signal
from samdyn.decomposition import (COEFF_COLUMNS, CoeffState, CoeffTracker, coeff_rows,
                                  write_coeff_csv)
from samdyn.network import NetConfig
from samdyn.optim import TrainConfig, epoch_schedule, train
from samdyn.tables import write_csv


def _run(d=400, n=12, m=5, B=4, epochs=6, p=0.1, mu_norm=4.0, eta=0.05, seed=0,
         algo="sgd", tau=0.0, sigma_0=0.02, record_every=None):
    params = DataParams(d=d, P=2, sigma_p=1.0, p=p, mu_norm=mu_norm)
    ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=seed)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=sigma_0)
    tracker = CoeffTracker(ds, m)
    rec = SamDeactivationRecorder(ds.y)
    cfg = TrainConfig(eta=eta, B=B, epochs=epochs, algo=algo, tau=tau, seed=seed,
                      record_every=record_every)
    traj = train(ds, net, cfg, hooks=(tracker, rec))
    return ds, net, traj, tracker, rec


def test_theory_constants_formulas():
    ds, net, traj, _, _ = _run(epochs=1)
    consts = TheoryConstants.from_run(traj.w0, ds.mu, ds.xi, 2, 1.0, t_star=50)
    assert consts.alpha == pytest.approx(4 * math.log(50))
    assert consts.snr == pytest.approx(4.0 / math.sqrt(400))
    assert consts.gamma_hat == pytest.approx(12 * consts.snr**2)
    mu_inner = np.abs(traj.w0 @ ds.mu).max()
    xi_inner = np.abs(np.einsum("jmd,nd->jmn", traj.w0, ds.xi)).max()
    assert consts.beta == pytest.approx(2 * max(mu_inner, xi_inner))
    assert consts.c1_logit == 5.0


def test_effective_sigma0():
    g = NetConfig(m=2, d=100, init="gaussian", sigma_0=0.03)
    u = NetConfig(m=2, d=100, init="uniform_fan_in")
    assert effective_sigma0(g) == 0.03
    assert effective_sigma0(u) == pytest.approx(1 / math.sqrt(300))


def test_set_monotonicity_single_record_trivial():
    ds, net, traj, _, _ = _run(epochs=0)
    thr = activation_threshold(0.02, 1.0, 400)
    rep = check_set_monotonicity(traj, ds.y, thr)
    assert rep.violations == 0


def test_set_monotonicity_benign_run():
    ds, net, traj, _, _ = _run(epochs=8, eta=0.02)
    thr = activation_threshold(0.02, 1.0, 400)
    rep = check_set_monotonicity(traj, ds.y, thr)
    assert rep.violation_fraction <= 0.05


def test_set_monotonicity_reports_stress_violations():
    # small d + aggressive step: cross-sample interference knocks filters out
    ds, net, traj, _, _ = _run(d=24, n=12, eta=2.0, epochs=12, mu_norm=6.0,
                                       p=0.3, seed=3)
    thr = activation_threshold(0.02, 1.0, 24)
    rep = check_set_monotonicity(traj, ds.y, thr)
    assert rep.violations > 0  # reported, not raised
    assert rep.total > 0


def test_logit_ratio_exactly_one_at_zero_weights():
    # two samples, zero init: every margin is 0, every l' is -1/2
    ds, net, traj, _, _ = _run(n=2, B=2, epochs=0, sigma_0=0.0)
    rep = check_logit_ratio(traj)
    assert rep.worst_case_value == 1.0
    assert rep.violations == 0


def test_logit_ratio_single_sample_is_one():
    ds, net, traj, _, _ = _run(n=1, B=1, epochs=3)
    rep = check_logit_ratio(traj)
    assert rep.worst_case_value == 1.0
    assert rep.violations == 0


def test_logit_ratio_detects_spread():
    ds, net, traj, _, _ = _run(epochs=10, eta=0.3, mu_norm=6.0, p=0.25, seed=2)
    rep = check_logit_ratio(traj, c1=0.0001)  # absurdly tight bound must flag
    assert rep.violations > 0
    loose = check_logit_ratio(traj, c1=50.0)
    assert loose.violations == 0
    assert loose.worst_case_value == rep.worst_case_value


def test_coeff_bounds_initial_state():
    ds, net, traj, tracker, _ = _run(epochs=0)
    consts = TheoryConstants.from_run(traj.w0, ds.mu, ds.xi, 2, 1.0, t_star=10)
    reports = check_coeff_bounds(tracker.history, consts, d=400)
    assert all(r.violations == 0 for r in reports)


def test_coeff_bounds_benign_run_within_alpha():
    ds, net, traj, tracker, _ = _run(epochs=10, eta=0.02)
    consts = TheoryConstants.from_run(traj.w0, ds.mu, ds.xi, 2, 1.0, t_star=10)
    reports = {r.check: r for r in check_coeff_bounds(tracker.history, consts, d=400)}
    assert reports["zeta_range"].violations == 0
    assert reports["omega_range"].violations == 0
    assert reports["gamma_range"].violations == 0
    assert "empirical_upper_ratio" in reports["gamma_range"].detail


def _coeff_bounds_one_state_at_a_time(history, consts, d):
    """check_coeff_bounds as a loop of five reductions per state: the
    reference for its block reduction."""
    n = history[0].coeffs.zeta.shape[2]
    alpha = consts.alpha
    omega_floor = -(consts.beta + 10 * math.sqrt(math.log(6 * n**2 / DELTA) / d) * n * alpha)
    zeta_viol = omega_viol = gamma_viol = 0
    zeta_max = omega_min = gamma_min = gamma_max = 0.0
    for st in history:
        z_lo, z_hi = float(st.coeffs.zeta.min()), float(st.coeffs.zeta.max())
        o_lo = float(st.coeffs.omega.min())
        g_lo, g_hi = float(st.coeffs.gamma.min()), float(st.coeffs.gamma.max())
        zeta_viol += int(not (z_lo >= 0 and z_hi <= alpha))
        omega_viol += int(not o_lo >= omega_floor)
        gamma_viol += int(not g_lo >= -1.0 / 12.0)
        zeta_max = max(zeta_max, z_hi)
        omega_min = min(omega_min, o_lo)
        gamma_min = min(gamma_min, g_lo)
        gamma_max = max(gamma_max, g_hi)
    scale = consts.gamma_hat * alpha
    c_prime = gamma_max / scale if scale > 0 else float("nan")
    states = len(history)
    return [
        CheckReport("zeta_range", f"{states} states", zeta_viol, states, zeta_max,
                    detail=f"bound alpha={alpha:.4f}"),
        CheckReport("omega_range", f"{states} states", omega_viol, states, omega_min,
                    detail=f"floor {omega_floor:.4f}"),
        CheckReport("gamma_range", f"{states} states", gamma_viol, states, gamma_min,
                    detail=f"empirical_upper_ratio={c_prime!r}"),
    ]


def _coeff_csv_one_state_at_a_time(path, history):
    """write_coeff_csv as a loop over the states' own coeffs: the reference
    for its block read."""
    write_csv(path, ("t", "b") + COEFF_COLUMNS, [
        (st.t, st.b) + row for st in history
        for row in coeff_rows(st.coeffs.gamma, st.coeffs.zeta, st.coeffs.omega)])


def _planted_history(ds, tracker, consts):
    """The tracker's history with planted C's: state 17 out of range in
    zeta, omega and gamma, state 5 with NaN entries and state 9 all -0.0."""
    history = list(tracker.history)
    m = len(history[0].c) // 2
    own = np.flatnonzero(ds.y == 1)[0]  # zeta in row j = +1, omega in row j = -1
    scale = (ds.params.P - 1) * ds.gram[own + 1, own + 1]
    planted = history[17].c.copy()
    rows = planted.reshape(2, m, -1)
    rows[0, 1, own + 1] = 2 * consts.alpha / scale
    rows[1, 0, own + 1] = -1e6 / scale
    rows[1, 2, 0] = 0.5 / ds.gram[0, 0]  # gamma = -0.5 in the j = -1 row
    nan = history[5].c.copy()
    nan.reshape(2, m, -1)[0, 0, [0, own + 1]] = math.nan
    for s, c in ((17, planted), (5, nan), (9, np.full_like(planted, -0.0))):
        st = history[s]
        history[s] = CoeffState(st.t, st.b, st.step, c, st.ds)
    return history


@pytest.mark.parametrize("block_states", [None, 1, 3])
def test_coeff_bounds_block_reduction_matches_the_per_state_loop(
        monkeypatch, tmp_path, block_states):
    """On a tracked history with a planted out-of-range state, a NaN state
    and an all -0.0 state, the block reads give the per-state loops'
    reports (counts, worst values and details) and coeffs.csv bytes, with
    the default block and with blocks of one and three states."""
    ds, net, traj, tracker, _ = _run(epochs=40, eta=0.05)
    consts = TheoryConstants.from_run(traj.w0, ds.mu, ds.xi, 2, 1.0, t_star=10)
    history = _planted_history(ds, tracker, consts)
    planted = history[17].coeffs
    if block_states:
        state = planted.gamma.nbytes + planted.zeta.nbytes + planted.omega.nbytes
        monkeypatch.setattr(decomposition, "BLOCK_BYTES", block_states * state)
    got = check_coeff_bounds(history, consts, d=400)
    assert got == _coeff_bounds_one_state_at_a_time(history, consts, d=400)
    assert [r.violations for r in got] == [2, 1, 2]  # the NaN state fails zeta and gamma
    own = np.flatnonzero(ds.y == 1)[0]
    assert (got[0].worst_case_value, got[1].worst_case_value, got[2].worst_case_value) \
        == (planted.zeta[0, 1, own], planted.omega[1, 0, own], planted.gamma[1, 2])
    assert planted.gamma[1, 2] == pytest.approx(-0.5)
    write_coeff_csv(tmp_path / "block.csv", history)
    _coeff_csv_one_state_at_a_time(tmp_path / "loop.csv", history)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def _identity_gram_dataset(y):
    """A dataset whose mu and xi_i are the unit vectors e_0..e_n, so its
    Gram is the identity and, with P = 2, C reads off as gamma = j C[:, 0]
    and rho = C[:, 1:]."""
    n = len(y)
    eye = np.eye(n + 1)
    return Dataset(mu=eye[0], xi=eye[1:], y=np.asarray(y, dtype=float),
                   y_hat=np.asarray(y, dtype=float), signal_pos=np.zeros(n, dtype=np.int64),
                   params=DataParams(d=n + 1, P=2, mu_norm=1.0))


def test_coeff_bounds_counts_each_violating_state():
    """A state violates a range when any entry leaves it; the bounds
    themselves are inside, and a NaN entry is outside."""
    consts = TheoryConstants(t_star=10, alpha=1.0, beta=0.5, snr=0.1, gamma_hat=1.0)
    ds = _identity_gram_dataset([1, -1, -1])  # zeta[1, 0, 2] and omega[0, 1, 1] are live

    def state(zeta=0.0, omega=0.0, gamma=0.0):
        c = np.zeros((4, 4))
        rows = c.reshape(2, 2, 4)
        rows[1, 0, 3], rows[0, 1, 2], rows[1, 1, 0] = zeta, omega, -gamma
        return CoeffState(0, 0, 0, c, ds)

    history = [state(), state(zeta=1.0, omega=-0.5, gamma=-1.0 / 12.0), state(zeta=1.5),
               state(zeta=-1e-300), state(zeta=math.nan), state(omega=-10.0),
               state(gamma=-0.1), state(gamma=math.nan)]
    assert (history[1].coeffs.zeta[1, 0, 2], history[1].coeffs.omega[0, 1, 1],
            history[1].coeffs.gamma[1, 1]) == (1.0, -0.5, -1.0 / 12.0)
    reports = {r.check: r for r in check_coeff_bounds(history, consts, d=10**12)}
    assert [reports[k].violations for k in ("zeta_range", "omega_range", "gamma_range")] \
        == [3, 1, 2]
    assert all(r.total == len(history) for r in reports.values())
    assert reports["zeta_range"].worst_case_value == 1.5
    assert reports["omega_range"].worst_case_value == -10.0
    assert reports["gamma_range"].worst_case_value == -0.1


def test_coeff_bounds_refuses_an_empty_history():
    """The history of a tracker without keep_history is empty; the check
    says so rather than failing on its first state."""
    ds = gen_dataset(DataParams(d=40, P=2, mu_norm=2.0), make_signal(40, 2.0), 4, seed=0)
    net = NetConfig(m=2, d=40, init="gaussian", sigma_0=0.05)
    tracker = CoeffTracker(ds, 2, keep_history=False)
    traj = train(ds, net, TrainConfig(eta=0.1, B=2, epochs=2), hooks=(tracker,))
    consts = TheoryConstants.from_run(traj.w0, ds.mu, ds.xi, 2, 1.0, t_star=2)
    with pytest.raises(ValueError, match="history is empty"):
        check_coeff_bounds(tracker.history, consts, d=40)


def test_good_batches_full_batch_counts():
    y = np.array([1.0, 1.0, -1.0, -1.0])
    y_hat = y.copy()  # p=0: S_+ cap S_y == S_y
    schedules = [epoch_schedule(4, 4, np.random.default_rng(0))]
    fr = good_batch_fractions(schedules, y, y_hat, 4)
    # counts are 2 of B=4 for each label: inside [1, 3]
    assert fr.shape == (1, 2)
    assert np.all(fr == 1.0)
    rep = check_good_batches(schedules, y, y_hat, 4)
    assert rep.violations == 0


def test_good_batches_unbalanced_full_batch():
    y = np.ones(4)
    schedules = [epoch_schedule(4, 4, np.random.default_rng(0))]
    fr = good_batch_fractions(schedules, y, y.copy(), 4)
    # label +1 count = 4 > 3B/4, label -1 count = 0 < B/4: both bad
    assert np.all(fr == 0.0)


def test_good_batches_monte_carlo():
    rng = np.random.default_rng(5)
    n, B = 64, 8
    y_hat = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    flip = rng.random(n) < 0.1
    y = np.where(flip, -y_hat, y_hat)
    schedules = [epoch_schedule(n, B, rng) for _ in range(200)]
    fr = good_batch_fractions(schedules, y, y_hat, B)
    assert fr.mean() >= 0.5


def _good_batch_fractions_loop(schedules, y, y_hat, B):
    """good_batch_fractions one batch at a time: the reference for its
    vectorised counts."""
    clean = y == y_hat
    out = np.zeros((len(schedules), 2))
    for t, batches in enumerate(schedules):
        for col, yval in enumerate((1.0, -1.0)):
            good = 0
            for idx in batches:
                count = int(np.sum(clean[idx] & (y[idx] == yval)))
                if B / 4 <= count <= 3 * B / 4:
                    good += 1
            out[t, col] = good / len(batches)
    return out


def test_good_batch_fractions_is_bitwise_the_per_batch_loop():
    rng = np.random.default_rng(11)
    for n, B, p in ((64, 8, 0.1), (30, 5, 0.3), (12, 12, 0.0), (10, 1, 0.2), (48, 3, 0.5)):
        y_hat = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y = np.where(rng.random(n) < p, -y_hat, y_hat)
        schedules = [epoch_schedule(n, B, rng) for _ in range(int(rng.integers(1, 30)))]
        got = good_batch_fractions(schedules, y, y_hat, B)
        want = _good_batch_fractions_loop(schedules, y, y_hat, B)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert good_batch_fractions([], y, y_hat, B).shape == (0, 2)


def _per_step_deactivations(events, y, t1_epochs):
    """SamDeactivationRecorder's (events, violations, perturbed_steps) and
    the steps seen, counted one step at a time: the reference for its sums."""
    counts = [0, 0, 0, 0]
    for ev in events:
        counts[3] += 1
        if (t1_epochs is not None and ev.t > t1_epochs) or ev.tau == 0.0:
            continue
        counts[2] += 1
        yb = y[ev.batch]
        rows, cols = (yb < 0).astype(int), np.arange(len(yb))
        active = ev.at_w.noise_pre[rows, :, cols] >= 0  # (B, m): own-class filters
        counts[0] += int(active.sum())
        counts[1] += int((active & (ev.used.noise_pre[rows, :, cols] >= 0)).sum())
    return counts


@pytest.mark.parametrize("t1", [None, 1.0])
@pytest.mark.parametrize("B", [1, 4, 12])
def test_deactivation_counts_are_the_per_step_counts(B, t1):
    """The recorder's counts, read at the end and in the middle of a run,
    equal a count one step at a time."""
    d, n, m = 300, 12, 4
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.2, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(d, 2.0), n, seed=3)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    cfg = TrainConfig(eta=0.05, B=B, epochs=5, algo="sam", seed=2, sam_phase_iters=3 * n // B,
                      tau=scaled_tau(0.1, m, B, 2, 1.0, d))
    rec = SamDeactivationRecorder(ds.y, t1)
    events, reads = [], []

    def read_midway(ev):
        events.append(ev)
        if ev.step % 7 == 2:
            reads.append((ev.step, rec.events, rec.violations))

    train(ds, net, cfg, hooks=(rec, read_midway))
    want = _per_step_deactivations(events, ds.y, t1)
    assert [rec.events, rec.violations, rec.perturbed_steps] == want[:3]
    assert want[0] > want[1] > 0 and 0 < want[2] < want[3]
    for step, n_events, n_violations in reads:
        assert [n_events, n_violations] == _per_step_deactivations(events[:step + 1], ds.y, t1)[:2]


def test_classify_regime_edges():
    assert classify_regime(20, 0.0, 1000, 2, 1.0) == "harmful"
    assert classify_regime(20, 10.0, 10**9, 2, 1.0) == "harmful"  # d -> infinity
    assert classify_regime(20, 10.0, 1000, 2, 1.0) == "benign"
    th = RegimeThresholds(c_lo=1e-9, c_hi=1e9)
    assert classify_regime(20, 3.0, 1000, 2, 1.0, th) == "indeterminate"
    assert regime_ratio(20, 10.0, 1000, 2, 1.0) == pytest.approx(20 * 1e4 / (1000 * 16))


def test_deactivation_recorder_tau_zero_vacuous():
    ds, net, traj, _, rec = _run(algo="sam", tau=0.0, epochs=3)
    rep = check_sam_deactivation(rec)
    assert rep.total == 0
    assert "vacuous" in rep.detail


def test_deactivation_large_radius_suppresses():
    """With the scaled radius large enough, every same-class activated
    (filter, sample) pair is deactivated by the perturbation."""
    d, n, B, m = 800, 8, 4, 4
    sigma_0 = 1.0 / (2 * math.sqrt(d))
    tau = scaled_tau(4.0, m, B, 2, 1.0, d)
    ds, net, traj, _, rec = _run(
        d=d, n=n, m=m, B=B, epochs=10, p=0.0, mu_norm=2.0, eta=5e-4,
        algo="sam", tau=tau, sigma_0=sigma_0, seed=1,
    )
    rep = check_sam_deactivation(rec)
    assert rep.total > 0
    assert rep.violations == 0


def test_deactivation_tiny_radius_reports_failures():
    d, n, B, m = 800, 8, 4, 4
    sigma_0 = 1.0 / (2 * math.sqrt(d))
    ds, net, traj, _, rec = _run(
        d=d, n=n, m=m, B=B, epochs=10, p=0.0, mu_norm=2.0, eta=5e-4,
        algo="sam", tau=1e-6, sigma_0=sigma_0, seed=1,
    )
    rep = check_sam_deactivation(rec)
    assert rep.violations > 0


def test_first_stage_and_tau_formulas():
    assert first_stage_epochs(8, 8, 16, 2e-4, 3.0) == pytest.approx(
        64 / (12 * 16 * 2e-4 * 9)
    )
    assert scaled_tau(1.0, 8, 8, 2, 1.0, 3000) == pytest.approx(
        8 * math.sqrt(8) / (2 * math.sqrt(3000))
    )


@pytest.mark.parametrize("eta, mu_norm, name", [(2e-4, 0.0, "mu_norm"), (0.0, 3.0, "eta")])
def test_first_stage_epochs_rejects_unbounded_window(eta, mu_norm, name):
    with pytest.raises(ValueError, match=f"^{name} must be > 0"):
        first_stage_epochs(8, 8, 16, eta, mu_norm)
    params = DataParams(d=50, P=2, sigma_p=1.0, p=0.0, mu_norm=mu_norm)
    net = NetConfig(m=2, d=50, init="gaussian", sigma_0=0.01)
    with pytest.raises(ValueError, match=f"^{name} must be > 0"):
        calibrate_sam_tau(params, n=4, net=net, eta=eta, B=2)


def test_calibrate_sam_tau_small_instance():
    params = DataParams(d=800, P=2, sigma_p=1.0, p=0.0, mu_norm=2.0)
    net = NetConfig(m=4, d=800, init="gaussian", sigma_0=1.0 / (2 * math.sqrt(800)))
    c, tau = calibrate_sam_tau(params, n=8, net=net, eta=1e-3, B=4, seeds=(0, 1), iters=4)
    assert 0.25 <= c <= 8.0
    assert tau == pytest.approx(scaled_tau(c, 4, 4, 2, 1.0, 800))


def test_checkers_are_pure():
    """Re-running a checker on the same trajectory reproduces the report."""
    ds, net, traj, tracker, rec = _run(epochs=5)
    thr = activation_threshold(0.02, 1.0, 400)
    a = check_set_monotonicity(traj, ds.y, thr)
    b = check_set_monotonicity(traj, ds.y, thr)
    assert a == b
    assert check_logit_ratio(traj) == check_logit_ratio(traj)
    consts = TheoryConstants.from_run(traj.w0, ds.mu, ds.xi, 2, 1.0, t_star=5)
    assert check_coeff_bounds(tracker.history, consts, 400) == check_coeff_bounds(
        tracker.history, consts, 400
    )


def test_report_csv(tmp_path):
    ds, net, traj, tracker, rec = _run(epochs=2)
    comma = CheckReport("custom", "epochs 0..2", 1, 4, np.float64(0.25), detail="floor -1, cap 2")
    reports = [check_logit_ratio(traj), check_sam_deactivation(rec), comma]
    path = tmp_path / "report.csv"
    write_report_csv(path, reports)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("check,window,violations")
    assert len(lines) == 4
    # a comma in a field is quoted, so every row reads back as six fields
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {6}
    assert rows[-1] == ["custom", "epochs 0..2", "1", "4", "0.25", "floor -1, cap 2"]
