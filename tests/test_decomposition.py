import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RecurrenceTracker, reconstruct, track_step, zero_coeffs
from samdyn.data import DataParams, DegenerateBasisError, gen_dataset, make_signal
from samdyn.decomposition import (
    Coeffs,
    CoeffState,
    CoeffTracker,
    InvariantViolation,
    basis_from_dataset,
    check_signs,
    oracle_solve,
    span_coeffs,
    span_view,
    write_coeff_csv,
)
from samdyn.network import BatchTerms, NetConfig, loss_grad
from samdyn.optim import StepEvent, TrainConfig, train


def _small_run(algo="sgd", tau=0.0, d=120, n=6, m=3, B=3, epochs=4, seed=0, p=0.2,
               mu_norm=2.0, eta=0.05):
    params = DataParams(d=d, P=2, sigma_p=1.0, p=p, mu_norm=mu_norm)
    ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=seed)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    tracker = CoeffTracker(ds, m)
    cfg = TrainConfig(eta=eta, B=B, epochs=epochs, algo=algo, tau=tau, seed=seed,
                      record_every=1, snapshot_weights=True)
    traj = train(ds, net, cfg, hooks=(tracker,))
    return ds, traj, tracker


def test_initial_coeffs_zero():
    """Before any step a tracker reads zero coefficients of its shapes,
    which pass the patterns."""
    ds = gen_dataset(DataParams(d=40, P=2, mu_norm=2.0), make_signal(40, 2.0), 5, seed=0)
    c = CoeffTracker(ds, 3).coeffs
    assert (c.gamma.shape, c.zeta.shape, c.omega.shape) == ((2, 3), (2, 3, 5), (2, 3, 5))
    assert not c.gamma.any() and not c.zeta.any() and not c.omega.any()
    c.check_patterns(ds.y)


def test_tracker_monotone_zeta_omega():
    _, _, tracker = _small_run(epochs=6)
    prev = None
    for st_ in tracker.history:
        if prev is not None:
            assert np.all(st_.coeffs.zeta >= prev.coeffs.zeta - 1e-18)
            assert np.all(st_.coeffs.omega <= prev.coeffs.omega + 1e-18)
        prev = st_


def test_tracked_matches_oracle_after_one_step():
    ds, traj, tracker = _small_run(n=2, B=2, epochs=1, d=40)
    state = tracker.history[1]
    rec = traj.records[-1]
    sol = oracle_solve(rec.weights, traj.w0, ds)
    assert np.max(np.abs(sol.gamma - state.coeffs.gamma)) <= 1e-10
    assert np.max(np.abs(sol.rho - state.coeffs.rho)) <= 1e-10


def test_sam_tracker_matches_oracle():
    ds, traj, tracker = _small_run(algo="sam", tau=0.08, epochs=10)
    for rec in traj.records:
        state = tracker.state_at(rec.t, rec.b)
        sol = oracle_solve(rec.weights, traj.w0, ds)
        assert np.max(np.abs(sol.gamma - state.coeffs.gamma)) <= 1e-8
        assert np.max(np.abs(sol.rho - state.coeffs.rho)) <= 1e-8


def test_oracle_zero_drift():
    params = DataParams(d=50, P=2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(50, 1.0), 4, seed=0)
    w0 = np.random.default_rng(0).normal(size=(2, 2, 50))
    sol = oracle_solve(w0, w0, ds)
    assert np.max(np.abs(sol.gamma)) == 0
    assert np.max(np.abs(sol.rho)) == 0
    assert sol.residual == 0


def test_oracle_basis_readoff():
    params = DataParams(d=30, P=2, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(30, 2.0), 3, seed=1)
    w0 = np.zeros((2, 2, 30))
    w = w0.copy()
    w[0, 0] += ds.mu / ds.gram[0, 0]  # j=+1 drift of exactly gamma=1
    sol = oracle_solve(w, w0, ds)
    assert sol.gamma[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(sol.rho)) <= 1e-12
    assert abs(sol.gamma[1, 0]) <= 1e-14


def test_oracle_residual_on_training_run():
    ds, traj, _ = _small_run(d=500, n=8, m=4, B=4, epochs=15, eta=0.02)
    final = traj.records[-1]
    sol = oracle_solve(final.weights, traj.w0, ds)
    assert sol.residual <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_recovers_planted_coefficients(seed):
    rng = np.random.default_rng(seed)
    d, n, m, P = 60, 4, 2, 3
    params = DataParams(d=d, P=P, mu_norm=1.5)
    ds = gen_dataset(params, make_signal(d, 1.5), n, seed=int(rng.integers(2**31)))
    w0 = rng.normal(size=(2, m, d))
    gamma = rng.normal(size=(2, m))
    rho = rng.normal(size=(2, m, n))
    planted = Coeffs(
        gamma=gamma,
        zeta=np.where(rho >= 0, rho, 0.0),
        omega=np.where(rho < 0, rho, 0.0),
    )
    w = reconstruct(planted, ds, w0)
    sol = oracle_solve(w, w0, ds)
    assert np.max(np.abs(sol.gamma - gamma)) <= 1e-9
    assert np.max(np.abs(sol.rho - rho)) <= 1e-9
    assert sol.residual <= 1e-9


def test_reconstruct_zero_coeffs_returns_w0():
    params = DataParams(d=25, P=2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(25, 1.0), 3, seed=2)
    w0 = np.random.default_rng(1).normal(size=(2, 3, 25))
    out = reconstruct(zero_coeffs(3, 3), ds, w0)
    assert np.allclose(out, w0, rtol=0, atol=0)


def test_full_run_reconstruction():
    ds, traj, tracker = _small_run(epochs=8)
    final_state = tracker.history[-1]
    rebuilt = reconstruct(final_state.coeffs, ds, traj.w0)
    rel = np.linalg.norm(rebuilt - traj.w_final) / np.linalg.norm(traj.w_final)
    assert rel <= 1e-8


def test_degenerate_basis_duplicate_noise():
    params = DataParams(d=20, P=2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(20, 1.0), 3, seed=3)
    xis = ds.xi.copy()
    xis[2] = xis[1]
    basis = basis_from_dataset(dataclasses.replace(ds, xi=xis))
    w0 = np.zeros((2, 2, 20))
    with pytest.raises(DegenerateBasisError, match="xi_1.*xi_2"):
        oracle_solve(w0, w0, basis)


def test_degenerate_basis_zero_mu():
    params = DataParams(d=20, P=2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(20, 1.0), 3, seed=4)
    basis = basis_from_dataset(dataclasses.replace(ds, mu=np.zeros(20)))
    w0 = np.zeros((2, 2, 20))
    with pytest.raises(DegenerateBasisError, match="mu"):
        oracle_solve(w0, w0, basis)


def test_degenerate_basis_messages_unchanged():
    """A degenerate dataset loads; the oracle names the problem."""
    params = DataParams(d=20, P=2, mu_norm=0.0)
    ds = gen_dataset(params, make_signal(20, 0.0), 3, seed=4)
    w0 = np.zeros((2, 2, 20))
    with pytest.raises(DegenerateBasisError, match="^basis vector mu has zero norm$"):
        oracle_solve(w0, w0, basis_from_dataset(ds))
    # n >= d: the Gram matrix is singular without any zero vector
    wide = gen_dataset(DataParams(d=4, P=2, mu_norm=1.0), make_signal(4, 1.0), 5, seed=0)
    w0 = np.zeros((2, 2, 4))
    with pytest.raises(DegenerateBasisError,
                       match=r"^Gram condition number .* exceeds 1\.0e\+12; nearest "
                             r"dependence between (mu|xi_\d) and xi_\d \(\|cos\| = "):
        oracle_solve(w0, w0, basis_from_dataset(wide))


@pytest.mark.parametrize("d,n,B,min_cond", [(500, 64, 16, 1.0), (120, 100, 25, 1e3)],
                         ids=["d500_n64", "ill_conditioned_d120_n100"])
def test_oracle_matches_an_independent_lstsq(d, n, B, min_cond):
    """The per-call Gram solve agrees with a least-squares fit of the drift
    on [mu; xi]^T, with norms taken from the vectors, not the Gram."""
    ds, traj, _ = _small_run(algo="sam", tau=0.05, d=d, n=n, B=B, epochs=2)
    sol = oracle_solve(traj.w_final, traj.w0, ds)
    assert min_cond < ds.checked_cond <= 1e12
    m = traj.w0.shape[1]
    drift = (traj.w_final - traj.w0).reshape(2 * m, d)
    coef = np.linalg.lstsq(np.vstack([ds.mu, ds.xi]).T, drift.T, rcond=None)[0].T
    gamma = coef[:, 0].reshape(2, m) * float(ds.mu @ ds.mu) * np.array([[1.0], [-1.0]])
    rho = (coef[:, 1:] * (ds.params.P - 1) * np.sum(ds.xi**2, axis=1)).reshape(2, m, n)
    assert np.any(gamma != 0) and np.any(rho != 0)
    assert np.all(np.abs(sol.gamma - gamma) <= 1e-10 * np.maximum(1.0, np.abs(gamma)))
    assert np.all(np.abs(sol.rho - rho) <= 1e-10 * np.maximum(1.0, np.abs(rho)))


def test_conditioning_guard_runs_once_per_basis(monkeypatch):
    """The guard is a property of the dataset: one np.linalg.cond call
    however many oracle solves, and basis_from_dataset makes no second."""
    ds, traj, _ = _small_run(n=6, epochs=2)
    calls = []
    cond = np.linalg.cond

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return cond(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", spy)
    bases = (basis_from_dataset(ds), basis_from_dataset(ds))
    sols = [oracle_solve(r.weights, traj.w0, basis) for r in traj.records for basis in bases]
    assert len(sols) > 4 and calls == [(7, 7)]


def test_basis_shares_the_dataset_span():
    params = DataParams(d=40, P=3, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(40, 2.0), 5, seed=6)
    assert basis_from_dataset(ds) is ds


def test_span_coeffs_is_the_oracle_readoff():
    """oracle_solve on w0 + C [mu; xi] returns span_coeffs(C)."""
    rng = np.random.default_rng(3)
    params = DataParams(d=50, P=3, mu_norm=1.5)
    ds = gen_dataset(params, make_signal(50, 1.5), 4, seed=8)
    c = rng.normal(size=(2 * 2, 5))
    w0 = rng.normal(size=(2, 2, 50))
    w = w0 + (c[:, :1] * ds.mu + c[:, 1:] @ ds.xi).reshape(2, 2, 50)
    gamma, rho = span_coeffs(c, ds)
    assert np.array_equal(gamma[:, 0], np.array([1.0, -1.0]) * c[[0, 2], 0] * ds.gram[0, 0])
    assert np.array_equal(rho[1, 1], c[3, 1:] * 2 * np.diag(ds.gram)[1:])
    sol = oracle_solve(w, w0, ds)
    assert np.allclose(sol.gamma, gamma, rtol=1e-9, atol=1e-12)
    assert np.allclose(sol.rho, rho, rtol=1e-9, atol=1e-12)


def test_zero_c_reads_positive_zero_coefficients(tmp_path):
    """A zero mu weight in a j = -1 row reads gamma = 0.0, not -0.0, for one
    C and for a stack, so coeffs.csv never prints -0.0."""
    ds = gen_dataset(DataParams(d=30, P=3, mu_norm=1.5), make_signal(30, 1.5), 4, seed=8)
    for c in (np.zeros((4, 5)), np.zeros((3, 4, 5))):
        gamma, rho = span_coeffs(c, ds)
        assert not gamma.any() and not np.signbit(gamma).any() and not np.signbit(rho).any()
    write_coeff_csv(tmp_path / "coeffs.csv", [CoeffState(0, 0, 0, np.zeros((4, 5)), ds)])
    assert "-0.0" not in (tmp_path / "coeffs.csv").read_text()


@pytest.mark.parametrize("case", [
    dict(algo="sgd", B=6, n=6),
    dict(algo="sam", tau=0.08, B=6, n=6),
    dict(algo="sam", tau=0.08, B=3, n=6, sam_phase_iters=5, record_every=1),
    dict(algo="sam", tau=0.08, B=6, n=6, mu_norm=0.0),
], ids=["sgd-full-batch", "sam-full-batch", "sam-minibatch-phase", "sam-zero-mu"])
def test_span_view_matches_tracker_at_every_record(case):
    """The coefficients read off a record's C are the paper's recurrence's,
    state by state."""
    case = dict(case)
    mu_norm = case.pop("mu_norm", 2.0)
    n = case.pop("n")
    d, m = 120, 3
    params = DataParams(d=d, P=3, sigma_p=1.0, p=0.2, mu_norm=mu_norm)
    ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=11)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    cfg = TrainConfig(eta=0.05, epochs=8, seed=2, **case)
    tracker = RecurrenceTracker(ds, m, cfg.eta)
    traj = train(ds, net, cfg, hooks=(tracker,))
    assert len(traj.records) > 2
    for rec in traj.records:
        view = span_view(rec.c, ds)
        view.check_patterns(ds.y)
        tracked = tracker.state_at(rec.t, rec.b).coeffs
        for name in ("gamma", "zeta", "omega"):
            got, want = getattr(view, name), getattr(tracked, name)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name
    if mu_norm == 0.0:
        assert not view.gamma.any()


def test_track_step_equals_the_per_row_update():
    """The masked update of zeta and omega is bitwise the per-row
    np.add.at / np.subtract.at loop it replaced."""
    rng = np.random.default_rng(5)
    m, n, B = 4, 12, 5
    y = rng.choice([-1.0, 1.0], n)
    start = Coeffs(np.zeros((2, m)), rng.random((2, m, n)), -rng.random((2, m, n)))
    for _ in range(20):
        batch = rng.permutation(n)[:B]
        terms = BatchTerms(mu_pre=rng.normal(size=(2, m)), noise_pre=rng.normal(size=(2, m, B)),
                           margins=rng.normal(size=B))
        kw = dict(batch=batch, terms=terms, y=y, y_hat=y, eta=0.3, P=3,
                  mu_norm_sq=2.0, xi_norm_sq=rng.uniform(50.0, 150.0, n))
        got = track_step(start, **kw)
        coef = -(0.3 * 4 / (B * m)) * loss_grad(terms.margins) * kw["xi_norm_sq"][batch]
        contrib = (terms.noise_pre >= 0) * coef[None, None, :]
        zeta, omega = start.zeta.copy(), start.omega.copy()
        for row, j in enumerate((1.0, -1.0)):
            own = y[batch] == j
            np.add.at(zeta[row].T, batch[own], contrib[row][:, own].T)
            np.subtract.at(omega[row].T, batch[~own], contrib[row][:, ~own].T)
        assert np.array_equal(got.zeta, zeta) and np.array_equal(got.omega, omega)
        start = got


def _close(a: Coeffs, b: Coeffs) -> bool:
    """a within 1e-12 max(1, |x|) of every entry x of b."""
    return all(getattr(a, f).shape == getattr(b, f).shape and np.all(
        np.abs(getattr(a, f) - getattr(b, f)) <= 1e-12 * np.maximum(1.0, np.abs(getattr(b, f))))
        for f in ("gamma", "zeta", "omega"))


@pytest.mark.parametrize("B", [1, 4, 8, 24])
@pytest.mark.parametrize("algo,tau", [("sgd", 0.0), ("sam", 0.08)])
def test_tracker_history_matches_the_recurrence(algo, tau, B):
    """Every state's gamma, zeta and omega is within 1e-12 of the paper's
    recurrence applied one step at a time, and so is every read of coeffs
    in the middle of a run."""
    d, n, m = 150, 24, 3
    params = DataParams(d=d, P=3, sigma_p=1.0, p=0.2, mu_norm=1.7)
    ds = gen_dataset(params, make_signal(d, 1.7), n, seed=7)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    tracker = CoeffTracker(ds, m)
    last_only = CoeffTracker(ds, m, keep_history=False)
    events, reads = [], []

    def read_midway(ev):
        events.append(ev)
        if ev.step % 5 == 3:
            reads.append((ev.step, tracker.coeffs))

    epochs = 3 * B // 4 + 2
    cfg = TrainConfig(eta=0.05, B=B, epochs=epochs, algo=algo, tau=tau, seed=1)
    reference = RecurrenceTracker(ds, m, cfg.eta)
    train(ds, net, cfg, hooks=(tracker, last_only, read_midway, reference))
    want = reference.history
    H = n // B
    assert len(events) == epochs * H > 2 * 7
    assert [(st.t, st.b, st.step) for st in tracker.history] == \
        [(st.t, st.b, st.step) for st in want] == [(s // H, s % H, s) for s in range(len(want))]
    for st, ref in zip(tracker.history, want):
        assert _close(st.coeffs, ref.coeffs), st.step
        assert tracker.state_at(st.t, st.b) is st
    assert all(_close(c, want[step + 1].coeffs) for step, c in reads)
    assert _close(tracker.coeffs, want[-1].coeffs) and _close(last_only.coeffs, want[-1].coeffs)
    assert last_only.history == []
    if algo == "sam":
        assert any(ev.used is not ev.at_w for ev in events)


def test_state_at_returns_each_held_state_and_refuses_the_rest():
    """After 0, 1, H-1, H, H+1 and all steps of a run, state_at(t, b) is
    the held state labelled (t, b) = divmod(step, H), the object itself;
    it raises KeyError naming (t, b) for b >= H, for a state past the last
    and for any state of a keep_history=False tracker."""
    d, n, m, B = 60, 6, 2, 2
    H = n // B
    ds = gen_dataset(DataParams(d=d, P=2, mu_norm=2.0), make_signal(d, 2.0), n, seed=1)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    events = []
    train(ds, net, TrainConfig(eta=0.05, B=B, epochs=3, seed=0), hooks=(events.append,))
    for steps in (0, 1, H - 1, H, H + 1, len(events)):
        tracker = CoeffTracker(ds, m)
        last_only = CoeffTracker(ds, m, keep_history=False)
        for ev in events[:steps]:
            tracker(ev)
            last_only(ev)
        history = tracker.history
        assert [(st.t, st.b) for st in history] == [divmod(s, H) for s in range(steps + 1)]
        for st in history:
            assert tracker.state_at(st.t, st.b) is st
        end_t, end_b = divmod(steps, H)
        past_end = [divmod(steps + 1, H), (end_t + 1, end_b), (end_t + 5, 0)]
        b_too_large = [(0, H), (0, H + 1), (end_t, H), (-1, H + end_b)]
        for t, b in past_end + b_too_large + [(-1, 0), (0, -1)]:
            with pytest.raises(KeyError, match=rf"state \({t}, {b}\)"):
                tracker.state_at(t, b)
        for t, b in [(0, 0), (end_t, end_b)]:
            with pytest.raises(KeyError, match=rf"state \({t}, {b}\)"):
                last_only.state_at(t, b)


def _negated_noise(ev: StepEvent) -> StepEvent:
    """ev with the noise columns of its C negated, so its zeta and omega
    have the wrong sign."""
    c = ev.c.copy()
    c[:, 1:] *= -1.0
    return dataclasses.replace(ev, c=c)


def test_tracker_raises_on_a_planted_sign_flip_at_its_own_step():
    """A step whose C has its noise columns negated raises InvariantViolation,
    with check_patterns' message, from the tracker call of that step; with
    check=False it does not."""
    d, n, m = 80, 8, 2
    ds = gen_dataset(DataParams(d=d, P=2, mu_norm=2.0), make_signal(d, 2.0), n, seed=4)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    events = []
    train(ds, net, TrainConfig(eta=0.1, B=4, epochs=6, seed=0), hooks=(events.append,))
    events[5] = _negated_noise(events[5])
    with pytest.raises(InvariantViolation) as want:
        span_view(events[5].c, ds).check_patterns(ds.y)
    assert str(want.value) == "zeta has a negative entry"
    tracker = CoeffTracker(ds, m)
    for ev in events[:5]:
        tracker(ev)
    with pytest.raises(InvariantViolation, match=f"^{want.value}$"):
        tracker(events[5])
    assert len(tracker.history) == 6  # the planted state is not kept
    unchecked = CoeffTracker(ds, m, check=False)
    for ev in events:
        unchecked(ev)
    assert len(unchecked.history) == len(events) + 1


def test_check_signs_names_zeta_before_omega():
    """check_signs raises "zeta has a negative entry" while any own-label
    weight is negative, whatever other-label weights break, then "omega has
    a positive entry"; the mu column and -0.0 weights pass."""
    y = np.array([1.0, -1.0, 1.0])
    c = np.zeros((4, 4))  # m = 2: rows 0-1 are j = +1, rows 2-3 are j = -1
    c[:, 0] = [-3.0, 2.0, 5.0, -1.0]
    c[0, 2] = c[3, 1] = -0.0
    check_signs(c, y)
    c[3, 2] = -1e-300  # y_1 = -1: an own-label weight in a j = -1 row
    c[1, 2] = 0.5      # y_1 = -1: an other-label weight in a j = +1 row
    with pytest.raises(InvariantViolation, match="^zeta has a negative entry$"):
        check_signs(c, y)
    c[3, 2] = 0.0
    with pytest.raises(InvariantViolation, match="^omega has a positive entry$"):
        check_signs(c, y)


def _planted(c, y, fault):
    """A copy of C with one fault planted: its noise columns negated, one
    wrong-signed weight in row 0 (j = +1) in an own-label column (y_i = +1)
    or in an other-label column, or -0.0 in both such places."""
    c = c.copy()
    own, other = 1 + np.flatnonzero(y == 1)[0], 1 + np.flatnonzero(y == -1)[0]
    if fault == "negated":
        c[:, 1:] *= -1.0
    elif fault == "own":
        c[0, own] = -1e-3
    elif fault == "other":
        c[0, other] = 1e-3
    elif fault == "negative zero":
        c[0, own] = c[0, other] = -0.0
    return c


@pytest.mark.parametrize("fault,message", [
    (None, None), ("negated", "zeta has a negative entry"),
    ("own", "zeta has a negative entry"), ("other", "omega has a positive entry"),
    ("negative zero", None)])
def test_check_signs_agrees_with_the_read_off(fault, message):
    """On a trained C with a planted fault, check_signs raises exactly when
    check_patterns of its read-off does, with the same message."""
    ds, _, tracker = _small_run(n=8, B=4, epochs=3)
    c = _planted(tracker.history[-1].c, ds.y, fault)
    for check in (lambda: span_view(c, ds).check_patterns(ds.y), lambda: check_signs(c, ds.y)):
        if message is None:
            check()
        else:
            with pytest.raises(InvariantViolation, match=f"^{message}$"):
                check()


def test_pattern_violations_raise():
    y = np.array([1.0, -1.0])
    c = zero_coeffs(2, 2)
    c.zeta[0, 0, 0] = -0.5
    with pytest.raises(InvariantViolation, match="negative"):
        c.check_patterns(y)
    c = zero_coeffs(2, 2)
    c.zeta[0, 0, 1] = 0.5  # y_1 = -1 but j=+1 row
    with pytest.raises(InvariantViolation, match="zeta"):
        c.check_patterns(y)
    c = zero_coeffs(2, 2)
    c.omega[0, 0, 0] = -0.5  # y_0 = +1: omega must be zero on the j=+1 row
    with pytest.raises(InvariantViolation, match="omega"):
        c.check_patterns(y)


def test_gamma_alignment_identity():
    """gamma approximates the signal alignment: <w - w0, mu> equals
    j*gamma plus the exact noise cross-term, so the gap is bounded by the
    numerically computed sum of |rho_i| |<xi_i, mu>| / ((P-1)||xi_i||^2)."""
    ds, traj, tracker = _small_run(epochs=6)
    P = ds.params.P
    cross = (ds.xi @ ds.mu) / np.einsum("nd,nd->n", ds.xi, ds.xi)
    for rec in traj.records:
        st = tracker.state_at(rec.t, rec.b)
        drift_mu = (rec.weights - traj.w0) @ ds.mu  # (2, m)
        signed_gamma = st.coeffs.gamma * np.array([1.0, -1.0])[:, None]
        gap = np.abs(drift_mu - signed_gamma)
        bound = np.einsum("jmn,n->jm", np.abs(st.coeffs.rho), np.abs(cross)) / (P - 1)
        assert np.all(gap <= bound + 1e-10)
        exact = np.einsum("jmn,n->jm", st.coeffs.rho, cross) / (P - 1)
        assert np.allclose(drift_mu, signed_gamma + exact, atol=1e-10)


def _arrays_held(obj, skip=(), seen=None) -> list[np.ndarray]:
    """Every array reachable from obj through attributes, lists, tuples and
    dicts, each once, without entering the objects of the types in skip."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, skip):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        items = getattr(obj, "__dict__", {}).values()
    return [a for item in items for a in _arrays_held(item, skip, seen)]


def test_tracker_stores_one_c_per_state():
    """After a tracked minibatch SAM run the tracker holds one (2m, n+1) C
    per state and no other array: no gamma, zeta or omega of any state."""
    m, n = 3, 6
    ds, traj, tracker = _small_run(algo="sam", tau=0.08, m=m, n=n, B=3, epochs=8)
    states = len(tracker.history)
    assert states == 8 * 2 + 1
    held = _arrays_held(tracker, skip=(type(ds),))
    assert {a.shape for a in held} == {(2 * m, n + 1)}
    assert all(a.base is None for a in held)  # no view into a larger block
    assert sum(a.nbytes for a in held) == states * 2 * m * (n + 1) * 8


def test_records_hold_no_d_space_array():
    """No record attribute is a (2, m, d) array, even with snapshot_weights:
    every record shares the run's one span (w0, dataset) and forms its
    weights from it on read."""
    d, m = 120, 3
    ds, traj, _ = _small_run(d=d, m=m, epochs=3)
    assert len(traj.records) > 2
    for rec in traj.records:
        shapes = [a.shape for a in vars(rec).values() if isinstance(a, np.ndarray)]
        assert all(d not in shape for shape in shapes)
        assert rec.span is traj.span and rec.weights.shape == (2, m, d)


def test_read_offs_keep_their_bits():
    """Every state's coeffs is bitwise its slice of one span_view of the
    stacked C's, tracker.coeffs is the last state's, and every record's
    weights are bitwise traj.span.weights(rec.c) on every read."""
    ds, traj, tracker = _small_run(algo="sam", tau=0.08, B=3, epochs=10)
    history = tracker.history
    stacked = span_view(np.stack([st.c for st in history]), ds)
    for s, st in enumerate(history):
        for name in ("gamma", "zeta", "omega"):
            assert getattr(st.coeffs, name).tobytes() == getattr(stacked, name)[s].tobytes()
    for name in ("gamma", "zeta", "omega"):
        assert getattr(tracker.coeffs, name).tobytes() == getattr(stacked, name)[-1].tobytes()
    for rec in traj.records:
        assert rec.weights.tobytes() == traj.span.weights(rec.c).tobytes() == rec.weights.tobytes()


def test_coeff_csv(tmp_path):
    _, _, tracker = _small_run(epochs=2)
    path = tmp_path / "coeffs.csv"
    write_coeff_csv(path, tracker.history)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,b,j,r,gamma,sum_zeta,min_omega,max_zeta"
    # one row per (state, j, r)
    assert len(lines) == 1 + len(tracker.history) * 2 * 3
