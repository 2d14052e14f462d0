import dataclasses

import numpy as np
import pytest

from helpers import dspace_train, manual_dataset, model_gradient, random_instance
from samdyn.checks import SamDeactivationRecorder, scaled_tau
from samdyn.data import DataParams, Dataset, gen_dataset, make_signal
from samdyn.decomposition import CoeffTracker
from samdyn.experiments import phase_grid_spec, run_cell
from samdyn.network import NetConfig, model_grad_coeffs, model_preacts
from samdyn.optim import (
    TrainConfig,
    TrainingDivergedError,
    _Span,
    _split,
    _step,
    epoch_schedule,
    initial_weights,
    train,
    write_metrics_csv,
)


def _all(ds):
    return np.arange(ds.n)


def _run_step(w, ds, idx, eta, tau):
    """(weights after one step from w, the step's outputs)."""
    span = _Span(w, ds)
    out = _step(span, np.zeros_like(span.base), idx, eta, tau)
    return span.weights(out[0]), out


def _descent_point(w, ds, tau):
    """Whether a full-batch SAM step from w perturbed it, and the
    BatchTerms at the weights its descent gradient was taken at."""
    _, at_w, used, perturbed = _run_step(w, ds, _all(ds), 0.0, tau)[1]
    assert (used is at_w) != perturbed
    return perturbed, used


def _frobenius(g):
    return float(np.sqrt(np.sum(g * g)))


def test_schedule_full_batch_identity():
    for seed in (0, 1, 2):
        batches = epoch_schedule(6, 6, np.random.default_rng(seed))
        assert len(batches) == 1
        assert np.array_equal(batches[0], np.arange(6))


def test_schedule_partition_property():
    batches = epoch_schedule(4, 2, np.random.default_rng(0))
    assert len(batches) == 2
    joined = np.sort(np.concatenate(batches))
    assert np.array_equal(joined, np.arange(4))


def test_schedule_indivisible_rejected():
    with pytest.raises(ValueError, match="divide"):
        epoch_schedule(5, 2, np.random.default_rng(0))


def test_schedule_pair_frequency():
    """P(two fixed samples share a batch) = (B-1)/(n-1) = 1/5 for n=6, B=2."""
    rng = np.random.default_rng(123)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        for batch in epoch_schedule(6, 2, rng):
            if 0 in batch and 1 in batch:
                hits += 1
    p = 1 / 5
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def test_sgd_step_zero_eta():
    rng = np.random.default_rng(0)
    w, _, _, ds = random_instance(rng)
    assert np.array_equal(_run_step(w, ds, _all(ds), 0.0, 0.0)[0], w)


def test_sgd_step_zero_gradient_point():
    # gigantic margins underflow l' to zero: the step is a bitwise no-op
    mu = np.array([1e4, 0.0])
    ds = manual_dataset(mu, [0.0, 1e4], y=1, y_hat=1, signal_pos=0, P=2)
    w = np.array([[[1.0, 1.0]], [[-1.0, -1.0]]])
    out = _run_step(w, ds, _all(ds), 0.5, 0.0)[0]
    assert np.array_equal(out, w)


def test_sgd_step_closed_form_from_zero():
    mu = np.array([2.0, 0.0, 0.0])
    xi = np.array([0.5, -1.0, 2.0])
    ds = manual_dataset(mu, xi, y=1, y_hat=1, signal_pos=0, P=2)
    w = np.zeros((2, 1, 3))
    eta = 0.1
    out = _run_step(w, ds, _all(ds), eta, 0.0)[0]
    step_plus = eta * 0.5 * (xi + mu)  # -eta * (-1/2)(xi + mu)
    assert np.allclose(out[0, 0], step_plus, rtol=1e-14)
    assert np.allclose(out[1, 0], -step_plus, rtol=1e-14)


def test_sam_perturbation_norm_and_scale_invariance():
    rng = np.random.default_rng(1)
    w, _, y, ds = random_instance(rng, B=4)
    tau = 0.37
    g = model_gradient(w, ds.mu, ds.xi, y, ds.y_hat, ds.params.P)[0]
    eps = tau * g / _frobenius(g)
    assert _frobenius(eps) == pytest.approx(tau, rel=1e-12)
    # the step's descent gradient is taken at w + eps, computed in d-space
    perturbed, used = _descent_point(w, ds, tau)
    assert perturbed
    for got, want in zip((used.mu_pre, used.noise_pre), model_preacts(w + eps, ds.mu, ds.xi)):
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    for c in (0.01, 3.0, 250.0):
        scaled = tau * (c * g) / _frobenius(c * g)
        assert np.allclose(scaled, eps, rtol=1e-9)


def test_sam_perturbation_zero_cases():
    rng = np.random.default_rng(2)
    w, _, _, ds = random_instance(rng, B=2)
    assert not _descent_point(w, ds, 0.0)[0]
    # zero-gradient point: perturbation is defined as 0
    mu = np.array([1e4, 0.0])
    ds = manual_dataset(mu, [0.0, 1e4], y=1, y_hat=1, signal_pos=0, P=2)
    wbig = np.array([[[1.0, 1.0]], [[-1.0, -1.0]]])
    assert not _descent_point(wbig, ds, 0.5)[0]


def test_sam_step_tau_zero_is_sgd_bitwise():
    rng = np.random.default_rng(3)
    w, _, y, ds = random_instance(rng, B=4)
    span = _Span(w, ds)
    c0 = np.zeros_like(span.base)
    g = model_grad_coeffs(*_split(span.base), y, ds.y_hat, ds.params.P)[0]
    a = c0 - 0.05 * g
    b = _step(span, c0, _all(ds), 0.05, 0.0)[0]
    assert np.array_equal(a, b)


def test_sam_step_first_order_in_tau():
    """On a region with no activation flips the SAM and SGD steps differ
    by O(tau): halving tau roughly halves the difference."""
    rng = np.random.default_rng(4)
    w, _, _, ds = random_instance(rng, d=12, m=2, P=2, B=4)
    eta = 0.05
    idx = _all(ds)
    base = _run_step(w, ds, idx, eta, 0.0)[0]
    d1 = np.linalg.norm(_run_step(w, ds, idx, eta, 1e-5)[0] - base)
    d2 = np.linalg.norm(_run_step(w, ds, idx, eta, 5e-6)[0] - base)
    assert d1 > 0
    assert d1 / d2 == pytest.approx(2.0, rel=0.25)
    assert d1 <= 10 * eta * 1e-5


def _toy_setup(d=300, n=12, p=0.0, mu_norm=6.0, seed=0):
    params = DataParams(d=d, P=2, sigma_p=1.0, p=p, mu_norm=mu_norm)
    ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=seed)
    net = NetConfig(m=6, d=d, init="uniform_fan_in")
    return ds, net


def test_train_zero_epochs_only_initial_state():
    ds, net = _toy_setup()
    traj = train(ds, net, TrainConfig(eta=0.1, B=12, epochs=0, seed=0))
    assert len(traj.records) == 1
    assert (traj.records[0].t, traj.records[0].b) == (0, 0)
    assert np.array_equal(traj.w0, traj.w_final)


@pytest.mark.parametrize("init", ["gaussian", "uniform_fan_in"])
def test_train_starts_from_initial_weights(init):
    """train's w0 is initial_weights(net, seed) bit for bit, so a caller
    can draw a run's w0 again without training."""
    ds, _ = _toy_setup()
    net = NetConfig(m=3, d=ds.params.d, init=init, sigma_0=0.05)
    cfg = TrainConfig(eta=0.2, B=4, epochs=2, seed=11)
    w0 = train(ds, net, cfg).w0
    assert w0.tobytes() == initial_weights(net, cfg.seed).tobytes()
    assert w0.tobytes() != initial_weights(net, cfg.seed + 1).tobytes()


def test_train_deterministic():
    ds, net = _toy_setup()
    cfg = TrainConfig(eta=0.2, B=4, epochs=5, seed=7, record_every=1)
    t1 = train(ds, net, cfg)
    t2 = train(ds, net, cfg)
    assert np.array_equal(t1.w_final, t2.w_final)
    for a, b in zip(t1.records, t2.records):
        assert a.train_loss == b.train_loss
        assert np.array_equal(a.margins, b.margins)


def test_train_records_epoch_boundaries_by_default():
    ds, net = _toy_setup()
    traj = train(ds, net, TrainConfig(eta=0.1, B=4, epochs=3, seed=0))
    assert [(r.t, r.b) for r in traj.records] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert len(traj.schedules) == 3
    assert all(len(sched) == 3 for sched in traj.schedules)


def test_train_full_run_is_sam_tau_zero_bitwise():
    ds, net = _toy_setup()
    sgd = train(ds, net, TrainConfig(eta=0.2, B=4, epochs=8, algo="sgd", seed=5))
    sam = train(ds, net, TrainConfig(eta=0.2, B=4, epochs=8, algo="sam", tau=0.0, seed=5))
    assert np.array_equal(sgd.w_final, sam.w_final)
    assert [r.train_loss for r in sgd.records] == [r.train_loss for r in sam.records]


def test_train_phase_preset_cell_reaches_loss_target():
    # full-batch preset dynamics on a small strong-signal cell
    params = DataParams(d=1000, P=2, sigma_p=1.0, p=0.0, mu_norm=10.0)
    ds = gen_dataset(params, make_signal(1000, 10.0), 20, seed=1)
    net = NetConfig(m=10, d=1000, init="uniform_fan_in")
    traj = train(ds, net, TrainConfig(eta=0.2, B=20, epochs=100, seed=1))
    assert traj.records[-1].train_loss <= 0.05


def test_train_phase_switch_stops_perturbing():
    ds, net = _toy_setup()
    taus = []
    traj = train(
        ds,
        net,
        TrainConfig(eta=0.1, B=4, epochs=4, algo="sam", tau=0.1, seed=2, sam_phase_iters=5),
        hooks=(lambda e: taus.append(e.tau),),
    )
    assert all(t > 0 for t in taus[:5])
    assert all(t == 0 for t in taus[5:])
    assert len(taus) == 12


def test_train_hooks_see_step_quantities():
    ds, net = _toy_setup(n=8)
    events = []
    traj = train(ds, net, TrainConfig(eta=0.1, B=4, epochs=2, seed=0), hooks=(events.append,))
    assert len(events) == 4
    ev = events[0]
    assert ev.used.margins.shape == (4,)
    assert ev.used.mu_pre.shape == (2, 6) and ev.used.noise_pre.shape == (2, 6, 4)
    assert ev.used is ev.at_w  # SGD: no perturbation
    # each event's C is the state after its step: the batch's columns moved
    assert ev.c.shape == (12, 9) and not traj.records[0].c.any()
    assert np.flatnonzero(ev.c.any(axis=0)).tolist() == [0] + sorted(ev.batch + 1)
    assert np.array_equal(events[1].c, traj.records[1].c)  # (1, 0), after two steps
    assert np.array_equal(events[-1].c, traj.records[-1].c)


def test_training_never_builds_patch_tensor(monkeypatch):
    """Steps, records, both hooks and the test-error estimate run on the
    (mu, xi) form: they complete with Dataset.patches disabled."""

    def refuse(self):
        raise AssertionError("the patch tensor was built")

    monkeypatch.setattr(Dataset, "patches", refuse)
    ds, net = _toy_setup(n=8)
    for algo, tau in (("sgd", 0.0), ("sam", 0.1)):
        hooks = (CoeffTracker(ds, net.m), SamDeactivationRecorder(ds.y))
        cfg = TrainConfig(eta=0.1, B=4, epochs=2, algo=algo, tau=tau, seed=0)
        assert len(train(ds, net, cfg, hooks=hooks).records) == 3
    spec = dataclasses.replace(phase_grid_spec(reduced=True), n_test=100,
                               train={"sam": TrainConfig(eta=0.2, B=20, epochs=3,
                                                         algo="sam", tau=0.03)})
    [result], _ = run_cell(spec, 1000, 3.0, 0, ("sam",))
    assert not result.failed


def test_train_divergence_aborts():
    ds, net = _toy_setup(d=20, n=4, mu_norm=2.0)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match="state"):
        train(ds, net, TrainConfig(eta=1e308, B=4, epochs=4, seed=0))


def test_update_in_batch_span():
    """Each per-filter weight update lies in span{mu, xi_i : i in batch}."""
    rng = np.random.default_rng(8)
    params = DataParams(d=50, P=3, sigma_p=1.0, p=0.2, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(50, 2.0), 8, seed=21)
    w = rng.normal(0.0, 0.3, size=(2, 4, 50))
    batch = np.array([1, 4, 6])
    for tau in (0.0, 0.2):
        out = _run_step(w, ds, batch, 0.1, tau)[0]
        update = (out - w).reshape(-1, 50)
        basis = np.vstack([ds.mu[None], ds.xi[batch]])
        for row in update:
            sol, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
            resid = np.linalg.norm(row - basis.T @ sol)
            assert resid <= 1e-10 * max(np.linalg.norm(row), 1e-30)


def _span_vs_dspace(ds, net, cfg):
    """Largest gap, relative to max(1, |reference|), between train() and the
    d-space replay over every record's margins, mu_pre, noise_pre and weight
    snapshot and over w_final."""
    traj = train(ds, net, dataclasses.replace(cfg, snapshot_weights=True))
    ref, w_final = dspace_train(ds, net, cfg)
    assert [(r.t, r.b) for r in traj.records] == [(r["t"], r["b"]) for r in ref]
    pairs = [(traj.w_final, w_final)]
    for rec, want in zip(traj.records, ref):
        pairs += [(getattr(rec, k), want[k]) for k in ("margins", "mu_pre", "noise_pre", "weights")]
    return max(float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))
               for a, b in pairs)


@pytest.mark.parametrize("algo,B,sam_phase_iters", [
    ("sgd", 4, None), ("sam", 4, None), ("sam", 8, None), ("sam", 2, 30),
], ids=["sgd_minibatch", "sam_minibatch", "sam_full_batch", "sam_phase_switch"])
def test_span_engine_matches_dspace_replay(algo, B, sam_phase_iters):
    """The criterion-2 setting (d=500, n=8, m=4, p=0.25, 50+ iterations)
    trained in span space agrees with a step-by-step d-space replay."""
    d, n, m = 500, 8, 4
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.25, mu_norm=2.0)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    for seed in range(3):
        ds = gen_dataset(params, make_signal(d, 2.0), n, seed=500 + seed)
        cfg = TrainConfig(eta=0.05, B=B, epochs=25, algo=algo, seed=seed, record_every=1,
                          tau=scaled_tau(1.0, m, B, 2, 1.0, d) if algo == "sam" else 0.0,
                          sam_phase_iters=sam_phase_iters)
        assert _span_vs_dspace(ds, net, cfg) <= 1e-9


@pytest.mark.parametrize("d,n,mu_norm", [(300, 12, 0.0), (10, 16, 2.0), (10, 16, 0.0)],
                         ids=["mu_zero", "n_above_d", "mu_zero_n_above_d"])
def test_span_engine_on_dependent_basis(d, n, mu_norm):
    """A zero signal or more samples than dimensions make [mu; xi] linearly
    dependent; the engine never inverts its Gram matrix, so SGD and SAM
    train and still agree with the d-space replay."""
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.0, mu_norm=mu_norm)
    ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=3)
    net = NetConfig(m=3, d=d, init="uniform_fan_in")
    for algo, tau in (("sgd", 0.0), ("sam", 0.05)):
        cfg = TrainConfig(eta=0.1, B=4, epochs=10, algo=algo, tau=tau, seed=1)
        assert _span_vs_dspace(ds, net, cfg) <= 1e-9


def test_metrics_csv(tmp_path):
    ds, net = _toy_setup(n=8)
    traj = train(ds, net, TrainConfig(eta=0.1, B=8, epochs=2, seed=0))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,b,train_loss,min_margin,max_margin"
    assert len(lines) == 1 + len(traj.records)


@pytest.mark.parametrize("build", [
    lambda: TrainConfig(eta=0.1, B=1, epochs=1, algo="sam", tau=float("nan")),
    lambda: TrainConfig(eta=float("inf"), B=1, epochs=1),
    lambda: DataParams(d=3, mu_norm=float("nan")),
    lambda: DataParams(d=3, sigma_p=float("inf")),
    lambda: NetConfig(m=1, d=3, sigma_0=float("nan")),
    lambda: make_signal(3, float("nan")),
], ids=["tau_nan", "eta_inf", "mu_norm_nan", "sigma_p_inf", "sigma_0_nan", "signal_nan"])
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_negative_sam_phase_iters_rejected():
    with pytest.raises(ValueError, match="sam_phase_iters must be >= 0, got -3"):
        TrainConfig(eta=0.1, B=1, epochs=1, algo="sam", tau=0.1, sam_phase_iters=-3)
    assert TrainConfig(eta=0.1, B=1, epochs=1, algo="sam", tau=0.1,
                       sam_phase_iters=0).sam_phase_iters == 0


@pytest.mark.parametrize("setting", [dict(tau=0.4), dict(sam_phase_iters=5)],
                         ids=["tau", "sam_phase_iters"])
def test_sam_settings_refused_for_sgd(setting):
    """SGD would ignore both settings, so it refuses them; SAM with tau=0
    stays allowed (criterion 3)."""
    with pytest.raises(ValueError, match="algo = sam only"):
        TrainConfig(eta=0.1, B=1, epochs=1, algo="sgd", **setting)
    assert TrainConfig(eta=0.1, B=1, epochs=1, algo="sam", **setting).algo == "sam"
    assert TrainConfig(eta=0.1, B=1, epochs=1, algo="sam", tau=0.0).tau == 0.0
