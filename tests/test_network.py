import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    batch_loss,
    fd_gradient,
    forward,
    manual_dataset,
    min_kink_distance,
    model_gradient,
    random_instance,
)
from samdyn.network import (NetConfig, init_weights, load_weights, loss, loss_grad,
                            model_grad_coeffs, model_preacts, save_weights)


def _gradient(w, ds):
    """model_gradient on every row of ds."""
    return model_gradient(w, ds.mu, ds.xi, ds.y, ds.y_hat, ds.params.P)


def test_init_zero_sigma_gives_zero_weights():
    cfg = NetConfig(m=3, d=5, init="gaussian", sigma_0=0.0)
    w = init_weights(cfg, np.random.default_rng(0))
    assert np.array_equal(w, np.zeros((2, 3, 5)))


def test_init_gaussian_norm_concentration():
    # filter norms concentrate in [sigma0^2 d/2, 3 sigma0^2 d/2] at large d
    cfg = NetConfig(m=10, d=10_000, init="gaussian", sigma_0=0.02)
    w = init_weights(cfg, np.random.default_rng(1))
    sq = np.einsum("jmd,jmd->jm", w, w)
    lo, hi = cfg.sigma_0**2 * cfg.d / 2, 3 * cfg.sigma_0**2 * cfg.d / 2
    assert lo <= sq.mean() <= hi
    assert np.all(sq > lo) and np.all(sq < hi)


def test_init_deterministic():
    cfg = NetConfig(m=4, d=16, init="uniform_fan_in")
    a = init_weights(cfg, np.random.default_rng(9))
    b = init_weights(cfg, np.random.default_rng(9))
    assert np.array_equal(a, b)
    bound = 1 / np.sqrt(16)
    assert np.all(np.abs(a) <= bound)


def test_forward_zero_weights():
    w = np.zeros((2, 2, 3))
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert forward(w, x) == 0.0


def test_forward_hand_case():
    # m=1, P=2, w_+ = e1, w_- = 0, x = [2 e1, -e1]: F_+ = relu(2) + relu(-1) = 2
    w = np.zeros((2, 1, 3))
    w[0, 0, 0] = 1.0
    x = np.array([[2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert forward(w, x) == 2.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_forward_positive_homogeneity(seed, c):
    rng = np.random.default_rng(seed)
    w, patches, y, _ = random_instance(rng, B=3)
    f1 = forward(w, patches)
    f2 = forward(c * w, patches)
    assert np.allclose(f2, c * f1, rtol=1e-12, atol=1e-12)


def test_forward_dim_mismatch():
    w = np.zeros((2, 1, 3))
    with pytest.raises(ValueError, match="dim"):
        forward(w, np.zeros((2, 4)))


def test_loss_values():
    assert loss(0.0) == pytest.approx(np.log(2), rel=1e-12)
    assert loss_grad(0.0) == -0.5
    assert loss(np.array([0.0, 0.0])).shape == (2,)


def test_loss_extreme_negative():
    # reference: for z = -800, log(1+exp(800)) = 800 + log1p(exp(-800)) = 800 in float64
    assert loss(-800.0) == 800.0
    assert loss_grad(-800.0) == pytest.approx(-1.0, abs=1e-300)
    assert loss(800.0) == 0.0  # underflow, no overflow warnings
    assert -1e-300 < loss_grad(800.0) < 0 or loss_grad(800.0) == 0.0


def test_loss_grad_bounds_and_shape_of_loss():
    z = np.linspace(-30, 30, 2001)
    g = loss_grad(z)
    assert np.all(g > -1) and np.all(g < 0)
    vals = loss(z)
    d1 = np.diff(vals)
    assert np.all(d1 < 0)  # strictly decreasing
    d2 = np.diff(vals, 2)
    assert np.all(d2 > -1e-12)  # convex up to roundoff


def test_batch_loss_zero_weights_is_log2():
    rng = np.random.default_rng(3)
    w, patches, y, _ = random_instance(rng)
    assert batch_loss(np.zeros_like(w), patches, y) == pytest.approx(np.log(2), rel=1e-12)


def test_batch_loss_nonnegative_and_mixture():
    rng = np.random.default_rng(4)
    w, patches, y, _ = random_instance(rng, B=6)
    total = batch_loss(w, patches, y)
    assert total >= 0
    la = batch_loss(w, patches[:2], y[:2])
    lb = batch_loss(w, patches[2:], y[2:])
    assert total == pytest.approx((2 * la + 4 * lb) / 6, rel=1e-12)


def test_gradient_zero_weights_hand_case():
    """W=0, one sample: every relu' fires (relu'(0)=1), l' = -1/2, so
    grad_{j,r} = -(1/2) j (xi + mu) / (B m) with the (P-1) noise weight."""
    mu = np.array([2.0, 0.0, 0.0])
    xi = np.array([0.5, -1.0, 2.0])
    ds = manual_dataset(mu, xi, y=1, y_hat=1, signal_pos=0, P=2)
    w = np.zeros((2, 1, 3))
    g, _ = _gradient(w, ds)
    expected_plus = -0.5 * (xi + mu)
    assert np.allclose(g[0, 0], expected_plus, rtol=1e-14, atol=0)
    assert np.allclose(g[1, 0], -expected_plus, rtol=1e-14, atol=0)
    # both the signal and the noise patch sit on the kink and count as active:
    # each gets the whole coefficient j l'(0) y / (B m) = -j/2
    coeffs, _ = model_grad_coeffs(*model_preacts(w, mu, xi[None]), ds.y, ds.y_hat, 2)
    assert np.array_equal(coeffs, np.array([[-0.5, -0.5], [0.5, 0.5]]))


def test_gradient_matches_signal_noise_form():
    """The generic patch-sum gradient equals the explicit two-term
    signal/noise expression on model data."""
    rng = np.random.default_rng(5)
    w, patches, y, ds = random_instance(rng, d=7, m=3, P=4, B=5)
    y_hat = ds.y_hat
    xi = ds.xi
    mu = ds.mu
    P, m, B = 4, 3, 5
    f = forward(w, patches)
    ell = loss_grad(y * f)
    js = np.array([1.0, -1.0])
    sig_pre = np.einsum("jmd,d->jm", w, mu)[None] * y_hat[:, None, None]
    noi_pre = np.einsum("jmd,nd->njm", w, xi)
    expected = js[:, None, None] * (
        (P - 1) / (B * m) * np.einsum("n,njm,nd->jmd", ell * y, noi_pre >= 0, xi)
        + np.einsum("n,njm->jm", ell * y * y_hat, sig_pre >= 0)[:, :, None]
        * mu[None, None, :] / (B * m)
    )
    g, terms = _gradient(w, ds)
    assert np.allclose(g, expected, rtol=1e-13, atol=1e-15)
    assert np.allclose(terms.margins, y * f, rtol=1e-13, atol=0)


def test_gradient_repeated_sample_equals_single():
    rng = np.random.default_rng(6)
    w, _, _, ds = random_instance(rng, B=1)
    g1 = _gradient(w, ds)[0]
    rep = (np.repeat(a, 8, axis=0) for a in (ds.xi, ds.y, ds.y_hat))
    g8 = model_gradient(w, ds.mu, *rep, ds.params.P)[0]
    assert np.allclose(g1, g8, rtol=1e-12, atol=1e-16)


def test_gradient_finite_difference_small():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 5:
        w, patches, y, ds = random_instance(rng, d=10, m=2, P=3, B=4)
        if min_kink_distance(w, patches) < 1e-4:
            continue
        g = _gradient(w, ds)[0]
        fd = fd_gradient(w, patches, y)
        rel = np.max(np.abs(fd - g)) / np.max(np.abs(g))
        assert rel <= 1e-6
        checked += 1


def test_gradient_lies_in_data_span():
    rng = np.random.default_rng(13)
    w, _, _, ds = random_instance(rng, d=40, m=3, P=2, B=6)
    g = _gradient(w, ds)[0]
    basis = np.vstack([ds.mu[None], ds.xi])
    for row in g.reshape(-1, 40):
        sol, *_ = np.linalg.lstsq(basis.T, row, rcond=None)
        resid = np.linalg.norm(row - basis.T @ sol)
        assert resid <= 1e-10 * max(np.linalg.norm(row), 1e-30)


def test_empty_batch_rejected():
    w = np.zeros((2, 1, 3))
    with pytest.raises(ValueError, match="empty"):
        model_gradient(w, np.zeros(3), np.zeros((0, 3)), np.zeros(0), np.zeros(0), 2)


def test_weights_roundtrip(tmp_path):
    w = np.random.default_rng(0).normal(size=(2, 4, 6))
    save_weights(tmp_path / "w.npz", w)
    back = load_weights(tmp_path / "w.npz")
    assert np.array_equal(w, back)
