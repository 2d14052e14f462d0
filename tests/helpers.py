"""Shared test utilities: the model's reference definitions, independent
oracles and small instance builders.

The reference definitions are the patch network (patch_preacts, forward,
batch_loss) on any (B, P, d) input, which samdyn.network computes in its
(mu, xi) form, the d-space gradient model_gradient, reconstruct, the map
from decomposition coefficients back to weights, and track_step, the
paper's coefficient recurrence one step at a time, which RecurrenceTracker
applies to every step of a run.  samdyn's CoeffTracker reads the same
coefficients off each step's C instead; the tests compare the two.
"""

from typing import NamedTuple

import numpy as np

from samdyn.data import DataParams, Dataset, DegenerateBasisError, gen_dataset, make_signal
from samdyn.decomposition import Coeffs
from samdyn.experiments import estimate_test_error
from samdyn.network import (J_SIGNS, init_weights, loss, loss_grad, model_grad_coeffs,
                            model_margins, model_preacts, span_vectors)
from samdyn.optim import epoch_schedule


def patch_preacts(w, patches):
    """Pre-activations <w_{j,r}, x^(p)>: weights (..., 2, m, d) on patches
    (B, P, d) give (..., B, 2, m, P), so a stack of weight arrays shares
    one product."""
    if w.ndim < 3 or w.shape[-3] != 2:
        raise ValueError(f"weights must have shape (..., 2, m, d), got {w.shape}")
    if patches.shape[-1] != w.shape[-1]:
        raise ValueError(f"input dim {patches.shape[-1]} does not match weight dim {w.shape[-1]}")
    return np.einsum("...jmd,bpd->...bjmp", w, patches)


def forward(w, patches):
    """Network output f(W, x); accepts one input (P, d) or a batch (B, P, d),
    and for a batch a stack of weight arrays, giving (..., B)."""
    single = patches.ndim == 2
    pre = patch_preacts(w, patches[None] if single else patches)
    fj = np.maximum(pre, 0.0).sum(axis=(-2, -1)) / w.shape[-2]  # (..., B, 2)
    f = fj[..., 0] - fj[..., 1]
    return float(f[0]) if single else f


def batch_loss(w, patches, y):
    """Mean logistic loss over the batch; one per weight array of a stack."""
    out = np.mean(loss(y * forward(w, patches)), axis=-1)
    return float(out) if out.ndim == 0 else out


def model_gradient(w, mu, xi, y, y_hat, P):
    """Exact gradient of batch_loss on the model-data batch (mu, xi, y,
    y_hat) in d-space, and the BatchTerms it was formed from: the
    coefficients of model_grad_coeffs at w, times [mu; xi]."""
    coeffs, terms = model_grad_coeffs(*model_preacts(w, mu, xi), y, y_hat, P)
    return span_vectors(coeffs, mu, xi), terms


def reconstruct(coeffs, ds, w0):
    """Rebuild weights from decomposition coefficients on the span of ds:
    the inverse of the read-off."""
    mu_norm_sq, xi_norm_sq = ds.gram[0, 0], np.diag(ds.gram)[1:]
    w = w0 + np.einsum(
        "jmn,nd->jmd", coeffs.rho / xi_norm_sq[None, None, :], ds.xi
    ) / (ds.params.P - 1)
    if mu_norm_sq == 0:
        if np.any(coeffs.gamma != 0):
            raise DegenerateBasisError("nonzero gamma with zero-norm mu")
        return w
    gdir = (J_SIGNS[:, None] * coeffs.gamma / mu_norm_sq)[:, :, None]
    return w + gdir * ds.mu[None, None, :]


def zero_coeffs(m, n):
    """The Coeffs of m filters per class and n samples at initialization."""
    return Coeffs(gamma=np.zeros((2, m)), zeta=np.zeros((2, m, n)), omega=np.zeros((2, m, n)))


def track_step(coeffs, *, batch, terms, y, y_hat, eta, P, mu_norm_sq, xi_norm_sq):
    """Advance the coefficients by one batch step.

    terms must be the BatchTerms the optimizer step descended along; the
    loss derivatives ell = loss_grad(margins) and the activation
    indicators sig_act = 1(y_hat_i <w, mu> >= 0) and noise_act =
    1(<w, xi_i> >= 0), both (2, m, B), are formed from them as
    model_grad_coeffs forms them.  The gamma increment is
    -(eta ||mu||^2/(Bm)) sum_i ell_i sig_act y_i y_hat_i (clean samples
    push, flipped samples pull), and each in-batch sample adds
    -(eta (P-1)^2/(Bm)) ell_i noise_act ||xi_i||^2 to its own zeta
    (y_i = j row) or the negation to omega (y_i = -j row).
    """
    yb, y_hat_b = y[batch], y_hat[batch]
    ell = loss_grad(terms.margins)
    sig_act = (y_hat_b[None, None, :] * terms.mu_pre[:, :, None] >= 0).astype(np.float64)
    noise_act = (terms.noise_pre >= 0).astype(np.float64)
    B, m = len(batch), sig_act.shape[1]
    if ell.shape != (B,) or noise_act.shape[-1] != B:
        raise ValueError("margin/pre-activation shapes do not match the batch")
    gy = ell * yb * y_hat_b
    gamma = coeffs.gamma - (eta * mu_norm_sq / (B * m)) * np.einsum(
        "jmb,b->jm", sig_act, gy
    )

    coef = -(eta * (P - 1) ** 2 / (B * m)) * ell * xi_norm_sq[batch]  # (B,) >= 0
    contrib = noise_act * coef[None, None, :]  # (2, m, B)
    own = (yb == J_SIGNS[:, None])[:, None, :]  # a batch lists each sample once
    zeta = coeffs.zeta.copy()
    omega = coeffs.omega.copy()
    zeta[:, :, batch] += np.where(own, contrib, 0.0)
    omega[:, :, batch] -= np.where(own, 0.0, contrib)
    return Coeffs(gamma=gamma, zeta=zeta, omega=omega)


class RecurrenceState(NamedTuple):
    """A state of RecurrenceTracker: the Coeffs the recurrence reached."""

    t: int
    b: int
    step: int
    coeffs: Coeffs


class RecurrenceTracker:
    """Training hook that applies track_step to every step of a run of
    step size eta, from zero: the coefficient recurrence as the reference
    for CoeffTracker.  history holds every state, the zero state first;
    state_at and coeffs read it as CoeffTracker's do."""

    def __init__(self, ds, m, eta):
        self.kw = dict(y=ds.y, y_hat=ds.y_hat, eta=eta, P=ds.params.P,
                       mu_norm_sq=float(ds.gram[0, 0]), xi_norm_sq=np.diag(ds.gram)[1:])
        self.n = ds.n
        self.history = [RecurrenceState(0, 0, 0, zero_coeffs(m, ds.n))]

    def __call__(self, event):
        H = self.n // len(event.batch)
        t, b = (event.t + 1, 0) if event.b + 1 == H else (event.t, event.b + 1)
        coeffs = track_step(self.history[-1].coeffs, batch=event.batch, terms=event.used,
                            **self.kw)
        self.history.append(RecurrenceState(t, b, event.step + 1, coeffs))

    @property
    def coeffs(self):
        return self.history[-1].coeffs

    def state_at(self, t, b):
        return next(st for st in self.history if (st.t, st.b) == (t, b))


def fd_gradient(w, patches, y, h=1e-6):
    """Central finite differences of batch_loss over every weight
    coordinate, with the perturbed weights stacked into one patch product.
    This is the independent oracle for the analytic gradient: it evaluates
    the patch network and calls neither model_gradient, model_grad_coeffs,
    model_margins nor anything in optim."""
    flat = w.ravel()
    k = flat.size
    step = h * np.eye(k)
    plus = batch_loss((flat + step).reshape(k, *w.shape), patches, y)
    minus = batch_loss((flat - step).reshape(k, *w.shape), patches, y)
    return ((plus - minus) / (2 * h)).reshape(w.shape)


def min_kink_distance(w, patches):
    """Smallest |<w_{j,r}, x^(p)>| over the batch; used to reject
    configurations too close to a ReLU kink for finite differencing."""
    return float(np.min(np.abs(patch_preacts(w, patches))))


def random_instance(rng, d=None, m=None, P=None, B=None, mu_norm=None, p=0.0):
    """A random small (weights, patches, y) triple plus its dataset."""
    d = d or int(rng.integers(3, 65))
    m = m or int(rng.integers(1, 9))
    P = P or int(rng.integers(2, 5))
    B = B or int(rng.integers(1, 17))
    mu_norm = mu_norm if mu_norm is not None else float(rng.uniform(0.5, 3.0))
    params = DataParams(d=d, P=P, sigma_p=1.0, p=p, mu_norm=mu_norm)
    ds = gen_dataset(params, make_signal(d, mu_norm), B, seed=int(rng.integers(2**31)))
    w = rng.normal(0.0, 0.3, size=(2, m, d))
    return w, ds.patches(), ds.y, ds


def manual_dataset(mu, xi, y, y_hat, signal_pos, P):
    """A one-sample Dataset built by hand for closed-form checks."""
    mu = np.asarray(mu, dtype=float)
    return Dataset(
        mu=mu, xi=np.asarray(xi, dtype=float)[None, :], y=np.array([float(y)]),
        y_hat=np.array([float(y_hat)]), signal_pos=np.array([signal_pos]),
        params=DataParams(d=mu.size, P=P, mu_norm=float(np.linalg.norm(mu))),
    )


def reference_dataset_arrays(params, n, seed):
    """gen_dataset's arrays rebuilt from the documented stream layout: one
    child of SeedSequence(seed) per sample, drawing the true label, the
    flip, the noise vector and the signal position in that order."""
    d = params.d
    y, y_hat = np.empty(n), np.empty(n)
    xi, signal_pos = np.empty((n, d)), np.empty(n, dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        y_hat[i] = 1.0 if rng.random() < 0.5 else -1.0
        y[i] = -y_hat[i] if rng.random() < params.p else y_hat[i]
        xi[i] = rng.normal(0.0, params.sigma_p, size=d)
        signal_pos[i] = rng.integers(params.P)
    return y, y_hat, xi, signal_pos


def dspace_train(ds, net, cfg):
    """optim.train replayed with d-space weights: the same initialization,
    batch schedule and recording rule, with every step taken along
    model_gradient and every record read from model_preacts.  The
    reference the span-space engine is compared against.  Returns the
    records as dicts (t, b, margins, mu_pre, noise_pre, weights) and the
    final weights."""
    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    w = init_weights(net, np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)
    P, H = ds.params.P, ds.n // cfg.B
    records = []

    def record(t, b):
        mu_pre, noise_pre = model_preacts(w, ds.mu, ds.xi)
        margins = model_margins(mu_pre, noise_pre, ds.y, ds.y_hat, P)
        records.append({"t": t, "b": b, "margins": margins, "mu_pre": mu_pre,
                        "noise_pre": noise_pre, "weights": w.copy()})

    s = 0
    for t in range(cfg.epochs):
        for b, idx in enumerate(epoch_schedule(ds.n, cfg.B, shuffle_rng)):
            if s % (H if cfg.record_every is None else cfg.record_every) == 0:
                record(t, b)
            batch = (ds.mu, ds.xi[idx], ds.y[idx], ds.y_hat[idx], P)
            g = model_gradient(w, *batch)[0]
            sam_now = cfg.algo == "sam" and (
                cfg.sam_phase_iters is None or s < cfg.sam_phase_iters)
            norm = float(np.sqrt(np.sum(g * g)))
            if sam_now and cfg.tau > 0.0 and norm > 0.0:
                g = model_gradient(w + (cfg.tau / norm) * g, *batch)[0]
            w = w - cfg.eta * g
            s += 1
    record(cfg.epochs, 0)
    return records, w


def score_weights(ws, params, mu, n_test, rng):
    """(rate, stderr) of each plain weight array in ws on one test draw:
    estimate_test_error projects the draw onto all their filters stacked,
    and each array is scored on its own rows."""
    two_m = ws[0].shape[0] * ws[0].shape[1]
    draw = estimate_test_error(np.concatenate([w.reshape(two_m, -1) for w in ws]), params,
                               n_test, rng)
    return [draw.error(w @ mu, np.ascontiguousarray(draw.t[i * two_m:(i + 1) * two_m])
                       .reshape(w.shape[:2] + (-1,)))
            for i, w in enumerate(ws)]


def reference_test_error(w, params, mu, n_test, rng):
    """Monte Carlo test error from the documented test-draw stream: chunks
    of 256 samples, each drawing the true labels, the flips, then a fresh
    (k, d) block of N(0, sigma_p^2) noise with rng.normal.  The reference
    estimate_test_error's shared, buffered draws are compared against."""
    errors, remaining = 0, n_test
    while remaining > 0:
        k = min(256, remaining)
        y_hat = np.where(rng.random(k) < 0.5, 1.0, -1.0)
        y = np.where(rng.random(k) < params.p, -y_hat, y_hat)
        xi = rng.normal(0.0, params.sigma_p, size=(k, params.d))
        mu_pre, noise_pre = model_preacts(w, mu, xi)
        errors += int(np.sum(model_margins(mu_pre, noise_pre, y, y_hat, params.P) <= 0))
        remaining -= k
    rate = errors / n_test
    return rate, np.sqrt(rate * (1 - rate) / n_test)
