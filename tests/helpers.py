"""Shared test utilities: independent oracles and small instance builders."""

import numpy as np

from samdyn.data import DataParams, Dataset, gen_dataset, make_signal
from samdyn.experiments import estimate_test_error
from samdyn.network import init_weights, model_gradient, model_margins, model_preacts
from samdyn.optim import epoch_schedule


def fd_gradient(w, patches, y, h=1e-6):
    """Central finite differences of the mean logistic loss over every
    weight coordinate, vectorized over a stack of perturbed weights.  This
    is the independent oracle for the analytic gradient: it reimplements
    the patch forward pass and never calls network.model_gradient."""
    flat = w.ravel()
    k = flat.size
    eye = np.eye(k)
    m = w.shape[1]

    def stack_losses(stack):
        pre = np.einsum("kjmd,bpd->kbjmp", stack, patches)
        fj = np.maximum(pre, 0.0).sum(axis=(3, 4)) / m  # (k, B, 2)
        z = y[None, :] * (fj[:, :, 0] - fj[:, :, 1])
        return (np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)).mean(axis=1)

    plus = stack_losses((flat[None, :] + h * eye).reshape(k, *w.shape))
    minus = stack_losses((flat[None, :] - h * eye).reshape(k, *w.shape))
    return ((plus - minus) / (2 * h)).reshape(w.shape)


def min_kink_distance(w, patches):
    """Smallest |<w_{j,r}, x^(p)>| over the batch; used to reject
    configurations too close to a ReLU kink for finite differencing."""
    pre = np.einsum("jmd,bpd->bjmp", w, patches)
    return float(np.min(np.abs(pre)))


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
    network.model_gradient and every record read from model_preacts.  The
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
