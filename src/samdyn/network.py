"""Two-layer convolutional ReLU network with fixed +-1/m second layer.

Weights are a single float64 array of shape (2, m, d).  Row 0 holds the
filters of the positive-class map, row 1 the negative-class map; J_SIGNS
maps row index to the class sign.  The network output is

    f(W, x) = F_+(x) - F_-(x),
    F_j(x)  = (1/m) sum_r sum_p relu(<w_{j,r}, x^(p)>),

and training minimizes the mean logistic loss l(z) = log(1 + exp(-z)) over
a batch.  The ReLU subgradient at 0 is fixed to 1, so kink behaviour is
deterministic.

This module computes the model in its (mu, xi) form; the patch form above,
on any (B, P, d) input, is the tests' reference (tests/helpers.py).  On
model data a filter sees only <w, y_hat mu> and <w, xi>, so model_preacts
forms those products, model_margins the outputs, and no patch tensor is
built.  The gradient is a combination of mu and the batch's xi_i, and
model_grad_coeffs gives its coefficients from the pre-activations alone:
training (optim) runs on those coefficients and never forms a d-vector per
step, and span_vectors maps coefficient rows to filters where d-space
weights are wanted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tables import read_npz

# weight row 0 <-> class +1, row 1 <-> class -1
J_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class NetConfig:
    m: int
    d: int
    init: str = "uniform_fan_in"  # "gaussian" | "uniform_fan_in"
    sigma_0: float | None = None  # the gaussian init's std, set exactly when init is gaussian

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.init not in ("gaussian", "uniform_fan_in"):
            raise ValueError(f"init must be gaussian or uniform_fan_in, got {self.init!r}")
        if (self.sigma_0 is None) == (self.init == "gaussian"):
            raise ValueError(f"sigma_0 must be set with init = gaussian and only then, "
                             f"got init = {self.init}, sigma_0 = {self.sigma_0}")
        if self.sigma_0 is not None and not (math.isfinite(self.sigma_0) and self.sigma_0 >= 0):
            raise ValueError(f"sigma_0 must be finite and >= 0, got {self.sigma_0}")


def init_weights(cfg: NetConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian N(0, sigma_0^2) entries, or U(-1/sqrt(d), 1/sqrt(d)) for
    the fan-in scheme that stands in for framework-default init."""
    if cfg.init == "gaussian":
        return rng.normal(0.0, cfg.sigma_0, size=(2, cfg.m, cfg.d))
    bound = 1.0 / np.sqrt(cfg.d)
    return rng.uniform(-bound, bound, size=(2, cfg.m, cfg.d))


def _check_dims(w: np.ndarray, x: np.ndarray) -> None:
    if w.ndim != 3 or w.shape[0] != 2:
        raise ValueError(f"weights must have shape (2, m, d), got {w.shape}")
    if x.shape[-1] != w.shape[-1]:
        raise ValueError(f"input dim {x.shape[-1]} does not match weight dim {w.shape[-1]}")


def loss(z) -> np.ndarray:
    """log(1 + exp(-z)), overflow-safe on both tails; a float64 for a scalar z."""
    z = np.asarray(z, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)


def loss_grad(z) -> np.ndarray:
    """d/dz log(1 + exp(-z)) = -1/(1 + exp(z)), in (-1, 0); a float64 for a scalar z."""
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, -t, -1.0) / (1.0 + t)


@dataclass(frozen=True)
class BatchTerms:
    """Per-batch terms at one weight point: the pre-activations a gradient
    was formed from and the margins they give."""

    mu_pre: np.ndarray     # (2, m) <w_{j,r}, mu>
    noise_pre: np.ndarray  # (2, m, B) <w_{j,r}, xi_i>
    margins: np.ndarray    # (B,) y_i f(W, x_i)


def model_preacts(w: np.ndarray, mu: np.ndarray, xi: np.ndarray):
    """<w_{j,r}, mu> (2, m) and <w_{j,r}, xi_i> (2, m, B) for xi (B, d)."""
    _check_dims(w, xi)
    two, m, d = w.shape
    return w @ mu, (w.reshape(two * m, d) @ xi.T).reshape(two, m, len(xi))


def model_margins(mu_pre, noise_pre, y, y_hat, P: int) -> np.ndarray:
    """y_i f(W, x_i) on model data: the signal patch contributes
    relu(y_hat_i <w, mu>) once and the noise patch relu(<w, xi_i>) P-1 times."""
    return _margins(y_hat[None, None, :] * mu_pre[:, :, None], noise_pre, y, P)


def _margins(sig_pre, noise_pre, y, P: int) -> np.ndarray:
    """model_margins from sig_pre (2, m, B), the products <w_{j,r}, y_hat_i mu>."""
    m = sig_pre.shape[1]
    sig = np.maximum(sig_pre, 0.0).sum(axis=1)  # (2, B)
    noi = np.maximum(noise_pre, 0.0).sum(axis=1)  # (2, B)
    fj = (sig + (P - 1) * noi) / m
    return y * (fj[0] - fj[1])


def model_grad_coeffs(mu_pre, noise_pre, y, y_hat, P: int) -> tuple[np.ndarray, BatchTerms]:
    """The gradient of the mean logistic loss on a model-data batch as
    coefficients on [mu; xi_1..xi_B], from the pre-activations mu_pre (2, m) and
    noise_pre (2, m, B), with relu'(0) = 1, and the BatchTerms it was
    formed from.  Rows follow the weights' (2, m) filter order, so row
    k*m + r holds the coefficients of grad_{j,r} for j = J_SIGNS[k]:

    grad_{j,r} = (j/(B m)) sum_i l'_i y_i [1(<w_{j,r}, y_hat_i mu> >= 0) y_hat_i mu
                                          + (P-1) 1(<w_{j,r}, xi_i> >= 0) xi_i]

    which is the patch-sum gradient with the signal patch counted once and
    the noise patch P-1 times.
    """
    B = len(y)
    if B == 0:
        raise ValueError("batch is empty")
    m = mu_pre.shape[1]
    sig_pre = y_hat[None, None, :] * mu_pre[:, :, None]
    margins = _margins(sig_pre, noise_pre, y, P)
    ell = loss_grad(margins)
    sig_act = (sig_pre >= 0).astype(np.float64)
    noise_act = (noise_pre >= 0).astype(np.float64)
    gy = ell * y
    coeffs = np.empty((2, m, 1 + B))
    coeffs[:, :, 0] = sig_act @ (gy * y_hat)
    coeffs[:, :, 1:] = (P - 1) * noise_act * gy
    coeffs /= B * m
    coeffs *= J_SIGNS[:, None, None]
    terms = BatchTerms(mu_pre=mu_pre, noise_pre=noise_pre, margins=margins)
    return coeffs.reshape(2 * m, 1 + B), terms


def span_vectors(coeffs: np.ndarray, mu: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Filters (2, m, d) from coefficient rows (2m, 1+B) on [mu; xi_1..xi_B]."""
    rows = coeffs[:, :1] * mu + coeffs[:, 1:] @ xi
    return rows.reshape(2, -1, len(mu))


def save_weights(path, w: np.ndarray) -> None:
    """Checkpoint container at exactly path: d, m and the row-major filter dump."""
    with open(path, "wb") as fh:  # np.savez appends .npz to a path name
        np.savez(fh, shape=np.array(w.shape, dtype=np.int64), w=w)


def load_weights(path) -> np.ndarray:
    """Read a save_weights checkpoint.  Raises ValueError, naming the file,
    when w is not a real floating array, the shape entry is not a 1-D
    integer array or disagrees with w's shape, or a weight is not finite."""
    arrays = read_npz(path, {"w": np.floating, "shape": np.integer})
    w, shape = arrays["w"], arrays["shape"]
    if shape.ndim != 1:
        raise ValueError(f"{path}: shape entry has dtype {shape.dtype} and shape "
                         f"{shape.shape}, expected a 1-D integer array")
    header = tuple(int(v) for v in shape)
    if w.shape != header:
        raise ValueError(f"{path}: corrupt checkpoint: header {header} vs array {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{path}: weights hold a non-finite value")
    return w
