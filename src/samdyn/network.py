"""Two-layer convolutional ReLU network with fixed +-1/m second layer.

Weights are a single float64 array of shape (2, m, d).  Row 0 holds the
filters of the positive-class map, row 1 the negative-class map; J_SIGNS
maps row index to the class sign.  The network output is

    f(W, x) = F_+(x) - F_-(x),
    F_j(x)  = (1/m) sum_r sum_p relu(<w_{j,r}, x^(p)>),

and training minimizes the mean logistic loss l(z) = log(1 + exp(-z)) over
a batch.  The ReLU subgradient at 0 is fixed to 1, so kink behaviour is
deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

# weight row 0 <-> class +1, row 1 <-> class -1
J_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class NetConfig:
    m: int
    d: int
    init: str = "uniform_fan_in"  # "gaussian" | "uniform_fan_in"
    sigma_0: float = 0.01

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.init not in ("gaussian", "uniform_fan_in"):
            raise ValueError(f"init must be gaussian or uniform_fan_in, got {self.init!r}")
        if not (math.isfinite(self.sigma_0) and self.sigma_0 >= 0):
            raise ValueError(f"sigma_0 must be finite and >= 0, got {self.sigma_0}")


def init_weights(cfg: NetConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian N(0, sigma_0^2) entries, or U(-1/sqrt(d), 1/sqrt(d)) for
    the fan-in scheme that stands in for framework-default init."""
    if cfg.init == "gaussian":
        return rng.normal(0.0, cfg.sigma_0, size=(2, cfg.m, cfg.d))
    bound = 1.0 / np.sqrt(cfg.d)
    return rng.uniform(-bound, bound, size=(2, cfg.m, cfg.d))


def _check_dims(w: np.ndarray, patches: np.ndarray) -> None:
    if w.ndim != 3 or w.shape[0] != 2:
        raise ValueError(f"weights must have shape (2, m, d), got {w.shape}")
    if patches.shape[-1] != w.shape[-1]:
        raise ValueError(
            f"patch dim {patches.shape[-1]} does not match weight dim {w.shape[-1]}"
        )


def patch_preacts(w: np.ndarray, patches: np.ndarray) -> np.ndarray:
    """Pre-activations <w_{j,r}, x^(p)> for a batch.

    patches (B, P, d) -> (B, 2, m, P).
    """
    _check_dims(w, patches)
    return np.einsum("jmd,bpd->bjmp", w, patches)


def forward(w: np.ndarray, patches: np.ndarray) -> np.ndarray | float:
    """Network output f(W, x); accepts one input (P, d) or a batch (B, P, d)."""
    single = patches.ndim == 2
    pre = patch_preacts(w, patches[None] if single else patches)
    m = w.shape[1]
    fj = np.maximum(pre, 0.0).sum(axis=(2, 3)) / m  # (B, 2)
    f = fj[:, 0] - fj[:, 1]
    return float(f[0]) if single else f


def loss(z) -> np.ndarray | float:
    """log(1 + exp(-z)), overflow-safe on both tails."""
    z = np.asarray(z, dtype=np.float64)
    out = np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)
    return float(out) if out.ndim == 0 else out


def loss_grad(z) -> np.ndarray | float:
    """d/dz log(1 + exp(-z)) = -1/(1 + exp(z)), always in (-1, 0)."""
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))
    out = np.where(z >= 0, -t / (1.0 + t), -1.0 / (1.0 + t))
    return float(out) if out.ndim == 0 else out


def batch_loss(w: np.ndarray, patches: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss over the batch."""
    f = forward(w, patches)
    return float(np.mean(loss(y * f)))


@dataclass
class GradAux:
    """Quantities computed alongside a batch gradient, reused by the
    training loop and by decomposition hooks."""

    pre: np.ndarray      # (B, 2, m, P) pre-activations
    act: np.ndarray      # (B, 2, m, P) float indicators 1(pre >= 0)
    margins: np.ndarray  # (B,) y_i f(W, x_i)
    ell: np.ndarray      # (B,) loss_grad(margins)


def gradient_with_aux(w, patches, y) -> tuple[np.ndarray, GradAux]:
    """Exact gradient of batch_loss, with relu'(0) = 1, and its GradAux.

    grad_{j,r} = (1/(B m)) sum_i sum_p l'_i y_i j 1(<w_{j,r}, x_i^(p)> >= 0) x_i^(p)

    On model data (one signal patch y_hat*mu, P-1 copies of xi) this equals
    the signal/noise split form with the (P-1) noise multiplicity.
    """
    B = patches.shape[0]
    if B == 0:
        raise ValueError("batch is empty")
    m = w.shape[1]
    pre = patch_preacts(w, patches)
    fj = np.maximum(pre, 0.0).sum(axis=(2, 3)) / m
    margins = y * (fj[:, 0] - fj[:, 1])
    ell = loss_grad(margins)
    act = (pre >= 0).astype(np.float64)
    gy = ell * y
    grad = np.einsum("b,bjmp,bpd->jmd", gy, act, patches) / (B * m)
    grad *= J_SIGNS[:, None, None]
    return grad, GradAux(pre=pre, act=act, margins=margins, ell=ell)


def save_weights(path, w: np.ndarray) -> None:
    """Checkpoint container: d, m and the row-major filter dump."""
    np.savez(path, shape=np.array(w.shape, dtype=np.int64), w=w)


def load_weights(path) -> np.ndarray:
    with np.load(path) as z:
        w = z["w"]
        shape = tuple(int(v) for v in z["shape"])
    if w.shape != shape:
        raise ValueError(f"corrupt checkpoint: header {shape} vs array {w.shape}")
    return w
