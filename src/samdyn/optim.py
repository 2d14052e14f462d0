"""Minibatch SGD and sharpness-aware minimization (SAM) training loops.

Epoch/batch indexing follows the recurrence convention: state (t, b) is the
weight configuration before batch b of epoch t is applied, and (t+1, 0) is
the same state as (t, H).  Trajectory records always refer to such states.

The SAM step perturbs the weights by tau * g/||g||_F (Frobenius norm over
all 2m filters), then descends along the full gradient evaluated at the
perturbed point.  A zero gradient or tau=0 yields a zero perturbation and
the step degenerates to plain SGD on the identical code path, so tau=0 runs
are bitwise equal to SGD runs.

Steps and records use the (mu, xi) form of the model and never build the
patch tensor.  Hooks are called once per batch step with a StepEvent
carrying the exact loss derivatives and activation indicators the step used
(for SAM, those of the perturbed weights), which is what allows the
signal/noise coefficient tracker to reproduce the weight trajectory exactly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .network import (BatchTerms, NetConfig, init_weights, loss, model_gradient,
                      model_margins, model_preacts)


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    eta: float
    B: int
    epochs: int
    algo: str = "sgd"  # "sgd" | "sam"
    tau: float = 0.0
    seed: int = 0
    record_every: int | None = None   # batch-step stride; None -> epoch boundaries
    sam_phase_iters: int | None = None  # switch SAM -> SGD after this many steps
    snapshot_weights: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.algo not in ("sgd", "sam"):
            raise ValueError(f"algo must be sgd or sam, got {self.algo!r}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class StepEvent:
    """What one optimizer step did: the batch terms at the weights w (at_w)
    and at the weights the descent gradient was taken at (used: the
    perturbed weights for SAM, the same object as at_w for SGD)."""

    t: int
    b: int
    step: int
    batch: np.ndarray   # (B,) sample indices
    eta: float
    tau: float          # effective radius; 0 when no perturbation applied
    at_w: BatchTerms
    used: BatchTerms


@dataclass
class TrajectoryRecord:
    t: int
    b: int
    train_loss: float
    margins: np.ndarray    # (n,) y_i f(W, x_i)
    mu_pre: np.ndarray     # (2, m) <w_{j,r}, mu>
    noise_pre: np.ndarray  # (2, m, n) <w_{j,r}, xi_i>
    weights: np.ndarray | None = None


@dataclass
class Trajectory:
    records: list[TrajectoryRecord] = field(default_factory=list)
    schedules: list[list[np.ndarray]] = field(default_factory=list)
    w0: np.ndarray | None = None
    w_final: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def epoch_records(self) -> list[TrajectoryRecord]:
        return [r for r in self.records if r.b == 0]


def epoch_schedule(n: int, B: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniformly random partition of [n] into H = n/B batches of size B.

    The full-batch case returns the identity order without consuming the
    stream: batch membership is what matters, and a fixed within-batch
    order keeps full-batch runs independent of the shuffle seed down to
    float summation order.
    """
    if n % B != 0:
        raise ValueError(f"B={B} does not divide n={n}")
    if B == n:
        return [np.arange(n)]
    perm = rng.permutation(n)
    return list(perm.reshape(n // B, B))


def grad_frobenius_norm(g: np.ndarray) -> float:
    return float(np.sqrt(np.sum(g * g)))


def _step(w, ds: Dataset, idx, eta: float, tau: float):
    """One descent step on rows idx of the dataset; returns
    (w_next, terms_at_w, terms_used, w_used, perturbed)."""
    batch = (ds.mu, ds.xi[idx], ds.y[idx], ds.y_hat[idx], ds.params.P)
    g, at_w = model_gradient(w, *batch)
    perturbed = False
    w_used, g_used, used = w, g, at_w
    if tau > 0.0:
        norm = grad_frobenius_norm(g)
        if norm > 0.0:
            w_used = w + (tau / norm) * g
            g_used, used = model_gradient(w_used, *batch)
            perturbed = True
    return w - eta * g_used, at_w, used, w_used, perturbed


def _state_stats(w, ds: Dataset):
    """Margins and loss at a state from the (2,m) x mu and (2,m,n) x xi
    pre-activations; costs one pass over the weights per record."""
    mu_pre, noise_pre = model_preacts(w, ds.mu, ds.xi)
    margins = model_margins(mu_pre, noise_pre, ds.y, ds.y_hat, ds.params.P)
    train_loss = float(np.mean(loss(margins)))
    return mu_pre, noise_pre, margins, train_loss


def train(ds: Dataset, net: NetConfig, cfg: TrainConfig, hooks=()) -> Trajectory:
    """Run epochs x batches of SGD or SAM over the dataset.

    Records the state before every due batch step plus the final state,
    calls each hook after every step, and aborts on non-finite loss.
    """
    n = ds.n
    if n % cfg.B != 0:
        raise ValueError(f"B={cfg.B} does not divide n={n}")
    H = n // cfg.B

    ss = np.random.SeedSequence(cfg.seed)
    init_ss, shuffle_ss = ss.spawn(2)
    w = init_weights(net, np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)

    traj = Trajectory(
        w0=w.copy(),
        meta={
            "n": n,
            "d": net.d,
            "m": net.m,
            "P": ds.params.P,
            "H": H,
            "algo": cfg.algo,
            "eta": cfg.eta,
            "tau": cfg.tau,
            "B": cfg.B,
            "epochs": cfg.epochs,
            "seed": cfg.seed,
            "record_every": cfg.record_every,
            "sam_phase_iters": cfg.sam_phase_iters,
            "init": net.init,
            "sigma_0": net.sigma_0,
        },
    )

    def due(s: int) -> bool:
        if cfg.record_every is None:
            return s % H == 0
        return s % cfg.record_every == 0

    def record(t: int, b: int) -> None:
        mu_pre, noise_pre, margins, train_loss = _state_stats(w, ds)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(f"non-finite train loss at state ({t}, {b})")
        traj.records.append(
            TrajectoryRecord(
                t=t,
                b=b,
                train_loss=train_loss,
                margins=margins,
                mu_pre=mu_pre,
                noise_pre=noise_pre,
                weights=w.copy() if cfg.snapshot_weights else None,
            )
        )

    s = 0
    for t in range(cfg.epochs):
        batches = epoch_schedule(n, cfg.B, shuffle_rng)
        traj.schedules.append(batches)
        for b, idx in enumerate(batches):
            if due(s):
                record(t, b)
            sam_now = cfg.algo == "sam" and (
                cfg.sam_phase_iters is None or s < cfg.sam_phase_iters
            )
            tau_eff = cfg.tau if sam_now else 0.0
            w_next, at_w, used, _w_used, perturbed = _step(w, ds, idx, cfg.eta, tau_eff)
            if not np.all(np.isfinite(used.margins)):
                raise TrainingDivergedError(f"non-finite margins at state ({t}, {b})")
            if hooks:
                event = StepEvent(t=t, b=b, step=s, batch=idx, eta=cfg.eta,
                                  tau=tau_eff if perturbed else 0.0, at_w=at_w, used=used)
                for hook in hooks:
                    hook(event)
            w = w_next
            s += 1

    record(cfg.epochs, 0)
    traj.w_final = w.copy()
    return traj


def write_metrics_csv(path, traj: Trajectory) -> None:
    """Stream per-record metrics: (t, b, train_loss, min_margin, max_margin)."""
    with open(path, "w") as fh:
        fh.write("t,b,train_loss,min_margin,max_margin\n")
        for r in traj.records:
            fh.write(
                f"{r.t},{r.b},{r.train_loss!r},"
                f"{float(r.margins.min())!r},{float(r.margins.max())!r}\n"
            )
