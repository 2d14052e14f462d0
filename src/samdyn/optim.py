"""Minibatch SGD and sharpness-aware minimization (SAM) training loops.

Epoch/batch indexing follows the recurrence convention: state (t, b) is the
weight configuration before batch b of epoch t is applied, and (t+1, 0) is
the same state as (t, H).  Trajectory records always refer to such states.

The SAM step perturbs the weights by tau * g/||g||_F (Frobenius norm over
all 2m filters), then descends along the full gradient evaluated at the
perturbed point.  A zero gradient or tau=0 yields a zero perturbation and
the step degenerates to plain SGD on the identical code path, so tau=0 runs
are bitwise equal to SGD runs.

Training runs in span{mu, xi_1..xi_n}.  Every update moves a filter by a
combination of mu and the batch's xi_i, so the weights are kept as
w0 + C [mu; xi] with a (2m, n+1) coefficient matrix C.  The Gram matrix G
of [mu; xi] is the dataset's own (Dataset.gram) and the projections of w0
onto [mu; xi] are computed once per run; after that every pre-activation a
step or record needs is <w0, v_k> + C G_k, the gradient is a coefficient
matrix (network.model_grad_coeffs), the SAM norm is ||g||_F^2 = sum (g G) * g
and the SAM perturbation shifts C on the batch columns.  A step therefore
costs O(m n B) whatever d is; d-vectors are formed only when a record's
weights are read (snapshot_weights) and, on first access,
Trajectory.w_final.  G is multiplied, never inverted, so mu = 0 or n >= d
needs no special case.  Every record keeps its C and no d-space array:
decomposition.span_view reads the signal/noise coefficients off C, and
under snapshot_weights a record's weights are w0 + C [mu; xi], formed on
each read.

Hooks are called once per batch step with a StepEvent carrying the batch
terms at the weights and at the point the descent gradient was taken (for
SAM, the perturbed weights), and the coefficients C after the step, from
which the signal/noise coefficient tracker reads every state.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset
from .network import (BatchTerms, NetConfig, init_weights, loss, model_grad_coeffs,
                      model_margins, model_preacts, span_vectors)
from .tables import write_csv


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.sam_phase_iters is not None and self.sam_phase_iters < 0:
            raise ValueError(f"sam_phase_iters must be >= 0, got {self.sam_phase_iters}")
        if self.algo == "sgd" and (self.tau > 0 or self.sam_phase_iters is not None):
            raise ValueError("tau > 0 and sam_phase_iters apply to algo = sam only, "
                             f"got tau={self.tau}, sam_phase_iters={self.sam_phase_iters} "
                             "with algo = sgd")


@dataclass
class StepEvent:
    """What one optimizer step did: the batch terms at the weights w (at_w)
    and at the weights the descent gradient was taken at (used: the
    perturbed weights for SAM, the same object as at_w for SGD), and the
    coefficients after the step."""

    t: int
    b: int
    step: int
    batch: np.ndarray   # (B,) sample indices
    tau: float          # effective radius; 0 when no perturbation applied
    at_w: BatchTerms
    used: BatchTerms
    c: np.ndarray       # (2m, n+1) C after the step; training never writes to it


@dataclass
class TrajectoryRecord:
    t: int
    b: int
    train_loss: float
    margins: np.ndarray    # (n,) y_i f(W, x_i)
    mu_pre: np.ndarray     # (2, m) <w_{j,r}, mu>
    noise_pre: np.ndarray  # (2, m, n) <w_{j,r}, xi_i>
    c: np.ndarray          # (2m, n+1) coefficients: w = w0 + C [mu; xi]
    span: "_Span | None" = None  # the run's span, under snapshot_weights

    @property
    def weights(self) -> np.ndarray | None:
        """The (2, m, d) weights w0 + C [mu; xi] under snapshot_weights,
        formed on every read and not kept; None without snapshot_weights."""
        return None if self.span is None else self.span.weights(self.c)


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


class _Span:
    """The weights w0 + C [mu; xi] of one run, for coefficients C of
    shape (2m, n+1): the dataset's Gram matrix and the (2m, n+1) inner
    products of w0's filters with [mu; xi_1..xi_n], computed once."""

    def __init__(self, w0: np.ndarray, ds: Dataset):
        self.w0, self.ds, self.gram = w0, ds, ds.gram
        mu_pre, noise_pre = model_preacts(w0, ds.mu, ds.xi)
        two_m = 2 * w0.shape[1]
        self.base = np.hstack([mu_pre.reshape(two_m, 1), noise_pre.reshape(two_m, ds.n)])

    def weights(self, c: np.ndarray) -> np.ndarray:
        return self.w0 + span_vectors(c, self.ds.mu, self.ds.xi)


@dataclass
class Trajectory:
    span: _Span
    records: list[TrajectoryRecord] = field(default_factory=list)
    schedules: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def w0(self) -> np.ndarray:
        return self.span.w0

    @cached_property
    def w_final(self) -> np.ndarray:
        """The final weights w0 + C [mu; xi] in d-space, formed on first access."""
        return self.span.weights(self.records[-1].c)

    def epoch_records(self) -> list[TrajectoryRecord]:
        return [r for r in self.records if r.b == 0]


def _split(pre: np.ndarray):
    """Inner products (2m, 1+B) with [mu; xi] -> mu_pre (2, m), noise_pre (2, m, B)."""
    m = len(pre) // 2
    return pre[:, 0].reshape(2, m), pre[:, 1:].reshape(2, m, -1)


def _step(span: _Span, c: np.ndarray, idx, eta: float, tau: float):
    """One descent step on rows idx of the dataset from the coefficients c;
    returns (c_next, terms_at_w, terms_used, perturbed)."""
    ds = span.ds
    cols = np.concatenate(([0], idx + 1))
    gram = span.gram[:, cols]
    batch = (ds.y[idx], ds.y_hat[idx], ds.params.P)
    pre = span.base[:, cols] + c @ gram
    g, at_w = model_grad_coeffs(*_split(pre), *batch)
    perturbed = False
    g_used, used = g, at_w
    if tau > 0.0:
        gram_cc = gram[cols]
        # ||g||_F^2 as a quadratic form; rounding can take it just below 0
        # when the basis is dependent and g is nearly 0 in d-space
        norm = math.sqrt(max(float(np.sum((g @ gram_cc) * g)), 0.0))
        if norm > 0.0:
            shift = (tau / norm) * g
            g_used, used = model_grad_coeffs(*_split(pre + shift @ gram_cc), *batch)
            perturbed = True
    c_next = c.copy()
    c_next[:, cols] -= eta * g_used
    return c_next, at_w, used, perturbed


def _state_stats(span: _Span, c: np.ndarray):
    """Pre-activations, margins and loss over the whole dataset at the
    coefficients c."""
    ds = span.ds
    mu_pre, noise_pre = _split(span.base + c @ span.gram)
    margins = model_margins(mu_pre, noise_pre, ds.y, ds.y_hat, ds.params.P)
    train_loss = float(np.mean(loss(margins)))
    return mu_pre, noise_pre, margins, train_loss


def initial_weights(net: NetConfig, seed: int) -> np.ndarray:
    """The (2, m, d) weights w0 that train starts a run of seed from:
    init_weights on the first stream SeedSequence(seed) spawns (the second
    shuffles the batches)."""
    return init_weights(net, np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]))


def train(ds: Dataset, net: NetConfig, cfg: TrainConfig, hooks=()) -> Trajectory:
    """Run epochs x batches of SGD or SAM over the dataset.

    Records the state before every cfg.record_every-th batch step (every
    epoch's first when it is None) plus the final state, calls each hook
    after every step, and aborts on non-finite loss.
    """
    n = ds.n
    if n % cfg.B != 0:
        raise ValueError(f"B={cfg.B} does not divide n={n}")
    stride = cfg.record_every or n // cfg.B

    span = _Span(initial_weights(net, cfg.seed), ds)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    c = np.zeros_like(span.base)

    traj = Trajectory(span)

    def record(t: int, b: int) -> None:
        mu_pre, noise_pre, margins, train_loss = _state_stats(span, c)
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
                c=c,
                span=span if cfg.snapshot_weights else None,
            )
        )

    s = 0
    for t in range(cfg.epochs):
        batches = epoch_schedule(n, cfg.B, shuffle_rng)
        traj.schedules.append(batches)
        for b, idx in enumerate(batches):
            if s % stride == 0:
                record(t, b)
            sam_now = cfg.algo == "sam" and (
                cfg.sam_phase_iters is None or s < cfg.sam_phase_iters
            )
            tau_eff = cfg.tau if sam_now else 0.0
            c_next, at_w, used, perturbed = _step(span, c, idx, cfg.eta, tau_eff)
            if not np.all(np.isfinite(used.margins)):
                raise TrainingDivergedError(f"non-finite margins at state ({t}, {b})")
            if hooks:
                event = StepEvent(t=t, b=b, step=s, batch=idx, tau=tau_eff if perturbed else 0.0,
                                  at_w=at_w, used=used, c=c_next)
                for hook in hooks:
                    hook(event)
            c = c_next
            s += 1

    record(cfg.epochs, 0)
    return traj


def write_metrics_csv(path, traj: Trajectory) -> None:
    """Per-record metrics: (t, b, train_loss, min_margin, max_margin)."""
    write_csv(path, ("t", "b", "train_loss", "min_margin", "max_margin"),
              [(r.t, r.b, r.train_loss, r.margins.min(), r.margins.max()) for r in traj.records])
