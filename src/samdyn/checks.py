"""Empirical verification of the structural training-dynamics properties.

Everything here is report-generating: the properties hold with high
probability under the theory's scaling conditions, so checkers count and
expose violations instead of asserting (the only hard assertions in the
package are the definitional coefficient patterns in decomposition.py).
Checkers are pure functions of recorded trajectories and re-running one on
the same trajectory reproduces the same report.  The coefficient ranges
are read off the tracked states' C's a block of states at a time, since no
state stores its gamma, zeta and omega.  The deactivation recorder is the
one hook here: it counts each perturbed step in that step's call.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import DELTA, DataParams, gen_dataset, make_signal
from .decomposition import coeff_blocks, own_label
from .network import NetConfig, loss_grad, model_preacts
from .optim import TrainConfig, Trajectory, train
from .tables import write_csv


@dataclass
class CheckReport:
    check: str
    window: str
    violations: int
    total: int
    worst_case_value: float
    detail: str = ""

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.total if self.total else 0.0


def write_report_csv(path, reports: list[CheckReport]) -> None:
    write_csv(path, [f.name for f in fields(CheckReport)], map(astuple, reports))


def effective_sigma0(net: NetConfig) -> float:
    """Init std used in activation thresholds; the fan-in uniform scheme
    U(-1/sqrt(d), 1/sqrt(d)) has std 1/sqrt(3d)."""
    if net.init == "gaussian":
        return net.sigma_0
    return 1.0 / math.sqrt(3 * net.d)


def activation_threshold(sigma_0: float, sigma_p: float, d: int) -> float:
    """Margin sigma_0 sigma_p sqrt(d)/sqrt(2) separating the persistent
    activation sets from the plain (threshold-0) ones."""
    return sigma_0 * sigma_p * math.sqrt(d) / math.sqrt(2)


def own_noise_pre(noise_pre: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample pre-activations of the filters matching the observed
    label: (2, m, n), (n,) -> (n, m)."""
    rows = (y < 0).astype(int)
    return noise_pre[rows, :, np.arange(y.size)]


@dataclass(frozen=True)
class TheoryConstants:
    """Scale constants entering the coefficient-range checks."""

    t_star: int
    alpha: float      # 4 log(T*)
    beta: float       # 2 max{|<w0, mu>|, (P-1)|<w0, xi_i>|}
    snr: float        # ||mu|| / ((P-1) sigma_p sqrt(d))
    gamma_hat: float  # n * snr^2
    c1_logit: float = 5.0

    @classmethod
    def from_run(
        cls,
        w0: np.ndarray,
        mu: np.ndarray,
        xis: np.ndarray,
        P: int,
        sigma_p: float,
        t_star: int,
    ) -> "TheoryConstants":
        n, d = xis.shape
        mu_pre, noise_pre = model_preacts(w0, mu, xis)
        beta = 2.0 * max(float(np.abs(mu_pre).max()), (P - 1) * float(np.abs(noise_pre).max()))
        snr = float(np.linalg.norm(mu)) / ((P - 1) * sigma_p * math.sqrt(d))
        return cls(
            t_star=t_star,
            alpha=4.0 * math.log(t_star),
            beta=beta,
            snr=snr,
            gamma_hat=n * snr**2,
        )


def check_set_monotonicity(traj: Trajectory, y: np.ndarray, threshold: float) -> CheckReport:
    """Growth of the per-sample activated-filter sets.

    For each sample the thresholded set at consecutive epoch boundaries
    must be non-decreasing, and the boundary set must stay inside the
    plain (threshold-0) set at every recorded state of that epoch.
    Violations are counted per (sample, comparison), never asserted.
    """
    epoch_recs = traj.epoch_records()
    n = y.size
    violations = 0
    total = 0
    worst = 0
    boundary_sets: dict[int, np.ndarray] = {}
    for rec in epoch_recs:
        boundary_sets[rec.t] = own_noise_pre(rec.noise_pre, y) > threshold

    ts = sorted(boundary_sets)
    for prev_t, cur_t in zip(ts, ts[1:]):
        dropped = boundary_sets[prev_t] & ~boundary_sets[cur_t]  # (n, m)
        per_sample = dropped.any(axis=1)
        violations += int(per_sample.sum())
        worst = max(worst, int(dropped.sum(axis=1).max(initial=0)))
        total += n

    for rec in traj.records:
        if rec.t not in boundary_sets:
            continue
        plain = own_noise_pre(rec.noise_pre, y) > 0
        dropped = boundary_sets[rec.t] & ~plain
        violations += int(dropped.any(axis=1).sum())
        worst = max(worst, int(dropped.sum(axis=1).max(initial=0)))
        total += n

    return CheckReport(
        check="set_monotonicity",
        window=f"epochs {ts[0]}..{ts[-1]}" if ts else "empty",
        violations=violations,
        total=total,
        worst_case_value=float(worst),
        detail="max filters dropped from one set",
    )


def check_logit_ratio(traj: Trajectory, c1: float = TheoryConstants.c1_logit) -> CheckReport:
    """Within-epoch spread of the loss derivatives.

    For every epoch with recorded margins, the ratio of the largest to the
    smallest |l'| over all recorded states of that epoch must stay below
    exp(c1).  A one-sample dataset gives ratio exactly 1.
    """
    bound = math.exp(c1)
    by_epoch: dict[int, list[np.ndarray]] = {}
    for rec in traj.records:
        by_epoch.setdefault(rec.t, []).append(np.abs(loss_grad(rec.margins)))
    worst = 1.0
    violations = 0
    for t, chunks in by_epoch.items():
        vals = np.concatenate(chunks)
        ratio = float(vals.max() / vals.min())
        worst = max(worst, ratio)
        if ratio > bound:
            violations += 1
    return CheckReport(
        check="logit_ratio",
        window=f"{len(by_epoch)} epochs",
        violations=violations,
        total=len(by_epoch),
        worst_case_value=worst,
        detail=f"bound exp({c1}) = {bound:.2f}",
    )


def check_coeff_bounds(history, consts: TheoryConstants, d: int) -> list[CheckReport]:
    """Ranges of the tracked coefficients over a run: history is a
    CoeffTracker's, one C per state, and is read off a block of states at a
    time (decomposition.coeff_blocks).  An empty history is refused.

    zeta must stay in [0, alpha]; omega above
    -(beta + 10 sqrt(log(6 n^2/DELTA)/d) n alpha); gamma above -1/12.  The
    gamma upper scale is not asserted: the empirical max of
    gamma/(gamma_hat * alpha) is reported so the hidden constant can be
    read off.
    """
    if not history:
        raise ValueError("check_coeff_bounds: the coefficient history is empty "
                         "(a CoeffTracker with keep_history=False keeps none)")
    n = history[0].ds.n
    alpha = consts.alpha
    omega_floor = -(consts.beta + 10 * math.sqrt(math.log(6 * n**2 / DELTA) / d) * n * alpha)
    # one min or max per state and array, over blocks of states read off
    # their stacked C's; a NaN makes its state's value NaN, which fails its
    # check and which the worst values (fmax/fmin from 0.0) skip
    states = len(history)
    parts = []
    for block, coeffs in coeff_blocks(history, history[0].ds):
        zeta, omega, gamma = (a.reshape(len(block), -1)
                              for a in (coeffs.zeta, coeffs.omega, coeffs.gamma))
        parts.append((zeta.min(axis=1), zeta.max(axis=1), omega.min(axis=1),
                      gamma.min(axis=1), gamma.max(axis=1)))
    z_lo, z_hi, o_lo, g_lo, g_hi = map(np.concatenate, zip(*parts))
    zeta_viol = int(np.sum(~((z_lo >= 0) & (z_hi <= alpha))))
    omega_viol = int(np.sum(~(o_lo >= omega_floor)))
    gamma_viol = int(np.sum(~(g_lo >= -1.0 / 12.0)))
    zeta_max = max(0.0, float(np.fmax.reduce(z_hi)))
    omega_min = min(0.0, float(np.fmin.reduce(o_lo)))
    gamma_min = min(0.0, float(np.fmin.reduce(g_lo)))
    gamma_max = max(0.0, float(np.fmax.reduce(g_hi)))
    scale = consts.gamma_hat * alpha
    c_prime = gamma_max / scale if scale > 0 else float("nan")
    return [
        CheckReport(
            "zeta_range", f"{states} states", zeta_viol, states, zeta_max,
            detail=f"bound alpha={alpha:.4f}",
        ),
        CheckReport(
            "omega_range", f"{states} states", omega_viol, states, omega_min,
            detail=f"floor {omega_floor:.4f}",
        ),
        CheckReport(
            "gamma_range", f"{states} states", gamma_viol, states, gamma_min,
            detail=f"empirical_upper_ratio={c_prime!r}",
        ),
    ]


class SamDeactivationRecorder:
    """Training hook that counts perturbation-induced deactivations.

    An event is a (filter, in-batch sample) pair with matching class
    (j = y_k) whose unperturbed pre-activation is >= 0; it is a violation
    when the perturbed pre-activation is also >= 0 (the perturbation
    failed to deactivate the filter).  Only steps inside the first-stage
    window are counted when t1_epochs is given.  Each perturbed step is
    counted in its own call, through the (2, 1, n) own-label mask
    (decomposition.own_label) taken at its batch.
    """

    def __init__(self, y: np.ndarray, t1_epochs: float | None = None):
        self.y = np.asarray(y)
        self.t1_epochs = t1_epochs
        self.events = 0
        self.violations = 0
        self.perturbed_steps = 0
        self._own = own_label(self.y)

    def __call__(self, event) -> None:
        if self.t1_epochs is not None and event.t > self.t1_epochs:
            return
        if event.tau == 0.0:
            return
        self.perturbed_steps += 1
        active = self._own[..., event.batch] & (event.at_w.noise_pre >= 0)  # (2, m, B)
        self.events += int(np.count_nonzero(active))
        self.violations += int(np.count_nonzero(active & (event.used.noise_pre >= 0)))


def check_sam_deactivation(recorder: SamDeactivationRecorder) -> CheckReport:
    window = (
        f"t <= {recorder.t1_epochs:g}" if recorder.t1_epochs is not None else "all steps"
    )
    rate = recorder.violations / recorder.events if recorder.events else 0.0
    detail = ""
    if recorder.perturbed_steps == 0:
        detail = "no perturbed steps: deactivation vacuously absent"
    return CheckReport(
        check="sam_deactivation",
        window=window,
        violations=recorder.violations,
        total=recorder.events,
        worst_case_value=rate,
        detail=detail,
    )


def good_batch_fractions(
    schedules, y: np.ndarray, y_hat: np.ndarray, B: int
) -> np.ndarray:
    """Per (epoch, label) fraction of batches whose clean-sample count for
    that label lies in [B/4, 3B/4]; shape (epochs, 2) for labels (+1, -1)."""
    out = np.zeros((len(schedules), 2))
    if not schedules:
        return out
    idx = np.array(schedules)  # (epochs, H, B)
    clean = (y == y_hat)[idx]
    for col, yval in enumerate((1.0, -1.0)):
        count = np.sum(clean & (y[idx] == yval), axis=2)
        good = np.sum((B / 4 <= count) & (count <= 3 * B / 4), axis=1)
        out[:, col] = good / idx.shape[1]
    return out


def check_good_batches(schedules, y, y_hat, B: int) -> CheckReport:
    fr = good_batch_fractions(schedules, y, y_hat, B)
    H = len(schedules[0]) if schedules else 0
    total = len(schedules) * H * 2
    good = int(round(float(fr.sum()) * H))
    return CheckReport(
        check="good_batches",
        window=f"{len(schedules)} epochs",
        violations=total - good,
        total=total,
        worst_case_value=float(fr.min(initial=1.0)),
        detail=f"mean_good_fraction={float(fr.mean()) if fr.size else 1.0!r}",
    )


@dataclass(frozen=True)
class RegimeThresholds:
    """Cutoffs on r = n ||mu||^4 / (d P^4 sigma_p^4), calibrated against
    the reduced phase-transition grid (see experiments presets)."""

    c_lo: float = 0.1
    c_hi: float = 0.3


def regime_ratio(n: int, mu_norm: float, d: int, P: int, sigma_p: float) -> float:
    return n * mu_norm**4 / (d * P**4 * sigma_p**4)


def classify_regime(
    n: int,
    mu_norm: float,
    d: int,
    P: int,
    sigma_p: float,
    thresholds: RegimeThresholds | None = None,
) -> str:
    """Predicted overfitting regime from the signal/dimension balance."""
    th = thresholds or RegimeThresholds()
    r = regime_ratio(n, mu_norm, d, P, sigma_p)
    if r >= th.c_hi:
        return "benign"
    if r <= th.c_lo:
        return "harmful"
    return "indeterminate"


def first_stage_epochs(m: int, B: int, n: int, eta: float, mu_norm: float) -> float:
    """Length (in epochs) of the early window during which the perturbed
    runs must keep noise coefficients O(1): m B / (12 n eta ||mu||^2)."""
    for name, value in (("eta", eta), ("mu_norm", mu_norm)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0 for a finite first stage, got {value}")
    return m * B / (12.0 * n * eta * mu_norm**2)


def scaled_tau(c: float, m: int, B: int, P: int, sigma_p: float, d: int) -> float:
    """Perturbation radius c * m sqrt(B) / (P sigma_p sqrt(d))."""
    return c * m * math.sqrt(B) / (P * sigma_p * math.sqrt(d))


def deactivation_counts(
    params: DataParams,
    n: int,
    net: NetConfig,
    eta: float,
    B: int,
    tau: float,
    seed_pairs,
    epochs: int,
    t1: float,
) -> tuple[int, int]:
    """Deactivation events and violations summed over SAM runs of radius
    tau, one per (data seed, train seed) pair, each counted over the
    first t1 epochs by a SamDeactivationRecorder."""
    events = violations = 0
    for data_seed, seed in seed_pairs:
        ds = gen_dataset(params, make_signal(params.d, params.mu_norm), n, seed=data_seed)
        rec = SamDeactivationRecorder(ds.y, t1)
        cfg = TrainConfig(eta=eta, B=B, epochs=epochs, algo="sam", tau=tau, seed=seed)
        train(ds, net, cfg, hooks=(rec,))
        events += rec.events
        violations += rec.violations
    return events, violations


_TAU_BRACKET = (0.25, 8.0)  # the radius constants calibrate_sam_tau bisects first


def calibrate_sam_tau(
    params: DataParams,
    n: int,
    net: NetConfig,
    eta: float,
    B: int,
    seeds=(0, 1, 2),
    iters: int = 6,
) -> tuple[float, float]:
    """Bisect the radius constant until perturbation deactivation holds.

    Violations are monotone decreasing in the constant c of
    tau = c m sqrt(B)/(P sigma_p sqrt(d)); returns the smallest c, bisected
    iters times in _TAU_BRACKET, with zero violations over the first-stage
    window on the calibration seeds, together with the corresponding tau.
    """
    t1 = first_stage_epochs(net.m, B, n, eta, params.mu_norm)
    epochs = int(math.ceil(t1))

    def violations(c: float) -> int:
        return deactivation_counts(
            params, n, net, eta, B,
            scaled_tau(c, net.m, B, params.P, params.sigma_p, params.d),
            [(1000 + s, s) for s in seeds], epochs, t1,
        )[1]

    lo, hi = _TAU_BRACKET
    while violations(hi) > 0:
        lo, hi = hi, hi * 2
        if hi > 1e4:
            raise RuntimeError("no zero-violation radius found up to c = 1e4")
    if violations(lo) == 0:
        hi = lo
    else:
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if violations(mid) == 0:
                hi = mid
            else:
                lo = mid
    return hi, scaled_tau(hi, net.m, B, params.P, params.sigma_p, params.d)
