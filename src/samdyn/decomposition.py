"""Signal/noise decomposition of the weight drift, tracked two ways.

Every gradient update moves a filter inside span{mu, xi_1, ..., xi_n}, so
the drift from initialization has a unique expansion

    w_{j,r} - w0_{j,r} = j * gamma_{j,r} * mu/||mu||^2
                         + (1/(P-1)) sum_i rho_{j,r,i} * xi_i/||xi_i||^2,

with rho split by sign into zeta = rho * 1(rho >= 0) (noise aligned with
the filter's own class) and omega = rho * 1(rho <= 0).  Training keeps the
weights as w0 + C [mu; xi] (see optim); span_coeffs reads the coefficients
off C and span_view splits rho by label, which is how the grid reads them.
Two independent routes to the coefficients are cross-checked:

- an incremental tracker that replays each optimizer step's exact loss
  derivatives and activation indicators in coefficient space, buffering
  the steps and replaying them a block at a time (the recurrence is a
  cumulative sum), with every state's patterns checked as its block is
  replayed, and
- a least-squares oracle that solves the (n+1)-dimensional Gram system for
  the drift of each filter on every call.  Its Basis holds views of mu, xi
  and Dataset.gram, never copies, and checks their conditioning once.

The update rules make the sign split structural: for y_i = j every rho
increment is >= 0 (zeta never decreases), for y_i = -j every increment is
<= 0 (omega never increases), and the complementary entries stay zero.
The inverse map, from coefficients back to weights, and the recurrence
applied one step at a time are the tests' references (reconstruct and
track_step in tests/helpers.py).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .network import J_SIGNS, span_vectors
from .tables import write_csv


class InvariantViolation(AssertionError):
    """A structural coefficient invariant failed (hard error)."""


class DegenerateBasisError(ValueError):
    """The {mu, xi_i} system is numerically dependent."""


@dataclass
class Coeffs:
    gamma: np.ndarray  # (2, m)
    zeta: np.ndarray   # (2, m, n), >= 0, zero unless y_i == j
    omega: np.ndarray  # (2, m, n), <= 0, zero unless y_i == -j

    @classmethod
    def zeros(cls, m: int, n: int) -> "Coeffs":
        return cls(
            gamma=np.zeros((2, m)),
            zeta=np.zeros((2, m, n)),
            omega=np.zeros((2, m, n)),
        )

    @property
    def rho(self) -> np.ndarray:
        return self.zeta + self.omega

    def copy(self) -> "Coeffs":
        return Coeffs(self.gamma.copy(), self.zeta.copy(), self.omega.copy())

    def check_patterns(self, y: np.ndarray) -> None:
        """Hard-assert the sign and label-pattern invariants.  A stack of
        states, (k, 2, m) gamma and (k, 2, m, n) zeta and omega, is checked
        in one pass and raises through check_patterns of its first failing
        state."""
        # per state: zeta < 0, omega > 0, zeta nonzero where y_i != j or omega where y_i == j
        axes = (-3, -2, -1)
        bad = ((self.zeta < 0).any(axis=axes) | (self.omega > 0).any(axis=axes)
               | np.where(_own_label(y), self.omega, self.zeta).any(axis=axes))
        if not bad.any():
            return
        if bad.ndim:  # a stack: name the first failing state's fault
            s = int(np.argmax(bad))
            return Coeffs(self.gamma[s], self.zeta[s], self.omega[s]).check_patterns(y)
        # some invariant failed: find the first, in a fixed order, to name it
        if np.any(self.zeta < 0):
            raise InvariantViolation("zeta has a negative entry")
        if np.any(self.omega > 0):
            raise InvariantViolation("omega has a positive entry")
        for row, j in enumerate(J_SIGNS):
            mismatched = y != j
            if np.any(self.zeta[row][:, mismatched] != 0):
                raise InvariantViolation(f"zeta nonzero for y_i != {int(j)} in row {row}")
            if np.any(self.omega[row][:, ~mismatched] != 0):
                raise InvariantViolation(f"omega nonzero for y_i == {int(j)} in row {row}")


_COND_LIMIT = 1e12  # Gram condition number above which the oracle refuses the basis


def span_coeffs(c: np.ndarray, gram: np.ndarray, P: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma (..., 2, m) and rho (..., 2, m, n) of the drift C [mu; xi], C
    (..., 2m, n+1): the mu weight times j ||mu||^2 gives gamma, the xi_i
    weight times (P-1) ||xi_i||^2 gives rho_i, the norms read from the Gram
    diagonal.  Leading axes are a stack of C's."""
    lead, m = c.shape[:-2], c.shape[-2] // 2
    gamma = (c[..., 0] * gram[0, 0]).reshape(lead + (2, m)) * J_SIGNS[:, None]
    rho = (c[..., 1:] * (P - 1) * np.diag(gram)[None, 1:]).reshape(lead + (2, m, -1))
    return gamma, rho


def span_view(c: np.ndarray, gram: np.ndarray, y: np.ndarray, P: int) -> Coeffs:
    """The Coeffs of the drift C [mu; xi] with rho split by label (zeta where
    y_i = j): a training record's tracked coefficients, without a replay.
    A stack of C's gives the stacked Coeffs of every one."""
    gamma, rho = span_coeffs(c, gram, P)
    own = _own_label(y)
    return Coeffs(gamma=gamma, zeta=np.where(own, rho, 0.0), omega=np.where(own, 0.0, rho))


def _own_label(y: np.ndarray) -> np.ndarray:
    """(2, 1, n) mask of y_i == j: where rho is zeta, against a (2, m, n) array."""
    return (y == J_SIGNS[:, None])[:, None, :]


@dataclass(frozen=True, eq=False)
class Basis:
    """span{mu, xi_1..xi_n} of one dataset: views of its vectors and Gram."""

    mu: np.ndarray    # (d,)
    xis: np.ndarray   # (n, d)
    gram: np.ndarray  # (n+1, n+1)
    P: int

    @cached_property
    def checked_cond(self) -> float:
        """Condition number of gram, checked on the oracle's first call.  Raises
        DegenerateBasisError naming the most collinear pair when it exceeds
        _COND_LIMIT (duplicated xi, zero mu, n >= d)."""
        gram = self.gram
        diag = np.diag(gram)
        cond = float(np.linalg.cond(gram)) if np.all(np.isfinite(gram)) else np.inf
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            zero = np.flatnonzero(diag == 0)
            if zero.size:
                raise DegenerateBasisError(
                    f"basis vector {_name_basis_vector(int(zero[0]))} has zero norm"
                )
            corr = gram / np.sqrt(np.outer(diag, diag))
            np.fill_diagonal(corr, 0.0)
            a, b = np.unravel_index(np.argmax(np.abs(corr)), corr.shape)
            raise DegenerateBasisError(
                f"Gram condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}; "
                f"nearest dependence between {_name_basis_vector(int(a))} and "
                f"{_name_basis_vector(int(b))} (|cos| = {abs(corr[a, b]):.6f})"
            )
        return cond


def _name_basis_vector(k: int) -> str:
    return "mu" if k == 0 else f"xi_{k - 1}"


def basis_from_dataset(ds: Dataset) -> Basis:
    return Basis(mu=ds.mu, xis=ds.xi, gram=ds.gram, P=ds.params.P)


@dataclass
class OracleCoeffs:
    gamma: np.ndarray  # (2, m)
    rho: np.ndarray    # (2, m, n)
    residual: float    # ||drift - projection||_F / ||drift||_F


def oracle_solve(w: np.ndarray, w0: np.ndarray, basis: Basis) -> OracleCoeffs:
    """Least-squares read-off of the decomposition coefficients.

    Solves the Gram normal equations for all 2m filters' drifts on every
    call and reads the basis weights off with span_coeffs; the basis's
    conditioning guard runs on its first call only.
    """
    if w.shape != w0.shape:
        raise ValueError(f"weight shapes differ: {w.shape} vs {w0.shape}")
    two, m, d = w.shape
    drift = (w - w0).reshape(2 * m, d)
    rhs = np.hstack([(drift @ basis.mu)[:, None], drift @ basis.xis.T])
    basis.checked_cond  # refuses a degenerate basis, once per basis
    c = np.linalg.solve(basis.gram, rhs.T).T  # (2m, n+1)
    recon = span_vectors(c, basis.mu, basis.xis).reshape(2 * m, d)
    drift_norm = float(np.linalg.norm(drift))
    residual = 0.0 if drift_norm == 0 else float(np.linalg.norm(drift - recon)) / drift_norm
    gamma, rho = span_coeffs(c, basis.gram, basis.P)
    return OracleCoeffs(gamma=gamma, rho=rho, residual=residual)


@dataclass
class CoeffState:
    t: int
    b: int
    step: int  # state index: number of batch steps applied
    coeffs: Coeffs


# bytes of coefficient states (CoeffTracker) or buffered pre-activations
# (checks.SamDeactivationRecorder) one block replays at once
REPLAY_BLOCK_BYTES = 512 << 10


class CoeffTracker:
    """Training hook that maintains the tracked coefficients.

    Each call buffers the exact per-step quantities a StepEvent carries.
    The recurrence is additive, state s+1 = state s + that step's
    increment (see _replay), so a block of buffered steps is replayed at
    once: its increments are formed in a few stacked operations, written
    into the block's (k, 2, m) and (k, 2, m, n) arrays and summed along the
    step axis from the last state, with the same bits as one step at a
    time.  A block is replayed when its states reach REPLAY_BLOCK_BYTES and
    whenever history, coeffs or state_at is read.  With check, the
    sign/zero patterns of every state are hard-asserted when its block is
    replayed, so a failure raises at the next replay, not at its own step.
    With keep_history, history holds one entry per trajectory state, views
    into the block arrays.
    """

    def __init__(self, ds: Dataset, m: int, keep_history: bool = True, check: bool = True):
        self.y = ds.y
        self.y_hat = ds.y_hat
        self.mu_norm_sq = float(ds.gram[0, 0])
        self.xi_norm_sq = np.diag(ds.gram)[1:]
        self.P = ds.params.P
        self.n = ds.n
        self.m = m
        self.check = check
        self._coeffs = Coeffs.zeros(m, self.n)
        self._history: list[CoeffState] = []
        self._by_state: dict[tuple[int, int], CoeffState] = {}
        self._keep = keep_history
        self._pending: list[tuple] = []
        state_bytes = 8 * 2 * m * (1 + 2 * self.n)
        self._block_steps = max(1, REPLAY_BLOCK_BYTES // state_bytes)
        if keep_history:
            self._keep_state(CoeffState(0, 0, 0, self._coeffs))

    def __call__(self, event) -> None:
        used = event.used
        self._pending.append((event.t, event.b, event.step, event.batch, event.eta,
                              used.ell, used.sig_act, used.noise_act))
        if len(self._pending) >= self._block_steps:
            self._replay()

    @property
    def coeffs(self) -> Coeffs:
        """The coefficients after the last step."""
        self._replay()
        return self._coeffs

    @property
    def history(self) -> list[CoeffState]:
        self._replay()
        return self._history

    def _replay(self) -> None:
        """Apply the buffered steps, k of one run's batch size B, as one block.

        Step s adds -(eta ||mu||^2/(Bm)) sum_b ell_b sig_act_b y_b y_hat_b
        to gamma (clean samples push, flipped samples pull), and each
        in-batch sample i adds -(eta (P-1)^2/(Bm)) ell_i noise_act_i
        ||xi_i||^2 >= 0 to its own zeta (y_i = j row) or the negation to
        omega (y_i = -j row).  A running sum from the last state, one
        np.add per step, then gives every state of the block: a - b is the
        same float as a + (-b), and zeta >= 0 and omega <= 0 never reach
        -0.0, so the bits are those of adding one step at a time.
        """
        if not self._pending:
            return
        ts, bs, steps, batches, etas, ells, sig_acts, noise_acts = zip(*self._pending)
        self._pending = []
        batch, eta, ell = np.array(batches), np.array(etas)[:, None], np.array(ells)
        (k, B), m, n = batch.shape, self.m, self.n
        yb = self.y[batch]
        gamma = np.einsum("kjmb,kb->kjm", np.array(sig_acts), ell * yb * self.y_hat[batch])
        gamma *= -(eta * self.mu_norm_sq / (B * m))[:, :, None]
        coef = -(eta * (self.P - 1) ** 2 / (B * m)) * ell * self.xi_norm_sq[batch]  # (k, B)
        contrib = (np.array(noise_acts) * coef[:, None, None, :]).transpose(0, 3, 1, 2)
        own = (yb[:, :, None] == J_SIGNS)[:, :, :, None]  # (k, B, 2, 1)
        zeta, omega = np.zeros((k, 2, m, n)), np.zeros((k, 2, m, n))
        rows = np.arange(k)[:, None]  # a batch lists each sample once
        zeta[rows, :, :, batch] = np.where(own, contrib, 0.0)
        omega[rows, :, :, batch] = -np.where(own, 0.0, contrib)
        for block, last in ((gamma, self._coeffs.gamma), (zeta, self._coeffs.zeta),
                            (omega, self._coeffs.omega)):
            block[0] += last
            for s in range(1, k):  # same bits as np.cumsum(axis=0), 3x faster here
                np.add(block[s - 1], block[s], out=block[s])
        states = Coeffs(gamma, zeta, omega)
        if self.check:
            states.check_patterns(self.y)
        if self._keep:
            H = self.n // B
            for s in range(k):
                t, b = (ts[s] + 1, 0) if bs[s] + 1 == H else (ts[s], bs[s] + 1)
                self._keep_state(CoeffState(t, b, steps[s] + 1,
                                            Coeffs(gamma[s], zeta[s], omega[s])))
            self._coeffs = self._history[-1].coeffs
        else:  # a copy, so the block is freed
            self._coeffs = Coeffs(gamma[-1], zeta[-1], omega[-1]).copy()

    def _keep_state(self, st: CoeffState) -> None:
        self._history.append(st)
        self._by_state.setdefault((st.t, st.b), st)

    def state_at(self, t: int, b: int) -> CoeffState:
        self._replay()
        st = self._by_state.get((t, b))
        if st is None:
            raise KeyError(f"no tracked coefficients at state ({t}, {b})")
        return st


COEFF_COLUMNS = ("j", "r", "gamma", "sum_zeta", "min_omega", "max_zeta")


def coeff_rows(gamma: np.ndarray, zeta: np.ndarray, omega: np.ndarray) -> list[tuple]:
    """One COEFF_COLUMNS row per filter, class +1 first: its gamma, the sum
    and max of its zeta and the min of its omega."""
    return [
        (j, r, gamma[row, r], zeta[row, r].sum(), omega[row, r].min(), zeta[row, r].max())
        for row, j in enumerate((1, -1))
        for r in range(gamma.shape[1])
    ]


def write_coeff_csv(path, history: list[CoeffState]) -> None:
    """Coefficient time series: (t, b) and the COEFF_COLUMNS of each state."""
    write_csv(path, ("t", "b") + COEFF_COLUMNS, [
        (st.t, st.b) + row
        for st in history
        for row in coeff_rows(st.coeffs.gamma, st.coeffs.zeta, st.coeffs.omega)
    ])
