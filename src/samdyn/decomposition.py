"""Signal/noise decomposition of the weight drift, read two ways.

Every gradient update moves a filter inside span{mu, xi_1, ..., xi_n}, so
the drift from initialization has a unique expansion

    w_{j,r} - w0_{j,r} = j * gamma_{j,r} * mu/||mu||^2
                         + (1/(P-1)) sum_i rho_{j,r,i} * xi_i/||xi_i||^2,

with rho split by sign into zeta = rho * 1(rho >= 0) (noise aligned with
the filter's own class) and omega = rho * 1(rho <= 0).  Training keeps the
weights as w0 + C [mu; xi] (see optim); span_coeffs reads the coefficients
off C and span_view splits rho by label.  The grid reads each record's C
this way.  CoeffTracker keeps the C of every step as a CoeffState, whose
coefficients are read off on demand and never stored, so a state costs
(2m, n+1) floats and not the 2m (2n+1) of gamma, zeta and omega; whole
histories are read a block of states at a time (coeff_blocks), with every
state's patterns checked.  A least-squares oracle derives the
coefficients independently: it solves the (n+1)-dimensional Gram system
for the drift of each filter on every call.  Its Basis holds views of mu, xi and
Dataset.gram, never copies, and checks their conditioning once.

The update rules make the sign split structural: for y_i = j every rho
increment is >= 0 (zeta never decreases), for y_i = -j every increment is
<= 0 (omega never increases), and the complementary entries stay zero.
The paper's coefficient recurrence, which forms those increments from each
step's loss derivatives and activation indicators, and the inverse map,
from coefficients back to weights, are the tests' references (track_step
and reconstruct in tests/helpers.py).
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
    # + 0.0 turns the -0.0 of a zero mu weight in a j = -1 row into 0.0
    gamma = (c[..., 0] * gram[0, 0]).reshape(lead + (2, m)) * J_SIGNS[:, None] + 0.0
    rho = (c[..., 1:] * (P - 1) * np.diag(gram)[None, 1:]).reshape(lead + (2, m, -1))
    return gamma, rho


def span_view(c: np.ndarray, gram: np.ndarray, y: np.ndarray, P: int) -> Coeffs:
    """The Coeffs of the drift C [mu; xi] with rho split by label (zeta where
    y_i = j): the coefficients of a training record or of a step.
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
        DegenerateBasisError naming a vector of zero or non-finite norm, or
        else the most collinear pair, when it exceeds _COND_LIMIT
        (duplicated xi, zero mu, n >= d, an inf or nan entry)."""
        gram = self.gram
        diag = np.diag(gram)
        cond = float(np.linalg.cond(gram)) if np.all(np.isfinite(gram)) else np.inf
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            bad = np.flatnonzero((diag == 0) | ~np.isfinite(diag))
            if bad.size:
                k = int(bad[0])
                norm = "zero" if diag[k] == 0 else "non-finite"
                raise DegenerateBasisError(f"basis vector {_name_basis_vector(k)} has {norm} norm")
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
    """One state of a run: (t, b), the number of batch steps applied and the
    coefficient matrix C of its drift, w = w0 + C [mu; xi].  coeffs reads
    gamma, zeta and omega off C (span_view) on every access; a state stores
    no coefficient array of its own."""

    t: int
    b: int
    step: int      # state index: number of batch steps applied
    c: np.ndarray  # (2m, n+1)
    ds: Dataset    # the run's dataset: labels, P and Gram of the read-off

    @property
    def coeffs(self) -> Coeffs:
        return span_view(self.c, self.ds.gram, self.ds.y, self.ds.params.P)


# bytes of coefficient states (a block read off C's) or buffered
# pre-activations (checks.SamDeactivationRecorder) one block holds
REPLAY_BLOCK_BYTES = 512 << 10


def _states_per_block(m: int, n: int) -> int:
    """States of m filters per class and n samples whose gamma, zeta and
    omega fill REPLAY_BLOCK_BYTES, and at least one."""
    return max(1, REPLAY_BLOCK_BYTES // (8 * 2 * m * (1 + 2 * n)))


def coeff_blocks(states: list[CoeffState]):
    """(block, coeffs) over consecutive blocks of states that share the first
    one's dataset.  coeffs holds the stacked (k, 2, m) gamma and
    (k, 2, m, n) zeta and omega of the block's k states, read off their C's
    by one span_view; a block holds the states that fill
    REPLAY_BLOCK_BYTES.  The read-off is elementwise, so a state's values
    are bitwise its own coeffs."""
    if not states:
        return
    ds = states[0].ds
    per_block = _states_per_block(len(states[0].c) // 2, ds.n)
    for first in range(0, len(states), per_block):
        block = states[first:first + per_block]
        yield block, span_view(np.stack([st.c for st in block]), ds.gram, ds.y, ds.params.P)


class CoeffTracker:
    """Training hook that keeps the coefficients of every state of a run.

    Each call keeps the StepEvent's coefficient matrix C, the array itself
    (training never writes to it), as a CoeffState: a state costs one
    (2m, n+1) C, and its gamma, zeta and omega are read off C when its
    coeffs is read.  With check, the sign/zero patterns of the buffered
    states are hard-asserted a block at a time (coeff_blocks) when they
    reach REPLAY_BLOCK_BYTES of coefficients and whenever history, coeffs
    or state_at is read, so a failure raises at that read, not at its own
    step.  With keep_history, history holds every state, the zero state
    first; without it only the last state is kept.
    """

    def __init__(self, ds: Dataset, m: int, keep_history: bool = True, check: bool = True):
        self.ds = ds
        self.check = check
        self._keep = keep_history
        self._last = CoeffState(0, 0, 0, np.zeros((2 * m, ds.n + 1)), ds)
        self._history: list[CoeffState] = []
        self._by_state: dict[tuple[int, int], CoeffState] = {}
        self._pending: list[CoeffState] = []
        self._block_steps = _states_per_block(m, ds.n)
        if keep_history:
            self._keep_state(self._last)

    def __call__(self, event) -> None:
        H = self.ds.n // len(event.batch)
        t, b = (event.t + 1, 0) if event.b + 1 == H else (event.t, event.b + 1)
        self._pending.append(CoeffState(t, b, event.step + 1, event.c, self.ds))
        if len(self._pending) >= self._block_steps:
            self._read_pending()

    @property
    def coeffs(self) -> Coeffs:
        """The coefficients after the last step."""
        self._read_pending()
        return self._last.coeffs

    @property
    def history(self) -> list[CoeffState]:
        self._read_pending()
        return self._history

    def _read_pending(self) -> None:
        """Check the buffered states' patterns, if asked, and keep them."""
        if not self._pending:
            return
        states, self._pending = self._pending, []
        if self.check:
            for _, coeffs in coeff_blocks(states):
                coeffs.check_patterns(self.ds.y)
        if self._keep:
            for st in states:
                self._keep_state(st)
        self._last = states[-1]

    def _keep_state(self, st: CoeffState) -> None:
        self._history.append(st)
        self._by_state.setdefault((st.t, st.b), st)

    def state_at(self, t: int, b: int) -> CoeffState:
        self._read_pending()
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
    """Coefficient time series: (t, b) and the COEFF_COLUMNS of each state,
    read off the states' C's a block at a time."""
    write_csv(path, ("t", "b") + COEFF_COLUMNS, [
        (st.t, st.b) + row
        for block, coeffs in coeff_blocks(history)
        for st, gamma, zeta, omega in zip(block, coeffs.gamma, coeffs.zeta, coeffs.omega)
        for row in coeff_rows(gamma, zeta, omega)
    ])
