"""Signal/noise decomposition of the weight drift, read two ways.

Every gradient update moves a filter inside span{mu, xi_1, ..., xi_n}, so
the drift from initialization has a unique expansion

    w_{j,r} - w0_{j,r} = j * gamma_{j,r} * mu/||mu||^2
                         + (1/(P-1)) sum_i rho_{j,r,i} * xi_i/||xi_i||^2,

with rho split by sign into zeta = rho * 1(rho >= 0) (noise aligned with
the filter's own class) and omega = rho * 1(rho <= 0).  Training keeps the
weights as w0 + C [mu; xi] (see optim); span_coeffs reads the coefficients
off C and span_view splits rho by label.  CoeffTracker keeps the C of
every step as a CoeffState, whose coefficients are read off on demand and
never stored, so a state costs (2m, n+1) floats and not the 2m (2n+1) of
gamma, zeta and omega.  coeff_blocks reads the coefficients of a run's
stacked C's a block of BLOCK_BYTES at a time, for the range check and
coeffs.csv.  A least-squares oracle derives
the coefficients independently: it solves the (n+1)-dimensional Gram
system for the drift of each filter on every call.  Every reader of the
span takes the Dataset and reads mu, xi, y, P and Dataset.gram off it;
Dataset.checked_cond refuses a degenerate span once per dataset.

The update rules make the sign split structural: for y_i = j every rho
increment is >= 0 (zeta never decreases), for y_i = -j every increment is
<= 0 (omega never increases), and the complementary entries stay zero.
check_signs asserts the sign split on one state's C as it arrives, with
no read-off; span_view puts the zeros of the label patterns in place by
construction.  The paper's coefficient recurrence, which forms those
increments from each step's loss derivatives and activation indicators,
and the inverse map, from coefficients back to weights, are the tests'
references (track_step and reconstruct in tests/helpers.py).
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .network import J_SIGNS, span_vectors
from .tables import write_csv


class InvariantViolation(AssertionError):
    """A structural coefficient invariant failed (hard error)."""


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
        """Hard-assert the sign and label-pattern invariants of one state,
        naming the first that fails in a fixed order."""
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


def check_signs(c: np.ndarray, y: np.ndarray) -> None:
    """Hard-assert the sign invariants of one state's (2m, n+1) C, with
    check_patterns' messages, without reading the coefficients off.  The
    read-off scales the xi_i weight by (P-1) ||xi_i||^2 > 0 and splits it by
    label, so zeta < 0 is a negative weight in a j-row where y_i = j and
    omega > 0 a positive one where y_i = -j.  This is at least as strict:
    it also flags a wrong-signed weight that the read-off rounds to zero.
    The label patterns hold for span_view by construction."""
    noise = c[:, 1:].reshape(2, -1, y.size)
    own = own_label(y)
    if not np.count_nonzero(np.where(own, noise, -noise) < 0):  # no weight against its label
        return
    if (own & (noise < 0)).any():
        raise InvariantViolation("zeta has a negative entry")
    raise InvariantViolation("omega has a positive entry")


def span_coeffs(c: np.ndarray, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """gamma (..., 2, m) and rho (..., 2, m, n) of the drift C [mu; xi], C
    (..., 2m, n+1): the mu weight times j ||mu||^2 gives gamma, the xi_i
    weight times (P-1) ||xi_i||^2 gives rho_i, the norms read from the Gram
    diagonal of ds.  Leading axes are a stack of C's."""
    lead, m = c.shape[:-2], c.shape[-2] // 2
    gram = ds.gram
    # + 0.0 turns the -0.0 of a zero mu weight in a j = -1 row into 0.0
    gamma = (c[..., 0] * gram[0, 0]).reshape(lead + (2, m)) * J_SIGNS[:, None] + 0.0
    rho = (c[..., 1:] * (ds.params.P - 1) * np.diag(gram)[None, 1:]).reshape(lead + (2, m, -1))
    return gamma, rho


def span_view(c: np.ndarray, ds: Dataset) -> Coeffs:
    """The Coeffs of the drift C [mu; xi] with rho split by label (zeta where
    y_i = j): the coefficients of a training record or of a step on ds.
    A stack of C's gives the stacked Coeffs of every one."""
    gamma, rho = span_coeffs(c, ds)
    own = own_label(ds.y)
    return Coeffs(gamma=gamma, zeta=np.where(own, rho, 0.0), omega=np.where(own, 0.0, rho))


def own_label(y: np.ndarray) -> np.ndarray:
    """(2, 1, n) mask of y_i == j: where rho is zeta, against a (2, m, n) array."""
    return (y == J_SIGNS[:, None])[:, None, :]


def basis_from_dataset(ds: Dataset) -> Dataset:
    """ds itself: the oracle and the read-offs take the dataset."""
    return ds


@dataclass
class OracleCoeffs:
    gamma: np.ndarray  # (2, m)
    rho: np.ndarray    # (2, m, n)
    residual: float    # ||drift - projection||_F / ||drift||_F


def oracle_solve(w: np.ndarray, w0: np.ndarray, ds: Dataset) -> OracleCoeffs:
    """Least-squares read-off of the decomposition coefficients.

    Solves the Gram normal equations of span{mu, xi} of ds for all 2m
    filters' drifts on every call and reads the basis weights off with
    span_coeffs; the dataset's conditioning guard (Dataset.checked_cond)
    runs once per dataset.
    """
    if w.shape != w0.shape:
        raise ValueError(f"weight shapes differ: {w.shape} vs {w0.shape}")
    two, m, d = w.shape
    drift = (w - w0).reshape(2 * m, d)
    rhs = np.hstack([(drift @ ds.mu)[:, None], drift @ ds.xi.T])
    ds.checked_cond  # refuses a degenerate basis, once per dataset
    c = np.linalg.solve(ds.gram, rhs.T).T  # (2m, n+1)
    recon = span_vectors(c, ds.mu, ds.xi).reshape(2 * m, d)
    drift_norm = float(np.linalg.norm(drift))
    residual = 0.0 if drift_norm == 0 else float(np.linalg.norm(drift - recon)) / drift_norm
    gamma, rho = span_coeffs(c, ds)
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
        return span_view(self.c, self.ds)


# bytes of gamma, zeta and omega that one block of coeff_blocks reads off
# stacked C's for its readers, check_coeff_bounds and write_coeff_csv; on
# the 801 states of an n=64, m=10 SAM run, check_coeff_bounds took 18 ms in
# blocks of this size and 28 ms one state at a time (2 vCPUs)
BLOCK_BYTES = 128 << 10


def coeff_blocks(states, ds: Dataset):
    """(block, coeffs) over consecutive blocks of states of a run on ds:
    anything whose .c is a (2m, n+1) C, CoeffStates or training records.
    coeffs holds the stacked (k, 2, m) gamma and (k, 2, m, n) zeta and
    omega of the block's k states, read off their C's by one span_view; a
    block holds the states whose coefficients fill BLOCK_BYTES, and at
    least one.  The read-off is elementwise, so a state's values are
    bitwise its own coeffs whatever the block size."""
    if not states:
        return
    per_block = max(1, BLOCK_BYTES // (8 * len(states[0].c) * (1 + 2 * ds.n)))
    for first in range(0, len(states), per_block):
        block = states[first:first + per_block]
        yield block, span_view(np.stack([st.c for st in block]), ds)


class CoeffTracker:
    """Training hook that keeps the coefficients of every state of a run.

    Each call keeps the StepEvent's C, the array itself (training never
    writes to it), as a CoeffState labelled (t, b) = divmod(step, H), in one
    list indexed by step; a state's gamma, zeta and omega are read off its C
    when its coeffs is read.  With check, each arriving C's signs are
    hard-asserted (check_signs) before it is kept, so a failure raises from
    the call of its own step.  Without keep_history each call replaces the
    last state, and history is empty.
    """

    def __init__(self, ds: Dataset, m: int, keep_history: bool = True, check: bool = True):
        self.ds = ds
        self.check = check
        self._keep = keep_history
        self._states = [CoeffState(0, 0, 0, np.zeros((2 * m, ds.n + 1)), ds)]

    def __call__(self, event) -> None:
        if self.check:
            check_signs(event.c, self.ds.y)
        step = event.step + 1
        t, b = divmod(step, self.ds.n // len(event.batch))
        state = CoeffState(t, b, step, event.c, self.ds)
        if self._keep:
            self._states.append(state)
        else:
            self._states[-1] = state

    @property
    def coeffs(self) -> Coeffs:
        """The coefficients after the last step."""
        return self._states[-1].coeffs

    @property
    def history(self) -> list[CoeffState]:
        return self._states if self._keep else []

    def state_at(self, t: int, b: int) -> CoeffState:
        """The state (t, b), at index t H + b.  H, the steps of an epoch, is
        read off the last state's label; before the first epoch ends every
        state is (0, b) and H is taken as the number of states."""
        states = self.history
        if states:
            last = states[-1]
            H = (last.step - last.b) // last.t if last.t else len(states)
            if 0 <= b < H and 0 <= t * H + b < len(states):
                return states[t * H + b]
        raise KeyError(f"no tracked coefficients at state ({t}, {b})")


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
        for block, coeffs in (coeff_blocks(history, history[0].ds) if history else ())
        for st, gamma, zeta, omega in zip(block, coeffs.gamma, coeffs.zeta, coeffs.omega)
        for row in coeff_rows(gamma, zeta, omega)
    ])
