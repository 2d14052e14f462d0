"""Signal-plus-noise patch data model.

Each input is P patches of dimension d.  One patch, at a uniformly random
position, carries the signal: the true label times a fixed vector mu.  The
remaining P-1 patches are all equal to a single fresh Gaussian noise vector
xi ~ N(0, sigma_p^2 I).  The observed label is the true label flipped with
probability p.

Conventions
-----------
- a Dataset holds (mu, xi, y, y_hat, signal_pos) as arrays, labels as
  float64 +1/-1; Dataset.patches builds the (n, P, d) input tensor from
  them, as the input of the reference patch network; training never does
- Dataset.gram, the (n+1)^2 Gram matrix of [mu; xi], is formed once; all
  of samdyn reads the span's geometry from it, and Dataset.checked_cond
  refuses a numerically dependent span once, for the least-squares oracle
- a Dataset is reproducible from (params, seed): per-sample generators are
  spawned from one SeedSequence, so generation order never matters;
  gen_dataset draws a large dataset's rows (_POOL_MIN_BYTES of noise in
  rows of _POOL_MIN_ROW_BYTES) on a thread pool, one worker per CPU
"""

import concurrent.futures
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tables import read_npz


@dataclass(frozen=True)
class DataParams:
    """Distribution parameters: patch dim d, patch count P, noise std
    sigma_p, label-flip probability p, and signal strength mu_norm."""

    d: int
    P: int = 2
    sigma_p: float = 1.0
    p: float = 0.0
    mu_norm: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.P < 2:
            raise ValueError(f"P must be >= 2, got {self.P}")
        if not (math.isfinite(self.sigma_p) and self.sigma_p > 0):
            raise ValueError(f"sigma_p must be finite and > 0, got {self.sigma_p}")
        if not 0 <= self.p < 0.5:
            raise ValueError(f"p must be in [0, 0.5), got {self.p}")
        if not (math.isfinite(self.mu_norm) and self.mu_norm >= 0):
            raise ValueError(f"mu_norm must be finite and >= 0, got {self.mu_norm}")


class DegenerateBasisError(ValueError):
    """The {mu, xi_i} system is numerically dependent."""


_COND_LIMIT = 1e12  # Gram condition number above which the oracle refuses the basis
DELTA = 0.05  # failure probability of the concentration and coefficient bounds


@dataclass
class Sample:
    """One row of a Dataset, for callers of the per-sample API.

    xi is a view of the dataset's row; patches are built on read.
    """

    y: int               # observed label, +1/-1
    y_hat: int           # true label, +1/-1
    xi: np.ndarray       # (d,)
    signal_pos: int
    # the row as a one-sample Dataset of array views; it does not refer back
    # to the parent Dataset, so dropping a Dataset frees its arrays at once
    row: "Dataset" = field(repr=False)

    @property
    def patches(self) -> np.ndarray:
        return self.row.patches()[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples as one array record.

    Sample i is the P patches with patch signal_pos[i] equal to
    y_hat[i] * mu and every other patch equal to xi[i]; y[i] is its
    observed label.
    """

    mu: np.ndarray          # (d,)
    xi: np.ndarray          # (n, d)
    y: np.ndarray           # (n,) float64, +1/-1
    y_hat: np.ndarray       # (n,) float64, +1/-1
    signal_pos: np.ndarray  # (n,) int64
    params: DataParams
    seed: int | None = None

    @property
    def n(self) -> int:
        return len(self.y)

    def patches(self) -> np.ndarray:
        """The (n, P, d) input tensor."""
        out = np.repeat(self.xi[:, None, :], self.params.P, axis=1)
        out[np.arange(self.n), self.signal_pos] = self.y_hat[:, None] * self.mu
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """The read-only (n+1, n+1) Gram matrix of [mu; xi_1..xi_n]."""
        gram = np.empty((self.n + 1, self.n + 1))
        gram[0, 0] = self.mu @ self.mu
        gram[0, 1:] = gram[1:, 0] = self.xi @ self.mu
        gram[1:, 1:] = self.xi @ self.xi.T
        gram.flags.writeable = False
        return gram

    @cached_property
    def checked_cond(self) -> float:
        """Condition number of gram, checked once per dataset.  Raises
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

    @cached_property
    def samples(self) -> tuple[Sample, ...]:
        """Per-sample row views, built once; samdyn itself reads the arrays."""
        return tuple(
            Sample(y=int(self.y[i]), y_hat=int(self.y_hat[i]), xi=self.xi[i],
                   signal_pos=int(self.signal_pos[i]),
                   row=Dataset(self.mu, self.xi[i:i + 1], self.y[i:i + 1], self.y_hat[i:i + 1],
                               self.signal_pos[i:i + 1], self.params, self.seed))
            for i in range(self.n)
        )


def _name_basis_vector(k: int) -> str:
    return "mu" if k == 0 else f"xi_{k - 1}"


def make_signal(d: int, mu_norm: float) -> np.ndarray:
    """Signal vector mu_norm * e1.

    The learning problem is rotation invariant, so the first canonical
    direction is used; tests may pass an arbitrary mu to the generators.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (math.isfinite(mu_norm) and mu_norm >= 0):
        raise ValueError(f"mu_norm must be finite and >= 0, got {mu_norm}")
    mu = np.zeros(d)
    mu[0] = mu_norm
    return mu


def available_cpus() -> int:
    """CPUs this process may run on; an affinity mask or a container's CPU
    set can make that fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# gen_dataset draws on a thread pool only when the noise fills at least
# _POOL_MIN_BYTES in rows of at least _POOL_MIN_ROW_BYTES.  Each sample's
# Python (its generator, labels and position) holds the GIL, so short rows
# run slower pooled (1.8x at n=2100, d=500), and small datasets do not
# repay starting the threads; every shape measured at 8 MiB in rows of
# 32 KiB or more drew faster pooled on 2 CPUs (n=256, d=4096: 0.89x)
_POOL_MIN_BYTES = 8 << 20
_POOL_MIN_ROW_BYTES = 32 << 10


def gen_sample(params: DataParams, rng: np.random.Generator,
               xi: np.ndarray) -> tuple[int, int, int]:
    """Draw one sample into the noise row xi (d,) and return (y, y_hat,
    signal_pos).

    Draw order: true label uniform on +-1, flip with probability p, the
    shared noise vector, then the uniform signal position.  The noise is a
    standard-normal fill scaled by sigma_p in place: the bits
    rng.normal(0, sigma_p, d) gives (up to the sign of an exact zero),
    without its temporary.
    """
    y_hat = 1 if rng.random() < 0.5 else -1
    y = -y_hat if rng.random() < params.p else y_hat
    rng.standard_normal(out=xi)
    xi *= params.sigma_p
    return y, y_hat, int(rng.integers(params.P))


def gen_dataset(params: DataParams, mu: np.ndarray, n: int, seed) -> Dataset:
    """n independent samples, deterministic given seed.

    Each sample gets its own spawned RNG stream, so datasets are bitwise
    reproducible whatever order the samples are drawn in.  When the noise
    takes _POOL_MIN_BYTES or more in rows of _POOL_MIN_ROW_BYTES or more,
    contiguous runs of rows are drawn on a thread pool, one worker per
    available CPU (numpy releases the GIL inside each fill); the pool is
    joined before returning, so no thread outlives the call.
    seed may be an int or a prepared SeedSequence (derived-stream callers).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (params.d,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({params.d},)")
    if isinstance(seed, np.random.SeedSequence):
        root, stored = seed, None
    else:
        root, stored = np.random.SeedSequence(seed), int(seed)
    xi = np.empty((n, params.d))
    y = np.empty(n)
    y_hat = np.empty(n)
    signal_pos = np.empty(n, dtype=np.int64)
    children = root.spawn(n)

    def draw(rows: range) -> None:
        for i in rows:
            y[i], y_hat[i], signal_pos[i] = gen_sample(
                params, np.random.default_rng(children[i]), xi[i])

    pooled = xi.nbytes >= _POOL_MIN_BYTES and xi[0].nbytes >= _POOL_MIN_ROW_BYTES
    workers = min(n, available_cpus()) if pooled else 1
    if workers == 1:
        draw(range(n))
    else:
        # the executor's module loads on first use; the with joins every thread
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            list(pool.map(draw, (range(n * k // workers, n * (k + 1) // workers)
                                 for k in range(workers))))
    return Dataset(mu=mu, xi=xi, y=y, y_hat=y_hat, signal_pos=signal_pos,
                   params=params, seed=stored)


def stack(ds: Dataset) -> Dataset:
    """Identity: a Dataset is already the stacked arrays."""
    return ds


@dataclass
class ConcentrationReport:
    """Outcome of the geometry checks a generated dataset is expected to
    satisfy at large d.  Violations are listed, never fatal: small-d
    stress datasets are expected to fail some bounds."""

    n: int
    d: int
    norm_violations: list[int] = field(default_factory=list)
    cross_violations: list[tuple[int, int]] = field(default_factory=list)
    mu_violations: list[int] = field(default_factory=list)
    label_count_ok: bool = True
    n_flipped: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.norm_violations
            and not self.cross_violations
            and not self.mu_violations
            and self.label_count_ok
        )

    def rows(self) -> list[tuple]:
        """(check, violations, total) summary rows."""
        npairs = self.n * (self.n - 1) // 2
        return [
            ("noise_norm_range", len(self.norm_violations), self.n),
            ("noise_cross_inner", len(self.cross_violations), npairs),
            ("noise_signal_inner", len(self.mu_violations), self.n),
            ("label_class_counts", 0 if self.label_count_ok else 1, 1),
        ]


def concentration_report(ds: Dataset) -> ConcentrationReport:
    """Check the high-probability geometry of a generated dataset (ds.gram),
    at failure probability delta = DELTA.

    Per sample: sigma_p^2 d/2 <= ||xi_i||^2 <= 3 sigma_p^2 d/2.
    Per pair:   |<xi_i, xi_k>| <= 2 sigma_p^2 sqrt(d log(6 n^2/delta)).
    Per sample: |<xi_i, mu>|   <= ||mu|| sigma_p sqrt(2 log(6 n/delta)).
    Label classes: per observed label value, the clean count must lie in
    (1-p)n/2 +- sqrt((n/2) log(8/delta)) and the flipped count in
    pn/2 +- the same slack.
    """
    if ds.n == 0:
        raise ValueError("dataset is empty")
    prm = ds.params
    n, d = ds.xi.shape
    sp2 = prm.sigma_p**2

    rep = ConcentrationReport(n=n, d=d)

    gram = ds.gram
    norms = np.diag(gram)[1:]
    bad = (norms < sp2 * d / 2) | (norms > 3 * sp2 * d / 2)
    rep.norm_violations = list(np.flatnonzero(bad))

    cross_bound = 2 * sp2 * math.sqrt(d * math.log(6 * n**2 / DELTA))
    iu = np.triu_indices(n, k=1)
    bad_pairs = np.abs(gram[1:, 1:][iu]) > cross_bound
    rep.cross_violations = [
        (int(i), int(k)) for i, k in zip(iu[0][bad_pairs], iu[1][bad_pairs])
    ]

    mu_bound = prm.mu_norm * prm.sigma_p * math.sqrt(2 * math.log(6 * n / DELTA))
    rep.mu_violations = list(np.flatnonzero(np.abs(gram[1:, 0]) > mu_bound))

    clean = ds.y == ds.y_hat
    rep.n_flipped = int(np.sum(~clean))
    slack = math.sqrt((n / 2) * math.log(8 / DELTA))
    ok = True
    for yval in (1.0, -1.0):
        n_clean = int(np.sum(clean & (ds.y == yval)))
        n_flip = int(np.sum(~clean & (ds.y == yval)))
        if abs(n_clean - (1 - prm.p) * n / 2) > slack:
            ok = False
        if abs(n_flip - prm.p * n / 2) > slack:
            ok = False
    rep.label_count_ok = ok
    return rep


def check_header_seed(seed: int) -> None:
    """Raise ValueError for a seed outside [0, 2**63), which the int64
    header of save_dataset cannot hold."""
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed {seed} is outside [0, 2**63), the range of the int64 header")


def save_dataset(path, ds: Dataset) -> None:
    """Write the documented binary container to exactly path, whatever its
    suffix.

    NumPy .npz archive with keys:
      header: int64 [d, P, n, seed_flag, seed], floats [sigma_p, p, mu_norm]
      mu (d,), y (n,), y_hat (n,), signal_pos (n,), xi (n, d)

    Raises ValueError, before the file is opened, for a seed the int64
    header cannot hold (check_header_seed).
    """
    prm = ds.params
    seed_flag = 0 if ds.seed is None else 1
    seed = 0 if ds.seed is None else ds.seed
    check_header_seed(seed)
    header_int = np.array([prm.d, prm.P, ds.n, seed_flag, seed], dtype=np.int64)
    header_float = np.array([prm.sigma_p, prm.p, prm.mu_norm], dtype=np.float64)
    # np.savez appends .npz to a path name, but not to an open file
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header_int=header_int,
            header_float=header_float,
            mu=ds.mu,
            y=ds.y.astype(np.int64),
            y_hat=ds.y_hat.astype(np.int64),
            signal_pos=ds.signal_pos,
            xi=ds.xi,
        )


def load_dataset(path) -> Dataset:
    """Read a save_dataset container, checking its arrays against the header.

    Raises ValueError, naming the file, when the archive lacks one of its
    keys, mu, xi or header_float is not a real floating array or another
    array not an integer one, a header has the wrong length or a value
    DataParams refuses, the seed flag is not 0 or 1, a set seed is one
    check_header_seed refuses, an array's shape disagrees with the header's
    (d, n), a label is not +-1, or a signal position is outside [0, P).
    """
    arrays = read_npz(path, {"header_int": np.integer, "header_float": np.floating,
                             "mu": np.floating, "xi": np.floating, "y": np.integer,
                             "y_hat": np.integer, "signal_pos": np.integer})
    for key, size in (("header_int", 5), ("header_float", 3)):
        if arrays[key].shape != (size,):
            raise ValueError(f"{path}: {key} has shape {arrays[key].shape}, expected ({size},)")
    d, P, n, seed_flag, seed = (int(v) for v in arrays["header_int"])
    sigma_p, p, mu_norm = (float(v) for v in arrays["header_float"])
    try:
        params = DataParams(d=d, P=P, sigma_p=sigma_p, p=p, mu_norm=mu_norm)
        if seed_flag not in (0, 1):
            raise ValueError(f"seed_flag is {seed_flag}, expected 0 or 1")
        if seed_flag:
            check_header_seed(seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    shapes = {"mu": (d,), "xi": (n, d), "y": (n,), "y_hat": (n,), "signal_pos": (n,)}
    for key, shape in shapes.items():
        if arrays[key].shape != shape:
            raise ValueError(f"{path}: {key} has shape {arrays[key].shape}, header says {shape}")
    for key in ("y", "y_hat"):
        if not np.all(np.abs(arrays[key]) == 1):
            raise ValueError(f"{path}: {key} has a value other than +1/-1")
    pos = arrays["signal_pos"]
    if not np.all((pos >= 0) & (pos < P)):
        raise ValueError(f"{path}: signal_pos has a value outside [0, {P})")
    return Dataset(
        mu=arrays["mu"],
        xi=arrays["xi"],
        y=arrays["y"].astype(np.float64),
        y_hat=arrays["y_hat"].astype(np.float64),
        signal_pos=pos.astype(np.int64),
        params=params,
        seed=seed if seed_flag else None,
    )
