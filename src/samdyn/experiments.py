"""Phase-transition grid experiments and Monte Carlo test-error estimation.

A GridSpec describes a (d, ||mu||) grid, a list of seeds, and its training
variants (train_variants: one per combination of the listed algorithms and
settings); run_grid executes all trials (optionally in a process pool),
persists each trial atomically so interrupted grids resume, and exports
per-cell aggregates as CSV plus a portable-graymap render.
The wall time of every cell it ran goes to timings.csv, never into
results.csv.

Per-trial randomness is derived from the grid coordinates, never from
execution order: the seed material is the tuple (tag, base_seed, seed, d,
round(mu * 1e6)), so adding cells or changing the worker count cannot
perturb existing trials.  The variant name is deliberately absent: one
seed label denotes one (dataset, init, test set) triple shared by every
training variant, so per-seed differences between variants are paired
comparisons of the algorithms alone.

The unit of work is therefore the (d, mu, seed) cell, not the trial:
run_cell generates the cell's dataset once, copies mu and xi into
F = [w0's 2m filters; mu; xi_1..xi_n] in place of the dataset's own
arrays and draws w0 (optim.initial_weights) into the first 2m rows, so the
cell holds each d-space array once and peaks at about F plus one w0 (1.5
times F's bytes on the phase grid).  Each pending variant trains without
hooks on one SpanProblem on F's rows, whose Gram matrix and projections of
w0 are formed once, and keeps its final record's C and <w, mu>.  The
cell's test set is drawn once and its noise projected onto F, a
(2m+1+n)-row matrix T.  Every variant's weights are w0 + C [mu; xi], so
its test pre-activations are T[:2m] + C T[2m:] (span_test_error): one
projection scores every variant, and no d-space final weights are formed.
Each variant would have drawn that same set from the same stream, so
scoring it once is exact: every trial's numbers are those of a run of the
variant alone.  run_grid hands the pool one run_cell task per cell with
pending variants, largest d first.

The test-draw stream is fixed by its chunks of 256 samples: each draws
the true labels y_hat, then the label flips, then the chunk's (256, d)
noise as back-to-back standard-normal fills.  estimate_test_error draws
and projects that noise in near-equal blocks of rows in one reused buffer
of about 2 MiB (at least 8 rows); a fill continues the generator where the
last one stopped, so the block size is not part of the stream.

Every cell run_grid executes runs on one OpenBLAS thread: pool workers pin
themselves when they start, and a serial run pins the caller for its
duration and restores its counts afterwards.  One thread per worker keeps
a pool of one worker per CPU from oversubscribing the cores, and it makes
every product sum in the same order whatever the worker count, so
results.csv does not depend on jobs.
"""

import concurrent.futures
import csv
import ctypes
import dataclasses
import itertools
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataParams, gen_dataset, make_signal
from .decomposition import InvariantViolation, check_signs, span_view
from .network import NetConfig, model_margins
from .optim import SpanProblem, TrainConfig, TrainingDivergedError, initial_weights, run
from .tables import optional, write_csv

_SEED_TAG = 88261599  # fixed domain tag for trial seed derivation
_TEST_CHUNK = 256  # test samples per chunk of y_hat, flips and noise; part of the test-draw stream
_TEST_BLOCK_BYTES = 2 << 20  # noise buffer of the test scorer; not part of the stream


@dataclass(frozen=True)
class GridSpec:
    d_values: tuple
    mu_values: tuple
    seeds: tuple
    n: int
    P: int
    sigma_p: float
    p: float
    m: int
    train: dict  # variant name -> TrainConfig template (seed ignored)
    n_test: int
    init: str = NetConfig.init
    sigma_0: float | None = None  # gaussian only, which defaults it to 1/(P sigma_p sqrt(d))
    loss_target: float = 0.05
    base_seed: int = 0

    def __post_init__(self):
        if not self.d_values or not self.mu_values or not self.seeds:
            raise ValueError("d_values, mu_values and seeds must be nonempty")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds!r}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")
        if not math.isfinite(self.loss_target):
            raise ValueError(f"loss_target must be finite, got {self.loss_target}")
        if not self.train:
            raise ValueError("at least one training variant is required")
        for name, cfg in self.train.items():
            if self.n % cfg.B != 0:
                raise ValueError(f"variant {name!r}: B={cfg.B} does not divide n={self.n}")
        # run every cell's DataParams/NetConfig checks now, not once per trial
        for d in self.d_values:
            for mu in self.mu_values:
                self.data_params(d, mu)
            self.net_config(d)
        # a repeated value runs one trial twice and fakes a per-seed spread
        for axis in ("d_values", "mu_values", "seeds"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} repeats a value: {values!r}")
        keys = {}
        for mu in self.mu_values:
            other = keys.setdefault(_mu_key(mu), mu)
            if other != mu:
                raise ValueError(f"mu_values {other!r} and {mu!r} share the seed key "
                                 "round(mu * 1e6), so their cells would share every stream")

    def data_params(self, d: int, mu_norm: float) -> DataParams:
        return DataParams(d=d, P=self.P, sigma_p=self.sigma_p, p=self.p, mu_norm=mu_norm)

    def net_config(self, d: int) -> NetConfig:
        s0 = self.sigma_0
        if s0 is None and self.init == "gaussian":
            s0 = 1.0 / (self.P * self.sigma_p * math.sqrt(d))
        return NetConfig(m=self.m, d=d, init=self.init, sigma_0=s0)

    def cells(self) -> list[tuple]:
        return [
            (d, mu, variant, seed)
            for variant in sorted(self.train)
            for d in self.d_values
            for mu in self.mu_values
            for seed in self.seeds
        ]


@dataclass
class TrialResult:  # one trial's row of results.csv: the fields are its columns, in order
    algo: str
    d: int
    mu_norm: float
    seed: int
    train_loss: float = math.nan
    test_error: float = math.nan
    test_stderr: float = math.nan
    convergence_epoch: int | None = None
    max_gamma: float = math.nan
    max_sum_zeta: float = math.nan
    invariant_violations: int = 0  # reserved: no check fills it yet, so always 0
    failed: bool = False
    error: str = ""


def trial_seed_sequence(base_seed: int, d: int, mu_norm: float, seed: int):
    """Documented per-trial seed derivation (coordinate hash, shared by
    all training variants at the same cell)."""
    entropy = (
        _SEED_TAG,
        int(base_seed),
        int(seed),
        int(d),
        _mu_key(mu_norm),
    )
    return np.random.SeedSequence(entropy)


def _mu_key(mu_norm: float) -> int:
    return int(round(mu_norm * 1_000_000))


@dataclass(frozen=True)
class TestProjection:
    """One draw of a test set, kept as its labels and the projections
    t[k] = <F_k, xi> of its noise onto the rows of a filter matrix F."""

    y: np.ndarray      # (n_test,) labels after the flips
    y_hat: np.ndarray  # (n_test,) true labels
    t: np.ndarray      # (rows of F, n_test)
    P: int

    def error(self, mu_pre: np.ndarray, noise_pre: np.ndarray) -> tuple[float, float]:
        """(rate, stderr) of the network with pre-activations mu_pre (2, m)
        and noise_pre (2, m, n_test): the fraction of samples with
        y != sign(f), where sign(0) counts as an error."""
        n_test = len(self.y)
        errors = int(np.count_nonzero(model_margins(mu_pre, noise_pre, self.y, self.y_hat,
                                                    self.P) <= 0))
        rate = errors / n_test
        return rate, math.sqrt(rate * (1 - rate) / n_test)


def estimate_test_error(filters: np.ndarray, params: DataParams, n_test: int,
                        rng: np.random.Generator) -> TestProjection:
    """The d-dimensional stage of the test-error estimate: draw n_test
    samples and project their noise onto the rows of filters (rows, d).

    The samples are the test-draw stream: chunks of _TEST_CHUNK samples,
    each drawing y_hat, then the flips, then the chunk's (k, d) noise as
    back-to-back standard-normal fills scaled by sigma_p, which gives the
    bits rng.normal(0, sigma_p, (k, d)) would.  The noise is drawn and
    projected in ceil(k / _test_block_rows(d)) blocks whose sizes differ by
    at most one row, in one reused buffer, so memory stays near
    _TEST_BLOCK_BYTES up to d = 32768; a fill continues the generator where
    the last one stopped, so the block size is not part of the stream.
    Each block's product is xi_block @ filters.T, which reads the filters
    once per block.  Only a one-sample chunk makes a one-row block: its
    product takes numpy's vector-matrix path, whose sums can differ in the
    last bits from a (k, d) product.
    """
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test}")
    d = params.d
    if filters.ndim != 2 or filters.shape[1] != d:
        raise ValueError(f"filters must have shape (rows, {d}), got {filters.shape}")
    rows = _test_block_rows(d)
    buf = np.empty((min(rows, n_test), d))
    y_hat, y = np.empty(n_test), np.empty(n_test)
    proj = np.empty((n_test, len(filters)))
    for first in range(0, n_test, _TEST_CHUNK):
        k = min(_TEST_CHUNK, n_test - first)
        chunk = slice(first, first + k)
        y_hat[chunk] = np.where(rng.random(k) < 0.5, 1.0, -1.0)
        y[chunk] = np.where(rng.random(k) < params.p, -y_hat[chunk], y_hat[chunk])
        blocks = -(-k // rows)
        for b in range(blocks):
            start, stop = first + k * b // blocks, first + k * (b + 1) // blocks
            xi = rng.standard_normal(out=buf[:stop - start])
            xi *= params.sigma_p
            np.matmul(xi, filters.T, out=proj[start:stop])
    return TestProjection(y=y, y_hat=y_hat, t=proj.T, P=params.P)


def _test_block_rows(d: int) -> int:
    """Most noise rows estimate_test_error draws and projects at a time: as
    many as fit _TEST_BLOCK_BYTES, at least 8 and at most a chunk."""
    return min(_TEST_CHUNK, max(8, _TEST_BLOCK_BYTES // (8 * d)))


def span_test_error(draw: TestProjection, c: np.ndarray, mu_pre: np.ndarray):
    """(rate, stderr) of the weights w0 + C [mu; xi] on a draw projected
    onto F = [w0's 2m filters; mu; xi_1..xi_n]: <w, xi_test> is
    t[:2m] + C t[2m:], so one projection scores every C of the cell."""
    two_m = len(c)
    noise_pre = draw.t[:two_m] + c @ draw.t[two_m:]
    return draw.error(mu_pre, noise_pre.reshape(2, two_m // 2, -1))


_TRIAL_ERRORS = (TrainingDivergedError, InvariantViolation, FloatingPointError, ValueError)


def _fail(result: TrialResult, exc: Exception) -> None:
    result.failed = True
    result.error = f"{type(exc).__name__}: {exc}"


def _cell_inputs(spec: GridSpec, d: int, mu_norm: float, seed: int):
    """The (d, mu_norm, seed) cell's dataset, network, training seed and
    test stream, built from its coordinates alone."""
    data_ss, train_ss, test_ss = trial_seed_sequence(spec.base_seed, d, mu_norm, seed).spawn(3)
    ds = gen_dataset(spec.data_params(d, mu_norm), make_signal(d, mu_norm), spec.n,
                     seed=data_ss)
    return ds, spec.net_config(d), int(train_ss.generate_state(1)[0]), test_ss


def run_cell(spec: GridSpec, d: int, mu_norm: float, seed: int, variants):
    """Train each listed variant on the (d, mu_norm, seed) cell and score
    them all on one test draw.  Returns one TrialResult per variant, in
    order, each deterministic given its coordinates, and the cell's wall
    times (data_s, train_s, test_s): building the dataset, filling F and
    drawing w0, the Gram matrix and the projections of w0; training with
    the record checks; and the test draw with the scoring.

    Every variant runs on one SpanProblem whose w0, mu and xi are the rows
    of F = [w0; mu; xi], filled before training, so no d-space array is
    held twice.  The signs of every record's C are checked one C at a time
    (decomposition.check_signs), max_gamma and max_sum_zeta are read off
    the last record's C (span_view), and each variant keeps only its final
    C and <w, mu>.
    Failures are captured in the results, so a grid never aborts on one
    bad cell: an error building the cell fails every variant, a variant
    that diverges or breaks an invariant fails alone, and an error in the
    test draw fails every trained variant.  A cell with no trained variant
    draws no test set.
    """
    results = [TrialResult(d=d, mu_norm=mu_norm, algo=v, seed=seed) for v in variants]
    t0 = time.perf_counter()
    try:
        ds, net, train_seed, test_ss = _cell_inputs(spec, d, mu_norm, seed)
        # mu and xi move into F before w0 is drawn, so no d-space array is held twice
        two_m = 2 * net.m
        filters = np.empty((two_m + 1 + spec.n, d))
        filters[two_m], filters[two_m + 1:] = ds.mu, ds.xi
        ds = dataclasses.replace(ds, mu=filters[two_m], xi=filters[two_m + 1:])
        filters[:two_m] = initial_weights(net, train_seed).reshape(two_m, d)
        problem = SpanProblem(filters[:two_m].reshape(2, net.m, d), ds)
    except _TRIAL_ERRORS as exc:
        for result in results:
            _fail(result, exc)
        return results, (time.perf_counter() - t0, 0.0, 0.0)
    t1 = time.perf_counter()

    finals = []  # (result, C, mu_pre) of each trained variant's final record
    for result in results:
        try:
            traj = run(problem, dataclasses.replace(spec.train[result.algo], seed=train_seed))
            for rec in traj.records:
                check_signs(rec.c, ds.y)
            rec = traj.records[-1]
            result.train_loss = rec.train_loss
            result.convergence_epoch = next((r.t for r in traj.epoch_records()
                                             if r.train_loss <= spec.loss_target), None)
            coeffs = span_view(rec.c, ds)
            result.max_gamma = float(coeffs.gamma.max())
            result.max_sum_zeta = float(coeffs.zeta.sum(axis=2).max())
            finals.append((result, rec.c, rec.mu_pre))
        except _TRIAL_ERRORS as exc:
            _fail(result, exc)
    t2 = time.perf_counter()

    if finals:
        try:
            draw = estimate_test_error(filters, ds.params, spec.n_test,
                                       np.random.default_rng(test_ss))
        except _TRIAL_ERRORS as exc:
            for result, _, _ in finals:
                _fail(result, exc)
        else:
            for result, c, mu_pre in finals:
                result.test_error, result.test_stderr = span_test_error(draw, c, mu_pre)
    return results, (t1 - t0, t2 - t1, time.perf_counter() - t2)


def _trial_filename(d, mu_norm, variant, seed) -> str:
    return f"{variant}_d{d}_mu{float(mu_norm)!r}_s{seed}.json"


def _trial_spec(spec: GridSpec, variant: str) -> dict:
    """What a trial depends on beyond its (d, mu, seed) cell, as JSON reads
    it back: the spec without its axes, with only the trial's own variant."""
    fields = dataclasses.asdict(spec)
    for axis in ("d_values", "mu_values", "seeds"):
        del fields[axis]
    fields["train"] = {variant: fields["train"][variant]}
    return json.loads(json.dumps(fields))


def _atomic_write_json(path: Path, payload: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_TIMING_COLUMNS = ("d", "mu_norm", "seed", "data_s", "train_s", "test_s")


def _read_timings(path) -> dict[tuple, tuple]:
    """The rows of an earlier timings.csv by (d, mu_norm, seed); none when
    the file is missing, has another header or a row that does not parse."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        return {}
    if rows[:1] != [list(_TIMING_COLUMNS)]:
        return {}
    try:
        return {(int(d), float(mu_norm), int(seed)): (float(data_s), float(train_s), float(test_s))
                for d, mu_norm, seed, data_s, train_s, test_s in rows[1:]}
    except ValueError:  # e.g. a last row cut short by an interrupted run
        return {}


def _openblas_thread_controls() -> list[tuple]:
    """(get_num_threads, set_num_threads, get_config) of the OpenBLAS that
    the numpy wheel bundles, the only BLAS a samdyn process loads; the
    lookup returns the handle the interpreter already holds.  Empty when
    numpy links another BLAS."""
    controls = []
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        # the file name's part between "lib" and "openblas" prefixes the symbols
        prefix = path.name[len("lib"):path.name.index("openblas")]
        for suffix in ("64_", ""):
            name = f"{prefix}openblas_get_num_threads{suffix}"
            get = getattr(lib, name, None)
            if get is not None:
                set_ = getattr(lib, name.replace("get_", "set_"))
                config = getattr(lib, name.replace("num_threads", "config"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                controls.append((get, set_, config))
                break
    return controls


def openblas_environment() -> list[dict]:
    """Build string and current thread count of each bundled OpenBLAS."""
    return [{"config": config().decode().strip(), "threads": get()}
            for get, _, config in _openblas_thread_controls()]


def _pin_blas_threads(counts=None) -> list[int]:
    """Set each bundled OpenBLAS to its entry of counts (default: one
    thread each) and return the counts it had before."""
    controls = _openblas_thread_controls()
    before = [get() for get, _, _ in controls]
    for (_, set_, _), n in zip(controls, counts or [1] * len(controls)):
        set_(n)
    return before


def _read_trial(path: Path, spec: GridSpec, cell: tuple) -> TrialResult:
    """The TrialResult in the trial file of cell.  Raises ValueError, naming
    the file and the field, unless the file is a JSON object holding the
    spec and exactly the TrialResult fields, each of its type (an int
    passes as a float), with the cell's own coordinates: what run_grid
    writes."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # unparsable JSON or bytes that are not UTF-8
            raise ValueError(f"{path}: not a JSON trial file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: holds a JSON {type(payload).__name__}, not a trial object")
    if payload.pop("spec", None) != _trial_spec(spec, cell[2]):
        raise ValueError(f"{path}: trial was run with a different or unrecorded spec")
    types = {f.name: f.type for f in dataclasses.fields(TrialResult)}
    if payload.keys() != types.keys():
        raise ValueError(f"{path}: unknown fields {sorted(payload.keys() - types.keys())}, "
                         f"missing fields {sorted(types.keys() - payload.keys())}")
    for name, kind in types.items():
        value = payload[name]
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ValueError(f"{path}: field {name!r} holds {value!r}, "
                             f"not {getattr(kind, '__name__', kind)}")
    for name, value in zip(("d", "mu_norm", "algo", "seed"), cell):
        if payload[name] != value:
            raise ValueError(f"{path}: field {name!r} holds {payload[name]!r}, "
                             f"but the file is the trial of {name} = {value!r}")
    return TrialResult(**payload)


def check_grid_run(spec: GridSpec, out_dir, jobs: int = 1,
                   resume: bool = False) -> dict[tuple, TrialResult]:
    """Refuse a grid run before it writes anything, and return the finished
    trials a resume reuses, by cell.

    Raises ValueError for jobs < 1 and, with resume=True, for a trial file
    under out_dir that _read_trial refuses.  A trial read back as not failed
    but with a non-finite test_error is marked failed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    done: dict[tuple, TrialResult] = {}
    if not resume:
        return done
    trials_dir = Path(out_dir) / "trials"
    for cell in spec.cells():
        path = trials_dir / _trial_filename(*cell)
        if path.exists():
            result = _read_trial(path, spec, cell)
            if not result.failed and not math.isfinite(result.test_error):
                _fail(result, ValueError(f"{path.name}: test_error is {result.test_error!r}"))
            done[cell] = result
    return done


def run_grid(spec: GridSpec, out_dir, jobs: int = 1, resume: bool = False) -> list[TrialResult]:
    """Execute every (d, mu, variant, seed) trial, as one run_cell task per
    (d, mu, seed) cell with pending variants, and persist results.

    Writes trials/<trial>.json incrementally (atomic per trial, as each
    cell finishes), then results.csv, per-variant heatmap CSV + PGM files,
    and timings.csv (per cell: data_s, train_s and test_s as run_cell
    measures them) under out_dir.  With resume=True, existing trial files
    are loaded instead of re-run, and timings.csv keeps its rows for the
    spec's cells this run did not execute.  check_grid_run's refusals come
    before anything is written.
    """
    done = check_grid_run(spec, out_dir, jobs, resume)
    out = Path(out_dir)
    trials_dir = out / "trials"
    trials_dir.mkdir(parents=True, exist_ok=True)
    cells = spec.cells()
    pending: dict[tuple, list[str]] = {}
    for d, mu_norm, variant, seed in cells:
        if (d, mu_norm, variant, seed) not in done:
            pending.setdefault((d, mu_norm, seed), []).append(variant)
    # run_cell's arguments, one column per parameter, one row per cell, largest d first
    order = sorted(pending, key=lambda cell: -cell[0])
    columns = ([spec] * len(order), *zip(*order), [tuple(pending[cell]) for cell in order])
    timings = _read_timings(out / "timings.csv") if resume else {}

    def persist(outputs) -> None:
        for cell, (results, seconds) in zip(order, outputs):
            timings[cell] = seconds
            for r in results:
                trial = (r.d, r.mu_norm, r.algo, r.seed)
                payload = {**dataclasses.asdict(r), "spec": _trial_spec(spec, r.algo)}
                _atomic_write_json(trials_dir / _trial_filename(*trial), payload)
                done[trial] = r

    if jobs > 1 and len(order) > 1:
        # a fork pool starts every worker at once: start no more than there are cells
        # the executor's module, and with it multiprocessing, loads on first use
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(order)),
                                                    initializer=_pin_blas_threads) as pool:
            persist(pool.map(run_cell, *columns))
    else:
        caller_threads = _pin_blas_threads()
        try:
            persist(map(run_cell, *columns))
        finally:
            _pin_blas_threads(caller_threads)

    results = [done[c] for c in cells]
    write_results_csv(out / "results.csv", results)
    export_heatmap(results, out)
    kept = {(r.d, r.mu_norm, r.seed) for r in results}  # no earlier row of a cell the spec lost
    write_csv(out / "timings.csv", _TIMING_COLUMNS,
              [(*cell, *seconds) for cell, seconds in sorted(timings.items()) if cell in kept])
    return results


# results.csv columns, the TrialResult fields, each read by the parser of its
# type: a bool is written 0/1 and None empty (tables.write_csv)
_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialResult))
_PARSERS = {bool: lambda value: bool(int(value)), int | None: optional(int)}
_CSV_READERS = {f.name: _PARSERS.get(f.type, f.type) for f in dataclasses.fields(TrialResult)}


def write_results_csv(path, results: list[TrialResult]) -> None:
    """Long-form per-trial table, sorted so identical grids give identical
    bytes regardless of execution order."""
    rows = sorted(results, key=lambda r: (r.algo, r.d, r.mu_norm, r.seed))
    write_csv(path, _CSV_COLUMNS, [[getattr(r, c) for c in _CSV_COLUMNS] for r in rows])


def load_results_csv(path) -> list[TrialResult]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(_CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected results header: {header}")
        results = []
        for vals in reader:
            if len(vals) != len(_CSV_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num} has {len(vals)} fields, "
                                 f"the header {len(_CSV_COLUMNS)}")
            results.append(TrialResult(**{c: _CSV_READERS[c](v)
                                          for c, v in zip(_CSV_COLUMNS, vals)}))
        return results


@dataclass
class CellAggregate:
    d: int
    mu_norm: float
    algo: str
    mean_test_error: float
    stderr: float
    n_seeds: int


def aggregate(results: list[TrialResult]) -> list[CellAggregate]:
    """Per-cell mean test error; stderr is the spread of per-seed values
    (falls back to the single trial's binomial stderr for one seed)."""
    cells: dict[tuple, list[TrialResult]] = {}
    for r in results:
        if r.failed:
            continue
        cells.setdefault((r.algo, r.d, r.mu_norm), []).append(r)
    out = []
    for (algo, d, mu_norm), trials in sorted(cells.items()):
        errs = np.array([t.test_error for t in trials])
        if len(errs) > 1:
            stderr = float(errs.std(ddof=1) / math.sqrt(len(errs)))
        else:
            stderr = trials[0].test_stderr
        out.append(
            CellAggregate(
                d=d, mu_norm=mu_norm, algo=algo,
                mean_test_error=float(errs.mean()), stderr=stderr, n_seeds=len(errs),
            )
        )
    return out


def export_heatmap(results: list[TrialResult], out_dir) -> list[Path]:
    """Write per-variant aggregates as CSV and a PGM render in place of
    every heatmap file in out_dir: one CSV for every variant in results,
    empty and with no PGM when none of its trials survived.

    The graymap uses gray = round(255 * (1 - clamp(error, 0, 1))), so low
    test error renders bright; rows are d ascending (top row = smallest d),
    columns mu ascending.  The CSV is the artifact of record; the image is
    a convenience render of the same numbers.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    aggs = aggregate(results)
    by_algo: dict[str, list[CellAggregate]] = {}
    for a in aggs:
        by_algo.setdefault(a.algo, []).append(a)

    for stale in [*out.glob("heatmap_*.csv"), *out.glob("heatmap_*.pgm")]:
        stale.unlink()  # no table or render of an earlier run outlives this one
    written = []
    for algo in sorted({r.algo for r in results}):
        cells = by_algo.get(algo, [])
        csv_path = out / f"heatmap_{algo}.csv"
        write_csv(csv_path, [f.name for f in dataclasses.fields(CellAggregate)],
                  map(dataclasses.astuple, sorted(cells, key=lambda a: (a.d, a.mu_norm))))
        written.append(csv_path)
        if not cells:
            continue
        pgm_path = out / f"heatmap_{algo}.pgm"
        ds = sorted({a.d for a in cells})
        mus = sorted({a.mu_norm for a in cells})
        grid = {(a.d, a.mu_norm): a.mean_test_error for a in cells}
        with open(pgm_path, "w") as fh:
            fh.write("P2\n")
            fh.write("# gray = round(255*(1 - clamp(test_error, 0, 1)));")
            fh.write(" rows: d ascending, cols: mu ascending\n")
            fh.write(f"{len(mus)} {len(ds)}\n255\n")
            for d in ds:
                vals = []
                for mu in mus:
                    err = grid.get((d, mu), 1.0)
                    vals.append(str(int(round(255 * (1 - min(max(err, 0.0), 1.0))))))
                fh.write(" ".join(vals) + "\n")
        written.append(pgm_path)
    return written


def train_variants(algo, eta, B, epochs, tau) -> dict:
    """One TrainConfig per combination of the listed values, each a tuple,
    by variant name: the algorithm plus _<key><value:g> for each of eta, B,
    epochs and tau that lists more than one value.  tau is read by sam
    only, so sgd variants run at tau = 0 and their names omit it; a sam
    variant without tau (None) is refused.  Two variants of one name are
    refused, naming it."""
    variants = {}
    for a in algo:
        if a == "sam" and tau is None:
            raise ValueError("algo = sam needs tau, the SAM radius, which has no default")
        axes = {"eta": eta, "B": B, "epochs": epochs, "tau": tau if a == "sam" else (0.0,)}
        for values in itertools.product(*axes.values()):
            setting = dict(zip(axes, values))
            name = a + "".join(f"_{k}{v:g}" for k, v in setting.items() if len(axes[k]) > 1)
            if name in variants:
                raise ValueError(f"two training variants are named {name!r}")
            variants[name] = TrainConfig(algo=a, **setting)
    return variants


def phase_grid_spec(reduced: bool = False) -> GridSpec:
    """The synthetic heatmap experiment: n=20 clean samples, sigma_p=1,
    m=10 filters, d from 1000 to 21000 by mu from 0 to 10, 10 seeds,
    1000 test points, trained by full-batch descent for 100 epochs and by
    the same with an ascent perturbation of radius 0.03.  The batch loss
    is a size-B mean, so eta=0.2 equals a step of 0.01 under the
    per-sample-sum convention at n=20; the perturbation radius is
    normalization-invariant.  reduced=True gives the 3x4x3-seed
    acceptance grid.
    """
    if reduced:
        d_values = (1000, 5000, 20000)
        mu_values = (1.0, 3.0, 6.0, 10.0)
        seeds = (0, 1, 2)
    else:
        d_values = tuple(range(1000, 21001, 2000))
        mu_values = tuple(float(v) for v in range(0, 11))
        seeds = tuple(range(10))
    return GridSpec(
        d_values=d_values,
        mu_values=mu_values,
        seeds=seeds,
        n=20,
        P=2,
        sigma_p=1.0,
        p=0.0,
        m=10,
        train=train_variants(("sgd", "sam"), (0.2,), (20,), (100,), (0.03,)),
        n_test=1000,
    )

