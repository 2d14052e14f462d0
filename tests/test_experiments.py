import concurrent.futures
import csv
import dataclasses
import itertools
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from samdyn import experiments, optim
from samdyn.data import DataParams, gen_dataset, make_signal
from samdyn.decomposition import CoeffTracker
from samdyn.experiments import (
    GridSpec,
    aggregate,
    estimate_test_error,
    export_heatmap,
    load_results_csv,
    run_cell,
    run_grid,
    phase_grid_spec,
    trial_seed_sequence,
    write_results_csv,
    TrialResult,
)
from samdyn.network import model_grad_coeffs, model_preacts, span_vectors
from samdyn.optim import TrainConfig, train

from helpers import reference_test_error, score_weights


def tiny_spec(**overrides):
    base = dict(
        d_values=(60, 120),
        mu_values=(1.0, 4.0),
        seeds=(0, 1),
        n=8,
        P=2,
        sigma_p=1.0,
        p=0.0,
        m=3,
        train={
            "sgd": TrainConfig(eta=0.4, B=8, epochs=12, algo="sgd"),
            "sam": TrainConfig(eta=0.4, B=8, epochs=12, algo="sam", tau=0.05),
        },
        n_test=200,
    )
    base.update(overrides)
    return GridSpec(**base)


def test_estimate_zero_weights_sign_convention():
    params = DataParams(d=10, P=2, p=0.0, mu_norm=1.0)
    w = np.zeros((2, 3, 10))
    [(rate, stderr)] = score_weights([w], params, make_signal(10, 1.0), 500,
                                     np.random.default_rng(0))
    assert rate == 1.0  # f = 0 everywhere and sign(0) counts as an error
    assert stderr == 0.0


def test_estimate_perfect_classifier():
    d = 50
    params = DataParams(d=d, P=2, p=0.0, mu_norm=20.0)
    mu = make_signal(d, 20.0)
    w = np.stack([mu[None, :], -mu[None, :]])  # w_+ = mu, w_- = -mu
    [(rate, stderr)] = score_weights([w], params, mu, 1000, np.random.default_rng(1))
    assert rate <= 0.01


def test_estimate_bayes_floor():
    d = 40
    p = 0.3
    params = DataParams(d=d, P=2, p=p, mu_norm=25.0)
    mu = make_signal(d, 25.0)
    w = np.stack([mu[None, :], -mu[None, :]])
    [(rate, stderr)] = score_weights([w], params, mu, 4000, np.random.default_rng(2))
    assert abs(rate - p) <= 3 * max(stderr, np.sqrt(p * (1 - p) / 4000))


def test_estimate_chance_level_no_signal():
    d = 80
    params = DataParams(d=d, P=2, p=0.0, mu_norm=0.0)
    w = np.random.default_rng(3).normal(size=(2, 4, d))
    [(rate, _)] = score_weights([w], params, make_signal(d, 0.0), 1000,
                                np.random.default_rng(4))
    assert 0.4 <= rate <= 0.6


class _RecordingGenerator:
    """A Generator that logs (chunk size, rows) for every noise fill; the
    chunk size is the length of the last rng.random draw."""

    def __init__(self, rng):
        self.rng, self.chunk, self.fills = rng, None, []

    def random(self, k):
        self.chunk = k
        return self.rng.random(k)

    def standard_normal(self, out):
        self.fills.append((self.chunk, len(out)))
        return self.rng.standard_normal(out=out)


def test_estimate_scores_every_w_on_the_reference_stream():
    """Two weight arrays scored on one shared draw each get exactly the
    estimate of the documented per-chunk stream, and the generator ends
    where that stream leaves it: for one sample, for sizes that leave a
    partial chunk, and at d whose noise is scored in blocks smaller than a
    chunk.  No noise block has one row unless its chunk has one sample: at
    d=17000, 15-row blocks would leave a one-row tail in every full chunk."""
    assert experiments._test_block_rows(5000) < experiments._TEST_CHUNK
    assert experiments._TEST_CHUNK % experiments._test_block_rows(17000) == 1
    for d, n_test in itertools.product((30, 5000, 17000), (1, 257, 600)):
        params = DataParams(d=d, P=3, sigma_p=1.7, p=0.2, mu_norm=1.5)
        mu = make_signal(d, 1.5)
        w1, w2 = np.random.default_rng(11).normal(0.0, 0.3, size=(2, 2, 4, d))
        rng = _RecordingGenerator(np.random.default_rng(12))
        got = score_weights([w1, w2], params, mu, n_test, rng)
        want = []
        for w in (w1, w2):
            ref_rng = np.random.default_rng(12)
            want.append(reference_test_error(w, params, mu, n_test, ref_rng))
        assert got == want, (d, n_test)
        assert rng.rng.bit_generator.state == ref_rng.bit_generator.state, (d, n_test)
        assert all(rows > 1 or chunk == 1 for chunk, rows in rng.fills), (d, n_test, rng.fills)
        if n_test == 600:
            assert got[0] != got[1] and all(0.0 < rate < 1.0 for rate, _ in got)
    # the buffered draw is bitwise the rng.normal draw it replaces
    scaled = np.random.default_rng(3).standard_normal((5, d)) * params.sigma_p
    assert np.array_equal(scaled, np.random.default_rng(3).normal(0.0, params.sigma_p, (5, d)))


def test_estimate_test_error_memory_does_not_grow_with_the_chunk():
    """At d=20000 the scorer holds one noise block of about 2 MiB, not a
    (256, d) chunk of 41 MB, while it projects onto a cell's 41 rows
    [w0's 20 filters; mu; xi_1..xi_20]."""
    d = 20000
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.0, mu_norm=3.0)
    filters = np.random.default_rng(0).normal(0.0, 0.01, size=(41, d))
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        estimate_test_error(filters, params, 300, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_span_scorer_matches_the_reference_on_the_weights():
    """A projection onto [w0; mu; xi] scores w0 + C [mu; xi] as the d-space
    reference scores those weights, for random w0 and C, and leaves the
    generator where the reference leaves it."""
    for d in (30, 5000, 17000):
        params = DataParams(d=d, P=3, sigma_p=1.7, p=0.2, mu_norm=1.5)
        ds = gen_dataset(params, make_signal(d, 1.5), 6, seed=d)
        rng = np.random.default_rng(21)
        w0 = rng.normal(0.0, 0.3, size=(2, 4, d))
        cs = rng.normal(0.0, 0.5, size=(2, 8, 7))
        filters = np.concatenate([w0.reshape(8, d), ds.mu[None, :], ds.xi])
        test_rng = np.random.default_rng(22)
        draw = estimate_test_error(filters, params, 600, test_rng)
        for c in cs:
            w = w0 + span_vectors(c, ds.mu, ds.xi)
            mu_pre = model_preacts(w, ds.mu, ds.xi[:0])[0]
            ref_rng = np.random.default_rng(22)
            want = reference_test_error(w, params, ds.mu, 600, ref_rng)
            assert experiments.span_test_error(draw, c, mu_pre) == want, d
            assert 0.0 < want[0] < 1.0
            assert test_rng.bit_generator.state == ref_rng.bit_generator.state, d


@pytest.mark.parametrize("init", ["gaussian", "uniform_fan_in"])
def test_projection_part_projects_onto_the_trained_w0(monkeypatch, init):
    """run_cell projects its test draw onto train's own w0, bit for bit,
    then mu and the cell's xi_i."""
    spec = tiny_spec(init=init)
    seen = []
    project = experiments.estimate_test_error

    def spy(filters, *args):
        seen.append(filters.copy())
        return project(filters, *args)

    monkeypatch.setattr(experiments, "estimate_test_error", spy)
    run_cell(spec, 60, 4.0, 1, ("sgd", "sam"))
    ss = trial_seed_sequence(0, 60, 4.0, 1).spawn(3)
    ds = gen_dataset(spec.data_params(60, 4.0), make_signal(60, 4.0), spec.n, seed=ss[0])
    cfg = dataclasses.replace(spec.train["sgd"], seed=int(ss[1].generate_state(1)[0]))
    w0 = train(ds, spec.net_config(60), cfg).w0
    [filters] = seen
    assert np.array_equal(filters, np.concatenate([w0.reshape(6, 60), ds.mu[None, :], ds.xi]))


def test_cell_holds_each_d_space_array_once():
    """A d=20000 cell of the reduced grid peaks below 1.6x the bytes of
    its filter matrix F: F is filled in place and the dataset is dropped
    before w0 is drawn again, so no two copies of w0, mu or xi coexist."""
    spec = phase_grid_spec(reduced=True)
    d = 20000
    filter_bytes = (2 * spec.m + 1 + spec.n) * d * 8
    tracemalloc.start()
    try:
        results, _ = run_cell(spec, d, 6.0, 0, ("sam", "sgd"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in results)
    assert peak < 1.6 * filter_bytes, peak / filter_bytes


def test_trial_seed_sequence_is_coordinate_hash():
    a = trial_seed_sequence(0, 100, 2.0, 1)
    b = trial_seed_sequence(0, 100, 2.0, 1)
    assert a.entropy == b.entropy
    assert trial_seed_sequence(0, 100, 2.0, 2).entropy != a.entropy
    assert trial_seed_sequence(1, 100, 2.0, 1).entropy != a.entropy


def test_variants_share_data_and_init():
    """The same seed label pairs the algorithms on one (dataset, init,
    test set) triple, so variant differences are paired comparisons."""
    spec = tiny_spec()
    (sgd, sam), _ = run_cell(spec, 60, 4.0, 0, ("sgd", "sam"))
    zero_tau_sam = GridSpec(
        **{**spec.__dict__, "train": {"sam": TrainConfig(eta=0.4, B=8, epochs=12,
                                                          algo="sam", tau=0.0)}}
    )
    [paired], _ = run_cell(zero_tau_sam, 60, 4.0, 0, ("sam",))
    # tau=0 SAM is bitwise SGD on the shared streams
    assert paired.train_loss == sgd.train_loss
    assert paired.test_error == sgd.test_error
    assert sam.test_error != sgd.test_error or sam.train_loss != sgd.train_loss


def test_run_trial_deterministic():
    spec = tiny_spec()
    [a], _ = run_cell(spec, 60, 4.0, 0, ("sgd",))
    [b], _ = run_cell(spec, 60, 4.0, 0, ("sgd",))
    assert a == b
    assert not a.failed
    assert 0.0 <= a.test_error <= 1.0
    assert a.train_loss >= 0


def test_run_trial_no_signal_chance_level():
    spec = tiny_spec(mu_values=(0.0,), n_test=400)
    [r], _ = run_cell(spec, 100, 0.0, 0, ("sgd",))
    assert not r.failed
    assert 0.35 <= r.test_error <= 0.65


def test_cell_variant_failure_leaves_others_unchanged():
    """A variant that diverges fails alone: the other variant of its cell
    gets the result it gets when it runs by itself."""
    boom = TrainConfig(eta=1e308, B=8, epochs=12, algo="sgd")
    spec = tiny_spec(train={**tiny_spec().train, "boom": boom})
    with np.errstate(over="ignore", invalid="ignore"):
        (failed, sgd), _ = run_cell(spec, 60, 4.0, 0, ("boom", "sgd"))
    assert failed.failed and failed.error.startswith("TrainingDivergedError")
    assert not sgd.failed
    assert [sgd] == run_cell(spec, 60, 4.0, 0, ("sgd",))[0]


def test_run_cell_trains_without_hooks(monkeypatch):
    """The grid reads its coefficients from the records' C: no per-step hook."""
    calls = []

    def spy(ds, net, cfg, hooks=()):
        calls.append(tuple(hooks))
        return train(ds, net, cfg, hooks=hooks)

    monkeypatch.setattr(experiments, "train", spy)
    results, _ = run_cell(tiny_spec(), 60, 4.0, 0, ("sam", "sgd"))
    assert calls == [(), ()]
    assert not any(r.failed for r in results)
    assert all(r.max_gamma > 0 and r.max_sum_zeta > 0 for r in results)


def test_run_cell_catches_a_sign_flipped_noise_coefficient(monkeypatch):
    """A step that moves C against the sign its own BatchTerms imply fails
    the trial; a replay of the BatchTerms would not see it."""
    def flipped(*args):
        g, terms = model_grad_coeffs(*args)
        g = g.copy()
        g[:, 1:] *= -1.0
        return g, terms

    monkeypatch.setattr(optim, "model_grad_coeffs", flipped)
    [result], _ = run_cell(tiny_spec(), 60, 4.0, 0, ("sgd",))
    assert result.failed
    assert result.error.startswith("InvariantViolation: ")


def test_run_cell_coefficients_match_the_tracker():
    """max_gamma and max_sum_zeta equal the coefficient tracker's final values."""
    spec = tiny_spec()
    ds = gen_dataset(spec.data_params(120, 4.0), make_signal(120, 4.0), spec.n,
                     seed=trial_seed_sequence(0, 120, 4.0, 1).spawn(3)[0])
    train_seed = int(trial_seed_sequence(0, 120, 4.0, 1).spawn(3)[1].generate_state(1)[0])
    for result in run_cell(spec, 120, 4.0, 1, ("sam", "sgd"))[0]:
        tracker = CoeffTracker(ds, spec.m)
        cfg = dataclasses.replace(spec.train[result.algo], seed=train_seed)
        train(ds, spec.net_config(120), cfg, hooks=(tracker,))
        want_gamma = float(tracker.coeffs.gamma.max())
        want_zeta = float(tracker.coeffs.zeta.sum(axis=2).max())
        assert result.max_gamma == pytest.approx(want_gamma, rel=1e-12)
        assert result.max_sum_zeta == pytest.approx(want_zeta, rel=1e-12)


def test_run_cell_draws_no_test_set_when_every_variant_fails(monkeypatch):
    """A cell whose every variant diverges fails them all and draws nothing."""
    draws = []
    monkeypatch.setattr(experiments, "estimate_test_error", lambda *args: draws.append(args))
    boom = TrainConfig(eta=1e308, B=8, epochs=12, algo="sgd")
    spec = tiny_spec(train={"boom": boom, "bang": boom})
    with np.errstate(over="ignore", invalid="ignore"):
        results, _ = run_cell(spec, 60, 4.0, 0, ("bang", "boom"))
    assert all(r.failed and r.error.startswith("TrainingDivergedError") for r in results)
    assert draws == []


def test_run_grid_single_cell(tmp_path):
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0,),
                     train={"sgd": TrainConfig(eta=0.4, B=8, epochs=5, algo="sgd")})
    results = run_grid(spec, tmp_path)
    assert len(results) == 1
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "trials").is_dir()
    assert (tmp_path / "heatmap_sgd.csv").exists()
    assert (tmp_path / "heatmap_sgd.pgm").exists()


def test_run_grid_rerun_byte_identical(tmp_path):
    spec = tiny_spec()
    run_grid(spec, tmp_path / "a")
    run_grid(spec, tmp_path / "b")
    assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
    for algo in ("sgd", "sam"):
        assert (tmp_path / f"a/heatmap_{algo}.pgm").read_bytes() == (
            tmp_path / f"b/heatmap_{algo}.pgm"
        ).read_bytes()


def test_run_grid_parallel_matches_serial(tmp_path):
    spec = tiny_spec(d_values=(60,), seeds=(0, 1))
    run_grid(spec, tmp_path / "serial", jobs=1)
    run_grid(spec, tmp_path / "par", jobs=2)
    assert (tmp_path / "serial/results.csv").read_bytes() == (
        tmp_path / "par/results.csv"
    ).read_bytes()


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_grid_rejects_jobs_below_one(tmp_path, jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_grid(tiny_spec(), tmp_path / "grid", jobs=jobs)
    assert not (tmp_path / "grid").exists()


def test_run_grid_runs_trials_on_one_blas_thread(tmp_path, monkeypatch):
    """Every cell task, serial and pooled, sees one thread in every bundled
    OpenBLAS, and the caller's counts are back when run_grid returns."""
    controls = experiments._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy links no bundled OpenBLAS")
    log = tmp_path / "threads.log"

    def probe(spec, d, mu_norm, seed):
        counts = [get() for get, _, _ in experiments._openblas_thread_controls()]
        with open(log, "a") as fh:
            fh.write(f"{counts}\n")
        raise ValueError("probe")  # fails the cell's variants before any training

    # the pool forks, so its workers see the probe too
    monkeypatch.setattr(experiments, "_cell_inputs", probe)
    before = experiments._pin_blas_threads([2] * len(controls))
    try:
        caller = [get() for get, _, _ in controls]
        for jobs in (1, 2):
            log.unlink(missing_ok=True)
            results = run_grid(tiny_spec(), tmp_path / f"jobs{jobs}", jobs=jobs)
            assert all(r.error == "ValueError: probe" for r in results)
            lines = log.read_text().splitlines()
            assert lines == [f"{[1] * len(controls)}"] * (len(tiny_spec().cells()) // 2)
            assert [get() for get, _, _ in controls] == caller
    finally:
        experiments._pin_blas_threads(before)


def test_run_grid_pool_size_and_order(tmp_path, monkeypatch):
    """The pool starts no more workers than there are cells and is handed
    one run_cell task per cell, largest d first."""
    seen = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, *columns):
            columns = [list(column) for column in columns]
            seen.append((fn, columns[1], columns[4]))
            return super().map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = tiny_spec(d_values=(60, 120, 90), mu_values=(2.0,), seeds=(0,))
    run_grid(spec, tmp_path, jobs=8)
    assert seen == [3, (run_cell, [120, 90, 60], [("sam", "sgd")] * 3)]


def test_run_grid_scores_each_cell_once(tmp_path, monkeypatch):
    """Each (d, mu, seed) cell draws one test projection, onto its
    2m + 1 + n span rows, and that one projection scores all its variants."""
    projections, scored = [], []
    project, score = experiments.estimate_test_error, experiments.span_test_error

    def project_spy(filters, *args):
        projections.append(project(filters, *args))
        return projections[-1]

    def score_spy(draw, *args):
        scored.append(draw)
        return score(draw, *args)

    monkeypatch.setattr(experiments, "estimate_test_error", project_spy)
    monkeypatch.setattr(experiments, "span_test_error", score_spy)
    spec = tiny_spec()
    run_grid(spec, tmp_path)
    assert len(projections) == len(spec.cells()) // 2
    assert {draw.t.shape for draw in projections} == {(2 * spec.m + 1 + spec.n, spec.n_test)}
    assert [sum(s is draw for s in scored) for draw in projections] == [2] * len(projections)


def test_serial_grid_generates_each_dataset_once(tmp_path, monkeypatch):
    """A serial grid builds each (d, mu, seed) cell's dataset once: the
    cell's variants and its test projection share it."""
    made = []
    generate = experiments.gen_dataset

    def spy(params, *args, **kwargs):
        made.append((params.d, params.mu_norm))
        return generate(params, *args, **kwargs)

    monkeypatch.setattr(experiments, "gen_dataset", spy)
    spec = tiny_spec()
    run_grid(spec, tmp_path, jobs=1)
    assert sorted(made) == sorted((d, mu) for d in spec.d_values for mu in spec.mu_values
                                  for _ in spec.seeds)


def test_run_grid_resume_runs_only_pending_variant(tmp_path, monkeypatch):
    """With one variant of a cell missing, the resume trains that variant
    alone, draws that cell's test set alone, and results.csv matches the
    fresh run byte for byte."""
    spec = tiny_spec()
    run_grid(spec, tmp_path / "full")
    partial = tmp_path / "partial"
    shutil.copytree(tmp_path / "full" / "trials", partial / "trials")
    (partial / "trials" / "sam_d120_mu4.0_s1.json").unlink()
    calls = []
    trainer, project = experiments.train, experiments.estimate_test_error

    def train_spy(ds, net, cfg):
        calls.append(("train", ds.params.d, ds.params.mu_norm, cfg.algo))
        return trainer(ds, net, cfg)

    def project_spy(filters, params, *args):
        calls.append(("test", params.d, params.mu_norm))
        return project(filters, params, *args)

    monkeypatch.setattr(experiments, "train", train_spy)
    monkeypatch.setattr(experiments, "estimate_test_error", project_spy)
    run_grid(spec, partial, resume=True)
    assert calls == [("train", 120, 4.0, "sam"), ("test", 120, 4.0)]
    assert (tmp_path / "full/results.csv").read_bytes() == (
        partial / "results.csv"
    ).read_bytes()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_grid_writes_part_timings_beside_results(tmp_path):
    """timings.csv holds one row per cell with its data, training and test
    seconds; a resume keeps the rows of the cells it does not rerun and
    leaves results.csv as it was."""
    spec = tiny_spec(d_values=(60, 120), mu_values=(2.0,), seeds=(0,))
    run_grid(spec, tmp_path, jobs=2)
    rows = _csv_rows(tmp_path / "timings.csv")
    assert rows[0] == ["d", "mu_norm", "seed", "data_s", "train_s", "test_s"]
    assert [row[:3] for row in rows[1:]] == [["60", "2.0", "0"], ["120", "2.0", "0"]]
    assert all(float(value) > 0 for row in rows[1:] for value in row[3:])
    assert "train_s" not in (tmp_path / "results.csv").read_text()
    before = (tmp_path / "results.csv").read_bytes()
    run_grid(spec, tmp_path, resume=True)
    assert _csv_rows(tmp_path / "timings.csv") == rows
    assert (tmp_path / "results.csv").read_bytes() == before
    (tmp_path / "trials" / "sgd_d120_mu2.0_s0.json").unlink()
    run_grid(spec, tmp_path, resume=True)
    rerun = _csv_rows(tmp_path / "timings.csv")
    assert rerun[:2] == rows[:2] and rerun[2][:3] == rows[2][:3] and rerun[2] != rows[2]
    assert (tmp_path / "results.csv").read_bytes() == before
    # a file of another layout, or with a row cut short, is replaced, not merged
    for text in ("d,mu_norm,seed,part,seconds\n60,2.0,0,train,1.0\n",
                 ",".join(rows[0]) + "\n" + ",".join(rows[1]) + "\n120,2.0\n"):
        (tmp_path / "timings.csv").write_text(text)
        run_grid(spec, tmp_path, resume=True)
        assert _csv_rows(tmp_path / "timings.csv") == rows[:1]


def test_resume_marks_a_nan_test_error_failed(tmp_path):
    """A trial file read back with a NaN test_error and failed = false
    reads failed, naming the field, and every output is still written."""
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0, 1))
    run_grid(spec, tmp_path)
    path = tmp_path / "trials" / "sgd_d60_mu2.0_s1.json"
    payload = json.loads(path.read_text())
    payload["test_error"] = float("nan")
    path.write_text(json.dumps(payload))
    for name in ("results.csv", "timings.csv", "heatmap_sgd.csv", "heatmap_sgd.pgm"):
        (tmp_path / name).unlink()
    results = run_grid(spec, tmp_path, resume=True)
    for name in ("results.csv", "timings.csv", "heatmap_sgd.csv", "heatmap_sgd.pgm",
                 "heatmap_sam.csv", "heatmap_sam.pgm"):
        assert (tmp_path / name).exists(), name
    [row] = [r for r in load_results_csv(tmp_path / "results.csv")
             if (r.algo, r.seed) == ("sgd", 1)]
    assert row.failed and "test_error" in row.error
    assert [(r.algo, r.seed, r.error) for r in results if r.failed] == [("sgd", 1, row.error)]
    [agg] = [a for a in aggregate(results) if a.algo == "sgd"]
    assert agg.n_seeds == 1


def test_run_grid_resume_completes_partial(tmp_path):
    spec = tiny_spec()
    full = tmp_path / "full"
    run_grid(spec, full)
    partial = tmp_path / "partial"
    (partial / "trials").mkdir(parents=True)
    # simulate an interrupted run: half the trial files survive
    trial_files = sorted((full / "trials").glob("*.json"))
    for f in trial_files[: len(trial_files) // 2]:
        shutil.copy(f, partial / "trials" / f.name)
    run_grid(spec, partial, resume=True)
    assert (full / "results.csv").read_bytes() == (partial / "results.csv").read_bytes()


def test_trial_files_distinguish_close_mu(tmp_path):
    """Two mu values equal to 6 significant digits get their own trial
    files, so a resumed grid reads each cell's own result back."""
    spec = tiny_spec(d_values=(60,), mu_values=(10.00001, 10.00002), seeds=(0,),
                     train={"sgd": TrainConfig(eta=0.4, B=8, epochs=3, algo="sgd")})
    fresh = run_grid(spec, tmp_path)
    assert len(list((tmp_path / "trials").glob("*.json"))) == len(spec.cells())
    assert run_grid(spec, tmp_path, resume=True) == fresh


def test_resume_refuses_changed_spec(tmp_path):
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0,))
    run_grid(spec, tmp_path)
    train = {k: dataclasses.replace(v, eta=10 * v.eta) for k, v in spec.train.items()}
    with pytest.raises(ValueError, match=r"sam_d60_mu2\.0_s0\.json"):
        run_grid(dataclasses.replace(spec, train=train), tmp_path, resume=True)


def test_resume_refuses_trial_without_spec(tmp_path):
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0,))
    run_grid(spec, tmp_path)
    path = tmp_path / "trials" / "sgd_d60_mu2.0_s0.json"
    payload = json.loads(path.read_text())
    del payload["spec"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"sgd_d60_mu2\.0_s0\.json"):
        run_grid(spec, tmp_path, resume=True)


@pytest.mark.parametrize("edit,field", [
    (lambda p: p.update(test_error=None), "test_error"),
    (lambda p: p.update(extra=1), "extra"),
    (lambda p: p.pop("max_gamma"), "max_gamma"),
    (lambda p: p.update(d="60"), "d"),
    (lambda p: p.update(seed=0), "seed"),
], ids=["null_test_error", "extra_key", "missing_key", "string_d", "other_seed"])
def test_resume_refuses_malformed_trial(tmp_path, edit, field):
    """A hand-edited trial file is refused before anything is written, with
    a ValueError naming the file and the field."""
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0, 1))
    run_grid(spec, tmp_path)
    path = tmp_path / "trials" / "sgd_d60_mu2.0_s1.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match=rf"sgd_d60_mu2\.0_s1\.json.*'{field}'"):
        run_grid(spec, tmp_path, resume=True)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("text", ['{"d": 6', "[]", '"x"', "null"],
                         ids=["cut_short", "list", "string", "null"])
def test_resume_refuses_a_trial_file_that_is_no_json_object(tmp_path, text):
    """A trial file that does not parse, or holds something other than a
    JSON object, is refused before anything is written, with a ValueError
    naming the file."""
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0, 1))
    run_grid(spec, tmp_path)
    (tmp_path / "trials" / "sgd_d60_mu2.0_s1.json").write_text(text)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match=r"sgd_d60_mu2\.0_s1\.json: "):
        run_grid(spec, tmp_path, resume=True)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_resume_reads_back_every_value_run_grid_writes(tmp_path):
    """Integer mu (an int in a float field), a diverged variant's NaN floats
    and None convergence_epoch all read back, to the same results.csv."""
    boom = TrainConfig(eta=1e308, B=8, epochs=12, algo="sgd")
    spec = tiny_spec(d_values=(60,), mu_values=(2,), seeds=(0,),
                     train={"boom": boom, "sgd": TrainConfig(eta=0.4, B=8, epochs=12)})
    with np.errstate(over="ignore", invalid="ignore"):
        fresh = run_grid(spec, tmp_path)
    assert fresh[0].failed and fresh[0].convergence_epoch is None
    before = (tmp_path / "results.csv").read_bytes()
    resumed = run_grid(spec, tmp_path, resume=True)
    assert [r.mu_norm for r in resumed] == [2, 2]
    assert (tmp_path / "results.csv").read_bytes() == before


def test_resume_after_extending_axes(tmp_path):
    """Adding d, mu or seed values keeps the finished trials: only the new
    cells run, and results.csv matches a fresh run of the wider grid."""
    spec = tiny_spec(d_values=(60,), mu_values=(2.0,), seeds=(0,))
    run_grid(spec, tmp_path / "grid")
    trials = tmp_path / "grid" / "trials"
    before = {p.name: p.stat().st_mtime_ns for p in trials.glob("*.json")}
    wide = dataclasses.replace(spec, d_values=(60, 120), mu_values=(2.0, 4.0), seeds=(0, 1))
    run_grid(wide, tmp_path / "grid", resume=True)
    assert {name: (trials / name).stat().st_mtime_ns for name in before} == before
    assert len(list(trials.glob("*.json"))) == len(wide.cells())
    run_grid(wide, tmp_path / "fresh")
    assert (tmp_path / "grid/results.csv").read_bytes() == (
        tmp_path / "fresh/results.csv"
    ).read_bytes()


def test_aggregate_matches_recompute_from_csv(tmp_path):
    spec = tiny_spec(d_values=(60,), mu_values=(1.0,), seeds=(0, 1))
    results = run_grid(spec, tmp_path)
    loaded = load_results_csv(tmp_path / "results.csv")
    for agg in aggregate(loaded):
        per_seed = [
            r.test_error
            for r in loaded
            if (r.algo, r.d, r.mu_norm) == (agg.algo, agg.d, agg.mu_norm) and not r.failed
        ]
        assert agg.mean_test_error == pytest.approx(np.mean(per_seed), rel=1e-12)
        assert agg.n_seeds == len(per_seed)


def test_results_csv_roundtrip(tmp_path):
    rows = [
        TrialResult(d=100, mu_norm=1.5, algo="sgd", seed=3, train_loss=0.01,
                    test_error=0.2, test_stderr=0.01, convergence_epoch=7,
                    max_gamma=1.0, max_sum_zeta=2.0, invariant_violations=0),
        TrialResult(d=100, mu_norm=1.5, algo="sgd", seed=4, train_loss=0.02,
                    test_error=0.3, test_stderr=0.02, convergence_epoch=None,
                    max_gamma=0.5, max_sum_zeta=1.0, invariant_violations=0,
                    failed=True, error="TrainingDivergedError: boom"),
    ]
    path = tmp_path / "r.csv"
    write_results_csv(path, rows)
    back = load_results_csv(path)
    assert back == rows


def test_results_csv_roundtrip_quotes_error(tmp_path):
    rows = [TrialResult(d=100, mu_norm=1.5, algo="sgd", seed=0, failed=True,
                        error='ValueError: weights must have shape (2, m, d), got "(3, 4)"')]
    path = tmp_path / "r.csv"
    write_results_csv(path, rows)
    back = load_results_csv(path)
    assert [r.error for r in back] == [r.error for r in rows]


def test_results_csv_rejects_unknown_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("algo,d\nsgd,1\n")
    with pytest.raises(ValueError, match="header"):
        load_results_csv(path)


def test_results_csv_rejects_a_row_of_another_length(tmp_path):
    """A row cut short (an interrupted write) or with an extra field is
    refused, naming the file and the line, not read with defaults."""
    path = tmp_path / "r.csv"
    write_results_csv(path, [TrialResult(d=1000, mu_norm=1.0, algo="sgd", seed=0)])
    good = path.read_text()
    for row, fields in (("sgd,1000,1.0,0,0.01", 5), (good.splitlines()[1] + ",0", 14)):
        path.write_text(good + row + "\n")
        with pytest.raises(ValueError, match=rf"r\.csv: line 3 has {fields} fields, the header 13$"):
            load_results_csv(path)


def test_export_heatmap_writes_a_table_for_a_variant_with_no_survivor(tmp_path):
    """Every variant in the results gets its CSV: empty, and with no PGM of
    an earlier run beside it, when all its trials failed."""
    (tmp_path / "heatmap_sgd.pgm").write_text("stale")
    results = [TrialResult(d=10, mu_norm=1.0, algo="sgd", seed=0, failed=True, error="x"),
               TrialResult(d=10, mu_norm=1.0, algo="sam", seed=0, test_error=0.25)]
    paths = export_heatmap(results, tmp_path)
    assert paths == [tmp_path / "heatmap_sam.csv", tmp_path / "heatmap_sam.pgm",
                     tmp_path / "heatmap_sgd.csv"]
    assert len((tmp_path / "heatmap_sam.csv").read_text().splitlines()) == 2
    assert (tmp_path / "heatmap_sgd.csv").read_text().splitlines() == [
        "d,mu_norm,algo,mean_test_error,stderr,n_seeds"]
    assert not (tmp_path / "heatmap_sgd.pgm").exists()


def test_export_heatmap_empty(tmp_path):
    paths = export_heatmap([], tmp_path)
    assert paths == []
    spec_rows = [TrialResult(d=10, mu_norm=1.0, algo="sgd", seed=0, failed=True,
                             error="x")]
    paths = export_heatmap(spec_rows, tmp_path)
    csv = tmp_path / "heatmap_sgd.csv"
    assert csv.read_text().splitlines() == ["d,mu_norm,algo,mean_test_error,stderr,n_seeds"]
    assert not (tmp_path / "heatmap_sgd.pgm").exists()


def _synthetic_results(errfn):
    out = []
    for d in (10, 20, 30):
        for mu in (1.0, 2.0, 3.0):
            out.append(
                TrialResult(d=d, mu_norm=mu, algo="sgd", seed=0, train_loss=0.0,
                            test_error=errfn(d, mu), test_stderr=0.0,
                            convergence_epoch=0, max_gamma=0, max_sum_zeta=0,
                            invariant_violations=0)
            )
    return out


def _read_pgm(path):
    tokens = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        tokens.extend(line.split())
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    vals = np.array(tokens[4:], dtype=int).reshape(h, w)
    assert maxval == 255
    return vals


def test_export_heatmap_constant_uniform(tmp_path):
    export_heatmap(_synthetic_results(lambda d, mu: 0.25), tmp_path)
    img = _read_pgm(tmp_path / "heatmap_sgd.pgm")
    assert img.shape == (3, 3)
    assert np.all(img == img[0, 0])


def test_export_heatmap_monotone(tmp_path):
    # error decreasing in mu, increasing in d -> intensity increasing in mu,
    # decreasing in d (rows are d ascending)
    export_heatmap(_synthetic_results(lambda d, mu: d / 100 + (3 - mu) / 10), tmp_path)
    img = _read_pgm(tmp_path / "heatmap_sgd.pgm")
    assert np.all(np.diff(img, axis=1) > 0)
    assert np.all(np.diff(img, axis=0) < 0)


def test_phase_presets():
    full = phase_grid_spec()
    assert full.n == 20 and full.p == 0.0 and full.m == 10
    assert full.d_values[0] == 1000 and full.d_values[-1] == 21000
    assert full.mu_values == tuple(float(v) for v in range(11))
    assert len(full.seeds) == 10
    assert full.train["sam"].tau == 0.03
    assert full.train["sgd"].B == 20  # full batch
    reduced = phase_grid_spec(reduced=True)
    assert reduced.d_values == (1000, 5000, 20000)
    assert reduced.mu_values == (1.0, 3.0, 6.0, 10.0)
    assert reduced.seeds == (0, 1, 2)


@pytest.mark.parametrize("overrides, match", [
    ({"sigma_p": float("nan")}, "sigma_p"),
    ({"p": float("nan")}, "p must be"),
    ({"loss_target": float("nan")}, "loss_target"),
    ({"mu_values": (1.0, float("inf"))}, "mu_norm"),
    ({"d_values": (1000, 0)}, "d must be"),
    ({"m": 0}, "m must be"),
    ({"init": "gaussian", "sigma_0": float("nan")}, "sigma_0"),
    ({"n": 30}, "divide"),
], ids=["sigma_p_nan", "p_nan", "loss_target_nan", "mu_inf", "d_zero", "m_zero",
        "sigma_0_nan", "B_not_dividing_n"])
def test_grid_spec_rejects_invalid_fields(overrides, match):
    """A grid whose cells could not run is refused when it is built."""
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(phase_grid_spec(reduced=True), **overrides)


@pytest.mark.parametrize("overrides, match", [
    ({"seeds": (0, 0)}, "seeds repeats"),
    ({"d_values": (60, 120, 60)}, "d_values repeats"),
    ({"mu_values": (1.0, 4.0, 1.0)}, "mu_values repeats"),
    ({"mu_values": (1.0, 1.0000000001)}, "seed key"),
], ids=["seeds", "d_values", "mu_values", "mu_seed_key"])
def test_grid_spec_rejects_repeated_axis_values(overrides, match):
    """A repeated axis value would run one trial twice, and two mu values
    with one seed key would share every stream; both fake a per-seed
    spread, so the spec refuses them."""
    with pytest.raises(ValueError, match=match):
        tiny_spec(**overrides)

