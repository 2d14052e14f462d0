import concurrent.futures
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_dataset_arrays
from samdyn import data
from samdyn.data import (
    DataParams,
    concentration_report,
    gen_dataset,
    gen_sample,
    load_dataset,
    make_signal,
    save_dataset,
    stack,
)


def test_make_signal_zero():
    assert np.array_equal(make_signal(3, 0.0), np.zeros(3))


def test_make_signal_first_axis():
    mu = make_signal(4, 5.0)
    assert np.array_equal(mu, [5.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(mu) == 5.0


def test_make_signal_unit():
    mu = make_signal(2, 1.0)
    assert np.array_equal(mu, [1.0, 0.0])
    assert np.linalg.norm(mu) == 1.0


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(d=0), "d"),
        (dict(d=3, P=1), "P"),
        (dict(d=3, sigma_p=0.0), "sigma_p"),
        (dict(d=3, sigma_p=-1.0), "sigma_p"),
        (dict(d=3, p=0.5), "p"),
        (dict(d=3, p=-0.1), "p"),
        (dict(d=3, mu_norm=-2.0), "mu_norm"),
    ],
)
def test_params_validation(kwargs, field):
    with pytest.raises(ValueError, match=field):
        DataParams(**kwargs)


def test_no_flip_when_p_zero():
    params = DataParams(d=4, P=3, p=0.0)
    mu = make_signal(4, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        y, y_hat, _ = gen_sample(params, rng, np.empty(4))
        assert y == y_hat


def test_degenerate_noise_limit():
    # sigma_p -> 0: noise patches vanish
    params = DataParams(d=5, P=2, sigma_p=1e-12, mu_norm=1.0)
    xi = np.empty(5)
    gen_sample(params, np.random.default_rng(1), xi)
    assert np.max(np.abs(xi)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 8))
def test_sample_patch_layout(seed, P, d):
    """Exactly one patch equals y_hat * mu; the others are all xi."""
    params = DataParams(d=d, P=P, sigma_p=1.0, p=0.3, mu_norm=2.0)
    mu = make_signal(d, 2.0)
    ds = gen_dataset(params, mu, 1, seed=seed)
    y, y_hat, xi, pos = ds.y[0], ds.y_hat[0], ds.xi[0], ds.signal_pos[0]
    patches = ds.patches()[0]
    assert y in (1, -1) and y_hat in (1, -1)
    assert y in (y_hat, -y_hat)
    assert np.array_equal(patches[pos], y_hat * mu)
    for k in range(P):
        if k != pos:
            assert np.array_equal(patches[k], xi)
    matches = sum(np.array_equal(patches[k], y_hat * mu) for k in range(P))
    if not np.array_equal(xi, y_hat * mu):  # a.s. distinct
        assert matches == 1


def test_flip_rate_monte_carlo():
    """Empirical flip rate over 1e5 draws within the 3-sigma binomial band
    around p = 0.2 (and inside the coarser 0.01 tolerance)."""
    p = 0.2
    n = 100_000
    params = DataParams(d=1, P=2, p=p)
    rng = np.random.default_rng(7)
    flipped = 0
    for _ in range(n):
        y, y_hat, _ = gen_sample(params, rng, np.empty(1))
        flipped += y != y_hat
    rate = flipped / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(rate - p) <= 3 * sigma
    assert abs(rate - p) <= 0.01


def test_dataset_determinism():
    params = DataParams(d=6, P=2, p=0.1, mu_norm=1.5)
    mu = make_signal(6, 1.5)
    a = gen_dataset(params, mu, 12, seed=42)
    b = gen_dataset(params, mu, 12, seed=42)
    assert np.array_equal(a.patches(), b.patches())
    assert np.array_equal(a.y, b.y) and np.array_equal(a.y_hat, b.y_hat)
    assert np.array_equal(a.signal_pos, b.signal_pos)


def test_dataset_distinct_seeds_differ():
    params = DataParams(d=6, P=2, mu_norm=1.0)
    mu = make_signal(6, 1.0)
    a = gen_dataset(params, mu, 5, seed=1)
    b = gen_dataset(params, mu, 5, seed=2)
    assert any(not np.array_equal(xa, xb) for xa, xb in zip(a.xi, b.xi))


def test_dataset_clean_setup_shape():
    params = DataParams(d=100, P=2, p=0.0, mu_norm=3.0)
    ds = gen_dataset(params, make_signal(100, 3.0), 20, seed=0)
    assert ds.n == 20
    assert np.array_equal(ds.y, ds.y_hat)
    assert ds.patches().shape == (20, 2, 100)


def test_concentration_large_d_passes():
    params = DataParams(d=10_000, P=2, p=0.0, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(10_000, 1.0), 20, seed=3)
    rep = concentration_report(ds)
    assert rep.ok
    assert rep.n_flipped == 0  # p = 0 -> no flipped labels, exactly


def test_concentration_small_d_reports_failures():
    params = DataParams(d=4, P=2, p=0.0, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(4, 1.0), 20, seed=0)
    rep = concentration_report(ds)
    assert rep.norm_violations  # chi-square with 4 dof strays outside [d/2, 3d/2]
    assert not rep.ok
    rows = dict((r[0], r[1]) for r in rep.rows())
    assert rows["noise_norm_range"] == len(rep.norm_violations)


def test_gram_is_the_span_gram_formed_once():
    params = DataParams(d=30, P=3, p=0.1, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(30, 2.0), 6, seed=5)
    gram = ds.gram
    assert gram is ds.gram
    assert gram.shape == (7, 7) and not gram.flags.writeable
    V = np.concatenate([ds.mu[None, :], ds.xi])
    assert np.allclose(gram, V @ V.T, rtol=1e-13, atol=1e-12)
    # the products training has always formed, so its bits do not move
    assert gram[0, 0] == ds.mu @ ds.mu
    assert np.array_equal(gram[1:, 0], ds.xi @ ds.mu)
    assert np.array_equal(gram[0, 1:], ds.xi @ ds.mu)
    assert np.array_equal(gram[1:, 1:], ds.xi @ ds.xi.T)


def test_concentration_report_reads_the_gram():
    """The report's bounds are checked against ds.gram's entries."""
    params = DataParams(d=6, P=2, p=0.0, mu_norm=3.0)
    ds = gen_dataset(params, make_signal(6, 3.0), 12, seed=2)
    rep = concentration_report(ds)
    norms = np.diag(ds.gram)[1:]
    assert rep.norm_violations  # chi-square with 6 dof strays outside [3, 9]
    assert rep.norm_violations == list(np.flatnonzero((norms < 3) | (norms > 9)))
    mu_bound = 3.0 * np.sqrt(2 * np.log(6 * 12 / 0.05))
    assert rep.mu_violations == list(np.flatnonzero(np.abs(ds.gram[1:, 0]) > mu_bound))
    cross_bound = 2 * np.sqrt(6 * np.log(6 * 144 / 0.05))
    want = [(i, k) for i in range(12) for k in range(i + 1, 12)
            if abs(ds.gram[1 + i, 1 + k]) > cross_bound]
    assert rep.cross_violations == want


def test_save_load_roundtrip(tmp_path):
    params = DataParams(d=8, P=3, p=0.2, sigma_p=0.7, mu_norm=2.0)
    ds = gen_dataset(params, make_signal(8, 2.0), 9, seed=11)
    path = tmp_path / "ds.npz"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.params == params
    assert back.seed == 11
    assert np.array_equal(back.mu, ds.mu)
    assert np.array_equal(back.patches(), ds.patches())
    for key in ("y", "y_hat", "signal_pos", "xi"):
        a, b = getattr(ds, key), getattr(back, key)
        assert a.dtype == b.dtype and np.array_equal(a, b), key


def test_save_round_trips_the_largest_seed_and_refuses_a_larger_one(tmp_path):
    """The header stores the seed as int64: 2**63 - 1 round-trips, and 2**63
    is refused before the file is opened, so no empty file is left."""
    params = DataParams(d=3, P=2, mu_norm=1.0)
    path = tmp_path / "ds.npz"
    save_dataset(path, gen_dataset(params, make_signal(3, 1.0), 2, seed=2**63 - 1))
    assert load_dataset(path).seed == 2**63 - 1
    ds = gen_dataset(params, make_signal(3, 1.0), 2, seed=2**63)
    too_big = tmp_path / "big.npz"
    with pytest.raises(ValueError, match=r"seed 9223372036854775808 .*int64 header"):
        save_dataset(too_big, ds)
    assert not too_big.exists()


def _corrupt(path, tmp_path, **changes):
    """Copy a saved dataset with some archive entries replaced."""
    with np.load(path) as z:
        entries = {k: z[k] for k in z.files}
    entries.update(changes)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **entries)
    return bad


@pytest.fixture
def saved(tmp_path):
    params = DataParams(d=5, P=2, p=0.2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(5, 1.0), 6, seed=0)
    path = tmp_path / "ds.npz"
    save_dataset(path, ds)
    return ds, path


def test_load_rejects_rows_beyond_header(saved, tmp_path):
    _, path = saved
    bad = _corrupt(path, tmp_path, header_int=np.array([5, 2, 3, 1, 0], dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        load_dataset(bad)


@pytest.mark.parametrize("key,shape", [("mu", (4,)), ("xi", (6, 4)), ("y_hat", (5,))])
def test_load_rejects_wrong_shapes(saved, tmp_path, key, shape):
    _, path = saved
    bad = _corrupt(path, tmp_path, **{key: np.ones(shape, dtype=np.int64 if key == "y_hat"
                                                 else np.float64)})
    with pytest.raises(ValueError, match=key):
        load_dataset(bad)


@pytest.mark.parametrize("key", ["y", "y_hat"])
def test_load_rejects_labels_outside_pm1(saved, tmp_path, key):
    _, path = saved
    bad = _corrupt(path, tmp_path, **{key: np.array([2, 0, 5, 1, -1, 1], dtype=np.int64)})
    with pytest.raises(ValueError, match=key):
        load_dataset(bad)


@pytest.mark.parametrize("pos", [7, -1])
def test_load_rejects_signal_pos_outside_range(saved, tmp_path, pos):
    _, path = saved
    bad = _corrupt(path, tmp_path, signal_pos=np.full(6, pos, dtype=np.int64))
    with pytest.raises(ValueError, match="signal_pos"):
        load_dataset(bad)


# the last case, 9 rows of 1 MiB, is drawn on the thread pool
@pytest.mark.parametrize("d,P,p", [(1, 2, 0.0), (7, 3, 0.3), (64, 5, 0.1), (1 << 17, 2, 0.2)])
def test_gen_dataset_pins_the_draw_order(d, P, p):
    """gen_dataset output equals an independent rebuild of the documented
    per-sample streams, bit for bit."""
    params = DataParams(d=d, P=P, p=p, sigma_p=0.8, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(d, 1.0), 9, seed=123)
    for key, ref in zip(("y", "y_hat", "xi", "signal_pos"),
                        reference_dataset_arrays(params, 9, 123)):
        got = getattr(ds, key)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), key


def test_pooled_gen_dataset_is_bitwise_for_every_cpu_count(monkeypatch):
    """Above the pool's size constants gen_dataset draws on one thread per
    CPU; the arrays do not depend on the count, even with a thread switch
    every microsecond, and every thread is joined before it returns."""
    params = DataParams(d=1 << 17, P=3, p=0.2, mu_norm=1.0)
    mu = make_signal(params.d, 1.0)
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    arrays = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(data, "available_cpus", lambda cpus=cpus: cpus)
            threads = threading.active_count()
            ds = gen_dataset(params, mu, 9, seed=5)
            assert threading.active_count() == threads
            arrays.append([getattr(ds, k).tobytes() for k in ("xi", "y", "y_hat", "signal_pos")])
    finally:
        sys.setswitchinterval(interval)
    assert pools == [2, 3]
    assert arrays[0] == arrays[1] == arrays[2]


def test_per_sample_names_are_views():
    """stack and Dataset.samples stay for per-sample callers: stack is the
    identity, samples is built once, and each row's xi is a view."""
    params = DataParams(d=4, P=3, p=0.2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(4, 1.0), 5, seed=2)
    assert stack(ds) is ds
    assert ds.samples is ds.samples
    patches = ds.patches()
    for i, s in enumerate(ds.samples):
        assert np.shares_memory(s.xi, ds.xi)
        assert (s.y, s.y_hat, s.signal_pos) == (ds.y[i], ds.y_hat[i], ds.signal_pos[i])
        assert np.array_equal(s.patches, patches[i])


def test_dataset_with_samples_is_freed_without_gc():
    """The row views hold no reference back to their Dataset, so dropping
    the Dataset frees its arrays without waiting for the cycle collector."""
    params = DataParams(d=4, P=2, mu_norm=1.0)
    ds = gen_dataset(params, make_signal(4, 1.0), 3, seed=0)
    assert len(ds.samples) == 3
    ref = weakref.ref(ds)
    gc.disable()
    try:
        del ds
        assert ref() is None
    finally:
        gc.enable()
