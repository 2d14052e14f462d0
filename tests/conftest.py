"""Session fixtures shared by the acceptance criteria tests."""

import numpy as np
import pytest

from samdyn.checks import scaled_tau
from samdyn.data import DataParams, gen_dataset, make_signal
from samdyn.experiments import run_grid, phase_grid_spec
from samdyn.network import NetConfig
from samdyn.optim import TrainConfig, train

from helpers import RecurrenceTracker, score_weights


@pytest.fixture(scope="session")
def reduced_grid(tmp_path_factory):
    """The reduced phase-transition grid (both algorithms, 3 seeds)."""
    out = tmp_path_factory.mktemp("reduced_grid")
    spec = phase_grid_spec(reduced=True)
    results = run_grid(spec, out, jobs=2)
    return spec, out, results


@pytest.fixture(scope="session")
def bayes_floor_runs():
    """Five seeded strong-signal runs with 10% label flipping: the
    trajectories feed the structure checkers and the test errors the
    Bayes-floor criterion."""
    d, mu_norm, n, m = 1000, 10.0, 20, 10
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.1, mu_norm=mu_norm)
    net = NetConfig(m=m, d=d, init="uniform_fan_in")
    runs = []
    for seed in range(5):
        ds = gen_dataset(params, make_signal(d, mu_norm), n, seed=9000 + seed)
        cfg = TrainConfig(eta=0.2, B=n, epochs=100, algo="sgd", seed=seed)
        traj = train(ds, net, cfg)
        [(rate, stderr)] = score_weights(
            [traj.w_final], params, ds.mu, 1000, np.random.default_rng(7000 + seed)
        )
        runs.append({"ds": ds, "traj": traj, "test_error": rate, "stderr": stderr})
    return runs


@pytest.fixture(scope="session")
def decomposition_runs():
    """Twenty seeded runs (10 SGD + 10 SAM) at d=500, n=8, m=4 with 50
    batch iterations each, full per-iteration recording and snapshots,
    each with the reference recurrence (helpers.RecurrenceTracker) attached.
    The wall time of the runs themselves is returned so the acceptance
    budget can include it."""
    import time

    start = time.monotonic()
    d, n, m, B, epochs = 500, 8, 4, 4, 25  # H = 2 -> 50 iterations
    params = DataParams(d=d, P=2, sigma_p=1.0, p=0.25, mu_norm=2.0)
    net = NetConfig(m=m, d=d, init="gaussian", sigma_0=0.05)
    tau = scaled_tau(1.0, m, B, 2, 1.0, d)
    runs = []
    for algo in ("sgd", "sam"):
        for seed in range(10):
            ds = gen_dataset(params, make_signal(d, 2.0), n, seed=500 + seed)
            cfg = TrainConfig(
                eta=0.05, B=B, epochs=epochs, algo=algo,
                tau=tau if algo == "sam" else 0.0, seed=seed,
                record_every=1, snapshot_weights=True,
            )
            tracker = RecurrenceTracker(ds, m, cfg.eta)
            traj = train(ds, net, cfg, hooks=(tracker,))
            runs.append({"algo": algo, "seed": seed, "ds": ds, "net": net,
                         "traj": traj, "tracker": tracker})
    return {"runs": runs, "train_seconds": time.monotonic() - start}
