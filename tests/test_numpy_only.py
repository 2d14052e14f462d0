"""samdyn needs numpy alone: every path runs with scipy unimportable."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not available")
        return None


sys.meta_path.insert(0, NoScipy())

from samdyn.data import DataParams, gen_dataset, make_signal
from samdyn.decomposition import CoeffTracker, oracle_solve
from samdyn.experiments import GridSpec, run_grid
from samdyn.network import NetConfig
from samdyn.optim import TrainConfig, train

ds = gen_dataset(DataParams(d=60, P=2, mu_norm=2.0), make_signal(60, 2.0), 8, seed=0)
tracker = CoeffTracker(ds, 3)
cfg = TrainConfig(eta=0.2, B=4, epochs=2, algo="sam", tau=0.05, snapshot_weights=True)
traj = train(ds, NetConfig(m=3, d=60, init="gaussian", sigma_0=0.05), cfg, hooks=(tracker,))
sol = oracle_solve(traj.w_final, traj.w0, ds)
assert abs(sol.gamma - tracker.coeffs.gamma).max() <= 1e-8
spec = GridSpec(d_values=(60,), mu_values=(2.0,), seeds=(0,), n=8, P=2, sigma_p=1.0, p=0.0,
                m=3, train={"sam": TrainConfig(eta=0.4, B=8, epochs=4, algo="sam", tau=0.05)},
                n_test=50)
(result,) = run_grid(spec, sys.argv[1], jobs=1)
assert not result.failed, result.error
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_runs_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "grid")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
