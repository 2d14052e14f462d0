import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from samdyn.cli import build_parser, main
from samdyn.config import (
    GRID_SCHEMA,
    TRAIN_SCHEMA,
    ConfigError,
    TrainSetup,
    load_grid_spec,
    load_train_setup,
    parse_config_file,
)
from samdyn.data import DataParams, gen_dataset, load_dataset, make_signal, save_dataset
from samdyn.experiments import _openblas_thread_controls, phase_grid_spec
from samdyn.network import NetConfig, save_weights
from samdyn.optim import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


TINY_TRAIN = """
d = 50
n = 8
mu_norm = 3.0
m = 3
eta = 0.3
B = 4
epochs = 4
seed = 1
"""

TINY_GRID = """
d_values = 50
mu_values = 2.0
seeds = 0
n = 8
m = 3
algo = sgd
eta = 0.3
B = 8
epochs = 4
n_test = 100
"""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "gen-data" in capsys.readouterr().out


def test_gen_data_roundtrip(tmp_path, capsys):
    out = tmp_path / "ds.npz"
    code = main([
        "gen-data", "--d", "64", "--n", "10", "--mu-norm", "2.5",
        "--p", "0.1", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    ds = load_dataset(out)
    assert ds.n == 10 and ds.params.d == 64 and ds.params.p == 0.1
    assert (tmp_path / "manifest.json").exists()


def test_gen_data_refuses_a_seed_the_header_cannot_hold(tmp_path, capsys):
    out = tmp_path / "gd" / "ds.npz"
    assert main(["gen-data", "--d", "10", "--n", "4", "--mu-norm", "1",
                 "--seed", str(2**63), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed 9223372036854775808 ") and "int64 header" in err
    assert not out.parent.exists()  # refused before the --out directory is made


def test_gen_data_writes_exactly_the_named_file(tmp_path, capsys):
    """A non-.npz --out name is the file written and recorded, so decompose
    reads it back by that name; so does a weights file saved under one."""
    out = tmp_path / "gd" / "data.bin"
    assert main(["gen-data", "--d", "30", "--n", "4", "--mu-norm", "2.0",
                 "--seed", "0", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["data.bin", "manifest.json"]
    assert json.loads((out.parent / "manifest.json").read_text())["outputs"] == [str(out)]
    ds = load_dataset(out)
    assert ds.n == 4 and ds.params.d == 30
    weights = tmp_path / "w.ckpt"
    save_weights(weights, np.random.default_rng(0).normal(size=(2, 2, 30)))
    assert main(["decompose", "--data", str(out), "--weights", str(weights),
                 "--weights0", str(weights), "--out", str(tmp_path / "dec")]) == 0
    assert not list(tmp_path.rglob("*.npz.npz")) and not (tmp_path / "w.ckpt.npz").exists()


def test_train_deterministic_metrics(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--seed", "1"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--seed", "1"]) == 0
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/coeffs.csv").read_bytes() == (tmp_path / "b/coeffs.csv").read_bytes()
    manifest = json.loads((tmp_path / "a/manifest.json").read_text())
    assert manifest["tool"] == "samdyn"
    assert manifest["config"]["eta"] == 0.3


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_TRAIN.replace("d = 50", "d = 50\nsigma_p = -1.0"))
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "sigma_p" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    """A misspelt train key, and a grid config's old algos key (now algo),
    exit 2 naming the key."""
    for command, text, key in (("train", TINY_TRAIN + "\nsigma_q = 1.0\n", "sigma_q"),
                               ("grid", TINY_GRID.replace("algo =", "algos ="), "algos")):
        cfg = write_cfg(tmp_path, text)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert key in capsys.readouterr().err
    with pytest.raises(ConfigError, match="unknown config key 'algos'"):
        load_grid_spec(cfg)


def test_snapshot_weights_is_not_a_train_key(tmp_path):
    """No train output reads record weights, and train always tracks the
    coefficients, so the config has no key for either."""
    for key in ("snapshot_weights", "track_coeffs"):
        cfg = write_cfg(tmp_path, TINY_TRAIN + f"\n{key} = true\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_train_setup(cfg)


def test_grid_tau_is_accepted_and_read_by_sam_only(tmp_path):
    """A grid config's tau, which only the SAM variants read, is accepted
    where a train config with algo = sgd refuses it; a list on a train key
    makes one variant per value, named by the keys that list several."""
    spec, _ = load_grid_spec(write_cfg(tmp_path, TINY_GRID + "tau = 0.4\n", "grid.cfg"))
    assert spec.train["sgd"].tau == 0.0
    text = (TINY_GRID.replace("algo = sgd", "algo = sgd, sam")
            .replace("eta = 0.3", "eta = 0.1, 0.3") + "tau = 0.4, 2\n")
    spec, _ = load_grid_spec(write_cfg(tmp_path, text, "grid.cfg"))
    assert {name: (cfg.algo, cfg.eta, cfg.tau) for name, cfg in spec.train.items()} == {
        "sgd_eta0.1": ("sgd", 0.1, 0.0), "sgd_eta0.3": ("sgd", 0.3, 0.0),
        "sam_eta0.1_tau0.4": ("sam", 0.1, 0.4), "sam_eta0.1_tau2": ("sam", 0.1, 2.0),
        "sam_eta0.3_tau0.4": ("sam", 0.3, 0.4), "sam_eta0.3_tau2": ("sam", 0.3, 2.0)}


# every config key and a valid value other than the base config's, with the
# settings of the loaded TrainSetup or GridSpec that value must change
_TRAIN_BASE = {"d": "50", "n": "8", "mu_norm": "3.0", "m": "3", "algo": "sam", "eta": "0.3",
               "B": "4", "epochs": "4"}
_TRAIN_KEYS = {
    "d": ("60", {"params.d", "net.d"}),
    "P": ("3", {"params.P"}),
    "n": ("12", {"n"}),
    "sigma_p": ("2.0", {"params.sigma_p"}),
    "p": ("0.1", {"params.p"}),
    "mu_norm": ("4.0", {"params.mu_norm"}),
    "m": ("4", {"net.m"}),
    "init": ("gaussian", {"net.init"}),
    "sigma_0": ("0.02", {"net.sigma_0"}),
    "algo": ("sgd", {"train.algo"}),
    "eta": ("0.5", {"train.eta"}),
    "B": ("2", {"train.B"}),
    "epochs": ("5", {"train.epochs"}),
    "tau": ("0.1", {"train.tau"}),
    "seed": ("7", {"train.seed"}),
    "record_every": ("2", {"train.record_every"}),
    "sam_phase_iters": ("3", {"train.sam_phase_iters"}),
}
_GRID_BASE = {"d_values": "50", "mu_values": "2.0", "seeds": "0", "n": "8", "m": "3",
              "eta": "0.3", "B": "8", "epochs": "4", "n_test": "100"}
_BOTH_VARIANTS = {"train.sgd", "train.sam"}
_GRID_KEYS = {
    "d_values": ("50, 60", {"d_values"}),
    "mu_values": ("2.0, 3.0", {"mu_values"}),
    "seeds": ("0, 1", {"seeds"}),
    "n": ("16", {"n"}),
    "P": ("3", {"P"}),
    "sigma_p": ("2.0", {"sigma_p"}),
    "p": ("0.1", {"p"}),
    "m": ("4", {"m"}),
    "init": ("gaussian", {"init"}),
    "sigma_0": ("0.05", {"sigma_0"}),
    "algo": ("sam", {f"train.sgd.{f.name}" for f in dataclasses.fields(TrainConfig)}),
    "eta": ("0.5", {f"{v}.eta" for v in _BOTH_VARIANTS}),
    "B": ("4", {f"{v}.B" for v in _BOTH_VARIANTS}),
    "epochs": ("5", {f"{v}.epochs" for v in _BOTH_VARIANTS}),
    "tau": ("0.1", {"train.sam.tau"}),
    "n_test": ("50", {"n_test"}),
    "loss_target": ("0.1", {"loss_target"}),
    "base_seed": ("3", {"base_seed"}),
}


def _settings(obj, path=""):
    """Every leaf setting of a loaded TrainSetup or GridSpec by dotted path;
    the manifest's dict, raw, is not a setting."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name != "raw"]
    elif isinstance(obj, dict):
        items = obj.items()
    else:
        return {path: obj}
    out = {}
    for name, value in items:
        out.update(_settings(value, f"{path}.{name}" if path else name))
    return out


def _load_with_raw(kind, path):
    if kind == "train":
        setup = load_train_setup(path)
        return setup, setup.raw
    return load_grid_spec(path)


_SCHEMA_KEYS = [("train", k) for k in TRAIN_SCHEMA] + [("grid", k) for k in GRID_SCHEMA]


@pytest.mark.parametrize("kind, key", _SCHEMA_KEYS, ids=["-".join(c) for c in _SCHEMA_KEYS])
def test_each_config_key_sets_exactly_its_setting(tmp_path, kind, key):
    """A key whose name matches no field would be parsed and then dropped;
    a value that lands in another setting would pass unnoticed."""
    base, keys = (_TRAIN_BASE, _TRAIN_KEYS) if kind == "train" else (_GRID_BASE, _GRID_KEYS)
    value, changed = keys[key]
    loaded = []
    for settings in (base, {**base, key: value}):
        text = "".join(f"{k} = {v}\n" for k, v in settings.items())
        obj, raw = _load_with_raw(kind, write_cfg(tmp_path, text))
        loaded.append((_settings(obj), raw))
    (before, raw_before), (after, raw_after) = loaded
    absent = object()
    assert {p for p in before.keys() | after.keys()
            if before.get(p, absent) != after.get(p, absent)} == changed
    assert {k for k in raw_before if raw_before[k] != raw_after[k]} == {key}


_W = np.random.default_rng(0).normal(size=(2, 2, 30))  # a checkpoint of the decompose rows


def _with_first(a, value):
    a = a.copy()
    a.flat[0] = value
    return a


def _config_run(command, text, *flags):
    """A refusal row's argv before --out: command on a config file of text."""
    return lambda tmp_path: [command, "--config", str(write_cfg(tmp_path, text)), *flags]


def _decompose_run(w=_W, w0=_W, xi_first=None, replace=None, saved=None):
    """A refusal row's argv before --out: decompose checkpoints w and w0
    against a d=30 dataset, whose first xi entry is xi_first, if given, and
    whose saved arrays are replaced by those of the dict saved; replace
    maps a file name (ds.npz, w.npz, w0.npz) to what is written in its
    place: the arrays of a dict as an archive, an array alone as .npy."""
    def run(tmp_path):
        ds = gen_dataset(DataParams(d=30, mu_norm=2.0), make_signal(30, 2.0), 4, seed=0)
        if xi_first is not None:
            ds = dataclasses.replace(ds, xi=_with_first(ds.xi, xi_first))
        save_dataset(tmp_path / "ds.npz", ds)
        save_weights(tmp_path / "w.npz", w)
        save_weights(tmp_path / "w0.npz", w0)
        files = dict(replace or {})
        if saved is not None:
            with np.load(tmp_path / "ds.npz") as arrays:
                files["ds.npz"] = {**arrays, **{k: np.array(v) for k, v in saved.items()}}
        for name, content in files.items():
            with open(tmp_path / name, "wb") as fh:  # a path would gain a suffix
                if isinstance(content, dict):
                    np.savez(fh, **content)
                else:
                    np.save(fh, content)
        return ["decompose", "--data", str(tmp_path / "ds.npz"),
                "--weights", str(tmp_path / "w.npz"), "--weights0", str(tmp_path / "w0.npz")]
    return run


# row id -> (the run's argv before --out, the text its error must hold)
_REFUSALS = {
    "negative-sam-phase-iters": (_config_run(
        "train", TINY_TRAIN + "algo = sam\ntau = 0.1\nsam_phase_iters = -3\n"), "sam_phase_iters"),
    "sgd-with-tau": (_config_run("train", TINY_TRAIN + "algo = sgd\ntau = 0.4\n"), "tau"),
    "batch-does-not-divide-n": (_config_run("train", TINY_TRAIN.replace("B = 4", "B = 3")),
                                "B=3 does not divide n=8"),
    "train-negative-seed-flag": (_config_run("train", TINY_TRAIN, "--seed", "-1"),
                                 "seed must be >= 0, got -1"),
    "check-negative-seed": (_config_run("check", TINY_TRAIN.replace("seed = 1", "seed = -5")),
                            "seed must be >= 0, got -5"),
    "grid-nan-sigma-p": (_config_run("grid", TINY_GRID + "sigma_p = nan\n"), "sigma_p"),
    "grid-misspelt-init": (_config_run("grid", TINY_GRID + "init = gausian\n"),
                           "init must be gaussian or uniform_fan_in, got 'gausian'"),
    "grid-repeated-seed": (_config_run("grid", TINY_GRID.replace("seeds = 0", "seeds = 0, 0")),
                           "seeds repeats"),
    "grid-negative-seeds": (_config_run("grid", TINY_GRID.replace("seeds = 0", "seeds = -1, 0")),
                            "seeds must be >= 0"),
    "grid-negative-base-seed": (_config_run("grid", TINY_GRID + "base_seed = -1\n"),
                                "base_seed must be >= 0, got -1"),
    "grid-negative-seed-flag": (_config_run("grid", TINY_GRID, "--seed", "-1"),
                                "base_seed must be >= 0, got -1"),
    "decompose-nan-weight": (_decompose_run(w=_with_first(_W, np.nan)),
                             "w.npz: weights hold a non-finite value"),
    "decompose-other-d": (_decompose_run(w=_W[:, :, :20], w0=_W[:, :, :20]), "d = 30 of "),
    "decompose-other-m": (_decompose_run(w0=_W[:, :1]), "w0.npz (2, 1, 30)"),
    "decompose-inf-xi": (_decompose_run(xi_first=np.inf), "basis vector xi_0 has non-finite norm"),
    "decompose-dataset-missing-key": (_decompose_run(replace={"ds.npz": {"mu": _W[0, 0]}}),
                                      "ds.npz: the archive holds no array 'header_int'"),
    "decompose-dataset-short-header": (_decompose_run(saved={"header_int": [30, 2, 4, 1]}),
                                       "ds.npz: header_int has shape (4,), expected (5,)"),
    "decompose-dataset-bad-header-value": (_decompose_run(saved={"header_int": [0, 2, 4, 1, 0]}),
                                           "ds.npz: d must be >= 1, got 0"),
    "decompose-dataset-bad-seed-flag": (_decompose_run(saved={"header_int": [30, 2, 4, 7, 3]}),
                                        "ds.npz: seed_flag is 7, expected 0 or 1"),
    "decompose-dataset-negative-seed": (_decompose_run(saved={"header_int": [30, 2, 4, 1, -5]}),
                                        "ds.npz: seed -5 is outside [0, 2**63)"),
    "decompose-weights-shape-mismatch": (
        _decompose_run(replace={"w.npz": {"shape": np.array([2, 2, 31]), "w": _W}}),
        "w.npz: corrupt checkpoint: header (2, 2, 31) vs array (2, 2, 30)"),
    "decompose-weights-bad-shape-entry": (
        _decompose_run(replace={"w0.npz": {"shape": np.array([[2, 2, 30]]), "w": _W}}),
        "w0.npz: shape entry has dtype int64 and shape (1, 3), expected a 1-D integer array"),
    "decompose-dataset-float-header": (_decompose_run(saved={"header_int": [30.0, 2, 4, 1, 0]}),
                                       "ds.npz: header_int has dtype float64, expected integer"),
    "decompose-dataset-complex-xi": (_decompose_run(saved={"xi": np.ones((4, 30), complex)}),
                                     "ds.npz: xi has dtype complex128, expected floating"),
    "decompose-dataset-float-label": (_decompose_run(saved={"y": [1.0, -1.0, 1.0, -1.0]}),
                                      "ds.npz: y has dtype float64, expected integer"),
    "decompose-dataset-float-signal-pos": (
        _decompose_run(saved={"signal_pos": [0.5, 0.5, 0.5, 0.5]}),
        "ds.npz: signal_pos has dtype float64, expected integer"),
    "decompose-weights-complex": (_decompose_run(w=_W.astype(complex)),
                                  "w.npz: w has dtype complex128, expected floating"),
    "decompose-weights-missing-key": (_decompose_run(replace={"w.npz": {"weights": _W}}),
                                      "w.npz: the archive holds no array 'w'"),
    "decompose-weights-not-an-archive": (_decompose_run(replace={"w0.npz": _W}),
                                         "w0.npz: not an .npz archive"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run, needle", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_cli_refuses_before_writing(tmp_path, capsys, run, needle):
    """A refused run exits 2, names the field or the file on stderr, and
    writes nothing: no manifest.json, no trials/."""
    out = tmp_path / "out"
    assert main([*run(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err
    assert not out.exists()


def test_manifest_records_numpy_and_openblas(tmp_path):
    assert main(["gen-data", "--d", "16", "--n", "4", "--mu-norm", "1.0",
                 "--out", str(tmp_path / "ds.npz")]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    expected = [{"config": config().decode().strip(), "threads": get()}
                for get, _, config in _openblas_thread_controls()]
    assert manifest["openblas"] == expected
    for lib in manifest["openblas"]:
        assert lib["config"].startswith("OpenBLAS") and lib["threads"] >= 1


def test_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    monkeypatch.setenv("SAMDYN_EPOCHS", "2")
    monkeypatch.setenv("SAMDYN_B", "2")  # case-insensitive key match
    setup = load_train_setup(cfg)
    assert setup.train.epochs == 2
    assert setup.train.B == 2


@pytest.mark.parametrize("kind", ["train", "grid"])
def test_env_override_of_P_and_p_sets_each_its_own_key(tmp_path, monkeypatch, kind):
    """P and p differ only in case: SAMDYN_P sets the patch count and
    SAMDYN_p the label-flip probability, under either loader."""
    cfg = write_cfg(tmp_path, TINY_TRAIN if kind == "train" else TINY_GRID)
    monkeypatch.setenv("SAMDYN_P", "3")
    monkeypatch.setenv("SAMDYN_p", "0.1")
    obj, _ = _load_with_raw(kind, cfg)
    params = obj.params if kind == "train" else obj
    assert (params.P, params.p) == (3, 0.1)


def test_env_override_unknown_key(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    monkeypatch.setenv("SAMDYN_EPOCHZ", "2")
    with pytest.raises(ConfigError, match="EPOCHZ"):
        load_train_setup(cfg)


def test_env_override_of_a_grid_key_leaves_train_unchanged(tmp_path, monkeypatch):
    """A grid key's override (SAMDYN_N_TEST) is ignored by train: the run
    succeeds and writes the bytes it writes without it."""
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    outputs = ("metrics.csv", "coeffs.csv", "dataset.npz", "w0.npz", "w_final.npz")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("SAMDYN_N_TEST", "10")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "env")]) == 0
    for name in outputs:
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("command,text", [("train", TINY_TRAIN), ("grid", TINY_GRID)],
                         ids=["train", "grid"])
def test_env_override_matching_no_key_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                         command, text):
    """A name that matches a key of neither schema exits 2, names the
    variable and writes nothing."""
    cfg = write_cfg(tmp_path, text)
    monkeypatch.setenv("SAMDYN_N_TESTS", "10")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "SAMDYN_N_TESTS" in capsys.readouterr().err
    assert not out.exists()


def test_env_override_of_a_grid_key_applies_to_grid(tmp_path, monkeypatch):
    """SAMDYN_N_TEST sets the grid's n_test, and a train-only key's
    override (SAMDYN_SEED) is ignored by the grid."""
    cfg = write_cfg(tmp_path, TINY_GRID)
    monkeypatch.setenv("SAMDYN_N_TEST", "40")
    monkeypatch.setenv("SAMDYN_SEED", "5")
    spec, raw = load_grid_spec(cfg)
    assert spec.n_test == 40 and "seed" not in raw
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["n_test"] == 40


def test_parse_rejects_garbage(tmp_path):
    cfg = write_cfg(tmp_path, "this is not a config\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(cfg)


def test_grid_cli_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, TINY_GRID)
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "heatmap_sgd.csv").exists()
    assert (out / "heatmap_sgd.pgm").exists()
    assert (out / "manifest.json").exists()
    assert not (out / "checks").exists()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert not any("checks" in str(o) for o in outputs)
    assert "timings.csv" in outputs and (out / "timings.csv").exists()
    # resume with everything done is a no-op with identical output
    before = (out / "results.csv").read_bytes()
    assert main(["grid", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert (out / "results.csv").read_bytes() == before


def test_grid_cli_jobs_one_and_two_give_identical_results(tmp_path):
    cfg = write_cfg(tmp_path, TINY_GRID.replace("d_values = 50", "d_values = 50, 20000")
                    .replace("seeds = 0", "seeds = 0, 1").replace("algo = sgd", "algo = sgd, sam"))
    for jobs in ("1", "2"):
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    assert (tmp_path / "1/results.csv").read_bytes() == (tmp_path / "2/results.csv").read_bytes()


def test_grid_cli_refused_resume_keeps_manifest(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, TINY_GRID)
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    monkeypatch.setenv("SAMDYN_ETA", "3.0")
    assert main(["grid", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
    assert "different or unrecorded spec" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == manifest


def test_grid_cli_jobs_default_and_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    args = build_parser().parse_args(["grid", "--config", "c", "--out", "o"])
    assert args.jobs == 3
    cfg = write_cfg(tmp_path, TINY_GRID)
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(cfg), "--out", str(out), "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


def test_check_cli(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
d = 400
n = 8
mu_norm = 2.0
m = 4
init = gaussian
sigma_0 = 0.0125
algo = sam
eta = 0.001
B = 4
epochs = 10
tau = 0.45
seed = 0
""",
    )
    out = tmp_path / "check"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in report[1:]]
    assert names == [
        "set_monotonicity", "logit_ratio", "zeta_range", "omega_range",
        "gamma_range", "good_batches", "sam_deactivation",
    ]
    assert "sam_deactivation" in capsys.readouterr().out


def test_decompose_cli(tmp_path):
    # train persists the dataset it generated, so decompose composes with
    # its checkpoints directly and the drift projects with zero residual
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    out = tmp_path / "dec"
    assert main([
        "decompose", "--data", str(run_dir / "dataset.npz"),
        "--weights", str(run_dir / "w_final.npz"),
        "--weights0", str(run_dir / "w0.npz"), "--out", str(out),
    ]) == 0
    lines = (out / "decomposition.csv").read_text().splitlines()
    assert lines[0] == "j,r,gamma,sum_zeta,min_omega,max_zeta"
    assert len(lines) == 1 + 2 * 3
    blob = np.load(out / "rho.npz")
    assert blob["rho"].shape == (2, 3, 8)
    assert float(blob["residual"]) <= 1e-9


_CSV_TEXT = {"check", "window", "detail", "algo", "error"}
_CSV_INTS = {"t", "b", "j", "r", "d", "seed", "violations", "total", "convergence_epoch",
             "invariant_violations", "failed", "n_seeds"}


def test_demo_coefficient_csvs_hold_numbers(tmp_path):
    """Every CSV the CLI writes (metrics, coeffs, report, decomposition,
    results, heatmap) holds a number in every numeric field; a numpy scalar
    must not be written as its repr."""
    run_dir, dec, check, grid = (tmp_path / name for name in ("run", "dec", "check", "grid"))
    assert main(["train", "--config", str(CONFIGS / "train_demo.cfg"),
                 "--out", str(run_dir)]) == 0
    assert main([
        "decompose", "--data", str(run_dir / "dataset.npz"),
        "--weights", str(run_dir / "w_final.npz"),
        "--weights0", str(run_dir / "w0.npz"), "--out", str(dec),
    ]) == 0
    assert main(["check", "--config", str(CONFIGS / "check_demo.cfg"),
                 "--out", str(check)]) == 0
    assert main(["grid", "--config", str(write_cfg(tmp_path, TINY_GRID)),
                 "--out", str(grid)]) == 0
    paths = [run_dir / "metrics.csv", run_dir / "coeffs.csv", dec / "decomposition.csv",
             check / "report.csv", grid / "results.csv", grid / "heatmap_sgd.csv"]
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path
        for row in rows:
            assert len(row) == len(header), path
            for column, value in zip(header, row):
                if column in _CSV_TEXT or (column == "convergence_epoch" and value == ""):
                    continue
                (int if column in _CSV_INTS else float)(value)


def test_grid_config_names_an_unknown_algorithm(tmp_path, capsys):
    """An unknown algorithm, and two training variants of one name (a
    repeated algorithm, or two step sizes that format alike), exit 2 under
    samdyn grid before it writes anything, naming the culprit."""
    for old, new, needle in (("algo = sgd", "algo = sgd, adam", "'adam'"),
                             ("algo = sgd", "algo = sgd, sgd", "'sgd'"),
                             ("eta = 0.3", "eta = 0.1, 0.1000001", "'sgd_eta0.1'")):
        cfg = write_cfg(tmp_path, TINY_GRID.replace(old, new))
        with pytest.raises(ConfigError, match=needle):
            load_grid_spec(cfg)
        out = tmp_path / "out"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()


def test_decompose_cli_zero_mu_names_the_degenerate_basis(tmp_path, capsys):
    data = tmp_path / "ds.npz"
    assert main(["gen-data", "--d", "30", "--n", "4", "--mu-norm", "0",
                 "--seed", "0", "--out", str(data)]) == 0
    w0 = tmp_path / "w0.npz"
    save_weights(w0, np.zeros((2, 2, 30)))
    capsys.readouterr()
    code = main(["decompose", "--data", str(data), "--weights", str(w0),
                 "--weights0", str(w0), "--out", str(tmp_path / "dec")])
    assert code == 2
    assert "mu has zero norm" in capsys.readouterr().err


# what each shipped config loads as (a TrainSetup without its raw dict)
_SHIPPED = {
    "phase_reduced.cfg": phase_grid_spec(reduced=True),
    "phase_full.cfg": phase_grid_spec(),
    "lr_ablation.cfg": dataclasses.replace(phase_grid_spec(reduced=True), train={
        "sgd_eta0.02": TrainConfig(eta=0.02, B=10, epochs=100, algo="sgd"),
        "sgd_eta0.2": TrainConfig(eta=0.2, B=10, epochs=100, algo="sgd"),
        "sgd_eta2": TrainConfig(eta=2.0, B=10, epochs=100, algo="sgd"),
        "sgd_eta20": TrainConfig(eta=20.0, B=10, epochs=100, algo="sgd"),
    }),
    "train_demo.cfg": TrainSetup(
        params=DataParams(d=1000, P=2, sigma_p=1.0, p=0.0, mu_norm=10.0), n=20,
        net=NetConfig(m=10, d=1000, init="uniform_fan_in", sigma_0=0.01),
        train=TrainConfig(eta=0.2, B=20, epochs=100, algo="sgd", seed=0), raw=None),
    "check_demo.cfg": TrainSetup(
        params=DataParams(d=3000, P=2, sigma_p=1.0, p=0.0, mu_norm=3.0), n=16,
        net=NetConfig(m=8, d=3000, init="gaussian", sigma_0=0.00913),
        train=TrainConfig(eta=0.0002, B=8, epochs=40, algo="sam", tau=0.41, seed=0), raw=None),
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name)
def test_checked_in_config_loads(path):
    """Every shipped config loads, by the loader whose schema holds its
    keys, to its row of _SHIPPED, so a renamed key or a changed preset
    cannot leave one broken; a config with no row fails."""
    assert path.name in _SHIPPED, f"{path.name} has no row in _SHIPPED"
    if parse_config_file(path).keys() <= GRID_SCHEMA.keys():
        assert load_grid_spec(path)[0] == _SHIPPED[path.name]
    else:
        assert dataclasses.replace(load_train_setup(path), raw=None) == _SHIPPED[path.name]


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda path: path.name)
def test_script_help_exits_zero(script):
    """Every script still imports what it uses from samdyn and parses its
    options, so a moved or renamed name cannot break one silently."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


# modules a fresh import samdyn.cli must not load: each adds set-up time to
# every run, and none is needed before a command asks for it (multiprocessing
# loads with a grid's process pool, the executors with their first pool)
_DENIED_AT_IMPORT = (
    "multiprocessing", "subprocess", "statistics", "decimal", "fractions",
    "importlib.metadata", "unittest", "email",
    "numpy.testing", "numpy.fft", "numpy.polynomial", "scipy",
    "concurrent.futures.thread", "concurrent.futures.process",
)


def test_cli_import_leaves_set_up_heavy_modules_unloaded():
    """import samdyn.cli loads none of _DENIED_AT_IMPORT."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, samdyn.cli; "
            f"print(sorted(set({list(_DENIED_AT_IMPORT)!r}) & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
