"""Key = value run configuration shared by all CLI subcommands.

Format: one `key = value` pair per line, `#` comments, blank lines
ignored.  Unknown keys are errors (typos in sweep configs must not pass
silently).  Environment variables with the SAMDYN_ prefix override file
values, e.g. SAMDYN_ETA=0.1 overrides `eta`; unknown prefixed variables
are errors too.

Lists are comma separated (`d_values = 1000, 5000, 20000`).  Optional
integer keys accept an empty value to mean "unset".
"""

import dataclasses
import datetime
import json
import os
from pathlib import Path

import numpy as np

from .data import DataParams
from .experiments import GridSpec, openblas_environment, phase_train_variants
from .network import NetConfig
from .optim import TrainConfig

ENV_PREFIX = "SAMDYN_"


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def apply_env_overrides(raw: dict[str, str], schema: dict, environ=None) -> dict[str, str]:
    env = os.environ if environ is None else environ
    by_lower = {k.lower(): k for k in schema}
    out = dict(raw)
    for name, value in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = by_lower.get(name[len(ENV_PREFIX):].lower())
        if key is None:
            raise ConfigError(f"environment override {name} does not match any config key")
        out[key] = value
    return out


# schema: key -> (kind, required, default)
TRAIN_SCHEMA: dict[str, tuple] = {
    "d": ("int", True, None),
    "P": ("int", False, 2),
    "n": ("int", True, None),
    "sigma_p": ("float", False, 1.0),
    "p": ("float", False, 0.0),
    "mu_norm": ("float", True, None),
    "m": ("int", True, None),
    "init": ("str", False, "uniform_fan_in"),
    "sigma_0": ("float", False, 0.01),
    "algo": ("str", False, "sgd"),
    "eta": ("float", True, None),
    "B": ("int", True, None),
    "epochs": ("int", True, None),
    "tau": ("float", False, 0.0),
    "seed": ("int", False, 0),
    "record_every": ("opt_int", False, None),
    "sam_phase_iters": ("opt_int", False, None),
}

GRID_SCHEMA: dict[str, tuple] = {
    "d_values": ("int_list", True, None),
    "mu_values": ("float_list", True, None),
    "seeds": ("int_list", True, None),
    "n": ("int", True, None),
    "P": ("int", False, 2),
    "sigma_p": ("float", False, 1.0),
    "p": ("float", False, 0.0),
    "m": ("int", True, None),
    "init": ("str", False, "uniform_fan_in"),
    "sigma_0": ("opt_float", False, None),
    "algos": ("str_list", False, ["sgd", "sam"]),
    "eta": ("float", True, None),
    "B": ("int", True, None),
    "epochs": ("int", True, None),
    "tau": ("float", False, 0.03),
    "n_test": ("int", True, None),
    "loss_target": ("float", False, 0.05),
    "base_seed": ("int", False, 0),
}


def typed_config(raw: dict[str, str], schema: dict) -> dict:
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
    out = {}
    for key, (kind, required, default) in schema.items():
        if key in raw:
            out[key] = _convert_value(key, raw[key], kind)
        elif required:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            out[key] = default
    return out


def _convert_value(key: str, value: str, kind: str):
    scalar = {
        "int": int,
        "float": float,
        "str": str,
    }
    try:
        if kind in scalar:
            return scalar[kind](value)
        if kind == "opt_int":
            return None if value == "" else int(value)
        if kind == "opt_float":
            return None if value == "" else float(value)
        if kind.endswith("_list"):
            parts = [p.strip() for p in value.split(",") if p.strip() != ""]
            if not parts:
                raise ConfigError(f"{key}: empty list")
            elem = {"int_list": int, "float_list": float, "str_list": str}[kind]
            return [elem(p) for p in parts]
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as {kind}") from None
    raise ConfigError(f"internal: unknown kind {kind} for key {key}")


@dataclasses.dataclass
class TrainSetup:
    params: DataParams
    n: int
    net: NetConfig
    train: TrainConfig
    raw: dict


def load_train_setup(path, seed_override: int | None = None, environ=None) -> TrainSetup:
    raw = apply_env_overrides(parse_config_file(path), TRAIN_SCHEMA, environ)
    cfg = typed_config(raw, TRAIN_SCHEMA)
    if seed_override is not None:
        cfg["seed"] = seed_override
    try:
        params = DataParams(
            d=cfg["d"], P=cfg["P"], sigma_p=cfg["sigma_p"], p=cfg["p"], mu_norm=cfg["mu_norm"]
        )
        net = NetConfig(m=cfg["m"], d=cfg["d"], init=cfg["init"], sigma_0=cfg["sigma_0"])
        train = TrainConfig(
            eta=cfg["eta"],
            B=cfg["B"],
            epochs=cfg["epochs"],
            algo=cfg["algo"],
            tau=cfg["tau"],
            seed=cfg["seed"],
            record_every=cfg["record_every"],
            sam_phase_iters=cfg["sam_phase_iters"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg["n"] % cfg["B"] != 0:
        raise ConfigError(f"B={cfg['B']} does not divide n={cfg['n']}")
    return TrainSetup(params=params, n=cfg["n"], net=net, train=train, raw=cfg)


def load_grid_spec(path, seed_override: int | None = None, environ=None) -> tuple[GridSpec, dict]:
    raw = apply_env_overrides(parse_config_file(path), GRID_SCHEMA, environ)
    cfg = typed_config(raw, GRID_SCHEMA)
    if seed_override is not None:
        cfg["base_seed"] = seed_override
    for algo in cfg["algos"]:
        if algo not in ("sgd", "sam"):
            raise ConfigError(f"algos: unknown algorithm {algo!r}")
    variants = phase_train_variants(cfg["algos"], eta=cfg["eta"], epochs=cfg["epochs"],
                                    B=cfg["B"], tau=cfg["tau"])
    try:
        spec = GridSpec(
            d_values=tuple(cfg["d_values"]),
            mu_values=tuple(cfg["mu_values"]),
            seeds=tuple(cfg["seeds"]),
            n=cfg["n"],
            P=cfg["P"],
            sigma_p=cfg["sigma_p"],
            p=cfg["p"],
            m=cfg["m"],
            train=variants,
            n_test=cfg["n_test"],
            init=cfg["init"],
            sigma_0=cfg["sigma_0"],
            loss_target=cfg["loss_target"],
            base_seed=cfg["base_seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, cfg


def write_manifest(out_dir, command: str, config: dict, base_seed, outputs) -> Path:
    """Reproducibility record, written before any work starts; it includes
    numpy's version and its OpenBLAS build and thread count at that point."""
    from . import __version__

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    payload = {
        "tool": "samdyn",
        "version": __version__,
        "command": command,
        "config": config,
        "base_seed": base_seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": list(map(str, outputs)),
        "numpy": np.__version__,
        "openblas": openblas_environment(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path
