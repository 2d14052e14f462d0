"""Key = value run configuration of the train, check and grid subcommands.

Format: one `key = value` pair per line, `#` comments, blank lines
ignored.  Unknown keys are errors (typos in sweep configs must not pass
silently).  Environment variables with the SAMDYN_ prefix override file
values, e.g. SAMDYN_ETA=0.1 overrides `eta`; unknown prefixed variables
are errors too.

TRAIN_SCHEMA and GRID_SCHEMA are the one table of keys: each maps a key to
its parser and its default (REQUIRED for none).  Lists are comma separated
(`d_values = 1000, 5000, 20000`); optional keys read an empty value as
None (tables.optional).  The loaders build each dataclass from the keys
that share its field names, so a new setting is a dataclass field and its
schema line.
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
from .tables import optional

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


REQUIRED = object()  # the default of a key every config must set


def list_of(parse):
    """Parser of a comma-separated, nonempty list of parse's values."""
    def parse_list(value: str) -> tuple:
        items = tuple(parse(v.strip()) for v in value.split(",") if v.strip())
        if not items:
            raise ValueError("empty list")
        return items
    return parse_list


# key -> (parser, default); a key names the field it sets, in DataParams,
# NetConfig, TrainConfig or GridSpec, or a parameter of phase_train_variants
TRAIN_SCHEMA: dict[str, tuple] = {
    "d": (int, REQUIRED),
    "P": (int, 2),
    "n": (int, REQUIRED),
    "sigma_p": (float, 1.0),
    "p": (float, 0.0),
    "mu_norm": (float, REQUIRED),
    "m": (int, REQUIRED),
    "init": (str, "uniform_fan_in"),
    "sigma_0": (float, 0.01),
    "algo": (str, "sgd"),
    "eta": (float, REQUIRED),
    "B": (int, REQUIRED),
    "epochs": (int, REQUIRED),
    "tau": (float, 0.0),
    "seed": (int, 0),
    "record_every": (optional(int), None),
    "sam_phase_iters": (optional(int), None),
}

GRID_SCHEMA: dict[str, tuple] = {
    "d_values": (list_of(int), REQUIRED),
    "mu_values": (list_of(float), REQUIRED),
    "seeds": (list_of(int), REQUIRED),
    "n": (int, REQUIRED),
    "P": (int, 2),
    "sigma_p": (float, 1.0),
    "p": (float, 0.0),
    "m": (int, REQUIRED),
    "init": (str, "uniform_fan_in"),
    "sigma_0": (optional(float), None),
    "algos": (list_of(str), ("sgd", "sam")),
    "eta": (float, REQUIRED),
    "B": (int, REQUIRED),
    "epochs": (int, REQUIRED),
    "tau": (float, 0.03),
    "n_test": (int, REQUIRED),
    "loss_target": (float, 0.05),
    "base_seed": (int, 0),
}


def _load(path, schema: dict, seed_key: str, seed_override, environ) -> dict:
    """The typed values of every schema key: the file's, then the SAMDYN_
    overrides, parsed, then the defaults, then seed_override for seed_key."""
    raw = apply_env_overrides(parse_config_file(path), schema, environ)
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {raw[key]!r}: {exc}") from None
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            cfg[key] = default
    if seed_override is not None:
        cfg[seed_key] = seed_override
    return cfg


def _by_name(cls, cfg: dict, **given):
    """cls built from given and the values of cfg's keys that name its fields."""
    names = {f.name for f in dataclasses.fields(cls)} - given.keys()
    return cls(**given, **{k: v for k, v in cfg.items() if k in names})


@dataclasses.dataclass
class TrainSetup:
    params: DataParams
    n: int
    net: NetConfig
    train: TrainConfig
    raw: dict


def load_train_setup(path, seed_override: int | None = None, environ=None) -> TrainSetup:
    cfg = _load(path, TRAIN_SCHEMA, "seed", seed_override, environ)
    try:
        setup = _by_name(TrainSetup, cfg, params=_by_name(DataParams, cfg),
                         net=_by_name(NetConfig, cfg), train=_by_name(TrainConfig, cfg), raw=cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if setup.n % setup.train.B != 0:
        raise ConfigError(f"B={setup.train.B} does not divide n={setup.n}")
    return setup


def load_grid_spec(path, seed_override: int | None = None, environ=None) -> tuple[GridSpec, dict]:
    cfg = _load(path, GRID_SCHEMA, "base_seed", seed_override, environ)
    # the keys that name no GridSpec field are the training variants' parameters
    fields = {f.name for f in dataclasses.fields(GridSpec)}
    try:
        variants = phase_train_variants(**{k: v for k, v in cfg.items() if k not in fields})
        return _by_name(GridSpec, cfg, train=variants), cfg
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
