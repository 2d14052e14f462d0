"""Key = value run configuration of the train, check and grid subcommands.

Format: one `key = value` pair per line, `#` comments, blank lines
ignored.  Unknown keys are errors (typos in sweep configs must not pass
silently).  Environment variables with the SAMDYN_ prefix override file
values, e.g. SAMDYN_ETA=0.1 overrides `eta`; a prefixed variable that
names a key of neither the train nor the grid schema is an error too, and
one that names only the other schema's key is ignored.

TRAIN_SCHEMA and GRID_SCHEMA are the one table of keys: each maps a key to
its parser and its default (REQUIRED for none), which is the default of
the dataclass field the key sets; only the grid's algo and tau lists,
train_variants parameters, have their own.  gen-data's flags are
TRAIN_SCHEMA's.  Lists are comma separated (`d_values = 1000, 5000,
20000`); optional keys read an empty value as None (tables.optional).  The
loaders build each dataclass from the keys that share its field names, so
a new setting is a dataclass field and its schema line.
"""

import dataclasses
import datetime
import json
import os
from pathlib import Path

import numpy as np

from .data import DataParams
from .experiments import GridSpec, openblas_environment, train_variants
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
    """raw with the SAMDYN_ overrides of schema's keys applied.  An override
    of the other schema's key (a grid key when loading a train config, or
    the reverse) is ignored, so one environment can hold both; a name that
    matches no key of either schema is refused.  A name matches its key
    exactly, else case-insensitively (SAMDYN_P sets P, SAMDYN_p sets p)."""
    env = os.environ if environ is None else environ
    by_lower = {k.lower(): k for k in schema}
    known = {k.lower() for k in (*TRAIN_SCHEMA, *GRID_SCHEMA)}
    out = dict(raw)
    for name, value in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        field = name[len(ENV_PREFIX):]
        key = field if field in schema else by_lower.get(field.lower())
        if key is not None:
            out[key] = value
        elif field.lower() not in known:
            raise ConfigError(f"environment override {name} does not match any config key")
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
# NetConfig, TrainConfig or GridSpec, or a parameter of train_variants
TRAIN_SCHEMA: dict[str, tuple] = {
    "d": (int, REQUIRED),
    "P": (int, DataParams.P),
    "n": (int, REQUIRED),
    "sigma_p": (float, DataParams.sigma_p),
    "p": (float, DataParams.p),
    "mu_norm": (float, REQUIRED),
    "m": (int, REQUIRED),
    "init": (str, NetConfig.init),
    "sigma_0": (float, NetConfig.sigma_0),
    "algo": (str, TrainConfig.algo),
    "eta": (float, REQUIRED),
    "B": (int, REQUIRED),
    "epochs": (int, REQUIRED),
    "tau": (float, TrainConfig.tau),
    "seed": (int, TrainConfig.seed),
    "record_every": (optional(int), TrainConfig.record_every),
    "sam_phase_iters": (optional(int), TrainConfig.sam_phase_iters),
}

GRID_SCHEMA: dict[str, tuple] = {
    "d_values": (list_of(int), REQUIRED),
    "mu_values": (list_of(float), REQUIRED),
    "seeds": (list_of(int), REQUIRED),
    "n": (int, REQUIRED),
    "P": (int, DataParams.P),
    "sigma_p": (float, DataParams.sigma_p),
    "p": (float, DataParams.p),
    "m": (int, REQUIRED),
    "init": (str, GridSpec.init),
    "sigma_0": (optional(float), GridSpec.sigma_0),
    "algo": (list_of(str), ("sgd", "sam")),
    "eta": (list_of(float), REQUIRED),
    "B": (list_of(int), REQUIRED),
    "epochs": (list_of(int), REQUIRED),
    "tau": (list_of(float), (0.03,)),
    "n_test": (int, REQUIRED),
    "loss_target": (float, GridSpec.loss_target),
    "base_seed": (int, GridSpec.base_seed),
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
        variants = train_variants(**{k: v for k, v in cfg.items() if k not in fields})
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
