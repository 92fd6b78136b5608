"""Runtime configuration: resource caps, term order, seed, output format.

Defaults live here; the CLI layers a config file (pointed to by the
``CLOSURE_LAB_CONFIG`` environment variable) and command-line flags on top.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from .errors import ConfigError

ENV_CONFIG_VAR = "CLOSURE_LAB_CONFIG"

DEFAULT_K_MAX = 20
DEFAULT_N_MAX = 5
DEFAULT_GENERATOR_CAP = 20_000
DEFAULT_BOX_POINT_CAP = 1_000_000
DEFAULT_SPAIR_CAP = 50_000

_ORDERS = ("grevlex", "lex")
_OUTPUTS = ("text", "json", "csv")


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Config:
    k_max: int = DEFAULT_K_MAX
    n_max: int = DEFAULT_N_MAX
    generator_cap: int = DEFAULT_GENERATOR_CAP
    box_point_cap: int = DEFAULT_BOX_POINT_CAP
    spair_cap: int = DEFAULT_SPAIR_CAP
    order: str = "grevlex"
    seed: int = 0
    output: str = "text"

    def __post_init__(self):
        for name in ("k_max", "n_max", "generator_cap", "box_point_cap", "spair_cap"):
            value = getattr(self, name)
            if not _is_int(value) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.order not in _ORDERS:
            raise ConfigError(f"order must be one of {_ORDERS}, got {self.order!r}")
        if self.output not in _OUTPUTS:
            raise ConfigError(f"output must be one of {_OUTPUTS}, got {self.output!r}")
        if not _is_int(self.seed) or not (-(2**63) <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit integer, got {self.seed!r}")


def load_config(path: str | None = None, **overrides) -> Config:
    """Build a Config from defaults, then a JSON config file, then overrides.

    ``path`` defaults to the CLOSURE_LAB_CONFIG environment variable; override
    values of None are ignored so CLI flags can be passed through unchecked.
    """
    values: dict = {}
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config file {path} is nested too deeply") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        known = {f.name for f in fields(Config)}
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            values[key] = value
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return Config(**values)
