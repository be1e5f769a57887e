"""Flat key-value configuration files with typed access.

Files hold one `key = value` pair per line; `#` starts a comment and blank
lines are skipped.  Command-line flags override file values, which override
defaults.  All validation errors raise ConfigError (the CLI maps these to
exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .phases import as_grids


class ConfigError(Exception):
    """Bad configuration input (file syntax, types, or value ranges)."""


def parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def check_known_keys(values: dict, known, path):
    """Raise ConfigError naming the first key read from the file `path` that
    is not in `known`, so a misspelt key never falls back to a default."""
    unknown = [key for key in values if key not in known]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")


@dataclass
class ExperimentConfig:
    """Merged configuration with typed accessors.

    `values` maps string keys to string values; accessors parse on demand.
    The CLI and scenario loader reject unknown keys with check_known_keys.
    """

    values: dict = field(default_factory=dict)

    @classmethod
    def merge(cls, file_path=None, overrides=None) -> "ExperimentConfig":
        values = {}
        if file_path:
            values.update(parse_config_file(file_path))
        for k, v in (overrides or {}).items():
            if v is not None:
                values[k] = str(v)
        return cls(values)

    def has(self, key: str) -> bool:
        return key in self.values

    def get_str(self, key: str, default=None) -> str:
        v = self.values.get(key, default)
        if v is None:
            raise ConfigError(f"missing required config key {key!r}")
        return str(v)

    def get_int(self, key: str, default=None) -> int:
        v = self.get_str(key, None if default is None else str(default))
        try:
            return int(v)
        except ValueError as e:
            raise ConfigError(f"config key {key!r} must be an integer, got {v!r}") from e

    def get_count(self, key: str, default=None) -> int:
        """get_int for a count, which must be at least 1."""
        v = self.get_int(key, default)
        if v < 1:
            raise ConfigError(f"{key} must be positive, got {v}")
        return v

    def get_float(self, key: str, default=None) -> float:
        v = self.get_str(key, None if default is None else str(default))
        try:
            return float(v)
        except ValueError as e:
            raise ConfigError(f"config key {key!r} must be a number, got {v!r}") from e

    def get_bool(self, key: str, default=None) -> bool:
        v = self.get_str(key, None if default is None else str(default)).lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} must be a boolean, got {v!r}")

    def get_int_list(self, key: str, default=None) -> list[int]:
        v = self.get_str(key, default)
        try:
            return [int(tok) for tok in str(v).replace(",", " ").split()]
        except ValueError as e:
            raise ConfigError(f"config key {key!r} must be a list of integers, got {v!r}") from e

    def get_float_list(self, key: str, default=None) -> list[float]:
        v = self.get_str(key, default)
        try:
            return [float(tok) for tok in str(v).replace(",", " ").split()]
        except ValueError as e:
            raise ConfigError(f"config key {key!r} must be a list of numbers, got {v!r}") from e

    def get_pair(self, key: str, default=None) -> tuple[float, float]:
        vals = self.get_float_list(key, default)
        if len(vals) != 2:
            raise ConfigError(f"config key {key!r} must be 'x,y', got {self.values.get(key)!r}")
        return vals[0], vals[1]


def _grids_for(levels, num_surfaces: int):
    """Phase grids from one level count shared by every surface, or one per
    surface."""
    if len(levels) not in (1, num_surfaces):
        raise ConfigError(
            f"need 1 or {num_surfaces} level counts, got {len(levels)}: {levels}")
    try:
        return as_grids(levels if len(levels) > 1 else levels[0], num_surfaces)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def parse_t_rule(text: str):
    """Sample-count rules: "fixed:T", "linear:c" (T = c*N), or
    "theory:c" (T = c * N^2 * (ln N)^3).  Returns a callable of N."""
    t = text.strip().lower()
    try:
        kind, _, arg = t.partition(":")
        if kind == "fixed":
            value = int(arg)
            if value < 1:
                raise ValueError
            return lambda n: value
        if kind in ("linear", "theory"):
            coeff = float(arg)
            if not math.isfinite(coeff) or coeff <= 0:
                raise ValueError
            if kind == "linear":
                return lambda n: max(1, math.ceil(coeff * n))
            return lambda n: max(1, math.ceil(coeff * n * n * math.log(n) ** 3))
    except ValueError:
        pass
    raise ConfigError(
        f"bad sample-count rule {text!r}; use fixed:<T>, linear:<c>, or theory:<c>"
    )
