"""Flat key-value configuration files, option tables and typed access.

Files hold one `key = value` pair per line; `#` starts a comment and blank
lines are skipped.  Command-line flags override file values, which override
defaults.  Each subcommand declares its settings once, as a table of Option
rows; the CLI flags, the keys a config file may hold, the `--help` defaults
and the runner's typed values all come from that table.  All validation
errors raise ConfigError (the CLI maps these to exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .channel import parse_noise_model
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


# ---------------------------------------------------------------------------
# parsers: each maps (key, text) to a value or raises ConfigError


def _number(kind, holds=lambda v: True, bound: str = ""):
    """A parser of one int or float, as `kind` says, for which holds(value)."""
    noun = "an integer" if kind is int else "a finite number"

    def parse(key: str, text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not -math.inf < value < math.inf:
            raise ConfigError(f"config key {key!r} must be {noun}, got {text!r}")
        if not holds(value):
            raise ConfigError(f"{key} must {bound}, got {value}")
        return value
    return parse


count = _number(int, lambda v: v >= 1, "be positive")
nonnegative = _number(int, lambda v: v >= 0, "be non-negative")
thread_count = _number(int, lambda v: v >= 1, "be at least 1")
positive_float = _number(float, lambda v: v > 0, "be positive")
fraction = _number(float, lambda v: 0 <= v <= 1, "lie in [0, 1]")
positive_fraction = _number(float, lambda v: 0 < v <= 1, "lie in (0, 1]")


def _list(item):
    """A parser of a nonempty, comma or space separated list of `item`s."""
    def parse(key: str, text: str) -> list:
        return [item(key, tok) for tok in string(key, text.replace(",", " ")).split()]
    return parse


int_list = _list(_number(int))
float_list = _list(_number(float))


def sample_rule(key: str, text: str) -> "SampleRule":
    return parse_t_rule(text)


def noise_model(key: str, text: str) -> int:
    try:
        return parse_noise_model(text)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def string(key: str, text: str) -> str:
    if not text.strip():
        raise ConfigError(f"config key {key!r} must not be empty")
    return text


class Option(NamedTuple):
    """One setting of a subcommand: its config key, command-line flags (none
    for a file-only key), parser, default text and help.  A derived default
    is the runner's to compute: its text only describes it, and an absent
    key then reads as None."""

    key: str
    flags: tuple
    parse: Callable
    default: str | None
    help: str
    derived: bool = False

    def at(self, default: str, derived: bool = False) -> "Option":
        """The same option with a subcommand's own default."""
        return self._replace(default=default, derived=derived)


class Options:
    """A runner's typed view of its config: attribute `key` parses that row's
    value, or its default, when read."""

    def __init__(self, values: dict, rows):
        self._values = values
        self._rows = {row.key: row for row in rows}

    def __getattr__(self, key: str):
        row = self._rows[key]
        text = self._values.get(key, None if row.derived else row.default)
        return None if text is None else row.parse(key, text)


@dataclass
class ExperimentConfig:
    """Merged configuration: `values` maps string keys to string values.

    Runners read it through their option table (`options`); the scenario
    loader uses the typed accessors.  The CLI and scenario loader reject
    unknown keys with check_known_keys.
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

    def options(self, rows) -> Options:
        return Options(self.values, rows)

    def get_str(self, key: str, default=None) -> str:
        v = self.values.get(key, default)
        if v is None:
            raise ConfigError(f"missing required config key {key!r}")
        return str(v)

    def get_count(self, key: str, default=None) -> int:
        return count(key, self.get_str(key, default))

    def get_float(self, key: str, default=None) -> float:
        v = self.get_str(key, default)
        try:
            return float(v)
        except ValueError as e:
            raise ConfigError(f"config key {key!r} must be a number, got {v!r}") from e

    def get_bool(self, key: str, default=None) -> bool:
        v = self.get_str(key, default).lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} must be a boolean, got {v!r}")

    def get_int_list(self, key: str, default=None) -> list[int]:
        return int_list(key, self.get_str(key, default))

    def get_pair(self, key: str, default=None) -> tuple[float, float]:
        vals = float_list(key, self.get_str(key, default))
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


class SampleRule(NamedTuple):
    """Samples per surface as a function of N, from the rule `text`."""

    text: str
    kind: str
    value: float

    def __call__(self, n: int):
        """T at N: an int, or inf when the budget overflows a float."""
        if self.kind == "fixed":
            return self.value
        t = self.value * n if self.kind == "linear" else self.value * n * n * math.log(n) ** 3
        return max(1, math.ceil(t)) if math.isfinite(t) else t


def parse_t_rule(text: str) -> SampleRule:
    """Sample-count rules: "fixed:T", "linear:c" (T = c*N), or
    "theory:c" (T = c * N^2 * (ln N)^3)."""
    kind, _, arg = text.strip().lower().partition(":")
    try:
        value = int(arg) if kind == "fixed" else float(arg)
    except ValueError:
        value = 0
    if kind in ("fixed", "linear", "theory") and 0 < value < math.inf:
        return SampleRule(text, kind, value)
    raise ConfigError(
        f"bad sample-count rule {text!r}; use fixed:<T>, linear:<c>, or theory:<c>"
    )
