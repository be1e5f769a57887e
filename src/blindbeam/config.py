"""Flat key-value configuration files, option tables and typed access.

Files hold one `key = value` pair per line; `#` starts a comment and blank
lines are skipped.  Command-line flags override file values, which override
defaults.  Each subcommand declares its settings once, as a table of Option
rows; the CLI flags, the keys a config file may hold, the `--help` defaults
and the runner's typed values all come from that table.  Scenario files have
a table of their own.  A row's parser is the only way its text becomes a
typed, range-checked value.  All validation errors raise ConfigError (the
CLI maps these to exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
# parsers: each maps (text, key) to a value or raises ConfigError; `key` names
# the value in messages.  A rule about one value lives in its parser; a rule
# relating two values stays with the code that reads both.


def number(kind, holds=lambda v: True, bound: str = ""):
    """A parser of one int or float, as `kind` says, for which holds(value)."""
    noun = "an integer" if kind is int else "a finite number"

    def parse(text: str, key: str):
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


finite = number(float)
count = number(int, lambda v: v >= 1, "be positive")
nonnegative = number(int, lambda v: v >= 0, "be non-negative")
thread_count = number(int, lambda v: v >= 1, "be at least 1")
positive_float = number(float, lambda v: v > 0, "be positive")
fraction = number(float, lambda v: 0 <= v <= 1, "lie in [0, 1]")
positive_fraction = number(float, lambda v: 0 < v <= 1, "lie in (0, 1]")


def list_of(item, item_key: str | None = None, distinct: bool = False, label=None):
    """A parser of a nonempty, comma or space separated list of `item`s, each
    parsed under `item_key` (default: the list's key) and, if `distinct`,
    listed once; given `label`, no two entries may share label(entry)."""
    def parse(text: str, key: str) -> list:
        values = [item(tok, item_key or key)
                  for tok in string(text.replace(",", " "), key).split()]
        tags = values if label is None else [label(value) for value in values]
        for i, tag in enumerate(tags):
            if distinct and tag in tags[:i]:
                twin, value = values[tags.index(tag)], values[i]
                raise ConfigError(f"{key} lists {value!r} twice" if twin == value else
                                  f"{key} lists {twin!r} and {value!r}, which both print as {tag}")
        return values
    return parse


int_list = list_of(number(int))


def one_of(names, noun: str):
    """A parser of one of `names`, which a message calls `noun`."""
    def parse(text: str, key: str) -> str:
        if text not in names:
            raise ConfigError(f"unknown {noun} {text!r}; pick from {list(names)}")
        return text
    return parse


def pair(text: str, key: str) -> tuple[float, float]:
    values = list_of(finite)(text, key)
    if len(values) != 2:
        raise ConfigError(f"config key {key!r} must be 'x,y', got {text!r}")
    return values[0], values[1]


def boolean(text: str, key: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")


def string(text: str, key: str) -> str:
    if not text.strip():
        raise ConfigError(f"config key {key!r} must not be empty")
    return text


def parse_noise_model(text: str, key: str = "noise") -> int:
    """Noise draws per measurement from "noiseless" (0), "one_draw" (1) or
    "averaged:<M>" (M >= 1).  `key` is unused; it makes this a row parser."""
    t = text.strip().lower()
    if t == "noiseless":
        return 0
    if t == "one_draw":
        return 1
    if t.startswith("averaged:"):
        try:
            return count(t.split(":", 1)[1], key)
        except ConfigError:
            raise ConfigError(f"averaged noise model needs an integer draw count >= 1, "
                              f"got {text!r}") from None
    if t == "averaged":
        raise ConfigError("averaged noise model needs a draw count, e.g. averaged:100")
    raise ConfigError(f"unknown noise model {text!r}")


class Option(NamedTuple):
    """One setting: its config key, command-line flags (none for a file-only
    key), parser, default text and help.  A row with no default is required.
    A derived default is the runner's to compute: its text only describes
    it, and an absent key then reads as None."""

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
    """A typed view of a config: attribute `key` parses that row's value, or
    its default, when read."""

    def __init__(self, values: dict, rows):
        self._values = values
        self._rows = {row.key: row for row in rows}

    def __getattr__(self, key: str):
        row = self._rows[key]
        text = self._values.get(key, None if row.derived else row.default)
        if text is not None:
            return row.parse(text, key)
        if row.derived:
            return None
        raise ConfigError(f"missing required config key {key!r}")


@dataclass
class ExperimentConfig:
    """Merged configuration: `values` maps string keys to string values.

    Every reader types its values through a table of Option rows
    (`options`): the runners through experiments.OPTIONS, the scenario
    loader through scenario.SCENARIO_OPTIONS.  The CLI and scenario loader
    reject unknown keys with check_known_keys.
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


def _grids_for(levels, num_surfaces: int, check=None):
    """Phase grids from one level count shared by every surface, or one per
    surface, that pass check(grids) when a check is given."""
    if len(levels) not in (1, num_surfaces):
        raise ConfigError(
            f"need 1 or {num_surfaces} level counts, got {len(levels)}: {levels}")
    try:
        grids = as_grids(levels if len(levels) > 1 else levels[0], num_surfaces)
        if check:
            check(grids)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return grids


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


def parse_t_rule(text: str, key: str = "t_rule") -> SampleRule:
    """Sample-count rules: "fixed:T", "linear:c" (T = c*N), or
    "theory:c" (T = c * N^2 * (ln N)^3).  `key` is unused; it makes this a
    row parser."""
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
