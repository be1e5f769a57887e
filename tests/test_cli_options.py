"""Each subcommand's flags and config-file keys, pinned.

The option tables in experiments.OPTIONS are the one source of both.  Adding
or losing an option must change these lists, so every change to the command
line surface shows up as a reviewed test diff.
"""

import re
from pathlib import Path

import pytest

from blindbeam.cli import main
from blindbeam.experiments import OPTIONS
from blindbeam.scenario import SCENARIO_OPTIONS

# every subcommand's own flags: help, the config file and the outputs
IO_FLAGS = ["--config", "--help", "--json", "--out", "--timing", "-h"]

FLAGS = {
    "scaling": ["--leakage-margin", "--levels", "--methods", "--n-sweep", "--noise", "--seed",
                "--surfaces", "--t-rule", "--threads", "--trials", "-K", "-L"],
    "compare": ["--budget-per-surface", "--elements", "--methods", "--noise", "--scenario",
                "--seed", "--t-rule", "--threads", "--trials", "-N"],
    "conditions": ["--elements", "--eta-sweep", "--levels", "--seed", "--surfaces",
                   "--threads", "--trials", "-K", "-L", "-N"],
    "examples": ["--beta", "--growth-rel-tol", "--n-sweep", "--seed"],
    "lemma-check": ["--elements", "--leakage-margin", "--levels", "--seed", "--surfaces",
                    "--threads", "--trials", "-K", "-L", "-N"],
}

FILE_KEYS = {
    "scaling": ["leakage_margin", "levels", "methods", "n_sweep", "noise", "noise_dbm",
                "power_dbm", "seed", "surfaces", "t_rule", "threads", "trials"],
    "compare": ["budget_per_surface", "elements", "methods", "noise", "scenario", "seed",
                "t_rule", "threads", "trials"],
    "conditions": ["elements", "eta_sweep", "levels", "seed", "surfaces", "threads",
                   "trials"],
    "examples": ["beta", "growth_rel_tol", "n_sweep", "seed"],
    "lemma-check": ["elements", "leakage_margin", "levels", "seed", "surfaces", "threads",
                    "trials"],
}

# a scenario file's keys besides surface1..surfaceL, one per surface (the
# scenario-extra-surface case of test_experiments.py checks those)
SCENARIO_KEYS = ["angles", "elements", "levels", "noise_dbm", "placement", "power_dbm",
                 "propagation", "rx", "spacing", "surfaces", "tx", "wavelength", "zero_nlos"]


def help_text(command: str, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_every_subcommand_is_pinned():
    assert sorted(OPTIONS) == sorted(FLAGS) == sorted(FILE_KEYS)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flags_are_pinned(command, capsys):
    options = help_text(command, capsys).split("options:", 1)[1]
    flags = re.findall(r"(?:^  |, )(-{1,2}[A-Za-z][\w-]*)", options, flags=re.MULTILINE)
    assert sorted(flags) == sorted(FLAGS[command] + IO_FLAGS)


@pytest.mark.parametrize("command", sorted(FILE_KEYS))
def test_file_keys_are_pinned(command):
    assert sorted(row.key for row in OPTIONS[command]) == FILE_KEYS[command]


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_every_default_is_in_help(command, capsys):
    text = " ".join(help_text(command, capsys).split())
    for row in OPTIONS[command]:
        assert f"{row.help} (default {row.default})" in text, row.key


@pytest.mark.parametrize("argv", [
    ["examples", "--trials", "5"],
    ["examples", "--threads", "2"],
], ids=["examples-trials", "examples-threads"])
def test_a_flag_exists_only_where_it_is_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scenario_keys_are_pinned():
    assert sorted(row.key for row in SCENARIO_OPTIONS) == SCENARIO_KEYS


def test_readme_gives_every_scenario_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for row in SCENARIO_OPTIONS:
        default = "required" if row.default is None else f"`{row.default}`"
        assert f"| `{row.key}` | {default} |" in readme, row.key
