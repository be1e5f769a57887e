"""The benchmark: its workloads still reproduce their reference CSVs, and the
traced run wraps blindbeam functions by name."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def _bench_run():
    """perfbench/run.py as a module, for its workloads and reference check."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH = _bench_run()


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_workload_matches_its_seed_zero_reference(workload, tmp_path):
    # the benchmark rejects a run whose CSV drifts from its reference, so
    # check seed 0 of each workload here, run as the benchmark runs it
    out = tmp_path / "run.csv"
    env = dict(os.environ, **BENCH.CHILD_ENV,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "blindbeam", *BENCH.WORKLOADS[workload].argv,
                           "--seed", "0", "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert BENCH.compare_csv(out.read_text(), BENCH.load_reference(workload, 0)) == []


def test_layer_functions_exist():
    # perfbench/child.py getattr()s every listed name in a traced run, so a
    # renamed or deleted function would crash every `--trace 1` run
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{module}.{name}" for module, name, _, _ in child.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"blindbeam.{module}"),
                                       name, None))]
    assert child.LAYER_FUNCTIONS
    assert missing == []


def test_traced_compare_counts_every_blind_measurement(tmp_path):
    # the traced run wraps the optimizers and received_power by module name:
    # a method table that holds a function object instead of looking it up
    # escapes the wrapper, and the benchmark's count check then fails
    result, out = tmp_path / "trace.json", tmp_path / "run.csv"
    proc = subprocess.run([sys.executable, str(CHILD), str(result), "trace", "--", "compare",
                           "--trials", "2", "--elements", "16", "--noise", "one_draw",
                           "--out", str(out)],
                          cwd=ROOT, env=dict(os.environ, **BENCH.CHILD_ENV),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]
            if not line.startswith("#")]
    assert sorted({row[3] for row in rows}) == ["cpp", "csm", "random", "virtual", "zero"]
    trace = json.loads(result.read_text())["trace"]
    counts, calls = trace["counts"], trace["calls"]
    assert counts["channel.received_power.measurements"] == sum(int(row[7]) for row in rows) > 0
    assert counts["beamforming.sequential_csm.measurements"] == sum(
        int(row[7]) for row in rows if row[3] == "csm") > 0
    for name in ("sequential_csm", "random_beamforming", "virtual_single_irs"):
        assert calls.get(f"beamforming.{name}", 0) > 0, name
