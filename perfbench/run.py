"""blindbeam benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload is a closed loop: one
``blindbeam`` CLI process at a time (``perfbench/child.py``), ``--threads 1``,
BLAS pinned to one thread.  The CLI seed is ``REF_SEEDS[seed % 16]``, so every
run's CSV is checked against a reference captured by
``perfbench/capture_refs.py``.

``--trace 0`` times untraced runs and prints the end-to-end metrics.
``--trace 1`` times untraced runs, then traced runs that wrap each layer's
public functions, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the layer-to-metric mapping.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "refs"
REF_SEEDS = tuple(range(16))

# Relative tolerance for metric_value and for numeric summary fields.  The CSV
# prints 12 significant digits, so 1e-9 absorbs last-digit changes from a
# different summation order and nothing larger.
REL_TOL = 1e-9
# The '#' summary lines print six significant digits, so a last-digit change
# there is up to 1e-5 relative.
SUMMARY_REL_TOL = 1e-5
# Share of the traced cli.main time that the runner and write_csv spans (the
# wrapped top level) must cover; the rest is argument and config parsing.
TRACE_COVERAGE = 0.99
SETUP_PROBES = 12
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
MAX_ROWS_SHOWN = 10
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    argv: tuple           # CLI arguments, without --seed and --out
    trials: int           # trials per invocation, the unit of trials_per_s
    measurements: int     # blind power measurements per invocation
    csm_measurements: int  # of those, the ones taken by sequential CSM


# scaling_dense: 1 trial, noiseless; csm probes T = 20 N per surface on both
# surfaces and cpp takes none.
_SCALING_N = (16, 64, 256, 1024)
_SCALING_CSM = 1 * 2 * sum(20 * n for n in _SCALING_N)
# corridor_compare: 20 trials on the two-surface corridor; random and virtual
# each take L * 1000 probes, csm takes T = 1000 per surface.
_CORRIDOR_CSM = 20 * 2 * 1000
_CORRIDOR_ALL = 20 * 2 * (1000 + 1000 + 1000)

WORKLOADS = {
    "scaling_dense": Workload(
        argv=("scaling", "-L", "2", "-K", "4",
              "--n-sweep", ",".join(map(str, _SCALING_N)), "--methods", "csm,cpp",
              "--t-rule", "linear:20", "--noise", "noiseless", "--trials", "1",
              "--threads", "1"),
        trials=1,
        measurements=_SCALING_CSM,
        csm_measurements=_SCALING_CSM,
    ),
    "corridor_compare": Workload(
        argv=("compare", "--scenario", "src/blindbeam/data/double_irs.cfg", "-N", "256",
              "--methods", "zero,random,virtual,csm,cpp", "--t-rule", "fixed:1000",
              "--budget-per-surface", "1000", "--noise", "one_draw", "--trials", "20",
              "--threads", "1"),
        trials=20,
        measurements=_CORRIDOR_ALL,
        csm_measurements=_CORRIDOR_CSM,
    ),
    "conditions_density": Workload(
        argv=("conditions", "-L", "2", "-N", "100", "-K", "4",
              "--eta-sweep", "0.2,0.4,0.6,0.8,1.0", "--trials", "16", "--threads", "1"),
        trials=5 * 16,
        measurements=0,
        csm_measurements=0,
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("trials_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))
SELF_S = (
    "channel.expand_links_to_tensor", "conditions.check_d_conditions",
    "conditions.leakage_abs_sum", "conditions.check_rank_one",
    "conditions.recover_full_path_factors", "conditions.check_c_conditions",
    "conditions.check_cprime", "beamforming.sequential_csm",
    "beamforming.generate_samples", "beamforming.csm_decide", "channel.effective_batch",
    "beamforming.random_beamforming", "beamforming.virtual_single_irs",
    "channel.stage_coefficients", "channel.effective_channel", "channel.received_power",
    "beamforming.sequential_cpp_oracle", "fixtures.make_d_instance",
    "fixtures.max_leakage_scale", "experiments.realize_scenario",
    "scenario.build_link_graph", "experiments.runner", "experiments.write_csv",
)
CALLS = ("conditions.leakage_abs_sum", "conditions.check_rank_one",
         "channel.stage_coefficients")
WORK_COUNTS = ("channel.expand_links_to_tensor.entries",
               "beamforming.sequential_csm.measurements",
               "channel.effective_batch.assignments",
               "channel.received_power.measurements")


def per_layer_names() -> list:
    return ([f"{name}.self_s" for name in SELF_S] + [f"{name}.calls" for name in CALLS]
            + list(WORK_COUNTS) + ["trace.overhead_share"])


# ---------------------------------------------------------------------------
# reference check


def _close(got: str, want: str, rel_tol: float) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _summary_fields_match(got: str, want: str) -> bool:
    """'#' lines: comma fields, each plain or key=value; values compare as
    numbers within SUMMARY_REL_TOL when both parse, exactly otherwise."""
    g, w = got.split(","), want.split(",")
    if len(g) != len(w):
        return False
    for gf, wf in zip(g, w):
        gk, _, gv = gf.partition("=")
        wk, _, wv = wf.partition("=")
        if gk != wk or not _close(gv, wv, SUMMARY_REL_TOL):
            return False
    return True


def compare_csv(got: str, want: str) -> list:
    """Row-by-row differences between a run's CSV and its reference.

    Data rows must match exactly except metric_value, which must agree within
    REL_TOL; '#' summary lines compare field by field within SUMMARY_REL_TOL.
    """
    got_lines, want_lines = got.splitlines(), want.splitlines()
    problems = []
    if len(got_lines) != len(want_lines):
        problems.append(f"{len(got_lines)} lines, reference has {len(want_lines)}")
    header = want_lines[0].split(",")
    metric_col = header.index("metric_value")
    for row, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g == w:
            continue
        if w.startswith("#"):
            ok = g.startswith("#") and _summary_fields_match(g, w)
        else:
            gf, wf = g.split(","), w.split(",")
            ok = (row > 0 and len(gf) == len(wf)
                  and all(a == b for i, (a, b) in enumerate(zip(gf, wf)) if i != metric_col)
                  and _close(gf[metric_col], wf[metric_col], REL_TOL))
        if not ok:
            problems.append(f"row {row}: got {g!r}, reference {w!r}")
    return problems


def load_reference(workload: str, cli_seed: int) -> str:
    source = json.loads((REF_DIR / "SOURCE.json").read_text())
    if source["argv"].get(workload) != list(WORKLOADS[workload].argv):
        raise SystemExit(f"references for {workload} were captured with other flags; "
                         "run perfbench/capture_refs.py")
    return (REF_DIR / workload / f"seed{cli_seed:02d}.csv").read_text()


def csm_to_cpp_median(csv_text: str):
    """Median over (trial, N) of CSM boost over CPP boost, or None."""
    boosts = {}
    for line in csv_text.splitlines()[1:]:
        if line.startswith("#"):
            continue
        f = line.split(",")
        boosts[(f[2], f[5], f[3])] = float(f[9])
    ratios = [boosts[(t, n, "csm")] / boosts[(t, n, "cpp")]
              for (t, n, m) in boosts if m == "csm" and (t, n, "cpp") in boosts]
    return statistics.median(ratios) if ratios else None


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Launch:
    ok: bool
    setup_s: float
    elapsed_s: float
    report: dict
    csv: str
    error: str


class Runner:
    """Launches one child at a time inside a scratch directory of the checkout."""

    def __init__(self, workload: str, cli_seed: int, scratch: Path):
        self.argv = list(WORKLOADS[workload].argv) + ["--seed", str(cli_seed)]
        self.scratch = scratch
        self.env = dict(os.environ, **CHILD_ENV)
        self.count = 0

    def launch(self, mode: str, meta: bool = False) -> Launch:
        self.count += 1
        result = self.scratch / f"result{self.count}.json"
        out = self.scratch / f"out{self.count}.csv"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result), mode]
        cmd += ["--meta"] if meta else []
        cmd += ["--", *self.argv, "--out", str(out)]
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            returncode, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
        elapsed = time.monotonic() - launched
        report = json.loads(result.read_text()) if result.exists() else {}
        csv = out.read_text() if out.exists() else ""
        ok = returncode == 0 and "runner_start" in report
        error = "" if ok else f"exit {returncode}: {stderr.strip()[-500:]}"
        setup = report["runner_start"] - launched if "runner_start" in report else math.nan
        return Launch(ok, setup, elapsed, report, csv, error)


# ---------------------------------------------------------------------------
# one benchmark run


def _median(values):
    return statistics.median(values) if values else math.nan


def _git_sha():
    """HEAD of the checkout read from .git, without running git (which would
    search parent directories when the checkout is not a repository)."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = Path(".git") / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def run(workload_name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    workload = WORKLOADS[workload_name]
    cli_seed = REF_SEEDS[seed % len(REF_SEEDS)]
    reference = load_reference(workload_name, cli_seed)
    runner = Runner(workload_name, cli_seed, scratch)
    start = time.monotonic()
    deadline = start + seconds
    problems = []

    warm = runner.launch("setup", meta=True)  # compiles bytecode; not counted
    if not warm.ok:
        raise SystemExit(f"set-up launch failed: {warm.error}")
    setup_samples = []
    for _ in range(0 if trace else SETUP_PROBES):
        probe = runner.launch("setup")
        if not probe.ok:
            raise SystemExit(f"set-up launch failed: {probe.error}")
        setup_samples.append(probe.setup_s)

    attempted = failed = 0
    untraced, traced = [], []

    def full_run(mode):
        # A run whose CSV mismatches still counts for timing; it fails the
        # result through `failed` and `correct`.
        nonlocal attempted, failed
        attempted += 1
        launch = runner.launch(mode)
        bad = [launch.error] if not launch.ok else compare_csv(launch.csv, reference)
        if bad:
            failed += 1
            label = "traced" if mode == "trace" else "untraced"
            problems.extend(f"{label} run {attempted}: {p}" for p in bad[:MAX_ROWS_SHOWN])
            if len(bad) > MAX_ROWS_SHOWN:
                problems.append(f"{label} run {attempted}: {len(bad) - MAX_ROWS_SHOWN} more")
        if launch.ok:
            (traced if mode == "trace" else untraced).append(launch)
        return launch.elapsed_s

    def loop(mode, minimum, until):
        # Start another run unless more than half of it would fall past `until`.
        runs, last = 0, 0.0
        while runs < minimum or time.monotonic() + last / 2 < until:
            last = full_run(mode)
            runs += 1

    if trace:
        loop("run", 1, start + seconds / 2)
        loop("trace", MIN_TRACED_RUNS, deadline)
    else:
        loop("run", MIN_RUNS, deadline)
    if not untraced or (trace and not traced):
        raise SystemExit("no CLI run exited cleanly:\n" + "\n".join(problems))

    wall = [r.report["wall_s"] for r in untraced]
    setup_samples += [r.setup_s for r in untraced]
    info = {
        "workload": workload_name,
        "seed": seed,
        "cli_seed": cli_seed,
        "cli_argv": runner.argv + ["--out", "<temp csv>"],
        "child_env": CHILD_ENV,
        "git_sha": _git_sha(),
        "reference_commit": json.loads((REF_DIR / "SOURCE.json").read_text())["commit"],
        **warm.report["meta"],
        "wall_s_samples": [round(w, 4) for w in wall],
        "traced_runs": len(traced),
        "setup_samples": len(setup_samples),
        "failed_share": failed / attempted,
        "csm_to_cpp_median": csm_to_cpp_median(untraced[0].csv),
    }
    if workload.measurements:
        info["measurements_per_s"] = workload.measurements / _median(wall)

    if not trace:
        values = {
            "wall_s": _median(wall),
            "setup_s": _median(setup_samples),
            "trials_per_s": workload.trials / _median([r.elapsed_s for r in untraced]),
            "peak_rss_mb": _median([r.report["peak_rss_kb"] / 1024 for r in untraced]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return {"info": info, "problems": problems, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    problems += check_traces(workload, untraced, traced)
    first = traced[0].report["trace"]
    values = {}
    for name in SELF_S:
        values[f"{name}.self_s"] = _median([r.report["trace"]["self_s"].get(name, 0.0)
                                            for r in traced])
    for name in CALLS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
    for name in WORK_COUNTS:
        values[name] = first["counts"].get(name, 0)
    values["trace.overhead_share"] = (
        _median([r.report["wall_s"] for r in traced]) / _median(wall) - 1.0)
    metrics = {}
    for name in per_layer_names():
        unit = "s" if name.endswith(".self_s") else "ratio" if name.startswith("trace.") else "count"
        metrics[name] = {"value": values[name], "unit": unit}
    return {"info": info, "problems": problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_traces(workload: Workload, untraced: list, traced: list) -> list:
    """Tracing self-checks: identical output and counts, derived measurement
    counts, and spans that account for the traced wall time."""
    problems = []
    for r in traced:
        if r.csv != untraced[0].csv:
            problems.append("traced CSV differs from the untraced CSV")
        t = r.report["trace"]
        if (t["calls"], t["counts"]) != (traced[0].report["trace"]["calls"],
                                         traced[0].report["trace"]["counts"]):
            problems.append("call or work counts differ between traced runs")
        coverage = sum(t["self_s"].values()) / r.report["wall_s"]
        if coverage < TRACE_COVERAGE:
            problems.append(f"spans cover {coverage:.4f} of the traced wall time, "
                            f"below {TRACE_COVERAGE}")
    counts = traced[0].report["trace"]["counts"]
    for name, want in (("channel.received_power.measurements", workload.measurements),
                       ("beamforming.sequential_csm.measurements", workload.csm_measurements)):
        if counts.get(name, 0) != want:
            problems.append(f"{name} is {counts.get(name, 0)}, workload config gives {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/blindbeam/cli.py").is_file():
        print("run from the root of a blindbeam checkout: src/blindbeam is missing",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir="."))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result["info"], sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
