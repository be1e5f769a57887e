"""One blindbeam CLI invocation, timed from inside its own process.

    python3 perfbench/child.py RESULT_JSON MODE [--meta] -- CLI_ARGS...

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy.  MODE is one of

    setup   stop as soon as the runner is entered (set-up time only)
    run     run the command untraced
    trace   run the command with every layer function wrapped in a span

RESULT_JSON receives the exit code, the monotonic time at which the runner
was entered (comparable with the parent's launch time, both CLOCK_MONOTONIC),
the seconds spent in ``cli.main``, the peak resident set size and, in trace
mode, per-function self seconds, call counts and work counts.  ``--meta``
adds Python, numpy and BLAS details to the result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict

# (module, function, work count name, work count from the return value).
# Each function is wrapped at every blindbeam module attribute that refers to
# it, because the modules import names directly: the caller's lookup is what
# has to hit the wrapper.
LAYER_FUNCTIONS = (
    ("scenario", "build_link_graph", None, None),
    ("channel", "expand_links_to_tensor", "entries", lambda r: r.entries.size),
    ("channel", "stage_coefficients", None, None),
    ("channel", "effective_channel", None, None),
    ("channel", "effective_batch", "assignments", len),
    # Scalar calls are noiseless diagnostics of a fixed assignment; only
    # probe batches (arrays) are blind power measurements.
    ("channel", "received_power", "measurements",
     lambda r: r.size if getattr(r, "ndim", 0) else 0),
    ("conditions", "check_c_conditions", None, None),
    ("conditions", "check_cprime", None, None),
    ("conditions", "check_d_conditions", None, None),
    ("conditions", "check_rank_one", None, None),
    ("conditions", "recover_full_path_factors", None, None),
    ("conditions", "leakage_abs_sum", None, None),
    ("fixtures", "make_d_instance", None, None),
    ("fixtures", "max_leakage_scale", None, None),
    ("beamforming", "generate_samples", None, None),
    ("beamforming", "csm_decide", None, None),
    ("beamforming", "sequential_csm", "measurements", lambda r: r.evaluations),
    ("beamforming", "sequential_cpp_oracle", None, None),
    ("beamforming", "random_beamforming", None, None),
    ("beamforming", "virtual_single_irs", None, None),
    ("experiments", "realize_scenario", None, None),
    ("experiments", "write_csv", None, None),
)


class Tracer:
    """Per-function self time, calls and work counts, aggregated in memory.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it.  The benchmark runs single-threaded, so one span
    stack suffices.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._children = []

    def wrap(self, name, fn, count_name=None, count=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self.self_s[name] += span - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += span
            if count is not None:
                self.counts[f"{name}.{count_name}"] += count(result)
            return result

        return traced

    def install(self, runners, command):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "blindbeam" or name.startswith("blindbeam."))]
        for module_name, fn_name, count_name, count in LAYER_FUNCTIONS:
            home = sys.modules[f"blindbeam.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, count_name, count)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
        runners[command] = self.wrap("experiments.runner", runners[command])

    def to_json(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


class _SetupDone(Exception):
    """Raised on entry to the runner in setup mode."""


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _metadata(blindbeam_path) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blindbeam": blindbeam_path,
    }


def main(argv) -> int:
    result_path, mode, *rest = argv
    meta = "--meta" in rest[: rest.index("--")]
    cli_args = rest[rest.index("--") + 1:]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import blindbeam.cli as cli

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != src:
        raise SystemExit(f"blindbeam was imported from {package_dir}, not from {src}")

    report = {"mode": mode}
    command = cli_args[0]
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(cli.RUNNERS, command)
    runner = cli.RUNNERS[command]

    def entered(config):
        report["runner_start"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return runner(config)

    cli.RUNNERS[command] = entered
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    report["wall_s"] = time.perf_counter() - start
    report["code"] = code
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.to_json()
    if meta:
        report["meta"] = _metadata(package_dir)
    with open(result_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
