"""Capture the reference CSVs that perfbench/run.py checks every run against.

    python3 perfbench/capture_refs.py [WORKLOAD ...]

Run from the root of a clean git checkout of the commit the references should
describe.  For each workload (default: all) and each seed in REF_SEEDS it runs
the CLI once, untraced, and stores the CSV as refs/<workload>/seedNN.csv.
refs/SOURCE.json records the commit and the flags each workload ran with.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REF_DIR, REF_SEEDS, REL_TOL, WORKLOADS, Runner


def main(names) -> int:
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True, check=True).stdout
    if dirty:
        print(f"src has uncommitted changes:\n{dirty}", file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    source_path = REF_DIR / "SOURCE.json"
    source = (json.loads(source_path.read_text()) if source_path.exists()
              else {"commit": commit, "argv": {}})
    if source["commit"] != commit:
        source = {"commit": commit, "argv": {}}
    for name in names or sorted(WORKLOADS):
        out_dir = REF_DIR / name
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in REF_SEEDS:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as scratch:
                launch = Runner(name, seed, Path(scratch)).launch("run")
            if not launch.ok:
                print(f"{name} seed {seed} failed: {launch.error}", file=sys.stderr)
                return 1
            (out_dir / f"seed{seed:02d}.csv").write_text(launch.csv)
            print(f"{name} seed {seed}: {launch.report['wall_s']:.2f} s", flush=True)
        source["argv"][name] = list(WORKLOADS[name].argv)
    source["seeds"] = list(REF_SEEDS)
    source["rel_tol"] = REL_TOL
    source_path.write_text(json.dumps(source, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
