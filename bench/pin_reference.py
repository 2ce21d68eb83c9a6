"""Pin the reference outputs of every benchmark input at the current commit.

    python3 bench/pin_reference.py

Runs the CLI in this process once per pool entry of every workload (about
four minutes on a 2-core machine) and writes ``bench/reference.json``
afresh, stamped with the current commit.
Re-pin only at a commit whose outputs are known good; the gate compares
every later commit against these numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def collect(work_dir: str) -> dict:
    """Run every pool entry of every workload and observe its outputs;
    raises if a run returns an unexpected exit code."""
    from kgorbit.cli import main

    pinned: dict = {}
    for name, workload in wl.WORKLOADS.items():
        seeds = [1] if name == "floquet_scan" else range(1, wl.POOL + 1)
        pinned[name] = {}
        for seed in seeds:
            cfg_path = os.path.join(work_dir, "run.cfg")
            out_dir = os.path.join(work_dir, "out")
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(work_dir, exist_ok=True)
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(workload.config(seed))
            code = main(["--config", cfg_path, "--output", out_dir])
            if code != workload.exit_code:
                raise RuntimeError(f"{name} seed {seed}: exit code {code}")
            obs = wl.observe(workload, out_dir)
            if sorted(obs["items"]) != sorted(wl.item_keys(workload, seed)):
                raise RuntimeError(f"{name} seed {seed}: items {sorted(obs['items'])}")
            pinned[name][workload.reference_key(seed)] = obs
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    return pinned


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    reference = collect(os.path.join(ROOT, ".bench_out", "pin"))
    reference["commit"] = _commit()
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
