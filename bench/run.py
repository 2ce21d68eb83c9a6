"""kgorbit benchmark: four CLI workloads, timed end to end, gated on outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

Run from anywhere; the package is imported from ``src/`` next to this
directory, and scratch files go to ``.bench_out/`` there.  Each sample
is a fresh process (``child.py``).  A run first takes ``SETUP_PROCESSES``
set-up-only samples, then starts CLI samples while they should end
within ``--seconds`` (at least one).  Every CLI sample's outputs pass
through the gate of ``workloads.py``.

``--trace 0`` reports the end-to-end metrics as medians over samples:
``run_cpu_s`` (CPU seconds of the ``kgorbit.cli.main`` call, after
imports), ``setup_s`` (CPU seconds of ``parse_config`` plus the first
``build_spectrum`` of a process) and ``peak_rss_mb``.  The wall time of
the call, ``run_s``, is printed beside them but not bounded: on a shared
host it carries the other tenants' load.

``--trace 1`` runs one untraced sample for ``cli.cpu_util`` and
``trace.overhead``, then traced samples, and reports the layer metrics
of ``layers.py`` and ``cli.import_s`` (CPU seconds of a fresh process up
to its imports of kgorbit, numpy and scipy) as medians over the traced
samples.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance, each metric with its unit, and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")

# One BLAS thread: with two, torus3d_simulate ran 3.1-3.7 s and spread
# 20% on a 2-core machine, against 6.13-6.24 s with one.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PROCESSES = 4
DEADLINE_S = 175.0          # a run must end within 180 s


class HarnessError(Exception):
    """A sample could not be measured (as opposed to a wrong CLI output)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KGORBIT_WORKERS"}
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_child(mode: str, cfg_path: str, out_dir: str, deadline: float) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    result_path = out_dir + ".result.json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--config", cfg_path, "--output", out_dir, "--result", result_path,
           "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} sample exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{mode} sample exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def provenance(child: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    env_names = sorted(set(THREAD_ENV) | {"KGORBIT_WORKERS"})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": child.get("numpy"), "scipy": child.get("scipy"),
            "blas": child.get("blas"),
            "thread_env": {k: _child_env().get(k) for k in env_names},
            "commit": commit}


def metric_units() -> dict:
    """Name -> unit of every metric, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the full record."""
    workload = wl.WORKLOADS[name]
    reference = wl.load_reference()
    work = os.path.join(WORK, name)
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config(seed))

    started = time.monotonic()
    deadline, hard_deadline = started + seconds, started + DEADLINE_S
    setups = [run_child("setup", cfg_path, os.path.join(work, f"setup{i}"), hard_deadline)
              for i in range(SETUP_PROCESSES)]
    samples, traced = [], []
    attempted = failed = 0
    problems: list[str] = []

    def sample(mode: str) -> dict:
        nonlocal attempted, failed
        out_dir = os.path.join(work, f"{mode}{len(samples) + len(traced)}")
        res = run_child(mode, cfg_path, out_dir, hard_deadline)
        n, bad, why = wl.gate(workload, seed, out_dir, res["exit_code"], reference)
        attempted, failed = attempted + n, failed + bad
        if "error" in res:
            problems.append(f"cli.main raised {res['error']}")
        problems.extend(why)
        return res

    def timed(mode: str) -> tuple[dict, float]:
        t0 = time.monotonic()
        res = sample(mode)
        return res, time.monotonic() - t0

    res, length = timed("run")
    samples.append(res)
    mode, taken = ("trace", traced) if trace else ("run", samples)
    # Start another sample only if it should end by the deadline, judged by
    # the last one's length, so that a run lasts no more than `seconds`.
    while (trace and not traced) or time.monotonic() + length < deadline:
        res, length = timed(mode)
        taken.append(res)

    if trace:
        metrics = {k: statistics.median(t["layers"][k] for t in traced)
                   for k in traced[0]["layers"]}
        untraced = samples[0]
        metrics["cli.import_s"] = statistics.median(t["import_s"] for t in traced)
        metrics["cli.cpu_util"] = untraced["cpu_s"] / untraced["run_s"]
        metrics["trace.overhead"] = (statistics.median(t["run_s"] for t in traced)
                                     / untraced["run_s"])
    else:
        metrics = {
            "run_cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(s["setup_s"] for s in setups + samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
    units = metric_units()
    return {
        "workload": name, "seed": seed, "trace": trace,
        "provenance": provenance(setups[0]),
        "samples": len(samples) + len(traced), "setups": len(setups),
        "sample_run_s": [s["run_s"] for s in samples + traced],
        "sample_cpu_s": [s["cpu_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in setups + samples + traced],
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report_lines(record: dict) -> list[str]:
    lines = [f"{record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
             f"{record['samples']} samples"]
    for key, metric in record["metrics"].items():
        lines.append(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        wall = statistics.median(record["sample_run_s"])
        lines.append(f"  {'run_s (wall, unbounded)':40s} {wall:.6g} s")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"  {'fail_ratio':40s} {ratio:.6g} ({record['failed']}/{record['attempted']} items)")
    lines += [f"  gate: {p}" for p in record["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgorbit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kgorbit", "cli.py")):
        print(f"no kgorbit sources under {SRC}", file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            records.append(record)
            print("\n".join(report_lines(record)), flush=True)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(records[0]["provenance"]))
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = records[0]["metrics"] if len(records) == 1 else {
        f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
