"""One benchmark sample in a fresh process.

    python3 bench/child.py --src SRC --config CFG --output DIR --result JSON
                           --mode setup|run|trace

Imports kgorbit from SRC (refusing any other copy), times the imports
and the set-up (``parse_config`` plus the first ``build_spectrum`` of the
process) in CPU seconds, and, unless ``--mode setup``, calls
``kgorbit.cli.main`` on the config, timing it in wall and CPU seconds.
``--mode trace`` runs it under the tracer and adds the layer metrics and
the span list.  The measurements go to the result file as JSON; the
process exits 0 whenever they were taken, whatever the CLI returned.
An exception out of ``kgorbit.cli.main`` is recorded as exit code
``None`` with its text in ``error``, so the gate fails every item of
the sample.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _blas_version(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _output_bytes(out_dir: str) -> int:
    if not os.path.isdir(out_dir):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())


def _cpu_s() -> float:
    """CPU seconds of this process, all its threads, and its ended children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _call_cli(cli, argv: list[str], result: dict):
    """Run the CLI; return its exit code, or None if it raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - every failure is a failed sample
        result["error"] = f"{type(exc).__name__}: {exc}"
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy
    import scipy
    import kgorbit
    from kgorbit import cli
    if not os.path.abspath(kgorbit.__file__).startswith(src + os.sep):
        print(f"kgorbit imported from {kgorbit.__file__}, not from {src}", file=sys.stderr)
        return 3

    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    # CPU seconds, which leave out the time a shared host gives to other
    # tenants; wall time on such a host does not.
    import_s = time.process_time()  # since the process started
    t0 = time.process_time()
    cfg = cli.parse_config(text)
    table = cli.build_spectrum(cfg.model)
    result = {"setup_s": time.process_time() - t0, "import_s": import_s,
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "blas": _blas_version(numpy)}
    del cfg, table

    if args.mode != "setup":
        argv_cli = ["--config", args.config, "--output", args.output]
        if args.mode == "run":
            c0, t0 = _cpu_s(), time.perf_counter()
            code = _call_cli(cli, argv_cli, result)
            result["run_s"] = time.perf_counter() - t0
            result["cpu_s"] = _cpu_s() - c0
        else:
            sys.path.insert(0, HERE)
            import layers
            from tracer import Tracer, to_records
            keep: dict = {}
            with Tracer(layers.make_probes(keep)) as tracer:
                t0 = time.perf_counter()
                code = _call_cli(cli, argv_cli, result)
                result["run_s"] = time.perf_counter() - t0
            table, start = keep.get("table"), keep.get("start")
            # Only runs that perturb a start state step modes through the
            # kernel; time it on that table and state.
            kernel_time = layers.kernel_us(table, start.a) if start is not None else 0.0
            result["layers"] = layers.layer_metrics(
                tracer.spans, table, kernel_time, _output_bytes(args.output))
            with open(args.result + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump(to_records(tracer.spans), fh)
        result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
