"""Self-tests of the benchmark harness (about 15 s on a 2-core machine).

    python3 bench/selftest.py

Kept out of the repository's pytest run on purpose: the file name does
not match ``test_*.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

from kgorbit import cli  # noqa: E402

# Small configs on the code paths of the workloads: a first-return sweep
# on pool threads with crossing refinement, and a one-loop chain.
SWEEP = """[model]
m = 0.5
p = 1
dim = 1
cutoff = 4
[stepper]
dt = 2e-3
scheme = rk4
sample_stride = 50
[experiment]
kind = first-return
eta_list = 0.1,0.05
distribution = random_direction
seeds = 1,2
"""
CHAIN = SWEEP.replace("rk4", "split2").replace("first-return", "stability").replace(
    "eta_list = 0.1,0.05", "eta = 0.1\nloop_budget = 1").replace("seeds = 1,2", "seed = 1")

COUNTS = ("integrators.steps", "integrators.samples", "spectra.kernel_calls",
          "integrators.refine_substeps", "integrators.refine_calls",
          "hamiltonian.energy_breakdown_calls", "stationary.dist_to_orbit_calls")


class Harness(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="kgbench-")

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def cli_run(self, text: str, tag: str):
        cfg = os.path.join(self.tmp, tag + ".cfg")
        out = os.path.join(self.tmp, tag)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        return cli.main(["--config", cfg, "--output", out]), out

    def traced(self, text: str, tag: str):
        keep: dict = {}
        with Tracer(layers.make_probes(keep)) as tracer:
            code, out = self.cli_run(text, tag)
        self.assertIn(code, (0, 2))
        root = [s for s in tracer.spans if s.name == "cli.main"]
        self.assertEqual(len(root), 1)
        metrics = layers.layer_metrics(tracer.spans, keep["table"], 1.0, 0)
        return tracer, root[0].duration, metrics

    def test_wrapped_names_restored(self):
        tracer = Tracer()
        before = [(m, a, f) for m, a, f in tracer.targets()]
        self.assertGreater(len(before), 20)
        with tracer:
            self.assertTrue(all(getattr(m, a) is not f for m, a, f in before))
            self.cli_run(SWEEP, "sweep")
        self.assertTrue(all(getattr(m, a) is f for m, a, f in before))
        with self.assertRaises(RuntimeError):
            with Tracer():
                raise RuntimeError
        self.assertTrue(all(getattr(m, a) is f for m, a, f in before))

    def test_self_time_per_thread_within_wall(self):
        tracer, wall, _ = self.traced(SWEEP, "sweep")
        from tracer import self_times
        per_thread: dict[int, float] = {}
        for span, t in self_times(tracer.spans).items():
            self.assertGreaterEqual(t, -1e-9)
            per_thread[span.thread] = per_thread.get(span.thread, 0.0) + t
        self.assertGreater(len(per_thread), 0)
        for total in per_thread.values():
            self.assertLessEqual(total, wall + 1e-9)

    def test_counts_repeat_exactly(self):
        for text in (SWEEP, CHAIN):
            first = self.traced(text, "a")[2]
            second = self.traced(text, "b")[2]
            for name in COUNTS:
                self.assertEqual(first[name], second[name], name)
            self.assertGreater(first["spectra.kernel_calls"], 0)
            self.assertGreater(first["integrators.refine_substeps"], 0)

    def test_gate_accepts_pinned_and_rejects_perturbed(self):
        reference = wl.load_reference()
        workload = wl.WORKLOADS["stability_chain"]
        code, out = self.cli_run(workload.config(1), "chain")
        self.assertEqual(wl.gate(workload, 1, out, code, reference), (3, 0, []))

        self.assertEqual(wl.gate(workload, 1, out, 1, reference)[:2], (3, 3))
        entry = reference["stability_chain"]["0"]
        for name, (rel, abs_tol) in wl.TOLERANCES["stability_chain"].items():
            holder = entry["sweep"] if name in entry["sweep"] else entry["items"]["loop1"]
            saved = holder[name]
            holder[name] = saved + 10 * (abs_tol + rel * abs(saved))
            attempted, failed, _ = wl.gate(workload, 1, out, code, reference)
            holder[name] = saved
            self.assertEqual(attempted, 3)
            self.assertGreaterEqual(failed, 1, name)

    def test_cli_exception_fails_every_item(self):
        class Broken:
            @staticmethod
            def main(argv):
                raise ZeroDivisionError("boom")

        result: dict = {}
        self.assertIsNone(child._call_cli(Broken, [], result))
        self.assertEqual(result["error"], "ZeroDivisionError: boom")
        workload = wl.WORKLOADS["stability_chain"]
        self.assertEqual(wl.gate(workload, 1, self.tmp, None, wl.load_reference())[:2],
                         (3, 3))

    def test_gate_rejects_wrong_step(self):
        workload = wl.WORKLOADS["stability_chain"]
        text = workload.config(1).replace("dt = 1e-3", "dt = 1.1e-3")
        code, out = self.cli_run(text, "wrong")
        attempted, failed, _ = wl.gate(workload, 1, out, code, wl.load_reference())
        self.assertEqual((attempted, failed), (3, 3))

    def test_seeds(self):
        self.assertIn("seeds = 1,2,3\n", wl.WORKLOADS["return_sweep"].config(1))
        reference = wl.load_reference()
        for workload in wl.WORKLOADS.values():
            configs = {workload.config(seed) for seed in range(1, wl.POOL + 1)}
            if workload.name == "floquet_scan":  # shuffled orders may repeat
                self.assertGreater(len(configs), 1)
            else:
                self.assertEqual(len(configs), wl.POOL, workload.name)
            self.assertEqual(workload.config(3), workload.config(3))
            self.assertNotIn("--seed", workload.config(1))
            for seed in (-7, 0, 1, 5, 10, 11, 12345):
                entry = reference[workload.name][workload.reference_key(seed)]
                self.assertEqual(sorted(entry["items"]),
                                 sorted(wl.item_keys(workload, seed)))

    def test_benchmark_json_matches_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKLOADS))
        metrics = self.traced(CHAIN, "chain")[2]
        self.assertEqual({m["name"] for m in bench["per_layer"]},
                         set(metrics) | {"cli.import_s", "cli.cpu_util", "trace.overhead"})

    def test_floquet_reads_no_kernel_work(self):
        keep: dict = {}
        text = ("[model]\nm = 0.5\np = 1\ndim = 1\ncutoff = 1\n[stepper]\ndt = 1e-3\n"
                "[experiment]\nkind = floquet\neta_list = 0.1\nlambdas = 6.283185307179586\n")
        with Tracer(layers.make_probes(keep)) as tracer:
            self.assertEqual(self.cli_run(text, "floquet")[0], 0)
        self.assertNotIn("start", keep)
        metrics = layers.layer_metrics(tracer.spans, keep["table"], 0.0, 0)
        for name in ("spectra.kernel_us", "spectra.kernel_calls",
                     "spectra.kernel_flops", "spectra.kernel_bytes"):
            self.assertEqual(metrics[name], 0, name)
        self.assertEqual(metrics["stationary.floquet_calls"], 1)


if __name__ == "__main__":
    unittest.main()
