"""Per-layer metrics of one traced CLI run, computed from its spans.

The metric-to-workload map in README.md says which end-to-end metric
each of these should move and on which workload.  A metric whose layer
does no work on a workload reads 0: the kernel metrics read 0 when the
run makes no kernel calls.
"""

from __future__ import annotations

import math
import statistics
import time

from tracer import LAYERS, self_times

# Kernel calls per step of each scheme: split2 kicks twice, rk4 evaluates
# the force at four stages.
KERNEL_CALLS_PER_STEP = {"split2": 2, "rk4": 4}


def _evolve_probe(arguments, trajectory):
    cfg = arguments["cfg"]
    times = trajectory.times
    return {"scheme": cfg.scheme, "samples": len(times),
            "steps": int(round((times[-1] - times[0]) / cfg.dt))}


def _floquet_probe(arguments, monodromy):
    return {"steps": max(16, math.ceil(arguments["orbit"].period / arguments["dt"]))}


def make_probes(keep: dict) -> dict:
    """Probes for the tracer; the first spectrum table and the first
    perturbed start state are stored in ``keep`` for the kernel timing."""
    def table_probe(arguments, table):
        keep.setdefault("table", table)

    def start_probe(arguments, state):
        keep.setdefault("start", state)

    return {
        "integrators.evolve": _evolve_probe,
        "stationary.floquet": _floquet_probe,
        "spectra.build_spectrum": table_probe,
        "experiments.perturb_near_orbit": start_probe,
    }


def kernel_us(table, state_a, min_calls: int = 50, min_seconds: float = 0.3) -> float:
    """Median wall time of one public project_power call, in microseconds."""
    from kgorbit.spectra import project_power

    exponent = 2 * table.params.p + 1
    times = []
    t_stop = time.perf_counter() + min_seconds
    while len(times) < min_calls or time.perf_counter() < t_stop:
        t0 = time.perf_counter()
        project_power(state_a, exponent, table)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def layer_metrics(spans, table, kernel_time_us: float, output_bytes: int) -> dict:
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return math.fsum(s.duration for s in named(*names))

    selfs = self_times(spans)
    evolves = named("integrators.evolve")
    steps = sum(s.data["steps"] for s in evolves)
    substeps = [s for s in named("integrators.split2_step", "integrators.rk4_step")
                if s.parent is not None and s.parent.name == "integrators.refine_crossing"]
    kernel_calls = sum(KERNEL_CALLS_PER_STEP[s.data["scheme"]] * s.data["steps"]
                       for s in evolves)
    kernel_calls += sum(KERNEL_CALLS_PER_STEP[s.name.split(".")[1].split("_")[0]]
                        for s in substeps)
    evolve_self = sum(selfs[s] for s in evolves)

    projections = named("stationary.project_to_orbit")
    fallbacks = sum(s.error == "ProjectionUndefined" for s in projections)
    floquets = named("stationary.floquet")
    floquet_steps = sum(s.data["steps"] for s in floquets)
    first_returns = [s.duration for s in named("experiments.run_first_return")]

    loop_durations = []
    for chain in named("experiments.run_many_loops"):
        loops = sorted((s for s in named("experiments.run_first_return")
                        if s.parent is chain and s.error is None),
                       key=lambda s: s.start)
        bounds = [s.start for s in loops] + [chain.end]
        loop_durations += [b - a for a, b in zip(bounds, bounds[1:])]

    mode_count, n_nodes = table.basis.shape if kernel_calls else (0, 0)
    metrics = {
        "spectra.kernel_us": kernel_time_us if kernel_calls else 0.0,
        "spectra.kernel_calls": kernel_calls,
        "spectra.kernel_flops": 4 * mode_count * n_nodes,
        "spectra.kernel_bytes": 16 * mode_count * n_nodes,
        "spectra.table_mb": (table.basis.nbytes + table.basis_t_mean.nbytes) / 2 ** 20
                            if table is not None else 0.0,
        "hamiltonian.energy_breakdown_calls": len(named("hamiltonian.energy_breakdown")),
        "hamiltonian.energy_breakdown_s": total("hamiltonian.energy_breakdown"),
        "integrators.steps": steps,
        "integrators.samples": sum(s.data["samples"] for s in evolves),
        "integrators.evolve_self_s": evolve_self,
        "integrators.step_us": evolve_self / steps * 1e6 if steps else 0.0,
        "integrators.refine_calls": len(named("integrators.refine_crossing")),
        "integrators.refine_substeps": len(substeps),
        "integrators.crossings_rejected": sum(
            s.error == "NoCrossing" for s in named("integrators.refine_crossing")),
        "stationary.dist_to_orbit_calls": len(named("stationary.dist_to_orbit")),
        "stationary.dist_to_orbit_s": total("stationary.dist_to_orbit"),
        "stationary.projection_fallback_ratio":
            fallbacks / len(projections) if projections else 0.0,
        "stationary.period_calls": len(named("stationary.period")),
        "stationary.period_s": total("stationary.period"),
        "stationary.sample_orbit_s": total("stationary.sample_orbit"),
        "stationary.floquet_calls": len(floquets),
        "stationary.floquet_s": total("stationary.floquet"),
        "stationary.floquet_us_per_step":
            total("stationary.floquet") / floquet_steps * 1e6 if floquet_steps else 0.0,
        "experiments.first_return_p50_s":
            statistics.median(first_returns) if first_returns else 0.0,
        "experiments.first_return_max_s": max(first_returns, default=0.0),
        "experiments.loops_completed": len(loop_durations),
        "experiments.loop_p50_s":
            statistics.median(loop_durations) if loop_durations else 0.0,
        "cli.parse_s": total("cli.parse_config"),
        "cli.write_s": total("cli._write_csv", "cli._write_json"),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for s, t in selfs.items() if s.name.split(".")[0] == layer)
    return metrics

