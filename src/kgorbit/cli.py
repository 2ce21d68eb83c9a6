"""Command-line front door: build spectra, run simulations and experiment
sweeps from a config file, emit CSV time series and JSON summary reports.

Config grammar (UTF-8, line oriented): ``[section]`` headers, ``key = value``
pairs, ``#`` comment lines, blank lines ignored.  Numbers in decimal or
scientific notation; lists comma-separated.  Unknown sections or keys are
rejected with the offending line number.  Sections and keys:

    [model]       m, p, dim, cutoff, periods
    [stepper]     dt, scheme (split2|rk4), max_time, sample_stride
    [experiment]  kind (simulate|period-sweep|first-return|stability|
                  floquet|energy-check), eta, eta_list, amplitude, modes,
                  distribution, seed, seeds, loop_budget, loop_rate, delta,
                  lambdas, rebaseline, dist_coefficient, drift_tol
    [output]      directory, formats (csv,json)

Exit codes: 0 success, 2 when a run completes but raises ANOMALY flags
or a sweep member failed, 1 on errors (a JSON error record is printed).
Every run executes in the calling thread.  A first-return sweep steps all
its (eta, seed) members as one ensemble, stacked in config order, so the
batch layout depends on the config alone; a member that finds no return
or blows up gets an ``error`` record (type, message) in its JSON run and
NaN fields in its CSV row, the fit uses the other members, and the sweep
exits 2; each successful JSON run counts the crossings refinement turned
down, by reason (``rejected_crossings``), and so does each loop record of
a stability report.  A floquet sweep reads only
(eta, T) of each loop, T from the period quadrature, with no loop
samples, and makes one loop pass per eta for all its lambdas (see
``stationary.floquet``).  Every stochastic perturbation requires an
explicit seed; all outputs are reproducible from (config, seed).  CSV
files carry a header row, '.' decimal separator, LF line endings and 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import KgError, AssumptionViolated, OutOfRange, ParseError, ValidationError
from .experiments import (EXPONENT_PASS_RANGE, PerturbationSpec, linear_fit,
                          period_scaling_sweep, perturb_near_orbit, power_law_fit,
                          run_first_returns, run_many_loops)
from .hamiltonian import energy_breakdown
from .integrators import StepperConfig, evolve
from .spectra import ModelParams, build_spectrum, check_mass_gap
from .stationary import (Loop, check_eta, check_mode_eigenvalues, delta_band,
                         default_band, floquet, period)

SCHEMA_VERSION = 1

_KINDS = ("simulate", "period-sweep", "first-return", "stability", "floquet",
          "energy-check")
_DISTRIBUTIONS = ("equipartition", "single_mode", "random_direction")

# key -> (type tag, allowed values or None)
_SCHEMA = {
    "model": {
        "m": "float", "p": "int", "dim": "int", "cutoff": "int",
        "periods": "float_list",
    },
    "stepper": {
        "dt": "float", "scheme": ("split2", "rk4"), "max_time": "float",
        "sample_stride": "int",
    },
    "experiment": {
        "kind": _KINDS, "eta": "float", "eta_list": "float_list",
        "amplitude": "float", "modes": "int_list",
        "distribution": _DISTRIBUTIONS, "seed": "int", "seeds": "int_list",
        "loop_budget": "int", "loop_rate": "float", "delta": "float",
        "lambdas": "float_list", "rebaseline": "bool",
        "dist_coefficient": "float", "drift_tol": "float",
    },
    "output": {
        "directory": "str", "formats": "str_list",
    },
}


@dataclass
class ExperimentConfig:
    kind: str
    eta: float | None = None
    eta_list: tuple[float, ...] | None = None
    amplitude: float | None = None
    modes: tuple[int, ...] | None = None
    distribution: str = "equipartition"
    seed: int | None = None
    seeds: tuple[int, ...] | None = None
    loop_budget: int | None = None
    loop_rate: float = 1.0
    delta: float | None = None
    lambdas: tuple[float, ...] | None = None
    rebaseline: bool = True
    dist_coefficient: float | None = None
    drift_tol: float = 1e-10


@dataclass
class RunConfig:
    model: ModelParams
    stepper: StepperConfig
    experiment: ExperimentConfig
    output_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")


def _parse_scalar(raw: str, tag, line_no: int, key: str):
    if isinstance(tag, tuple):
        if raw not in tag:
            raise ParseError(line_no, key, f"expected one of {tag}, got {raw!r}")
        return raw
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            val = float(raw)
            if val != int(val):
                raise ValueError
            return int(val)
        if tag == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        if tag == "str":
            return raw
        if tag.endswith("_list"):
            inner = tag[:-5]
            items = [p.strip() for p in raw.split(",") if p.strip()]
            if not items:
                raise ValueError
            return tuple(_parse_scalar(it, inner, line_no, key) for it in items)
    except ParseError:
        raise
    except (ValueError, OverflowError):  # int(inf) overflows
        pass
    raise ParseError(line_no, key, f"cannot parse {raw!r} as {tag}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; raises ParseError (with line and
    key) on grammar problems and ValidationError on constraint violations."""
    values: dict[str, dict] = {name: {} for name in _SCHEMA}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ParseError(line_no, name, "unknown section")
            section = name
            continue
        if "=" not in line:
            raise ParseError(line_no, line, "expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if section is None:
            raise ParseError(line_no, key, "key appears before any [section]")
        if key not in _SCHEMA[section]:
            raise ParseError(line_no, key, f"unknown key in [{section}]")
        if key in values[section]:
            raise ParseError(line_no, key, "duplicate key")
        values[section][key] = _parse_scalar(raw, _SCHEMA[section][key], line_no, key)
    return _validate(values)


def _validate(values: dict) -> RunConfig:
    model = values["model"]
    for req in ("m", "p", "dim", "cutoff"):
        if req not in model:
            raise ValidationError(f"[model] is missing required key '{req}'")
    dim = model["dim"]
    periods = model.get("periods", tuple(1.0 for _ in range(max(dim, 1))))
    try:
        params = ModelParams(m=model["m"], p=model["p"], dim=dim,
                             cutoff=model["cutoff"], periods=periods)
        check_mass_gap(params)
    except AssumptionViolated as exc:
        raise ValidationError(str(exc)) from exc

    st = values["stepper"]
    try:
        stepper = StepperConfig(
            dt=st.get("dt", 1e-3), scheme=st.get("scheme", "split2"),
            max_time=st.get("max_time", 10.0),
            sample_stride=st.get("sample_stride", 10),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    ex = values["experiment"]
    if "kind" not in ex:
        raise ValidationError("[experiment] is missing required key 'kind'")
    experiment = ExperimentConfig(**ex)

    kind = experiment.kind
    if kind in ("simulate", "stability", "energy-check") and experiment.eta is None:
        raise ValidationError(f"experiment '{kind}' requires 'eta'")
    if kind in ("period-sweep", "floquet") and not experiment.eta_list:
        raise ValidationError(f"experiment '{kind}' requires 'eta_list'")
    if kind == "first-return" and not experiment.eta_list and experiment.eta is None:
        raise ValidationError("experiment 'first-return' requires 'eta' or 'eta_list'")
    if kind == "floquet":
        if not experiment.lambdas:
            raise ValidationError("experiment 'floquet' requires 'lambdas'")
        try:
            check_mode_eigenvalues(experiment.lambdas, params)
        except OutOfRange as exc:
            raise ValidationError(str(exc)) from exc
    if experiment.distribution == "random_direction" \
            and experiment.seed is None and not experiment.seeds:
        raise ValidationError(
            "random_direction perturbations require an explicit seed "
            "(reproducibility is a contract, there is no default)")
    single = tuple(v for v in (experiment.eta, experiment.delta) if v is not None)
    try:
        for e in (experiment.eta_list or ()) + single:
            check_eta(e, params)
    except OutOfRange as exc:
        raise ValidationError(str(exc)) from exc

    out = values["output"]
    return RunConfig(model=params, stepper=stepper, experiment=experiment,
                     output_dir=out.get("directory", "."),
                     formats=_check_formats(out.get("formats", ("csv", "json"))))


def _check_formats(formats) -> tuple[str, ...]:
    """The output formats as a tuple; ValidationError for any but csv and json."""
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {fmt!r}")
    return formats


def _format(value, tag) -> str:
    """Config text of one value: the inverse of ``_parse_scalar``."""
    if isinstance(tag, str) and tag.endswith("_list"):
        return ",".join(_format(v, tag[:-5]) for v in value)
    if tag == "bool":
        return "true" if value else "false"
    return repr(value) if tag == "float" else str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Normalized config text, every set key in ``_SCHEMA`` order;
    parse(serialize(parse(text))) is idempotent."""
    sources = {"model": cfg.model, "stepper": cfg.stepper,
               "experiment": cfg.experiment, "output": cfg}
    blocks = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, tag in keys.items():
            value = getattr(sources[section], "output_dir" if key == "directory" else key)
            if value is not None and value != ():
                lines.append(f"{key} = {_format(value, tag)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write a header and numeric rows (tuples, one value per column), each
    value as a float with 17 significant digits, by one template per row."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % row)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **_jsonable(payload)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _band(cfg: RunConfig):
    if cfg.experiment.delta is not None:
        return delta_band(cfg.experiment.delta, cfg.model)
    return default_band(cfg.model)


def _perturbation(cfg: RunConfig, table, eta: float, seed=None) -> PerturbationSpec:
    ex = cfg.experiment
    amplitude = ex.amplitude if ex.amplitude is not None else eta ** 3
    modes = ex.modes if ex.modes else tuple(range(1, min(9, table.mode_count)))
    return PerturbationSpec(
        amplitude=amplitude, mode_set=modes, distribution=ex.distribution,
        seed=seed if seed is not None else ex.seed)


def _initial_state(cfg: RunConfig, table, eta: float, seed=None,
                   default_planar: bool = False):
    ex = cfg.experiment
    if default_planar and ex.amplitude is None and ex.modes is None:
        spec = PerturbationSpec(amplitude=0.0, mode_set=())
    else:
        spec = _perturbation(cfg, table, eta, seed)
    return perturb_near_orbit(eta, spec, table)


def _run_simulate(cfg: RunConfig, table, out: dict):
    eta = cfg.experiment.eta
    s0 = _initial_state(cfg, table, eta, default_planar=True)
    traj = evolve(s0, cfg.stepper, table)
    h = traj.energy.H
    drift = linear_fit(traj.times, h - h[0])["slope"] if len(h) > 1 else 0.0
    out["csv"] = (["t", "a0", "b0", "H", "J", "I", "r"],
                  list(zip(traj.times, traj.a[:, 0], traj.b[:, 0],
                           h, traj.energy.J, traj.energy.I, traj.energy.r)))
    out["json"] = {
        "experiment": "simulate", "eta": eta, "H_drift": drift,
        "max_J": float(traj.energy.J.max()), "final_time": float(traj.times[-1]),
        "anomaly": False,
    }
    return 0


def _run_period_sweep(cfg: RunConfig, table, out: dict):
    sweep = period_scaling_sweep(cfg.experiment.eta_list, cfg.model)
    out["csv"] = (["eta", "period"], list(zip(sweep["etas"], sweep["periods"])))
    out["json"] = {"experiment": "period-sweep", **sweep, "anomaly": False}
    return 0


def _run_first_return(cfg: RunConfig, table, out: dict):
    ex = cfg.experiment
    etas = list(ex.eta_list) if ex.eta_list else [ex.eta]
    seeds = list(ex.seeds) if ex.seeds else [ex.seed]
    band = _band(cfg)
    combos = [(eta, seed) for eta in etas for seed in seeds]
    starts = [_initial_state(cfg, table, eta, seed) for eta, seed in combos]
    results = run_first_returns(starts, [eta for eta, _ in combos], band,
                                cfg.stepper, table)
    runs = []
    for (eta, seed), s0, res in zip(combos, starts, results):
        j0 = energy_breakdown(s0, table).J
        if isinstance(res, KgError):
            runs.append({"eta": eta, "seed": seed, "J0": j0, "error":
                         {"type": type(res).__name__, "message": str(res)}})
            continue
        ratio = res.J_at_return / j0 if j0 > 0 else None
        runs.append({"eta": eta, "seed": seed, "return_time": res.return_time,
                     "distance": res.distance, "J0": j0,
                     "J_at_return": res.J_at_return, "growth": ratio,
                     "rejected_crossings": dict(res.trajectory.rejected)})
    done = [r for r in runs if "error" not in r]
    failed = len(runs) - len(done)

    anomaly = False
    fit = None
    default_amplitude = ex.amplitude is None
    if default_amplitude and len({r["eta"] for r in done}) >= 3 \
            and all(r["distance"] > 0 for r in done):
        fit = power_law_fit([r["eta"] for r in done], [r["distance"] for r in done])
        lo, hi = EXPONENT_PASS_RANGE
        fit["verdict"] = "PASS" if lo <= fit["exponent"] <= hi else "ANOMALY"
        anomaly = fit["verdict"] == "ANOMALY"
    growth_vals = [r["growth"] for r in done if r["growth"] is not None]
    nan = float("nan")
    out["csv"] = (["eta", "seed", "return_time", "distance", "J0", "J_at_return"],
                  [(r["eta"], r["seed"] if r["seed"] is not None else -1,
                    r.get("return_time", nan), r.get("distance", nan), r["J0"],
                    r.get("J_at_return", nan))
                   for r in runs])
    out["json"] = {
        "experiment": "first-return", "runs": runs,
        "distance_exponent_fit": fit,
        "empirical_growth_bound": max(growth_vals) if growth_vals else None,
        "failed_runs": failed,
        "anomaly": anomaly or failed > 0,
    }
    return 2 if anomaly or failed else 0


def _run_stability(cfg: RunConfig, table, out: dict):
    ex = cfg.experiment
    eta = ex.eta
    budget = ex.loop_budget if ex.loop_budget is not None else \
        max(1, math.ceil(ex.loop_rate * math.log(1.0 / eta)))
    s0 = _initial_state(cfg, table, eta)
    report = run_many_loops(s0, eta, _band(cfg), budget, cfg.stepper, table,
                            rebaseline=ex.rebaseline,
                            dist_coefficient=ex.dist_coefficient)
    anomaly = (not report.j_within_regime) or report.dist_within_bound is False \
        or report.completed_loops < report.requested_loops
    times, j_vals = report.J_series
    out["csv"] = (["t", "J"], list(zip(times, j_vals)))
    out["json"] = {
        "experiment": "stability", "eta": eta,
        "loop_records": [asdict(r) for r in report.loop_records],
        "H0": report.H0, "per_loop_growth": report.per_loop_growth,
        "fits": report.fits, "j_within_regime": report.j_within_regime,
        "regime_exited_at": report.regime_exited_at,
        "max_dist_to_orbit": report.max_dist_to_orbit,
        "dist_coefficient": report.dist_coefficient,
        "dist_within_bound": report.dist_within_bound,
        "equivalence_bound": report.equivalence_bound,
        "completed_loops": report.completed_loops,
        "requested_loops": report.requested_loops,
        "anomaly": anomaly,
    }
    return 2 if anomaly else 0


def _run_floquet(cfg: RunConfig, table, out: dict):
    ex = cfg.experiment
    records = []
    for eta in ex.eta_list:
        loop = Loop(eta, period(eta, cfg.model))
        for mono in floquet(loop, ex.lambdas, cfg.model, dt=cfg.stepper.dt):
            records.append({
                "eta": eta, "lambda": mono.mode_eigenvalue, "det": mono.determinant,
                "trace": mono.trace, "classification": mono.classification,
                "multipliers": [[m.real, m.imag] for m in mono.multipliers]})
    anomaly = any(abs(r["det"] - 1.0) > 1e-8 for r in records)
    out["csv"] = (["eta", "lambda", "det", "trace", "mult1_re", "mult1_im",
                   "mult2_re", "mult2_im"],
                  [(r["eta"], r["lambda"], r["det"], r["trace"],
                    r["multipliers"][0][0], r["multipliers"][0][1],
                    r["multipliers"][1][0], r["multipliers"][1][1])
                   for r in records])
    out["json"] = {"experiment": "floquet", "records": records, "anomaly": anomaly}
    return 2 if anomaly else 0


def _run_energy_check(cfg: RunConfig, table, out: dict):
    ex = cfg.experiment
    s0 = _initial_state(cfg, table, ex.eta, default_planar=True)
    traj = evolve(s0, cfg.stepper, table)
    dh = traj.energy.H - traj.energy.H[0]
    drift = linear_fit(traj.times, dh)["slope"]
    anomaly = abs(drift) > ex.drift_tol
    out["csv"] = (["t", "H_minus_H0"], list(zip(traj.times, dh)))
    out["json"] = {
        "experiment": "energy-check", "eta": ex.eta,
        "drift_slope": drift, "drift_tol": ex.drift_tol,
        "max_abs_deviation": float(np.abs(dh).max()), "anomaly": anomaly,
    }
    return 2 if anomaly else 0


_RUNNERS = {
    "simulate": _run_simulate,
    "period-sweep": _run_period_sweep,
    "first-return": _run_first_return,
    "stability": _run_stability,
    "floquet": _run_floquet,
    "energy-check": _run_energy_check,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment and write its outputs.

    Returns 0 on success, 2 when anomaly flags were raised or a sweep run
    failed, 1 on errors (with a JSON error record on stdout).  Everything
    runs in the calling thread.
    """
    try:
        table = build_spectrum(cfg.model)
        out: dict = {}
        code = _RUNNERS[cfg.experiment.kind](cfg, table, out)
        os.makedirs(cfg.output_dir, exist_ok=True)
        stem = os.path.join(cfg.output_dir, cfg.experiment.kind)
        if "csv" in cfg.formats and "csv" in out:
            header, rows = out["csv"]
            _write_csv(stem + ".csv", header, rows)
        if "json" in cfg.formats and "json" in out:
            _write_json(stem + ".json", out["json"])
        return code
    except KgError as exc:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kgorbit",
        description="Spectral simulator and stability laboratory for the "
                    "nonlinear Klein-Gordon equation on flat tori.")
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--output", help="output directory (overrides [output])")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--format", dest="formats",
                        help="comma-separated subset of csv,json")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if args.output:
            cfg.output_dir = args.output
        if args.seed is not None:
            if cfg.experiment.seeds:
                raise ValidationError(
                    "--seed cannot override a config that sets 'seeds'; "
                    "remove one of the two")
            cfg.experiment.seed = args.seed
        if args.formats:
            cfg.formats = _check_formats(f.strip() for f in args.formats.split(","))
    except OSError as exc:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "error": {"type": "IOError", "message": str(exc)}}))
        return 1
    except KgError as exc:
        record = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            record["line"] = exc.line
            record["key"] = exc.key
        print(json.dumps({"schema_version": SCHEMA_VERSION, "error": record}))
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
