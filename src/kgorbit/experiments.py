"""Stability experiments around the planar loop family.

The protocol: start within a prescribed energy-space distance of a loop
(default amplitude eta^3), integrate until the first admissible return to
a constant-mode section, and measure the return time, the return
distance and the growth of the high-mode energy J.  Chaining returns,
with the reference loop re-baselined to the one through each return
point, probes confinement over many loops; the standing regime
hypothesis J <= eta^5 is monitored throughout and every report states
whether it held.

All constants here (return-distance prefactors, per-loop J growth, the
J <= I <= K0 J equivalence) are empirical: they are fitted and reported,
never asserted a priori.  Exponent fits are flagged PASS inside
[1.8, 2.6] and ANOMALY outside, with the data retained either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (EmptyModeSet, DimensionMismatch, InsufficientSamples, NonFiniteState,
                     NoReturn, ValidationError)
from .hamiltonian import (State, _phi, dist_x, energy_breakdown, i_j_equivalence_bound,
                          potential_f)
from .integrators import SectionSpec, StepperConfig, Trajectory, evolve_ensemble
from .spectra import ModelParams, SpectrumTable
from .stationary import DeltaBand, dist_to_orbit, invert_potential, period

__all__ = [
    "PerturbationSpec", "FirstReturnResult", "LoopRecord", "StabilityReport",
    "IBoundCheck", "perturb_near_orbit", "run_first_return", "run_first_returns",
    "run_many_loops",
    "period_scaling_sweep", "bound_check_I", "phi_envelope_fit",
    "linear_fit", "power_law_fit", "EXPONENT_PASS_RANGE",
]

# Two-sided acceptance window for fitted distance exponents.
EXPONENT_PASS_RANGE = (1.8, 2.6)

# bound_check_I flags sample times whose ratio exceeds this.
_RATIO_CAP = 1e6


@dataclass(frozen=True)
class PerturbationSpec:
    """How to displace a state off the loop.

    amplitude is the exact target energy-space distance; mode_set lists
    the mode indices receiving the displacement (index 0 means the
    constant-mode pair itself).  'equipartition' gives every listed mode
    an equal share in both position and velocity parts, 'single_mode'
    puts everything in the position part of the first listed mode,
    'random_direction' draws a Gaussian direction (seed mandatory).
    """

    amplitude: float
    mode_set: tuple[int, ...] = tuple(range(1, 9))
    distribution: str = "equipartition"
    seed: int | None = None

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValidationError("perturbation amplitude must be >= 0")
        if self.distribution not in ("equipartition", "single_mode", "random_direction"):
            raise ValidationError(f"unknown distribution {self.distribution!r}")
        object.__setattr__(self, "mode_set", tuple(int(k) for k in self.mode_set))


@dataclass
class FirstReturnResult:
    return_time: float
    state: State
    distance: float
    J_at_return: float
    section: SectionSpec
    trajectory: Trajectory


@dataclass(frozen=True)
class LoopRecord:
    index: int
    eta_used: float
    return_time: float
    return_distance: float
    J_at_return: float
    dist_to_orbit: float
    max_J: float


@dataclass
class StabilityReport:
    """Outcome of a chained many-loop run.

    verdicts: j_within_regime states whether J <= eta^5 held at every
    sample; dist_within_bound compares max dist_to_orbit against
    dist_coefficient * eta^2 when a coefficient was supplied (None
    otherwise).  per_loop_growth holds the J(T_k)/J(T_{k-1}) ratios
    (empty for planar runs where J is identically zero).
    """

    eta: float
    loop_records: list[LoopRecord]
    J_series: tuple[np.ndarray, np.ndarray]
    H0: float
    per_loop_growth: list[float]
    fits: dict
    j_within_regime: bool
    regime_exited_at: int | None
    max_dist_to_orbit: float
    dist_coefficient: float | None
    dist_within_bound: bool | None
    equivalence_bound: float
    completed_loops: int
    requested_loops: int


@dataclass
class IBoundCheck:
    """Empirical constant for |dI/dt| <= C (a0^(2p-1) |da0/dt| I + I^(3/2))."""

    c_max: float | None
    n_points: int
    vacuous: bool
    flagged_times: list[float]


def linear_fit(x, y) -> dict:
    """Least-squares line with R^2 and residuals."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": r_sq, "residuals": (y - pred).tolist()}


def power_law_fit(x, y) -> dict:
    """Fit y = C x^e by least squares in log-log coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    fit = linear_fit(np.log(x), np.log(y))
    return {"exponent": fit["slope"], "prefactor": math.exp(fit["intercept"]),
            "r_squared": fit["r_squared"]}


def perturb_near_orbit(eta: float, spec: PerturbationSpec, table: SpectrumTable,
                       params: ModelParams) -> State:
    """Displace the loop's turning point (eta, 0) by exactly
    spec.amplitude in the energy norm.

    The direction is drawn per spec.distribution and rescaled, so the
    achieved distance equals the amplitude to rounding.  Deterministic in
    spec.seed.
    """
    n = table.mode_count
    a = np.zeros(n)
    b = np.zeros(n)
    a[0] = eta
    if spec.amplitude == 0.0:
        return State(a, b, 0.0)
    if not spec.mode_set:
        raise EmptyModeSet("nonzero amplitude requires at least one target mode")
    modes = np.array(spec.mode_set, dtype=int)
    if modes.min() < 0 or modes.max() >= n:
        raise DimensionMismatch(
            f"mode indices must lie in [0, {n - 1}], got {spec.mode_set}")

    da = np.zeros(n)
    db = np.zeros(n)
    weights = np.sqrt(1.0 + table.lam_sq)
    if spec.distribution == "single_mode":
        k = int(modes[0])
        da[k] = 1.0 / weights[k]
    elif spec.distribution == "equipartition":
        da[modes] = 1.0 / weights[modes]
        db[modes] = 1.0
    else:
        if spec.seed is None:
            raise ValidationError("random_direction requires a seed")
        rng = np.random.default_rng(spec.seed)
        da[modes] = rng.standard_normal(modes.size)
        db[modes] = rng.standard_normal(modes.size)

    size = float(np.sqrt(np.sum((weights * da) ** 2)) + np.sqrt(np.sum(db ** 2)))
    scale = spec.amplitude / size
    return State(a + scale * da, b + scale * db, 0.0)


def _return_section(s0: State, band: DeltaBand, params: ModelParams) -> SectionSpec:
    """Section through the start point, chosen by where it sits relative
    to the band: hold a0 inside [delta, delta'], hold b0 outside."""
    a0, b0 = float(s0.a[0]), float(s0.b[0])
    if band.delta <= a0 <= band.delta_prime:
        constraint = "b0_positive" if b0 >= 0 else "b0_negative"
        return SectionSpec(kind="a0_equals", level=a0, sign_constraint=constraint)
    constraint = "a0_left_of_center" if a0 < params.center else "a0_right_of_center"
    return SectionSpec(kind="b0_equals", level=b0, sign_constraint=constraint)


def run_first_returns(states, etas, band: DeltaBand, cfg: StepperConfig,
                      table: SpectrumTable, params: ModelParams
                      ) -> list[FirstReturnResult | NoReturn | NonFiniteState]:
    """First returns of many start states, integrated as one ensemble.

    Member k starts from ``states[k]`` near the loop of ``etas[k]`` and
    runs until its first admissible crossing of its own start section,
    within a budget of 10 of its loop periods.  A member that finds no
    return (NoReturn) or blows up (NonFiniteState) gets that error in its
    slot of the returned list; the other members go on, so one failure
    is reported rather than fatal to a sweep.
    """
    sections = [_return_section(s0, band, params) for s0 in states]
    cfgs = [replace(cfg, max_time=10.0 * period(eta, params), section=section)
            for eta, section in zip(etas, sections)]
    runs = evolve_ensemble(states, cfgs, table, params, max_events=1)
    results: list[FirstReturnResult | NoReturn | NonFiniteState] = []
    for s0, eta, section, run_cfg, traj in zip(states, etas, sections, cfgs, runs):
        if isinstance(traj, NonFiniteState):
            results.append(traj)
        elif not traj.events:
            results.append(NoReturn(
                f"no admissible crossing within {run_cfg.max_time:.3g} time units (eta = {eta})"))
        else:
            t_ev, state_ev = traj.events[0]
            results.append(FirstReturnResult(
                return_time=t_ev - s0.t,
                state=state_ev,
                distance=dist_x(state_ev, s0, table),
                J_at_return=energy_breakdown(state_ev, table, params).J,
                section=section,
                trajectory=traj,
            ))
    return results


def run_first_return(s0: State, eta: float, band: DeltaBand, cfg: StepperConfig,
                     table: SpectrumTable, params: ModelParams) -> FirstReturnResult:
    """Integrate until the first admissible crossing of the start section.

    The time budget is 10 loop periods; exceeding it raises NoReturn, and
    a blow-up raises NonFiniteState.  The one-member case of
    ``run_first_returns``.
    """
    result = run_first_returns([s0], [eta], band, cfg, table, params)[0]
    if isinstance(result, Exception):
        raise result
    return result


def _rebaseline_eta(state: State, params: ModelParams) -> float:
    """eta of the loop through the state's constant-mode pair (its level)."""
    level = float(state.b[0]) ** 2 + potential_f(float(state.a[0]), params)
    if level >= 0.0:
        raise NoReturn(f"return point left the loop region (level {level:.3e} >= 0)")
    return invert_potential(level, params, "low")


def run_many_loops(s0: State, eta: float, band: DeltaBand, loop_budget: int,
                   cfg: StepperConfig, table: SpectrumTable, params: ModelParams,
                   rebaseline: bool = True,
                   dist_coefficient: float | None = None) -> StabilityReport:
    """Chain first returns for loop_budget loops, tracking J and distances.

    After each return the reference loop is re-baselined to the one
    through the return point (set rebaseline=False to keep the original
    eta).  The run stops early, with a flag, if J exceeds eta^5 at any
    sample or a return is not found.  Distances to the original loop are
    measured at every sample time.
    """
    j_ceiling = eta ** 5
    bd0 = energy_breakdown(s0, table, params)
    current = s0
    current_eta = eta
    records: list[LoopRecord] = []
    growth: list[float] = []
    times_all: list[np.ndarray] = []
    j_all: list[np.ndarray] = []
    max_dist = 0.0
    max_abs_a0 = abs(float(s0.a[0]))
    prev_J = bd0.J
    regime_exited_at = None

    for k in range(loop_budget):
        try:
            res = run_first_return(current, current_eta, band, cfg, table, params)
        except NoReturn:
            regime_exited_at = k
            break
        traj = res.trajectory
        j_vals = traj.series("J")
        # the post-event sample of a loop sits just past the refined event
        # time where the next loop starts; keep the merged series monotone
        keep = traj.times > times_all[-1][-1] if times_all else \
            np.ones(len(traj.times), dtype=bool)
        times_all.append(traj.times[keep])
        j_all.append(j_vals[keep])
        loop_max_j = float(j_vals.max())
        max_dist = max(max_dist, float(dist_to_orbit(
            State(traj.a, traj.b), eta, band, table, params).max()))
        max_abs_a0 = max(max_abs_a0, float(np.abs(traj.a[:, 0]).max()))
        d_ret = dist_to_orbit(res.state, eta, band, table, params)
        max_dist = max(max_dist, d_ret)
        records.append(LoopRecord(
            index=k, eta_used=current_eta, return_time=res.return_time,
            return_distance=res.distance, J_at_return=res.J_at_return,
            dist_to_orbit=d_ret, max_J=loop_max_j,
        ))
        if prev_J > 0.0:
            growth.append(res.J_at_return / prev_J)
        prev_J = res.J_at_return
        if loop_max_j > j_ceiling:
            regime_exited_at = k
            break
        current = res.state
        if rebaseline:
            try:
                current_eta = _rebaseline_eta(res.state, params)
            except NoReturn:
                regime_exited_at = k
                break

    times = np.concatenate(times_all) if times_all else np.array([])
    j_series = np.concatenate(j_all) if j_all else np.array([])
    fits = {}
    if len(records) >= 2:
        cum_time = np.cumsum([r.return_time for r in records])
        fits["cumulative_time_vs_loop"] = linear_fit(
            np.arange(1, len(records) + 1), cum_time)
    j_ok = regime_exited_at is None and bool(j_series.size == 0 or j_series.max() <= j_ceiling)
    dist_ok = None
    if dist_coefficient is not None:
        dist_ok = bool(max_dist <= dist_coefficient * eta ** 2)
    return StabilityReport(
        eta=eta, loop_records=records, J_series=(times, j_series),
        H0=bd0.H, per_loop_growth=growth, fits=fits,
        j_within_regime=j_ok, regime_exited_at=regime_exited_at,
        max_dist_to_orbit=max_dist, dist_coefficient=dist_coefficient,
        dist_within_bound=dist_ok,
        equivalence_bound=i_j_equivalence_bound(max_abs_a0, table, params),
        completed_loops=len(records), requested_loops=loop_budget,
    )


def period_scaling_sweep(eta_list, params: ModelParams) -> dict:
    """Quadrature periods over a list of eta values, fitted to
    T = A ln(1/eta) + B."""
    etas = [float(e) for e in eta_list]
    periods = [period(e, params) for e in etas]
    fit = linear_fit(np.log(1.0 / np.array(etas)), periods)
    return {
        "etas": etas,
        "periods": periods,
        "A": fit["slope"],
        "B": fit["intercept"],
        "r_squared": fit["r_squared"],
    }


def bound_check_I(trajectory: Trajectory, params: ModelParams) -> IBoundCheck:
    """Empirical constant in the a priori bound on dI/dt.

    dI/dt is estimated by centered differences of the sampled I series
    and compared pointwise against a0^(2p-1) |da0/dt| I + I^(3/2); the
    reported constant is the maximal ratio.  Planar trajectories (I
    identically zero) are reported as vacuous.  Sample times where the
    ratio exceeds 1e6 are flagged.
    """
    n = len(trajectory.times)
    if n < 3:
        raise InsufficientSamples(
            f"need at least 3 samples for centered differences, got {n}")
    t = trajectory.times
    I_vals = trajectory.series("I")
    if np.all(I_vals == 0.0):
        return IBoundCheck(c_max=None, n_points=0, vacuous=True, flagged_times=[])
    p = params.p
    c_max = 0.0
    n_pts = 0
    flagged = []
    for i in range(1, n - 1):
        dI = (I_vals[i + 1] - I_vals[i - 1]) / (t[i + 1] - t[i - 1])
        a0, b0 = float(trajectory.a[i, 0]), float(trajectory.b[i, 0])
        rhs_val = abs(a0) ** (2 * p - 1) * abs(b0) * I_vals[i] + I_vals[i] ** 1.5
        if rhs_val <= 0.0:
            if abs(dI) > 0.0:
                flagged.append(float(t[i]))
            continue
        ratio = abs(dI) / rhs_val
        n_pts += 1
        if ratio > _RATIO_CAP:
            flagged.append(float(t[i]))
        c_max = max(c_max, ratio)
    return IBoundCheck(c_max=c_max if n_pts else None, n_points=n_pts,
                       vacuous=False, flagged_times=flagged)


def phi_envelope_fit(trajectory: Trajectory, eta: float) -> dict:
    """Fit the envelope |phi(t)| <= C min(1, t^2) along a run started on
    the loop at (eta, 0); returns the fitted C and the phi series."""
    if len(trajectory.times) < 2:
        raise InsufficientSamples("need at least 2 samples")
    J, r = trajectory.series("J"), trajectory.series("r")
    t0 = float(trajectory.times[0])
    phis = _phi(J, r, J[0], r[0], eta)
    rel_t = trajectory.times - t0
    env = np.minimum(1.0, rel_t ** 2)
    mask = env > 0.0
    c_fit = float(np.max(np.abs(phis[mask]) / env[mask])) if mask.any() else 0.0
    return {"C": c_fit, "times": rel_t, "phi": phis}
