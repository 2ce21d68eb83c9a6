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

from .errors import EmptyModeSet, DimensionMismatch, NonFiniteState, NoReturn, ValidationError
from .hamiltonian import (State, dist_x, energy_breakdown, high_mode_energy,
                          i_j_equivalence_bound, potential_f, xnorm)
from .integrators import SectionSpec, StepperConfig, Trajectory, evolve_ensemble
from .spectra import ModelParams, SpectrumTable
from .stationary import DeltaBand, dist_to_orbit, invert_potential, period

__all__ = [
    "PerturbationSpec", "FirstReturnResult", "LoopRecord", "StabilityReport",
    "perturb_near_orbit", "run_first_returns", "run_many_loops", "period_scaling_sweep",
    "linear_fit", "power_law_fit", "EXPONENT_PASS_RANGE",
]

# Two-sided acceptance window for fitted distance exponents.
EXPONENT_PASS_RANGE = (1.8, 2.6)


@dataclass(frozen=True)
class PerturbationSpec:
    """How to displace a state off the loop.

    amplitude is the exact target energy-space distance; mode_set lists
    the mode indices receiving the displacement (index 0 means the
    constant-mode pair itself).  'equipartition' gives every listed mode
    an equal share in both position and velocity parts, 'single_mode'
    puts everything in the position part of the first listed mode,
    'random_direction' draws a Gaussian direction (seed mandatory):
    the draws of numpy's ``Generator(PCG64(seed)).standard_normal``, da then
    db, reproduced by kgorbit whatever numpy is installed.  A seed is an
    integer in [0, 2**64).
    """

    amplitude: float
    mode_set: tuple[int, ...] = tuple(range(1, 9))
    distribution: str = "equipartition"
    seed: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValidationError(
                f"perturbation amplitude must be finite and >= 0, got {self.amplitude!r}")
        if self.distribution not in ("equipartition", "single_mode", "random_direction"):
            raise ValidationError(f"unknown distribution {self.distribution!r}")
        object.__setattr__(self, "mode_set", tuple(int(k) for k in self.mode_set))
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_seed(self.seed))


def _check_seed(seed) -> int:
    """The one admissibility rule for seeds: an integer in [0, 2**64),
    returned as a Python int; ValidationError otherwise."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) \
            and 0 <= seed < 1 << 64:
        return int(seed)
    raise ValidationError(f"a seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass
class FirstReturnResult:
    return_time: float
    state: State
    distance: float
    J_at_return: float
    trajectory: Trajectory


@dataclass(frozen=True)
class LoopRecord:
    """One loop of a chained run; ``rejected_crossings`` counts the
    crossings its refinement turned down, by reason."""

    index: int
    eta_used: float
    return_time: float
    return_distance: float
    J_at_return: float
    dist_to_orbit: float
    max_J: float
    rejected_crossings: dict[str, int]


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


def perturb_near_orbit(eta: float, spec: PerturbationSpec, table: SpectrumTable) -> State:
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
        # the tables cost about 1 ms to load, so only a seeded draw
        # imports them: floquet and period-sweep runs never do
        from ._pcg64 import NormalStream
        stream = NormalStream(spec.seed)
        da[modes] = stream.standard_normal(modes.size)
        db[modes] = stream.standard_normal(modes.size)

    scale = spec.amplitude / xnorm(State(da, db), table)
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
                      table: SpectrumTable, read=None
                      ) -> list[FirstReturnResult | NoReturn | NonFiniteState]:
    """First returns of many start states, integrated as one ensemble.

    Member k starts from ``states[k]`` near the loop of ``etas[k]`` and
    runs until its first admissible crossing of its own start section,
    within a budget of 10 of its loop periods.  A member that finds no
    return (NoReturn) or blows up (NonFiniteState) gets that error in its
    slot of the returned list; the other members go on, so one failure
    is reported rather than fatal to a sweep.  The one first-return
    driver: ``run_many_loops`` calls it with one member per loop.
    ``read`` is passed to ``evolve_ensemble``: each member's pages of
    samples go to its reader as they close, and a result's trajectory
    keeps them only where the reader is None.
    """
    params = table.params
    cfgs = [replace(cfg, max_time=10.0 * period(eta, params),
                    section=_return_section(s0, band, params))
            for s0, eta in zip(states, etas)]
    runs = evolve_ensemble(states, cfgs, table, max_events=1, read=read)
    results: list[FirstReturnResult | NoReturn | NonFiniteState] = []
    for s0, eta, run_cfg, traj in zip(states, etas, cfgs, runs):
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
                J_at_return=high_mode_energy(state_ev, table),
                trajectory=traj,
            ))
    return results


def _rebaseline_eta(state: State, params: ModelParams) -> float:
    """eta of the loop through the state's constant-mode pair (its level)."""
    level = float(state.b[0]) ** 2 + potential_f(float(state.a[0]), params)
    if level >= 0.0:
        raise NoReturn(f"return point left the loop region (level {level:.3e} >= 0)")
    return invert_potential(level, params, "low")


def run_many_loops(s0: State, eta: float, band: DeltaBand, loop_budget: int,
                   cfg: StepperConfig, table: SpectrumTable, rebaseline: bool = True,
                   dist_coefficient: float | None = None) -> StabilityReport:
    """Chain first returns for loop_budget loops, tracking J and distances.

    Each loop is a one-member ``run_first_returns``.  After each return
    the reference loop is re-baselined to the one through the return point
    (set rebaseline=False to keep the original eta).  The run stops early,
    with a flag, if J exceeds eta^5 at any sample or a return is not
    found; a loop that turns non-finite raises NonFiniteState.  Distances
    to the original loop are measured at every sample time.  Each loop
    reads its samples page by page as the time loop closes them: their
    times, J by ``high_mode_energy`` with no grid work, the largest
    ``dist_to_orbit`` and the largest |a0|.  The page is then dropped, so
    the run holds one page of samples at a time, and keeps only the times
    and J of every sample.
    """
    j_ceiling = eta ** 5
    current = s0
    current_eta = eta
    records: list[LoopRecord] = []
    growth: list[float] = []
    times_all: list[np.ndarray] = []
    j_all: list[np.ndarray] = []
    max_dist = 0.0
    max_abs_a0 = abs(float(s0.a[0]))
    prev_J = high_mode_energy(s0, table)
    regime_exited_at = None

    loop_pages: list[tuple[np.ndarray, np.ndarray, float, float]] = []

    def read(page: State) -> None:
        # the times, J, the largest distance and the largest |a0| of one page of a loop
        loop_pages.append((page.t, high_mode_energy(page, table),
                           float(dist_to_orbit(page, eta, band, table).max()),
                           float(np.abs(page.a[:, 0]).max())))

    for k in range(loop_budget):
        loop_pages.clear()
        res = run_first_returns([current], [current_eta], band, cfg, table, read=read)[0]
        if isinstance(res, NoReturn):
            regime_exited_at = k
            break
        if isinstance(res, NonFiniteState):
            raise res
        t_pages, j_pages, page_dists, page_a0s = zip(*loop_pages)
        t_vals, j_vals = np.concatenate(t_pages), np.concatenate(j_pages)
        max_dist = max(max_dist, *page_dists)
        max_abs_a0 = max(max_abs_a0, *page_a0s)
        # the post-event sample of a loop sits just past the refined event
        # time where the next loop starts; keep the merged series monotone
        keep = t_vals > times_all[-1][-1] if times_all else np.ones(len(t_vals), dtype=bool)
        times_all.append(t_vals[keep])
        j_all.append(j_vals[keep])
        loop_max_j = float(j_vals.max())
        d_ret = dist_to_orbit(res.state, eta, band, table)
        max_dist = max(max_dist, d_ret)
        records.append(LoopRecord(
            index=k, eta_used=current_eta, return_time=res.return_time,
            return_distance=res.distance, J_at_return=res.J_at_return,
            dist_to_orbit=d_ret, max_J=loop_max_j,
            rejected_crossings=dict(res.trajectory.rejected),
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
                current_eta = _rebaseline_eta(current, table.params)
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
    dist_ok = None
    if dist_coefficient is not None:
        dist_ok = bool(max_dist <= dist_coefficient * eta ** 2)
    return StabilityReport(
        eta=eta, loop_records=records, J_series=(times, j_series),
        H0=energy_breakdown(s0, table).H, per_loop_growth=growth, fits=fits,
        j_within_regime=regime_exited_at is None, regime_exited_at=regime_exited_at,
        max_dist_to_orbit=max_dist, dist_coefficient=dist_coefficient,
        dist_within_bound=dist_ok,
        equivalence_bound=i_j_equivalence_bound(max_abs_a0, table),
        completed_loops=len(records), requested_loops=loop_budget,
    )


def period_scaling_sweep(eta_list, params: ModelParams) -> dict:
    """Quadrature periods over a list of eta values, fitted to
    T = A ln(1/eta) + B; a line needs at least two distinct eta values,
    so fewer raise ValidationError."""
    etas = [float(e) for e in eta_list]
    if len(set(etas)) < 2:
        raise ValidationError(
            f"eta_list needs at least two distinct values to fit T = A ln(1/eta) + B, got {etas}")
    periods = [period(e, params) for e in etas]
    fit = linear_fit(np.log(1.0 / np.array(etas)), periods)
    return {
        "etas": etas,
        "periods": periods,
        "A": fit["slope"],
        "B": fit["intercept"],
        "r_squared": fit["r_squared"],
    }
