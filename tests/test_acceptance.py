"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities (circle, m = 0.5, p = 1).

Criteria 6/7/8 share one first-return sweep (module-scoped fixture):
eta in {0.1, 0.05, 0.02, 0.01}, amplitude eta^3 in modes 1..8, seeds
{1, 2, 3}, rk4 at dt = 1e-3 so one-loop integration error stays far
below the measured distances.
"""

import math

import numpy as np
import pytest

from kgorbit import (ModelParams, PerturbationSpec, SectionSpec, State,
                     StepperConfig, build_spectrum, default_band, dist_x,
                     evolve, floquet, homoclinic, period,
                     perturb_near_orbit, run_first_returns, run_many_loops,
                     sample_orbit, turning_point)
from kgorbit.experiments import linear_fit, power_law_fit
from kgorbit.hamiltonian import energy_breakdown, rhs

M, P = 0.5, 1
ETAS_SWEEP = (0.1, 0.05, 0.02, 0.01)
SEEDS = (1, 2, 3)


def report(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def params_k1():
    return ModelParams(m=M, p=P, dim=1, cutoff=1)


@pytest.fixture(scope="module")
def table_k1(params_k1):
    return build_spectrum(params_k1)


@pytest.fixture(scope="module")
def params_k8():
    return ModelParams(m=M, p=P, dim=1, cutoff=8)


@pytest.fixture(scope="module")
def table_k8(params_k8):
    return build_spectrum(params_k8)


def planar_state(table, a0, b0=0.0, t=0.0):
    a = np.zeros(table.mode_count)
    b = np.zeros(table.mode_count)
    a[0], b[0] = a0, b0
    return State(a, b, t)


@pytest.fixture(scope="module")
def return_sweep(table_k8, params_k8):
    """First-return runs for criteria 6/7/8: per (eta, seed) the perturbed
    start's energy, the return time/distance and the J growth."""
    band = default_band(params_k8)
    cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=100.0, sample_stride=50)
    rows = []
    for eta in ETAS_SWEEP:
        for seed in SEEDS:
            spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                    distribution="random_direction", seed=seed)
            s0 = perturb_near_orbit(eta, spec, table_k8)
            j0 = energy_breakdown(s0, table_k8).J
            h0 = energy_breakdown(s0, table_k8).H
            res = run_first_returns([s0], [eta], band, cfg, table_k8)[0]
            rows.append({"eta": eta, "seed": seed, "T": res.return_time,
                         "distance": res.distance, "J0": j0,
                         "J_ret": res.J_at_return, "H0": h0})
    return rows


def test_criterion_01_homoclinic_oracle(table_k1, params_k1):
    # rk4 at dt = 1e-4 from (h(-5), h'(-5)) tracks the closed form with
    # sup-error <= 1e-6 on t in [-5, 5]
    start = homoclinic(-5.0, params_k1)
    cfg = StepperConfig(dt=1e-4, scheme="rk4", max_time=10.0, sample_stride=100)
    traj = evolve(planar_state(table_k1, start.a0, start.b0, t=-5.0), cfg,
                  table_k1)
    sup = 0.0
    for t, a, b in zip(traj.times, traj.a, traj.b):
        ref = homoclinic(t, params_k1)
        sup = max(sup, abs(a[0] - ref.a0), abs(b[0] - ref.b0))
    report(1, sup <= 1e-6, f"sup-error vs closed form = {sup:.3e} (tol 1e-6)")


def test_criterion_02_turning_point_closed_form(params_k1):
    worst = max(abs(turning_point(eta, params_k1) - math.sqrt(2 * M ** 2 - eta ** 2))
                for eta in (0.1, 0.01))
    report(2, worst <= 1e-12, f"max |eta' - sqrt(2m^2 - eta^2)| = {worst:.3e} (tol 1e-12)")


def test_criterion_03_period_equivalence(table_k1, params_k1):
    worst = 0.0
    details = []
    for eta in (1e-1, 1e-2, 1e-3):
        T_quad = period(eta, params_k1)
        sec = SectionSpec(kind="b0_equals", level=0.0,
                          sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=10 * T_quad,
                            sample_stride=10 ** 6, section=sec)
        traj = evolve(planar_state(table_k1, eta), cfg, table_k1,
                      max_events=1)
        rel = abs(traj.events[0][0] - T_quad) / T_quad
        worst = max(worst, rel)
        details.append(f"eta={eta:g}: rel={rel:.2e}")
    report(3, worst <= 1e-4, "; ".join(details) + " (tol 1e-4 rel)")


def test_criterion_04_logarithmic_period_law(params_k1):
    etas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    periods = [period(e, params_k1) for e in etas]
    fit = linear_fit(np.log(1.0 / etas), periods)
    a_val, r_sq = fit["slope"], fit["r_squared"]
    rel_to_rate = abs(a_val - 2.0 / M) / (2.0 / M)
    ok = r_sq >= 0.999 and a_val > 0
    report(4, ok, f"A = {a_val:.4f} (saddle rate 2/m = {2 / M:.1f}, off by "
                  f"{rel_to_rate:.2%}), B = {fit['intercept']:.4f}, R^2 = {r_sq:.6f}")


def test_criterion_05_energy_conservation(table_k8):
    # split2 at dt = 1e-3 over T = 1000 on a perturbed state: least-squares
    # drift slope of H(t) - H(0) at most 1e-10 per unit time
    eta = 0.1
    spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                            distribution="random_direction", seed=1)
    s0 = perturb_near_orbit(eta, spec, table_k8)
    cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=1000.0,
                        sample_stride=1000)
    traj = evolve(s0, cfg, table_k8)
    h = energy_breakdown(State(traj.a, traj.b), table_k8).H
    slope = linear_fit(traj.times, h - h[0])["slope"]
    amp = float(np.abs(h - h[0]).max())
    report(5, abs(slope) <= 1e-10,
           f"drift slope = {slope:.3e} per unit time (tol 1e-10), "
           f"oscillation amplitude = {amp:.3e}")


def test_criterion_06_first_return_exponent(return_sweep):
    fit = power_law_fit([r["eta"] for r in return_sweep],
                        [r["distance"] for r in return_sweep])
    growth = max(r["J_ret"] / r["J0"] for r in return_sweep)
    exponent = fit["exponent"]
    in_window = 1.8 <= exponent <= 2.6
    growth_ok = growth <= 50.0
    report(6, in_window and growth_ok,
           f"fitted distance exponent = {exponent:.3f} (window [1.8, 2.6], "
           f"R^2 = {fit['r_squared']:.4f}); empirical J-growth bound 2K = "
           f"{growth:.5f} (uniformly bounded: {growth_ok})")


def test_criterion_07_many_loop_confinement(return_sweep, table_k8, params_k8):
    eta = 0.05
    budget = math.ceil(math.log(1.0 / eta))  # = 3
    c6 = max(r["distance"] / r["eta"] ** 2 for r in return_sweep)
    band = default_band(params_k8)
    cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=100.0, sample_stride=50)
    per_seed_c = []
    j_ok_all = True
    dist_ok_all = True
    for seed in SEEDS:
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=seed)
        s0 = perturb_near_orbit(eta, spec, table_k8)
        rep = run_many_loops(s0, eta, band, budget, cfg, table_k8,
                             dist_coefficient=c6)
        j_ok_all &= rep.j_within_regime and rep.completed_loops == budget
        dist_ok_all &= bool(rep.dist_within_bound)
        per_seed_c.append(rep.max_dist_to_orbit / eta ** 2)
    spread = max(per_seed_c) / min(per_seed_c)
    ok = j_ok_all and dist_ok_all and spread <= 2.0
    report(7, ok,
           f"{budget} loops x {len(SEEDS)} seeds: J <= eta^5 = {eta ** 5:.4g} "
           f"throughout: {j_ok_all}; max dist within C6*eta^2 = {c6 * eta ** 2:.3e}: "
           f"{dist_ok_all}; per-seed C spread = {spread:.2f} (<= 2)")


def test_criterion_08_energy_at_perturbed_start(return_sweep):
    # |H(perturbed) + m^2 eta^2 / 2| decays with fitted exponent >= 3
    gaps = [abs(r["H0"] + 0.5 * M ** 2 * r["eta"] ** 2) for r in return_sweep]
    fit = power_law_fit([r["eta"] for r in return_sweep], gaps)
    report(8, fit["exponent"] >= 3.0,
           f"fitted energy-gap exponent = {fit['exponent']:.3f} (needs >= 3)")


def test_criterion_09_floquet_structure(params_k1):
    worst_det = 0.0
    worst_change = 0.0
    classes = []
    for eta in (0.1, 0.01):
        orbit = sample_orbit(eta, 64, params_k1)
        for lam in (2 * math.pi, 4 * math.pi):
            mono = floquet(orbit, lam, params_k1, dt=1e-3)
            mono_half = floquet(orbit, lam, params_k1, dt=5e-4)
            worst_det = max(worst_det, abs(mono.determinant - 1.0),
                            abs(mono_half.determinant - 1.0))
            worst_change = max(worst_change,
                               max(abs(a - b) for a, b in
                                   zip(mono.multipliers, mono_half.multipliers)))
            m1, m2 = mono.multipliers
            unit_pair = abs(abs(m1) - 1) < 1e-8 and abs(abs(m2) - 1) < 1e-8
            real_recip = (abs(m1.imag) < 1e-9 and abs(m2.imag) < 1e-9
                          and abs(m1 * m2 - 1.0) < 1e-8)
            classes.append((unit_pair or real_recip, mono.classification))
    ok = worst_det <= 1e-8 and worst_change <= 1e-6 and all(c[0] for c in classes)
    report(9, ok, f"max |det - 1| = {worst_det:.2e} (tol 1e-8); multiplier "
                  f"classes {[c[1] for c in classes]}; max change under dt "
                  f"halving = {worst_change:.2e} (tol 1e-6)")


def test_criterion_10_gradient_check(table_k1):
    rng = np.random.default_rng(2026)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        s = State(rng.standard_normal(table_k1.mode_count),
                  rng.standard_normal(table_k1.mode_count))
        deriv = rhs(s, table_k1)
        assert np.all(deriv.a == s.b)  # dH/db_n = b_n trivially
        for n in range(table_k1.mode_count):
            sp, sm = s.copy(), s.copy()
            sp.a[n] += h
            sm.a[n] -= h
            fd = -(energy_breakdown(sp, table_k1).H
                   - energy_breakdown(sm, table_k1).H) / (2 * h)
            denom = max(abs(fd), 1e-3)
            worst = max(worst, abs(deriv.b[n] - fd) / denom)
    report(10, worst <= 1e-6,
           f"max relative gap rhs vs central differences = {worst:.3e} (tol 1e-6)")


def test_criterion_11_invariant_plane(table_k8):
    # planar start: the nonconstant modes stay exactly zero for 1e6 steps
    cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=1000.0,
                        sample_stride=1000)
    traj = evolve(planar_state(table_k8, 0.1), cfg, table_k8)
    n_steps = int(round(cfg.max_time / cfg.dt))
    worst = max(float(np.sum(a[1:] ** 2 + b[1:] ** 2)) for a, b in zip(traj.a, traj.b))
    report(11, worst == 0.0 and n_steps == 10 ** 6,
           f"max high-mode energy over {n_steps} steps = {worst!r} (must be exactly 0.0)")
