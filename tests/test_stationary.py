import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipkm1

from kgorbit import (Loop, ModelParams, Monodromy, OutOfRange, PlanarState,
                     ProjectionUndefined, State, default_band, delta_band,
                     dist_to_orbit, floquet, force, homoclinic,
                     invert_potential, period, potential_f, project_to_orbit,
                     sample_orbit, turning_point, xnorm)
from kgorbit import stationary
from kgorbit.stationary import (_GL_NODES, _GL_WEIGHTS, _RK4_BLOCK, _planar_rk4, _project,
                                _rk4_stages, _w_factor)

M = 0.5  # the mass of the params fixture


def quad_period(eta, params):
    """The period by adaptive quadrature of the same two half-integrands:
    the reference for the fixed Gauss-Legendre rule of ``period``."""
    eta_p = turning_point(eta, params)
    x_mid = params.center

    def left(sigma):
        alpha = eta * np.cosh(sigma)
        val = (eta_p ** 2 - alpha ** 2) * _w_factor(alpha, eta, eta_p, params)
        return 1.0 / np.sqrt(val)

    def right(s):
        alpha = eta_p - s * s
        val = (alpha ** 2 - eta ** 2) * (eta_p + alpha) * _w_factor(alpha, eta, eta_p, params)
        return 2.0 / np.sqrt(val)

    sigma_max = float(np.arccosh(x_mid / eta))
    s_max = float(np.sqrt(eta_p - x_mid))
    t_left, _ = quad(left, 0.0, sigma_max, epsabs=1e-12, epsrel=1e-12, limit=200)
    t_right, _ = quad(right, 0.0, s_max, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * (t_left + t_right)


class TestHomoclinic:
    def test_tip_value(self, params):
        pt = homoclinic(0.0, params)
        assert pt.a0 == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-15)
        assert pt.b0 == 0.0

    def test_decay(self, params):
        pt = homoclinic(30.0, params)
        assert abs(pt.a0) < 1e-6 and abs(pt.b0) < 1e-6

    def test_zero_energy_level(self, params):
        for t in np.linspace(-10, 10, 101):
            pt = homoclinic(t, params)
            assert abs(pt.b0 ** 2 + potential_f(pt.a0, params)) < 1e-12

    def test_closed_form_solves_planar_system(self, params):
        # fourth-order differences of the closed form against its own
        # derivative and against the planar force
        h = 1e-3
        for t in np.linspace(-10, 10, 81):
            pts = [homoclinic(t + k * h, params) for k in (-2, -1, 1, 2)]
            da = (pts[0].a0 - 8 * pts[1].a0 + 8 * pts[2].a0 - pts[3].a0) / (12 * h)
            db = (pts[0].b0 - 8 * pts[1].b0 + 8 * pts[2].b0 - pts[3].b0) / (12 * h)
            here = homoclinic(t, params)
            assert abs(da - here.b0) < 1e-10
            assert abs(db - force(here.a0, params)) < 1e-10


class TestTurningPoint:
    def test_closed_form(self, params):
        # for p = 1 the conjugate point is sqrt(2 m^2 - eta^2)
        for eta in (0.1, 0.01, 0.3):
            expect = math.sqrt(2 * params.m ** 2 - eta ** 2)
            assert turning_point(eta, params) == pytest.approx(expect, abs=1e-12)

    def test_level_match(self, params, rng):
        for eta in rng.uniform(1e-3, 0.49, size=10):
            ep = turning_point(eta, params)
            assert abs(potential_f(ep, params) - potential_f(eta, params)) < 1e-12
            assert params.center < ep < params.separatrix_amplitude

    def test_small_eta_limit(self, params):
        assert turning_point(1e-8, params) == pytest.approx(
            math.sqrt(2.0) * params.m, abs=1e-12)

    def test_out_of_range(self, params):
        for bad in (0.0, -0.1, params.center, 0.9):
            with pytest.raises(OutOfRange):
                turning_point(bad, params)


class TestPeriod:
    def test_matches_integrated_first_return(self, table, params):
        from kgorbit import SectionSpec, StepperConfig, evolve
        eta = 0.1
        a = np.zeros(table.mode_count)
        a[0] = eta
        sec = SectionSpec(kind="b0_equals", level=0.0, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=10 * period(eta, params),
                            sample_stride=10 ** 6, section=sec)
        traj = evolve(State(a, np.zeros(table.mode_count)), cfg, table,
                      max_events=1)
        assert abs(traj.events[0][0] - period(eta, params)) < 1e-4 * period(eta, params)

    def test_logarithmic_growth(self, params):
        # saddle rate: successive decades add about ln(10) * 2/m
        t1, t2, t3 = (period(e, params) for e in (1e-2, 1e-3, 1e-4))
        d1, d2 = (t2 - t1) / math.log(10), (t3 - t2) / math.log(10)
        assert d1 > 0 and d2 > 0
        assert d2 == pytest.approx(2 / params.m, rel=0.01)

    def test_center_limit(self, params):
        # small oscillations about the center have period 2 pi / (sqrt(2p) m)
        expect = 2 * math.pi / (math.sqrt(2 * params.p) * params.m)
        assert period(0.4999, params) == pytest.approx(expect, rel=1e-3)

    def test_out_of_range(self, params):
        with pytest.raises(OutOfRange):
            period(0.6, params)

    def test_p1_elliptic_integral_oracle(self, params):
        # for p = 1 the loop is eta' dn(beta (t - T/2), k) with
        # eta^2 + eta'^2 = 2 m^2, beta = eta'/sqrt(2) and k'^2 = (eta/eta')^2,
        # so T = 2 K(k) / beta; ellipkm1 takes k'^2 itself and keeps the
        # digits that ellipk(1 - k'^2) loses as k' -> 0
        assert params.p == 1
        for eta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            eta_p = math.sqrt(2.0 * params.m ** 2 - eta ** 2)
            expect = 2.0 * ellipkm1((eta / eta_p) ** 2) / (eta_p / math.sqrt(2.0))
            assert period(eta, params) == pytest.approx(expect, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_adaptive_quadrature(self, p):
        # measured gap at most 1.0e-15 relative (4.5 ulps) on this grid; the
        # conditioning of turning_point grows toward the center (32 ulps,
        # 6.4e-15, at 0.999 center), so the bound leaves a factor 4
        params = ModelParams(m=M, p=p, dim=1, cutoff=4)
        for eta in np.logspace(-6, math.log10(0.99 * params.center), 25):
            assert period(eta, params) == pytest.approx(
                quad_period(eta, params), rel=4e-15, abs=0.0)


class TestGaussLegendre:
    def test_matches_40_digit_rule(self):
        # the same Newton iteration in 40-digit arithmetic, rounded once:
        # every float64 node and weight must be the correctly rounded one
        import mpmath
        n = len(_GL_NODES)
        with mpmath.workdps(40):
            for k, (node, weight) in enumerate(zip(_GL_NODES, _GL_WEIGHTS), start=1):
                x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(0.25)) / (n + mpmath.mpf(0.5)))
                for _ in range(100):
                    p_prev, p_n = mpmath.mpf(1), x
                    for j in range(2, n + 1):
                        p_prev, p_n = p_n, ((2 * j - 1) * x * p_n - (j - 1) * p_prev) / j
                    dp = n * (x * p_n - p_prev) / (x * x - 1)
                    step = p_n / dp
                    x -= step
                    if abs(step) < mpmath.mpf(10) ** -38:
                        break
                assert node == float((1 + x) / 2)
                assert weight == float(1 / ((1 - x * x) * dp * dp))

    def test_integrates_polynomials(self):
        # weights sum to 1 on [0, 1] (2 on [-1, 1]), and the 64-node rule
        # is exact for degree <= 127: measured within 4 eps of 1/(k + 1)
        assert math.fsum(_GL_WEIGHTS) == 1.0
        for k in range(128):
            assert np.dot(_GL_WEIGHTS, _GL_NODES ** k) * (k + 1) == pytest.approx(
                1.0, rel=8 * np.finfo(float).eps, abs=0.0)


class TestSampleOrbit:
    def test_start_and_level(self, params):
        orbit = sample_orbit(0.1, 128, params)
        assert orbit.a0[0] == pytest.approx(0.1, abs=1e-14)
        assert orbit.b0[0] == 0.0
        level = orbit.b0 ** 2 + np.array([potential_f(a, params) for a in orbit.a0])
        assert np.abs(level - orbit.energy_level).max() <= 1e-10

    def test_time_reflection_symmetry(self, params):
        orbit = sample_orbit(0.1, 256, params)
        assert np.abs(orbit.a0 - orbit.a0[::-1]).max() < 1e-8
        assert np.abs(orbit.b0 + orbit.b0[::-1]).max() < 1e-8

    def test_min_samples(self, params):
        with pytest.raises(OutOfRange):
            sample_orbit(0.1, 8, params)

    def test_p1_dn_closed_form(self, params):
        # integrator-free oracle: for p = 1 the loop is eta' dn(beta (t - T/2), k)
        # with eta^2 + eta'^2 = 2 m^2, beta = eta'/sqrt(2), k'^2 = (eta/eta')^2
        # (Byrd & Friedman, Handbook of Elliptic Integrals, 121.00)
        assert params.p == 1
        for eta in (0.1, 0.01, 0.001):
            orbit = sample_orbit(eta, 4096, params)
            eta_p = math.sqrt(2.0 * params.m ** 2 - eta ** 2)
            beta, kp2 = eta_p / math.sqrt(2.0), (eta / eta_p) ** 2
            dn = ellipj(beta * (orbit.times - 0.5 * orbit.period), 1.0 - kp2)[2]
            assert np.abs(orbit.a0 - eta_p * dn).max() <= 1e-12


    def test_working_memory_independent_of_steps(self, params):
        # 59k steps at eta = 1e-6; the whole loop's step values alone would
        # take 0.9 MiB, and the blocks are strided as they arrive
        sample_orbit(1e-6, 64, params)
        peaks = []
        for eta in (0.1, 1e-6):
            tracemalloc.start()
            try:
                sample_orbit(eta, 64, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 ** 18
        assert peaks[1] < 1.25 * peaks[0]


def scalar_rk4(eta, T, n_steps, params):
    """Classical RK4 on the planar system one scalar step at a time:
    rows (5, n_steps) of each step's start a, b and its stage positions
    a2, a3, a4, and the end state."""
    h = T / n_steps
    hh = 0.5 * h
    a, b, rows = float(eta), 0.0, []
    for _ in range(n_steps):
        f1 = force(a, params)
        a2, b2 = a + hh * b, b + hh * f1
        f2 = force(a2, params)
        a3, b3 = a + hh * b2, b + hh * f2
        f3 = force(a3, params)
        a4, b4 = a + h * b3, b + h * f3
        f4 = force(a4, params)
        rows.append((a, b, a2, a3, a4))
        a = a + h / 6.0 * (b + 2 * b2 + 2 * b3 + b4)
        b = b + h / 6.0 * (f1 + 2 * f2 + 2 * f3 + f4)
    return np.array(rows).T, (a, b)


class TestPlanarPass:
    @pytest.mark.parametrize("n_steps", [16, 2 * _RK4_BLOCK + 37])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_rows_and_stages_equal_scalar_rk4(self, p, n_steps):
        # the pass records step values only; the stage positions rebuilt
        # from them in numpy are the loop's own, bit for bit
        pr = ModelParams(m=M, p=p, dim=1, cutoff=1)
        for eta in (0.5 * pr.center, 0.2 * pr.center, 0.1 * pr.center):
            T = period(eta, pr)
            ref, end = scalar_rk4(eta, T, n_steps, pr)
            assert np.isfinite(ref).all()
            blocks = list(_planar_rk4(eta, T, n_steps, pr))
            sizes = [rows.shape[1] for rows, _ in blocks]
            assert sum(sizes) == n_steps and max(sizes) <= _RK4_BLOCK
            rows = np.concatenate([rows for rows, _ in blocks], axis=1)
            assert np.array_equal(rows, ref[:2])
            assert blocks[-1][1] == end
            stages = _rk4_stages(rows[0], rows[1], T / n_steps, pr)
            assert np.array_equal(np.array(stages), ref[2:])


class TestBand:
    def test_example_value(self, params):
        band = delta_band(0.25, params)
        assert band.delta_prime == pytest.approx(math.sqrt(0.5 - 0.0625), abs=1e-12)
        assert abs(potential_f(band.delta_prime, params)
                   - potential_f(band.delta, params)) < 1e-12

    def test_small_delta_limit(self, params):
        band = delta_band(1e-9, params)
        assert band.delta_prime == pytest.approx(math.sqrt(2.0) * params.m, abs=1e-12)

    def test_default_band(self, params):
        band = default_band(params)
        assert band.delta == pytest.approx(params.center / 2)


class TestProjection:
    def test_base_point_is_fixed(self, params):
        band = default_band(params)
        out = project_to_orbit(PlanarState(0.1, 0.0), 0.1, band, params)
        assert out == PlanarState(0.1, 0.0)

    def test_on_orbit_points_are_fixed(self, params):
        band = default_band(params)
        orbit = sample_orbit(0.1, 512, params)
        for i in range(0, 513, 37):
            pt = PlanarState(float(orbit.a0[i]), float(orbit.b0[i]))
            out = project_to_orbit(pt, 0.1, band, params)
            assert abs(out.a0 - pt.a0) + abs(out.b0 - pt.b0) < 1e-6

    def test_output_on_level_set(self, params, rng):
        band = default_band(params)
        level = potential_f(0.1, params)
        for _ in range(50):
            pt = PlanarState(rng.uniform(0.05, 0.69), rng.uniform(-0.3, 0.3))
            try:
                out = project_to_orbit(pt, 0.1, band, params)
            except ProjectionUndefined:
                continue
            assert abs(out.b0 ** 2 + potential_f(out.a0, params) - level) < 1e-12

    def test_near_base_point(self, params):
        band = default_band(params)
        out = project_to_orbit(PlanarState(0.1 + 1e-6, 1e-6), 0.1, band, params)
        d = math.hypot(out.a0 - (0.1 + 1e-6), out.b0 - 1e-6)
        assert d < 1e-4  # within C * 1e-6 of the input with moderate C

    def test_undefined_in_band_above_level(self, params):
        # a0 inside the band cannot sit on the much lower level of eta = 0.3
        band = delta_band(0.25, params)
        with pytest.raises(ProjectionUndefined):
            project_to_orbit(PlanarState(0.26, 0.0), 0.3, band, params)

    def test_invert_potential_branches(self, params):
        y = potential_f(0.2, params)
        assert invert_potential(y, params, "low") == pytest.approx(0.2, abs=1e-13)
        y2 = potential_f(0.6, params)
        assert invert_potential(y2, params, "high") == pytest.approx(0.6, abs=1e-13)


class TestDistToOrbit:
    def test_zero_on_orbit(self, table, params):
        band = default_band(params)
        a = np.zeros(table.mode_count)
        a[0] = 0.1
        assert dist_to_orbit(State(a, np.zeros(table.mode_count)), 0.1, band,
                             table) == 0.0

    def test_single_mode_offset(self, table, params):
        band = default_band(params)
        a = np.zeros(table.mode_count)
        a[0], a[1] = 0.1, 1e-4
        d = dist_to_orbit(State(a, np.zeros(table.mode_count)), 0.1, band, table)
        assert d == pytest.approx(1e-4 * math.sqrt(1 + 4 * math.pi ** 2), rel=1e-12)

    def test_against_brute_force(self, table, params, rng):
        # oracle: minimise the distance over the continuous loop (dense
        # solution plus bounded scalar minimisation around the best sample);
        # the projection route may never beat that minimum, and near the
        # turning points it is second-order close to it
        from scipy.integrate import solve_ivp
        from scipy.optimize import minimize_scalar

        def planar(t, y):
            return (y[1], force(y[0], params))

        band = default_band(params)
        T = period(0.1, params)
        sol = solve_ivp(planar, (0.0, T), [0.1, 0.0], dense_output=True,
                        rtol=1e-12, atol=1e-14, method="DOP853")
        ts = np.linspace(0.0, T, 8193)
        curve = sol.sol(ts)

        for _ in range(20):
            a = np.zeros(table.mode_count)
            b = np.zeros(table.mode_count)
            a[0] = 0.1 + rng.uniform(-1e-3, 1e-3)
            b[0] = rng.uniform(-1e-3, 1e-3)
            a[1:3] = 1e-4 * rng.standard_normal(2)
            s = State(a, b)
            d_proj = dist_to_orbit(s, 0.1, band, table)
            assert _project(a[:1], b[:1], 0.1, band, params)[2].all()
            high_a = float(np.sum((1 + table.lam_sq[1:]) * a[1:] ** 2))

            def dist_at(tt):
                aa, bb = sol.sol(tt)
                return np.sqrt((a[0] - aa) ** 2 + high_a) + abs(b[0] - bb)

            coarse = np.sqrt((a[0] - curve[0]) ** 2 + high_a) + np.abs(b[0] - curve[1])
            i = int(np.argmin(coarse))
            lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
            res = minimize_scalar(dist_at, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-13})
            brute = min(float(res.fun), float(coarse[i]))
            # 1e-7 slack covers the dense-output interpolation error of the oracle
            assert d_proj >= brute - 1e-7
            assert d_proj <= brute + 50.0 * brute ** 2

    def test_fallback_path(self, table, params, monkeypatch):
        # in-band position above the level set: projection undefined, dense
        # samples take over, built once
        band = delta_band(0.25, params)
        a = np.zeros(table.mode_count)
        a[0] = 0.26
        b = np.zeros(table.mode_count)
        assert not _project(a[:1], b[:1], 0.3, band, params)[2].any()
        sample = stationary.sample_orbit
        calls = []

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(stationary, "sample_orbit", counted)
        d = dist_to_orbit(State(a, b), 0.3, band, table)
        assert len(calls) == 1
        assert d > 0


def scalar_invert_potential(y, params, branch):
    """Reference inversion of f on one branch: one brentq solve per level."""
    from scipy.optimize import brentq
    f_min = potential_f(params.center, params)
    if y < f_min:
        raise ProjectionUndefined(f"level {y!r} below the potential minimum {f_min!r}")
    if branch == "low":
        if y > 0.0:
            raise ProjectionUndefined(f"level {y!r} above f(0) = 0 on the low branch")
        lo, hi = 0.0, params.center
    else:
        lo, hi = params.center, params.separatrix_amplitude
        while potential_f(hi, params) < y:
            hi *= 2.0
    if y == f_min:
        return params.center
    return float(brentq(lambda x: potential_f(x, params) - y, lo, hi,
                        xtol=1e-15, rtol=8.9e-16))


def scalar_project_to_orbit(s, eta, band, params):
    """Reference projection of one planar point onto the level set."""
    level = potential_f(eta, params)
    if band.delta <= s.a0 <= band.delta_prime:
        gap = level - potential_f(s.a0, params)
        if gap < 0.0:
            if gap < -1e-14:
                raise ProjectionUndefined("no real velocity")
            gap = 0.0
        b = np.sqrt(gap)
        return PlanarState(s.a0, float(b if s.b0 >= 0 else -b))
    branch = "low" if s.a0 < band.delta else "high"
    return PlanarState(scalar_invert_potential(level - s.b0 ** 2, params, branch), s.b0)


def scalar_dist_to_orbit(s, eta, band, table, params, orbit=None):
    """Reference distance of one state: one projection per call, dense
    loop samples when it is undefined.  Returns (value, path)."""
    a0, b0 = float(s.a[0]), float(s.b[0])
    high_a = float(np.sum((1.0 + table.lam_sq[1:]) * s.a[1:] ** 2))
    high_b = float(np.sum(s.b[1:] ** 2))
    try:
        proj = scalar_project_to_orbit(PlanarState(a0, b0), eta, band, params)
        return (float(np.sqrt((a0 - proj.a0) ** 2 + high_a)
                      + np.sqrt((b0 - proj.b0) ** 2 + high_b)), "projection")
    except ProjectionUndefined:
        if orbit is None:
            orbit = sample_orbit(eta, 4096, params)
        dists = (np.sqrt((a0 - orbit.a0) ** 2 + high_a)
                 + np.sqrt((b0 - orbit.b0) ** 2 + high_b))
        return float(dists.min()), "samples"


class TestStackedDistance:
    """The stacked dist_to_orbit against the scalar brentq reference."""

    # (a0, b0) rows: low branch, in band with both signs of b0, high
    # branch, and a low-branch row too fast for the level set (samples)
    PLANAR = [(0.08, 1e-3), (0.12, -2e-3), (0.02, 0.0), (0.3, 1e-2), (0.45, -1e-2),
              (0.6, 0.0), (0.68, 5e-3), (0.72, -5e-3), (0.9, 1e-2), (0.1, 0.2)]

    @staticmethod
    def _stack(planar, table, rng):
        """Rows (a0, b0) of ``planar`` with small random high modes."""
        a = 1e-3 * rng.standard_normal((len(planar), table.mode_count))
        b = 1e-3 * rng.standard_normal((len(planar), table.mode_count))
        a[:, 0], b[:, 0] = np.array(planar).T
        return State(a, b)

    def test_rows_match_scalar_reference(self, table, params, rng):
        band = default_band(params)
        orbit = sample_orbit(0.1, 4096, params)
        s = self._stack(self.PLANAR, table, rng)
        d = dist_to_orbit(s, 0.1, band, table)
        # the rule dist_to_orbit uses to pick each row's route
        defined = _project(s.a[:, 0], s.b[:, 0], 0.1, band, params)[2]
        path = np.where(defined, "projection", "samples")
        assert d.shape == path.shape == (len(self.PLANAR),)
        for i in range(len(self.PLANAR)):
            row = State(s.a[i], s.b[i])
            ref, ref_path = scalar_dist_to_orbit(row, 0.1, band, table, params, orbit)
            assert path[i] == ref_path
            assert abs(d[i] - ref) <= 1e-14
            # the one-state call is the one-row case of the stack
            assert dist_to_orbit(row, 0.1, band, table) == d[i]
        assert list(path).count("samples") == 1

    def test_fallback_samples_built_once_per_stack(self, table, params, rng, monkeypatch):
        # rows 9 and 10 both fall back, and the loop samples are built
        # once for the call
        band = default_band(params)
        s = self._stack(self.PLANAR + [(0.05, 0.3)], table, rng)
        assert list(np.flatnonzero(~_project(s.a[:, 0], s.b[:, 0], 0.1, band, params)[2])) \
            == [9, 10]
        built = []

        def counted(*args):
            built.append(args)
            return sample_orbit(*args)
        monkeypatch.setattr(stationary, "sample_orbit", counted)
        d = dist_to_orbit(s, 0.1, band, table)
        assert len(built) == 1 and d.shape == (11,) and np.all(d > 0)

    def test_rows_equal_xnorm_to_embedded_projection(self, table, params, rng):
        # one norm: each row's distance is xnorm of the row minus its
        # project_to_orbit point embedded in the constant mode
        band = default_band(params)
        s = self._stack(self.PLANAR[:-1], table, rng)
        d = dist_to_orbit(s, 0.1, band, table)
        proj = project_to_orbit(PlanarState(s.a[:, 0], s.b[:, 0]), 0.1, band, params)
        for i in range(len(d)):
            da, db = s.a[i].copy(), s.b[i].copy()
            da[0] -= proj.a0[i]
            db[0] -= proj.b0[i]
            ref = xnorm(State(da, db), table)
            assert abs(d[i] - ref) <= 1e-15 * ref

    def test_p2_rows_match_scalar_reference(self, rng):
        from kgorbit import ModelParams, build_spectrum
        p2 = ModelParams(m=0.5, p=2, dim=1, cutoff=4)
        t2 = build_spectrum(p2)
        band = default_band(p2)
        # center 0.707, band [0.354, 0.803]: both branches and the band
        planar = [(0.2, 1e-2), (0.5, -1e-2), (0.85, 2e-2), (0.95, -2e-2)]
        s = self._stack(planar, t2, rng)
        d = dist_to_orbit(s, 0.3, band, t2)
        for i in range(len(planar)):
            ref, path = scalar_dist_to_orbit(State(s.a[i], s.b[i]), 0.3, band, t2, p2)
            assert path == "projection"
            assert abs(d[i] - ref) <= 1e-14
        levels = potential_f(np.array([0.2, 0.5, 0.8, 0.9, 1.2]), p2)
        for branch, ys in (("low", levels[:2]), ("high", levels[2:])):
            got = invert_potential(ys, p2, branch)
            for y, x in zip(ys, got):
                assert abs(x - scalar_invert_potential(y, p2, branch)) <= 1e-14

    def test_p1_closed_form(self, params):
        # f(x) = y has x^2 = m^2 -+ sqrt(m^4 + 2y) for p = 1; the low root
        # is written without cancellation
        m2 = params.m ** 2
        for branch, xs in (("low", np.linspace(0.01, 0.6, 40)),
                           ("high", np.linspace(0.8, 3.0, 40))):
            y = potential_f(xs, params)
            disc = np.sqrt(m2 * m2 + 2.0 * y)
            exact = np.sqrt(-2.0 * y / (m2 + disc)) if branch == "low" else np.sqrt(m2 + disc)
            got = invert_potential(y, params, branch)
            assert np.all(np.abs(got - exact) <= 1e-14 * exact)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_level_matches_array_path_bitwise(self, p):
        # one level is the one-element case of the array path; its float
        # must be the stacked root to the last bit, on both branches and at
        # the branch minimum, including high levels that widen the bracket
        pr = ModelParams(m=0.5, p=p, dim=1, cutoff=1)
        rng = np.random.default_rng(p)
        f_min = potential_f(pr.center, pr)
        for branch, xs in (("low", rng.uniform(1e-3, pr.center, 25)),
                           ("high", rng.uniform(pr.center, 3.0, 25))):
            ys = np.append(potential_f(xs, pr), f_min)
            stacked = invert_potential(ys, pr, branch)
            for y, x in zip(ys.tolist(), stacked):
                one = invert_potential(y, pr, branch)
                assert isinstance(one, float)
                assert one == invert_potential(np.array([y]), pr, branch)[0] == x

    def test_out_of_range_levels(self, params):
        f_min = potential_f(params.center, params)
        with pytest.raises(ProjectionUndefined):
            invert_potential(np.array([-0.01, 1e-3]), params, "low")
        with pytest.raises(ProjectionUndefined):
            invert_potential(np.array([f_min - 1e-3]), params, "high")
        assert invert_potential(f_min, params, "high") == params.center


def joint_rk4_monodromy(orbit, lambda_n, params, dt, potential=None):
    """Reference monodromy: classical RK4 on the joint 6-component system
    (a0, b0, x11, x21, x12, x22), loop and fundamental matrix together."""
    p = params.p
    w2 = lambda_n ** 2 - params.m ** 2
    n_steps = max(16, int(np.ceil(orbit.period / dt)))
    h = orbit.period / n_steps

    def deriv(t, y):
        a0, b0, x11, x21, x12, x22 = y
        v = (2 * p + 1) * a0 ** (2 * p) if potential is None else potential(t)
        c = -w2 - v
        return np.array([b0, force(a0, params), x21, c * x11, x22, c * x12])

    y = np.array([orbit.eta, 0.0, 1.0, 0.0, 0.0, 1.0])
    t = 0.0
    for _ in range(n_steps):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return np.array([[y[2], y[4]], [y[3], y[5]]])


class TestFloquet:
    def test_matches_joint_rk4_reference(self, params):
        orbit = sample_orbit(0.1, 64, params)
        for potential in (None, lambda t: 0.0, lambda t: 0.3 * math.cos(t)):
            for lam in (2 * math.pi, 4 * math.pi):
                mono = floquet(orbit, lam, params, dt=1e-3, potential=potential)
                ref = joint_rk4_monodromy(orbit, lam, params, 1e-3, potential)
                assert np.max(np.abs(mono.matrix - ref)) <= 1e-12

    def test_matches_joint_rk4_reference_at_p2(self):
        pr = ModelParams(m=M, p=2, dim=1, cutoff=1)
        loop = Loop(0.1, period(0.1, pr))
        for potential in (None, lambda t: 0.3 * math.cos(t)):
            for lam in (2 * math.pi, 4 * math.pi):
                mono = floquet(loop, lam, pr, dt=1e-3, potential=potential)
                ref = joint_rk4_monodromy(loop, lam, pr, 1e-3, potential)
                assert np.max(np.abs(mono.matrix - ref)) <= 1e-12

    def test_sequence_equals_scalar_calls(self, params):
        orbit = sample_orbit(0.05, 64, params)
        lams = [4 * math.pi, 2 * math.pi, 3 * math.pi]
        monos = floquet(orbit, lams, params, dt=1e-3)
        assert isinstance(monos, list) and len(monos) == 3
        for lam, mono in zip(lams, monos):
            single = floquet(orbit, lam, params, dt=1e-3)
            assert mono.mode_eigenvalue == lam
            assert np.array_equal(mono.matrix, single.matrix)
            assert mono.multipliers == single.multipliers

    def test_working_memory_independent_of_steps(self, params):
        # 135k steps; whole-loop stage arrays alone would take 4.3 MiB
        orbit = sample_orbit(0.1, 64, params)
        tracemalloc.start()
        try:
            floquet(orbit, [2 * math.pi, 4 * math.pi], params, dt=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_constant_coefficient_hook(self, params):
        orbit = sample_orbit(0.1, 64, params)
        lam = 2 * math.pi
        mono = floquet(orbit, lam, params, dt=1e-3, potential=lambda t: 0.0)
        w = math.sqrt(lam ** 2 - params.m ** 2)
        assert abs(mono.determinant - 1.0) < 1e-10
        assert mono.trace == pytest.approx(2 * math.cos(w * orbit.period), abs=1e-8)
        assert all(abs(abs(mu) - 1.0) < 1e-8 for mu in mono.multipliers)

    def test_unit_determinant_on_loop(self, params):
        orbit = sample_orbit(0.1, 64, params)
        for lam in (2 * math.pi, 4 * math.pi):
            mono = floquet(orbit, lam, params, dt=1e-3)
            assert abs(mono.determinant - 1.0) < 1e-8

    def test_multiplier_dichotomy(self, params):
        orbit = sample_orbit(0.05, 64, params)
        for lam in (2 * math.pi, 4 * math.pi):
            mono = floquet(orbit, lam, params, dt=1e-3)
            m1, m2 = mono.multipliers
            unit_pair = abs(abs(m1) - 1) < 1e-8 and abs(abs(m2) - 1) < 1e-8
            real_recip = (abs(m1.imag) < 1e-9 and abs(m2.imag) < 1e-9
                          and abs(m1 * m2 - 1.0) < 1e-8)
            assert unit_pair or real_recip
            assert mono.classification in ("elliptic", "hyperbolic")

    # For p = 1 the driven-mode equation is Lame's equation with n = 2,
    # y'' + (h - 6 k^2 sn^2 u) y = 0, h = (lambda^2 - m^2)/beta^2 + 6.  Its
    # only instability intervals lie below the band edge
    # 2(1 + k^2) + 2 sqrt(1 - k^2 + k^4) <= 6 < h, so every monodromy is
    # elliptic.  The closed gaps above touch |trace| = 2, hence the
    # tolerance: the suite's |det - 1| bound on the RK4 monodromy.
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(eta=st.floats(1e-3, 0.45, exclude_max=True),
           lams=st.lists(st.floats(M, 4 * math.pi, exclude_min=True),
                         min_size=1, max_size=4))
    def test_p1_driven_modes_elliptic(self, params, eta, lams):
        assert params.p == 1 and params.m == M
        for mono in floquet(Loop(eta, period(eta, params)), lams, params, dt=1e-3):
            assert abs(mono.trace) <= 2.0 + 1e-8

    def test_requires_lambda_above_mass(self, params):
        orbit = sample_orbit(0.1, 64, params)
        with pytest.raises(OutOfRange):
            floquet(orbit, 0.3, params)
        with pytest.raises(OutOfRange, match="0.3"):
            floquet(orbit, [2 * math.pi, 0.3], params)

    @pytest.mark.parametrize("lambdas", [math.inf, [2 * math.pi, math.inf]])
    def test_requires_finite_lambda(self, params, lambdas):
        with pytest.raises(OutOfRange, match="finite"):
            floquet(sample_orbit(0.1, 64, params), lambdas, params)

    @pytest.mark.parametrize("dt", [-1e-3, 0.0, math.inf, math.nan])
    def test_requires_finite_positive_dt(self, params, dt):
        # refused before stepping: -1e-3 and inf would run the 16-step
        # minimum to a meaningless monodromy, 0 and nan would crash
        with pytest.raises(OutOfRange, match="dt"):
            floquet(Loop(0.1, period(0.1, params)), 2 * math.pi, params, dt=dt)

    def test_overflowing_monodromy_warns_nothing(self, params):
        # the finiteness check is the only report of an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange):
                floquet(Loop(0.1, period(0.1, params)), [2 * math.pi, 1e4], params, dt=1e-3)

    @pytest.mark.parametrize("lam", [1e4, 1e10])
    def test_overflowing_monodromy_refused(self, params, lam):
        # at dt = 1e-3, h sqrt(lam^2 - m^2) >= 10 lies past RK4's stability
        # bound 2 sqrt(2): the step matrices grow until the product overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OutOfRange, match=rf"lambda = {lam!r} .* dt = 0\.001"):
            floquet(Loop(0.1, period(0.1, params)), [2 * math.pi, lam], params, dt=1e-3)


EPS = np.finfo(float).eps


def _conjugated(core, rng, spread):
    """P core P^-1 for a random P of bounded condition: a diagonal scaling
    by up to exp(spread) and two shears of up to ``spread``."""
    r = math.exp(rng.uniform(-spread, spread))
    p = (np.array([[r, rng.uniform(-spread, spread)], [0.0, 1.0 / r]])
         @ np.array([[1.0, 0.0], [rng.uniform(-spread, spread), 1.0]]))
    return p @ core @ np.linalg.inv(p)


def _rotation(theta):
    return np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])


def _sorted(values):
    return sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))


class TestMonodromyAlgebra:
    """The closed forms ad - bc and tr/2 -+ sqrt(((a - d)/2)^2 + bc) against
    LAPACK where both are well conditioned and against 30-digit mpmath
    near |tr| = 2, where no method is."""

    def _matrices(self, rng, spread, thetas, mus):
        out = [_conjugated(_rotation(theta), rng, spread) for theta in thetas]
        return out + [_conjugated(np.diag([mu, 1.0 / mu]), rng, spread) for mu in mus]

    def test_matches_lapack(self, params, rng):
        mus = rng.choice([-1.0, 1.0], 100) * np.exp(rng.uniform(0.05, 3.0, 100))
        matrices = self._matrices(rng, 0.5, rng.uniform(0.05, 3.1, 100), mus)
        matrices += [m.matrix for eta in (0.1, 0.01, 0.002)
                     for m in floquet(Loop(eta, period(eta, params)), [2 * math.pi, 4 * math.pi],
                                      params)]
        for matrix in matrices:
            mono = Monodromy(matrix, 1.0)
            (a, b), (c, d) = matrix.tolist()
            assert abs(mono.determinant - np.linalg.det(matrix)) <= 4 * EPS * max(abs(a * d), abs(b * c))
            lapack = _sorted(np.linalg.eigvals(matrix))
            scale = max(abs(z) for z in lapack)
            assert max(abs(x - y) for x, y in zip(mono.multipliers, lapack)) <= 4 * EPS * scale
            assert (mono.multipliers[0].imag < 0) == (lapack[0].imag < 0)

    def test_near_unit_trace_against_mpmath(self, rng):
        # first-order error bound of the closed form from its roundings:
        # eps (|tr|/2 + root) from the half trace and the final sums, and
        # eps S / root from an error of up to 2 eps S in the discriminant,
        # S = ((a - d)/2)^2 + |bc|, halved by the square root's derivative
        # 1/(2 root); the check allows twice that
        import mpmath
        thetas = [1e-3, 1e-5, 1e-7]
        for sign in (1.0, -1.0):
            for matrix in self._matrices(rng, 0.5, thetas * 5, [math.exp(t) for t in thetas] * 5):
                matrix = sign * matrix
                mono = Monodromy(matrix, 1.0)
                (a, b), (c, d) = matrix.tolist()
                with mpmath.workdps(30):
                    ma, mb, mc, md = (mpmath.mpf(x) for x in (a, b, c, d))
                    root = mpmath.sqrt(((ma - md) / 2) ** 2 + mb * mc)
                    exact = _sorted([(ma + md) / 2 - root, (ma + md) / 2 + root])
                    det = float(ma * md - mb * mc)
                    root = abs(complex(root))
                assert abs(mono.determinant - det) <= 2 * EPS * max(abs(a * d), abs(b * c))
                bound = EPS * (abs(a + d) / 2 + root) \
                    + EPS * (((a - d) / 2) ** 2 + abs(b * c)) / root
                errors = [abs(x - y) for x, y in zip(mono.multipliers, exact)]
                assert max(errors) <= 2 * bound, (matrix, errors, bound)

    @pytest.mark.parametrize("trace, bound", [(6.0, 5e-16), (100.0, 2e-13),
                                              (-6.0, 5e-16), (-100.0, 2e-13)])
    def test_small_hyperbolic_root_against_mpmath(self, trace, bound):
        # tr/2 - sqrt(disc) cancels in the smaller root of a real pair
        # (7.6e-13 relative at tr = 100); det over the larger root does not
        import mpmath
        mu = (trace + math.copysign(math.sqrt(trace * trace - 4.0), trace)) / 2
        p = np.array([[1.0, 0.3], [0.2, 1.0]])
        matrix = p @ np.diag([mu, 1.0 / mu]) @ np.linalg.inv(p)
        (a, b), (c, d) = matrix.tolist()
        with mpmath.workdps(40):
            ma, mb, mc, md = (mpmath.mpf(x) for x in (a, b, c, d))
            root = mpmath.sqrt(((ma - md) / 2) ** 2 + mb * mc)
            exact = float((ma + md) / 2 - math.copysign(1.0, trace) * root)
        small = min(Monodromy(matrix, 1.0).multipliers, key=abs)
        assert small.imag == 0.0
        assert abs(small.real - exact) <= bound * abs(exact)

    def test_nilpotent_multipliers(self):
        assert Monodromy(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0).multipliers == (0j, 0j)

    def test_floquet_scan_records_keep_their_classification(self, params):
        # the grid of the benchmark's floquet_scan workload: p = 1, so every
        # record is elliptic (Lame), with a conjugate pair on the unit circle
        for eta in (0.1, 0.05, 0.02, 0.01, 0.005, 0.002):
            for mono in floquet(Loop(eta, period(eta, params)), [2 * math.pi, 4 * math.pi],
                                params, dt=1e-3):
                m1, m2 = mono.multipliers
                assert mono.classification == "elliptic"
                assert m1 == m2.conjugate() and m1.imag < 0
                assert abs(abs(m1) - 1.0) < 1e-8

    def test_floquet_runs_no_linalg_routine(self, params, monkeypatch):
        lams = [2 * math.pi, 4 * math.pi]
        loop = Loop(0.05, period(0.05, params))

        def summary(monos):
            return [(m.determinant, m.trace, m.multipliers, m.classification) for m in monos]
        want = summary(floquet(loop, lams, params))

        def refuse(*args, **kwargs):
            raise AssertionError("floquet called numpy.linalg")
        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(AssertionError):
            np.linalg.eigvals(np.eye(2))
        assert summary(floquet(loop, lams, params)) == want
