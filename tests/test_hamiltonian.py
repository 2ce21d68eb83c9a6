import math

import numpy as np
import pytest

from kgorbit import (DimensionMismatch, State, dist_x, energy_breakdown,
                     f_prime, force, hamiltonian, phi_diagnostic, potential_f,
                     q_vector, rhs, xnorm)
from kgorbit.hamiltonian import i_j_equivalence_bound


def make_state(table, a0=0.0, b0=0.0):
    a = np.zeros(table.mode_count)
    b = np.zeros(table.mode_count)
    a[0], b[0] = a0, b0
    return State(a, b)


def random_state(table, rng, scale=0.5):
    return State(scale * rng.standard_normal(table.mode_count),
                 scale * rng.standard_normal(table.mode_count))


class TestPotential:
    def test_origin_is_equilibrium(self, params):
        assert potential_f(0.0, params) == 0.0
        assert force(0.0, params) == 0.0

    def test_interior_equilibrium(self, params):
        assert force(params.center, params) == pytest.approx(0.0, abs=1e-16)

    def test_f_value(self, params):
        assert potential_f(0.1, params) == pytest.approx(-0.00245, rel=1e-14)

    def test_f_prime_is_minus_twice_force(self, params, rng):
        for x in rng.uniform(-1.5, 1.5, size=20):
            assert f_prime(x, params) == pytest.approx(-2.0 * force(x, params), rel=1e-13, abs=1e-16)


class TestHamiltonian:
    def test_zero_state(self, table, params):
        assert hamiltonian(make_state(table), table, params) == 0.0

    def test_planar_value(self, table, params):
        # H of (eta, 0) is f(eta)/2
        s = make_state(table, a0=0.1)
        assert hamiltonian(s, table, params) == pytest.approx(-0.001225, rel=1e-13)

    def test_separatrix_tip_has_zero_energy(self, table, params):
        s = make_state(table, a0=params.separatrix_amplitude)
        assert hamiltonian(s, table, params) == pytest.approx(0.0, abs=1e-15)

    def test_gradient_consistency(self, table, params, rng):
        # rhs must agree with central finite differences of H (step 1e-6)
        h = 1e-6
        for _ in range(20):
            s = random_state(table, rng)
            deriv = rhs(s, table, params)
            assert np.all(deriv.a == s.b)
            for n in range(table.mode_count):
                sp, sm = s.copy(), s.copy()
                sp.a[n] += h
                sm.a[n] -= h
                fd = -(hamiltonian(sp, table, params) - hamiltonian(sm, table, params)) / (2 * h)
                assert deriv.b[n] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_invariant_plane_exact(self, table, params):
        s = make_state(table, a0=0.3, b0=0.2)
        deriv = rhs(s, table, params)
        assert np.all(deriv.a[1:] == 0.0)
        assert np.all(deriv.b[1:] == 0.0)

    def test_planar_rhs_values(self, table, params):
        s = make_state(table, a0=params.center)
        deriv = rhs(s, table, params)
        assert abs(deriv.b[0]) < 1e-16
        eta = 0.05
        s = make_state(table, a0=eta)
        assert rhs(s, table, params).b[0] == pytest.approx(
            params.m ** 2 * eta - eta ** 3, rel=1e-13)
        assert rhs(s, table, params).b[0] > 0


class TestCouplingRemainder:
    def test_zero_for_planar(self, table, params):
        q = q_vector(make_state(table, a0=0.4, b0=0.1), table, params)
        assert np.all(q == 0.0)

    def test_reduces_to_power_projection_at_a0_zero(self, table, params, rng):
        from kgorbit import project_power
        a = np.zeros(table.mode_count)
        a[1:] = 0.1 * rng.standard_normal(table.mode_count - 1)
        s = State(a, np.zeros(table.mode_count))
        q = q_vector(s, table, params)
        assert np.abs(q - project_power(a, 3, table)).max() < 1e-15

    def test_quadratic_smallness(self, table, params, rng):
        # ||q|| <= C J with a ratio that stabilises as the amplitude shrinks
        def max_ratio(amp):
            worst = 0.0
            for _ in range(8):
                a = np.zeros(table.mode_count)
                b = np.zeros(table.mode_count)
                a[0] = 0.3
                a[1:] = amp * rng.standard_normal(table.mode_count - 1)
                b[1:] = amp * rng.standard_normal(table.mode_count - 1)
                s = State(a, b)
                bd = energy_breakdown(s, table, params)
                worst = max(worst, np.linalg.norm(q_vector(s, table, params)) / bd.J)
            return worst

        r_coarse, r_fine = max_ratio(1e-2), max_ratio(1e-3)
        assert r_fine < 1.0
        assert 0.2 < r_coarse / r_fine < 5.0


class TestEnergyBreakdown:
    def test_single_mode_J(self, table, params):
        s = make_state(table)
        s.a[1] = 1e-3
        bd = energy_breakdown(s, table, params)
        expect = 0.5 * (4 * math.pi ** 2 - 0.25) * 1e-6
        assert bd.J == pytest.approx(expect, rel=1e-13)

    def test_I_shift(self, table, params):
        s = make_state(table, a0=0.1)
        s.a[1] = 1e-3
        bd = energy_breakdown(s, table, params)
        assert bd.I == pytest.approx(bd.J + 0.5 * 3 * 0.1 ** 2 * 1e-6, rel=1e-13)
        assert bd.I >= bd.J

    def test_planar_remainders_vanish(self, table, params):
        bd = energy_breakdown(make_state(table, a0=0.2, b0=0.3), table, params)
        assert bd.r == 0.0 and bd.r_hat == 0.0 and bd.q_norm == 0.0 and bd.q0 == 0.0

    def test_decomposition_identities(self, table, params, rng):
        for _ in range(10):
            s = random_state(table, rng)
            bd = energy_breakdown(s, table, params)
            H = hamiltonian(s, table, params)
            a0, b0 = s.a[0], s.b[0]
            lhs1 = 0.5 * b0 ** 2 + 0.5 * bd.f_a0 + bd.J + bd.r
            lhs2 = 0.5 * b0 ** 2 + 0.5 * bd.f_a0 + bd.I + bd.r_hat
            scale = max(1.0, abs(H))
            assert abs(lhs1 - H) < 1e-12 * scale
            assert abs(lhs2 - H) < 1e-12 * scale
            assert bd.J >= 0.0

    def test_equivalence_bound_holds(self, table, params, rng):
        for _ in range(10):
            s = random_state(table, rng, scale=0.2)
            bd = energy_breakdown(s, table, params)
            k0 = i_j_equivalence_bound(abs(s.a[0]), table, params)
            assert bd.J <= bd.I <= k0 * bd.J + 1e-18


class TestXNorm:
    def test_constant_mode(self, table):
        assert xnorm(make_state(table, a0=1.0), table) == pytest.approx(1.0)

    def test_first_mode(self, table):
        s = make_state(table)
        s.a[1] = 1.0
        assert xnorm(s, table) == pytest.approx(math.sqrt(1 + 4 * math.pi ** 2), rel=1e-14)

    def test_distance_axioms(self, table, rng):
        s1 = random_state(table, rng)
        s2 = random_state(table, rng)
        s3 = random_state(table, rng)
        assert dist_x(s1, s1, table) == 0.0
        assert dist_x(s1, s2, table) == pytest.approx(dist_x(s2, s1, table), rel=1e-14)
        assert dist_x(s1, s3, table) <= dist_x(s1, s2, table) + dist_x(s2, s3, table) + 1e-14

    def test_shape_mismatch(self, table):
        with pytest.raises(DimensionMismatch):
            xnorm(State(np.zeros(2), np.zeros(2)), table)


class TestPhiDiagnostic:
    def test_zero_at_start(self, table, params):
        s = make_state(table, a0=0.1)
        bd0 = energy_breakdown(s, table, params)
        assert phi_diagnostic(s, bd0, 0.1, table, params) == 0.0

    def test_planar_runs_have_zero_phi(self, table, params):
        from kgorbit import StepperConfig, evolve
        s0 = make_state(table, a0=0.1)
        bd0 = energy_breakdown(s0, table, params)
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=5.0, sample_stride=500)
        traj = evolve(s0, cfg, table, params)
        for a, b in zip(traj.a, traj.b):
            assert phi_diagnostic(State(a, b), bd0, 0.1, table, params) == 0.0
