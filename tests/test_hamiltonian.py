import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from kgorbit import (DimensionMismatch, ModelParams, NonFiniteState, State, build_spectrum,
                     coupling_remainder, dist_x, energy_breakdown, force,
                     high_mode_energy, potential_f, project_power, rhs, xnorm)
from kgorbit.hamiltonian import _bound_force, i_j_equivalence_bound


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
        # complex-step derivative f'(x) = Im f(x + ih) / h: no cancellation,
        # so h = 1e-30 leaves only the rounding of f itself
        h = 1e-30
        for x in rng.uniform(-1.5, 1.5, size=20):
            slope = potential_f(complex(x, h), params).imag / h
            assert slope == pytest.approx(-2.0 * force(x, params), rel=1e-13, abs=1e-16)


    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bound_force_same_bits_on_float_and_array(self, params, rng, p):
        # products round alike in Python and numpy, where powers need not:
        # x ** 3 differs in the last bit for some x on some hosts
        pr = ModelParams(m=params.m, p=p, dim=1, cutoff=1)
        f = _bound_force(pr)
        x = rng.uniform(0.0, 2.0, 100_000)
        on_array = f(x)
        assert np.array_equal(on_array, [f(v) for v in x.tolist()])
        np.testing.assert_allclose(on_array, pr.m ** 2 * x - x ** (2 * p + 1),
                                   rtol=1e-13, atol=1e-15)


class TestHamiltonian:
    def test_zero_state(self, table):
        assert energy_breakdown(make_state(table), table).H == 0.0

    def test_planar_value(self, table):
        # H of (eta, 0) is f(eta)/2
        s = make_state(table, a0=0.1)
        assert energy_breakdown(s, table).H == pytest.approx(-0.001225, rel=1e-13)

    def test_separatrix_tip_has_zero_energy(self, table, params):
        s = make_state(table, a0=params.separatrix_amplitude)
        assert energy_breakdown(s, table).H == pytest.approx(0.0, abs=1e-15)

    def test_gradient_consistency(self, table, rng):
        # rhs must agree with central finite differences of H (step 1e-6)
        h = 1e-6
        for _ in range(20):
            s = random_state(table, rng)
            deriv = rhs(s, table)
            assert np.all(deriv.a == s.b)
            for n in range(table.mode_count):
                sp, sm = s.copy(), s.copy()
                sp.a[n] += h
                sm.a[n] -= h
                fd = -(energy_breakdown(sp, table).H - energy_breakdown(sm, table).H) / (2 * h)
                assert deriv.b[n] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_invariant_plane_exact(self, table):
        s = make_state(table, a0=0.3, b0=0.2)
        deriv = rhs(s, table)
        assert np.all(deriv.a[1:] == 0.0)
        assert np.all(deriv.b[1:] == 0.0)

    def test_planar_rhs_values(self, table, params):
        s = make_state(table, a0=params.center)
        deriv = rhs(s, table)
        assert abs(deriv.b[0]) < 1e-16
        eta = 0.05
        s = make_state(table, a0=eta)
        assert rhs(s, table).b[0] == pytest.approx(
            params.m ** 2 * eta - eta ** 3, rel=1e-13)
        assert rhs(s, table).b[0] > 0


class TestCouplingRemainder:
    def test_zero_for_planar(self, table):
        q = coupling_remainder(make_state(table, a0=0.4, b0=0.1), table)
        assert q[0] == 0.0 and np.linalg.norm(q[1:]) == 0.0

    def test_reduces_to_power_projection_at_a0_zero(self, table, rng):
        # at a0 = 0 the remainder is u^3 itself
        a = np.zeros(table.mode_count)
        a[1:] = 0.1 * rng.standard_normal(table.mode_count - 1)
        q = coupling_remainder(State(a, np.zeros(table.mode_count)), table)
        power = project_power(a, 3, table)
        assert abs(q[0] - power[0]) < 1e-15
        assert abs(np.linalg.norm(q[1:]) - np.linalg.norm(power[1:])) < 1e-15

    def test_quadratic_smallness(self, table, rng):
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
                q = coupling_remainder(s, table)
                worst = max(worst, math.hypot(q[0], np.linalg.norm(q[1:]))
                            / high_mode_energy(s, table))
            return worst

        r_coarse, r_fine = max_ratio(1e-2), max_ratio(1e-3)
        assert r_fine < 1.0
        assert 0.2 < r_coarse / r_fine < 5.0


class TestEnergyBreakdown:
    def test_single_mode_J(self, table):
        s = make_state(table)
        s.a[1] = 1e-3
        bd = energy_breakdown(s, table)
        expect = 0.5 * (4 * math.pi ** 2 - 0.25) * 1e-6
        assert bd.J == pytest.approx(expect, rel=1e-13)

    def test_I_shift(self, table):
        s = make_state(table, a0=0.1)
        s.a[1] = 1e-3
        bd = energy_breakdown(s, table)
        assert bd.I == pytest.approx(bd.J + 0.5 * 3 * 0.1 ** 2 * 1e-6, rel=1e-13)
        assert bd.I >= bd.J

    def test_planar_remainders_vanish(self, table):
        s = make_state(table, a0=0.2, b0=0.3)
        bd = energy_breakdown(s, table)
        q = coupling_remainder(s, table)
        assert bd.r == 0.0 and bd.r_hat == 0.0 and np.linalg.norm(q[1:]) == 0.0 and q[0] == 0.0

    def test_decomposition_identities(self, table, rng):
        for _ in range(10):
            s = random_state(table, rng)
            bd = energy_breakdown(s, table)
            H = energy_breakdown(s, table).H
            a0, b0 = s.a[0], s.b[0]
            lhs1 = 0.5 * b0 ** 2 + 0.5 * bd.f_a0 + bd.J + bd.r
            lhs2 = 0.5 * b0 ** 2 + 0.5 * bd.f_a0 + bd.I + bd.r_hat
            scale = max(1.0, abs(H))
            assert abs(lhs1 - H) < 1e-12 * scale
            assert abs(lhs2 - H) < 1e-12 * scale
            assert bd.J >= 0.0

    def test_stacked_fields_own_their_data(self, table, rng):
        # a field that is a view would keep a whole grid-sized array alive
        rows = [random_state(table, rng) for _ in range(5)]
        bd = energy_breakdown(State(np.array([s.a for s in rows]),
                                    np.array([s.b for s in rows])), table)
        for f in fields(bd):
            value = getattr(bd, f.name)
            assert value.shape == (5,) and value.base is None, f.name

    def test_stack_is_cut_into_blocks(self, rng):
        # a 420-row 3D K=4 stack in blocks of 3 rows: its fields are the
        # blocks' fields joined, bit for bit, and no temporary spans the
        # stack (whole-stack grids took 31.5 MiB)
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=3, cutoff=4,
                                           periods=(1.0, 1.0, 1.0)))
        rows = 3        # 2^15 grid values per block, two temporaries of 17^3 nodes
        stack = State(1e-2 * rng.standard_normal((420, table.mode_count)),
                      1e-2 * rng.standard_normal((420, table.mode_count)))
        blocks = [energy_breakdown(State(stack.a[i:i + rows], stack.b[i:i + rows]), table)
                  for i in range(0, 420, rows)]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            whole = energy_breakdown(stack, table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        for f in fields(whole):
            joined = np.concatenate([getattr(block, f.name) for block in blocks])
            assert np.array_equal(getattr(whole, f.name), joined), f.name
        assert peak < 2 ** 20, peak

    def test_equivalence_bound_holds(self, table, rng):
        for _ in range(10):
            s = random_state(table, rng, scale=0.2)
            bd = energy_breakdown(s, table)
            k0 = i_j_equivalence_bound(abs(s.a[0]), table)
            assert bd.J <= bd.I <= k0 * bd.J + 1e-18


class TestHighModeEnergy:
    """J's one home, ``high_mode_energy``, against ``energy_breakdown``."""

    @pytest.mark.parametrize("params", [
        ModelParams(m=0.5, p=1, dim=1, cutoff=32),
        ModelParams(m=0.5, p=2, dim=2, cutoff=3, periods=(2.0, 0.5)),
        ModelParams(m=0.5, p=1, dim=3, cutoff=4, periods=(1.0, 1.0, 1.0)),
    ], ids=["1d_k32", "2d_rect_k3", "3d_k4"])
    def test_equals_breakdown_bit_for_bit(self, params, rng):
        table = build_spectrum(params)
        stack = State(0.3 * rng.standard_normal((9, table.mode_count)),
                      0.3 * rng.standard_normal((9, table.mode_count)))
        stack.a[4, 1:] = stack.b[4, 1:] = 0.0      # one planar row
        J = high_mode_energy(stack, table)
        assert J.shape == (9,) and J.base is None
        assert np.array_equal(J, energy_breakdown(stack, table).J)
        assert J[4] == 0.0
        for row, (a, b) in enumerate(zip(stack.a, stack.b)):
            one = high_mode_energy(State(a, b), table)
            assert type(one) is float
            assert one == J[row] == energy_breakdown(State(a, b), table).J

    def test_validates_the_state(self, table):
        s = make_state(table)
        s.b[2] = np.inf
        with pytest.raises(NonFiniteState):
            high_mode_energy(s, table)
        with pytest.raises(DimensionMismatch):
            high_mode_energy(State(np.zeros(3), np.zeros(3)), table)


class TestModelFromTable:
    def test_kernel_exponent_and_energy_follow_the_table(self):
        # p = 2, m = 0.3 differs from every fixture: the force and the
        # energy must come from the table's own model
        table = build_spectrum(ModelParams(m=0.3, p=2, dim=1, cutoff=4))
        a0, b0 = 0.4, 0.1
        s = make_state(table, a0=a0, b0=b0)
        assert rhs(s, table).b[0] == pytest.approx(force(a0, table.params), rel=1e-15)
        assert energy_breakdown(s, table).H == pytest.approx(
            0.5 * b0 ** 2 + 0.5 * potential_f(a0, table.params), rel=1e-15)


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
        n = table.mode_count
        for shape_a, shape_b in (((2,), (2,)), ((n,), (3, n)), ((2, 3, n), (2, 3, n))):
            with pytest.raises(DimensionMismatch):
                xnorm(State(np.zeros(shape_a), np.zeros(shape_b)), table)

    def test_stack_rows_equal_one_state_calls(self, table, rng):
        stack = State(rng.standard_normal((7, table.mode_count)),
                      rng.standard_normal((7, table.mode_count)))
        norms = xnorm(stack, table)
        assert norms.shape == (7,)
        assert [xnorm(State(a, b), table) for a, b in zip(stack.a, stack.b)] == norms.tolist()
        assert dist_x(stack, State(stack.a[2], stack.b[2]), table)[2] == 0.0

