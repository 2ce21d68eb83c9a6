import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgorbit import (AssumptionViolated, DimensionMismatch, Mode, ModelParams, State,
                     StepperConfig, build_spectrum, energy_breakdown, evolve,
                     project_power, q_vector, to_grid, to_modes)
from kgorbit.spectra import (_CHUNK_VALUES, _analysis, _grid_power, _project_power_raw,
                             _synthesis)

SQRT2 = math.sqrt(2.0)


class TestBuildSpectrum:
    def test_circle_k1_structure(self):
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=1))
        assert table.mode_count == 3
        assert table.modes[0].kinds == ("const",) and table.modes[0].lam == 0.0
        assert table.modes[1].kinds == ("cos",)
        assert table.modes[2].kinds == ("sin",)
        assert table.lam[1] == pytest.approx(2 * math.pi, abs=0)
        assert table.lam[2] == pytest.approx(2 * math.pi, abs=0)

    def test_sorted_eigenvalues_and_lambda1(self, table):
        assert np.all(np.diff(table.lam) >= 0)
        assert table.lam[0] == 0.0
        assert table.lambda_1 == pytest.approx(2 * math.pi)

    def test_constant_mode_is_exactly_one(self, table):
        assert np.all(table.basis[0] == 1.0)

    def test_grid_large_enough_for_dealiasing(self, table):
        p, K = table.params.p, table.params.cutoff
        assert table.grid_shape[0] >= (2 * p + 2) * K + 1

    def test_mass_above_lambda1_rejected(self):
        with pytest.raises(AssumptionViolated):
            build_spectrum(ModelParams(m=7.0, p=1, dim=1, cutoff=8))

    def test_dim3_requires_p1(self):
        with pytest.raises(AssumptionViolated):
            ModelParams(m=0.5, p=2, dim=3, cutoff=2, periods=(1.0, 1.0, 1.0))

    def test_volume_must_be_one(self):
        with pytest.raises(AssumptionViolated):
            ModelParams(m=0.5, p=1, dim=2, cutoff=2, periods=(1.0, 2.0))

    def test_rectangular_torus_eigenvalues(self):
        params = ModelParams(m=0.5, p=1, dim=2, cutoff=2, periods=(2.0, 0.5))
        table = build_spectrum(params)
        # smallest nonzero frequency comes from the long axis
        assert table.lambda_1 == pytest.approx(2 * math.pi / 2.0)
        for mode in table.modes:
            expect = sum((2 * math.pi * k / L) ** 2
                         for k, L in zip(mode.wavevector, params.periods))
            assert mode.lam ** 2 == pytest.approx(expect, rel=1e-14, abs=1e-14)

    def test_unit_norms_under_quadrature(self, table):
        # <e_n, e_n> = 1 and <e_n, e_m> = 0 by the rectangle rule
        gram = table.basis @ table.basis.T / table.n_nodes
        assert np.abs(gram - np.eye(table.mode_count)).max() < 1e-13

    def test_1d_mode_order_is_tensor_order(self, table8):
        assert np.array_equal(table8.order, np.arange(table8.mode_count))
        assert np.array_equal(table8.basis, table8.factor)


def itertools_spectrum(params):
    """The enumerate-and-sort mode order that ``build_spectrum`` replaced:
    one record per ``itertools.product`` combination of per-axis factor
    rows, sorted on (lambda^2, wavevector, kind codes) tuples.  Returns
    (order, lam_sq, lam, modes).  lambda^2 adds the axes left to right, as
    ``sum`` does on floats before Python 3.12."""
    K, dim, periods = params.cutoff, params.dim, params.periods
    kind_code = {"const": 0, "cos": 1, "sin": 2}
    axis_factors = [(0, "const")] + [(k, t) for k in range(1, K + 1) for t in ("cos", "sin")]
    records = []
    for flat, combo in enumerate(itertools.product(axis_factors, repeat=dim)):
        wavevector = tuple(k for k, _ in combo)
        kinds = tuple(t for _, t in combo)
        lam_sq = 0
        for k, L in zip(wavevector, periods):
            lam_sq += (2.0 * math.pi * k / L) ** 2
        records.append((lam_sq, wavevector, tuple(kind_code[t] for t in kinds), kinds, flat))
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    lam_sq = np.array([r[0] for r in records])
    modes = tuple(Mode(index=idx, wavevector=wavevector, kinds=kinds, lam=float(math.sqrt(ls)))
                  for idx, (ls, wavevector, _, kinds, _) in enumerate(records))
    return np.array([r[4] for r in records], dtype=np.intp), lam_sq, np.sqrt(lam_sq), modes


def _assert_bits_equal(value, ref):
    assert value.dtype == ref.dtype and value.shape == ref.shape
    assert value.tobytes() == ref.tobytes()


def _assert_matches_reference(params):
    table = build_spectrum(params)
    order, lam_sq, lam, modes = itertools_spectrum(params)
    _assert_bits_equal(table.order, order)
    _assert_bits_equal(table.inverse, np.argsort(order))
    _assert_bits_equal(table.lam_sq, lam_sq)
    _assert_bits_equal(table.lam, lam)
    assert table.modes == modes
    for mode in table.modes:
        assert all(type(k) is int for k in mode.wavevector)
        assert type(mode.index) is int and type(mode.lam) is float


_REFERENCE_CASES = (
    [((1.0,), K, p) for K in (1, 8, 32) for p in (1, 2, 3)]
    + [(periods, 8, p) for periods in ((1.0, 1.0), (2.0, 0.5), (10.0, 0.1)) for p in (1, 2, 3)]
    + [((2.0, 0.5, 1.0), 3, 1), ((1.0, 1.0, 1.0), 8, 1)]
    # With glibc's pow, (2 pi / 0.595) ** 2 is one ulp off w * w, so this
    # case pins that the table squares each axis term as ``**`` does.
    + [((0.595, 1.0 / 0.595), 4, 1)])


@st.composite
def _admissible_tori(draw):
    """(dim, K, p, periods) with volume 1 and every side below 2 pi / m
    for m = 0.1; sides are either powers of two, which make eigenvalues
    of different wavevectors tie, or arbitrary."""
    dim = draw(st.integers(1, 3))
    sides = [draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                            st.floats(0.2, 5.0)))
             for _ in range(dim - 1)]
    periods = tuple(sides) + (1.0 / math.prod(sides),)
    p = 1 if dim == 3 else draw(st.integers(1, 3))
    return dim, draw(st.integers(1, 5)), p, periods


class TestArrayBuild:
    """``build_spectrum`` against the enumerate-and-sort reference, bit for bit."""

    @pytest.mark.parametrize("periods,K,p", _REFERENCE_CASES,
                             ids=[f"{periods}_k{K}_p{p}" for periods, K, p in _REFERENCE_CASES])
    def test_matches_itertools_reference(self, periods, K, p):
        _assert_matches_reference(ModelParams(m=0.05, p=p, dim=len(periods), cutoff=K,
                                              periods=periods))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(torus=_admissible_tori())
    def test_matches_itertools_reference_on_admissible_tori(self, torus):
        dim, K, p, periods = torus
        _assert_matches_reference(ModelParams(m=0.1, p=p, dim=dim, cutoff=K, periods=periods))

    def test_3d_run_builds_no_mode_records(self, rng):
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=3, cutoff=2,
                                           periods=(1.0, 1.0, 1.0)))
        a = np.zeros(table.mode_count)
        a[0], a[1:] = 0.6, 1e-3 * rng.standard_normal(table.mode_count - 1)
        traj = evolve(State(a, np.zeros(table.mode_count)),
                      StepperConfig(dt=1e-2, scheme="split2", max_time=0.2, sample_stride=5),
                      table)
        assert np.all(np.isfinite(traj.energy.H))
        assert "modes" not in table.__dict__
        assert table.modes[0].kinds == ("const",) * 3 and "modes" in table.__dict__


class TestTransforms:
    def test_constant_field(self, table):
        a = np.zeros(table.mode_count)
        a[0] = 3.25
        assert np.all(to_grid(a, table) == 3.25)

    def test_cos_mode_values(self):
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=1))
        a = np.zeros(3)
        a[1] = 1.0
        g = to_grid(a, table)
        x = table.nodes[0]
        assert np.abs(g - SQRT2 * np.cos(2 * np.pi * x)).max() < 1e-15

    def test_round_trip(self, table, rng):
        for _ in range(5):
            a = rng.standard_normal(table.mode_count)
            back = to_modes(to_grid(a, table), table)
            assert np.abs(back - a).max() < 1e-13

    def test_round_trip_dim2(self, rng):
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=2, cutoff=2, periods=(1.0, 1.0)))
        a = rng.standard_normal(table.mode_count)
        assert np.abs(to_modes(to_grid(a, table), table) - a).max() < 1e-13

    def test_round_trip_and_parseval_dim3(self, rng):
        table = build_spectrum(
            ModelParams(m=0.5, p=1, dim=3, cutoff=1, periods=(1.0, 1.0, 1.0)))
        assert table.mode_count == 27
        a = rng.standard_normal(table.mode_count)
        assert np.abs(to_modes(to_grid(a, table), table) - a).max() < 1e-13
        assert np.sum(a ** 2) == pytest.approx(np.mean(to_grid(a, table) ** 2), rel=1e-12)

    def test_parseval(self, table, rng):
        for _ in range(5):
            a = rng.standard_normal(table.mode_count)
            g = to_grid(a, table)
            assert np.sum(a ** 2) == pytest.approx(np.mean(g ** 2), rel=1e-12)

    def test_shape_mismatch(self, table):
        with pytest.raises(DimensionMismatch):
            to_grid(np.zeros(table.mode_count + 1), table)
        with pytest.raises(DimensionMismatch):
            to_modes(np.zeros(5), table)


class TestProjectPower:
    def test_constant_cubed(self, table):
        a = np.zeros(table.mode_count)
        a[0] = 0.4
        proj = project_power(a, 3, table)
        assert proj[0] == pytest.approx(0.4 ** 3, rel=1e-15)
        assert np.all(proj[1:] == 0.0)

    def test_cos_mode_cubed(self, table):
        # u = alpha sqrt(2) cos(2 pi x); cos^3 t = (3 cos t + cos 3t)/4 gives
        # coefficient 3 alpha^3/2 on the cos(2 pi x) mode and alpha^3/2 on
        # the cos(6 pi x) mode (values cross-checked by fine-grid quadrature
        # in test_matches_fine_grid_quadrature).
        alpha = 0.3
        a = np.zeros(table.mode_count)
        a[1] = alpha
        proj = project_power(a, 3, table)
        i3 = next(m.index for m in table.modes
                  if m.wavevector == (3,) and m.kinds == ("cos",))
        assert proj[1] == pytest.approx(1.5 * alpha ** 3, rel=1e-13)
        assert proj[i3] == pytest.approx(0.5 * alpha ** 3, rel=1e-13)
        others = [i for i in range(table.mode_count) if i not in (1, i3)]
        assert np.abs(proj[others]).max() < 1e-15

    def test_sin_mode_cubed_has_no_mean(self, table):
        a = np.zeros(table.mode_count)
        a[2] = 0.7  # pure sin(2 pi x) content
        proj = project_power(a, 3, table)
        assert abs(proj[0]) < 1e-14

    def test_matches_fine_grid_quadrature(self, table, rng):
        # independent oracle: rectangle rule on a 16x finer grid
        x = np.arange(16 * table.n_nodes) / (16 * table.n_nodes)
        for _ in range(3):
            a = rng.standard_normal(table.mode_count) * 0.5
            u = np.zeros_like(x)
            for mode, coeff in zip(table.modes, a):
                k = mode.wavevector[0]
                if mode.kinds[0] == "const":
                    u += coeff
                elif mode.kinds[0] == "cos":
                    u += coeff * SQRT2 * np.cos(2 * np.pi * k * x)
                else:
                    u += coeff * SQRT2 * np.sin(2 * np.pi * k * x)
            proj = project_power(a, 3, table)
            assert proj[0] == pytest.approx(np.mean(u ** 3), rel=1e-10, abs=1e-10)

    def test_parity_symmetry(self, table, rng):
        # x -> -x negates sine coefficients and fixes cosine ones; the
        # projection must commute with that map
        flip = np.array([-1.0 if m.kinds[0] == "sin" else 1.0 for m in table.modes])
        for _ in range(3):
            a = rng.standard_normal(table.mode_count)
            lhs = project_power(flip * a, 3, table)
            rhs = flip * project_power(a, 3, table)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_wrong_exponent_rejected(self, table):
        with pytest.raises(DimensionMismatch):
            project_power(np.zeros(table.mode_count), 5, table)


def _dense_analysis(g, table):
    """Rectangle-rule projection through the dense reference basis."""
    flat = g.reshape(-1)
    coeffs = (flat - flat[0]) @ table.basis_t_mean
    coeffs[0] += flat[0]
    return coeffs


def _assert_close(value, ref, rel=1e-13):
    assert np.abs(np.asarray(value) - ref).max() <= rel * np.abs(ref).max()


_AXIS_FACTOR = {"const": np.ones_like,
                "cos": lambda t: SQRT2 * np.cos(t),
                "sin": lambda t: SQRT2 * np.sin(t)}

_TORI = [
    ModelParams(m=0.5, p=1, dim=2, cutoff=3, periods=(2.0, 0.5)),
    ModelParams(m=0.5, p=1, dim=3, cutoff=2, periods=(1.0, 1.0, 1.0)),
]


class TestFactorisedTransforms:
    """Sum-factorised transforms against the dense mode x node reference."""

    @pytest.mark.parametrize("params", _TORI, ids=["2d_rect_k3", "3d_k2"])
    def test_matches_dense_basis(self, params, rng):
        table = build_spectrum(params)
        basis = table.basis
        assert basis.shape == (table.mode_count, table.n_nodes)
        # the reference itself, row by row from each mode's description
        for mode, row in zip(table.modes, basis):
            expect = np.ones(())
            for x, L, k, kind in zip(table.nodes, params.periods, mode.wavevector, mode.kinds):
                expect = np.multiply.outer(expect, _AXIS_FACTOR[kind](2 * np.pi * k * x / L))
            assert np.abs(row - expect.reshape(-1)).max() < 1e-13
        for _ in range(3):
            a = rng.standard_normal(table.mode_count)
            b = rng.standard_normal(table.mode_count)
            g_ref = a @ basis
            _assert_close(to_grid(a, table).reshape(-1), g_ref)
            _assert_close(to_modes(g_ref.reshape(table.grid_shape), table),
                          _dense_analysis(g_ref, table))
            _assert_close(project_power(a, 3, table), _dense_analysis(g_ref ** 3, table))

            bd = energy_breakdown(State(a, b), table)
            m2, a0 = params.m ** 2, a[0]
            mean_pow = np.mean(g_ref ** 4)
            q_ref = _dense_analysis(g_ref ** 3 - a0 ** 3 - 3 * a0 ** 2 * (g_ref - a0), table)
            assert bd.H == pytest.approx(
                0.5 * np.sum((table.lam_sq - m2) * a ** 2 + b ** 2) + mean_pow / 4, rel=1e-13)
            assert bd.r == pytest.approx((mean_pow - a0 ** 4) / 4, rel=1e-13)
            assert bd.q0 == pytest.approx(q_ref[0], rel=1e-13)
            assert bd.q_norm == pytest.approx(np.linalg.norm(q_ref[1:]), rel=1e-13)

    def test_planar_state_stays_exactly_planar_3d(self):
        params = _TORI[1]
        table = build_spectrum(params)
        a = np.zeros(table.mode_count)
        a[0] = 0.37
        s = State(a, np.zeros(table.mode_count))
        assert np.all(project_power(a, 3, table)[1:] == 0.0)
        assert np.all(q_vector(s, table)[1:] == 0.0)

    def test_3d_k8_table_beyond_dense_reach(self, rng):
        # the dense basis pair would take 2.8 GB here
        table = build_spectrum(
            ModelParams(m=0.5, p=1, dim=3, cutoff=8, periods=(1.0, 1.0, 1.0)))
        assert table.mode_count == 17 ** 3 and table.grid_shape == (33, 33, 33)
        held = 0
        for f in dataclasses.fields(table):
            value = getattr(table, f.name)
            arrays = value if isinstance(value, tuple) else (value,)
            held += sum(x.nbytes for x in arrays if isinstance(x, np.ndarray))
        assert held < 2 ** 20

        a = rng.standard_normal(table.mode_count)
        g = to_grid(a, table)
        assert np.abs(to_modes(g, table) - a).max() < 1e-13 * np.abs(a).max()
        # Parseval for the exact quadrature: <u^3, u> = mean of u^4
        assert a @ project_power(a, 3, table) == pytest.approx(np.mean(g ** 4), rel=1e-12)


class TestStackedTransforms:
    """A leading member axis: each row as its own single-state call."""

    def test_1d_single_member_stack_is_bit_identical(self, table8, rng):
        a = rng.standard_normal(table8.mode_count)
        single = _project_power_raw(a, 3, table8)
        stacked = _project_power_raw(a[None, :], 3, table8)
        assert stacked.shape == (1, table8.mode_count)
        assert np.array_equal(stacked[0], single)

    @pytest.mark.parametrize("params, members", [
        (_TORI[0], 5), (_TORI[1], 5),
        (ModelParams(m=0.5, p=1, dim=3, cutoff=4, periods=(1.0, 1.0, 1.0)), 12),
    ], ids=["2d_rect_k3", "3d_k2", "3d_k4_blocks"])
    def test_rows_match_single_calls(self, params, members, rng):
        table = build_spectrum(params)
        # only the 3D K=4 stack spans several row blocks of the kernel
        assert (members > _CHUNK_VALUES // table.n_nodes) == (params.cutoff == 4)
        a = rng.standard_normal((members, table.mode_count))
        b = rng.standard_normal((members, table.mode_count))
        a[2, 1:] = b[2, 1:] = 0.0       # one planar member
        stacked = _project_power_raw(a, 3, table)
        grids = _synthesis(a, table)
        stacked_bd = energy_breakdown(State(a, b), table)
        for row in range(members):
            _assert_close(stacked[row], project_power(a[row], 3, table))
            _assert_close(grids[row], to_grid(a[row], table).reshape(-1))
            single_bd = energy_breakdown(State(a[row], b[row]), table)
            for f in dataclasses.fields(single_bd):
                assert getattr(stacked_bd, f.name)[row] == pytest.approx(
                    getattr(single_bd, f.name), rel=1e-13, abs=1e-15)
        assert np.all(stacked[2, 1:] == 0.0)
        assert stacked_bd.J[2] == 0.0 and stacked_bd.q_norm[2] == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_1d_inline_kernel_equals_composed_transforms(self, p, rng):
        # the 1D kernel runs synthesis, power and analysis inline; a stack
        # past one chunk runs them per block of rows
        table = build_spectrum(ModelParams(m=0.5, p=p, dim=1, cutoff=8))
        exponent = 2 * p + 1
        rows = _CHUNK_VALUES // table.n_nodes
        for members in (1, 12, 24, rows + 5):
            a = 0.3 * rng.standard_normal((members, table.mode_count))
            a[members // 2, 1:] = 0.0       # one exactly constant field
            got = _project_power_raw(a, exponent, table)
            want = np.concatenate([
                _analysis(_grid_power(_synthesis(a[i:i + rows], table), exponent), table)
                for i in range(0, members, rows)])
            assert np.array_equal(got, want), members
            assert np.all(got[members // 2, 1:] == 0.0)
            assert got[members // 2, 0] != 0.0
