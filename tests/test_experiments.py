import math

import numpy as np
import pytest

from kgorbit import (EmptyModeSet, PerturbationSpec, State, StepperConfig,
                     ValidationError, default_band, dist_x, hamiltonian,
                     NoReturn, period, perturb_near_orbit, run_first_return,
                     run_first_returns, run_many_loops)
from kgorbit.experiments import (bound_check_I, linear_fit,
                                 period_scaling_sweep, phi_envelope_fit,
                                 power_law_fit)
from kgorbit.hamiltonian import energy_breakdown


@pytest.fixture(scope="module")
def cfg():
    return StepperConfig(dt=1e-3, scheme="rk4", max_time=100.0, sample_stride=50)


def base_state(table, eta):
    a = np.zeros(table.mode_count)
    a[0] = eta
    return State(a, np.zeros(table.mode_count))


class TestPerturbNearOrbit:
    def test_zero_amplitude_returns_base(self, table8, params8):
        spec = PerturbationSpec(amplitude=0.0, mode_set=())
        s = perturb_near_orbit(0.1, spec, table8, params8)
        assert s.a[0] == 0.1 and np.all(s.a[1:] == 0) and np.all(s.b == 0)

    def test_single_mode_layout(self, table8, params8):
        eps = 1e-4
        spec = PerturbationSpec(amplitude=eps, mode_set=(1,), distribution="single_mode")
        s = perturb_near_orbit(0.1, spec, table8, params8)
        assert s.a[1] == pytest.approx(eps / math.sqrt(1 + 4 * math.pi ** 2), rel=1e-13)
        assert np.all(s.b == 0.0)

    def test_exact_amplitude(self, table8, params8):
        base = base_state(table8, 0.1)
        for dist_name, seed in (("equipartition", None), ("single_mode", None),
                                ("random_direction", 11)):
            spec = PerturbationSpec(amplitude=1e-3, mode_set=tuple(range(1, 9)),
                                    distribution=dist_name, seed=seed)
            s = perturb_near_orbit(0.1, spec, table8, params8)
            assert abs(dist_x(s, base, table8) - 1e-3) < 1e-12 * 1e-3 + 1e-15

    def test_deterministic_in_seed(self, table8, params8):
        spec = PerturbationSpec(amplitude=1e-3, mode_set=(1, 2, 3),
                                distribution="random_direction", seed=42)
        s1 = perturb_near_orbit(0.1, spec, table8, params8)
        s2 = perturb_near_orbit(0.1, spec, table8, params8)
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)

    def test_empty_mode_set(self, table8, params8):
        with pytest.raises(EmptyModeSet):
            perturb_near_orbit(0.1, PerturbationSpec(amplitude=1e-3, mode_set=()),
                               table8, params8)

    def test_seed_required_for_random(self, table8, params8):
        spec = PerturbationSpec(amplitude=1e-3, mode_set=(1,),
                                distribution="random_direction")
        with pytest.raises(ValidationError):
            perturb_near_orbit(0.1, spec, table8, params8)

    def test_energy_close_to_loop_level(self, table8, params8):
        # perturbed energy is -m^2 eta^2/2 + O(eta^3); here the gap decays
        # like eta^4 because the base point carries no velocity
        gaps = []
        etas = (0.1, 0.05, 0.02)
        for eta in etas:
            spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                    distribution="equipartition")
            s = perturb_near_orbit(eta, spec, table8, params8)
            gaps.append(abs(hamiltonian(s, table8, params8)
                            + 0.5 * params8.m ** 2 * eta ** 2))
        fit = power_law_fit(etas, gaps)
        assert fit["exponent"] >= 3.0


class TestFirstReturn:
    def test_unperturbed_return_matches_period(self, table8, params8, cfg):
        eta = 0.1
        band = default_band(params8)
        s0 = base_state(table8, eta)
        res = run_first_return(s0, eta, band, cfg, table8, params8)
        T = period(eta, params8)
        assert abs(res.return_time - T) <= 1e-6 * T
        assert res.distance <= 1e-8
        assert res.J_at_return == 0.0

    def test_perturbed_return_bounded_growth(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=3)
        s0 = perturb_near_orbit(eta, spec, table8, params8)
        j0 = energy_breakdown(s0, table8, params8).J
        res = run_first_return(s0, eta, band, cfg, table8, params8)
        assert 0.0 < res.distance < eta ** 2
        assert res.J_at_return <= 50.0 * j0
        # the section pins the start coordinate at the return point
        assert abs(res.state.b[0] - s0.b[0]) <= 1e-10


    def test_ensemble_matches_member_runs(self, table8, params8):
        cfg = StepperConfig(dt=2e-3, scheme="rk4", max_time=100.0, sample_stride=50)
        band = default_band(params8)
        etas = [0.1, 0.1, 0.05, 0.02]
        starts = [perturb_near_orbit(
            eta, PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                  distribution="random_direction", seed=seed),
            table8, params8) for eta, seed in zip(etas, (1, 2, 1, 1))]
        stacked = run_first_returns(starts, etas, band, cfg, table8, params8)
        for s0, eta, got in zip(starts, etas, stacked):
            ref = run_first_return(s0, eta, band, cfg, table8, params8)
            for name in ("return_time", "distance", "J_at_return"):
                assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-9)

    def test_member_without_return_keeps_its_slot(self, table8, params8, monkeypatch):
        # a budget of 10 periods of 1e-3 leaves the eta = 0.05 member 10
        # steps, far short of its return
        import kgorbit.experiments as experiments
        real_period = experiments.period
        monkeypatch.setattr(experiments, "period",
                            lambda eta, params: 1e-3 if eta == 0.05 else real_period(eta, params))
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=100.0, sample_stride=50)
        band = default_band(params8)
        etas = [0.1, 0.05]
        out = run_first_returns([base_state(table8, e) for e in etas], etas, band, cfg,
                                table8, params8)
        assert isinstance(out[1], NoReturn)
        assert out[0].return_time == pytest.approx(period(0.1, params8), rel=1e-5)
        with pytest.raises(NoReturn):
            run_first_return(base_state(table8, 0.05), 0.05, band, cfg, table8, params8)


class TestManyLoops:
    def test_planar_chain(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        report = run_many_loops(base_state(table8, eta), eta, band, 3, cfg,
                                table8, params8)
        assert report.completed_loops == 3
        assert report.j_within_regime
        assert report.per_loop_growth == []
        for rec in report.loop_records:
            assert rec.return_distance <= 1e-8
            assert rec.max_J == 0.0

    def test_perturbed_chain_stays_in_regime(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=1)
        s0 = perturb_near_orbit(eta, spec, table8, params8)
        report = run_many_loops(s0, eta, band, 2, cfg, table8, params8,
                                dist_coefficient=1.0)
        assert report.completed_loops == 2
        assert report.j_within_regime
        assert report.regime_exited_at is None
        assert all(g > 0 for g in report.per_loop_growth)
        assert report.dist_within_bound is True
        times = [r.return_time for r in report.loop_records]
        assert all(t > 0 for t in times)
        t_series, j_series = report.J_series
        assert j_series.max() <= eta ** 5
        assert report.equivalence_bound > 1.0

    def test_chain_builds_no_loop_samples(self, table8, params8, cfg, monkeypatch):
        # every projection of this chain is defined, so dist_to_orbit needs
        # no dense loop samples and none may be built
        import kgorbit.experiments as experiments
        import kgorbit.stationary as stationary

        def refuse(*args, **kwargs):
            raise AssertionError("the chain built loop samples")
        monkeypatch.setattr(stationary, "sample_orbit", refuse)
        monkeypatch.setattr(experiments, "sample_orbit", refuse, raising=False)
        eta = 0.05
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=1)
        s0 = perturb_near_orbit(eta, spec, table8, params8)
        report = run_many_loops(s0, eta, default_band(params8), 1, cfg, table8, params8)
        assert report.completed_loops == 1
        assert report.max_dist_to_orbit > 0

    def test_determinism(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=9)

        def one():
            s0 = perturb_near_orbit(eta, spec, table8, params8)
            return run_many_loops(s0, eta, band, 2, cfg, table8, params8)

        r1, r2 = one(), one()
        assert [r.return_time for r in r1.loop_records] \
            == [r.return_time for r in r2.loop_records]
        assert [r.return_distance for r in r1.loop_records] \
            == [r.return_distance for r in r2.loop_records]
        assert np.array_equal(r1.J_series[1], r2.J_series[1])

    def test_cumulative_time_fit(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        report = run_many_loops(base_state(table8, eta), eta, band, 3, cfg,
                                table8, params8)
        fit = report.fits["cumulative_time_vs_loop"]
        # slope of cumulative time per loop is one loop period ~ A ln(1/eta)
        assert fit["slope"] == pytest.approx(period(eta, params8), rel=1e-4)
        assert fit["r_squared"] > 0.999999


class TestPeriodSweep:
    def test_fit_quality(self, params8):
        result = period_scaling_sweep([1e-1, 1e-2, 1e-3, 1e-4], params8)
        assert result["r_squared"] >= 0.999
        assert result["A"] > 0
        # saddle transit rate: A approaches 2/m
        assert abs(result["A"] - 2.0 / params8.m) / (2.0 / params8.m) < 0.1


class TestDiagnostics:
    def test_bound_check_vacuous_on_planar(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        res = run_first_return(base_state(table8, eta), eta, band, cfg,
                               table8, params8)
        chk = bound_check_I(res.trajectory, params8)
        assert chk.vacuous and chk.c_max is None

    def test_bound_check_stable_under_refinement(self, table8, params8):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=1)

        def c_for(stride):
            cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=100.0,
                                sample_stride=stride)
            s0 = perturb_near_orbit(eta, spec, table8, params8)
            res = run_first_return(s0, eta, band, cfg, table8, params8)
            return bound_check_I(res.trajectory, params8).c_max

        c1, c2 = c_for(40), c_for(20)
        assert c1 is not None and c2 is not None
        assert not math.isinf(c1) and c1 > 0
        assert 0.3 < c1 / c2 < 3.0

    def test_phi_envelope(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=2)
        s0 = perturb_near_orbit(eta, spec, table8, params8)
        res = run_first_return(s0, eta, band, cfg, table8, params8)
        fit = phi_envelope_fit(res.trajectory, eta)
        assert fit["phi"][0] == 0.0
        assert np.isfinite(fit["C"]) and fit["C"] >= 0.0


class TestFits:
    def test_linear_fit_exact_line(self):
        x = np.arange(10.0)
        fit = linear_fit(x, 3.0 * x - 1.0)
        assert fit["slope"] == pytest.approx(3.0)
        assert fit["intercept"] == pytest.approx(-1.0)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_power_law_fit(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = power_law_fit(x, 5.0 * x ** 2.5)
        assert fit["exponent"] == pytest.approx(2.5)
        assert fit["prefactor"] == pytest.approx(5.0)
