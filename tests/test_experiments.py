import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from kgorbit import (EmptyModeSet, ModelParams, NonFiniteState, PerturbationSpec, State,
                     StepperConfig, ValidationError, build_spectrum,
                     default_band, dist_x, NoReturn, period,
                     perturb_near_orbit, run_first_returns, run_many_loops)
from kgorbit.experiments import linear_fit, period_scaling_sweep, power_law_fit
from kgorbit.hamiltonian import energy_breakdown


@pytest.fixture(scope="module")
def cfg():
    return StepperConfig(dt=1e-3, scheme="rk4", max_time=100.0, sample_stride=50)


def base_state(table, eta):
    a = np.zeros(table.mode_count)
    a[0] = eta
    return State(a, np.zeros(table.mode_count))


# loop_bound_check_I flags sample times whose ratio exceeds this.
RATIO_CAP = 1e6


@dataclass
class IBound:
    """Empirical constant for |dI/dt| <= C (a0^(2p-1) |da0/dt| I + I^(3/2))."""

    c_max: float | None
    n_points: int
    vacuous: bool
    flagged_times: list[float]


def loop_bound_check_I(trajectory, table):
    """The largest ratio |dI/dt| / (a0^(2p-1) |da0/dt| I + I^(3/2)) over
    the interior samples of a kept run, dI/dt by centered differences,
    one Python step per sample.  Planar runs (I identically zero) are
    vacuous; samples whose ratio exceeds RATIO_CAP, or whose bound is zero
    while I changes, are flagged."""
    t = trajectory.times
    I_vals = energy_breakdown(State(trajectory.a, trajectory.b), table).I
    if np.all(I_vals == 0.0):
        return IBound(c_max=None, n_points=0, vacuous=True, flagged_times=[])
    p = table.params.p
    a0, b0 = trajectory.a0, trajectory.b0
    c_max = 0.0
    n_pts = 0
    flagged = []
    for i in range(1, len(t) - 1):
        dI = (I_vals[i + 1] - I_vals[i - 1]) / (t[i + 1] - t[i - 1])
        rhs_val = abs(a0[i]) ** (2 * p - 1) * abs(b0[i]) * I_vals[i] + I_vals[i] ** 1.5
        if rhs_val <= 0.0:
            if abs(dI) > 0.0:
                flagged.append(float(t[i]))
            continue
        ratio = abs(dI) / rhs_val
        n_pts += 1
        if ratio > RATIO_CAP:
            flagged.append(float(t[i]))
        c_max = max(c_max, ratio)
    return IBound(c_max=c_max if n_pts else None, n_points=n_pts,
                  vacuous=False, flagged_times=flagged)


class TestPerturbNearOrbit:
    def test_zero_amplitude_returns_base(self, table8):
        spec = PerturbationSpec(amplitude=0.0, mode_set=())
        s = perturb_near_orbit(0.1, spec, table8)
        assert s.a[0] == 0.1 and np.all(s.a[1:] == 0) and np.all(s.b == 0)

    def test_single_mode_layout(self, table8):
        eps = 1e-4
        spec = PerturbationSpec(amplitude=eps, mode_set=(1,), distribution="single_mode")
        s = perturb_near_orbit(0.1, spec, table8)
        assert s.a[1] == pytest.approx(eps / math.sqrt(1 + 4 * math.pi ** 2), rel=1e-13)
        assert np.all(s.b == 0.0)

    def test_exact_amplitude(self, table8):
        base = base_state(table8, 0.1)
        for dist_name, seed in (("equipartition", None), ("single_mode", None),
                                ("random_direction", 11)):
            spec = PerturbationSpec(amplitude=1e-3, mode_set=tuple(range(1, 9)),
                                    distribution=dist_name, seed=seed)
            s = perturb_near_orbit(0.1, spec, table8)
            assert abs(dist_x(s, base, table8) - 1e-3) < 1e-12 * 1e-3 + 1e-15

    def test_deterministic_in_seed(self, table8):
        spec = PerturbationSpec(amplitude=1e-3, mode_set=(1, 2, 3),
                                distribution="random_direction", seed=42)
        s1 = perturb_near_orbit(0.1, spec, table8)
        s2 = perturb_near_orbit(0.1, spec, table8)
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)

    def test_empty_mode_set(self, table8):
        with pytest.raises(EmptyModeSet):
            perturb_near_orbit(0.1, PerturbationSpec(amplitude=1e-3, mode_set=()),
                               table8)

    @pytest.mark.parametrize("amplitude", [-1e-3, math.nan, math.inf])
    def test_amplitude_must_be_finite_and_nonnegative(self, amplitude):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            PerturbationSpec(amplitude=amplitude)

    def test_seed_required_for_random(self, table8):
        spec = PerturbationSpec(amplitude=1e-3, mode_set=(1,),
                                distribution="random_direction")
        with pytest.raises(ValidationError):
            perturb_near_orbit(0.1, spec, table8)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 3.0, True, "1"])
    def test_seed_must_be_a_u64(self, seed):
        with pytest.raises(ValidationError, match=r"integer in \[0, 2\*\*64\)"):
            PerturbationSpec(amplitude=1e-3, distribution="random_direction", seed=seed)

    def test_numpy_integer_seed_is_an_int(self):
        spec = PerturbationSpec(amplitude=1e-3, seed=np.uint64(2 ** 64 - 1))
        assert type(spec.seed) is int and spec.seed == 2 ** 64 - 1

    def test_energy_close_to_loop_level(self, table8, params8):
        # perturbed energy is -m^2 eta^2/2 + O(eta^3); here the gap decays
        # like eta^4 because the base point carries no velocity
        gaps = []
        etas = (0.1, 0.05, 0.02)
        for eta in etas:
            spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                    distribution="equipartition")
            s = perturb_near_orbit(eta, spec, table8)
            gaps.append(abs(energy_breakdown(s, table8).H
                            + 0.5 * params8.m ** 2 * eta ** 2))
        fit = power_law_fit(etas, gaps)
        assert fit["exponent"] >= 3.0


class TestFirstReturn:
    def test_unperturbed_return_matches_period(self, table8, params8, cfg):
        eta = 0.1
        band = default_band(params8)
        s0 = base_state(table8, eta)
        res = run_first_returns([s0], [eta], band, cfg, table8)[0]
        T = period(eta, params8)
        assert abs(res.return_time - T) <= 1e-6 * T
        assert res.distance <= 1e-8
        assert res.J_at_return == 0.0

    def test_perturbed_return_bounded_growth(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=3)
        s0 = perturb_near_orbit(eta, spec, table8)
        j0 = energy_breakdown(s0, table8).J
        res = run_first_returns([s0], [eta], band, cfg, table8)[0]
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
            table8) for eta, seed in zip(etas, (1, 2, 1, 1))]
        stacked = run_first_returns(starts, etas, band, cfg, table8)
        for s0, eta, got in zip(starts, etas, stacked):
            ref = run_first_returns([s0], [eta], band, cfg, table8)[0]
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
                                table8)
        assert isinstance(out[1], NoReturn)
        assert out[0].return_time == pytest.approx(period(0.1, params8), rel=1e-5)
        alone = run_first_returns([base_state(table8, 0.05)], [0.05], band, cfg, table8)
        assert len(alone) == 1 and isinstance(alone[0], NoReturn)


class TestManyLoops:
    def test_planar_chain(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        report = run_many_loops(base_state(table8, eta), eta, band, 3, cfg,
                                table8)
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
        s0 = perturb_near_orbit(eta, spec, table8)
        report = run_many_loops(s0, eta, band, 2, cfg, table8,
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
        s0 = perturb_near_orbit(eta, spec, table8)
        report = run_many_loops(s0, eta, default_band(params8), 1, cfg, table8)
        assert report.completed_loops == 1
        assert report.max_dist_to_orbit > 0

    def test_loops_released_as_they_end(self):
        # each loop's samples go before the next loop integrates, so three
        # loops peak where one does; keeping the last loop's samples alive
        # while the next one runs reads about 1.5 times the one-loop peak
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=16))
        eta = 0.05
        spec = PerturbationSpec(amplitude=eta ** 3, distribution="random_direction", seed=1)
        s0 = perturb_near_orbit(eta, spec, table)
        cfg = StepperConfig(dt=1e-2, scheme="split2", max_time=100.0, sample_stride=1)
        band = default_band(table.params)

        def peak(budget):
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                report = run_many_loops(s0, eta, band, budget, cfg, table)
                return report, tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()

        peak(1)                      # first calls fill caches outside the chain
        (one, one_peak), (three, three_peak) = peak(1), peak(3)
        assert (one.completed_loops, three.completed_loops) == (1, 3)
        # each loop holds about 1600 samples of 33 modes, 0.8 MiB
        assert len(three.J_series[0]) > 3 * 1500
        assert three_peak <= 1.25 * one_peak

    def test_chain_holds_one_page_not_one_loop(self):
        # one loop of about 16,200 samples of 33 modes, 8.2 MiB of
        # coefficients at stride 1; the chain reads each page as it closes,
        # so its peak grows only by the times and J it keeps per sample
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=16))
        eta = 0.05
        spec = PerturbationSpec(amplitude=eta ** 3, distribution="random_direction", seed=1)
        s0 = perturb_near_orbit(eta, spec, table)
        band = default_band(table.params)

        def peak(stride):
            cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=100.0, sample_stride=stride)
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                report = run_many_loops(s0, eta, band, 1, cfg, table)
                return report, tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()

        peak(16)                     # first calls fill caches outside the chain
        (dense, dense_peak), (sparse, sparse_peak) = peak(1), peak(16)
        assert len(dense.J_series[0]) > 16000 and len(sparse.J_series[0]) > 1000
        assert dense_peak <= 1.4 * sparse_peak

    def test_loop_records_count_rejected_crossings(self, table8, params8, cfg,
                                                   monkeypatch):
        import kgorbit.experiments as experiments
        loops = []

        def first_returns(*args, **kwargs):
            out = run_first_returns(*args, **kwargs)
            loops.extend(res.trajectory for res in out)
            return out
        monkeypatch.setattr(experiments, "run_first_returns", first_returns)
        eta = 0.05
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=1)
        s0 = perturb_near_orbit(eta, spec, table8)
        report = run_many_loops(s0, eta, default_band(params8), 2, cfg, table8)
        assert len(loops) == len(report.loop_records) == 2
        for rec, traj in zip(report.loop_records, loops):
            assert rec.rejected_crossings == traj.rejected
            # the far turning point crosses the b0 section on the wrong side
            assert rec.rejected_crossings["sign_constraint"] >= 1

    def test_loop_without_return_ends_the_chain(self, table8, params8, cfg, monkeypatch):
        # from the second loop on, a budget of 10 periods of 1e-3 leaves
        # each loop 10 steps, far short of its return
        import kgorbit.experiments as experiments
        real_period = experiments.period
        calls = []

        def period(eta, params):
            calls.append(eta)
            return real_period(eta, params) if len(calls) == 1 else 1e-3
        monkeypatch.setattr(experiments, "period", period)
        eta = 0.05
        report = run_many_loops(base_state(table8, eta), eta, default_band(params8), 3, cfg,
                                table8)
        assert len(calls) == 2
        assert report.regime_exited_at == 1
        assert report.completed_loops == len(report.loop_records) == 1
        assert report.requested_loops == 3
        assert not report.j_within_regime

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loop_raises(self, table8, params8, cfg):
        # b0 = 1e100 turns NaN in the first rk4 step
        eta = 0.05
        s0 = base_state(table8, eta)
        s0.b[0] = 1e100
        with pytest.raises(NonFiniteState):
            run_many_loops(s0, eta, default_band(params8), 3, cfg, table8)

    def test_determinism(self, table8, params8, cfg):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=9)

        def one():
            s0 = perturb_near_orbit(eta, spec, table8)
            return run_many_loops(s0, eta, band, 2, cfg, table8)

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
                                table8)
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
        res = run_first_returns([base_state(table8, eta)], [eta], band, cfg,
                                table8)[0]
        chk = loop_bound_check_I(res.trajectory, table8)
        assert chk.vacuous and chk.c_max is None

    def test_bound_check_stable_under_refinement(self, table8, params8):
        eta = 0.05
        band = default_band(params8)
        spec = PerturbationSpec(amplitude=eta ** 3, mode_set=tuple(range(1, 9)),
                                distribution="random_direction", seed=1)

        def c_for(stride):
            cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=100.0,
                                sample_stride=stride)
            s0 = perturb_near_orbit(eta, spec, table8)
            res = run_first_returns([s0], [eta], band, cfg, table8)[0]
            return loop_bound_check_I(res.trajectory, table8).c_max

        c1, c2 = c_for(40), c_for(20)
        assert c1 is not None and c2 is not None
        assert not math.isinf(c1) and c1 > 0
        assert 0.3 < c1 / c2 < 3.0


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
