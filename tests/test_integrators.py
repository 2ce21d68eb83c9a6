import math

import numpy as np
import pytest

from kgorbit import (NoCrossing, NonFiniteState, SectionSpec, State,
                     StepperConfig, dist_x, evolve, evolve_ensemble, homoclinic,
                     period, refine_crossing, rk4_step, split2_step)
from kgorbit.integrators import _LinearFlow, _stage
from kgorbit.spectra import _project_power_raw


def planar(table, a0, b0=0.0, t=0.0):
    a = np.zeros(table.mode_count)
    b = np.zeros(table.mode_count)
    a[0], b[0] = a0, b0
    return State(a, b, t)


def last(traj):
    """The final sample of a trajectory as a State."""
    return State(traj.a[-1], traj.b[-1], float(traj.times[-1]))


def rk4_reference(dt, table):
    """Classical RK4 on the full vector field, one force evaluation per
    stage: the four-call form the paired stage must reproduce."""
    exponent = 2 * table.params.p + 1
    w2 = (table.lam_sq - table.params.m ** 2)[None]

    def db(av):
        out = -w2 * av
        out -= _project_power_raw(av, exponent, table)
        return out

    def rk4(a, b):
        k1a, k1b = b, db(a)
        k2a, k2b = b + 0.5 * dt * k1b, db(a + 0.5 * dt * k1a)
        k3a, k3b = b + 0.5 * dt * k2b, db(a + 0.5 * dt * k2a)
        k4a, k4b = b + dt * k3b, db(a + dt * k3a)
        return (a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a),
                b + dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b))
    return rk4


_RK4_STACKS = [
    (dict(m=0.5, p=1, dim=1, cutoff=8), 1),
    (dict(m=0.5, p=1, dim=1, cutoff=8), 12),
    (dict(m=0.5, p=1, dim=2, cutoff=3, periods=(2.0, 0.5)), 12),
    (dict(m=0.5, p=1, dim=3, cutoff=2, periods=(1.0, 1.0, 1.0)), 12),
]


class TestSingleSteps:
    def test_zero_state_is_fixed(self, table):
        z = State(np.zeros(table.mode_count), np.zeros(table.mode_count))
        for step in (split2_step, rk4_step):
            out = step(z, 1e-2, table)
            assert np.all(out.a == 0.0) and np.all(out.b == 0.0)

    def test_linear_flow_is_exact_rotation(self, table, params, rng):
        # the linear part of a Strang step rotates each nonconstant mode
        # exactly: omega^2 a^2 + b^2 is conserved to rounding over many steps
        a, b = np.zeros((1, table.mode_count)), np.zeros((1, table.mode_count))
        a[0, 1], b[0, 1] = 0.3, -0.2
        w2 = table.lam_sq[1] - params.m ** 2
        inv0 = w2 * a[0, 1] ** 2 + b[0, 1] ** 2
        flow = _LinearFlow(table, 1e-2)
        for _ in range(200):
            a, b = flow.apply(a, b)
        inv1 = w2 * a[0, 1] ** 2 + b[0, 1] ** 2
        assert abs(inv1 - inv0) < 1e-13 * inv0

    def test_linear_blocks_have_unit_determinant(self, table):
        flow = _LinearFlow(table, 1e-3)
        det = flow.c ** 2 - flow.s * flow.g
        assert np.abs(det - 1.0).max() < 1e-15

    def test_convergence_orders(self, table, params):
        # global error against the closed-form saddle loop over T = 1
        start = homoclinic(-2.0, params)
        ref = homoclinic(-1.0, params)

        def run(scheme, dt):
            cfg = StepperConfig(dt=dt, scheme=scheme, max_time=1.0,
                                sample_stride=10 ** 9)
            st = last(evolve(planar(table, start.a0, start.b0), cfg, table))
            return abs(st.a[0] - ref.a0) + abs(st.b[0] - ref.b0)

        ratio2 = run("split2", 1e-2) / run("split2", 5e-3)
        ratio4 = run("rk4", 1e-2) / run("rk4", 5e-3)
        assert 3.3 < ratio2 < 4.7
        assert 13.0 < ratio4 < 19.0

    @pytest.mark.parametrize("model, members", _RK4_STACKS,
                             ids=["1d_k8_one", "1d_k8_e12", "2d_rect_k3_e12", "3d_k2_e12"])
    def test_rk4_pairs_match_four_call_reference(self, model, members, rng):
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(**model))
        a = 0.1 * rng.standard_normal((members, table.mode_count))
        b = 0.1 * rng.standard_normal((members, table.mode_count))
        a[:, 0] += 0.3
        for dt in (1e-3, 1e-2):
            got_a, got_b, _ = _stage("rk4", dt, table)(a, b)
            ref_a, ref_b = rk4_reference(dt, table)(a, b)
            assert np.abs(got_a - ref_a).max() <= 1e-15 * np.abs(ref_a).max()
            assert np.abs(got_b - ref_b).max() <= 1e-15 * np.abs(ref_b).max()

    def test_scheme_cross_agreement(self):
        # both schemes at dt = 1e-4 over T = 10 agree on a smooth state
        from kgorbit import ModelParams, build_spectrum
        p2 = ModelParams(m=0.5, p=1, dim=1, cutoff=2)
        t2 = build_spectrum(p2)
        a = np.zeros(t2.mode_count)
        b = np.zeros(t2.mode_count)
        a[0], a[1], b[2] = 0.1, 0.02, 0.01
        cfg_s = StepperConfig(dt=1e-4, scheme="split2", max_time=10.0, sample_stride=10 ** 9)
        cfg_r = StepperConfig(dt=1e-4, scheme="rk4", max_time=10.0, sample_stride=10 ** 9)
        end_s = last(evolve(State(a.copy(), b.copy()), cfg_s, t2))
        end_r = last(evolve(State(a.copy(), b.copy()), cfg_r, t2))
        assert dist_x(end_s, end_r, t2) < 1e-6


class TestEvolve:
    def test_planar_start_stays_exactly_planar(self, table):
        for scheme in ("split2", "rk4"):
            cfg = StepperConfig(dt=1e-3, scheme=scheme, max_time=20.0, sample_stride=1000)
            traj = evolve(planar(table, 0.1), cfg, table)
            for a, b in zip(traj.a, traj.b):
                assert float(np.sum(a[1:] ** 2 + b[1:] ** 2)) == 0.0, scheme

    def test_homoclinic_passage(self, table, params):
        start = homoclinic(-5.0, params)
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=5.0, sample_stride=10 ** 9)
        end = last(evolve(planar(table, start.a0, start.b0), cfg, table))
        tip = homoclinic(0.0, params)
        assert abs(end.a[0] - tip.a0) < 1e-8
        assert abs(end.b[0]) < 1e-8

    def test_no_energy_drift(self, table8, rng):
        from kgorbit import PerturbationSpec, perturb_near_orbit
        from kgorbit.experiments import linear_fit
        spec = PerturbationSpec(amplitude=1e-3, mode_set=tuple(range(1, 9)),
                                distribution="equipartition")
        s0 = perturb_near_orbit(0.1, spec, table8)
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=100.0, sample_stride=100)
        traj = evolve(s0, cfg, table8)
        h = traj.energy.H
        slope = linear_fit(traj.times, h - h[0])["slope"]
        assert abs(slope) < 1e-10

    def test_reversibility(self, table):
        s0 = planar(table, 0.1)
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=20.0, sample_stride=10 ** 9)
        fwd = last(evolve(s0, cfg, table))
        back = last(evolve(State(fwd.a, -fwd.b, 0.0), cfg, table))
        assert dist_x(State(back.a, -back.b, 0.0), s0, table) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises(self, table):
        big = planar(table, 1e4, 1e4)
        cfg = StepperConfig(dt=10.0, scheme="rk4", max_time=100.0, sample_stride=1)
        with pytest.raises(NonFiniteState):
            evolve(big, cfg, table)

    def test_times_strictly_increasing_and_sampled(self, table):
        cfg = StepperConfig(dt=1e-2, scheme="split2", max_time=1.0, sample_stride=7)
        traj = evolve(planar(table, 0.1), cfg, table)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert len(traj.energy.H) == len(traj.a) == len(traj.times)

    def test_square_torus_dynamics(self):
        # the tensor-grid path: planar exactness, bounded energy error and
        # gradient consistency on a 2-torus
        from kgorbit import ModelParams, build_spectrum, hamiltonian, rhs
        p2 = ModelParams(m=0.5, p=1, dim=2, cutoff=2, periods=(1.0, 1.0))
        t2 = build_spectrum(p2)
        a = np.zeros(t2.mode_count)
        b = np.zeros(t2.mode_count)
        a[0] = 0.1
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=5.0, sample_stride=500)
        traj = evolve(State(a.copy(), b.copy()), cfg, t2)
        assert max(float(np.sum(a[1:] ** 2 + b[1:] ** 2)) for a, b in zip(traj.a, traj.b)) == 0.0

        a[3], b[5] = 1e-3, 1e-3
        traj = evolve(State(a.copy(), b.copy()), cfg, t2)
        h = traj.energy.H
        assert np.abs(h - h[0]).max() < 1e-8

        rng = np.random.default_rng(3)
        s = State(0.3 * rng.standard_normal(t2.mode_count),
                  0.3 * rng.standard_normal(t2.mode_count))
        deriv = rhs(s, t2)
        step = 1e-6
        for n in range(0, t2.mode_count, 5):
            sp, sm = s.copy(), s.copy()
            sp.a[n] += step
            sm.a[n] -= step
            fd = -(hamiltonian(sp, t2) - hamiltonian(sm, t2)) / (2 * step)
            assert deriv.b[n] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestSections:
    def test_first_return_event_matches_period(self, table, params):
        eta = 0.1
        sec = SectionSpec(kind="b0_equals", level=0.0, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=50.0,
                            sample_stride=1000, section=sec)
        traj = evolve(planar(table, eta), cfg, table, max_events=1)
        assert len(traj.events) == 1
        t_ev, st_ev = traj.events[0]
        assert abs(t_ev - period(eta, params)) < 1e-6 * period(eta, params)
        assert abs(st_ev.b[0]) <= 1e-10

    def test_wrong_side_crossing_filtered(self, table, params):
        # the far turning point crosses b0 = 0 on the right of the center;
        # requesting the left side must skip it and find the full loop
        eta = 0.1
        sec = SectionSpec(kind="b0_equals", level=0.0, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=50.0,
                            sample_stride=1000, section=sec)
        traj = evolve(planar(table, eta), cfg, table)
        # a full window of 50 time units holds three loops; every recorded
        # event must sit on the admissible side
        assert len(traj.events) >= 2
        for _, st in traj.events:
            assert st.a[0] < params.center

    def test_small_oscillation_half_period(self, table, params):
        # linearisation about the interior center: frequency sqrt(2p) m, so
        # starting at (center + eps, 0) the first b0 = 0 crossing sits at a
        # half period pi / (sqrt(2) m)
        eps = 1e-4
        sec = SectionSpec(kind="b0_equals", level=0.0, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-4, scheme="rk4", max_time=10.0,
                            sample_stride=10 ** 9, section=sec)
        traj = evolve(planar(table, params.center + eps), cfg, table, max_events=1)
        omega = math.sqrt(2 * params.p) * params.m
        assert traj.events[0][0] == pytest.approx(math.pi / omega, rel=1e-5)

    @staticmethod
    def _bracket(sec, table):
        """The rk4 steps (dt 1e-2, from (0.1, 0)) on either side of the
        first crossing of the b0 level of ``sec``."""
        s = planar(table, 0.1)
        for _ in range(2000):
            nxt = rk4_step(s, 1e-2, table)
            if (s.b[0] - sec.level) * (nxt.b[0] - sec.level) < 0:
                return s, nxt
            s = nxt
        raise AssertionError("no crossing within 20 time units")

    def test_refine_crossing_contract(self, table):
        sec = SectionSpec(kind="b0_equals", level=0.05, sign_constraint="a0_left_of_center")
        before, after = self._bracket(sec, table)
        t_ev, st_ev = refine_crossing(before, after, sec, table, scheme="rk4")
        assert before.t <= t_ev <= after.t
        assert abs(st_ev.b[0] - sec.level) <= 1e-10

    def test_refine_stalls_without_bisections(self, table, monkeypatch):
        # three halvings of a 1e-2 step cannot reach |residual| <= 1e-10
        from kgorbit import integrators
        sec = SectionSpec(kind="b0_equals", level=0.05, sign_constraint="a0_left_of_center")
        before, after = self._bracket(sec, table)
        monkeypatch.setattr(integrators, "_REFINE_MAX_ITER", 3)
        with pytest.raises(NoCrossing) as err:
            refine_crossing(before, after, sec, table, scheme="rk4")
        assert err.value.reason == "stalled"

    def test_refine_requires_sign_change(self, table):
        sec = SectionSpec(kind="a0_equals", level=5.0, sign_constraint="b0_positive")
        s0 = planar(table, 0.1, t=0.0)
        s1 = rk4_step(s0, 1e-3, table)
        with pytest.raises(NoCrossing):
            refine_crossing(s0, s1, sec, table, scheme="rk4")

    def test_refine_rejects_wrong_direction(self, table):
        # the return leg crosses a0 = 0.3 with b0 < 0; requesting
        # b0_positive must reject that crossing
        eta = 0.1
        sec = SectionSpec(kind="a0_equals", level=0.3, sign_constraint="b0_positive")
        s = planar(table, eta)
        before = None
        for _ in range(20000):
            nxt = rk4_step(s, 1e-2, table)
            if s.a[0] > 0.3 > nxt.a[0]:
                before, after = s, nxt
                break
            s = nxt
        assert before is not None
        with pytest.raises(NoCrossing):
            refine_crossing(before, after, sec, table, scheme="rk4")

    def test_rejected_crossings_counted_by_reason(self, table):
        # a0 = 0.6 lies right of the center 0.5, so the constraint
        # a0_left_of_center turns down every crossing of that section
        sec = SectionSpec(kind="a0_equals", level=0.6, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-2, scheme="rk4", max_time=30.0,
                            sample_stride=100, section=sec)
        traj = evolve(planar(table, 0.1), cfg, table)
        assert traj.events == []
        assert traj.rejected["sign_constraint"] > 0
        assert traj.rejected["stalled"] == traj.rejected["no_sign_change"] == 0


class TestEnsemble:
    def _members(self, table):
        starts = [planar(table, 0.1), planar(table, 0.05, t=1.5), planar(table, 0.2)]
        starts[1].a[2], starts[2].b[3] = 1e-4, -2e-4
        secs = [SectionSpec("b0_equals", 0.0, "a0_left_of_center"),
                None,
                SectionSpec("a0_equals", 0.3, "b0_positive")]
        horizons = [40.0, 7.3, 25.0]
        return starts, [StepperConfig(dt=1e-2, scheme="rk4", max_time=T,
                                      sample_stride=7, section=sec)
                        for T, sec in zip(horizons, secs)]

    def test_members_match_single_runs(self, table):
        starts, cfgs = self._members(table)
        limits = [1, None, 2]
        stacked = evolve_ensemble(starts, cfgs, table, max_events=limits)
        for s0, cfg, limit, got in zip(starts, cfgs, limits, stacked):
            ref = evolve(s0, cfg, table, max_events=limit)
            assert np.array_equal(got.times, ref.times)
            assert np.abs(got.a - ref.a).max() <= 1e-12 * np.abs(ref.a).max()
            assert np.abs(got.b - ref.b).max() <= 1e-12 * np.abs(ref.b).max()
            assert len(got.events) == len(ref.events)
            for (t_got, st_got), (t_ref, st_ref) in zip(got.events, ref.events):
                assert t_got == pytest.approx(t_ref, rel=1e-12)
                assert dist_x(st_got, st_ref, table) <= 1e-12
            assert got.rejected == ref.rejected
        # the event budgets stop members 0 and 2 early; member 1 runs to
        # its horizon from its own start time
        assert len(stacked[0].events) == 1 and len(stacked[2].events) == 2
        assert stacked[0].times[-1] < 40.0
        assert stacked[1].times[-1] == pytest.approx(1.5 + 7.3)
        assert stacked[1].events == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blown_up_member_keeps_its_slot(self, table):
        cfg = StepperConfig(dt=1.0, scheme="rk4", max_time=20.0, sample_stride=1)
        out = evolve_ensemble([planar(table, 0.1), planar(table, 1e4, 1e4)],
                              [cfg, cfg], table)
        assert isinstance(out[1], NonFiniteState)
        assert len(out[0].times) == 21 and np.isfinite(out[0].a).all()

    def test_members_must_share_step(self, table):
        cfgs = [StepperConfig(dt=1e-2), StepperConfig(dt=2e-2)]
        with pytest.raises(ValueError):
            evolve_ensemble([planar(table, 0.1)] * 2, cfgs, table)

    def test_samples_are_read_only(self, table):
        cfg = StepperConfig(dt=1e-2, max_time=0.5, sample_stride=10)
        traj = evolve(planar(table, 0.1), cfg, table)
        with pytest.raises(ValueError):
            traj.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            traj.energy.H[0] = 1.0


class TestForceReuse:
    """split2 opens each step with the force its previous step closed with."""

    def _start(self, table, eta, seed):
        from kgorbit import PerturbationSpec, perturb_near_orbit
        spec = PerturbationSpec(amplitude=1e-2, mode_set=(1, 2, 3),
                                distribution="random_direction", seed=seed)
        return perturb_near_orbit(eta, spec, table)

    def test_one_member_equals_step_loop(self, table8):
        # the reference loop evaluates both kicks of every step
        s = self._start(table8, 0.1, 1)
        cfg = StepperConfig(dt=1e-2, scheme="split2", max_time=3.0, sample_stride=1)
        traj = evolve(s, cfg, table8)
        assert len(traj.times) == 301
        for i in range(1, len(traj.times)):
            s = split2_step(s, cfg.dt, table8)
            assert np.array_equal(traj.a[i], s.a) and np.array_equal(traj.b[i], s.b)

    def test_one_kernel_call_per_step(self, table, monkeypatch):
        from kgorbit import integrators
        kernel = integrators._project_power_raw
        calls = []

        def counted(a, exponent, table):
            calls.append(len(a))
            return kernel(a, exponent, table)

        monkeypatch.setattr(integrators, "_project_power_raw", counted)
        # split2 carries its closing force into the next step; rk4 stacks
        # its four stages in two pairs of rows
        for scheme, per_run in (("split2", [1] * (50 + 1)), ("rk4", [2] * (2 * 50))):
            calls.clear()
            cfg = StepperConfig(dt=1e-2, scheme=scheme, max_time=0.5, sample_stride=7)
            evolve(planar(table, 0.1), cfg, table)
            assert calls == per_run, scheme
        calls.clear()
        rk4_step(planar(table, 0.1), 1e-2, table)
        assert calls == [2, 2]

    def test_member_leaving_keeps_forces_aligned(self, table8):
        # the middle member leaves the stack first, so the carried force
        # must drop its row, not the last one
        starts = [self._start(table8, eta, seed)
                  for eta, seed in ((0.1, 1), (0.05, 2), (0.2, 3))]
        cfgs = [StepperConfig(dt=1e-2, scheme="split2", max_time=T, sample_stride=5)
                for T in (4.0, 1.5, 4.0)]
        stacked = evolve_ensemble(starts, cfgs, table8)
        for s0, cfg, got in zip(starts, cfgs, stacked):
            ref = evolve(s0, cfg, table8)
            assert np.array_equal(got.times, ref.times)
            assert np.abs(got.a - ref.a).max() <= 1e-12
            assert np.abs(got.b - ref.b).max() <= 1e-12
