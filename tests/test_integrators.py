import math

import numpy as np
import pytest

from kgorbit import (NoCrossing, NonFiniteState, SectionSpec, State,
                     StepperConfig, dist_x, evolve, evolve_ensemble, homoclinic,
                     period, refine_crossing, rk4_step, split2_step)
from kgorbit.integrators import _LinearFlow


def planar(table, a0, b0=0.0, t=0.0):
    a = np.zeros(table.mode_count)
    b = np.zeros(table.mode_count)
    a[0], b[0] = a0, b0
    return State(a, b, t)


class TestSingleSteps:
    def test_zero_state_is_fixed(self, table, params):
        z = State(np.zeros(table.mode_count), np.zeros(table.mode_count))
        for step in (split2_step, rk4_step):
            out = step(z, 1e-2, table, params)
            assert np.all(out.a == 0.0) and np.all(out.b == 0.0)

    def test_linear_flow_is_exact_rotation(self, table, params, rng):
        # with the kick disabled each nonconstant mode rotates exactly:
        # omega^2 a^2 + b^2 is conserved to rounding over many steps
        s = State(np.zeros(table.mode_count), np.zeros(table.mode_count))
        s.a[1], s.b[1] = 0.3, -0.2
        w2 = table.lam_sq[1] - params.m ** 2
        inv0 = w2 * s.a[1] ** 2 + s.b[1] ** 2
        for _ in range(200):
            s = split2_step(s, 1e-2, table, params, nonlinear=False)
        inv1 = w2 * s.a[1] ** 2 + s.b[1] ** 2
        assert abs(inv1 - inv0) < 1e-13 * inv0

    def test_linear_blocks_have_unit_determinant(self, table, params):
        flow = _LinearFlow(table, params, 1e-3)
        det = flow.c ** 2 - flow.s * flow.g
        assert np.abs(det - 1.0).max() < 1e-15

    def test_convergence_orders(self, table, params):
        # global error against the closed-form saddle loop over T = 1
        start = homoclinic(-2.0, params)
        ref = homoclinic(-1.0, params)

        def run(scheme, dt):
            cfg = StepperConfig(dt=dt, scheme=scheme, max_time=1.0,
                                sample_stride=10 ** 9)
            st = evolve(planar(table, start.a0, start.b0), cfg, table, params).states[-1]
            return abs(st.a[0] - ref.a0) + abs(st.b[0] - ref.b0)

        ratio2 = run("split2", 1e-2) / run("split2", 5e-3)
        ratio4 = run("rk4", 1e-2) / run("rk4", 5e-3)
        assert 3.3 < ratio2 < 4.7
        assert 13.0 < ratio4 < 19.0

    def test_scheme_cross_agreement(self, params):
        # both schemes at dt = 1e-4 over T = 10 agree on a smooth state
        from kgorbit import ModelParams, build_spectrum
        p2 = ModelParams(m=0.5, p=1, dim=1, cutoff=2)
        t2 = build_spectrum(p2)
        a = np.zeros(t2.mode_count)
        b = np.zeros(t2.mode_count)
        a[0], a[1], b[2] = 0.1, 0.02, 0.01
        cfg_s = StepperConfig(dt=1e-4, scheme="split2", max_time=10.0, sample_stride=10 ** 9)
        cfg_r = StepperConfig(dt=1e-4, scheme="rk4", max_time=10.0, sample_stride=10 ** 9)
        end_s = evolve(State(a.copy(), b.copy()), cfg_s, t2, p2).states[-1]
        end_r = evolve(State(a.copy(), b.copy()), cfg_r, t2, p2).states[-1]
        assert dist_x(end_s, end_r, t2) < 1e-6


class TestEvolve:
    def test_planar_start_stays_exactly_planar(self, table, params):
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=20.0, sample_stride=1000)
        traj = evolve(planar(table, 0.1), cfg, table, params)
        for st in traj.states:
            assert float(np.sum(st.a[1:] ** 2 + st.b[1:] ** 2)) == 0.0

    def test_homoclinic_passage(self, table, params):
        start = homoclinic(-5.0, params)
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=5.0, sample_stride=10 ** 9)
        end = evolve(planar(table, start.a0, start.b0), cfg, table, params).states[-1]
        tip = homoclinic(0.0, params)
        assert abs(end.a[0] - tip.a0) < 1e-8
        assert abs(end.b[0]) < 1e-8

    def test_no_energy_drift(self, table8, params8, rng):
        from kgorbit import PerturbationSpec, perturb_near_orbit
        from kgorbit.experiments import linear_fit
        spec = PerturbationSpec(amplitude=1e-3, mode_set=tuple(range(1, 9)),
                                distribution="equipartition")
        s0 = perturb_near_orbit(0.1, None, spec, table8, params8)
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=100.0, sample_stride=100)
        traj = evolve(s0, cfg, table8, params8)
        h = traj.series("H")
        slope = linear_fit(traj.times, h - h[0])["slope"]
        assert abs(slope) < 1e-10

    def test_reversibility(self, table, params):
        s0 = planar(table, 0.1)
        cfg = StepperConfig(dt=1e-3, scheme="split2", max_time=20.0, sample_stride=10 ** 9)
        fwd = evolve(s0, cfg, table, params).states[-1]
        back = evolve(State(fwd.a, -fwd.b, 0.0), cfg, table, params).states[-1]
        assert dist_x(State(back.a, -back.b, 0.0), s0, table) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises(self, table, params):
        big = planar(table, 1e4, 1e4)
        cfg = StepperConfig(dt=10.0, scheme="rk4", max_time=100.0, sample_stride=1)
        with pytest.raises(NonFiniteState):
            evolve(big, cfg, table, params)

    def test_times_strictly_increasing_and_sampled(self, table, params):
        cfg = StepperConfig(dt=1e-2, scheme="split2", max_time=1.0, sample_stride=7)
        traj = evolve(planar(table, 0.1), cfg, table, params)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert len(traj.energy_series) == len(traj.states) == len(traj.times)

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
        traj = evolve(State(a.copy(), b.copy()), cfg, t2, p2)
        assert max(float(np.sum(st.a[1:] ** 2 + st.b[1:] ** 2)) for st in traj.states) == 0.0

        a[3], b[5] = 1e-3, 1e-3
        traj = evolve(State(a.copy(), b.copy()), cfg, t2, p2)
        h = traj.series("H")
        assert np.abs(h - h[0]).max() < 1e-8

        rng = np.random.default_rng(3)
        s = State(0.3 * rng.standard_normal(t2.mode_count),
                  0.3 * rng.standard_normal(t2.mode_count))
        deriv = rhs(s, t2, p2)
        step = 1e-6
        for n in range(0, t2.mode_count, 5):
            sp, sm = s.copy(), s.copy()
            sp.a[n] += step
            sm.a[n] -= step
            fd = -(hamiltonian(sp, t2, p2) - hamiltonian(sm, t2, p2)) / (2 * step)
            assert deriv.b[n] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestSections:
    def test_first_return_event_matches_period(self, table, params):
        eta = 0.1
        sec = SectionSpec(kind="b0_equals", level=0.0, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=50.0,
                            sample_stride=1000, section=sec)
        traj = evolve(planar(table, eta), cfg, table, params, max_events=1)
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
        traj = evolve(planar(table, eta), cfg, table, params)
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
        traj = evolve(planar(table, params.center + eps), cfg, table, params, max_events=1)
        omega = math.sqrt(2 * params.p) * params.m
        assert traj.events[0][0] == pytest.approx(math.pi / omega, rel=1e-5)

    def test_refine_crossing_contract(self, table, params):
        eta = 0.1
        sec = SectionSpec(kind="b0_equals", level=0.05, sign_constraint="a0_left_of_center")
        s = planar(table, eta)
        before = None
        for _ in range(2000):
            nxt = rk4_step(s, 1e-2, table, params)
            if (s.b[0] - sec.level) * (nxt.b[0] - sec.level) < 0:
                before, after = s, nxt
                break
            s = nxt
        assert before is not None
        t_ev, st_ev = refine_crossing(before, after, sec, table, params, scheme="rk4")
        assert before.t <= t_ev <= after.t
        assert abs(st_ev.b[0] - sec.level) <= 1e-10

    def test_refine_requires_sign_change(self, table, params):
        sec = SectionSpec(kind="a0_equals", level=5.0, sign_constraint="b0_positive")
        s0 = planar(table, 0.1, t=0.0)
        s1 = rk4_step(s0, 1e-3, table, params)
        with pytest.raises(NoCrossing):
            refine_crossing(s0, s1, sec, table, params, scheme="rk4")

    def test_refine_rejects_wrong_direction(self, table, params):
        # the return leg crosses a0 = 0.3 with b0 < 0; requesting
        # b0_positive must reject that crossing
        eta = 0.1
        sec = SectionSpec(kind="a0_equals", level=0.3, sign_constraint="b0_positive")
        s = planar(table, eta)
        before = None
        for _ in range(20000):
            nxt = rk4_step(s, 1e-2, table, params)
            if s.a[0] > 0.3 > nxt.a[0]:
                before, after = s, nxt
                break
            s = nxt
        assert before is not None
        with pytest.raises(NoCrossing):
            refine_crossing(before, after, sec, table, params, scheme="rk4")

    def test_rejected_crossings_counted_by_reason(self, table, params):
        # a0 = 0.6 lies right of the center 0.5, so the constraint
        # a0_left_of_center turns down every crossing of that section
        sec = SectionSpec(kind="a0_equals", level=0.6, sign_constraint="a0_left_of_center")
        cfg = StepperConfig(dt=1e-2, scheme="rk4", max_time=30.0,
                            sample_stride=100, section=sec)
        traj = evolve(planar(table, 0.1), cfg, table, params)
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

    def test_members_match_single_runs(self, table, params):
        starts, cfgs = self._members(table)
        limits = [1, None, 2]
        stacked = evolve_ensemble(starts, cfgs, table, params, max_events=limits)
        for s0, cfg, limit, got in zip(starts, cfgs, limits, stacked):
            ref = evolve(s0, cfg, table, params, max_events=limit)
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
    def test_blown_up_member_keeps_its_slot(self, table, params):
        cfg = StepperConfig(dt=1.0, scheme="rk4", max_time=20.0, sample_stride=1)
        out = evolve_ensemble([planar(table, 0.1), planar(table, 1e4, 1e4)],
                              [cfg, cfg], table, params)
        assert isinstance(out[1], NonFiniteState)
        assert len(out[0].times) == 21 and np.isfinite(out[0].a).all()

    def test_members_must_share_step(self, table, params):
        cfgs = [StepperConfig(dt=1e-2), StepperConfig(dt=2e-2)]
        with pytest.raises(ValueError):
            evolve_ensemble([planar(table, 0.1)] * 2, cfgs, table, params)

    def test_samples_are_read_only(self, table, params):
        cfg = StepperConfig(dt=1e-2, max_time=0.5, sample_stride=10)
        traj = evolve(planar(table, 0.1), cfg, table, params)
        with pytest.raises(ValueError):
            traj.states[0].a[0] = 1.0
        with pytest.raises(ValueError):
            traj.series("H")[0] = 1.0
