import math
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from kgorbit import (EnergyBreakdown, InsufficientSamples, NoCrossing, NonFiniteState,
                     SectionSpec, State, StepperConfig, dist_x, energy_breakdown, evolve,
                     evolve_ensemble, homoclinic, period, refine_crossing, rk4_step,
                     split2_step)
from kgorbit.integrators import _BLOCK_STEPS, _LinearFlow, _stage
from kgorbit.spectra import _CHUNK_VALUES, _project_power_raw


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


def evolve_reference(states, cfgs, table, max_events=None):
    """The time loop one step at a time: a crossing test and the samples
    after every step, a member leaving the stack at the step it stops.
    The reference the block loop of ``evolve_ensemble`` must reproduce.
    Returns per member (times, a, b, events, rejected) or the
    NonFiniteState that stopped it."""
    if max_events is None or np.ndim(max_events) == 0:
        max_events = [max_events] * len(states)
    dt, stride, scheme = cfgs[0].dt, cfgs[0].sample_stride, cfgs[0].scheme
    stage = _stage(scheme, dt, table)
    members = [{"t0": s.t, "section": c.section, "limit": limit,
                "horizon": max(1, int(round(c.max_time / c.dt))),
                "times": [], "a": [], "b": [], "events": [], "error": None,
                "rejected": {"sign_constraint": 0, "stalled": 0, "no_sign_change": 0}}
               for s, c, limit in zip(states, cfgs, max_events)]

    def sample(m, t, a, b):
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            m["error"] = NonFiniteState(f"non-finite coefficients at t = {t}")
            return
        m["times"].append(t)
        m["a"].append(a)
        m["b"].append(b)

    a = np.array([s.a for s in states], dtype=float)
    b = np.array([s.b for s in states], dtype=float)
    for k, m in enumerate(members):
        sample(m, m["t0"], a[k], b[k])
    active = list(range(len(members)))
    on_a0 = np.array([m["section"] is not None and m["section"].kind == "a0_equals"
                      for m in members])
    levels = np.array([m["section"].level if m["section"] is not None else 0.0
                       for m in members])
    res = np.where(on_a0, a[:, 0], b[:, 0]) - levels
    kick = None
    i = 0
    while active:
        i += 1
        prev_a, prev_b = a, b
        a, b, kick = stage(a, b, kick)
        leaving = set()
        res_new = np.where(on_a0, a[:, 0], b[:, 0]) - levels
        for r in range(len(active)):
            m = members[active[r]]
            r_prev, r_now = res[r], res_new[r]
            if m["section"] is None or not r_prev * r_now <= 0.0 or not (
                    r_prev * r_now < 0 or (r_now == 0.0 and r_prev != 0.0)):
                continue
            t = m["t0"] + i * dt
            try:
                m["events"].append(refine_crossing(
                    State(prev_a[r].copy(), prev_b[r].copy(), t - dt),
                    State(a[r].copy(), b[r].copy(), t), m["section"], table, scheme))
            except NoCrossing as exc:
                m["rejected"][exc.reason] += 1
            if m["limit"] is not None and len(m["events"]) >= m["limit"]:
                sample(m, t, a[r], b[r])
                leaving.add(r)
        res = res_new
        for r in range(len(active)):
            m = members[active[r]]
            if r in leaving or not (i % stride == 0 or i == m["horizon"]):
                continue
            sample(m, m["t0"] + i * dt, a[r], b[r])
            if m["error"] is not None or i == m["horizon"]:
                leaving.add(r)
        if leaving:
            keep = [r for r in range(len(active)) if r not in leaving]
            active = [active[r] for r in keep]
            a, b, res = a[keep], b[keep], res[keep]
            on_a0, levels = on_a0[keep], levels[keep]
            if kick is not None:
                kick = kick[keep]
    return [m["error"] or (np.array(m["times"]), np.array(m["a"]), np.array(m["b"]),
                           m["events"], m["rejected"]) for m in members]


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
            a, b = flow.c * a + flow.s * b, flow.g * a + flow.c * b
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

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    @pytest.mark.parametrize("members", [1, 12])
    def test_stage_leaves_inputs_alone(self, table8, scheme, members, rng):
        # split2_step and rk4_step hand the stage views of the caller's
        # state, so a stage must neither write its inputs nor return
        # memory that they share
        a = 0.1 * rng.standard_normal((members, table8.mode_count))
        b = 0.1 * rng.standard_normal((members, table8.mode_count))
        f = _project_power_raw(a, 3, table8)
        before = [x.copy() for x in (a, b, f)]
        out = _stage(scheme, 1e-2, table8)(a, b, f)
        for x, x0 in zip((a, b, f), before):
            assert np.array_equal(x, x0)
        for y in out:
            if y is not None:
                assert not any(np.shares_memory(x, y) for x in (a, b, f))

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
        h = energy_breakdown(State(traj.a, traj.b), table8).H
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
        assert len(energy_breakdown(State(traj.a, traj.b), table).H) == len(traj.a) \
            == len(traj.times)

    def test_square_torus_dynamics(self):
        # the tensor-grid path: planar exactness, bounded energy error and
        # gradient consistency on a 2-torus
        from kgorbit import ModelParams, build_spectrum, rhs
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
        h = energy_breakdown(State(traj.a, traj.b), t2).H
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
            fd = -(energy_breakdown(sp, t2).H - energy_breakdown(sm, t2).H) / (2 * step)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_does_not_hide_a_crossing(self, table):
        # in the first step member 1 turns NaN while member 0's b0 changes
        # sign; the NaN must not mask member 0's crossing
        dt = 1e-2
        assert np.isnan(rk4_step(planar(table, 1e100), dt, table).b[0])
        sec = SectionSpec("b0_equals", 0.0, "a0_left_of_center")
        cfg = StepperConfig(dt=dt, scheme="rk4", max_time=0.1, sample_stride=1, section=sec)
        out = evolve_ensemble([planar(table, 0.1, -1e-4), planar(table, 1e100)],
                              [cfg, cfg], table, max_events=1)
        assert isinstance(out[1], NonFiniteState)
        assert len(out[0].events) == 1
        t_hit, s_hit = out[0].events[0]
        assert 0.0 < t_hit < dt and abs(s_hit.b[0]) <= 1e-10

    def test_members_must_share_step(self, table):
        cfgs = [StepperConfig(dt=1e-2), StepperConfig(dt=2e-2)]
        with pytest.raises(ValueError):
            evolve_ensemble([planar(table, 0.1)] * 2, cfgs, table)

    @pytest.mark.parametrize("stride", [2.5, True, "2"])
    def test_stride_must_be_an_integer(self, stride):
        # 2.5 would fail inside evolve_ensemble's range, True run as stride 1
        with pytest.raises(ValueError, match="sample_stride must be an integer"):
            StepperConfig(sample_stride=stride)

    def test_numpy_integer_stride_accepted(self):
        assert StepperConfig(sample_stride=np.int64(10)).sample_stride == 10

    def test_samples_are_read_only(self, table):
        cfg = StepperConfig(dt=1e-2, max_time=0.5, sample_stride=10)
        traj = evolve(planar(table, 0.1), cfg, table)
        with pytest.raises(ValueError):
            traj.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            traj.times[0] = 1.0


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

        def counted(a, exponent, table, work=None):
            calls.append(len(a))
            return kernel(a, exponent, table, work)

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


class TestBlockLoop:
    """evolve_ensemble steps in blocks; every member must stop, sample and
    record events exactly as the per-step reference loop does."""

    @staticmethod
    def _start(table, a0=0.1):
        s = planar(table, a0)
        s.a[1], s.b[2] = 1e-3, -2e-3
        return s

    @staticmethod
    def _assert_same(got, ref, table, rel=0.0):
        if isinstance(ref, NonFiniteState):
            assert isinstance(got, NonFiniteState) and str(got) == str(ref)
            return
        times, a, b, events, rejected = ref
        assert np.array_equal(got.times, times)
        assert np.abs(got.a - a).max() <= rel * np.abs(a).max()
        assert np.abs(got.b - b).max() <= rel * np.abs(b).max()
        assert got.rejected == rejected
        assert len(got.events) == len(events)
        for (t_got, s_got), (t_ref, s_ref) in zip(got.events, events):
            assert abs(t_got - t_ref) <= rel * abs(t_ref)
            assert dist_x(s_got, s_ref, table) <= rel * max(1.0, np.abs(s_ref.a).max())

    def _compare(self, s0, cfg, table, max_events=None):
        got = evolve_ensemble([s0], [cfg], table, max_events)[0]
        ref = evolve_reference([s0], [cfg], table, max_events)[0]
        self._assert_same(got, ref, table)
        return got

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_event_budget_stops_mid_block(self, table, scheme):
        sec = SectionSpec("b0_equals", 0.0, "a0_left_of_center")
        cfg = StepperConfig(dt=1e-2, scheme=scheme, max_time=60.0, sample_stride=5,
                            section=sec)
        got = self._compare(self._start(table), cfg, table, max_events=1)
        stop = round(got.times[-1] / cfg.dt)
        assert len(got.events) == 1 and stop % _BLOCK_STEPS != 0 and stop % 5 != 0

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    @pytest.mark.parametrize("at, exact", [(2 * _BLOCK_STEPS, False), (100, True)],
                             ids=["last_step_of_block", "residual_exactly_zero"])
    def test_crossing_at_a_chosen_step(self, table, scheme, at, exact):
        # a b0 section whose level puts a crossing at step ``at``: between
        # the residuals of steps at - 1 and at, or exactly on step at
        s0, dt = self._start(table), 1e-2
        free = evolve(s0, StepperConfig(dt=dt, scheme=scheme, max_time=3.0,
                                        sample_stride=1), table)
        b0 = free.b[:, 0]
        level = b0[at] if exact else 0.5 * (b0[at - 1] + b0[at])
        side = "a0_left_of_center" if free.a[at, 0] < table.params.center \
            else "a0_right_of_center"
        cfg = StepperConfig(dt=dt, scheme=scheme, max_time=3.0, sample_stride=7,
                            section=SectionSpec("b0_equals", level, side))
        got = self._compare(s0, cfg, table)
        if exact:
            assert b0[at] - level == 0.0 and b0[at - 1] != level
            assert any(abs(t - at * dt) <= 1e-12 and st.b[0] == level
                       for t, st in got.events)
        else:
            assert any((at - 1) * dt < t < at * dt for t, _ in got.events)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme, a0, dt", [("split2", 10.0, 0.1), ("rk4", 5.0, 0.15)])
    def test_blow_up_mid_block(self, table, scheme, a0, dt):
        cfg = StepperConfig(dt=dt, scheme=scheme, max_time=30.0, sample_stride=3,
                            section=SectionSpec("a0_equals", 0.3, "b0_negative"))
        got = self._compare(self._start(table, a0), cfg, table)
        assert isinstance(got, NonFiniteState)
        step = round(float(str(got).rsplit("= ", 1)[1]) / dt)
        assert 0 < step < 200 and step % _BLOCK_STEPS != 0

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_horizon_off_stride_and_block(self, table, scheme):
        sec = SectionSpec("a0_equals", 0.3, "b0_positive")
        cfg = StepperConfig(dt=1e-2, scheme=scheme, max_time=1.57, sample_stride=7,
                            section=sec)
        got = self._compare(self._start(table, 0.2), cfg, table)
        assert len(got.times) == 157 // 7 + 2 and got.times[-1] == pytest.approx(1.57)

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_members_leaving_in_different_blocks(self, table, scheme):
        # twelve members: horizons, event budgets and sections that make
        # them leave the stack at different steps of different blocks
        sections = [SectionSpec("b0_equals", 0.0, "a0_left_of_center"), None,
                    SectionSpec("a0_equals", 0.3, "b0_positive"),
                    SectionSpec("a0_equals", 0.3, "b0_negative")]
        starts, cfgs, limits = [], [], []
        for k in range(12):
            s = self._start(table, 0.05 + 0.02 * k)
            s.t = 0.25 * k
            starts.append(s)
            cfgs.append(StepperConfig(dt=1e-2, scheme=scheme, max_time=3.0 + 1.37 * k,
                                      sample_stride=5, section=sections[k % 4]))
            limits.append(None if k % 3 == 0 else 1 + k % 2)
        got = evolve_ensemble(starts, cfgs, table, limits)
        ref = evolve_reference(starts, cfgs, table, limits)
        stops = set()
        for g, r in zip(got, ref):
            self._assert_same(g, r, table, rel=1e-13)
            stops.add(round((g.times[-1] - g.times[0]) / 1e-2) // _BLOCK_STEPS)
        assert len(stops) >= 4


def _numpy_bytes_held_during(call):
    """Run ``call`` under tracemalloc, filtered to numpy's array-data
    domain.  Returns the most array data that the call had allocated and
    still held at any Python or C call and return inside it, and the
    data it left allocated."""
    domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def held():
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(domain).traces)

    peak = 0

    def profile(frame, event, arg):
        nonlocal peak
        peak = max(peak, held() - before)

    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = held()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return peak, held() - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _random_stack(table, rows, rng):
    a = 0.1 * rng.standard_normal((rows, table.mode_count))
    b = 0.1 * rng.standard_normal((rows, table.mode_count))
    a[:, 0] += 0.3
    return a, b


class TestWorkspaces:
    """A stage writes into the slot it is handed and keeps its temporaries
    in buffers it owns; no result shares memory with them."""

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    @pytest.mark.parametrize("cutoff, rows", [(8, 12), (32, 1)], ids=["1d_k8_e12", "1d_k32_one"])
    def test_stage_into_slot_allocates_nothing(self, scheme, cutoff, rows, rng):
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=cutoff))
        a, b = _random_stack(table, rows, rng)
        stage = _stage(scheme, 1e-3, table)
        first, second = np.empty((2, rows, table.mode_count)), np.empty((2, rows, table.mode_count))
        _, _, kick = stage(a, b, None, first)       # warm-up: the stage allocates its buffers
        peak, left = _numpy_bytes_held_during(lambda: stage(first[0], first[1], kick, second))
        assert (peak, left) == (0, 0)
        # the same call without a slot allocates the new (a, b) and nothing else
        peak, left = _numpy_bytes_held_during(lambda: stage(first[0], first[1], kick))
        assert left == 0 and peak == 2 * a.nbytes

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_slot_receives_the_step(self, table8, scheme, rng):
        a, b = _random_stack(table8, 12, rng)
        stage = _stage(scheme, 1e-2, table8)
        fresh = stage(a, b)
        out = np.empty((2, *a.shape))
        into = stage(a, b, None, out)
        assert into[0].base is out and into[1].base is out
        assert np.array_equal(into[0], fresh[0]) and np.array_equal(into[1], fresh[1])
        assert not np.shares_memory(fresh[0], fresh[1])
        if scheme == "split2":
            # the carried kick is the stage's own buffer, reused call after call
            assert into[2] is stage(a, b, into[2], np.empty_like(out))[2]

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_results_share_no_memory(self, table8, scheme, monkeypatch, rng):
        from kgorbit import integrators
        stages = []

        def recorded(*args):
            stages.append(_stage(*args))
            return stages[-1]

        monkeypatch.setattr(integrators, "_stage", recorded)
        starts = [TestBlockLoop._start(table8, 0.1 + 0.05 * k) for k in range(4)]
        cfgs = [StepperConfig(dt=1e-2, scheme=scheme, max_time=T, sample_stride=3,
                              section=SectionSpec("b0_equals", 0.0, "a0_left_of_center"))
                for T in (5.0, 19.0, 40.0, 40.0)]
        trajs = evolve_ensemble(starts, cfgs, table8)
        arrays = [x for tr in trajs for x in (tr.times, tr.a, tr.b)]
        arrays += [x for tr in trajs for _, st in tr.events for x in (st.a, st.b)]
        assert sum(len(tr.events) for tr in trajs) >= 2
        for i, x in enumerate(arrays):
            assert not any(np.shares_memory(x, z) for z in arrays[i + 1:])
        # running the run's stage on every member count it served writes
        # all of its buffers; no result may change
        kept = [x.copy() for x in arrays]
        stage = stages[0]                  # the time loop's; refinement builds more
        for rows in range(1, len(starts) + 1):
            a, b = _random_stack(table8, rows, rng)
            stage(a, b, None, np.empty((2, rows, table8.mode_count)))
        assert all(np.array_equal(x, x0) for x, x0 in zip(arrays, kept))

    def test_concurrent_runs_on_one_table(self, table8):
        import threading
        starts = [TestBlockLoop._start(table8, 0.05 + 0.02 * k) for k in range(6)]
        runs = [[StepperConfig(dt=1e-2, scheme=scheme, max_time=3.0 + 0.7 * k, sample_stride=4,
                               section=SectionSpec("a0_equals", 0.1, "b0_positive"))
                 for k in range(6)] for scheme in ("split2", "rk4")]
        sequential = [evolve_ensemble(starts, cfgs, table8) for cfgs in runs]
        threaded = [None, None]
        barrier = threading.Barrier(2, timeout=60)

        def run(k):
            barrier.wait()
            threaded[k] = evolve_ensemble(starts, runs[k], table8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seq, thr in zip(sequential, threaded):
            for s, t in zip(seq, thr):
                assert np.array_equal(s.times, t.times)
                assert np.array_equal(s.a, t.a) and np.array_equal(s.b, t.b)
                assert [(ts, st.a.tolist(), st.b.tolist()) for ts, st in s.events] == \
                    [(ts, st.a.tolist(), st.b.tolist()) for ts, st in t.events]


class TestBlockStack:
    """The block loop against the per-step reference, bit for bit, where
    both drop the same rows at the same steps."""

    @staticmethod
    def _aligned(table, scheme, members, blocks, dt=1e-2):
        # member k runs exactly blocks[k % len(blocks)] full blocks, so a
        # member leaves both loops at the same step, in different blocks
        steps = min(_BLOCK_STEPS, max(1, _CHUNK_VALUES // (members * table.mode_count)))
        starts, cfgs = [], []
        sections = [SectionSpec("b0_equals", 0.0, "a0_left_of_center"), None,
                    SectionSpec("a0_equals", 0.2, "b0_positive")]
        for k in range(members):
            s = TestBlockLoop._start(table, 0.05 + 0.3 * k / members)
            s.t = 0.5 * k
            starts.append(s)
            cfgs.append(StepperConfig(dt=dt, scheme=scheme, sample_stride=3,
                                      max_time=steps * blocks[k % len(blocks)] * dt,
                                      section=sections[k % 3]))
        return starts, cfgs

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    @pytest.mark.parametrize("model, members, blocks", [
        (dict(m=0.5, p=1, dim=1, cutoff=8), 1, (3,)),
        (dict(m=0.5, p=1, dim=1, cutoff=8), 12, (1, 4, 2, 3)),
        (dict(m=0.5, p=1, dim=2, cutoff=3, periods=(2.0, 0.5)), 3, (1, 2)),
        (dict(m=0.5, p=1, dim=3, cutoff=2, periods=(1.0, 1.0, 1.0)), 3, (2, 1)),
    ], ids=["1d_k8_one", "1d_k8_e12", "2d_rect_k3_e3", "3d_k2_e3"])
    def test_equals_reference(self, scheme, model, members, blocks):
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(**model))
        starts, cfgs = self._aligned(table, scheme, members, blocks)
        got = evolve_ensemble(starts, cfgs, table)
        ref = evolve_reference(starts, cfgs, table)
        for g, r in zip(got, ref):
            TestBlockLoop._assert_same(g, r, table)
        assert len({len(g.times) for g in got}) == min(members, len(blocks))

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_stack_deeper_than_one_chunk(self, scheme):
        # 300 rows of 129 grid values pass one 2^15-value chunk, so every
        # force evaluation runs the kernel in row blocks
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=32))
        assert 300 * table.n_nodes > _CHUNK_VALUES
        starts, cfgs = self._aligned(table, scheme, 300, (3, 5), dt=1e-3)
        got = evolve_ensemble(starts, cfgs, table)
        ref = evolve_reference(starts, cfgs, table)
        for g, r in zip(got, ref):
            TestBlockLoop._assert_same(g, r, table)

    @staticmethod
    def _record_blocks(monkeypatch):
        """Steps per block of the time loop, and the depths of its stacks."""
        from kgorbit import integrators
        blocks, depths = [], set()

        def recorded(*args):
            stage = _stage(*args)

            def counted(a, b, kick=None, out=None):
                slot = (out.ctypes.data - out.base.ctypes.data) // out.nbytes
                if slot == 1:                  # step 1 opens a block
                    blocks.append(0)
                blocks[-1] += 1
                depths.add(len(out.base))
                return stage(a, b, kick, out)
            return counted

        monkeypatch.setattr(integrators, "_stage", recorded)
        return blocks, depths

    def test_block_length_counts_positions_only(self, monkeypatch):
        # 12 members of 65 modes: 2^15 // (12 * 65) = 42 steps per block,
        # from the positions alone, not the (2, rows, modes) phase-space pair
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=32))
        blocks, depths = self._record_blocks(monkeypatch)
        starts = [TestBlockLoop._start(table, 0.05 + 0.01 * k) for k in range(12)]
        cfg = StepperConfig(dt=1e-3, scheme="rk4", max_time=0.1, sample_stride=10)
        evolve_ensemble(starts, [cfg] * 12, table)
        assert blocks == [42, 42, 16] and depths == {42 + 1}


class TestRefinementSteps:
    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_trial_steps_use_the_public_step(self, table, scheme, monkeypatch):
        # refinement takes every trial step through the module's public
        # step function, where a profiler of the public API counts it
        from kgorbit import integrators
        name = f"{scheme}_step"
        step = getattr(integrators, name)
        calls = []

        def counted(s, dt, table):
            calls.append(dt)
            return step(s, dt, table)

        monkeypatch.setattr(integrators, name, counted)
        s0 = TestBlockLoop._start(table)
        cfg = StepperConfig(dt=1e-2, scheme=scheme, max_time=20.0, sample_stride=50,
                            section=SectionSpec("b0_equals", 0.0, "a0_left_of_center"))
        traj = evolve(s0, cfg, table, max_events=1)
        assert len(traj.events) == 1 and len(calls) > 5
        assert all(0.0 < dt < cfg.dt for dt in calls)


class TestPages:
    """Samples go straight from the block stack into pages; a run whose
    samples span several pages equals the one-array path bit for bit."""

    @staticmethod
    def _paged(monkeypatch, table):
        # 1024 values per chunk: 1D K=4 (9 modes, 17 nodes) energy blocks
        # of 30 rows and pages of 3 blocks, 90 rows; blocks keep 64 steps
        from kgorbit import hamiltonian, spectra
        monkeypatch.setattr(spectra, "_CHUNK_VALUES", 1024)
        assert hamiltonian._energy_rows(table) == 30
        return 90

    def test_one_patch_sizes_every_block(self, table, monkeypatch):
        # with 1024 values per chunk, 1D K=4: kernel blocks of 1024 // 17
        # = 60 rows, and 12 members of 9 modes step in blocks of
        # 1024 // 108 = 9 steps, each member's samples in pages of 90 rows
        from kgorbit import spectra
        page_rows = self._paged(monkeypatch, table)
        assert spectra._kernel_work(60, table) is not None
        assert spectra._kernel_work(61, table) is None
        rows, raw = [], spectra._project_power_raw

        def counted(a, *args, **kwargs):
            rows.append(len(a))
            return raw(a, *args, **kwargs)
        monkeypatch.setattr(spectra, "_project_power_raw", counted)
        spectra._project_power_raw(np.zeros((121, table.mode_count)), 3, table)
        assert rows == [121, 60, 60, 1]

        blocks, depths = TestBlockStack._record_blocks(monkeypatch)
        starts = [TestBlockLoop._start(table, 0.05 + 0.01 * k) for k in range(12)]
        cfg = StepperConfig(dt=1e-2, max_time=2.0, sample_stride=1)
        got = evolve_ensemble(starts, [cfg] * 12, table)
        assert blocks == [9] * 22 + [2] and depths == {9 + 1}
        assert all([len(p.a) for p in g.pages] == [page_rows, page_rows, 21] for g in got)

    @staticmethod
    def _assert_pages(got, table, page_rows):
        assert len(got.pages) >= 3
        assert [len(p.a) for p in got.pages[:-1]] == [page_rows] * (len(got.pages) - 1)
        row = 0
        for p in got.pages:
            # each page owns one (2, rows, modes) array, trimmed to its rows
            assert p.a.base is p.b.base and p.a.base.shape == (2, len(p.a), table.mode_count)
            assert not p.a.flags.writeable and not p.t.flags.writeable
            assert np.array_equal(p.t, got.times[row:row + len(p.a)])
            row += len(p.a)
        assert row == len(got.times)
        paged = [energy_breakdown(p, table) for p in got.pages]
        one = energy_breakdown(State(got.a, got.b), table)
        for f in fields(EnergyBreakdown):
            assert np.array_equal(np.concatenate([getattr(e, f.name) for e in paged]),
                                  getattr(one, f.name))
        assert np.array_equal(got.a0, got.a[:, 0]) and np.array_equal(got.b0, got.b[:, 0])

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_event_budget_stop_across_pages(self, table, scheme, stride, monkeypatch):
        page_rows = self._paged(monkeypatch, table)
        sec = SectionSpec("b0_equals", 0.0, "a0_left_of_center")
        cfg = StepperConfig(dt=1e-2, scheme=scheme, max_time=60.0, sample_stride=stride,
                            section=sec)
        got = TestBlockLoop()._compare(TestBlockLoop._start(table), cfg, table, max_events=1)
        stop = round(got.times[-1] / cfg.dt)
        assert len(got.events) == 1 and stop % _BLOCK_STEPS != 0
        self._assert_pages(got, table, page_rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme, a0, dt", [("split2", 9.0, 0.1), ("rk4", 0.1, 0.114)])
    def test_blow_up_after_several_pages(self, table, scheme, a0, dt, monkeypatch):
        # rk4 at dt = 0.114 sits just past its stability bound for the top
        # mode, so the run grows for about 440 steps before it blows up
        page_rows = self._paged(monkeypatch, table)
        cfg = StepperConfig(dt=dt, scheme=scheme, max_time=100.0, sample_stride=1)
        got = TestBlockLoop()._compare(TestBlockLoop._start(table, a0), cfg, table)
        assert isinstance(got, NonFiniteState)
        assert round(float(str(got).rsplit("= ", 1)[1]) / dt) > 2 * page_rows

    def test_energy_blocks_align_with_pages(self):
        # at 1D K=32 the rounding of energy_breakdown depends on its block
        # layout, so a page that cut an energy block would move its bits
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=32))
        cfg = StepperConfig(dt=1e-2, max_time=60.0, sample_stride=1,
                            section=SectionSpec("b0_equals", 0.0, "a0_left_of_center"))
        got = evolve(TestBlockLoop._start(table), cfg, table, max_events=1)
        self._assert_pages(got, table, 3 * 127)

    def test_short_member_holds_one_trimmed_page(self, table8):
        cfg = StepperConfig(dt=1e-2, max_time=0.5, sample_stride=10)
        (page,) = evolve(TestBlockLoop._start(table8), cfg, table8).pages
        assert page.a.base.shape == (2, 6, table8.mode_count)

    def test_pages_hold_little_more_than_their_rows(self):
        # 1D K=16 at dt = 1e-2 to t = 16.2: 1621 samples in pages of 756,
        # 756 and 109 rows; a last page opened at full size and trimmed by
        # a copy peaks at about 1.55 times the samples' bytes
        from kgorbit import ModelParams, build_spectrum
        table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=16))
        s0, cfg = TestBlockLoop._start(table), StepperConfig(dt=1e-2, max_time=16.2)
        evolve(s0, cfg, table)                     # first calls fill caches outside the run
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            got = evolve(s0, cfg, table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert [len(p.a) for p in got.pages] == [756, 756, 109]
        assert all(p.a.base.shape == (2, len(p.a), table.mode_count) for p in got.pages)
        assert peak <= 1.25 * sum(p.a.nbytes + p.b.nbytes for p in got.pages)


class TestReaders:
    """Pages handed to a reader, joined, equal the samples that a keeping
    run holds, bit for bit, with the same times and in time order."""

    @staticmethod
    def _assert_read(got, pages, kept):
        assert got.pages == [] and len(pages) >= 2
        assert np.array_equal(np.concatenate([p.t for p in pages]), kept.times)
        assert [t for t, _ in got.events] == [t for t, _ in kept.events]
        assert got.rejected == kept.rejected
        assert np.array_equal(np.concatenate([p.a for p in pages]), kept.a)
        assert np.array_equal(np.concatenate([p.b for p in pages]), kept.b)
        row = 0
        for p in pages:
            assert np.array_equal(p.t, kept.times[row:row + len(p.a)])
            assert not p.a.flags.writeable and not p.t.flags.writeable
            row += len(p.a)
        for name in ("times", "a", "b", "a0", "b0"):
            with pytest.raises(InsufficientSamples, match="reader"):
                getattr(got, name)

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_stop_inside_a_block(self, table, scheme, stride, monkeypatch):
        TestPages._paged(monkeypatch, table)
        cfg = StepperConfig(dt=1e-2, scheme=scheme, max_time=60.0, sample_stride=stride,
                            section=SectionSpec("b0_equals", 0.0, "a0_left_of_center"))
        s0 = TestBlockLoop._start(table)
        pages = []
        got = evolve_ensemble([s0], [cfg], table, 1, read=pages.append)[0]
        kept = evolve(s0, cfg, table, 1)
        assert len(got.events) == 1 and round(pages[-1].t[-1] / cfg.dt) % _BLOCK_STEPS != 0
        self._assert_read(got, pages, kept)

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_page_boundary_on_a_block_end(self, table, scheme, monkeypatch):
        # pages of 90 rows at stride 1; the short member's horizon of 89
        # steps ends the second block, where the long member's first page
        # fills, and the short member's one page fills as it stops
        page_rows = TestPages._paged(monkeypatch, table)
        starts = [TestBlockLoop._start(table, 0.1), TestBlockLoop._start(table, 0.2)]
        cfgs = [StepperConfig(dt=1e-2, scheme=scheme, max_time=0.89, sample_stride=1),
                StepperConfig(dt=1e-2, scheme=scheme, max_time=3.0, sample_stride=1)]
        pages = ([], [])
        got = evolve_ensemble(starts, cfgs, table, read=[p.append for p in pages])
        kept = evolve_ensemble(starts, cfgs, table)
        assert [len(p.a) for p in pages[0]] == [page_rows]
        assert [len(p.a) for p in pages[1]] == [page_rows, page_rows, page_rows, 31]
        self._assert_read(got[1], pages[1], kept[1])
        assert np.array_equal(pages[0][0].a, kept[0].a) and got[0].pages == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme, a0, dt", [("split2", 9.0, 0.1), ("rk4", 0.1, 0.114)])
    def test_non_finite_member(self, table, scheme, a0, dt, monkeypatch):
        TestPages._paged(monkeypatch, table)
        cfg = StepperConfig(dt=dt, scheme=scheme, max_time=100.0, sample_stride=1)
        s0 = TestBlockLoop._start(table, a0)
        pages = []
        (got,) = evolve_ensemble([s0], [cfg], table, read=pages.append)
        assert isinstance(got, NonFiniteState) and len(pages) >= 2
        assert all(np.isfinite(p.a).all() and np.isfinite(p.b).all() for p in pages)
        # the rows read are the run's first rows
        rows = sum(len(p.a) for p in pages)
        kept = evolve(s0, StepperConfig(dt=dt, scheme=scheme, max_time=(rows - 1) * dt,
                                        sample_stride=1), table)
        assert np.array_equal(np.concatenate([p.a for p in pages]), kept.a)
        assert np.array_equal(np.concatenate([p.b for p in pages]), kept.b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme, a0, dt", [("split2", 9.0, 0.1), ("rk4", 0.1, 0.114)])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_page_times_of_a_non_finite_member(self, table, scheme, a0, dt, stride,
                                               monkeypatch):
        # the pages read before a blow-up carry one time per row, bit for bit
        # those of a run to their last row (_assert_read checks the pages of
        # a stop inside a block)
        TestPages._paged(monkeypatch, table)
        cfg = StepperConfig(dt=dt, scheme=scheme, max_time=100.0, sample_stride=stride)
        s0 = TestBlockLoop._start(table, a0)
        pages = []
        (got,) = evolve_ensemble([s0], [cfg], table, read=pages.append)
        assert isinstance(got, NonFiniteState) and pages
        assert all(p.t.shape == (len(p.a),) for p in pages)
        times = np.concatenate([p.t for p in pages])
        steps = (len(times) - 1) * stride
        kept = evolve(s0, replace(cfg, max_time=steps * dt), table)
        assert round(kept.times[-1] / dt) == steps and np.array_equal(times, kept.times)

    def test_reader_mode_times_raise(self, table):
        cfg = StepperConfig(dt=1e-2, max_time=0.5, sample_stride=10)
        (got,) = evolve_ensemble([TestBlockLoop._start(table)], [cfg], table,
                                 read=lambda page: None)
        with pytest.raises(InsufficientSamples, match="reader"):
            got.times

    @pytest.mark.parametrize("scheme", ["split2", "rk4"])
    def test_none_entry_keeps_its_pages(self, table, scheme, monkeypatch):
        TestPages._paged(monkeypatch, table)
        starts = [TestBlockLoop._start(table, 0.05 + 0.05 * k) for k in range(3)]
        cfgs = [StepperConfig(dt=1e-2, scheme=scheme, max_time=T, sample_stride=2,
                              section=SectionSpec("a0_equals", 0.1, "b0_positive"))
                for T in (4.0, 7.5, 6.1)]
        pages = ([], [])
        got = evolve_ensemble(starts, cfgs, table, [None, 2, 1],
                              read=[pages[0].append, None, pages[1].append])
        kept = evolve_ensemble(starts, cfgs, table, [None, 2, 1])
        self._assert_read(got[0], pages[0], kept[0])
        self._assert_read(got[2], pages[1], kept[2])
        assert len(got[1].pages) >= 2
        assert np.array_equal(got[1].a, kept[1].a) and np.array_equal(got[1].b, kept[1].b)
        assert np.array_equal(got[1].times, kept[1].times)

    def test_per_member_lengths_must_match_states(self, table):
        s = TestBlockLoop._start(table)
        cfg = StepperConfig(dt=1e-2, max_time=0.5)
        with pytest.raises(ValueError, match="3 states but 1 max_events"):
            evolve_ensemble([s, s, s], [cfg] * 3, table, max_events=[1])
        with pytest.raises(ValueError, match="3 states but 2 read"):
            evolve_ensemble([s, s, s], [cfg] * 3, table, read=[None, None])
        assert len(evolve_ensemble([s, s, s], [cfg] * 3, table, max_events=[1] * 3,
                                   read=[None] * 3)) == 3
