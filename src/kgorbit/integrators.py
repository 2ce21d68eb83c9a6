"""Fixed-step time evolution of one state or a stack of states, with
section (return-map) event detection.

Two schemes:

* ``split2`` — Strang composition kick(dt/2) o linear(dt) o kick(dt/2).
  The kick applies only the power nonlinearity, b_n -= dt/2 <u^(2p+1), e_n>;
  the linear flow of da_n = b_n, db_n = -(lam_n^2 - m^2) a_n is applied
  exactly per mode: an elliptic rotation with omega_n = sqrt(lam_n^2 - m^2)
  for n >= 1 and the cosh/sinh hyperbolic map for the constant mode, where
  lam_0^2 - m^2 = -m^2 < 0.  Exact linear flow removes any step-size
  restriction from the fast modes, and the hyperbolic mode is not
  amplified by splitting error near the saddle.

* ``rk4`` — classical 4-stage Runge-Kutta on the full vector field, used
  as the cross-validation oracle and wherever one-loop accuracy matters
  more than long-time energy behaviour.

One stage function serves both schemes on one state or on a stack of
states (members x modes), with one kernel call per force evaluation for
the whole stack.  The closing half-kick of a ``split2`` step and the
opening half-kick of the next read the same positions, so the stage
returns the closing force and the next step opens with it ("first same
as last"): a run of N steps makes N + 1 kernel calls, not 2N.  The two
half-kicks stay separate, so every sample sits on a step boundary.
For da/dt = b, db/dt = F(a) the four ``rk4`` stages fall into two
independent pairs (the Runge-Kutta-Nystrom reading of RK4): stages 1
and 2 read only (a, b), stage 3 only F1 and stage 4 only F2.  So an
``rk4`` step makes two force evaluations, each on a stack of twice the
members' rows.
``evolve_ensemble`` steps a stack of independent members, each with its
own section, horizon and event budget; a member that blows up is
recorded in its own slot while the others go on.  ``evolve`` is the
single-member case.

Section crossings are detected by a per-step sign change of the residual
and refined by bisected re-integration from the bracketing state, which
keeps the refined point on the numerical flow.  Crossings that
refinement rejects are counted per member, by reason.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NoCrossing, NonFiniteState
from .hamiltonian import EnergyBreakdown, State, energy_breakdown, validate_state
from .spectra import _CHUNK_VALUES, SpectrumTable, _project_power_raw

__all__ = [
    "StepperConfig", "SectionSpec", "Trajectory",
    "split2_step", "rk4_step", "evolve", "evolve_ensemble", "refine_crossing",
]

_SIGN_CONSTRAINTS = ("b0_positive", "b0_negative", "a0_left_of_center", "a0_right_of_center")


@dataclass(frozen=True)
class SectionSpec:
    """A codimension-one section in the constant-mode plane.

    kind 'a0_equals' / 'b0_equals' fixes which coordinate hits ``level``;
    the sign constraint selects the admissible side of the crossing.
    """

    kind: str
    level: float
    sign_constraint: str

    def __post_init__(self):
        if self.kind not in ("a0_equals", "b0_equals"):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.sign_constraint not in _SIGN_CONSTRAINTS:
            raise ValueError(f"unknown sign constraint {self.sign_constraint!r}")

    def residual(self, a0: float, b0: float) -> float:
        return (a0 if self.kind == "a0_equals" else b0) - self.level

    def admits(self, a0: float, b0: float, center: float) -> bool:
        c = self.sign_constraint
        if c == "b0_positive":
            return b0 > 0
        if c == "b0_negative":
            return b0 < 0
        if c == "a0_left_of_center":
            return a0 < center
        return a0 > center


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 1e-3
    scheme: str = "split2"
    max_time: float = 10.0
    sample_stride: int = 1
    section: SectionSpec | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("split2", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.max_time > 0:
            raise ValueError("max_time must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class Trajectory:
    """Sampled run of one member.

    ``times`` (S,) and the coefficient stacks ``a``, ``b`` (S, modes) hold
    the samples, read-only; ``events`` the refined section crossings as
    (time, State) pairs; ``rejected`` the crossings refinement turned down,
    by NoCrossing reason.  The energy diagnostics of all samples are
    computed on first use, in stacked passes.
    """

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    events: list[tuple[float, State]]
    rejected: dict[str, int]
    table: SpectrumTable = field(repr=False)

    @functools.cached_property
    def energy(self) -> EnergyBreakdown:
        """Energy diagnostics of every sample; each field is an (S,) array.
        ``energy_breakdown`` keeps about twice the kernel's grid-sized
        temporaries alive, so its blocks hold half the kernel's rows."""
        rows = max(1, _CHUNK_VALUES // (2 * self.table.n_nodes))
        parts = [energy_breakdown(State(self.a[i:i + rows], self.b[i:i + rows]),
                                  self.table)
                 for i in range(0, len(self.times), rows)]
        columns = {}
        for f in fields(EnergyBreakdown):
            column = np.concatenate([getattr(part, f.name) for part in parts])
            column.flags.writeable = False
            columns[f.name] = column
        return EnergyBreakdown(**columns)


class _LinearFlow:
    """Exact per-mode flow of the quadratic part over a fixed step, applied
    to stacks (members, modes); the coefficients are (1, modes) rows, so a
    one-member stack takes numpy's same-shape fast path."""

    def __init__(self, table: SpectrumTable, dt: float):
        w2 = table.lam_sq - table.params.m ** 2
        c = np.empty_like(w2)
        s = np.empty_like(w2)   # coefficient of b in the a-update
        g = np.empty_like(w2)   # coefficient of a in the b-update
        ell = w2 > 1e-14
        hyp = w2 < -1e-14
        deg = ~(ell | hyp)
        w = np.sqrt(w2[ell])
        c[ell] = np.cos(w * dt)
        s[ell] = np.sin(w * dt) / w
        g[ell] = -w * np.sin(w * dt)
        k = np.sqrt(-w2[hyp])
        c[hyp] = np.cosh(k * dt)
        s[hyp] = np.sinh(k * dt) / k
        g[hyp] = k * np.sinh(k * dt)
        c[deg] = 1.0
        s[deg] = dt
        g[deg] = 0.0
        self.c, self.s, self.g = c[None], s[None], g[None]

    def apply(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.c * a + self.s * b, self.g * a + self.c * b


def _stage(scheme: str, dt: float, table: SpectrumTable):
    """One step of ``scheme`` as a function (a, b, f) -> (a, b, f) on a
    stack (members, modes), with one kernel call per force evaluation
    (per pair of them in ``rk4``) for the whole stack.  Returns new
    arrays and leaves its inputs untouched.
    ``f`` carries the power force at the step's closing positions into
    the next step: ``split2`` opens with it (computing it when None) and
    returns the closing force, ``rk4`` ignores it and returns None.

    ``rk4`` evaluates the full force F twice, each time on a (2 members,
    modes) stack: first at a and a + dt/2 b, then at
    a + dt/2 b + dt^2/4 F1 and a + dt b + dt^2/2 F2.  The update is
    classical RK4's, a + (dt b + dt^2/6 (F1 + F2 + F3)) and
    b + dt/6 (F1 + 2 (F2 + F3) + F4), equal to the four-stage form up
    to rounding.
    """
    exponent = 2 * table.params.p + 1
    if scheme == "split2":
        flow = _LinearFlow(table, dt)
        half = 0.5 * dt

        def split2(a, b, f=None):
            if f is None:
                f = _project_power_raw(a, exponent, table)
            b = b - half * f
            a, b = flow.apply(a, b)
            f = _project_power_raw(a, exponent, table)
            b -= half * f
            return a, b, f
        return split2

    w2 = (table.lam_sq - table.params.m ** 2)[None]
    half, sixth = 0.5 * dt, dt / 6.0
    dt2_4, dt2_2, dt2_6 = dt * dt / 4.0, dt * dt / 2.0, dt * dt / 6.0

    def db(av):
        out = -w2 * av
        out -= _project_power_raw(av, exponent, table)
        return out

    def rk4(a, b, f=None):
        n = len(a)
        x = np.empty((2 * n, a.shape[1]))
        x[:n] = a
        np.multiply(half, b, out=x[n:])
        x[n:] += a
        f12 = db(x)
        f1, f2 = f12[:n], f12[n:]
        x[:n] = x[n:] + dt2_4 * f1
        x[n:] = a + dt * b + dt2_2 * f2
        f34 = db(x)
        f3, f4 = f34[:n], f34[n:]
        return (a + (dt * b + dt2_6 * (f1 + f2 + f3)),
                b + sixth * (f1 + 2.0 * (f2 + f3) + f4), None)
    return rk4


def _step(s: State, dt: float, table: SpectrumTable, scheme: str) -> State:
    validate_state(s, table)
    a, b, _ = _stage(scheme, dt, table)(s.a[None], s.b[None])
    return State(a[0], b[0], s.t + dt)


def split2_step(s: State, dt: float, table: SpectrumTable) -> State:
    """One Strang step, kick(dt/2) o linear(dt) o kick(dt/2)."""
    return _step(s, dt, table, "split2")


def rk4_step(s: State, dt: float, table: SpectrumTable) -> State:
    """One classical Runge-Kutta step on the full vector field."""
    return _step(s, dt, table, "rk4")


# Crossing refinement: |section residual| target and bisection budget.
_REFINE_TOL = 1e-10
_REFINE_MAX_ITER = 200


def refine_crossing(s_before: State, s_after: State, section: SectionSpec,
                    table: SpectrumTable, scheme: str = "split2") -> tuple[float, State]:
    """Bisect the sub-step length until |section residual| <= 1e-10.

    Each trial point is produced by one scheme step of the trial length
    from ``s_before``, so the refined crossing stays on the numerical
    flow.  Raises NoCrossing when the bracketing residuals do not change
    sign, when 200 bisections do not reach the tolerance, or when the
    refined point violates the sign constraint.
    """
    dt_full = s_after.t - s_before.t
    if not dt_full > 0:
        raise NoCrossing("bracketing states are not time-ordered", "no_sign_change")
    r_lo = section.residual(float(s_before.a[0]), float(s_before.b[0]))
    r_hi = section.residual(float(s_after.a[0]), float(s_after.b[0]))
    if r_lo == 0.0:
        candidate, tau = s_before.copy(), 0.0
    elif r_hi == 0.0:
        candidate, tau = s_after.copy(), dt_full
    elif r_lo * r_hi > 0:
        raise NoCrossing(
            f"section residual does not change sign over [{s_before.t}, {s_after.t}]",
            "no_sign_change")
    else:
        step = split2_step if scheme == "split2" else rk4_step
        lo, hi = 0.0, dt_full
        candidate, tau = s_after, dt_full
        best, best_res = s_after, abs(r_hi)
        for _ in range(_REFINE_MAX_ITER):
            tau = 0.5 * (lo + hi)
            candidate = step(s_before, tau, table)
            r_mid = section.residual(float(candidate.a[0]), float(candidate.b[0]))
            if abs(r_mid) < best_res:
                best, best_res = candidate, abs(r_mid)
            if abs(r_mid) <= _REFINE_TOL:
                break
            if r_lo * r_mid < 0:
                hi = tau
            else:
                lo = tau
        else:
            if best_res > _REFINE_TOL:
                raise NoCrossing(f"refinement stalled at |residual| = {best_res:.3e}",
                                 "stalled")
            candidate = best
            tau = candidate.t - s_before.t
    if not section.admits(float(candidate.a[0]), float(candidate.b[0]), table.params.center):
        raise NoCrossing(f"crossing rejected by sign constraint {section.sign_constraint}",
                         "sign_constraint")
    return s_before.t + tau, candidate


class _Member:
    """Bookkeeping of one ensemble member: its samples, events and
    rejected crossings, or the error that stopped it."""

    def __init__(self, s0: State, cfg: StepperConfig, limit: int | None):
        self.t0 = s0.t
        self.section = cfg.section
        self.horizon = max(1, int(round(cfg.max_time / cfg.dt)))
        self.limit = limit
        self.times: list[float] = []
        self.rows_a: list[np.ndarray] = []
        self.rows_b: list[np.ndarray] = []
        self.events: list[tuple[float, State]] = []
        self.rejected = {"sign_constraint": 0, "stalled": 0, "no_sign_change": 0}
        self.error: NonFiniteState | None = None

    def sample(self, t: float, a: np.ndarray, b: np.ndarray, checked: bool) -> None:
        """Record a sample, or stop the member if it is not finite."""
        if not (checked or (np.isfinite(a).all() and np.isfinite(b).all())):
            self.error = NonFiniteState(f"non-finite coefficients at t = {t}")
            return
        self.times.append(t)
        self.rows_a.append(a)
        self.rows_b.append(b)

    def result(self, table: SpectrumTable) -> Trajectory | NonFiniteState:
        if self.error is not None:
            return self.error
        arrays = [np.array(self.times), np.array(self.rows_a), np.array(self.rows_b)]
        for arr in arrays:
            arr.flags.writeable = False
        return Trajectory(*arrays, events=self.events, rejected=self.rejected, table=table)


def evolve_ensemble(states, cfgs, table: SpectrumTable,
                    max_events=None) -> list[Trajectory | NonFiniteState]:
    """Integrate a stack of members together, one kernel call per force
    evaluation for the whole stack.

    Member k starts from ``states[k]`` and runs under ``cfgs[k]``, which
    sets its horizon (max_time) and section; all members share dt, scheme
    and sample_stride.  ``max_events`` is one limit for every member or a
    sequence with one per member.  Each member is sampled, refined and
    stopped exactly as ``evolve`` does it.  A member whose coefficients
    turn non-finite gets its NonFiniteState in its slot of the returned
    list, while the others go on.  Rows keep the members' order and a
    finished member leaves the stack, so the batch layout is a function of
    the inputs alone.
    """
    if len(states) != len(cfgs):
        raise ValueError(f"{len(states)} states but {len(cfgs)} configs")
    if len({(c.dt, c.scheme, c.sample_stride) for c in cfgs}) > 1:
        raise ValueError("ensemble members must share dt, scheme and sample_stride")
    if not states:
        return []
    for s in states:
        validate_state(s, table)
    if max_events is None or np.ndim(max_events) == 0:
        max_events = [max_events] * len(states)
    members = [_Member(s, c, limit) for s, c, limit in zip(states, cfgs, max_events)]
    dt, stride, scheme = cfgs[0].dt, cfgs[0].sample_stride, cfgs[0].scheme
    stage = _stage(scheme, dt, table)
    ends: dict[int, list[int]] = {}
    for k, m in enumerate(members):
        ends.setdefault(m.horizon, []).append(k)

    a = np.array([s.a for s in states], dtype=float)
    b = np.array([s.b for s in states], dtype=float)
    for k, m in enumerate(members):
        m.sample(m.t0, a[k], b[k], checked=True)
    active = list(range(len(members)))       # member of each stack row
    tracked = any(m.section is not None for m in members)
    on_a0 = np.array([m.section is not None and m.section.kind == "a0_equals"
                      for m in members])
    levels = np.array([m.section.level if m.section is not None else 0.0
                       for m in members])
    res = np.where(on_a0, a[:, 0], b[:, 0]) - levels
    f = None                                 # force carried between steps

    i = 0
    while active:
        i += 1
        prev_a, prev_b = a, b
        a, b, f = stage(a, b, f)
        leaving: set[int] = set()

        if tracked:
            res_new = np.where(on_a0, a[:, 0], b[:, 0]) - levels
            hits = res * res_new <= 0.0
            if hits.any():
                for r in np.flatnonzero(hits):
                    m = members[active[r]]
                    r_prev, r_now = res[r], res_new[r]
                    if m.section is None or not (
                            r_prev * r_now < 0 or (r_now == 0.0 and r_prev != 0.0)):
                        continue
                    t = m.t0 + i * dt
                    try:
                        m.events.append(refine_crossing(
                            State(prev_a[r].copy(), prev_b[r].copy(), t - dt),
                            State(a[r].copy(), b[r].copy(), t),
                            m.section, table, scheme=scheme))
                    except NoCrossing as exc:
                        m.rejected[exc.reason] += 1
                    if m.limit is not None and len(m.events) >= m.limit:
                        m.sample(t, a[r], b[r], checked=False)
                        leaving.add(r)
            res = res_new

        ending = ends.get(i, ())
        if i % stride == 0 or ending:
            rows = range(len(active)) if i % stride == 0 else \
                [r for r, k in enumerate(active) if k in ending]
            finite = np.isfinite(a).all() and np.isfinite(b).all()
            for r in rows:
                if r in leaving:
                    continue
                m = members[active[r]]
                m.sample(m.t0 + i * dt, a[r], b[r], checked=finite)
                if m.error is not None or i == m.horizon:
                    leaving.add(r)

        if leaving:
            keep = [r for r in range(len(active)) if r not in leaving]
            active = [active[r] for r in keep]
            a, b, res = a[keep], b[keep], res[keep]
            on_a0, levels = on_a0[keep], levels[keep]
            if f is not None:
                f = f[keep]

    return [m.result(table) for m in members]


def evolve(s0: State, cfg: StepperConfig, table: SpectrumTable,
           max_events: int | None = None) -> Trajectory:
    """Integrate to cfg.max_time with fixed steps.

    States are recorded every ``sample_stride`` steps (plus the final
    step); every transversal crossing of cfg.section that satisfies the
    sign constraint is refined to |residual| <= 1e-10 and recorded, and
    rejected ones are counted by reason.  Stops early once ``max_events``
    crossings have been collected.  Raises NonFiniteState if the
    coefficients blow up (checked at sample resolution; NaN persists).
    The single-member case of ``evolve_ensemble``.
    """
    out = evolve_ensemble([s0], [cfg], table, max_events)[0]
    if isinstance(out, NonFiniteState):
        raise out
    return out
