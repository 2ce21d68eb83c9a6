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
  more than long-time energy behaviour.  It is applied in its
  Runge-Kutta-Nystrom form, as a coefficient table.

One stage function serves both schemes on one state or on a stack of
states (members x modes), with one kernel call per force evaluation for
the whole stack.  The closing half-kick of a ``split2`` step and the
opening half-kick of the next read the same positions, so the stage
returns the closing half-kick dt/2 * force and the next step opens with
it ("first same as last"): a run of N steps makes N + 1 kernel calls,
not 2N, and computes each half-kick once.  The two half-kicks stay
separate, so every sample sits on a step boundary.
For da/dt = b, db/dt = F(a) classical RK4 is a Runge-Kutta-Nystrom
method (Hairer, Norsett & Wanner, Solving ODEs I, II.14): every stage
position and the new (a, b) are fixed linear combinations of
a, b and the stage forces F1..F4.  Stages 1 and 2 read only (a, b),
stage 3 only F1 and stage 4 only F2, so an ``rk4`` step makes two
force evaluations, each on a stack of twice the members' rows, and
applies the combinations as small coefficient matrices over one
stage buffer.
A stage writes each step's new (a, b) into a slot the caller hands it
and keeps every temporary in buffers it owns, allocated on its first
call with a given member count, so a step in the time loop allocates no
array data.  The buffers never go on the ``SpectrumTable``, which stays
shareable across concurrent runs.
``evolve_ensemble`` steps a stack of independent members, each with its
own section, horizon and event budget; a member that blows up is
recorded in its own slot while the others go on.  ``evolve`` is the
single-member case.  The time loop runs in blocks of at most 64 steps,
fewer when the stack holds many values, and a block ends at the next
member horizon.  A block is one (steps + 1, 2, members, modes) stack of
phase-space states, and step j is one stage call that writes slot j;
the stack is allocated for the longest block and reused until the
member count changes.
The crossing test, the refinements, the samples and the finiteness
check run once per block, over that stack, and handle each member in
step order, so a member stops at the same step, with the same samples
and events, as a loop that tests after every step.  Samples, events and
the states handed to refinement are copies: no result shares memory
with the stack or with a stage's buffers.  A member that stops
inside a block is stepped on to the block's end and then leaves the
stack: up to 63 wasted steps per stop, and a stack whose row count
changes at block ends rather than at each stop, which can move
other members' results by rounding in the kernel's matrix products.

Section crossings are detected by a per-step sign change of the residual
and refined by bisected re-integration from the bracketing state, which
keeps the refined point on the numerical flow.  Crossings that
refinement rejects are counted per member, by reason.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NoCrossing, NonFiniteState
from .hamiltonian import EnergyBreakdown, State, energy_breakdown, validate_state
from .spectra import _CHUNK_VALUES, SpectrumTable, _kernel_work, _project_power_raw

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
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if self.scheme not in ("split2", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.max_time > 0:
            raise ValueError("max_time must be positive")
        if not math.isfinite(self.max_time):
            raise ValueError("max_time must be finite")
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
    """Exact per-mode flow of the quadratic part over a fixed step:
    (a, b) -> (c a + s b, g a + c b) on stacks (members, modes).  The
    coefficients are (1, modes) rows, so a one-member stack takes numpy's
    same-shape fast path."""

    def __init__(self, table: SpectrumTable, dt: float):
        w2 = table.lam_sq - table.params.m ** 2
        # degenerate modes (|w2| <= 1e-14) keep the free flow
        c = np.ones_like(w2)
        s = np.full_like(w2, dt)   # coefficient of b in the a-update
        g = np.zeros_like(w2)      # coefficient of a in the b-update
        ell = w2 > 1e-14
        w = np.sqrt(w2[ell])
        wd = w * dt
        sin = np.sin(wd)
        c[ell] = np.cos(wd)
        s[ell] = sin / w
        g[ell] = -w * sin
        hyp = w2 < -1e-14
        k = np.sqrt(-w2[hyp])
        kd = k * dt
        sinh = np.sinh(kd)
        c[hyp] = np.cosh(kd)
        s[hyp] = sinh / k
        g[hyp] = k * sinh
        self.c, self.s, self.g = c[None], s[None], g[None]


def _stage(scheme: str, dt: float, table: SpectrumTable):
    """One step of ``scheme`` as a function
    (a, b, kick, out=None) -> (a, b, kick) on a stack (members, modes),
    with one kernel call per force evaluation (per pair of them in
    ``rk4``) for the whole stack.

    The stage writes the new (a, b) into ``out``, a C-contiguous
    (2, members, modes) slot that overlaps none of its inputs, and
    returns ``out[0]`` and ``out[1]``; without ``out`` it writes into a
    new slot, so the returned a and b are fresh arrays.  It never writes
    its inputs.  Every other array a step needs lives in buffers that the
    stage instance allocates on its first call with a given member count
    and reuses after that, so a call with ``out`` allocates no array
    data.  The buffers belong to the instance, never to the table, which
    stays shareable across concurrent runs; an instance serves one run
    at a time.
    ``kick`` carries the half-kick dt/2 * P(a) at the step's closing
    positions into the next step: ``split2`` opens with it (computing it
    when None) and returns the closing one, so each half-kick is
    computed once; ``rk4`` ignores it and returns None.  The returned
    kick is the stage's own buffer, overwritten by the next call with the
    same member count: a caller only passes it back to the stage, or
    indexes rows out of it, which copies them.

    ``rk4`` keeps a, b and the full forces F1..F4 in one
    (6, members, modes) buffer y.  It reads each step off the
    Runge-Kutta-Nystrom tableau of classical RK4, as three coefficient
    matrices applied to y flattened to (rows, members * modes):

    * ``to12`` (2 x 2) over (a, b): stage 1 at a, stage 2 at
      a + dt/2 b;
    * ``to34`` (2 x 4) over (a, b, F1, F2): stage 3 at
      a + dt/2 b + dt^2/4 F1, stage 4 at a + dt b + dt^2/2 F2;
    * ``update`` (2 x 6) over all of y: the new a,
      a + dt b + dt^2/6 (F1 + F2 + F3), and the new b,
      b + dt/6 (F1 + 2 F2 + 2 F3 + F4), written into ``out``.

    Each stage pair is one force evaluation on a (2 members, modes)
    stack, written into its two rows of y.  The step equals the
    four-call form of RK4 to rounding: over random 1D, 2D and 3D stacks
    at dt = 1e-3 and 1e-2 the largest gap is 3.2e-16 of max |a| or
    max |b|.  Zero coefficients stay exactly zero.
    """
    exponent = 2 * table.params.p + 1
    modes = table.mode_count
    held: dict[int, tuple] = {}              # buffers for the latest member count

    if scheme == "split2":
        flow = _LinearFlow(table, dt)
        c, s, g = flow.c, flow.s, flow.g
        half = np.array(0.5 * dt)   # a 0-d operand is cheaper than a float

        def split2(a, b, kick=None, out=None):
            n = len(a)
            held_n = held.get(n)
            if held_n is None:   # the kick, also a scratch product, and kernel buffers
                held.clear()
                held_n = held[n] = (np.empty((n, modes)), _kernel_work(n, table))
            closing, work = held_n
            if out is None:
                out = np.empty((2, n, modes))
            new_a, new_b = out[0], out[1]
            if kick is None:
                kick = np.multiply(_project_power_raw(a, exponent, table, work), half,
                                   out=closing)
            kicked = np.subtract(b, kick, out=new_b)
            # the linear flow of (a, kicked): c a + s kicked, g a + c kicked
            np.multiply(c, a, out=new_a)
            new_a += np.multiply(s, kicked, out=closing)
            np.multiply(c, kicked, out=closing)
            np.multiply(g, a, out=new_b)
            new_b += closing
            np.multiply(_project_power_raw(new_a, exponent, table, work), half, out=closing)
            new_b -= closing
            return new_a, new_b, closing
        return split2

    # RK4's Runge-Kutta-Nystrom tableau over y = (a, b, F1, F2, F3, F4)
    half, dt2 = 0.5 * dt, dt * dt
    to12 = np.array(((1.0, 0.0),                    # x1 = a
                     (1.0, half)))                   # x2 = a + dt/2 b
    to34 = np.array(((1.0, half, dt2 / 4, 0.0),     # x3 = x2 + dt^2/4 F1
                     (1.0, dt, 0.0, dt2 / 2)))       # x4 = a + dt b + dt^2/2 F2
    update = np.array(((1.0, dt, dt2 / 6, dt2 / 6, dt2 / 6, 0.0),
                       (0.0, 1.0, dt / 6, dt / 3, dt / 3, dt / 6)))
    neg_w2 = (table.params.m ** 2 - table.lam_sq)[None]

    def rk4(a, b, kick=None, out=None):
        n = len(a)
        held_n = held.get(n)
        if held_n is None:
            held.clear()
            y = np.empty((6, n * modes))            # flat rows a, b, F1..F4
            x = np.empty((2, n * modes))            # flat positions of a stage pair
            held_n = held[n] = (
                y, y[:2], y[:4], x, y[0].reshape(-1, modes), y[1].reshape(-1, modes),
                x.reshape(-1, modes), y[2:4].reshape(-1, modes), y[4:].reshape(-1, modes),
                np.repeat(neg_w2, 2 * n, axis=0), _kernel_work(2 * n, table))
        y, y12, y14, x, y_a, y_b, pair, f12, f34, linear, work = held_n
        if out is None:
            out = np.empty((2, n, modes))
        np.copyto(y_a, a)
        np.copyto(y_b, b)
        # the full force -(lam^2 - m^2) x - P(x) of each stage pair
        np.dot(to12, y12, out=x)
        np.multiply(linear, pair, out=f12)
        f12 -= _project_power_raw(pair, exponent, table, work)
        np.dot(to34, y14, out=x)
        np.multiply(linear, pair, out=f34)
        f34 -= _project_power_raw(pair, exponent, table, work)
        np.dot(update, y, out=out.reshape(2, n * modes))
        return out[0], out[1], None
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


# Most steps of a block of the time loop (see evolve_ensemble).
_BLOCK_STEPS = 64


class _Member:
    """Bookkeeping of one ensemble member: its samples, events and
    rejected crossings, or the error that stopped it."""

    def __init__(self, s0: State, cfg: StepperConfig, limit: int | None):
        self.t0 = s0.t
        self.section = cfg.section
        self.horizon = max(1, int(round(cfg.max_time / cfg.dt)))
        self.limit = limit
        self.times: list[float] = []
        self.blocks_a: list[np.ndarray] = []   # (samples, modes) each
        self.blocks_b: list[np.ndarray] = []
        self.events: list[tuple[float, State]] = []
        self.rejected = {"sign_constraint": 0, "stalled": 0, "no_sign_change": 0}
        self.error: NonFiniteState | None = None

    def sample(self, times: list[float], a: np.ndarray, b: np.ndarray,
               checked: bool) -> None:
        """Record samples (rows of a and b, in time order) up to the first
        one that is not finite, which stops the member."""
        if not checked:
            finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
            if not finite.all():
                bad = int(finite.argmin())
                self.error = NonFiniteState(f"non-finite coefficients at t = {times[bad]}")
                times, a, b = times[:bad], a[:bad], b[:bad]
        self.times.extend(times)
        self.blocks_a.append(a)
        self.blocks_b.append(b)

    def result(self, table: SpectrumTable) -> Trajectory | NonFiniteState:
        if self.error is not None:
            return self.error
        arrays = [np.array(self.times), np.concatenate(self.blocks_a),
                  np.concatenate(self.blocks_b)]
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
    finished member leaves the stack at the end of its block of steps, so
    the batch layout is a function of the inputs alone.
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

    y = np.array([[s.a for s in states], [s.b for s in states]], dtype=float)
    for k, m in enumerate(members):
        m.sample([m.t0], y[0, k:k + 1], y[1, k:k + 1], checked=True)
    active = list(range(len(members)))       # member of each stack row
    tracked = any(m.section is not None for m in members)
    on_a0 = np.array([m.section is not None and m.section.kind == "a0_equals"
                      for m in members])
    levels = np.array([m.section.level if m.section is not None else 0.0
                       for m in members])
    kick = None                              # carried between steps by split2

    i = 0                                    # steps made before the block
    blocks = None        # stack of the longest block, reused while the row count holds
    while active:
        longest = min(_BLOCK_STEPS, max(1, _CHUNK_VALUES // y[0].size))
        if blocks is None or blocks.shape[1:] != y.shape:
            blocks = None                      # free the old stack first
            blocks = np.empty((longest + 1, *y.shape))
        n = min(longest, min(members[k].horizon for k in active) - i)
        stack = blocks[:n + 1]                # step j writes its (a, b) into slot j
        stack[0] = y
        a, b = stack[0, 0], stack[0, 1]
        for j in range(1, n + 1):
            a, b, kick = stage(a, b, kick, stack[j])
        stack_a, stack_b = stack[:, 0], stack[:, 1]
        finite = bool(np.isfinite(stack).all())

        crossings: dict[int, list[int]] = {}  # stack row -> steps into the block
        if tracked:
            res = np.where(on_a0, stack_a[:, :, 0], stack_b[:, :, 0]) - levels
            product = res[:-1] * res[1:]
            # fmin skips NaN, so a blown-up member cannot hide another's crossing
            if np.fmin.reduce(product, axis=None) <= 0.0:
                for j, r in np.argwhere(product <= 0.0).tolist():
                    r_prev, r_now = res[j, r], res[j + 1, r]
                    if members[active[r]].section is not None and (
                            r_prev * r_now < 0 or (r_now == 0.0 and r_prev != 0.0)):
                        crossings.setdefault(r, []).append(j + 1)

        # Each member's crossings, then its samples up to the step it stops
        # at.  A member that turns non-finite stops at its first non-finite
        # sample; crossings refined after that step cannot change its result,
        # which is then the NonFiniteState alone.
        first = stride - i % stride            # first sample step of the block
        leaving = []
        for r, k in enumerate(active):
            m = members[k]
            end = n                            # last step the member keeps
            stops = m.horizon - i == n         # a block ends at the next horizon
            for j in crossings.get(r, ()):
                t = m.t0 + (i + j) * dt
                try:
                    m.events.append(refine_crossing(
                        State(stack_a[j - 1, r].copy(), stack_b[j - 1, r].copy(), t - dt),
                        State(stack_a[j, r].copy(), stack_b[j, r].copy(), t),
                        m.section, table, scheme=scheme))
                except NoCrossing as exc:
                    m.rejected[exc.reason] += 1
                if m.limit is not None and len(m.events) >= m.limit:
                    end, stops = j, True
                    break
            steps = list(range(first, end + 1, stride))
            if stops and (i + end) % stride:
                steps.append(end)
            if steps:
                m.sample([m.t0 + (i + j) * dt for j in steps],
                         stack_a[steps, r], stack_b[steps, r], checked=finite)
            if stops or m.error is not None:
                leaving.append(r)
        i += n
        y = stack[n].copy()
        del stack, stack_a, stack_b, a, b      # views of blocks, freed with it

        if leaving:
            keep = [r for r in range(len(active)) if r not in leaving]
            active = [active[r] for r in keep]
            y = y[:, keep]
            on_a0, levels = on_a0[keep], levels[keep]
            if kick is not None:
                kick = kick[keep]

    del stage, blocks    # the buffers, before the results copy every sample
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
