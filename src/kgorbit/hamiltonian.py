"""Mode-space vector field and energy functionals.

In the eigenbasis coordinates (a_n, b_n) the equation of motion is

    da_n/dt = b_n
    db_n/dt = -(lam_n^2 - m^2) a_n - <u^(2p+1), e_n>,      u = sum a_k e_k,

with total energy

    H = 1/2 sum [(lam_n^2 - m^2) a_n^2 + b_n^2] + 1/(2p+2) int u^(2p+2).

Splitting off the constant mode gives H = b0^2/2 + f(a0)/2 + J + r with
the planar well f(x) = -m^2 x^2 + x^(2p+2)/(p+1), the quadratic high-mode
energy J, and the nonlinear remainder r.  A second split H = b0^2/2
+ f(a0)/2 + I + r_hat shifts the instantaneous potential (2p+1) a0^(2p)
into the quadratic part.  Both identities hold exactly here (up to
rounding) because the grid quadrature is exact.  J needs no grid and has
one home, ``high_mode_energy``; ``energy_breakdown`` adds the fields that
do, H among them (``energy_breakdown(s, table).H`` is the total energy),
and the coupling remainder q has its own function,
``coupling_remainder``, so that no energy diagnostic computes it unread.

Closeness to a loop is measured in one energy-space norm, computed only in
``_xnorm_rows``: ``xnorm`` (and through it ``dist_x`` and the amplitude of
``perturb_near_orbit``) and ``dist_to_orbit`` all evaluate it there.

Sign convention: the planar force is force(x) = m^2 x - x^(2p+1), so the
constant mode obeys db0/dt = force(a0) - q0, with q0 the constant
coefficient of ``coupling_remainder``, and the conserved planar level
is b0^2 + f(a0) (no 1/2); f itself only ever enters level-set relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteState
from .spectra import (ModelParams, SpectrumTable, _analysis, _chunk_rows, _grid_power,
                      _project_power_raw, _synthesis)

__all__ = [
    "State", "EnergyBreakdown", "potential_f", "force", "rhs",
    "high_mode_energy", "energy_breakdown", "coupling_remainder", "xnorm",
    "dist_x", "i_j_equivalence_bound", "validate_state",
]


@dataclass
class State:
    """Mode coefficients of (u, du/dt), plus a bookkeeping time.

    A stack of samples, ``a`` and ``b`` shaped (S, modes), may carry one
    time per row in ``t``, an (S,) array: the pages of a run do.
    """

    a: np.ndarray
    b: np.ndarray
    t: float | np.ndarray = 0.0

    def copy(self) -> "State":
        return State(self.a.copy(), self.b.copy(), self.t)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total energy H and its planar/high-mode/nonlinear split.

    J >= 0 is the quadratic energy of modes k >= 1; I adds the
    instantaneous potential term (2p+1) a0^(2p) a_k^2 / 2; r and r_hat are
    the matching nonlinear remainders, so H = b0^2/2 + f(a0)/2 + J + r
    = b0^2/2 + f(a0)/2 + I + r_hat identically.  Fields are floats for one
    state and arrays over the samples for a stacked state.
    """

    H: float
    J: float
    I: float
    r: float
    r_hat: float
    f_a0: float


def validate_state(s: State, table: SpectrumTable, stacked: bool = False) -> None:
    """Check shapes and finiteness; ``stacked`` admits (S, modes) sample stacks."""
    shape = s.a.shape
    if shape[-1:] != (table.mode_count,) or s.b.shape != shape \
            or len(shape) != 1 + stacked:
        raise DimensionMismatch(
            f"state has shapes {s.a.shape}/{s.b.shape}, table has {table.mode_count} modes")
    if not (np.isfinite(s.a).all() and np.isfinite(s.b).all()):
        raise NonFiniteState(f"non-finite coefficients at t = {s.t!r}")


def potential_f(x: float, params: ModelParams):
    """Planar well f(x) = -m^2 x^2 + x^(2p+2)/(p+1); b0^2 + f(a0) is the level."""
    return -params.m ** 2 * x ** 2 + x ** (2 * params.p + 2) / (params.p + 1)


def _bound_force(params: ModelParams):
    """The planar force with ``params`` bound once: a callable
    x -> (m^2 - x^(2p)) x = m^2 x - x^(2p+1) whose constants are closure
    values, for loops that evaluate it hundreds of thousands of times.

    It multiplies and subtracts only, with no ``**``: every product is
    correctly rounded for a Python float and for a numpy array alike, so
    the closure gives the same bits on either (Python's ``x ** 3`` and
    numpy's differ in the last bit for about 5% of x in [0, 2] on an
    AVX-512 host).  At p = 1 the body is the single expression
    (m^2 - x x) x; larger p form x^(2p) by repeated products of x x."""
    m2, p = params.m ** 2, params.p
    if p == 1:
        def bound(x):
            return (m2 - x * x) * x
        return bound

    def bound(x):
        power = x2 = x * x
        for _ in range(p - 1):
            power = power * x2
        return (m2 - power) * x
    return bound


def force(x: float, params: ModelParams):
    """Planar restoring force m^2 x - x^(2p+1): db0/dt = force(a0) - q0.
    Evaluated as ``_bound_force`` does, so a float and an array of floats
    give the same bits."""
    return _bound_force(params)(x)


def rhs(s: State, table: SpectrumTable) -> State:
    """Time derivative of the state (canonical equations of the energy)."""
    validate_state(s, table)
    da = s.b.copy()
    db = -(table.lam_sq - table.params.m ** 2) * s.a - _project_power_raw(
        s.a, 2 * table.params.p + 1, table)
    return State(da, db, s.t)


def high_mode_energy(s: State, table: SpectrumTable):
    """Quadratic energy of the modes k >= 1,
    J = 1/2 sum_{k>=1} [(lam_k^2 - m^2) a_k^2 + b_k^2], with no grid work.

    The one home of J: ``energy_breakdown`` and the experiments call it.
    One state gives a float; a stack (S, modes) gives an (S,) array, each
    entry bit-identical to the one-state call on its row.
    """
    stacked = s.a.ndim == 2
    validate_state(s, table, stacked)
    J = 0.5 * np.sum((table.lam_sq[1:] - table.params.m ** 2) * s.a[..., 1:] ** 2
                     + s.b[..., 1:] ** 2, axis=-1)
    return J if stacked else float(J)


def _energy_rows(table: SpectrumTable) -> int:
    """Rows of one block of ``energy_breakdown``, which keeps about twice
    the kernel's grid-sized temporaries alive: half the kernel's rows."""
    return _chunk_rows(2 * table.n_nodes)


def energy_breakdown(s: State, table: SpectrumTable) -> EnergyBreakdown:
    """All energy diagnostics of a state, each from its own definition.

    ``s`` may also hold a stack of samples, a and b shaped (S, modes);
    every field is then an array of S values that owns its data.  A stack
    is cut into blocks of ``_energy_rows`` rows before any work, so no
    temporary spans the whole stack; in 1D the bits of r depend on that
    block size.  J comes from ``high_mode_energy``, and the grid is
    synthesised once per block, for H and r; the coupling remainder is
    ``coupling_remainder``.
    """
    if s.a.ndim == 2 and s.b.shape == s.a.shape:     # blocks validate themselves
        rows = _energy_rows(table)
        blocks = [_energy_fields(State(s.a[i:i + rows], s.b[i:i + rows]), table)
                  for i in range(0, len(s.a) or 1, rows)]
        return EnergyBreakdown(**{k: np.concatenate([block[k] for block in blocks])
                                  for k in blocks[0]})
    return EnergyBreakdown(**{k: float(v) for k, v in _energy_fields(s, table).items()})


def _energy_fields(s: State, table: SpectrumTable) -> dict:
    """The fields of ``energy_breakdown`` of one state or one block; the
    quadrature of the nonlinear term in H and r is exact."""
    J = high_mode_energy(s, table)      # validates s
    params = table.params
    p = params.p
    a0 = s.a[..., 0]

    mean_pow = np.mean(_grid_power(_synthesis(s.a, table), 2 * p + 2), axis=-1)
    quad = 0.5 * np.sum((table.lam_sq - params.m ** 2) * s.a ** 2 + s.b ** 2, axis=-1)
    H = quad + mean_pow / (2 * p + 2)
    r = (mean_pow - a0 ** (2 * p + 2)) / (2 * p + 2)
    shift = 0.5 * (2 * p + 1) * a0 ** (2 * p) * np.sum(s.a[..., 1:] ** 2, axis=-1)
    return dict(H=H, J=J, I=J + shift, r=r, r_hat=r - shift, f_a0=potential_f(a0, params))


def coupling_remainder(s: State, table: SpectrumTable) -> np.ndarray:
    """Coefficients q of the nonlinear coupling remainder
    (a0 + U)^(2p+1) - a0^(2p+1) - (2p+1) a0^(2p) U, U = sum_{k>=1} a_k e_k.

    q is quadratic and higher in U and identically zero when the high
    modes vanish; q[..., 0] is the q0 of db0/dt = force(a0) - q0.  One
    state gives a (modes,) array, a stack (S, modes) an (S, modes) array.
    """
    validate_state(s, table, s.a.ndim == 2)
    p = table.params.p
    a0 = s.a[..., :1]
    g = _synthesis(s.a, table)
    # g - a0 is U on the grid, exactly zero for planar states
    return _analysis(_grid_power(g, 2 * p + 1) - a0 ** (2 * p + 1)
                     - (2 * p + 1) * a0 ** (2 * p) * (g - a0), table)


def xnorm(s: State, table: SpectrumTable):
    """Energy-space norm: h1 norm of the position part plus l2 norm of the
    velocity part, sqrt(sum (1 + lam_n^2) a_n^2) + sqrt(sum b_n^2).

    ``s`` is one state (returns a float) or a stack with ``a``/``b`` shaped
    (S, modes) (returns an (S,) array); the one-state call is the one-row
    case.
    """
    shape = s.a.shape
    if shape[-1:] != (table.mode_count,) or s.b.shape != shape or len(shape) > 2:
        raise DimensionMismatch(
            f"state has shapes {s.a.shape}/{s.b.shape}, table has {table.mode_count} modes")
    a, b = np.atleast_2d(s.a, s.b)
    norm = _xnorm_rows(a[:, 0], b[:, 0], a, b, table)
    return norm if len(shape) == 2 else float(norm[0])


def _xnorm_rows(a0, b0, a, b, table: SpectrumTable):
    """``xnorm`` of rows whose constant-mode pair is (a0, b0) and whose
    other modes are a[:, 1:] and b[:, 1:]: their h1 and l2 sums are taken
    per row and joined with the pair as sqrt(a0^2 + sum (1 + lam^2) a^2)
    + sqrt(b0^2 + sum b^2) (lam_0 = 0).  ``dist_to_orbit`` passes its
    offsets from the loop as (a0, b0), so it copies no sample stack."""
    high_a = np.einsum("ij,ij,j->i", a[:, 1:], a[:, 1:], 1.0 + table.lam_sq[1:])
    high_b = np.einsum("ij,ij->i", b[:, 1:], b[:, 1:])
    return np.sqrt(a0 ** 2 + high_a) + np.sqrt(b0 ** 2 + high_b)


def dist_x(s1: State, s2: State, table: SpectrumTable):
    """Energy-space distance ``xnorm(s1 - s2)`` between states over the
    same table; either side may be a stack (S, modes), which broadcasts."""
    return xnorm(State(s1.a - s2.a, s1.b - s2.b), table)


def i_j_equivalence_bound(max_abs_a0: float, table: SpectrumTable) -> float:
    """Computable constant with J <= I <= bound * J on states whose |a0|
    stays below max_abs_a0 (uses the spectral gap lambda_1^2 - m^2)."""
    params = table.params
    gap = table.lambda_1 ** 2 - params.m ** 2
    return 1.0 + (2 * params.p + 1) * max_abs_a0 ** (2 * params.p) / gap
