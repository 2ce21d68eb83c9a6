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
rounding) because the grid quadrature is exact.

Sign convention: the planar force is force(x) = m^2 x - x^(2p+1), so the
constant mode obeys db0/dt = force(a0) - q0 and the conserved planar level
is b0^2 + f(a0) (no 1/2); f itself only ever enters level-set relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteState
from .spectra import (ModelParams, SpectrumTable, _analysis, _grid_power,
                      _project_power_raw, _synthesis)

__all__ = [
    "State", "EnergyBreakdown", "potential_f", "f_prime", "force",
    "hamiltonian", "rhs", "q_vector", "energy_breakdown", "xnorm",
    "dist_x", "phi_diagnostic", "i_j_equivalence_bound", "validate_state",
]


@dataclass
class State:
    """Mode coefficients of (u, du/dt), plus a bookkeeping time."""

    a: np.ndarray
    b: np.ndarray
    t: float = 0.0

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
    q_norm: float
    q0: float
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


def f_prime(x: float, params: ModelParams):
    """Derivative of potential_f; equals -2 * force."""
    return 2.0 * (x ** (2 * params.p + 1) - params.m ** 2 * x)


def _bound_force(params: ModelParams):
    """The planar force with ``params`` bound once: a callable
    x -> m^2 x - x^(2p+1) whose constants are closure values, for loops
    that evaluate it hundreds of thousands of times."""
    m2, n = params.m ** 2, 2 * params.p + 1

    def bound(x):
        return m2 * x - x ** n
    return bound


def force(x: float, params: ModelParams):
    """Planar restoring force m^2 x - x^(2p+1): db0/dt = force(a0) - q0."""
    return _bound_force(params)(x)


def _energy(s: State, g: np.ndarray, table: SpectrumTable,
            params: ModelParams) -> tuple[float, float]:
    """Total energy H and the grid mean of u^(2p+2), given the grid values
    g of u; the quadrature of the nonlinear term is exact.  Reduces over
    the last axis, so stacked states give one value per sample."""
    mean_pow = np.mean(_grid_power(g, 2 * params.p + 2), axis=-1)
    quad = 0.5 * np.sum((table.lam_sq - params.m ** 2) * s.a ** 2 + s.b ** 2, axis=-1)
    return quad + mean_pow / (2 * params.p + 2), mean_pow


def hamiltonian(s: State, table: SpectrumTable, params: ModelParams) -> float:
    """Total energy by exact quadrature of the nonlinear term."""
    validate_state(s, table)
    return float(_energy(s, _synthesis(s.a, table), table, params)[0])


def rhs(s: State, table: SpectrumTable, params: ModelParams) -> State:
    """Time derivative of the state (canonical equations of the energy)."""
    validate_state(s, table)
    da = s.b.copy()
    db = -(table.lam_sq - params.m ** 2) * s.a - _project_power_raw(
        s.a, 2 * params.p + 1, table)
    return State(da, db, s.t)


def q_vector(s: State, table: SpectrumTable, params: ModelParams) -> np.ndarray:
    """Coefficients q_k of the nonlinear coupling remainder.

    q_k = <(a0 + U)^(2p+1) - a0^(2p+1) - (2p+1) a0^(2p) U, e_k> with
    U = sum_{k>=1} a_k e_k.  Quadratic and higher in U; identically zero
    when the high modes vanish.
    """
    validate_state(s, table)
    return _q_from_grid(_synthesis(s.a, table), float(s.a[0]), table, params)


def _q_from_grid(g: np.ndarray, a0, table: SpectrumTable,
                 params: ModelParams) -> np.ndarray:
    p = params.p
    a0 = np.asarray(a0)[..., None]
    u_high = g - a0            # grid values of U; exactly zero for planar states
    integrand = _grid_power(g, 2 * p + 1) - a0 ** (2 * p + 1) \
        - (2 * p + 1) * a0 ** (2 * p) * u_high
    return _analysis(integrand, table)


def energy_breakdown(s: State, table: SpectrumTable, params: ModelParams) -> EnergyBreakdown:
    """All energy diagnostics of a state, each from its own definition.

    ``s`` may also hold a stack of samples, a and b shaped (S, modes);
    every field is then an array of S values.
    """
    stacked = s.a.ndim == 2
    validate_state(s, table, stacked)
    m2, p = params.m ** 2, params.p
    a0 = s.a[..., 0]

    g = _synthesis(s.a, table)
    H, mean_pow = _energy(s, g, table, params)
    J = 0.5 * np.sum((table.lam_sq[1:] - m2) * s.a[..., 1:] ** 2 + s.b[..., 1:] ** 2, axis=-1)
    r = (mean_pow - a0 ** (2 * p + 2)) / (2 * p + 2)
    shift = 0.5 * (2 * p + 1) * a0 ** (2 * p) * np.sum(s.a[..., 1:] ** 2, axis=-1)
    q = _q_from_grid(g, a0, table, params)
    values = dict(H=H, J=J, I=J + shift, r=r, r_hat=r - shift,
                  q_norm=np.linalg.norm(q[..., 1:], axis=-1), q0=q[..., 0],
                  f_a0=potential_f(a0, params))
    convert = np.asarray if stacked else float
    return EnergyBreakdown(**{k: convert(v) for k, v in values.items()})


def xnorm(s: State, table: SpectrumTable) -> float:
    """Energy-space norm: h1 norm of the position part plus l2 norm of the
    velocity part, ||u||_h1 = sqrt(sum (1 + lam_n^2) a_n^2)."""
    if s.a.shape != (table.mode_count,) or s.b.shape != (table.mode_count,):
        raise DimensionMismatch("state/table mode count mismatch")
    return float(np.sqrt(np.sum((1.0 + table.lam_sq) * s.a ** 2))
                 + np.sqrt(np.sum(s.b ** 2)))


def dist_x(s1: State, s2: State, table: SpectrumTable) -> float:
    """Energy-space distance between two states over the same table."""
    return xnorm(State(s1.a - s2.a, s1.b - s2.b), table)


def phi_diagnostic(s: State, s0_breakdown: EnergyBreakdown, eta: float,
                   table: SpectrumTable, params: ModelParams) -> float:
    """Rescaled level drift phi with eta^5 phi = -2 (J - J(0)) - 2 (r - r(0)).

    Along exact trajectories started at (a0, b0) = (eta, 0) this satisfies
    b0^2 + f(a0) = f(eta) + eta^5 phi(t).
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    bd = energy_breakdown(s, table, params)
    return _phi(bd.J, bd.r, s0_breakdown.J, s0_breakdown.r, eta)


def _phi(J, r, J0: float, r0: float, eta: float):
    """phi = (-2 (J - J0) - 2 (r - r0)) / eta^5, elementwise over arrays."""
    return (-2.0 * (J - J0) - 2.0 * (r - r0)) / eta ** 5


def i_j_equivalence_bound(max_abs_a0: float, table: SpectrumTable,
                          params: ModelParams) -> float:
    """Computable constant with J <= I <= bound * J on states whose |a0|
    stays below max_abs_a0 (uses the spectral gap lambda_1^2 - m^2)."""
    gap = table.lambda_1 ** 2 - params.m ** 2
    return 1.0 + (2 * params.p + 1) * max_abs_a0 ** (2 * params.p) / gap
