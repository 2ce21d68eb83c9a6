"""The space-stationary planar subsystem and the periodic loop family.

With all nonconstant modes at zero the dynamics reduces to

    da0/dt = b0,    db0/dt = m^2 a0 - a0^(2p+1),

a planar Hamiltonian system with conserved level b0^2 + f(a0),
f(x) = -m^2 x^2 + x^(2p+2)/(p+1).  The origin is a saddle whose
separatrix loop is known in closed form,

    h(t) = m^(1/p) (p+1)^(1/2p) / cosh(p m t)^(1/p),

and every eta in (0, m^(1/p)) selects a periodic loop through (eta, 0)
inside the separatrix.  Its period diverges like (2/m) ln(1/eta) as the
loop approaches the saddle.  This module provides the closed forms, the
period as a singularity-free quadrature, level-set projection/distance,
and Floquet analysis of a single nonconstant mode driven by the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import OutOfRange, ProjectionUndefined
from .hamiltonian import State, force, potential_f
from .spectra import ModelParams, SpectrumTable

__all__ = [
    "PlanarState", "PeriodicOrbit", "DeltaBand", "Monodromy",
    "homoclinic", "turning_point", "period", "sample_orbit", "delta_band",
    "default_band", "invert_potential", "project_to_orbit", "dist_to_orbit",
    "floquet",
]


@dataclass(frozen=True)
class PlanarState:
    a0: float
    b0: float


@dataclass(frozen=True)
class DeltaBand:
    """A level-matched pair delta < m^(1/p) < delta_prime with
    f(delta_prime) = f(delta); selects the projection branch."""

    delta: float
    delta_prime: float


@dataclass(frozen=True)
class Monodromy:
    """Fundamental 2x2 matrix of one driven mode over one loop period."""

    matrix: np.ndarray
    multipliers: tuple[complex, complex]
    mode_eigenvalue: float

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def classification(self) -> str:
        """'elliptic' for a unit-circle pair, 'hyperbolic' for a real
        reciprocal pair (the only options for a real matrix of determinant 1)."""
        return "elliptic" if abs(self.trace) <= 2.0 else "hyperbolic"


@dataclass(frozen=True)
class PeriodicOrbit:
    """One loop of the planar family: turning points, period, dense samples."""

    eta: float
    eta_prime: float
    period: float
    times: np.ndarray = field(repr=False)
    a0: np.ndarray = field(repr=False)
    b0: np.ndarray = field(repr=False)
    energy_level: float = 0.0


def homoclinic(t: float, params: ModelParams) -> PlanarState:
    """The saddle loop (h(t), h'(t)) in closed form."""
    p, m = params.p, params.m
    amp = params.separatrix_amplitude
    ch = np.cosh(p * m * t)
    a0 = amp / ch ** (1.0 / p)
    b0 = -amp * m * np.sinh(p * m * t) / ch ** (1.0 / p + 1.0)
    return PlanarState(float(a0), float(b0))


def _check_eta(eta: float, params: ModelParams) -> None:
    if not (0.0 < eta < params.center):
        raise OutOfRange(
            f"eta must lie in (0, {params.center:.6g}), got {eta!r}")


def turning_point(eta: float, params: ModelParams) -> float:
    """The conjugate turning point: unique root of f(x) = f(eta) in
    (m^(1/p), (p+1)^(1/2p) m^(1/p))."""
    _check_eta(eta, params)
    level = potential_f(eta, params)
    lo, hi = params.center, params.separatrix_amplitude
    return float(brentq(lambda x: potential_f(x, params) - level, lo, hi,
                        xtol=1e-15, rtol=8.9e-16))


def _w_factor(alpha: float, eta: float, eta_prime: float, params: ModelParams) -> float:
    """Smooth positive W with f(eta) - f(alpha) = (alpha^2 - eta^2)
    (eta_prime^2 - alpha^2) W(alpha); exact polynomial factorisation, so the
    period integrand below has no cancellation at either turning point."""
    p = params.p
    a2, e2, ep2 = alpha * alpha, eta * eta, eta_prime * eta_prime
    total = 0.0
    for j in range(1, p + 1):
        inner = 0.0
        for i in range(j):
            inner += a2 ** i * ep2 ** (j - 1 - i)
        total += e2 ** (p - j) * inner
    return total / (p + 1)


def period(eta: float, params: ModelParams) -> float:
    """Loop period by quadrature: T = 2 int_eta^eta' dalpha / sqrt(f(eta) - f(alpha)).

    Both endpoints are simple turning points; the substitutions
    alpha = eta cosh(sigma) (left, which also unfolds the logarithmic
    saddle layer) and alpha = eta' - s^2 (right) make each half-integrand
    analytic, so the absolute error is far below 1e-9.
    """
    _check_eta(eta, params)
    eta_p = turning_point(eta, params)
    x_mid = params.center

    def left(sigma):
        alpha = eta * np.cosh(sigma)
        val = (eta_p ** 2 - alpha ** 2) * _w_factor(alpha, eta, eta_p, params)
        return 1.0 / np.sqrt(val)

    def right(s):
        alpha = eta_p - s * s
        val = (alpha ** 2 - eta ** 2) * (eta_p + alpha) * _w_factor(alpha, eta, eta_p, params)
        return 2.0 / np.sqrt(val)

    sigma_max = float(np.arccosh(x_mid / eta))
    s_max = float(np.sqrt(eta_p - x_mid))
    t_left, _ = quad(left, 0.0, sigma_max, epsabs=1e-12, epsrel=1e-12, limit=200)
    t_right, _ = quad(right, 0.0, s_max, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * (t_left + t_right)


def _planar_ivp(t, y, params):
    return (y[1], force(y[0], params))


def sample_orbit(eta: float, n_samples: int, params: ModelParams,
                 rtol: float = 1e-12, atol: float = 1e-14) -> PeriodicOrbit:
    """Integrate one loop from (eta, 0) and store equal-time samples
    (endpoints included, so times run 0..T over n_samples intervals)."""
    _check_eta(eta, params)
    if n_samples < 16:
        raise OutOfRange(f"n_samples must be >= 16, got {n_samples}")
    T = period(eta, params)
    t_eval = np.linspace(0.0, T, n_samples + 1)
    sol = solve_ivp(_planar_ivp, (0.0, T), [eta, 0.0], t_eval=t_eval,
                    rtol=rtol, atol=atol, method="DOP853", args=(params,))
    if not sol.success:
        raise RuntimeError(f"loop integration failed: {sol.message}")
    return PeriodicOrbit(
        eta=eta, eta_prime=turning_point(eta, params), period=T,
        times=sol.t, a0=sol.y[0], b0=sol.y[1],
        energy_level=float(potential_f(eta, params)),
    )


def delta_band(delta: float, params: ModelParams) -> DeltaBand:
    """Pair delta with the level-matched delta_prime on the far side."""
    if not (0.0 < delta < params.center):
        raise OutOfRange(
            f"delta must lie in (0, {params.center:.6g}), got {delta!r}")
    return DeltaBand(delta=delta, delta_prime=turning_point(delta, params))


def default_band(params: ModelParams) -> DeltaBand:
    """Mid-range band delta = m^(1/p)/2; keeps both regime transitions O(1)."""
    return delta_band(0.5 * params.center, params)


def invert_potential(y: float, params: ModelParams, branch: str) -> float:
    """Invert f on one monotone branch: 'low' = (0, m^(1/p)] where f
    decreases from 0 to its minimum, 'high' = [m^(1/p), inf) where it
    increases from the minimum."""
    f_min = potential_f(params.center, params)
    if y < f_min:
        raise ProjectionUndefined(
            f"level {y!r} below the potential minimum {f_min!r}")
    if branch == "low":
        if y > 0.0:
            raise ProjectionUndefined(f"level {y!r} above f(0) = 0 on the low branch")
        lo, hi = 0.0, params.center
    elif branch == "high":
        lo, hi = params.center, params.separatrix_amplitude
        while potential_f(hi, params) < y:
            hi *= 2.0
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if y == f_min:
        return params.center
    return float(brentq(lambda x: potential_f(x, params) - y, lo, hi,
                        xtol=1e-15, rtol=8.9e-16))


def project_to_orbit(s: PlanarState, eta: float, band: DeltaBand,
                     params: ModelParams) -> PlanarState:
    """Nearby point on the loop's level set b0^2 + f(a0) = f(eta).

    Inside [delta, delta'] the position is kept and the velocity adjusted;
    outside, the velocity is kept and the position moved along the
    monotone branch of f containing it.  Raises ProjectionUndefined when
    the required root is not real.
    """
    level = potential_f(eta, params)
    if band.delta <= s.a0 <= band.delta_prime:
        gap = level - potential_f(s.a0, params)
        if gap < 0.0:
            if gap < -1e-14:
                raise ProjectionUndefined(
                    f"no real velocity: f(a0) exceeds the level by {-gap:.3e}")
            gap = 0.0
        b = np.sqrt(gap)
        return PlanarState(s.a0, float(b if s.b0 >= 0 else -b))
    branch = "low" if s.a0 < band.delta else "high"
    return PlanarState(invert_potential(level - s.b0 ** 2, params, branch), s.b0)


def dist_to_orbit(s: State, eta: float, band: DeltaBand, table: SpectrumTable,
                  params: ModelParams, orbit: PeriodicOrbit | None = None,
                  with_path: bool = False):
    """Energy-space distance from a full state to the planar loop.

    The constant-mode pair is projected onto the level set and the
    distance to that embedded point returned.  When the projection is
    undefined the result falls back to the minimum over dense loop
    samples (``orbit``, built on demand).  ``with_path=True`` also
    returns which route produced the value ('projection' or 'samples').
    """
    a0, b0 = float(s.a[0]), float(s.b[0])
    high_a = float(np.sum((1.0 + table.lam_sq[1:]) * s.a[1:] ** 2))
    high_b = float(np.sum(s.b[1:] ** 2))

    def embedded_distance(pa, pb):
        return (np.sqrt((a0 - pa) ** 2 + high_a) + np.sqrt((b0 - pb) ** 2 + high_b))

    try:
        proj = project_to_orbit(PlanarState(a0, b0), eta, band, params)
        value, path = embedded_distance(proj.a0, proj.b0), "projection"
    except ProjectionUndefined:
        if orbit is None:
            orbit = sample_orbit(eta, 4096, params)
        dists = (np.sqrt((a0 - orbit.a0) ** 2 + high_a)
                 + np.sqrt((b0 - orbit.b0) ** 2 + high_b))
        value, path = float(dists.min()), "samples"
    return (value, path) if with_path else value


def floquet(orbit: PeriodicOrbit, lambda_n: float, params: ModelParams,
            dt: float = 1e-3, potential=None) -> Monodromy:
    """Monodromy of one driven mode, da = b, db = -(lambda_n^2 - m^2) a - V(t) a,
    over one loop period with V(t) = (2p+1) a0(t)^(2p).

    The loop is re-integrated jointly with the 2x2 fundamental system by
    fixed-step RK4 (halving dt must leave the multipliers unchanged to
    rounding), rather than interpolating stored samples, which would
    pollute the determinant-1 identity.  Passing ``potential`` (a callable
    of t) replaces the loop-driven V, e.g. ``lambda t: 0.0`` for the
    constant-coefficient check.
    """
    if not lambda_n > params.m:
        raise OutOfRange(
            f"mode eigenvalue must exceed m = {params.m}, got {lambda_n!r}")
    p = params.p
    w2 = lambda_n ** 2 - params.m ** 2
    T = orbit.period
    n_steps = max(16, int(np.ceil(T / dt)))
    h = T / n_steps

    if potential is None:
        def pot(t, a0):
            return (2 * p + 1) * a0 ** (2 * p)
    else:
        def pot(t, a0):
            return potential(t)

    def deriv(t, y):
        a0, b0, x11, x21, x12, x22 = y
        c = -w2 - pot(t, a0)
        return np.array([b0, force(a0, params), x21, c * x11, x22, c * x12])

    y = np.array([orbit.eta, 0.0, 1.0, 0.0, 0.0, 1.0])
    t = 0.0
    for _ in range(n_steps):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h

    matrix = np.array([[y[2], y[4]], [y[3], y[5]]])
    mults = np.linalg.eigvals(matrix)
    mults = tuple(sorted((complex(m) for m in mults), key=lambda z: (z.real, z.imag)))
    return Monodromy(matrix=matrix, multipliers=mults, mode_eigenvalue=lambda_n)
