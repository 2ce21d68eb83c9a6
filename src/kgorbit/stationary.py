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
and Floquet monodromies of nonconstant modes driven by the loop.  One
scalar RK4 pass (``_planar_rk4``) integrates the planar system for both
the monodromies and the loop samples; one vectorised bisection
(``invert_potential``, a single level being its one-element case) finds
the turning point and every projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, ProjectionUndefined
from .hamiltonian import State, _bound_force, _xnorm_rows, potential_f
from .spectra import ModelParams, SpectrumTable

__all__ = [
    "PlanarState", "Loop", "PeriodicOrbit", "DeltaBand", "Monodromy",
    "homoclinic", "turning_point", "period", "sample_orbit", "delta_band",
    "default_band", "invert_potential", "project_to_orbit", "dist_to_orbit",
    "check_eta", "check_mode_eigenvalues", "floquet",
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
    """Fundamental 2x2 matrix [[a, b], [c, d]] of one driven mode over one
    loop period.  Its determinant, trace and multipliers are closed forms
    in the four entries, so no LAPACK routine runs."""

    matrix: np.ndarray
    mode_eigenvalue: float

    @property
    def determinant(self) -> float:
        (a, b), (c, d) = self.matrix.tolist()
        return a * d - b * c

    @property
    def trace(self) -> float:
        (a, _), (_, d) = self.matrix.tolist()
        return a + d

    @property
    def multipliers(self) -> tuple[complex, complex]:
        """The eigenvalues tr/2 -+ sqrt(disc), disc = ((a - d)/2)^2 + bc,
        sorted by (real, imag).  disc equals (tr/2)^2 - det but is formed
        from a - d, so it does not cancel to rounding noise as that
        difference does near |tr| = 2, where det is 1 to rounding.  A real
        pair takes the root of larger modulus, tr/2 + sign(tr) sqrt(disc),
        and the other as det divided by it, so the smaller root of a
        hyperbolic pair does not cancel either."""
        (a, b), (c, d) = self.matrix.tolist()
        half_trace = 0.5 * (a + d)
        disc = (0.5 * (a - d)) ** 2 + b * c
        root = math.sqrt(abs(disc))
        if disc >= 0.0:
            large = half_trace + math.copysign(root, half_trace)
            small = self.determinant / large if large != 0.0 else 0.0   # nilpotent: both 0
            return tuple(complex(z) for z in sorted((small, large)))
        return complex(half_trace, -root), complex(half_trace, root)

    @property
    def classification(self) -> str:
        """'elliptic' for a unit-circle pair, 'hyperbolic' for a real
        reciprocal pair (the only options for a real matrix of determinant 1)."""
        return "elliptic" if abs(self.trace) <= 2.0 else "hyperbolic"


@dataclass(frozen=True)
class Loop:
    """One loop of the planar family by its turning point (eta, 0) and
    period: all that ``floquet`` reads."""

    eta: float
    period: float


@dataclass(frozen=True)
class PeriodicOrbit(Loop):
    """A loop with dense samples of its planar state: ``a0`` and ``b0`` at
    ``times`` over one period, and its level b0^2 + f(a0) = f(eta)."""

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


def check_eta(eta: float, params: ModelParams) -> None:
    """Raise OutOfRange unless 0 < eta < m^(1/p), the loop family's range."""
    if not (0.0 < eta < params.center):
        raise OutOfRange(f"{eta!r} must lie in (0, m^(1/p)) = (0, {params.center:.6g}): "
                         "eta and delta are near turning points of the loop family")


def turning_point(eta: float, params: ModelParams) -> float:
    """The conjugate turning point: unique root of f(x) = f(eta) in
    (m^(1/p), (p+1)^(1/2p) m^(1/p)), on the high branch of ``invert_potential``."""
    check_eta(eta, params)
    return invert_potential(potential_f(eta, params), params, "high")


def _w_factor(alpha, eta: float, eta_prime: float, params: ModelParams):
    """Smooth positive W with f(eta) - f(alpha) = (alpha^2 - eta^2)
    (eta_prime^2 - alpha^2) W(alpha); exact polynomial factorisation, so the
    period integrand below has no cancellation at either turning point.
    Elementwise in alpha."""
    p = params.p
    a2, e2, ep2 = alpha * alpha, eta * eta, eta_prime * eta_prime
    total = 0.0
    for j in range(1, p + 1):
        inner = 0.0
        for i in range(j):
            inner += a2 ** i * ep2 ** (j - 1 - i)
        total += e2 ** (p - j) * inner
    return total / (p + 1)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Newton's method on the Legendre three-term recurrence, from the
    guesses cos(pi (k - 1/4) / (n + 1/2)), runs in np.longdouble; the
    nodes and weights are rounded to float64 once, at the end.  With the
    80-bit x86 long double every one is the correctly rounded value (a
    test checks them against a 40-digit rule); numpy's ``leggauss``
    weights are off by up to 1e4 ulps in the tails.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1, dtype=np.longdouble) - 0.25) / (n + 0.5))
    for _ in range(6):  # n = 64 converges in five
        p_prev, p_n = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p_n = p_n, ((2 * j - 1) * x * p_n - (j - 1) * p_prev) / j
        dp = n * (x * p_n - p_prev) / (x * x - 1)
        x = x - p_n / dp
    weights = 1 / ((1 - x * x) * dp * dp)
    return ((1 + x) / 2).astype(np.float64), weights.astype(np.float64)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(64)


def period(eta: float, params: ModelParams) -> float:
    """Loop period by quadrature: T = 2 int_eta^eta' dalpha / sqrt(f(eta) - f(alpha)).

    Both endpoints are simple turning points; the substitutions
    alpha = eta cosh(sigma) (left, which also unfolds the logarithmic
    saddle layer) and alpha = eta' - s^2 (right) make each half-integrand
    analytic on its closed interval, so one fixed 64-node Gauss-Legendre
    rule per half, evaluated in one vectorised pass, converges to
    rounding.  For p = 1, T is within 2.1 ulps of the exact 2 K(k)/beta
    from eta = 1e-6 to 0.1.  For p = 1, 2 and 3 it agrees with adaptive
    quadrature to 1.0e-15 relative up to eta = 0.99 m^(1/p); nearer the
    center the conditioning of ``turning_point`` limits both (32 ulps at
    0.999 m^(1/p)).
    """
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
    t_left = sigma_max * np.dot(_GL_WEIGHTS, left(sigma_max * _GL_NODES))
    t_right = s_max * np.dot(_GL_WEIGHTS, right(s_max * _GL_NODES))
    return float(2.0 * (t_left + t_right))


_RK4_BLOCK = 1024  # steps per block: bounds memory, amortises numpy calls


def _planar_rk4(eta: float, T: float, n_steps: int, params: ModelParams):
    """Scalar fixed-step RK4 from (eta, 0): n_steps steps of h = T/n_steps.
    Yields blocks of at most _RK4_BLOCK steps as ``(rows, (a, b))``: rows
    (6, steps) hold each step's start t, a, b and a at stages 2-4, and
    (a, b) is the state after the block's last step."""
    h = T / n_steps
    hh, h6 = 0.5 * h, h / 6.0
    f = _bound_force(params)
    a, b, t = float(eta), 0.0, 0.0
    for first in range(0, n_steps, _RK4_BLOCK):
        record = []
        for _ in range(min(_RK4_BLOCK, n_steps - first)):
            f1 = f(a)
            a2, b2 = a + hh * b, b + hh * f1
            f2 = f(a2)
            a3, b3 = a + hh * b2, b + hh * f2
            f3 = f(a3)
            a4, b4 = a + h * b3, b + h * f3
            f4 = f(a4)
            record += (t, a, b, a2, a3, a4)
            a = a + h6 * (b + 2 * b2 + 2 * b3 + b4)
            b = b + h6 * (f1 + 2 * f2 + 2 * f3 + f4)
            t += h
        yield np.array(record).reshape(-1, 6).T, (a, b)


def sample_orbit(eta: float, n_samples: int, params: ModelParams) -> PeriodicOrbit:
    """Equal-time samples of one loop from (eta, 0), times 0..T over
    n_samples intervals: every stride-th step start of the ``floquet``
    planar RK4 pass with steps h = T/(n_samples stride) <= 1e-3, and its
    end state at T.  For p = 1 and n_samples = 4096 they match the closed
    form eta' dn(beta (t - T/2), k) to 5e-14 for eta >= 0.01 and to 9e-13
    at eta = 1e-3."""
    if n_samples < 16:
        raise OutOfRange(f"n_samples must be >= 16, got {n_samples}")
    T = period(eta, params)
    stride = int(np.ceil(T / (n_samples * 1e-3)))
    blocks = list(_planar_rk4(eta, T, n_samples * stride, params))
    a0, b0 = np.concatenate([rows[1:3] for rows, _ in blocks], axis=1)[:, ::stride]
    end_a, end_b = blocks[-1][1]
    return PeriodicOrbit(
        eta=eta, period=T,
        times=np.linspace(0.0, T, n_samples + 1), a0=np.append(a0, end_a),
        b0=np.append(b0, end_b), energy_level=float(potential_f(eta, params)),
    )


def delta_band(delta: float, params: ModelParams) -> DeltaBand:
    """Pair delta with the level-matched delta_prime on the far side
    (``turning_point`` of the loop through delta, so ``check_eta`` applies)."""
    return DeltaBand(delta=delta, delta_prime=turning_point(delta, params))


def default_band(params: ModelParams) -> DeltaBand:
    """Mid-range band delta = m^(1/p)/2; keeps both regime transitions O(1)."""
    return delta_band(0.5 * params.center, params)


# Bisection tolerance of invert_potential: absolute and relative bracket width.
_XTOL, _RTOL = 1e-15, 8.9e-16


def _level_range(branch: str, params: ModelParams) -> tuple[float, float]:
    """Levels f takes on a monotone branch: [f_min, 0] on 'low', [f_min, inf) on 'high'."""
    f_min = potential_f(params.center, params)
    if branch == "low":
        return f_min, 0.0
    if branch == "high":
        return f_min, np.inf
    raise ValueError(f"unknown branch {branch!r}")


def invert_potential(y, params: ModelParams, branch: str):
    """Invert f on one monotone branch: 'low' = (0, m^(1/p)] where f
    decreases from 0 to its minimum, 'high' = [m^(1/p), inf) where it
    increases from the minimum.

    ``y`` is one level (returns a float) or an array of levels (returns
    an array of the same shape); one level is the one-element case.  All
    levels are solved together by one vectorised bisection on the branch,
    each bracket narrowed to 1e-15 + 8.9e-16 |x| and then finished by one
    secant step inside it.  Each level's root depends on that level alone.
    Raises ProjectionUndefined when any level lies outside the range of f
    on the branch.
    """
    y_lo, y_hi = _level_range(branch, params)
    one = np.ndim(y) == 0
    levels = np.atleast_1d(np.asarray(y, dtype=float))
    outside = ~((levels >= y_lo) & (levels <= y_hi))
    if outside.any():
        raise ProjectionUndefined(
            f"level {float(levels[outside].flat[0])!r} outside [{y_lo!r}, {y_hi!r}] "
            f"on the {branch} branch")
    rising = branch == "high"
    lo = np.full_like(levels, params.center if rising else 0.0)
    hi = np.full_like(levels, params.separatrix_amplitude if rising else params.center)
    short = potential_f(hi, params) < levels
    while short.any():
        hi[short] *= 2.0
        short = potential_f(hi, params) < levels
    while True:
        x = 0.5 * (lo + hi)
        wide = hi - lo > _XTOL + _RTOL * np.abs(x)   # converged brackets stay put
        if not wide.any():
            break
        below = (potential_f(x, params) > levels) == rising   # root lies below x
        hi = np.where(wide & below, x, hi)
        lo = np.where(wide & ~below, x, lo)
    # one secant step inside the final bracket, where f is linear to rounding
    f_lo, f_hi = potential_f(lo, params), potential_f(hi, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (levels - f_lo) / (f_hi - f_lo) * (hi - lo)
    x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
    x = np.where(levels == y_lo, params.center, x)
    return float(x[0]) if one else x


def _project(a0: np.ndarray, b0: np.ndarray, eta: float, band: DeltaBand,
             params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise projection of (a0, b0) arrays onto the loop's level set
    (the rule of ``project_to_orbit``).  Returns the projected arrays and
    a mask of the rows whose projection is defined; the others hold NaN."""
    level = potential_f(eta, params)
    pa, pb = a0.astype(float), b0.astype(float)
    defined = np.ones(a0.shape, dtype=bool)
    inside = (band.delta <= a0) & (a0 <= band.delta_prime)
    gap = level - potential_f(a0[inside], params)
    defined[inside] = gap >= -1e-14
    root = np.sqrt(np.maximum(gap, 0.0))
    pb[inside] = np.where(b0[inside] >= 0, root, -root)
    for branch, rows in (("low", a0 < band.delta), ("high", a0 > band.delta_prime)):
        y_lo, y_hi = _level_range(branch, params)
        y = level - b0[rows] ** 2
        ok = (y >= y_lo) & (y <= y_hi)
        defined[rows] = ok
        pa[np.flatnonzero(rows)[ok]] = invert_potential(y[ok], params, branch)
    pa[~defined] = np.nan
    pb[~defined] = np.nan
    return pa, pb, defined


def project_to_orbit(s: PlanarState, eta: float, band: DeltaBand,
                     params: ModelParams) -> PlanarState:
    """Nearby point on the loop's level set b0^2 + f(a0) = f(eta).

    Inside [delta, delta'] the position is kept and the velocity adjusted;
    outside, the velocity is kept and the position moved along the
    monotone branch of f containing it.  ``s.a0``/``s.b0`` are numbers
    or equal-length arrays (all points projected at once, arrays
    returned).  Raises ProjectionUndefined when a required root is not
    real.
    """
    a0, b0 = np.atleast_1d(s.a0), np.atleast_1d(s.b0)
    pa, pb, defined = _project(a0, b0, eta, band, params)
    if not defined.all():
        k = int(np.argmin(defined))
        raise ProjectionUndefined(
            f"no real point on the level set of eta = {eta!r} for "
            f"{int((~defined).sum())} of {defined.size} points, "
            f"first (a0, b0) = ({float(a0[k])!r}, {float(b0[k])!r})")
    if np.ndim(s.a0) == 0:
        return PlanarState(float(pa[0]), float(pb[0]))
    return PlanarState(pa, pb)


def dist_to_orbit(s: State, eta: float, band: DeltaBand, table: SpectrumTable):
    """Energy-space distance from a full state to the planar loop.

    The constant-mode pair is projected onto the level set (by the rule of
    ``project_to_orbit``, once per call) and the ``xnorm`` distance to that
    embedded point returned.  Rows whose projection is undefined fall back
    to the minimum distance to 4096 embedded loop samples, built once per
    call on demand.  ``s`` is one state (returns a float) or a stack of
    samples with ``a``/``b`` shaped (S, modes) (returns an (S,) array), the
    one-state call being the one-row case; a chain calls it once per page.
    """
    params = table.params
    a, b = np.atleast_2d(s.a, s.b)
    pa, pb, defined = _project(a[:, 0], b[:, 0], eta, band, params)
    value = _xnorm_rows(a[:, 0] - pa, b[:, 0] - pb, a, b, table)
    loop = None if defined.all() else sample_orbit(eta, 4096, params)
    for r in np.flatnonzero(~defined):
        value[r] = np.min(_xnorm_rows(a[r, 0] - loop.a0, b[r, 0] - loop.b0,
                                      a[r:r + 1], b[r:r + 1], table))
    return value if s.a.ndim == 2 else float(value[0])


def check_mode_eigenvalues(lambda_n, params: ModelParams) -> None:
    """Raise OutOfRange unless every driven-mode eigenvalue is finite and
    exceeds m (a nonconstant mode; ``lambda_n`` is a number or a sequence)."""
    for lam in (lambda_n if np.ndim(lambda_n) else (lambda_n,)):
        if not lam > params.m:
            raise OutOfRange(
                f"mode eigenvalue must exceed m = {params.m}, got {lam!r}")
        if not math.isfinite(lam):
            raise OutOfRange(f"mode eigenvalue must be finite, got {lam!r}")


def _step_propagators(c1, c2, c3, c4, h):
    """RK4 step matrix S of x' = [[0, 1], [c, 0]] x from its four stage
    coefficients ((n, modes) arrays), returned as S - I stacked
    (n, modes, 2, 2).  Products are carried as offsets from the identity
    so that rounding scales with the O(h) entries, not with 1:
    (I + L)(I + E) - I = L + E + L @ E."""
    q = h * h
    s = np.empty(c1.shape + (2, 2))
    s[..., 0, 0] = q / 6.0 * (c1 + c2 + c3) + q * q / 24.0 * c1 * c3
    s[..., 0, 1] = h + h * q / 12.0 * (c2 + c3)
    s[..., 1, 0] = (h / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                    + h * q / 12.0 * (c1 * c3 + c2 * c4))
    s[..., 1, 1] = q / 6.0 * (c2 + c3 + c4) + q * q / 24.0 * c2 * c4
    return s


def _tree_product(s):
    """Product S_(n-1) ... S_0 of stacked offsets from ``_step_propagators``
    (rows in time order) by pairwise reduction; returns (modes, 2, 2)."""
    while len(s) > 1:
        n = len(s) // 2 * 2
        late, early = s[1:n:2], s[0:n:2]
        paired = late + early + late @ early
        s = np.concatenate((paired, s[n:])) if n < len(s) else paired
    return s[0]


def floquet(orbit: Loop, lambda_n, params: ModelParams,
            dt: float = 1e-3, potential=None):
    """Monodromy of driven modes, da = b, db = -(lambda_n^2 - m^2) a - V(t) a,
    over one loop period with V(t) = (2p+1) a0(t)^(2p).

    ``orbit`` is read for its ``eta`` and ``period`` only: a ``Loop``
    serves, and a sampled ``PeriodicOrbit`` gives the same result.
    ``lambda_n`` is one eigenvalue (returns a Monodromy) or a sequence
    (returns a list of Monodromy in the same order); all modes share one
    pass over the loop.  That planar pass (``_planar_rk4``) re-integrates
    the loop from (eta, 0) by scalar fixed-step RK4 with n = max(16,
    ceil(T/dt)) steps, one block of stage values at a time, rather than
    interpolating stored samples, because interpolation error would
    pollute the determinant-1 identity; halving dt must leave the multipliers
    unchanged to rounding.  For each block the exact RK4 step matrix of
    every mode's linear system is built from the stage coefficients as a
    stacked (steps, modes, 2, 2) offset from the identity; the block is
    multiplied by pairwise reduction, one ``L + E + L @ E`` (matmul over
    the stack) per tree level, and folded into the running product in
    time order the same way, so the working memory does not grow with
    T/dt.  This equals RK4 on the joint planar-plus-fundamental system up
    to rounding.  Each Monodromy's determinant and multipliers are closed
    forms in its four entries, so the call runs no ``numpy.linalg`` routine.
    Passing ``potential`` (a callable of t) replaces the loop-driven V,
    e.g. ``lambda t: 0.0`` for the constant-coefficient check.  Raises
    OutOfRange when dt is not finite and > 0, and, naming lambda and dt,
    when a monodromy overflows.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise OutOfRange(f"dt must be finite and > 0, got {dt!r}")
    check_mode_eigenvalues(lambda_n, params)
    scalar = np.ndim(lambda_n) == 0
    lambdas = [lambda_n] if scalar else list(lambda_n)
    w2 = np.array([lam ** 2 - params.m ** 2 for lam in lambdas])
    T = orbit.period
    n_steps = max(16, int(np.ceil(T / dt)))
    h = T / n_steps
    hh = 0.5 * h
    total = np.zeros((len(w2), 2, 2))
    # an overflowing product is reported by the finiteness check below alone
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, _ in _planar_rk4(orbit.eta, T, n_steps, params):
            t, a1, _, a2, a3, a4 = rows
            if potential is None:
                v = [(2 * params.p + 1) * a ** (2 * params.p) for a in (a1, a2, a3, a4)]
            else:
                v = [np.array([potential(s) for s in ts]) for ts in (t, t + hh, t + hh, t + h)]
            block = _tree_product(_step_propagators(*(-w2 - vi[:, None] for vi in v), h))
            total = block + total + block @ total

    for lam, offset in zip(lambdas, total):
        if not np.isfinite(offset).all():
            raise OutOfRange(f"monodromy of lambda = {lam!r} at dt = {dt!r} is not finite "
                             f"(eta = {orbit.eta!r}): past RK4's stability bound, use a smaller dt")
    monos = [Monodromy(matrix=np.eye(2) + offset, mode_eigenvalue=lam)
             for lam, offset in zip(lambdas, total)]
    return monos[0] if scalar else monos
