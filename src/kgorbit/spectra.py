"""Real Fourier eigenbasis of -Laplace on flat tori, with dealiased quadrature.

The basis is the tensor product, over axes, of {1, sqrt(2) cos(2 pi k x/L),
sqrt(2) sin(2 pi k x/L)} for k = 1..K, orthonormal under the mean value
scalar product <f, g> = integral of f*g (the torus volume is normalised
to 1).  The quadrature grid carries (2p+2)K + 1 equispaced nodes per axis,
so products of up to 2p+2 basis functions are integrated exactly by the
rectangle rule.  That removes aliasing entirely: every projection of the
power nonlinearity computed here is exact up to rounding.

Because the basis is a tensor product, the table stores only the per-axis
factor matrix F, shaped (2K+1) x n_axis with rows const, cos1, sin1, ...,
its scaled transpose F.T / n_axis, and the permutation from the
eigenvalue-sorted mode index to the flat tensor index, with its inverse.
Synthesis and analysis contract one axis at a time (sum factorisation),
and take one coefficient vector or a stack of them (members x modes), one
member per row.  A transform costs O(d K n^d) and the table O(d K n + n^d)
memory instead of the O(K^d n^d) of a dense mode x node matrix.  In 1D
the mode order is the tensor order and each transform is a single matrix
product.  The dense matrix is still available as the reference view
``SpectrumTable.basis``, built on demand.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch

_KIND_CODE = {"const": 0, "cos": 1, "sin": 2}

# Grid values per row block of a stacked transform: the kernel cuts a
# stack into blocks of max(1, _CHUNK_VALUES // n_nodes) rows.  Beyond 1D
# a stack costs more per member as it grows (transposing copies, and
# temporaries that outgrow the cache or the allocator's reuse).  A sweep
# of 2^11..2^18 over repeated kernel calls on 12- and 24-row stacks (1D
# K=32, 2D K=3/8/16, 3D K=2/4) found 2^15 the fastest or tied in every
# case.
_CHUNK_VALUES = 1 << 15


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: mass m, nonlinearity exponent p (term u^(2p+1)),
    torus dimension, per-axis Fourier cutoff K, and torus side lengths."""

    m: float
    p: int
    dim: int
    cutoff: int
    periods: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 1):
            raise AssumptionViolated(f"nonlinearity exponent p must be a positive integer, got {self.p!r}")
        if self.dim not in (1, 2, 3):
            raise AssumptionViolated(f"dimension must be 1, 2 or 3, got {self.dim!r}")
        if self.dim == 3 and self.p != 1:
            raise AssumptionViolated("in dimension 3 the model requires p = 1")
        if not (isinstance(self.cutoff, int) and self.cutoff >= 1):
            raise AssumptionViolated(f"cutoff must be a positive integer, got {self.cutoff!r}")
        periods = tuple(float(L) for L in self.periods)
        object.__setattr__(self, "periods", periods)
        if len(periods) != self.dim:
            raise AssumptionViolated(
                f"need {self.dim} periods, got {len(periods)}")
        if any(L <= 0 for L in periods):
            raise AssumptionViolated("periods must be positive")
        vol = math.prod(periods)
        if abs(vol - 1.0) > 1e-12:
            raise AssumptionViolated(
                f"torus volume must equal 1 (rescaled model), got {vol!r}")
        if not self.m > 0:
            raise AssumptionViolated(f"mass parameter must be positive, got {self.m!r}")
        # The upper bound m < lambda_1 is enforced by check_mass_gap.

    @property
    def center(self) -> float:
        """Amplitude m^(1/p) of the interior space-stationary equilibrium."""
        return self.m ** (1.0 / self.p)

    @property
    def separatrix_amplitude(self) -> float:
        """Largest amplitude (p+1)^(1/2p) m^(1/p) reached by the saddle loop."""
        return (self.p + 1) ** (1.0 / (2 * self.p)) * self.m ** (1.0 / self.p)


@dataclass(frozen=True)
class Mode:
    """One real basis function: per-axis wavevector and trig kind."""

    index: int
    wavevector: tuple[int, ...]
    kinds: tuple[str, ...]
    lam: float


@dataclass(frozen=True)
class SpectrumTable:
    """Immutable eigenbasis table; safe to share across concurrent runs.
    ``params`` is the model the grid is dealiased for, and every function
    that takes a table reads m and p from it."""

    params: ModelParams
    modes: tuple[Mode, ...]
    lam: np.ndarray
    lam_sq: np.ndarray
    grid_shape: tuple[int, ...]
    nodes: tuple[np.ndarray, ...]
    factor: np.ndarray = field(repr=False)         # (2K+1, n_axis), rows const, cos1, sin1, ...
    factor_t_mean: np.ndarray = field(repr=False)  # factor.T / n_axis
    order: np.ndarray = field(repr=False)          # flat tensor index of each mode
    inverse: np.ndarray = field(repr=False)        # mode at each flat tensor index

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @functools.cached_property
    def n_nodes(self) -> int:
        return math.prod(self.grid_shape)

    @property
    def lambda_1(self) -> float:
        """Smallest nonzero eigenvalue frequency."""
        positive = self.lam[self.lam > 0]
        return float(positive.min())

    @property
    def basis(self) -> np.ndarray:
        """Dense (mode_count, n_nodes) matrix of basis values at the nodes.

        A reference view built from the per-axis factors on every read; the
        transforms never use it.  Its size grows like K^(2 dim).
        """
        dense = functools.reduce(np.kron, [self.factor] * len(self.grid_shape))
        return dense[self.order]

    @property
    def basis_t_mean(self) -> np.ndarray:
        """Reference view basis.T / n_nodes, built on every read."""
        return np.ascontiguousarray(self.basis.T) / self.n_nodes


def check_mass_gap(params: ModelParams) -> None:
    """Raise AssumptionViolated unless m < lambda_1 = 2 pi / max(L), the
    smallest nonzero Laplacian frequency of the torus (one period along
    its longest axis)."""
    lam1 = 2.0 * math.pi / max(params.periods)
    if params.m >= lam1:
        raise AssumptionViolated(
            f"mass parameter must satisfy 0 < m < lambda_1 = {lam1:.6g} "
            f"(smallest nonzero Laplacian frequency of this torus), got m = {params.m!r}")


def build_spectrum(params: ModelParams) -> SpectrumTable:
    """Enumerate all modes with per-axis index <= cutoff and tabulate the
    per-axis factors on the dealiased grid.

    Modes are sorted by eigenvalue, ties broken lexicographically by
    wavevector then (const, cos, sin), so indexing is deterministic.
    Raises AssumptionViolated if m >= lambda_1.
    """
    check_mass_gap(params)
    K, dim, periods = params.cutoff, params.dim, params.periods
    n_axis = (2 * params.p + 2) * K + 1
    grid_shape = (n_axis,) * dim

    # The position of a combination in itertools.product is its flat
    # (C-order) index in the tensor of per-axis factor rows.
    axis_factors = [(0, "const")] + [(k, t) for k in range(1, K + 1) for t in ("cos", "sin")]
    records = []
    for flat, combo in enumerate(itertools.product(axis_factors, repeat=dim)):
        wavevector = tuple(k for k, _ in combo)
        kinds = tuple(t for _, t in combo)
        lam_sq = sum((2.0 * math.pi * k / L) ** 2 for k, L in zip(wavevector, periods))
        records.append((lam_sq, wavevector, tuple(_KIND_CODE[t] for t in kinds), kinds, flat))
    records.sort(key=lambda r: (r[0], r[1], r[2]))

    lam_sq = np.array([r[0] for r in records])
    lam = np.sqrt(lam_sq)

    # Per-axis factor values on the equidistant nodes x_j = j L / n; the
    # rescaled argument 2 pi k x / L = 2 pi k j / n does not depend on L.
    # The constant row is exactly 1.0, so constant fields stay exact.
    theta = np.outer(2.0 * math.pi * np.arange(1, K + 1), np.arange(n_axis)) / n_axis
    factor = np.empty((2 * K + 1, n_axis))
    factor[0] = 1.0
    factor[1::2] = math.sqrt(2.0) * np.cos(theta)
    factor[2::2] = math.sqrt(2.0) * np.sin(theta)

    order = np.array([r[4] for r in records], dtype=np.intp)
    modes = tuple(Mode(index=idx, wavevector=wavevector, kinds=kinds, lam=float(math.sqrt(ls)))
                  for idx, (ls, wavevector, _, kinds, _) in enumerate(records))
    nodes = tuple(np.arange(n_axis) * (L / n_axis) for L in periods)
    return SpectrumTable(
        params=params,
        modes=modes,
        lam=lam,
        lam_sq=lam_sq,
        grid_shape=grid_shape,
        nodes=nodes,
        factor=factor,
        factor_t_mean=np.ascontiguousarray(factor.T) / n_axis,
        order=order,
        inverse=np.argsort(order),
    )


def _synthesis(a: np.ndarray, table: SpectrumTable) -> np.ndarray:
    """Flat (C-order) grid values of sum_n a_n e_n, for one coefficient
    vector (n,) or a stack (E, n), which gives (E, n_nodes).

    Beyond 1D the coefficients are permuted into tensor order with the
    member axis last, and each step contracts the leading axis with the
    factor matrix, appending the node axis last; after dim steps the
    member axis leads and the node axes are back in order.
    """
    factor = table.factor
    if len(table.grid_shape) == 1:
        return a @ factor
    if a.ndim == 1:
        return _synthesis(a[None], table)[0]
    g = np.take(a.T, table.inverse, axis=0)
    for _ in table.grid_shape:
        g = g.reshape(factor.shape[0], -1).T @ factor
    return g.reshape(len(a), -1)


def _analysis(g: np.ndarray, table: SpectrumTable) -> np.ndarray:
    """Mode coefficients of flat grid values by the rectangle rule, for one
    grid (n_nodes,) or a stack (E, n_nodes).

    A constant offset is split off first: the offset lands entirely in the
    constant mode, and exactly-constant fields get exactly-zero
    coefficients on every nonconstant mode.
    """
    if g.ndim == 1:
        return _analysis(g[None], table)[0]
    # One row takes a scalar offset: numpy's scalar path saves a few
    # microseconds per call over a broadcast column, with the same values.
    single = len(g) == 1
    offset = g[0, 0] if single else g[:, :1]
    weights = table.factor_t_mean
    if len(table.grid_shape) == 1:
        coeffs = (g - offset) @ weights
    else:
        # member axis last, then contract one node axis at a time
        coeffs = (g - offset).T
        for _ in table.grid_shape:
            coeffs = coeffs.reshape(weights.shape[0], -1).T @ weights
        coeffs = np.take(coeffs.reshape(len(g), -1), table.order, axis=1)
    if single:
        coeffs[0, 0] += offset
    else:
        coeffs[:, :1] += offset
    return coeffs


def to_grid(a: np.ndarray, table: SpectrumTable) -> np.ndarray:
    """Evaluate sum_n a_n e_n at the quadrature nodes (exact synthesis)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (table.mode_count,):
        raise DimensionMismatch(
            f"expected {table.mode_count} mode coefficients, got shape {a.shape}")
    return _synthesis(a, table).reshape(table.grid_shape)


def to_modes(g: np.ndarray, table: SpectrumTable) -> np.ndarray:
    """Project grid values onto the basis by the rectangle rule.

    Exact for trigonometric polynomials up to the dealiased degree; a
    constant field has exactly-zero coefficients on every nonconstant mode.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != table.grid_shape and g.shape != (table.n_nodes,):
        raise DimensionMismatch(
            f"expected grid shape {table.grid_shape}, got {g.shape}")
    return _analysis(g.reshape(-1), table)


def project_power(a: np.ndarray, exponent: int, table: SpectrumTable) -> np.ndarray:
    """Mode coefficients of (sum_k a_k e_k)^exponent, exact on the dealiased grid.

    Only exponent = 2p+1 is admitted: that is the power the grid was sized for.
    """
    if exponent != 2 * table.params.p + 1:
        raise DimensionMismatch(
            f"grid is dealiased for exponent {2 * table.params.p + 1}, got {exponent}")
    a = np.asarray(a, dtype=float)
    if a.shape != (table.mode_count,):
        raise DimensionMismatch(
            f"expected {table.mode_count} mode coefficients, got shape {a.shape}")
    return _project_power_raw(a, exponent, table)


def _grid_power(g: np.ndarray, exponent: int) -> np.ndarray:
    if exponent == 2:
        return g * g
    if exponent == 3:
        return g * g * g
    return g ** exponent


def _project_power_raw(a: np.ndarray, exponent: int, table: SpectrumTable) -> np.ndarray:
    """Unchecked synthesis-power-analysis kernel (hot path of the integrators);
    takes one coefficient vector or a stack of them.  A stack with more grid
    values than one chunk is transformed in blocks of rows."""
    if a.ndim == 2 and len(a) > 1:
        rows = max(1, _CHUNK_VALUES // table.n_nodes)
        if len(a) > rows:
            return np.concatenate([_project_power_raw(a[i:i + rows], exponent, table)
                                   for i in range(0, len(a), rows)])
    return _analysis(_grid_power(_synthesis(a, table), exponent), table)
