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

``build_spectrum`` enumerates the (2K+1)^d modes as arrays: ``np.indices``
gives the per-axis factor rows of each flat tensor index, lambda^2 adds the
axes in turn, and one ``np.lexsort`` orders the modes by lambda^2, ties
broken by wavevector, then by kind (const < cos < sin) axis by axis.  The
per-mode records ``SpectrumTable.modes`` (wavevector, kinds, lambda) are
derived from ``order`` and ``lam`` on first read and cached; the
transforms, the integrators and the diagnostics never build them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, DimensionMismatch

_KIND_NAMES = ("const", "cos", "sin")

# Values per block of a stacked computation, read only through
# ``_chunk_rows``, which sizes the kernel's row blocks, the energy blocks,
# and the pages and time-loop blocks of ``integrators``.  Beyond 1D
# a stack costs more per member as it grows (transposing copies, and
# temporaries that outgrow the cache or the allocator's reuse).  A sweep
# of 2^11..2^18 over repeated kernel calls on 12- and 24-row stacks (1D
# K=32, 2D K=3/8/16, 3D K=2/4) found 2^15 the fastest or tied in every
# case.
_CHUNK_VALUES = 1 << 15


def _chunk_rows(values_per_row: int) -> int:
    """Rows of ``values_per_row`` values each that fit one chunk, at least 1."""
    return max(1, _CHUNK_VALUES // values_per_row)


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
        return len(self.lam)

    @functools.cached_property
    def modes(self) -> tuple[Mode, ...]:
        """One record per mode, in mode order, built from ``order`` and
        ``lam`` on first read.  No transform or diagnostic reads it."""
        rows = np.array(np.unravel_index(self.order, (len(self.factor),) * len(self.grid_shape)))
        row_k, row_kind = _row_labels(self.params.cutoff)
        wavevectors = zip(*row_k[rows].tolist())
        kinds = zip(*np.array(_KIND_NAMES)[row_kind[rows]].tolist())
        return tuple(Mode(index=idx, wavevector=w, kinds=k, lam=lam)
                     for idx, (w, k, lam) in enumerate(zip(wavevectors, kinds, self.lam.tolist())))

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


def _row_labels(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumber k and kind code (index into ``_KIND_NAMES``) of each
    per-axis factor row: row 0 is const, row 2k - 1 is cos k and row 2k is
    sin k.  Callers look rows up in these tables: computing the labels
    with integer ufuncs would page in their loops for this alone, a
    quarter MiB of peak RSS in a fresh process."""
    return (np.array([0] + [k for k in range(1, cutoff + 1) for _ in "cs"]),
            np.array([0] + [1, 2] * cutoff))


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

    # Column j of ``rows`` holds the per-axis factor rows of flat (C-order)
    # tensor index j.  Each axis adds its (2 pi k / L)^2 in turn, squared by
    # Python's ``**`` on one float per row: glibc's pow and numpy's w * w
    # differ in the last bit for about one square in a thousand.
    rows = np.indices((2 * K + 1,) * dim).reshape(dim, -1)
    row_k, row_kind = _row_labels(K)
    lam_sq = functools.reduce(np.add, [
        np.array([(2.0 * math.pi * k / L) ** 2 for k in row_k.tolist()])[axis_rows]
        for axis_rows, L in zip(rows, periods)])
    # np.lexsort sorts by its last key first.
    order = np.lexsort((*row_kind[rows[::-1]], *row_k[rows[::-1]], lam_sq))
    lam_sq = lam_sq[order]

    # Per-axis factor values on the equidistant nodes x_j = j L / n; the
    # rescaled argument 2 pi k x / L = 2 pi k j / n does not depend on L.
    # The constant row is exactly 1.0, so constant fields stay exact.
    theta = np.outer(2.0 * math.pi * np.arange(1, K + 1), np.arange(n_axis)) / n_axis
    factor = np.empty((2 * K + 1, n_axis))
    factor[0] = 1.0
    factor[1::2] = math.sqrt(2.0) * np.cos(theta)
    factor[2::2] = math.sqrt(2.0) * np.sin(theta)

    nodes = tuple(np.arange(n_axis) * (L / n_axis) for L in periods)
    return SpectrumTable(
        params=params,
        lam=np.sqrt(lam_sq),
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


def _kernel_work(rows: int, table: SpectrumTable):
    """Buffers for one 1D kernel call on ``rows`` rows: the grid, its
    power with a view of its first column, the offset as a vector and as
    a column, and the coefficients with a view of their constant column.
    None where the kernel takes the general path (beyond 1D, or a stack
    deeper than one chunk), which reads no buffers."""
    if len(table.grid_shape) != 1 or rows > _chunk_rows(table.n_nodes):
        return None
    grid, power = np.empty((rows, table.n_nodes)), np.empty((rows, table.n_nodes))
    coeffs = np.empty((rows, table.mode_count))
    if rows == 1:                        # the offset is a scalar
        return grid, power, None, None, None, coeffs, None
    offset = np.empty(rows)
    return grid, power, power[:, 0], offset, offset[:, None], coeffs, coeffs[:, 0]


def _project_power_raw(a: np.ndarray, exponent: int, table: SpectrumTable,
                       work=None) -> np.ndarray:
    """Unchecked synthesis-power-analysis kernel (hot path of the integrators);
    takes one coefficient vector or a stack of them.  A stack with more grid
    values than one chunk is transformed in blocks of rows.

    A 1D stack within one chunk runs the same operations as
    ``_analysis(_grid_power(_synthesis(a)))`` inline, bit for bit equal to
    them: an integrator calls the kernel once or twice per step, and on a
    small stack the nested calls add about a tenth to its cost.  That body
    writes every product into buffers (``np.dot(..., out=)``, the same
    bits as ``@``) and returns the coefficient buffer.  ``work`` is
    optional: a single call leaves it None and gets fresh buffers, while
    a time loop passes the ``_kernel_work(len(a), table)`` it holds, so
    its calls allocate nothing, and each call overwrites the result of
    the previous one.  ``_kernel_work`` gives None wherever the general
    path applies, which always returns a new array.
    """
    if work is None and a.ndim == 2:
        rows = _chunk_rows(table.n_nodes)
        if len(a) > rows:
            return np.concatenate([_project_power_raw(a[i:i + rows], exponent, table)
                                   for i in range(0, len(a), rows)])
        work = _kernel_work(len(a), table)
    if work is None:
        return _analysis(_grid_power(_synthesis(a, table), exponent), table)
    g, u, u_first, offset, offset_column, coeffs, coeffs_first = work
    np.dot(a, table.factor, out=g)
    if exponent == 3:
        np.multiply(g, g, out=u)
        u *= g
    else:
        np.power(g, exponent, out=u)
    if len(u) == 1:
        scalar = u[0, 0]
        u -= scalar
        np.dot(u, table.factor_t_mean, out=coeffs)
        coeffs[0, 0] += scalar
    else:
        np.copyto(offset, u_first)
        u -= offset_column
        np.dot(u, table.factor_t_mean, out=coeffs)
        coeffs_first += offset
    return coeffs
