"""Weighted grid spaces and the weighted norms of vectors and matrices.

Every norm in the package reduces to one kernel: scale by the diagonal
congruence ``W_cod^{1/2} M W_dom^{-1/2}`` and take the plain spectral norm.
Vectors use the same scaling, so a single audited code path serves all
norm flavours. Where a norm only has to be bounded, :func:`norm_bounds`
brackets the spectral norm in O(n^2) without an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class WeightedSpace:
    """Inner-product structure ``<f, g> = sum_i f_i conj(g_i) w_i h`` on a grid.

    Parameters
    ----------
    grid : ndarray
        Ordered coordinates, or a plain index set for abstract instances.
    weights : ndarray
        Strictly positive, finite weights, one per grid point.
    cell_measure : float
        Cell volume ``h`` (1.0 for abstract index sets).
    """

    grid: np.ndarray
    weights: np.ndarray
    cell_measure: float = 1.0
    name: str = ""

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        if grid.ndim != 1 or weights.ndim != 1:
            raise DimensionMismatchError("grid and weights must be one-dimensional")
        if len(grid) != len(weights):
            raise DimensionMismatchError(
                f"{len(weights)} weights for {len(grid)} grid points")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive and finite")
        if not (np.isfinite(self.cell_measure) and self.cell_measure > 0.0):
            raise ValueError("cell_measure must be strictly positive and finite")

    @classmethod
    def unweighted(cls, n: int, name: str = "") -> "WeightedSpace":
        return cls(grid=np.arange(n, dtype=float), weights=np.ones(n), name=name)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def scaling(self) -> np.ndarray:
        """Diagonal D with ``norm(v) = ||D v||_2``."""
        return np.sqrt(self.weights * self.cell_measure)

    def norm(self, v) -> float:
        return weighted_norm(v, self)

    def inner(self, u, v) -> complex:
        u = np.asarray(u)
        v = np.asarray(v)
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError("vector length does not match space")
        val = np.sum(u * np.conjugate(v) * self.weights) * self.cell_measure
        return val if np.iscomplexobj(u) or np.iscomplexobj(v) else float(val.real)


def weighted_norm(v, space: WeightedSpace) -> float:
    """``sqrt(sum_i |v_i|^2 w_i h)``; zero exactly for the zero vector."""
    v = np.asarray(v)
    if v.ndim != 1 or len(v) != space.dim:
        raise DimensionMismatchError(
            f"vector of length {v.shape} in a space of dimension {space.dim}")
    return float(np.linalg.norm(space.scaling() * v))


def weighted_congruence(matrix, dom: WeightedSpace, cod: WeightedSpace) -> np.ndarray:
    """``W_cod^{1/2} M W_dom^{-1/2}``: its plain spectral norm is the weighted one."""
    s_dom = dom.scaling()
    s_cod = cod.scaling()
    return (s_cod[:, None] * matrix) / s_dom[None, :]


def spectral_norm_power_iteration(matrix, tol=1e-12, max_iter=10000) -> float:
    """Largest singular value by power iteration on ``M^H M``.

    Deterministic: starts from the normalized all-ones vector. It converges
    to the norm from below, so it serves only as the independent
    cross-check of the SVD path in the tests.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[1]
    v = np.ones(n, dtype=complex if np.iscomplexobj(matrix) else float)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = matrix.conj().T @ (matrix @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_new = w / norm_w
        sigma_new = np.sqrt(norm_w)
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return float(sigma_new)
        sigma, v = sigma_new, v_new
    return float(sigma)


def operator_norm(matrix, dom: WeightedSpace, cod: WeightedSpace) -> float:
    """Operator norm of ``matrix`` as a map (dom, ||.||_dom) -> (cod, ||.||_cod).

    Computed as the largest singular value of the diagonally congruent
    matrix ``W_cod^{1/2} M W_dom^{-1/2}``: the one-matrix stack of
    :func:`operator_norms`.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (cod.dim, dom.dim):
        raise DimensionMismatchError(
            f"matrix shape {matrix.shape} does not map dim {dom.dim} -> dim {cod.dim}")
    return float(operator_norms(matrix[None], dom, cod)[0])


def operator_norms(stack, dom: WeightedSpace, cod: WeightedSpace) -> np.ndarray:
    """:func:`operator_norm` of every matrix in a stack, as one stacked SVD."""
    return np.linalg.norm(weighted_congruence(stack, dom, cod), 2, axis=(1, 2))


def norm_bounds(stack) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the 2-norm of every matrix of a stack.

    The lower bound is the largest column 2-norm, the upper one
    ``sqrt(||X||_1 ||X||_inf)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 6.3). Both cost O(n^2) per matrix
    and lie within a factor ``sqrt(n)`` of the 2-norm. Each is widened by
    ``8 n eps`` for rounding, so that they also bracket the 2-norm an SVD
    computes.
    """
    magnitude = np.abs(stack)
    margin = 8.0 * stack.shape[-1] * np.finfo(float).eps
    col_sums = magnitude.sum(axis=-2).max(axis=-1)
    row_sums = magnitude.sum(axis=-1).max(axis=-1)
    upper = np.sqrt(col_sums * row_sums) * (1.0 + margin)
    lower = np.sqrt((magnitude * magnitude).sum(axis=-2).max(axis=-1)) * (1.0 - margin)
    return lower, upper


def operator_norm_bounds(stack, dom: WeightedSpace, cod: WeightedSpace
                         ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`norm_bounds` of the weighted norms :func:`operator_norms` takes
    by SVD: the bracket of the diagonally congruent stack, with no SVD."""
    return norm_bounds(weighted_congruence(stack, dom, cod))


def weighted_adjoint(matrix, space: WeightedSpace) -> np.ndarray:
    """Adjoint with respect to the space inner product: ``W^{-1} M^H W``."""
    matrix = np.asarray(matrix)
    w = space.weights
    return (matrix.conj().T * w[None, :]) / w[:, None]


@dataclass(frozen=True)
class EmbeddedSpacePair:
    """One vector space carrying two norms with a continuous embedding.

    ``ambient`` is the large space, ``small`` the strongly weighted one on
    the same index set. ``embedding_constant`` is any c with
    ``norm_ambient(f) <= c * norm_small(f)`` for all f; it must dominate
    the computed pointwise bound ``max_i sqrt(w_ambient_i / w_small_i)``.
    """

    ambient: WeightedSpace
    small: WeightedSpace
    embedding_constant: float

    def __post_init__(self):
        if self.ambient.dim != self.small.dim:
            raise DimensionMismatchError("ambient and small spaces must share the index set")
        if self.ambient.cell_measure != self.small.cell_measure:
            raise ValueError("ambient and small spaces must share the cell measure")
        computed = self.computed_embedding_constant()
        if not self.embedding_constant >= computed:
            raise ValueError(
                f"embedding constant {self.embedding_constant} is below the "
                f"computed bound {computed}")

    def computed_embedding_constant(self) -> float:
        return float(np.sqrt(np.max(self.ambient.weights / self.small.weights)))

    @classmethod
    def from_weights(cls, ambient_weights, small_weights, grid=None,
                     cell_measure=1.0) -> "EmbeddedSpacePair":
        ambient_weights = np.asarray(ambient_weights, dtype=float)
        if grid is None:
            grid = np.arange(len(ambient_weights), dtype=float)
        ambient = WeightedSpace(grid, ambient_weights, cell_measure, name="ambient")
        small = WeightedSpace(grid, np.asarray(small_weights, dtype=float),
                              cell_measure, name="small")
        pair = cls(ambient=ambient, small=small, embedding_constant=np.inf)
        return replace(pair, embedding_constant=pair.computed_embedding_constant())

    @property
    def dim(self) -> int:
        return self.ambient.dim
