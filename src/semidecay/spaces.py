"""Weighted grid spaces and the weighted norms of vectors and matrices.

Every norm in the package reduces to one kernel: scale by the diagonal
congruence ``W_cod^{1/2} M W_dom^{-1/2}`` and take the plain spectral norm.
Vectors use the same scaling, so a single audited code path serves all
norm flavours. Every dense largest singular value on the testbed path is
:func:`spectral_norms`: the top eigenvalue of each Hermitian Gram matrix,
from one batched ``eigvalsh``. Smallest singular values (the H2 lines)
stay on the SVD, because the Gram matrix squares the condition number.
Where a norm only has to be bounded, :func:`norm_bounds` and
:func:`norm_bracket` bracket the kernel's value in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    def unweighted(cls, n: int) -> "WeightedSpace":
        return cls(grid=np.arange(n, dtype=float), weights=np.ones(n))

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


def operator_norm(matrix, dom: WeightedSpace, cod: WeightedSpace) -> float:
    """Operator norm of ``matrix`` as a map (dom, ||.||_dom) -> (cod, ||.||_cod).

    The largest singular value of the diagonally congruent matrix
    ``W_cod^{1/2} M W_dom^{-1/2}``: the one-matrix stack of
    :func:`operator_norms`.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (cod.dim, dom.dim):
        raise DimensionMismatchError(
            f"matrix shape {matrix.shape} does not map dim {dom.dim} -> dim {cod.dim}")
    return float(operator_norms(matrix[None], dom, cod)[0])


def operator_norms(stack, dom: WeightedSpace, cod: WeightedSpace) -> np.ndarray:
    """:func:`operator_norm` of every matrix in a stack, by :func:`spectral_norms`."""
    return spectral_norms(weighted_congruence(stack, dom, cod))


def rounding_margin(stack) -> float:
    """Relative error bound of :func:`spectral_norms` on this stack, plus the
    rounding of the O(n^2) bounds: ``(k + 2)^2 eps`` with k the larger side.

    The kernel's error is below ``k (k + 1) eps / 2`` to first order (see
    :func:`spectral_norms`), the column, row and power-step norms of
    :func:`norm_bracket` round by at most ``(k^{3/2} + 3) eps``.
    """
    k = max(np.shape(stack)[-2:])
    return (k + 2) ** 2 * np.finfo(float).eps


def _exponents(peak):
    """Per matrix, the e with the largest entry magnitude ``peak`` in
    [2^(e-1), 2^e); scaling by 2^-e is exact (and finite for a subnormal
    largest entry)."""
    _, exponent = np.frexp(peak)
    return np.maximum(exponent, -1021)


def _scaled(array, exponent):
    return array * np.ldexp(1.0, -exponent)[..., None, None]


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of every matrix of a stack.

    Each matrix X is scaled by the power of two nearest above its largest
    entry magnitude (exact, and the Gram matrix can neither overflow nor
    lose its top eigenvalue to underflow). The top eigenvalue of the
    Hermitian Gram matrix ``G = X^H X`` (``X X^H`` if X is wide) comes from
    one batched ``np.linalg.eigvalsh``, and ``sigma_max`` is its square
    root scaled back. A one-matrix stack gives bit for bit the value the
    matrix has in a larger stack. A matrix with a non-finite entry has the
    norm NaN.

    Error bound, for X with larger side k: the computed Gram matrix is
    ``G + dG`` with ``|dG| <= gamma_k |X|^H |X|`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.5), so
    ``||dG||_2 <= k gamma_k sigma_max^2`` since ``||X||_F^2 <= k
    sigma_max^2``; ``eigvalsh`` returns the top eigenvalue within
    ``p(k) eps ||G||_2`` (LAPACK Users' Guide, section 4.7, taking
    p(k) = k). The square root halves the relative error, so the result is
    within ``k (k + 1) eps / 2`` of ``sigma_max`` to first order, inside
    :func:`rounding_margin`. Smallest singular values must not come from
    the Gram matrix, which squares the condition number; they stay on the
    SVD.
    """
    stack = np.asarray(stack)
    if stack.shape[-2] < stack.shape[-1]:
        stack = stack.swapaxes(-1, -2)
    peak = np.abs(stack).max(axis=(-2, -1))
    exponent = _exponents(peak)
    finite = np.isfinite(peak)
    with np.errstate(under="ignore", invalid="ignore"):
        scaled = _scaled(stack, exponent)
        if not finite.all():
            scaled[~finite] = 0.0
        gram = scaled.conj().swapaxes(-1, -2) @ scaled
    top = np.linalg.eigvalsh(gram)[..., -1]
    return np.where(finite, np.ldexp(np.sqrt(np.maximum(top, 0.0)), exponent), np.nan)


def _bounds(stack):
    """:func:`norm_bounds`, the squared column norms of the scaled stack,
    and the scaling exponents."""
    margin = rounding_margin(stack)
    magnitude = np.abs(stack)
    exponent = _exponents(magnitude.max(axis=(-2, -1)))
    with np.errstate(under="ignore"):
        magnitude = _scaled(magnitude, exponent)
        col_sq = (magnitude * magnitude).sum(axis=-2)
    col_sums = magnitude.sum(axis=-2).max(axis=-1)
    row_sums = magnitude.sum(axis=-1).max(axis=-1)
    upper = np.ldexp(np.sqrt(col_sums * row_sums) * (1.0 + margin), exponent)
    lower = np.ldexp(np.sqrt(col_sq.max(axis=-1)) * (1.0 - margin), exponent)
    return lower, upper, col_sq, exponent


def norm_bounds(stack) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the 2-norm of every matrix of a stack.

    The lower bound is the largest column 2-norm, the upper one
    ``sqrt(||X||_1 ||X||_inf)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, section 6.3). Both cost O(n^2) per matrix
    and lie within a factor ``sqrt(n)`` of the 2-norm. Each is widened by
    :func:`rounding_margin`, so that they also bracket the 2-norm that
    :func:`spectral_norms` or an SVD computes.
    """
    lower, upper, *_ = _bounds(np.asarray(stack))
    return lower, upper


def norm_bracket(stack) -> tuple[np.ndarray, np.ndarray]:
    """:func:`norm_bounds` with the lower bound raised by one power step.

    From the largest column x_j, ``y = X^H x_j`` and ``||X y|| / ||y||``
    bound the 2-norm from below: the square root of the Rayleigh quotient
    of ``X^H X`` at ``X^H X e_j``, which is never below ``||x_j||``. It is
    widened for rounding like the column bound and costs two more O(n^2)
    products per matrix.
    """
    stack = np.asarray(stack)
    lower, upper, col_sq, exponent = _bounds(stack)
    index = np.argmax(col_sq, axis=-1)[..., None, None]
    with np.errstate(under="ignore", invalid="ignore"):
        scaled = _scaled(stack, exponent)
        column = np.take_along_axis(scaled, index, axis=-1)
        # rows y^H = x_j^H X and (X y)^T = conj(y^H) X^T: no transposed copy of X
        y = column.conj().swapaxes(-1, -2) @ scaled
        xy = y.conj() @ scaled.swapaxes(-1, -2)
        step = np.sqrt(np.vecdot(xy, xy).real / np.vecdot(y, y).real)[..., 0]
    step = np.ldexp(step * (1.0 - rounding_margin(stack)), exponent)
    # a zero matrix gives 0/0: keep its column bound
    return np.fmax(lower, step), upper


def operator_norm_bounds(stack, dom: WeightedSpace, cod: WeightedSpace
                         ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`norm_bounds` of the weighted norms :func:`operator_norms`
    takes: the bracket of the diagonally congruent stack."""
    return norm_bounds(weighted_congruence(stack, dom, cod))


def operator_norm_bracket(stack, dom: WeightedSpace, cod: WeightedSpace
                          ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`norm_bracket` of the weighted norms :func:`operator_norms` takes."""
    return norm_bracket(weighted_congruence(stack, dom, cod))


@dataclass(frozen=True)
class EmbeddedSpacePair:
    """One vector space carrying two norms with a continuous embedding.

    ``ambient`` is the large space, ``small`` the strongly weighted one on
    the same index set.
    """

    ambient: WeightedSpace
    small: WeightedSpace

    def __post_init__(self):
        if self.ambient.dim != self.small.dim:
            raise DimensionMismatchError("ambient and small spaces must share the index set")
        if self.ambient.cell_measure != self.small.cell_measure:
            raise ValueError("ambient and small spaces must share the cell measure")

    @property
    def embedding_constant(self) -> float:
        """``c_J = max_i sqrt(w_ambient_i / w_small_i)``: the norm of the
        identity from the small space into the ambient one, the least c with
        ``norm_ambient(f) <= c * norm_small(f)`` for all f."""
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
        return cls(ambient=ambient, small=small)

    @property
    def dim(self) -> int:
        return self.ambient.dim
