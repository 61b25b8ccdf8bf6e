"""Weighted spaces and the weighted norms of vectors and matrices.

Every norm in the package reduces to one kernel: scale by the diagonal
congruence ``W_cod^{1/2} M W_dom^{-1/2}`` and take the plain spectral norm,
:func:`~semidecay.certify.spectral_norms`. Vectors use the same scaling, so
a single audited code path serves all norm flavours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import spectral_norms
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class WeightedSpace:
    """Inner-product structure ``<f, g> = sum_i f_i conj(g_i) w_i h``.

    Parameters
    ----------
    weights : ndarray
        Strictly positive, finite weights, one per index.
    cell_measure : float
        Cell volume ``h`` (1.0 for abstract index sets).
    """

    weights: np.ndarray
    cell_measure: float = 1.0

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1:
            raise DimensionMismatchError("weights must be one-dimensional")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive and finite")
        if not (np.isfinite(self.cell_measure) and self.cell_measure > 0.0):
            raise ValueError("cell_measure must be strictly positive and finite")
        scaling = np.sqrt(weights * self.cell_measure)
        scaling.flags.writeable = False
        object.__setattr__(self, "_scaling", scaling)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def scaling(self) -> np.ndarray:
        """Diagonal D with ``norm(v) = ||D v||_2``, computed once with the
        space and read-only."""
        return self._scaling

    def norm(self, v) -> float:
        return weighted_norm(v, self)


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
    def from_weights(cls, ambient_weights, small_weights, cell_measure=1.0
                     ) -> "EmbeddedSpacePair":
        return cls(ambient=WeightedSpace(ambient_weights, cell_measure),
                   small=WeightedSpace(small_weights, cell_measure))

    @property
    def dim(self) -> int:
        return self.ambient.dim
