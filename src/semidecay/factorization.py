"""The enlarged-resolvent factorization and its verification.

Given a splitting T = A + B, the inverse of T - xi on the large space is
assembled as ``U(xi) = B(xi)^{-1} - R(xi) A B(xi)^{-1}`` where B(xi) = B - xi
and R(xi) is the resolvent of the restriction to the small space. The
assembly never inverts T - xi directly; agreement with the direct dense
inverse is what the verification routines certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatchError
from .spaces import (DenseOperator, EmbeddedSpacePair, operator_norm,
                     weighted_congruence, weighted_norm)
from .spectral import resolvent_matrix


@dataclass(frozen=True)
class SplitOperator:
    """A generator together with its regularizing/coercive decomposition.

    ``full`` acts on the ambient space; ``part_a`` is the regularizing
    piece, ``part_b = full - part_a`` the coercive one. The restriction to
    the small space is the same matrix measured in the small norms.
    """

    full: np.ndarray
    part_a: np.ndarray
    part_b: np.ndarray

    def __post_init__(self):
        full = np.asarray(self.full)
        part_a = np.asarray(self.part_a)
        part_b = np.asarray(self.part_b)
        object.__setattr__(self, "full", full)
        object.__setattr__(self, "part_a", part_a)
        object.__setattr__(self, "part_b", part_b)
        if not (full.shape == part_a.shape == part_b.shape):
            raise DimensionMismatchError("split parts must share the full operator's shape")
        scale = max(float(np.max(np.abs(full))), 1e-300)
        defect = float(np.max(np.abs(part_a + part_b - full)))
        # the identity full = A + B is definitional; allow one rounding
        if defect > 64.0 * np.finfo(float).eps * scale:
            raise ValueError(f"part_a + part_b deviates from full by {defect:.3e}")

    @classmethod
    def from_regularizer(cls, full, part_a) -> "SplitOperator":
        full = np.asarray(full)
        part_a = np.asarray(part_a)
        return cls(full=full, part_a=part_a, part_b=full - part_a)

    @property
    def dim(self) -> int:
        return self.full.shape[0]

    def restricted(self, pair: EmbeddedSpacePair) -> DenseOperator:
        """The generator viewed as an endomorphism of the small space."""
        return DenseOperator.on(self.full, pair.small)

    def ambient_operator(self, pair: EmbeddedSpacePair) -> DenseOperator:
        return DenseOperator.on(self.full, pair.ambient)


def enlarged_resolvent(split: SplitOperator, pair: EmbeddedSpacePair, xi: complex,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Assemble ``U(xi) = B(xi)^{-1} - R(xi) A B(xi)^{-1}``.

    Preconditions are enforced numerically: both B - xi and T - xi must be
    invertible at xi (a :class:`SingularityError` carries the witness
    otherwise). The factorized assembly is the point; the caller-facing
    contract ``(T - xi) U(xi) = Id`` is certified by
    :func:`verify_factorization`.
    """
    if split.dim != pair.dim:
        raise DimensionMismatchError("split operator and space pair dimensions differ")
    b_inv = resolvent_matrix(split.part_b, xi, tol)
    r_small = resolvent_matrix(split.full, xi, tol)
    return _assemble(split, b_inv, r_small)


def _assemble(split: SplitOperator, b_inv, r_small) -> np.ndarray:
    """``U(xi) = B(xi)^{-1} - R(xi) A B(xi)^{-1}`` from the two inverses."""
    a_b_inv = split.part_a @ b_inv
    return b_inv - r_small @ a_b_inv


@dataclass
class FactorizationReport:
    """Residuals of the factorized inverse over a sample of shifts.

    ``max_identity_residual`` is the largest ``||(T-xi) U(xi) - Id||`` in
    the ambient norm relative to cond(T-xi); ``max_inverse_mismatch`` the
    largest ambient-norm distance to the direct dense inverse, relative to
    the inverse's norm.
    """

    max_identity_residual: float
    max_inverse_mismatch: float
    samples: np.ndarray
    identity_residuals: np.ndarray
    inverse_mismatches: np.ndarray

    def to_dict(self):
        return {"max_identity_residual": self.max_identity_residual,
                "max_inverse_mismatch": self.max_inverse_mismatch,
                "n_samples": int(len(self.samples))}


def verify_factorization(split: SplitOperator, pair: EmbeddedSpacePair,
                         xi_samples, tol: Tolerances = DEFAULT_TOLERANCES
                         ) -> FactorizationReport:
    """Certify ``(T-xi) U(xi) = Id`` and ``U(xi) = (T-xi)^{-1}`` on samples.

    The one dense inverse of T - xi per sample serves both as R(xi) inside
    U(xi) and as the direct inverse U(xi) is compared with.
    """
    if split.dim != pair.dim:
        raise DimensionMismatchError("split operator and space pair dimensions differ")
    xi_samples = np.asarray(xi_samples, dtype=complex)
    amb = pair.ambient
    n = split.dim
    eye = np.eye(n)
    id_res = np.empty(len(xi_samples))
    inv_mis = np.empty(len(xi_samples))
    for i, xi in enumerate(xi_samples):
        b_inv = resolvent_matrix(split.part_b, xi, tol)
        direct = resolvent_matrix(split.full, xi, tol)
        u = _assemble(split, b_inv, direct)
        shifted = split.full - xi * eye
        cond = operator_norm(shifted, amb, amb) * operator_norm(direct, amb, amb)
        id_res[i] = operator_norm(shifted @ u - eye, amb, amb) / max(cond, 1.0)
        inv_mis[i] = (operator_norm(u - direct, amb, amb)
                      / max(operator_norm(direct, amb, amb), 1e-300))
    return FactorizationReport(
        max_identity_residual=float(np.max(id_res)) if len(id_res) else 0.0,
        max_inverse_mismatch=float(np.max(inv_mis)) if len(inv_mis) else 0.0,
        samples=xi_samples, identity_residuals=id_res, inverse_mismatches=inv_mis)


@dataclass
class InjectivityReport:
    """Smallest weighted singular value of T - xi, with failure forensics.

    On failure the near-null vector g is produced and the contradiction
    path is evaluated: ``B(xi) g = -A g`` must then land in the small space,
    and ``small_norm_of_b_action`` records how small that image is there,
    flagging which structural assumption broke.
    """

    passed: bool
    sigma_min: float
    floor: float
    null_vector: np.ndarray | None = None
    b_action_small_norm: float | None = None
    note: str | None = None

    def to_dict(self):
        return {"passed": self.passed, "sigma_min": self.sigma_min,
                "floor": self.floor, "note": self.note,
                "b_action_small_norm": self.b_action_small_norm}


def injectivity_check(split: SplitOperator, pair: EmbeddedSpacePair, xi: complex,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> InjectivityReport:
    """Verify T - xi is one-to-one in the ambient geometry."""
    n = split.dim
    shifted = split.full - xi * np.eye(n)
    amb = pair.ambient
    scaled = weighted_congruence(shifted, amb, amb)
    _, sv, vh = np.linalg.svd(scaled)
    sigma_min = float(sv[-1])
    if sigma_min > tol.injectivity_floor:
        return InjectivityReport(True, sigma_min, tol.injectivity_floor)
    # near-null vector in the original coordinates
    g = vh[-1].conj() / amb.scaling()
    g = g / weighted_norm(g, amb)
    b_action = (split.part_b - xi * np.eye(n)) @ g
    a_action = split.part_a @ g
    mismatch = weighted_norm(b_action + a_action, amb)
    small_norm = weighted_norm(b_action, pair.small)
    if mismatch > 1e-8 * max(weighted_norm(a_action, amb), 1.0):
        note = ("near-null vector violates B(xi) g = -A g; "
                "the splitting itself is inconsistent")
    elif small_norm <= tol.h4_ceiling:
        note = ("B(xi) g lands in the small space with finite norm, so the "
                "invertibility of B - xi on the small space is what must fail")
    else:
        note = "B(xi) g has no small-space control; the mixed bound assumption fails"
    return InjectivityReport(False, sigma_min, tol.injectivity_floor,
                             null_vector=g, b_action_small_norm=small_norm, note=note)


@dataclass
class BoundChainReport:
    """Triangle-inequality envelope for the enlarged resolvent bound.

    Per sampled xi the chain value is
    ``||B(xi)^{-1}||_amb + c_J ||R(xi)||_small ||A B(xi)^{-1}||_amb->small``
    and must dominate the directly computed ``||(T - xi)^{-1}||_amb``.
    """

    certified_bound: float
    direct_sup: float
    dominated: bool
    samples: np.ndarray
    chain_values: np.ndarray
    direct_values: np.ndarray

    def to_dict(self):
        return {"certified_bound": self.certified_bound,
                "direct_sup": self.direct_sup, "dominated": self.dominated,
                "n_samples": int(len(self.samples))}


def enlargement_bound_chain(split: SplitOperator, pair: EmbeddedSpacePair,
                            xi_samples, tol: Tolerances = DEFAULT_TOLERANCES
                            ) -> BoundChainReport:
    """Certified ambient resolvent bound assembled from the split bounds."""
    xi_samples = np.asarray(xi_samples, dtype=complex)
    amb, small = pair.ambient, pair.small
    c_j = pair.embedding_constant
    chain = np.empty(len(xi_samples))
    direct = np.empty(len(xi_samples))
    for i, xi in enumerate(xi_samples):
        b_inv = resolvent_matrix(split.part_b, xi, tol)
        r_small = resolvent_matrix(split.full, xi, tol)
        chain[i] = (operator_norm(b_inv, amb, amb)
                    + c_j * operator_norm(r_small, small, small)
                    * operator_norm(split.part_a @ b_inv, amb, small))
        direct[i] = operator_norm(r_small, amb, amb)
    dominated = bool(np.all(chain >= direct * (1.0 - 1e-12)))
    return BoundChainReport(
        certified_bound=float(np.max(chain)) if len(chain) else 0.0,
        direct_sup=float(np.max(direct)) if len(direct) else 0.0,
        dominated=dominated, samples=xi_samples,
        chain_values=chain, direct_values=direct)
