"""The enlarged-resolvent factorization and its verification.

Given a splitting T = A + B, the inverse of T - xi on the large space is
assembled as ``U(xi) = B(xi)^{-1} - R(xi) A B(xi)^{-1}`` where B(xi) = B - xi
and R(xi) is the resolvent of the restriction to the small space. The
assembly never inverts T - xi directly; agreement with the direct dense
inverse is what the verification routines certify.

H4, :func:`verify_factorization` and :func:`enlargement_bound_chain` read
the same per-sample norms. :func:`shift_sweep` computes them in one pass
over the samples, in blocks of ``SHIFT_BLOCK`` shifts: each block inverts
B - xi and T - xi once per sample with one stacked solve each. A norm
takes a stacked SVD only where its exact value sets a reported number;
the rounding-level factorization residuals are certified by O(n^2)
bounds (:func:`~semidecay.spaces.operator_norm_bounds`), and
``||B(xi)^{-1} A||``, read only through its supremum, is taken by SVD only
where its upper bound reaches the largest value seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatchError, SingularityError
from .reports import FAIL, PASS
from .spaces import (EmbeddedSpacePair, operator_norm_bounds, operator_norms,
                     weighted_congruence, weighted_norm)
from .spectral import SHIFT_BLOCK, guarded_inverses, resolvent_matrix

# the factorization check passes iff its two certified residual maxima stay
# below these: rounding level is ~1e-15 at the sizes the package runs
IDENTITY_RESIDUAL_LIMIT = 1e-9
INVERSE_MISMATCH_LIMIT = 1e-8


@dataclass(frozen=True)
class SplitOperator:
    """A generator together with its regularizing/coercive decomposition.

    ``full`` acts on the ambient space; ``part_a`` is the regularizing
    piece, ``part_b = full - part_a`` the coercive one. The restriction to
    the small space is the same matrix measured in the small norms, so
    every check takes ``full`` together with the space it measures in.
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
        if full.ndim != 2 or full.shape[0] != full.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {full.shape}")
        if not (full.shape == part_a.shape == part_b.shape):
            raise DimensionMismatchError("split parts must share the full operator's shape")
        for name, part in (("full", full), ("part_a", part_a), ("part_b", part_b)):
            if not np.all(np.isfinite(part)):
                raise ValueError(f"{name} has non-finite entries")
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
    return _assemble(b_inv, r_small, split.part_a @ b_inv)


def _assemble(b_inv, r_small, a_b_inv) -> np.ndarray:
    """``U(xi) = B(xi)^{-1} - R(xi) A B(xi)^{-1}``, also on stacks of shifts."""
    return b_inv - r_small @ a_b_inv


@dataclass
class ShiftSweep:
    """The weighted norms of B(xi)^{-1}, R(xi) and U(xi) over a sample.

    Every array has one entry per sample. Exact (one SVD each):
    ``b_inverse`` is ``||B(xi)^{-1}||_amb``, ``a_b_inverse`` is
    ``||A B(xi)^{-1}||`` from the ambient into the small space, and
    ``resolvent`` and ``resolvent_small`` are ``||R(xi)||`` in the two
    spaces. These set the H4 suprema, the chain and the direct values.

    Certified bounds (no SVD, within a factor ``sqrt(n)`` of the norm):
    ``shifted`` is a lower bound on ``||T - xi||_amb``, ``identity_defect``
    an upper bound on ``||(T - xi) U(xi) - Id||_amb`` and ``mismatch`` one
    on ``||U(xi) - R(xi)||_amb``; they only enter the rounding-level
    residuals of :func:`verify_factorization`.

    ``b_inverse_a`` is ``||B(xi)^{-1} A||`` from the ambient into the small
    space. It is exact wherever its upper bound reaches the column's
    maximum; elsewhere it may hold that upper bound, which stays below the
    maximum. So its maximum, and the sample attaining it, are exact.

    ``b_failure`` and ``t_failure`` hold the index and the
    :class:`SingularityError` of the first sample where B - xi, resp.
    T - xi, could not be inverted; entries that depend on a failed inverse
    are NaN. The sweep stops after the block of the first B failure, so
    later entries are NaN too.
    """

    samples: np.ndarray
    b_inverse: np.ndarray
    a_b_inverse: np.ndarray
    b_inverse_a: np.ndarray
    shifted: np.ndarray
    resolvent: np.ndarray
    resolvent_small: np.ndarray
    identity_defect: np.ndarray
    mismatch: np.ndarray
    b_failure: tuple[int, SingularityError] | None = None
    t_failure: tuple[int, SingularityError] | None = None

    def raise_failure(self):
        """Raise the error of the first failed sample; B - xi before T - xi."""
        failures = [f for f in (self.b_failure, self.t_failure) if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]


_B_NORMS = ("b_inverse", "a_b_inverse", "b_inverse_a")
_T_NORMS = ("resolvent", "resolvent_small")
_U_NORMS = ("identity_defect", "mismatch")


def _norms_below_floor(stack, dom, cod, floor: float) -> tuple[np.ndarray, float]:
    """Norms of a stack that are exact wherever they may reach the maximum.

    ``floor`` is a lower bound on the maximum norm (over this stack and any
    before it). A matrix whose upper bound reaches the floor, raised by the
    lower bounds of this stack, gets its norm by SVD; any other keeps its
    upper bound, which lies below the floor, so the maximum and the index
    attaining it are those of the exact norms. Returns the norms and the
    floor raised by them.
    """
    lower, upper = operator_norm_bounds(stack, dom, cod)
    floor = max(floor, float(np.max(lower, initial=0.0)))
    exact = upper >= floor
    norms = upper
    if exact.any():
        norms[exact] = operator_norms(stack[exact], dom, cod)
        floor = max(floor, float(np.max(norms[exact])))
    return norms, floor


def _sweep_block(split: SplitOperator, pair: EmbeddedSpacePair, xis,
                 tol: Tolerances, floor: float):
    """The eight norms on one block of shifts, and the raised floor of
    ``b_inverse_a`` (see :func:`_norms_below_floor`).

    Each stack is dropped once its norms are read, so that few stacks of
    the block are alive at a time.
    """
    amb, small = pair.ambient, pair.small
    eye = np.eye(split.dim)
    r, t_errors = guarded_inverses(split.full, xis, tol)
    norms = {"resolvent": operator_norms(r, amb, amb),
             "resolvent_small": operator_norms(r, small, small)}
    b_inv, b_errors = guarded_inverses(split.part_b, xis, tol)
    a_b_inv = split.part_a @ b_inv
    norms["b_inverse"] = operator_norms(b_inv, amb, amb)
    norms["a_b_inverse"] = operator_norms(a_b_inv, amb, small)
    norms["b_inverse_a"], floor = _norms_below_floor(b_inv @ split.part_a, amb,
                                                     small, floor)
    u = _assemble(b_inv, r, a_b_inv)
    del b_inv, a_b_inv
    _, norms["mismatch"] = operator_norm_bounds(u - r, amb, amb)
    del r
    shifted = split.full - xis[:, None, None] * eye
    norms["shifted"], _ = operator_norm_bounds(shifted, amb, amb)
    defect = shifted @ u
    defect -= eye
    _, norms["identity_defect"] = operator_norm_bounds(defect, amb, amb)
    for i in b_errors:
        for name in _B_NORMS + _U_NORMS:
            norms[name][i] = np.nan
    for i in t_errors:
        for name in _T_NORMS + _U_NORMS:
            norms[name][i] = np.nan
    return norms, floor, b_errors, t_errors


def shift_sweep(split: SplitOperator, pair: EmbeddedSpacePair, xi_samples,
                tol: Tolerances = DEFAULT_TOLERANCES) -> ShiftSweep:
    """One pass over the samples for H4, the factorization and the chain.

    Walks the samples in blocks of ``SHIFT_BLOCK`` shifts. Per block,
    B - xi and T - xi are each inverted once per sample by one stacked
    solve. The four exact norms of :class:`ShiftSweep` are stacked SVDs,
    the three certified bounds cost O(n^2) per sample, and the floor that
    decides which ``b_inverse_a`` entries take an SVD is carried from block
    to block.
    """
    if split.dim != pair.dim:
        raise DimensionMismatchError("split operator and space pair dimensions differ")
    samples = np.asarray(xi_samples, dtype=complex)
    names = _B_NORMS + ("shifted",) + _T_NORMS + _U_NORMS
    norms = {name: np.full(len(samples), np.nan) for name in names}
    b_failure = t_failure = None
    floor = 0.0
    for start in range(0, len(samples), SHIFT_BLOCK):
        xis = samples[start:start + SHIFT_BLOCK]
        block, floor, b_errors, t_errors = _sweep_block(split, pair, xis, tol, floor)
        for name, values in block.items():
            norms[name][start:start + len(xis)] = values
        if t_errors and t_failure is None:
            i = min(t_errors)
            t_failure = (start + i, t_errors[i])
        if b_errors:
            i = min(b_errors)
            b_failure = (start + i, b_errors[i])
            break
    return ShiftSweep(samples=samples, b_failure=b_failure, t_failure=t_failure,
                      **norms)


def _sweep_for(split, pair, xi_samples, tol, sweep: ShiftSweep | None) -> ShiftSweep:
    """``sweep`` if it covers exactly these samples, else a new one."""
    if sweep is None:
        return shift_sweep(split, pair, xi_samples, tol)
    if not np.array_equal(sweep.samples, np.asarray(xi_samples, dtype=complex)):
        raise ValueError("the shift sweep was built on other samples")
    return sweep


@dataclass
class FactorizationReport:
    """Residuals of the factorized inverse over a sample of shifts.

    ``max_identity_residual`` is a certified upper bound on the largest
    ``||(T-xi) U(xi) - Id||`` in the ambient norm relative to cond(T-xi);
    ``max_inverse_mismatch`` one on the largest ambient-norm distance to
    the direct dense inverse, relative to the inverse's norm. Each bound is
    within a factor ``n`` of the residual it bounds. The verdict passes iff
    they stay below ``IDENTITY_RESIDUAL_LIMIT`` and
    ``INVERSE_MISMATCH_LIMIT``.
    """

    max_identity_residual: float
    max_inverse_mismatch: float
    samples: np.ndarray
    identity_residuals: np.ndarray
    inverse_mismatches: np.ndarray
    witness = None

    @property
    def verdict(self):
        passed = (self.max_identity_residual <= IDENTITY_RESIDUAL_LIMIT
                  and self.max_inverse_mismatch <= INVERSE_MISMATCH_LIMIT)
        return PASS if passed else FAIL

    def constants(self):
        return {"max_identity_residual": self.max_identity_residual,
                "max_inverse_mismatch": self.max_inverse_mismatch,
                "n_samples": int(len(self.samples))}


def verify_factorization(split: SplitOperator, pair: EmbeddedSpacePair,
                         xi_samples, tol: Tolerances = DEFAULT_TOLERANCES,
                         sweep: ShiftSweep | None = None) -> FactorizationReport:
    """Certify ``(T-xi) U(xi) = Id`` and ``U(xi) = (T-xi)^{-1}`` on samples.

    The one dense inverse of T - xi per sample serves both as R(xi) inside
    U(xi) and as the direct inverse U(xi) is compared with. The norms come
    from ``sweep``, built by :func:`shift_sweep` from the same split, pair,
    samples and tolerances, or from a sweep of its own: its upper bounds on
    the two defects over its lower bound on ``||T - xi||`` make both
    residuals certified upper bounds.

    Raises
    ------
    SingularityError
        For the first sample where B - xi or T - xi is not invertible.
    """
    if split.dim != pair.dim:
        raise DimensionMismatchError("split operator and space pair dimensions differ")
    sweep = _sweep_for(split, pair, xi_samples, tol, sweep)
    sweep.raise_failure()
    cond_lo = sweep.shifted * sweep.resolvent
    id_res = sweep.identity_defect / np.maximum(cond_lo, 1.0)
    inv_mis = sweep.mismatch / np.maximum(sweep.resolvent, 1e-300)
    return FactorizationReport(
        max_identity_residual=float(np.max(id_res)) if len(id_res) else 0.0,
        max_inverse_mismatch=float(np.max(inv_mis)) if len(inv_mis) else 0.0,
        samples=sweep.samples, identity_residuals=id_res, inverse_mismatches=inv_mis)


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
    and must dominate the directly computed ``||(T - xi)^{-1}||_amb``; the
    verdict passes iff it does on every sample.
    """

    certified_bound: float
    direct_sup: float
    dominated: bool
    samples: np.ndarray
    chain_values: np.ndarray
    direct_values: np.ndarray
    witness = None

    @property
    def verdict(self):
        return PASS if self.dominated else FAIL

    def constants(self):
        return {"certified_bound": self.certified_bound,
                "direct_sup": self.direct_sup, "dominated": self.dominated,
                "n_samples": int(len(self.samples))}


def enlargement_bound_chain(split: SplitOperator, pair: EmbeddedSpacePair,
                            xi_samples, tol: Tolerances = DEFAULT_TOLERANCES,
                            sweep: ShiftSweep | None = None) -> BoundChainReport:
    """Certified ambient resolvent bound assembled from the split bounds.

    Reads ``sweep`` like :func:`verify_factorization`, and raises the same
    :class:`SingularityError` for the first sample that is not invertible.
    """
    sweep = _sweep_for(split, pair, xi_samples, tol, sweep)
    sweep.raise_failure()
    chain = (sweep.b_inverse
             + pair.embedding_constant * sweep.resolvent_small * sweep.a_b_inverse)
    direct = sweep.resolvent.copy()
    dominated = bool(np.all(chain >= direct * (1.0 - 1e-12)))
    return BoundChainReport(
        certified_bound=float(np.max(chain)) if len(chain) else 0.0,
        direct_sup=float(np.max(direct)) if len(direct) else 0.0,
        dominated=dominated, samples=sweep.samples,
        chain_values=chain, direct_values=direct)
