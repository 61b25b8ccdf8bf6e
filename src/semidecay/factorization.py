"""The enlarged-resolvent factorization and its verification.

Given a splitting T = A + B, the inverse of T - xi on the large space is
assembled as ``U(xi) = B(xi)^{-1} - R(xi) A B(xi)^{-1}`` where B(xi) = B - xi
and R(xi) is the resolvent of the restriction to the small space. The
assembly never inverts T - xi directly; agreement with the direct dense
inverse is what the verification routines certify.

H4, :func:`verify_factorization` and :func:`enlargement_bound_chain` read
the same per-sample norms. :func:`shift_sweep` computes them in one pass
over the samples, in blocks of :func:`~semidecay.spectral.block_size`
shifts (32 at n = 16, 8 from n = 32 on): each block inverts B - xi and
T - xi once per sample with one stacked solve each. A norm is
taken exactly (:func:`~semidecay.spaces.spectral_norms`) only where a
reported number or a verdict can depend on it:

- the direct ``||R(xi)||_amb`` at every sample;
- each of ``||B(xi)^{-1}||``, ``||A B(xi)^{-1}||``, ``||R(xi)||_small``
  and ``||B(xi)^{-1} A||`` where its O(n^2) bracket
  (:func:`~semidecay.spaces.norm_bracket`) cannot rule it out of its
  column's supremum, or where the sample's bound-chain value must be
  exact: its upper bound reaches the chain's supremum so far, or its lower
  bound does not dominate the direct value.

Elsewhere the H4 norms keep their upper bound and the chain its lower
bound, so every supremum, every domination decision and every witness is
that of the exact norms. The rounding-level factorization residuals are
certified by O(n^2) bounds (:func:`~semidecay.spaces.operator_norm_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatchError, SingularityError
from .reports import FAIL, PASS
from .spaces import (EmbeddedSpacePair, operator_norm_bounds, operator_norm_bracket,
                     operator_norms)
from .spectral import blocks, guarded_inverses, resolvent_matrix

# the factorization check passes iff its two certified residual maxima stay
# below these: rounding level is ~1e-15 at the sizes the package runs
IDENTITY_RESIDUAL_LIMIT = 1e-9
INVERSE_MISMATCH_LIMIT = 1e-8

# relative rounding slack by which a chain value may fall short of the
# direct resolvent norm and still dominate it
DOMINATION_SLACK = 1e-12


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

    Every array has one entry per sample. ``resolvent``, the direct
    ``||R(xi)||_amb``, is exact at every sample. Exact norms are largest
    singular values from the Gram kernel
    :func:`~semidecay.spaces.spectral_norms`.

    Bracketed (exact where a reported number or a verdict can depend on
    them): ``b_inverse`` is ``||B(xi)^{-1}||_amb``, ``a_b_inverse`` and
    ``b_inverse_a`` are ``||A B(xi)^{-1}||`` and ``||B(xi)^{-1} A||`` from
    the ambient into the small space, and ``resolvent_small`` is
    ``||R(xi)||_small``. Each comes with an O(n^2) bracket
    (:func:`~semidecay.spaces.norm_bracket`), and is exact wherever its
    upper bound reaches the largest lower bound or exact value of its
    column seen so far; elsewhere it holds that upper bound, which stays
    below the column's maximum. So each maximum, and the sample attaining
    it, are those of the exact norms.

    ``chain`` is ``b_inverse + c_J resolvent_small a_b_inverse`` of the
    bound chain. It is exact (its three norms exact) wherever its upper
    bound reaches the chain's running floor, or where its lower bound does
    not dominate ``resolvent`` (see :func:`_dominates`); elsewhere it holds
    its lower bound, which dominates ``resolvent`` and stays below the
    chain's maximum. So the maximum and every domination decision are those
    of the exact chain.

    Certified bounds (no exact norm, within a factor ``sqrt(n)`` of the
    norm): ``shifted`` is a lower bound on ``||T - xi||_amb``,
    ``identity_defect`` an upper bound on ``||(T - xi) U(xi) - Id||_amb``
    and ``mismatch`` one on ``||U(xi) - R(xi)||_amb``; they only enter the
    rounding-level residuals of :func:`verify_factorization`.

    ``exact_norms`` counts the matrices whose norm the sweep took exactly.
    ``b_failure`` and ``t_failure`` hold the index and the
    :class:`SingularityError` of the first sample where B - xi, resp.
    T - xi, could not be inverted. A rejected inverse is NaN
    (:func:`~semidecay.spectral.guarded_inverses`), so every entry computed
    from it is NaN by arithmetic: a failed B - xi leaves ``resolvent`` and
    ``resolvent_small`` finite, a failed T - xi the three B norms, and
    ``shifted`` is always finite. The sweep stops after the block of the
    first B failure, so later entries are NaN too.
    """

    samples: np.ndarray
    b_inverse: np.ndarray
    a_b_inverse: np.ndarray
    b_inverse_a: np.ndarray
    shifted: np.ndarray
    resolvent: np.ndarray
    resolvent_small: np.ndarray
    chain: np.ndarray
    identity_defect: np.ndarray
    mismatch: np.ndarray
    exact_norms: int = 0
    b_failure: tuple[int, SingularityError] | None = None
    t_failure: tuple[int, SingularityError] | None = None

    def raise_failure(self):
        """Raise the error of the first failed sample; B - xi before T - xi."""
        failures = [f for f in (self.b_failure, self.t_failure) if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]


# the bracketed columns, and the three of them the chain is made of
_BRACKETED = ("b_inverse", "a_b_inverse", "resolvent_small", "b_inverse_a")
_CHAIN = ("b_inverse", "resolvent_small", "a_b_inverse")


def _chain(norms, c_j):
    """``||B^{-1}|| + c_J ||R||_small ||A B^{-1}||``, monotone in each norm."""
    return norms["b_inverse"] + c_j * norms["resolvent_small"] * norms["a_b_inverse"]


def _refined_norms(stacks, direct, c_j, floors):
    """The bracketed norms of one block, exact only where they may matter.

    ``stacks`` maps each bracketed column to its stack and spaces, and
    ``floors`` each column and the chain to a lower bound on its maximum
    over this block and all before it; the floors are raised in place. A
    norm is refined to its exact value where its upper bound reaches its
    column's floor, or where its sample's chain must be exact: there the
    chain's upper bound reaches the chain's floor, or its lower bound does
    not dominate the direct value. A sample with a rejected inverse has NaN
    bounds: it raises no floor and is never refined. Returns the column
    values (exact, else upper bound), the chain values (exact, else lower
    bound) and the number of exact norms taken.
    """
    lower, upper, refine = {}, {}, {}
    for name, (stack, dom, cod) in stacks.items():
        lower[name], upper[name] = operator_norm_bracket(stack, dom, cod)
        floors[name] = np.fmax.reduce(lower[name], initial=floors[name])
        refine[name] = upper[name] >= floors[name]
    chain_lower = _chain(lower, c_j)
    floors["chain"] = np.fmax.reduce(chain_lower, initial=floors["chain"])
    # the negation of _dominates but False on NaN: a rejected sample's chain
    # must stay out of the exact kernel
    exact_chain = ((_chain(upper, c_j) >= floors["chain"])
                   | (chain_lower < direct * (1.0 - DOMINATION_SLACK)))
    for name in _CHAIN:
        refine[name] |= exact_chain
    count = 0
    for name, (stack, dom, cod) in stacks.items():
        exact = refine[name]
        if exact.any():
            values = operator_norms(stack[exact], dom, cod)
            upper[name][exact] = lower[name][exact] = values
            floors[name] = max(floors[name], float(np.max(values)))
            count += int(exact.sum())
    chain = _chain(lower, c_j)
    floors["chain"] = np.fmax.reduce(chain, initial=floors["chain"])
    return upper, chain, count


def _sweep_block(split: SplitOperator, pair: EmbeddedSpacePair, xis,
                 tol: Tolerances, floors: dict):
    """The norms of :class:`ShiftSweep` on one block of shifts, raising the
    running ``floors`` of :func:`_refined_norms` in place.

    Each stack is dropped once its norms are read, so that few stacks of
    the block are alive at a time.
    """
    amb, small = pair.ambient, pair.small
    eye = np.eye(split.dim)
    r, t_errors = guarded_inverses(split.full, xis, tol)
    b_inv, b_errors = guarded_inverses(split.part_b, xis, tol)
    a_b_inv = split.part_a @ b_inv
    norms = {"resolvent": operator_norms(r, amb, amb)}
    stacks = {"b_inverse": (b_inv, amb, amb), "a_b_inverse": (a_b_inv, amb, small),
              "resolvent_small": (r, small, small),
              "b_inverse_a": (b_inv @ split.part_a, amb, small)}
    bracketed, norms["chain"], exact_norms = _refined_norms(
        stacks, norms["resolvent"], pair.embedding_constant, floors)
    del stacks
    norms.update(bracketed)
    u = _assemble(b_inv, r, a_b_inv)
    del b_inv, a_b_inv
    _, norms["mismatch"] = operator_norm_bounds(u - r, amb, amb)
    del r
    shifted = split.full - xis[:, None, None] * eye
    norms["shifted"], _ = operator_norm_bounds(shifted, amb, amb)
    defect = shifted @ u
    defect -= eye
    _, norms["identity_defect"] = operator_norm_bounds(defect, amb, amb)
    return norms, len(xis) + exact_norms, b_errors, t_errors


def shift_sweep(split: SplitOperator, pair: EmbeddedSpacePair, xi_samples,
                tol: Tolerances = DEFAULT_TOLERANCES) -> ShiftSweep:
    """One pass over the samples for H4, the factorization and the chain.

    Walks the samples in :func:`~semidecay.spectral.blocks`. Per block,
    B - xi and T - xi are each inverted once per sample by one stacked
    solve. The direct ``resolvent`` is exact at every sample; the four
    bracketed norms and the chain of :class:`ShiftSweep` take exact norms
    only where their brackets cannot settle a maximum or a domination
    decision, against floors carried from block to block; the three
    certified bounds cost O(n^2) per sample.
    """
    if split.dim != pair.dim:
        raise DimensionMismatchError("split operator and space pair dimensions differ")
    samples = np.asarray(xi_samples, dtype=complex)
    names = _BRACKETED + ("shifted", "resolvent", "chain", "identity_defect", "mismatch")
    norms = {name: np.full(len(samples), np.nan) for name in names}
    floors = dict.fromkeys(_BRACKETED + ("chain",), 0.0)
    b_failure = t_failure = None
    exact_norms = 0
    for block in blocks(len(samples), split.dim):
        values, count, b_errors, t_errors = _sweep_block(split, pair, samples[block],
                                                         tol, floors)
        exact_norms += count
        for name, column in values.items():
            norms[name][block] = column
        if t_errors and t_failure is None:
            i = min(t_errors)
            t_failure = (block.start + i, t_errors[i])
        if b_errors:
            i = min(b_errors)
            b_failure = (block.start + i, b_errors[i])
            break
    return ShiftSweep(samples=samples, exact_norms=exact_norms, b_failure=b_failure,
                      t_failure=t_failure, **norms)


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

    @property
    def verdict(self):
        return FAIL if self.witness else PASS

    @property
    def witness(self):
        """The first residual maximum over its limit, with the sample attaining
        it, or None."""
        for label, worst, values, limit in (
                ("identity residual", self.max_identity_residual,
                 self.identity_residuals, IDENTITY_RESIDUAL_LIMIT),
                ("inverse mismatch", self.max_inverse_mismatch,
                 self.inverse_mismatches, INVERSE_MISMATCH_LIMIT)):
            if not worst <= limit:
                xi = complex(self.samples[np.argmax(values)])
                return f"{label} {worst:.3e} exceeds {limit:.0e} at xi = {xi}"
        return None

    def constants(self):
        return {"max_identity_residual": self.max_identity_residual,
                "max_inverse_mismatch": self.max_inverse_mismatch,
                "n_samples": int(len(self.samples))}


def verify_factorization(sweep: ShiftSweep) -> FactorizationReport:
    """Certify ``(T-xi) U(xi) = Id`` and ``U(xi) = (T-xi)^{-1}`` on samples.

    Reads the :func:`shift_sweep` of the split, the space pair and the
    samples. The one dense inverse of T - xi per sample serves both as
    R(xi) inside U(xi) and as the direct inverse U(xi) is compared with;
    the sweep's upper bounds on the two defects over its lower bound on
    ``||T - xi||`` make both residuals certified upper bounds.

    Raises
    ------
    SingularityError
        For the first sample where B - xi or T - xi is not invertible.
    """
    sweep.raise_failure()
    cond_lo = sweep.shifted * sweep.resolvent
    id_res = sweep.identity_defect / np.maximum(cond_lo, 1.0)
    inv_mis = sweep.mismatch / np.maximum(sweep.resolvent, 1e-300)
    return FactorizationReport(
        max_identity_residual=float(np.max(id_res)) if len(id_res) else 0.0,
        max_inverse_mismatch=float(np.max(inv_mis)) if len(inv_mis) else 0.0,
        samples=sweep.samples, identity_residuals=id_res, inverse_mismatches=inv_mis)


def _dominates(chain, direct):
    """Per sample, whether the chain value covers the direct one (up to
    ``DOMINATION_SLACK``)."""
    return chain >= direct * (1.0 - DOMINATION_SLACK)


@dataclass
class BoundChainReport:
    """Triangle-inequality envelope for the enlarged resolvent bound.

    Per sampled xi the chain value is
    ``||B(xi)^{-1}||_amb + c_J ||R(xi)||_small ||A B(xi)^{-1}||_amb->small``
    and must dominate the directly computed ``||(T - xi)^{-1}||_amb``; the
    verdict passes iff it does on every sample.

    ``direct_values`` are exact. A ``chain_values`` entry is exact where
    its upper bound reaches ``certified_bound`` or its lower bound does not
    dominate the direct value; elsewhere it is a certified lower bound that
    dominates the direct value (see :class:`ShiftSweep`). So
    ``certified_bound``, ``direct_sup``, ``dominated`` and the witness are
    those of the exact chain. Exact values are largest singular values
    from :func:`~semidecay.spaces.spectral_norms`; no smallest singular
    value enters the chain (those stay on the SVD).
    """

    certified_bound: float
    direct_sup: float
    dominated: bool
    samples: np.ndarray
    chain_values: np.ndarray
    direct_values: np.ndarray

    @property
    def verdict(self):
        return PASS if self.dominated else FAIL

    @property
    def witness(self):
        """The first sample where the chain falls below the direct value."""
        if self.dominated:
            return None
        i = int(np.argmax(~_dominates(self.chain_values, self.direct_values)))
        return (f"chain {self.chain_values[i]:.6e} < direct {self.direct_values[i]:.6e} "
                f"at xi = {complex(self.samples[i])}")

    def constants(self):
        return {"certified_bound": self.certified_bound,
                "direct_sup": self.direct_sup, "dominated": self.dominated,
                "n_samples": int(len(self.samples))}


def enlargement_bound_chain(sweep: ShiftSweep) -> BoundChainReport:
    """Certified ambient resolvent bound assembled from the split bounds.

    Reads ``sweep`` like :func:`verify_factorization`, and raises the same
    :class:`SingularityError` for the first sample that is not invertible.
    """
    sweep.raise_failure()
    chain = sweep.chain.copy()
    direct = sweep.resolvent.copy()
    dominated = bool(np.all(_dominates(chain, direct)))
    return BoundChainReport(
        certified_bound=float(np.max(chain)) if len(chain) else 0.0,
        direct_sup=float(np.max(direct)) if len(direct) else 0.0,
        dominated=dominated, samples=sweep.samples,
        chain_values=chain, direct_values=direct)
