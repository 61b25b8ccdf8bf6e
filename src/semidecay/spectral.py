"""Resolvents, eigendecompositions, and spectral projectors.

Every resolvent is computed by :func:`guarded_inverses`: one stacked solve
over a block of shifts, which solves each shift once unless the block holds
an exactly singular shift (then the stacked solve fails and every shift of
the block is solved again alone), and a conditioning guard on each. O(n^2)
bounds on its 2-norms settle the guard for most shifts; only a shift they
flag takes the 2-norms exactly (:func:`~semidecay.spaces.spectral_norms`)
on the stack's own inverse, and is accepted or rejected with a
:class:`SingularityError` and its diagnostics. A rejected shift's slot is
NaN. :func:`resolvent_block` and :func:`resolvent_matrix` (the one-shift
case) raise the first rejection.

A block of an n x n operator holds :func:`block_size` samples (shifts,
times or contour points): as many complex matrices as fill ``BLOCK_BYTES``,
32 at n = 16, and never fewer than 8, which every n >= 32 gets.
:func:`blocks` cuts a sample into them for every stacked pass of the
package. The cut changes no reported number, only the number of stacked
calls (and which per-sample sweep values are exact).

Every sparse LU factorization is :func:`sparse_lu`, which fixes its
column ordering.

:func:`eigen_decompose` returns the residual-checked eigenvalues and their
largest relative residual; the H1 check
(:class:`~semidecay.hypotheses.H1Report`) keeps both with the split of
the spectrum it certifies.

Projectors are computed two independent ways and cross-checked: once from
orthonormal bases of the right and left invariant subspaces (ordered Schur
forms), and once by trapezoidal contour integration of the resolvent. The
contour rule is spectrally accurate for the analytic integrand, so 64
points usually reach rounding level; the point count doubles automatically
until the two constructions agree.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (EigenConvergenceError, ProjectorMismatchError,
                     SeparationError, SingularityError)
from .spaces import norm_bounds, spectral_norms

# bytes of one stack of a block (shifts per stacked solve, times per stack of
# semigroup norms): large blocks amortize the per-call cost of the stacked
# kernels, while a block of 8 complex matrices at n = 32 stays at this size
BLOCK_BYTES = 2 ** 17

# minimum degree on the pattern of A + A^T: the standard ordering for
# structurally symmetric matrices such as the 2-D drift-diffusion stencils
# (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17, 1996); SuperLU's
# default COLAMD orders for A^T A and fills about twice as much on them.
# A tridiagonal matrix (the 1-D stencils) fills next to nothing in either
# ordering (4800 against 4798 L+U entries at N = 1200) and keeps COLAMD,
# so the 1-D results do not move with the ordering of the 2-D ones
SPARSE_ORDERING = "MMD_AT_PLUS_A"
TRIDIAGONAL_ORDERING = "COLAMD"


def block_size(n: int) -> int:
    """Samples per block for an n x n operator: as many complex128
    matrices as fill ``BLOCK_BYTES``, and never fewer than 8."""
    return max(8, BLOCK_BYTES // (16 * n * n))


def blocks(count: int, n: int) -> list[slice]:
    """The consecutive blocks of :func:`block_size` samples that cover
    ``count`` samples for an n x n operator."""
    size = block_size(n)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _solve_or_nan(shifted, ident) -> np.ndarray:
    try:
        return np.linalg.solve(shifted, ident)
    except np.linalg.LinAlgError:
        return np.full_like(shifted, np.nan)


def guarded_inverses(matrix, xis, tol: Tolerances = DEFAULT_TOLERANCES
                     ) -> tuple[np.ndarray, dict[int, SingularityError]]:
    """The stack of ``(M - xi)^{-1}`` over ``xis``, and by index the
    :class:`SingularityError` of each shift the guard rejects.

    One stacked solve inverts every shift, once; only an exactly singular
    shift, which stops the stacked solve, has every shift of its block
    solved again, alone. A shift whose inverse has a non-finite entry is rejected
    as singular. Any other shift passes the guard when
    ``||M - xi|| ||R|| tol_solve < 1`` and the residual
    ``||(M - xi) R - Id||`` is at most ``tol_solve * max(||M - xi|| ||R||, 1)``.
    The O(n^2) bounds of :func:`~semidecay.spaces.norm_bounds` settle most
    shifts: a shift is flagged when ``cond_hi tol_solve >= 1`` or the
    residual bound exceeds ``tol_solve * max(cond_lo, 1)``, where ``cond_hi``
    and ``cond_lo`` bound ``||M - xi|| ||R||`` from above and below, so a
    shift that is not flagged passes the exact test. Only a flagged shift
    takes the three 2-norms exactly (:func:`~semidecay.spaces.spectral_norms`),
    on the stack's own shifted matrix, inverse and residual. A rejected
    shift's slot is NaN, so that everything computed from it is NaN too.
    """
    matrix = np.asarray(matrix)
    shifts = np.asarray(xis)
    n = matrix.shape[0]
    shifted = matrix - shifts[:, None, None] * np.eye(n)
    ident = np.broadcast_to(np.eye(n, dtype=shifted.dtype), shifted.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            inverses = np.linalg.solve(shifted, ident)
        except np.linalg.LinAlgError:
            # an exactly singular shift stops the stacked solve for all
            inverses = np.stack([_solve_or_nan(s, i) for s, i in zip(shifted, ident)])
        shifted_lo, shifted_hi = norm_bounds(shifted)
        inverse_lo, inverse_hi = norm_bounds(inverses)
        defect = shifted @ inverses
        defect -= ident
        _, residual_hi = norm_bounds(defect)
        cond_lo = shifted_lo * inverse_lo
        # a non-finite inverse has non-finite bounds, which flag nothing
        finite = np.all(np.isfinite(inverses), axis=(1, 2))
        flagged = (~finite | (shifted_hi * inverse_hi * tol.tol_solve >= 1.0)
                   | (residual_hi > tol.tol_solve * np.maximum(cond_lo, 1.0)))
    errors = {}
    spectrum = None
    for i in np.flatnonzero(flagged):
        if not np.all(np.isfinite(shifted[i])):
            reason = "is singular"
        elif not finite[i]:
            reason = "is numerically singular"
        else:
            shifted_norm, inverse_norm, residual = spectral_norms(
                np.stack([shifted[i], inverses[i], defect[i]]))
            cond = shifted_norm * inverse_norm
            # sigma_min(M - xi) = 1/||R||; reject shifts inside the conditioning band
            if cond * tol.tol_solve >= 1.0:
                reason = (f"too close to the spectrum: inverse norm {inverse_norm:.3e} "
                          f"puts it inside the tol_solve={tol.tol_solve:.1e} conditioning band")
            elif residual > tol.tol_solve * max(cond, 1.0):
                reason = f"solve residual {residual:.3e} exceeds {tol.tol_solve:.1e} * cond"
            else:
                continue
        # one eigensolve serves every rejected shift; the witness is the
        # caller's own value, as it was passed
        if spectrum is None:
            spectrum = np.linalg.eigvals(matrix)
        dist = float(np.min(np.abs(spectrum - xis[i])))
        inverses[i] = np.nan
        errors[int(i)] = SingularityError(
            f"shift {xis[i]} {reason} (distance to spectrum {dist:.3e})",
            distance=dist, witness=xis[i])
    return inverses, errors


def resolvent_block(matrix, xis, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The stack of ``(M - xi)^{-1}``; raises for the first rejected shift."""
    inverses, errors = guarded_inverses(matrix, xis, tol)
    if errors:
        raise errors[min(errors)]
    return inverses


def resolvent_matrix(matrix, xi: complex, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """``(T - xi)^{-1}`` with a residual guard: the one-shift stack.

    Raises
    ------
    SingularityError
        If the shifted matrix is numerically singular, or the solve residual
        exceeds ``tol_solve`` times the condition number. The error carries
        a distance-to-spectrum estimate.
    """
    return resolvent_block(matrix, [xi], tol)[0]


def is_tridiagonal(matrix) -> bool:
    """Whether every stored entry of a sparse matrix is within one diagonal
    of the main one."""
    coo = matrix.tocoo()
    return coo.nnz > 0 and int(np.max(np.abs(coo.row - coo.col))) <= 1


def sparse_lu(matrix) -> spla.SuperLU:
    """Sparse LU factorization of a square matrix, in the ``SPARSE_ORDERING``
    unless it is tridiagonal."""
    csc = sp.csc_matrix(matrix)
    ordering = TRIDIAGONAL_ORDERING if is_tridiagonal(csc) else SPARSE_ORDERING
    return spla.splu(csc, permc_spec=ordering)


def eigen_decompose(op, tol: Tolerances = DEFAULT_TOLERANCES
                    ) -> tuple[np.ndarray, float]:
    """Dense eigendecomposition: the eigenvalues and the largest eigenpair
    residual relative to ``||T||``.

    Raises
    ------
    EigenConvergenceError
        If the eigensolver fails, or an eigenpair's residual exceeds
        ``tol_eig * ||T||``.
    """
    matrix = np.asarray(op)
    try:
        eigvals, right = sla.eig(matrix)
    except sla.LinAlgError as exc:
        raise EigenConvergenceError(f"dense eigensolver failed: {exc}")
    scale = spectral_norms(matrix[None])[0]
    residuals = np.linalg.norm(matrix @ right - right * eigvals[None, :], axis=0)
    max_rel = float(np.max(residuals) / max(scale, 1e-300)) if len(eigvals) else 0.0
    if max_rel > tol.tol_eig:
        raise EigenConvergenceError(
            f"eigenpair residual {max_rel:.3e} exceeds tol_eig={tol.tol_eig:.1e}")
    return eigvals, max_rel


def _check_separation(eigvals, center, radius, margin) -> np.ndarray:
    dist = np.abs(eigvals - center)
    near = np.abs(dist - radius) <= margin * max(radius, 1.0)
    if np.any(near):
        raise SeparationError(
            f"eigenvalue {eigvals[near][0]} lies within {margin:.1e} of the "
            f"circle |z - {center}| = {radius}")
    return dist < radius


def _projector_subspace(matrix, inside_mask_fn) -> np.ndarray:
    """Oblique projector from right/left invariant-subspace bases.

    Ordered Schur forms give orthonormal bases V_R, V_L of the right and
    left invariant subspaces of the selected eigenvalue group; the spectral
    projector is ``V_R (V_L^H V_R)^{-1} V_L^H``. For a simple eigenvalue
    this reduces to the right/left eigenvector outer product
    ``v w^H / (w^H v)``, and unlike raw eigenvector sums it survives
    defective (Jordan) groups.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    _, q_right, sdim = sla.schur(matrix, output="complex", sort=inside_mask_fn)
    if sdim == 0:
        return np.zeros_like(matrix)
    if sdim == n:
        return np.eye(n, dtype=complex)
    v_right = q_right[:, :sdim]
    _, q_left, sdim_l = sla.schur(matrix.conj().T, output="complex",
                                  sort=lambda z: inside_mask_fn(np.conjugate(z)))
    if sdim_l != sdim:
        raise SeparationError(
            f"left/right invariant subspace dimensions disagree ({sdim_l} vs {sdim})")
    v_left = q_left[:, :sdim]
    gram = v_left.conj().T @ v_right
    return v_right @ np.linalg.solve(gram, v_left.conj().T)


def _projector_contour(matrix, center, radius, n_points,
                       tol: Tolerances) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    acc = np.zeros((n, n), dtype=complex)
    for block in blocks(n_points, n):
        phases = [np.exp(1j * th) for th in theta[block]]
        inverses = resolvent_block(matrix, [center + radius * p for p in phases], tol)
        for phase, inverse in zip(phases, inverses):
            acc += phase * inverse
    return -(radius / n_points) * acc


def spectral_projector(op, center: complex, radius: float,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Spectral projector for the eigenvalue group inside a circle.

    Computes both constructions and verifies their agreement within
    ``tol_proj``, doubling the contour points from 64 (up to 1024) if
    needed; returns the invariant-subspace one.

    Raises
    ------
    SeparationError
        If an eigenvalue sits on the circle within the boundary margin.
    ProjectorMismatchError
        If the two constructions never agree within ``tol_proj``.
    """
    matrix = np.asarray(op)
    eigvals = np.linalg.eigvals(matrix)
    _check_separation(eigvals, center, radius, tol.boundary_margin)

    def inside(z):
        return bool(np.abs(z - center) < radius)

    proj_sub = _projector_subspace(matrix, inside)
    scale = max(spectral_norms(proj_sub[None])[0], 1.0)
    points = 64
    while True:
        proj_con = _projector_contour(matrix, center, radius, points, tol)
        gap = spectral_norms((proj_sub - proj_con)[None])[0] / scale
        if gap <= tol.tol_proj:
            break
        if points >= 1024:
            raise ProjectorMismatchError(
                f"projector constructions disagree by {gap:.3e} at "
                f"{points} contour points (tol_proj={tol.tol_proj:.1e})")
        points *= 2
    if not np.iscomplexobj(matrix) and np.max(np.abs(proj_sub.imag)) <= tol.tol_proj * scale:
        return proj_sub.real
    return proj_sub
