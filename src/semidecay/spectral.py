"""Resolvents, eigendecompositions, and spectral projectors.

Every resolvent is computed by :func:`guarded_inverses`: one stacked solve
over a block of shifts, which solves each shift once unless the block holds
an exactly singular shift (then the stacked solve fails and every shift of
the block is solved again alone), and a conditioning guard on each. O(n^2)
bounds on its 2-norms settle the guard for most shifts; only a shift they
flag takes the 2-norms exactly (:func:`~semidecay.certify.spectral_norms`)
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
column ordering. It is the module's one use of ``scipy.sparse.linalg``,
imported inside it, so the dense testbed never loads the sparse solvers.

:func:`eigen_decompose`, the one eigensolve of a testbed operator, returns
its residual-checked eigenvalues and their largest relative residual; H1
(:class:`~semidecay.hypotheses.H1Report`) splits them, and H2, H3, the
projectors and the converse read them.

Projectors are computed two independent ways and cross-checked: once from
one ordered Schur form and a triangular Sylvester solve, and once by
trapezoidal contour integration of the resolvent. The contour rule is
spectrally accurate for the analytic integrand, so 64 points usually reach
rounding level; the point count doubles automatically until the two
constructions agree.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (EigenConvergenceError, ProjectorMismatchError,
                     SeparationError, SingularityError)
from .certify import _bounds, norm_bounds, spectral_norms

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
                     ) -> tuple[np.ndarray, dict[int, SingularityError], tuple]:
    """The stack of ``(M - xi)^{-1}`` over ``xis``, by index the
    :class:`SingularityError` of each shift the guard rejects, and the
    guard's O(n^2) bounds on the shifted matrices and on the inverses, as
    :func:`~semidecay.certify.norm_bracket` takes them (NaN for a rejected inverse).

    One stacked solve inverts every shift, once; only an exactly singular
    shift, which stops the stacked solve, has every shift of its block
    solved again, alone. A shift whose inverse has a non-finite entry is rejected
    as singular. Any other shift passes the guard when
    ``||M - xi|| ||R|| tol_solve < 1`` and the residual
    ``||(M - xi) R - Id||`` is at most ``tol_solve * max(||M - xi|| ||R||, 1)``.
    The O(n^2) bounds of :func:`~semidecay.certify.norm_bounds` settle most
    shifts: a shift is flagged when ``cond_hi tol_solve >= 1`` or the
    residual bound exceeds ``tol_solve * max(cond_lo, 1)``, where ``cond_hi``
    and ``cond_lo`` bound ``||M - xi|| ||R||`` from above and below, so a
    shift that is not flagged passes the exact test. Only a flagged shift
    takes the three 2-norms exactly (:func:`~semidecay.certify.spectral_norms`),
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
        bounds = _bounds(shifted), _bounds(inverses)
        (shifted_lo, shifted_hi, *_), (inverse_lo, inverse_hi, *_) = bounds
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
        for column in bounds[1][:3]:
            column[i] = np.nan
        errors[int(i)] = SingularityError(
            f"shift {xis[i]} {reason} (distance to spectrum {dist:.3e})",
            distance=dist, witness=xis[i])
    return inverses, errors, bounds


def resolvent_block(matrix, xis, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The stack of ``(M - xi)^{-1}``; raises for the first rejected shift."""
    inverses, errors, _ = guarded_inverses(matrix, xis, tol)
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


def sparse_lu(matrix):
    """Sparse LU factorization of a square matrix, a
    ``scipy.sparse.linalg.SuperLU``, in the ``SPARSE_ORDERING`` unless it
    is tridiagonal. It imports ``scipy.sparse.linalg`` when first called."""
    import scipy.sparse.linalg as spla
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
    """Spectral projector from one ordered Schur form.

    ``T = Q [[U11, U12], [0, U22]] Q^H`` with the selected group in ``U11``;
    the projector is ``Q [[I, Y], [0, 0]] Q^H`` with ``U11 Y - Y U22 = U12``,
    a triangular Sylvester equation that LAPACK ``trsyl`` solves (Golub &
    Van Loan, *Matrix Computations*, 2013, sec. 7.6). It survives defective
    (Jordan) groups. A nonzero ``trsyl`` info, which means the two blocks
    share or nearly share an eigenvalue, raises :class:`SeparationError`.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    u, q, sdim = sla.schur(matrix, output="complex", sort=inside_mask_fn)
    if sdim == 0:
        return np.zeros_like(matrix)
    if sdim == n:
        return np.eye(n, dtype=complex)
    trsyl = sla.get_lapack_funcs("trsyl", (u,))
    x, scale, info = trsyl(u[:sdim, :sdim], u[sdim:, sdim:], u[:sdim, sdim:], isgn=-1)
    if info != 0:
        raise SeparationError(f"the group inside the circle and the rest share "
                              f"or nearly share an eigenvalue (trsyl info {info})")
    q_in = q[:, :sdim]
    return q_in @ (q_in.conj().T + (x / scale) @ q[:, sdim:].conj().T)


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


def spectral_projector(op, eigvals, center: complex, radius: float,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Spectral projector for the eigenvalue group inside a circle.

    ``eigvals``, the spectrum of ``op``, decides the separation of the
    circle. Computes both constructions and verifies their agreement within
    ``tol_proj``, doubling the contour points from 64 (up to 1024) if
    needed; returns the Schur-form one.

    Raises
    ------
    SeparationError
        If an eigenvalue sits on the circle within the boundary margin, or
        the Sylvester solve finds the group and the rest inseparable.
    ProjectorMismatchError
        If the two constructions never agree within ``tol_proj``.
    """
    matrix = np.asarray(op)
    _check_separation(eigvals, center, radius, tol.boundary_margin)

    proj_sub = _projector_subspace(matrix, lambda z: bool(abs(z - center) < radius))
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
