"""Rounding margins and certified bounds: the one home of the margin policy.

Every constant the package calls certified is a floating-point value
widened by an explicit bound on the rounding behind it, in units of
``EPS = 2^-52`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, ch. 3; Rump, "Verification methods", Acta Numerica 19,
2010). The bounds here are:

- :func:`spectral_norms`, the one dense ``sigma_max`` kernel, with
  :func:`rounding_margin` bounding its relative error and that of the
  O(n^2) brackets :func:`norm_bounds` and :func:`norm_bracket`;
- :func:`hermitian_defect`, which decides that a matrix is Hermitian up to
  rounding, and :func:`eigenvalue_margin`, the distance of each computed
  Hermitian eigenvalue from an exact one (the H2 closed form);
- :func:`collatz_wielandt_upper`, an upper bound on the top eigenvalue of
  an irreducible symmetric Metzler matrix (the decomposition search).

Smallest singular values must not come from a Gram matrix, which squares
the condition number; they stay on the SVD.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

EPS = 2.0 ** -52


def rounding_margin(stack) -> float:
    """Relative error bound of :func:`spectral_norms` on this stack, plus the
    rounding of the O(n^2) bounds: ``(k + 2)^2 eps`` with k the larger side.

    The kernel's error is below ``k (k + 1) eps / 2`` to first order (see
    :func:`spectral_norms`). A squared column or Frobenius norm sums at most
    k^2 squares ``re^2 + im^2`` of two roundings, and any order of summing m
    non-negative terms errs by ``gamma_{m-1}`` at most (Higham 2002, 4.2);
    with the square root and the widening that is ``(k^2 + 5) eps / 4``, and
    ``(k^{3/2} + 3) eps`` for the power step of :func:`norm_bracket`. Each plus
    the kernel's error stays below ``(k + 2)^2 eps``.
    """
    k = max(np.shape(stack)[-2:])
    return (k + 2) ** 2 * EPS


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
    :func:`rounding_margin`.
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
    """:func:`norm_bounds`, the squared column norms ``re^2 + im^2`` of the
    scaled stack, and the scaling exponents (:func:`_exponents`), 0 where
    the largest squared column norm lies in [2^-300, 2^300]: there neither
    its Frobenius norm nor the power step of :func:`norm_bracket`
    (``sigma^6 <= k^3 2^900``) overflows, and what underflows is negligible."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        col_sq = np.vecdot(stack, stack, axis=-2).real
        peak = col_sq.max(axis=-1)
        exponent = np.zeros(np.shape(peak), dtype=int)
        outside = ~((peak >= 2.0 ** -300) & (peak <= 2.0 ** 300))   # zero, NaN too
        if outside.any():
            exponent[outside] = _exponents(np.abs(stack[outside]).max(axis=(-2, -1)))
            scaled = _scaled(stack[outside], exponent[outside])
            col_sq[outside] = np.vecdot(scaled, scaled, axis=-2).real
            peak = col_sq.max(axis=-1)
    margin = rounding_margin(stack)
    upper = np.ldexp(np.sqrt(col_sq.sum(axis=-1)) * (1.0 + margin), exponent)
    lower = np.ldexp(np.sqrt(peak) * (1.0 - margin), exponent)
    return lower, upper, col_sq, exponent


def norm_bounds(stack) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the 2-norm of every matrix of a stack.

    The lower bound is the largest column 2-norm, the upper one the
    Frobenius norm. Both cost O(n^2) per matrix and lie within a factor
    ``sqrt(n)`` of the 2-norm; the upper one is the 2-norm itself on a
    rank-one matrix. Each is widened by :func:`rounding_margin`, so that
    they also bracket the 2-norm that :func:`spectral_norms` or an SVD
    computes. A matrix with a NaN entry has NaN bounds.
    """
    lower, upper, *_ = _bounds(np.asarray(stack))
    return lower, upper


def norm_bracket(stack, bounds=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`norm_bounds` with the lower bound raised by one power step.

    From the largest column x_j, ``y = X^H x_j`` and ``||X y|| / ||y||``
    bound the 2-norm from below: the square root of the Rayleigh quotient
    of ``X^H X`` at ``X^H X e_j``, which is never below ``||x_j||``. It is
    widened for rounding like the column bound and costs two more O(n^2)
    products per matrix. ``bounds``: the :func:`_bounds` of ``stack``, if
    taken (:func:`~semidecay.spectral.guarded_inverses` hands them back).
    """
    stack = np.asarray(stack)
    lower, upper, col_sq, exponent = _bounds(stack) if bounds is None else bounds
    index = np.argmax(col_sq, axis=-1)[..., None, None]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scaled = _scaled(stack, exponent) if exponent.any() else stack
        column = np.take_along_axis(scaled, index, axis=-1)
        # rows y^H = x_j^H X and (X y)^T = conj(y^H) X^T: no transposed copy of X
        y = column.conj().swapaxes(-1, -2) @ scaled
        xy = y.conj() @ scaled.swapaxes(-1, -2)
        step = np.sqrt(np.vecdot(xy, xy).real / np.vecdot(y, y).real)[..., 0]
    step = np.ldexp(step * (1.0 - rounding_margin(stack)), exponent)
    # a zero matrix gives 0/0: keep its column bound
    return np.fmax(lower, step), upper


def hermitian_defect(matrix) -> float | None:
    """``||S - S^H||_F / 2`` where it is at most ``n eps ||S||_F``, S then
    being Hermitian up to rounding; else None. It bounds ``||S - H||_2``,
    ``H = (S + S^H) / 2``, for Weyl's inequality on the singular values."""
    skew = 0.5 * float(np.linalg.norm(matrix - matrix.conj().T))
    return skew if skew <= matrix.shape[0] * EPS * float(np.linalg.norm(matrix)) else None


def eigenvalue_margin(spectrum) -> float:
    """``n eps max |lambda_k|``: each computed eigenvalue of an n x n
    Hermitian matrix lies within it of an exact one (LAPACK Users' Guide,
    section 4.7)."""
    return len(spectrum) * EPS * float(np.max(np.abs(spectrum)))


def collatz_wielandt_upper(matrix, x) -> float:
    """Certified upper bound ``max_i (S x)_i / x_i`` on the top eigenvalue
    of an irreducible symmetric Metzler matrix S, for any x > 0 (the
    Collatz-Wielandt formula for S + cI, c >= -min diag S).

    Each ``(S x)_i`` is widened by the error bound of a k-term dot product,
    gamma_k sum_j |S_ij| x_j (Higham 2002, section 3.5), with k two above
    the row's stored entries to cover the rounding of the widening sum, and
    the largest ratio is rounded up by one ulp for the division.
    """
    csr = sp.csr_matrix(matrix)
    k = np.diff(csr.indptr) + 2.0
    unit = 0.5 * EPS
    gamma = k * unit / (1.0 - k * unit)
    ratios = (csr @ x + gamma * (abs(csr) @ x)) / x
    return float(np.nextafter(np.max(ratios), np.inf))
