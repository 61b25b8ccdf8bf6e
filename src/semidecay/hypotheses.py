"""Checkers for the four structural hypotheses behind decay transfer.

H1 localizes the spectrum (everything left of a vertical line except k
isolated eigenvalue groups), H2 bounds the resolvent uniformly on that
line, H3 bounds the semigroup growth, and H4 certifies the splitting
T = A + B on the enlarged space. Verdicts are three-valued: eigenvalues
within the boundary margin of a decision line yield ``indeterminate``
rather than a coerced pass or fail. Each report is a
:class:`~semidecay.reports.Check`: it states its ``witness`` and
``constants()``, the entry a run report records for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .certify import eigenvalue_margin, hermitian_defect, rounding_margin, spectral_norms
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import SingularityError
from .factorization import ShiftSweep, shift_sweep
from .reports import FAIL, INDETERMINATE, Check
from .semigroup import DecayFit, default_time_grid, fit_exponential_decay, semigroup_norms
from .spectral import blocks
from .spaces import EmbeddedSpacePair, WeightedSpace, weighted_congruence


# ----------------------------------------------------------------------
# H1: localization of the spectrum


@dataclass
class H1Report(Check):
    """The split of the spectrum at ``Re z = a``.

    ``eigenvalues`` and ``max_residual`` (the largest eigenpair residual
    relative to ``||T||``) are the pair
    :func:`~semidecay.spectral.eigen_decompose` returned for T. On a pass,
    ``discrete_eigs`` are the centers of the eigenvalue groups right of the
    line, each inside a ball of radius ``r``, ordered by decreasing real
    part; otherwise it is empty. The spectral projectors of these groups
    are built by their reader, the decay transfer. ``unmet`` is the
    verdict of a split that is not a pass. ``constants()`` prints ``k``
    and every field but the witness and ``unmet``.
    """

    witness: str | None
    eigenvalues: np.ndarray
    max_residual: float
    a: float
    r: float
    discrete_eigs: list = field(default_factory=list)
    unmet: str = FAIL

    def constants(self):
        return {"k": len(self.discrete_eigs), "discrete_eigs": self.discrete_eigs,
                "a": self.a, "r": self.r, "eigenvalues": self.eigenvalues,
                "max_residual": self.max_residual}


def _cluster(points, radius):
    """Connected components under single linkage at distance ``radius``,
    ordered by their first point, each in increasing index order.

    The reflexive link relation is closed by boolean squaring (at most
    log2 of the point count products) until it stops growing; each row of
    the closure is then its point's component, found from its first point.
    """
    points = np.asarray(points)
    reach = np.abs(points[:, None] - points[None, :]) <= radius
    reach |= np.eye(len(points), dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    return [np.flatnonzero(reach[first]) for first in np.unique(np.argmax(reach, axis=1))]


def check_h1(spectrum, a: float, r: float, expected_k: int | None = None,
             tol: Tolerances = DEFAULT_TOLERANCES) -> H1Report:
    """Verify that the spectrum splits into {Re <= a} plus isolated balls.

    ``spectrum`` is the pair :func:`~semidecay.spectral.eigen_decompose`
    returned for the operator; the split reads nothing else. Passes iff
    every eigenvalue either has real part <= a or lies in one of k pairwise
    disjoint balls B(xi_j, r) strictly inside the half plane {Re z > a}.
    Eigenvalues within the boundary margin of the line give an
    indeterminate verdict.
    """
    eigvals, max_residual = spectrum

    def report(witness=None, unmet=FAIL, **split):
        return H1Report(witness, eigvals, max_residual, a, r, unmet=unmet, **split)

    scale = max(1.0, float(np.max(np.abs(eigvals))) if len(eigvals) else 1.0)
    margin = tol.boundary_margin * scale

    on_boundary = np.abs(eigvals.real - a) <= margin
    if np.any(on_boundary):
        witness = eigvals[on_boundary][0]
        return report(f"eigenvalue {witness} within {margin:.1e} of the line Re z = {a}",
                      INDETERMINATE)

    inside = eigvals[eigvals.real > a]
    if len(inside) == 0:
        if expected_k not in (None, 0):
            return report(f"expected {expected_k} eigenvalue groups, found 0")
        return report()

    clusters = _cluster(inside, r)
    centers = []
    for idx in clusters:
        center = complex(np.mean(inside[idx]))
        radius_used = float(np.max(np.abs(inside[idx] - center)))
        if radius_used > r:
            return report(
                f"eigenvalue group around {center} has spread {radius_used:.3e} > r={r}")
        centers.append(center)
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) <= 2 * r:
                return report(
                    f"balls around {centers[i]} and {centers[j]} are not disjoint")
    for center in centers:
        clearance = center.real - r - a
        if clearance <= 0.0:
            return report(f"ball around {center} is not strictly inside Re z > {a}")
        if clearance <= margin:
            return report(
                f"ball around {center} clears the line Re z = {a} by only {clearance:.1e}",
                INDETERMINATE)
    if expected_k is not None and len(centers) != expected_k:
        return report(f"expected {expected_k} eigenvalue groups, found {len(centers)}")
    centers.sort(key=lambda z: (-z.real, z.imag))
    return report(discrete_eigs=centers)


# ----------------------------------------------------------------------
# H2: uniform resolvent bound on a vertical line


def make_y_grid(core_scale: float, y_max: float) -> np.ndarray:
    """Symmetric scan grid: quadratic refinement near 0, geometric tail.

    The inner part covers [0, core_scale] with 33 points whose spacing
    shrinks quadratically toward the origin (where resolvent norms peak for
    our operators); the outer part continues geometrically to ``y_max`` in
    12 more.
    """
    u = np.linspace(0.0, 1.0, 33)
    inner = core_scale * u**2
    if y_max > core_scale:
        outer = np.geomspace(core_scale, y_max, 13)[1:]
        half = np.concatenate([inner, outer])
    else:
        half = inner
    return np.unique(np.concatenate([-half[::-1], half]))


@dataclass
class H2Report(Check):
    """Uniform resolvent bound along ``Re z = a``.

    ``bound`` is the grid maximum of ``norms``, each the resolvent norm at
    its y, or an upper bound on it where the line is Hermitian up to
    rounding (see :func:`_line_norm`). Being a maximum over samples, it can
    fall below the supremum on the line (66.354 against 67.706 on testbed
    seed 1's small space at n=16). ``certified_bound`` additionally covers
    the gaps between grid points (via the resolvent Lipschitz estimate)
    and the tail beyond the scan truncation (via a Neumann-series
    envelope from the shifted operator norm). Segments where the
    Lipschitz certificate could not close are listed in
    ``uncertified_segments``. The verdict passes only when the certificate
    closed: ``certified_bound`` finite and no segment left uncertified;
    otherwise it is indeterminate, and the witness gives the certified
    bound and the number of open segments. ``constants()`` prints every
    field but the arrays and the segments: ``bound`` and
    ``certified_bound`` as ``K`` and ``K_certified``, with the grid and
    open-segment counts ``n_grid`` and ``n_uncertified_segments``.
    """

    bound: float
    certified_bound: float
    y_grid: np.ndarray
    norms: np.ndarray
    argmax_y: float
    tail_bound: float
    tail_valid_from: float
    shifted_norm: float
    uncertified_segments: list = field(default_factory=list)
    unmet = INDETERMINATE

    @property
    def witness(self):
        if np.isfinite(self.certified_bound) and not self.uncertified_segments:
            return None
        return (f"certified bound {self.certified_bound:.6e}, "
                f"{len(self.uncertified_segments)} uncertified segments")

    def constants(self):
        return {"K": self.bound, "K_certified": self.certified_bound,
                "argmax_y": self.argmax_y, "tail_bound": self.tail_bound,
                "tail_valid_from": self.tail_valid_from,
                "shifted_norm": self.shifted_norm, "n_grid": len(self.y_grid),
                "n_uncertified_segments": len(self.uncertified_segments)}


# H2 line kernel for banded operators: sigma_min(S - iyI) from the Hermitian
# band of its Gram matrix instead of a dense SVD per y (Trefethen,
# "Computation of pseudospectra", Acta Numerica 8, 1999). The band costs
# O(n^2 b) per anchor (below), one O(n b^2) banded LU per y and O(n b) per
# inverse-iteration step against the SVD's O(n^3), so it is taken when
# BAND_RATIO * b < n. The shift of its inverse iteration is an anchor's
# smallest Gram eigenvalue, kept along the y walk while Weyl's inequality
# moves the Gram spectrum by at most SHIFT_REUSE times the anchor's gap
# between its two smallest eigenvalues (Parlett, "The Symmetric Eigenvalue
# Problem", 1998, ch. 4 and 10); a y beyond that takes a new anchor. The
# kernel calls LAPACK through handles resolved once per band: gbtrf factors
# each shifted band once and gbtrs solves every step with it (LAPACK Users'
# Guide, 2.4), geqrf + ungqr orthonormalize the iterate, and hbevx takes
# selected band eigenvalues with eig_banded's abstol, so each value is the
# one solve_banded, np.linalg.qr and eig_banded give.
BAND_RATIO = 4
SHIFT_REUSE = 0.25
RITZ_RTOL = 1e-13       # stop once sigma moves by at most this, relatively,
RITZ_MAX_STEPS = 8      # within this many inverse-iteration steps

# bisection levels per grid segment before it is left uncertified
MAX_REFINE_DEPTH = 12


def _hermitian_band(upper, u):
    """LAPACK general band layout (``ab[u + i - j, j] = H[i, j]``, ``u``
    sub- and superdiagonals) of the Hermitian matrix whose diagonals
    ``0, 1, ...`` are ``upper``; its first ``u + 1`` rows are the upper
    Hermitian layout of ``eig_banded``."""
    n = len(upper[0])
    band = np.zeros((2 * u + 1, n), dtype=complex)
    for k, diagonal in enumerate(upper):
        band[u - k, k:] = diagonal
        if k:
            band[u + k, :n - k] = np.conj(diagonal)
    return band


class _GramBand:
    """``sigma_min(S - iyI)`` for a banded ``S`` of bandwidth ``b``.

    ``G(y) = (S - iyI)^H (S - iyI) = S^H S + y K + y^2 I`` with
    ``K = i(S - S^H)`` is a Hermitian band of width ``2b``; ``S^H S``, ``K``
    and ``||K||_1`` (the largest absolute column sum, at least ``||K||_2``)
    are stored once. The smallest eigenvalue of ``G`` squares the condition
    number of ``S - iyI``, so it only shifts a block inverse iteration on
    ``G(y)``: ``gbtrf`` factors ``G(y) - l1 I`` once per y and each step is
    one ``gbtrs`` solve and a ``geqrf`` + ``ungqr`` orthonormalization of
    the ``n x min(n, 2)`` iterate. sigma is the Rayleigh-Ritz value
    ``sigma_min((S - iyI) Q)`` on the iterate's span, computed from ``S``
    itself. The shift is the smallest eigenvalue ``l1`` of the anchor
    ``G(y_a)``, taken with the second one ``l2`` by one ``hbevx``. Since
    ``G(y) - G(y_a) = (y - y_a) K + (y^2 - y_a^2) I``, every eigenvalue
    moves by at most ``d = |y^2 - y_a^2| + |y - y_a| ||K||_1``; while
    ``d <= SHIFT_REUSE (l2 - l1)`` the shift stays nearer the wanted
    eigenvalue than the rest, and otherwise y becomes the new anchor.

    ``anchors``, ``factorizations`` and ``fallbacks`` count the anchor
    eigensolves, the banded LU factorizations and the values left to the
    caller's SVD.
    """

    def __init__(self, scaled, b):
        n = scaled.shape[0]
        self.matrix = sp.csr_matrix(scaled)
        gram = self.matrix.conj().T @ self.matrix
        self.gram = _hermitian_band([gram.diagonal(k) for k in range(2 * b + 1)], 2 * b)
        self.skew = _hermitian_band(
            [1j * (np.diagonal(scaled, k) - np.conj(np.diagonal(scaled, -k)))
             for k in range(b + 1)], 2 * b)
        self.skew_norm = float(np.max(np.sum(np.abs(self.skew), axis=0)))
        self.anchor = None      # (y_a, l1, l2)
        rng = np.random.default_rng(0)
        start = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        self.start = start[:, :min(n, 2)]    # ungqr takes no block wider than tall
        self._gbtrf, self._gbtrs, self._geqrf, self._ungqr, self._hbevx = \
            sla.get_lapack_funcs(("gbtrf", "gbtrs", "geqrf", "ungqr", "hbevx"),
                                 (self.gram,))
        self._abstol = 2.0 * sla.get_lapack_funcs("lamch", dtype=float)("s")
        self.anchors = self.factorizations = self.fallbacks = 0

    def _eigvals(self, band, first, last):
        """Eigenvalues ``first..last`` (0-based, ascending) of the Hermitian
        band, as ``eig_banded(..., select="i")`` returns them."""
        u = (band.shape[0] - 1) // 2
        w, _, found, _, info = self._hbevx(band[:u + 1], 0.0, 1.0, first + 1, last + 1,
                                           compute_v=0, mmax=1, range=2, lower=0,
                                           abstol=self._abstol)
        if info:
            raise np.linalg.LinAlgError(f"hbevx returned info = {info}")
        return w[:found]

    def _shift(self, y, band):
        """The anchor's ``l1`` while Weyl keeps it, else a new anchor at y."""
        if self.anchor is not None:
            y_a, low, second = self.anchor
            drift = abs(y * y - y_a * y_a) + abs(y - y_a) * self.skew_norm
            if drift <= SHIFT_REUSE * (second - low):
                return low
        lowest = self._eigvals(band, 0, min(1, band.shape[1] - 1))
        low, second = np.append(lowest, np.inf)[:2]     # a 1 x 1 G has no l2
        self.anchor = (y, low, second)
        self.anchors += 1
        return low

    def norm(self):
        """``||S||_2``, the square root of the top eigenvalue of ``S^H S``."""
        n = self.gram.shape[1]
        top = self._eigvals(self.gram, n - 1, n - 1)[0]
        return math.sqrt(max(top, 0.0))

    def sigma_min(self, y):
        """The smallest singular value, or None where the iteration does not
        settle or the shifted band is singular (the caller then takes the
        dense SVD)."""
        u = (self.gram.shape[0] - 1) // 2
        band = self.gram + y * self.skew
        band[u] += y * y
        band[u] -= self._shift(y, band)
        # gbtrf's layout: u rows above the band for the fill-in of pivoting
        lu = np.zeros((3 * u + 1, band.shape[1]), dtype=complex, order="F")
        lu[u:] = band
        lu, pivots, info = self._gbtrf(lu, u, u, overwrite_ab=1)
        self.factorizations += 1
        basis, previous = self.start, None
        if info == 0:
            for _ in range(RITZ_MAX_STEPS):
                solved, _ = self._gbtrs(lu, u, u, basis, pivots)
                packed, tau, _, _ = self._geqrf(solved, overwrite_a=1)
                basis, _, _ = self._ungqr(packed, tau, overwrite_a=1)
                image = self.matrix @ basis - 1j * y * basis
                try:
                    sigma = np.linalg.svd(image, compute_uv=False)[-1]
                except np.linalg.LinAlgError:   # a non-finite iterate
                    break
                if previous is not None and abs(sigma - previous) <= RITZ_RTOL * sigma:
                    return float(sigma)
                previous = sigma
        self.fallbacks += 1
        return None


class _ShiftedLine:
    """``S = W^{1/2} (T - aI) W^{-1/2}``, prepared once for every y.

    ``mirrored``: S is real, so ``R(a - iy)`` is the entrywise conjugate of
    ``R(a + iy)`` and one norm serves both. Each kind of line has one path.
    A *Hermitian* line (:func:`~semidecay.certify.hermitian_defect`) has
    ``nearest``, ``min |lambda_k|`` over the spectrum of ``H = (S + S^H) / 2``
    from ``eig_banded`` at the line's bandwidth, and ``defect``, the margin
    ``delta`` of the bound in :func:`_line_norm`. Any other line is *banded*
    (``BAND_RATIO * b < n``), with the Gram-band kernel ``band``, or *dense*,
    taking stacked SVDs. ``norm``: an upper bound on ``||S||_2``, widened by
    :func:`~semidecay.certify.rounding_margin`: ``max |lambda_k| + delta``
    on a Hermitian line (Weyl), :meth:`_GramBand.norm` on a banded one and
    :func:`~semidecay.certify.spectral_norms` on a dense one.
    """

    def __init__(self, scaled):
        n = scaled.shape[0]
        self.scaled = scaled
        self.mirrored = not np.any(scaled.imag)
        rows, cols = np.nonzero(scaled)
        b = int(np.max(np.abs(rows - cols), initial=0))
        self.nearest = self.defect = self.band = None
        skew = hermitian_defect(scaled)
        if skew is not None:
            upper = [0.5 * (np.diagonal(scaled, k) + np.conj(np.diagonal(scaled, -k)))
                     for k in range(b + 1)]
            hermitian = _hermitian_band(upper, b)[:b + 1]
            spectrum = sla.eig_banded(hermitian.real if self.mirrored else hermitian,
                                      eigvals_only=True, check_finite=False)
            self.nearest = float(np.min(np.abs(spectrum)))
            self.defect = skew + eigenvalue_margin(spectrum)
            # ||S||_2 <= ||H||_2 + ||S - H||_2
            norm = float(np.max(np.abs(spectrum))) + self.defect
        elif BAND_RATIO * b < n:
            self.band = _GramBand(scaled, b)
            norm = self.band.norm()
        else:
            norm = float(spectral_norms(scaled[None])[0])
        self.norm = norm * (1.0 + rounding_margin(scaled))


def _line_norm(line: _ShiftedLine, y):
    """``||(S - iyI)^{-1}||`` on a Hermitian or banded line: ``1 / sigma``
    with sigma the lower bound ``min_k |lambda_k - iy| - delta`` on
    ``sigma_min`` where it is positive, or the band kernel's ``sigma_min``
    where it settles; else the value of :func:`_dense_line_norms`."""
    if line.nearest is not None:
        gap = math.hypot(line.nearest, y) - line.defect
        sigma = gap if gap > 0.0 else None
    else:
        sigma = line.band.sigma_min(y)
    return _dense_line_norms(line.scaled, [y])[0] if sigma is None else 1.0 / sigma


def _dense_line_norms(scaled, ys):
    """``||(S - iyI)^{-1}||`` at every y, by stacked SVDs over the
    :func:`~semidecay.spectral.blocks` of ``ys``; a y gets the same value
    bits alone as in any stack."""
    n, norms = len(scaled), np.empty(len(ys))
    for block in blocks(len(ys), n):
        stack = np.repeat(scaled[None], block.stop - block.start, axis=0)
        stack[:, range(n), range(n)] -= 1j * np.array(ys[block])[:, None]
        norms[block] = 1.0 / np.linalg.svd(stack, compute_uv=False)[:, -1]
    return norms


def check_h2(op, a: float, space: WeightedSpace, eigvals,
             tol: Tolerances = DEFAULT_TOLERANCES) -> H2Report:
    """Scan ``||(T - a - iy)^{-1}||`` in the norm of ``space`` over a
    symmetric y grid: :func:`make_y_grid` with the eigenvalue heights
    added. ``eigvals``, the spectrum of ``op`` (H1's, for a testbed
    operator), places those heights and decides whether the line touches
    the spectrum.

    The weighted norm is obtained by scanning the diagonally congruent
    matrix in the plain spectral norm. Between grid points the bound is
    closed with ``||R(y + d)|| <= v / (1 - d v)`` and adaptive bisection,
    which evaluates the midpoints of every open segment one depth at a time;
    beyond the truncation the Neumann tail ``1 / (|y| - s)`` takes over,
    with s >= ``||T - aI||`` the line's upper bound ``_ShiftedLine.norm``.
    Each y is evaluated once, by :func:`_line_norm` on a Hermitian or banded
    line and by :func:`_dense_line_norms` on a dense one; for a real
    congruent matrix once per ``|y|``, since the norms at ``±y`` agree.
    When the congruent matrix is Hermitian up to rounding, each grid value
    is the upper bound ``1 / (dist(iy, spectrum) - delta)`` of
    :func:`_line_norm` rather than the norm itself.

    Raises
    ------
    SingularityError
        If an eigenvalue lies on the scan line (within the boundary margin).
    """
    matrix = np.asarray(op, dtype=complex)
    n = matrix.shape[0]
    scale = max(1.0, float(np.max(np.abs(eigvals))) if len(eigvals) else 1.0)
    gap_to_line = float(np.min(np.abs(eigvals.real - a))) if len(eigvals) else np.inf
    if gap_to_line <= tol.boundary_margin * scale:
        witness = eigvals[np.argmin(np.abs(eigvals.real - a))]
        raise SingularityError(
            f"eigenvalue {witness} lies on the scan line Re z = {a}",
            distance=gap_to_line, witness=witness)

    scaled = weighted_congruence(matrix, space, space) - a * np.eye(n)
    line = _ShiftedLine(scaled)
    shifted_norm = line.norm
    core = 10.0 * max(abs(a), 1.0, float(np.max(np.abs(eigvals.imag))) if len(eigvals) else 0.0)
    y_max = max(2.0 * shifted_norm + 1.0, core)
    # norm peaks of near-normal operators sit at the eigenvalue heights
    peaks = eigvals.imag
    y_grid = np.unique(np.concatenate([make_y_grid(core, y_max), peaks, -peaks]))
    values = {}

    def line_norms(ys):
        keys = [abs(y) if line.mirrored else y for y in ys]
        new = [key for key in dict.fromkeys(keys) if key not in values]
        if line.nearest is None and line.band is None:     # a dense line
            values.update(zip(new, _dense_line_norms(line.scaled, new)))
        else:
            values.update((key, _line_norm(line, key)) for key in new)
        return np.array([values[key] for key in keys])

    norms = line_norms(y_grid)
    i_max = int(np.argmax(norms))
    bound = float(norms[i_max])

    # close the gaps between grid points: ||R|| is 1-Lipschitz in log via
    # ||R(y+d)|| <= v/(1-dv); bisect until each segment certifies, a depth at a time
    certified = bound
    uncertified = []
    pending = [(y_grid[i], y_grid[i + 1], norms[i], norms[i + 1], 0)
               for i in range(len(y_grid) - 1)]
    while pending:
        split = []
        for y0, y1, v0, v1, depth in pending:
            half = 0.5 * (y1 - y0)
            v = max(v0, v1)
            if half * v < 0.5:
                certified = max(certified, v / (1.0 - half * v))
            elif depth >= MAX_REFINE_DEPTH:
                uncertified.append((y0, y1))
            else:
                split.append((y0, 0.5 * (y0 + y1), y1, v0, v1, depth + 1))
        pending = []
        for (y0, ym, y1, v0, v1, depth), vm in zip(split, line_norms([s[1] for s in split])):
            certified = max(certified, vm)
            pending += [(y0, ym, v0, vm, depth), (ym, y1, vm, v1, depth)]

    y_max_used = float(np.max(np.abs(y_grid)))
    if y_max_used > shifted_norm:
        tail = 1.0 / (y_max_used - shifted_norm)
    else:
        tail = np.inf
        uncertified.append((y_max_used, np.inf))
    certified = max(certified, tail)
    return H2Report(bound=bound, certified_bound=float(certified),
                    y_grid=y_grid, norms=norms, argmax_y=float(y_grid[i_max]),
                    tail_bound=float(tail), tail_valid_from=y_max_used,
                    shifted_norm=shifted_norm, uncertified_segments=uncertified)


# ----------------------------------------------------------------------
# H3: coarse growth bound on the semigroup


@dataclass
class H3Report(Check):
    """Certified growth envelope ``||e^{tT}|| <= C_b e^{b t}``.

    The verdict passes when the fitted prefactor and rate are both finite,
    so that the envelope is a bound; otherwise it is indeterminate and the
    witness names the constant that is not. ``constants()`` prints the
    fit: ``C_b``, ``b``, its ``residual`` and its time ``window``.
    """

    fit: DecayFit
    t_grid: np.ndarray
    unmet = INDETERMINATE

    @property
    def witness(self):
        """Which fitted constant is not finite, or None."""
        bad = [f"{name} = {value}" for name, value in
               (("C_b", self.fit.prefactor), ("b", self.fit.rate))
               if not np.isfinite(value)]
        return f"fitted constants not finite: {', '.join(bad)}" if bad else None

    def constants(self):
        return {"C_b": self.fit.prefactor, "b": self.fit.rate,
                "residual": self.fit.residual, "window": self.fit.window}


def check_h3(op, space: WeightedSpace, eigvals,
             tol: Tolerances = DEFAULT_TOLERANCES) -> H3Report:
    """Certified envelope ``||e^{tT}|| <= C_b e^{b t}`` on a sampled horizon
    scaled by the spread of the real parts of ``eigvals``, the spectrum,
    floored at 1e-2 max(1, max |Re lambda|): e^{t Re lambda} stays below e^500."""
    matrix = np.asarray(op)
    spread = float(np.max(eigvals.real) - np.min(eigvals.real)) if len(eigvals) else 1.0
    scale = float(np.max(np.abs(eigvals.real), initial=1.0))
    t_grid = default_time_grid(rate_scale=max(spread, 1e-2 * scale), n=64)
    fit = fit_exponential_decay(t_grid, semigroup_norms(matrix, t_grid, space), tol=tol)
    return H3Report(fit=fit, t_grid=t_grid)


# ----------------------------------------------------------------------
# H4: decomposition bounds on the sampled admissible region


# the two H4 samples, (line points, points per circle, sweep shape)
FULL_SAMPLE = (21, 16, (16, 16))
THIN_SAMPLE = (9, 8, (6, 6))


def sample_xi_region(a: float, r: float, xi_list, thin: bool = False) -> np.ndarray:
    """Sample the region {Re z > a} minus the excluded balls.

    Three families: the vertical line ``Re = a + 1e-6``, circles of
    radius ``1.05 r`` around each excluded center, and a rectangular sweep
    extending ``10 * max(|a|, |xi_j - a|, 1)`` to the right of the line.
    Their sizes are :data:`FULL_SAMPLE`, or :data:`THIN_SAMPLE` when
    ``thin``. Points inside any excluded ball (or left of the line) are
    dropped.
    """
    n_line, n_circle, grid_shape = THIN_SAMPLE if thin else FULL_SAMPLE
    xi_list = [complex(x) for x in xi_list]
    gap_scale = max(abs(a), *(abs(x - a) for x in xi_list), 1.0)
    im_extent = max(abs(a), max((abs(x.imag) for x in xi_list), default=0.0) + 2 * r, 1.0)
    samples = []
    line_im = np.linspace(-2.0 * im_extent, 2.0 * im_extent, n_line)
    samples.append((a + 1e-6) + 1j * line_im)
    for center in xi_list:
        theta = 2.0 * np.pi * np.arange(n_circle) / n_circle
        samples.append(center + 1.05 * r * np.exp(1j * theta))
    re = np.linspace(a + 1e-6, a + 10.0 * gap_scale, grid_shape[0])
    im = np.linspace(-2.0 * im_extent, 2.0 * im_extent, grid_shape[1])
    re_mesh, im_mesh = np.meshgrid(re, im, indexing="ij")
    samples.append((re_mesh + 1j * im_mesh).ravel())
    points = np.concatenate(samples)
    keep = points.real > a
    for center in xi_list:
        keep &= np.abs(points - center) > r * (1.0 + 1e-12)
    return points[keep]


@dataclass
class H4Report(Check):
    """The suprema of the decomposition bounds over the sample.

    The per-sample norms are the columns ``b_inverse`` (``||B(xi)^{-1}||_amb``),
    ``a_b_inverse`` and ``b_inverse_a`` (``||A B(xi)^{-1}||`` and
    ``||B(xi)^{-1} A||``, ambient into small) of ``sweep``, the
    :class:`~semidecay.factorization.ShiftSweep` the factorization check
    and the bound chain reuse. An entry is the exact norm wherever it may
    reach its column's supremum (or the bound chain needs it); elsewhere it
    is a certified upper bound below that supremum. So the three suprema
    and the witness sample are those of the exact norms, largest singular
    values from :func:`~semidecay.certify.spectral_norms` (smallest singular
    values, as in H2, stay on the SVD). The suprema are maxima over the
    sampled xi, not over the region, so the verdict certifies the ceiling
    at the samples only. The sweep is not serialized.
    """

    witness: str | None
    sup_b_inverse: float
    sup_a_b_inverse: float
    sup_b_inverse_a: float
    ceiling: float
    sweep: ShiftSweep = field(repr=False, compare=False)

    def constants(self):
        return {"verdict": self.verdict, "witness": self.witness,
                "sup_b_inverse": self.sup_b_inverse,
                "sup_a_b_inverse": self.sup_a_b_inverse,
                "sup_b_inverse_a": self.sup_b_inverse_a,
                "n_samples": int(len(self.sweep.samples)), "ceiling": self.ceiling}


def check_h4(split, pair: EmbeddedSpacePair, samples,
             tol: Tolerances = DEFAULT_TOLERANCES) -> H4Report:
    """Certify invertibility and mixed bounds of the splitting off the balls.

    ``samples`` come from :func:`sample_xi_region`. For each sampled xi
    computes ``||B(xi)^{-1}||`` on the ambient space
    and the two mixed norms of ``A B(xi)^{-1}`` and ``B(xi)^{-1} A`` as
    maps from the ambient into the small space. Passes iff all three stay
    finite and below the configured ceiling over the whole sample. The
    norms come from one :func:`~semidecay.factorization.shift_sweep`, kept
    on the report for the factorization check and the bound chain; fails
    with a witness at the first sample where B - xi is singular.
    """
    sweep = shift_sweep(split, pair, samples, tol)
    samples = sweep.samples
    if sweep.b_failure is not None:
        i, exc = sweep.b_failure
        return H4Report(f"B - xi numerically singular at xi={samples[i]} "
                        f"(distance {exc.distance:.3e})",
                        np.inf, np.inf, np.inf, tol.h4_ceiling, sweep)
    columns = np.stack([sweep.b_inverse, sweep.a_b_inverse, sweep.b_inverse_a])
    sup_b, sup_ab, sup_ba = (float(np.max(col, initial=0.0)) for col in columns)
    worst = max(sup_b, sup_ab, sup_ba)
    if not np.isfinite(worst) or worst > tol.h4_ceiling:
        i_bad = int(np.argmax(np.max(columns, axis=0)))
        return H4Report(f"bound {worst:.3e} exceeds ceiling {tol.h4_ceiling:.1e} "
                        f"at xi={samples[i_bad]}",
                        sup_b, sup_ab, sup_ba, tol.h4_ceiling, sweep)
    return H4Report(None, sup_b, sup_ab, sup_ba, tol.h4_ceiling, sweep)
