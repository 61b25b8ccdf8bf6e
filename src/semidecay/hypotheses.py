"""Checkers for the four structural hypotheses behind decay transfer.

H1 localizes the spectrum (everything left of a vertical line except k
isolated eigenvalue groups), H2 bounds the resolvent uniformly on that
line, H3 bounds the semigroup growth, and H4 certifies the splitting
T = A + B on the enlarged space. Verdicts are three-valued: eigenvalues
within the boundary margin of a decision line yield ``indeterminate``
rather than a coerced pass or fail. Each report exposes ``verdict``,
``witness`` and ``constants()``, the entry a run report records for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import SingularityError
from .factorization import ShiftSweep, shift_sweep
from .reports import FAIL, INDETERMINATE, PASS
from .semigroup import DecayFit, default_time_grid, fit_exponential_decay, semigroup_norms
from .spaces import EmbeddedSpacePair, WeightedSpace, weighted_congruence
from .spectral import eigen_decompose, spectral_projector


# ----------------------------------------------------------------------
# H1: localization of the spectrum


@dataclass
class H1Report:
    """The split of the spectrum at ``Re z = a``.

    ``eigenvalues`` and ``max_residual`` (the largest eigenpair residual
    relative to ``||T||``) come from
    :func:`~semidecay.spectral.eigen_decompose`. On a pass,
    ``discrete_eigs`` are the centers of the eigenvalue groups right of the
    line, each inside a ball of radius ``r``, and ``projectors`` their
    spectral projectors when they were computed; otherwise both are empty.
    """

    verdict: str
    witness: str | None
    eigenvalues: np.ndarray
    max_residual: float
    a: float
    r: float
    discrete_eigs: list = field(default_factory=list)
    projectors: list = field(default_factory=list)

    def constants(self):
        return {"k": len(self.discrete_eigs), "discrete_eigs": self.discrete_eigs,
                "a": self.a, "r": self.r}

    def to_dict(self):
        spectral = {
            "eigenvalues": [[z.real, z.imag] for z in np.atleast_1d(self.eigenvalues)],
            "half_plane_abscissa": self.a, "isolation_radius": self.r,
            "discrete_eigs": [[z.real, z.imag] for z in self.discrete_eigs],
            "max_residual": self.max_residual}
        return {"verdict": self.verdict, "witness": self.witness, "spectral": spectral}


def _cluster(points, radius):
    """Connected components under single linkage at distance ``radius``,
    ordered by their first point, each in increasing index order."""
    from scipy.sparse.csgraph import connected_components
    points = np.asarray(points)
    linked = np.abs(points[:, None] - points[None, :]) <= radius
    count, labels = connected_components(linked, directed=False)
    return [np.flatnonzero(labels == k) for k in range(count)]


def check_h1(op, a: float, r: float, expected_k: int | None = None,
             tol: Tolerances = DEFAULT_TOLERANCES,
             compute_projectors: bool = True) -> H1Report:
    """Verify that the spectrum splits into {Re <= a} plus isolated balls.

    Passes iff every eigenvalue either has real part <= a or lies in one
    of k pairwise disjoint balls B(xi_j, r) strictly inside the half plane
    {Re z > a}. Eigenvalues within the boundary margin of the line give an
    indeterminate verdict.
    """
    matrix = np.asarray(op)
    eigvals, max_residual = eigen_decompose(matrix, tol)

    def report(verdict, witness=None, **split):
        return H1Report(verdict, witness, eigvals, max_residual, a, r, **split)

    scale = max(1.0, float(np.max(np.abs(eigvals))) if len(eigvals) else 1.0)
    margin = tol.boundary_margin * scale

    on_boundary = np.abs(eigvals.real - a) <= margin
    if np.any(on_boundary):
        witness = eigvals[on_boundary][0]
        return report(INDETERMINATE,
                      f"eigenvalue {witness} within {margin:.1e} of the line Re z = {a}")

    inside = eigvals[eigvals.real > a]
    if len(inside) == 0:
        if expected_k not in (None, 0):
            return report(FAIL, f"expected {expected_k} eigenvalue groups, found 0")
        return report(PASS)

    clusters = _cluster(inside, r)
    centers = []
    for idx in clusters:
        center = complex(np.mean(inside[idx]))
        radius_used = float(np.max(np.abs(inside[idx] - center)))
        if radius_used > r:
            return report(
                FAIL, f"eigenvalue group around {center} has spread {radius_used:.3e} > r={r}")
        centers.append(center)
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) <= 2 * r:
                return report(
                    FAIL, f"balls around {centers[i]} and {centers[j]} are not disjoint")
    for center in centers:
        clearance = center.real - r - a
        if clearance <= 0.0:
            return report(FAIL, f"ball around {center} is not strictly inside Re z > {a}")
        if clearance <= margin:
            return report(
                INDETERMINATE,
                f"ball around {center} clears the line Re z = {a} by only {clearance:.1e}")
    if expected_k is not None and len(centers) != expected_k:
        return report(FAIL, f"expected {expected_k} eigenvalue groups, found {len(centers)}")
    centers.sort(key=lambda z: (-z.real, z.imag))
    projectors = ([spectral_projector(matrix, c, r, tol=tol) for c in centers]
                  if compute_projectors else [])
    return report(PASS, discrete_eigs=centers, projectors=projectors)


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
class H2Report:
    """Uniform resolvent bound along ``Re z = a``.

    ``bound`` is the grid maximum of ``norms``, each the resolvent norm at
    its y, or an upper bound on it where the line is Hermitian up to
    rounding (see :func:`_line_norm`); ``certified_bound`` additionally covers
    the gaps between grid points (via the resolvent Lipschitz estimate)
    and the tail beyond the scan truncation (via a Neumann-series
    envelope from the shifted operator norm). Segments where the
    Lipschitz certificate could not close are listed in
    ``uncertified_segments``. The verdict passes only when the certificate
    closed: ``certified_bound`` finite and no segment left uncertified;
    otherwise it is indeterminate, and the witness gives the certified
    bound and the number of open segments. ``spectrum`` holds the
    eigenvalues of the scanned operator for another scan of it (not
    serialized).
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
    spectrum: np.ndarray | None = field(default=None, repr=False)

    @property
    def verdict(self):
        closed = np.isfinite(self.certified_bound) and not self.uncertified_segments
        return PASS if closed else INDETERMINATE

    @property
    def witness(self):
        if self.verdict == PASS:
            return None
        return (f"certified bound {self.certified_bound:.6e}, "
                f"{len(self.uncertified_segments)} uncertified segments")

    def constants(self):
        return {"K": self.bound, "K_certified": self.certified_bound}

    def to_dict(self):
        return {"bound": self.bound, "certified_bound": self.certified_bound,
                "argmax_y": self.argmax_y, "tail_bound": self.tail_bound,
                "tail_valid_from": self.tail_valid_from,
                "shifted_norm": self.shifted_norm,
                "n_grid": int(len(self.y_grid)),
                "n_uncertified_segments": len(self.uncertified_segments)}


# H2 line kernel for banded operators: sigma_min(S - iyI) from the Hermitian
# band of its Gram matrix instead of a dense SVD per y (Trefethen,
# "Computation of pseudospectra", Acta Numerica 8, 1999). The band costs
# O(n^2 b) per point against the SVD's O(n^3), so it is taken when
# BAND_RATIO * b < n.
BAND_RATIO = 4
RITZ_RTOL = 1e-13       # stop once sigma moves by at most this, relatively,
RITZ_MAX_STEPS = 8      # within this many inverse-iteration steps

# H2 line kernel for Hermitian lines: an S with ||S - S^H||_F / 2 at most
# HERMITIAN_ROUNDING * n * eps * ||S||_F is normal up to rounding, so its
# resolvent norm is the reciprocal distance to the spectrum (Trefethen &
# Embree, "Spectra and Pseudospectra", 2005, ch. 2); that spectrum is
# computed once per line.
HERMITIAN_ROUNDING = 1.0

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

    ``G(y) = (S - iyI)^H (S - iyI) = S^H S + y i(S - S^H) + y^2 I`` is a
    Hermitian band of width ``2b``; ``S^H S`` and ``i(S - S^H)`` are stored
    once. Its smallest eigenvalue (``eig_banded``) squares the condition
    number of ``S - iyI``, so it only shifts a block inverse iteration on
    ``G(y)``; sigma is the Rayleigh-Ritz value ``sigma_min((S - iyI) Q)``
    on the iterate's span, computed from ``S`` itself.
    """

    def __init__(self, scaled, b):
        n = scaled.shape[0]
        self.matrix = sp.csr_matrix(scaled)
        gram = self.matrix.conj().T @ self.matrix
        self.gram = _hermitian_band([gram.diagonal(k) for k in range(2 * b + 1)], 2 * b)
        self.skew = _hermitian_band(
            [1j * (np.diagonal(scaled, k) - np.conj(np.diagonal(scaled, -k)))
             for k in range(b + 1)], 2 * b)
        rng = np.random.default_rng(0)
        self.start = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))

    def sigma_min(self, y):
        """The smallest singular value, or None where the iteration does not
        settle or a solve is singular (the caller then takes the dense SVD)."""
        u = (self.gram.shape[0] - 1) // 2
        band = self.gram + y * self.skew
        band[u] += y * y
        lowest = sla.eig_banded(band[:u + 1], eigvals_only=True, select="i",
                                select_range=(0, 0), check_finite=False)[0]
        band[u] -= lowest
        basis, previous = self.start, None
        for _ in range(RITZ_MAX_STEPS):
            try:
                basis = np.linalg.qr(sla.solve_banded((u, u), band, basis,
                                                      check_finite=False))[0]
                image = self.matrix @ basis - 1j * y * basis
                sigma = np.linalg.svd(image, compute_uv=False)[-1]
            except np.linalg.LinAlgError:   # a singular solve or a non-finite iterate
                return None
            if previous is not None and abs(sigma - previous) <= RITZ_RTOL * sigma:
                return float(sigma)
            previous = sigma
        return None


class _ShiftedLine:
    """``S = W^{1/2} (T - aI) W^{-1/2}``, prepared once for every y.

    ``mirrored``: S is real, so ``R(a - iy)`` is the entrywise conjugate of
    ``R(a + iy)`` and one norm serves both. ``band``: the banded kernel,
    None for a dense S. ``nearest`` and ``defect``: for an S that is
    Hermitian up to rounding, ``min |lambda_k|`` over the computed spectrum
    of ``H = (S + S^H) / 2`` and the margin ``delta`` of the bound in
    :func:`_line_norm`; None otherwise.
    """

    def __init__(self, scaled):
        n = scaled.shape[0]
        self.scaled = scaled
        self.mirrored = not np.any(scaled.imag)
        rows, cols = np.nonzero(scaled)
        b = int(np.max(np.abs(rows - cols), initial=0))
        banded = BAND_RATIO * b < n
        self.band = _GramBand(scaled, b) if banded else None
        self.nearest = self.defect = None
        skew = 0.5 * float(np.linalg.norm(scaled - scaled.conj().T))
        eps = np.finfo(float).eps
        if skew > HERMITIAN_ROUNDING * n * eps * float(np.linalg.norm(scaled)):
            return
        if banded:
            upper = [0.5 * (np.diagonal(scaled, k) + np.conj(np.diagonal(scaled, -k)))
                     for k in range(b + 1)]
            hermitian = _hermitian_band(upper, b)[:b + 1]
            spectrum = sla.eig_banded(hermitian.real if self.mirrored else hermitian,
                                      eigvals_only=True, check_finite=False)
        else:
            hermitian = 0.5 * (scaled + scaled.conj().T)
            spectrum = np.linalg.eigvalsh(hermitian.real if self.mirrored else hermitian)
        # Weyl: sigma_min(S - iyI) >= sigma_min(H - iyI) - ||S - H||_2, with
        # ||S - H||_2 <= ||S - S^H||_F / 2; each computed eigenvalue of H is
        # within n eps ||H||_2 of an exact one (LAPACK Users' Guide, 4.7)
        self.nearest = float(np.min(np.abs(spectrum)))
        self.defect = skew + n * eps * float(np.max(np.abs(spectrum)))


def _line_norm(line: _ShiftedLine, y):
    """``||(S - iyI)^{-1}||``: on a Hermitian line the bound
    ``1 / (min_k |lambda_k - iy| - delta)`` where it is finite; else the band
    kernel where it settles, else one SVD."""
    if line.nearest is not None:
        gap = math.hypot(line.nearest, y) - line.defect
        if gap > 0.0:
            return 1.0 / gap
    if line.band is not None:
        sigma = line.band.sigma_min(y)
        if sigma is not None:
            return 1.0 / sigma
    shifted = line.scaled.copy()
    shifted.flat[::shifted.shape[0] + 1] -= 1j * y
    return 1.0 / np.linalg.svd(shifted, compute_uv=False)[-1]


def check_h2(op, a: float, space: WeightedSpace, y_grid=None,
             tol: Tolerances = DEFAULT_TOLERANCES, eigvals=None) -> H2Report:
    """Scan ``||(T - a - iy)^{-1}||`` in the norm of ``space`` over a
    symmetric y grid: :func:`make_y_grid` with the eigenvalue heights
    added, unless ``y_grid`` is given.

    The weighted norm is obtained by scanning the diagonally congruent
    matrix in the plain spectral norm. Between grid points the bound is
    closed with ``||R(y + d)|| <= v / (1 - d v)`` and adaptive bisection;
    beyond the truncation the Neumann tail ``1 / (|y| - ||T - aI||)``
    takes over. Each y is evaluated once, by :func:`_line_norm`; for a real
    congruent matrix once per ``|y|``, since the norms at ``±y`` agree.
    When the congruent matrix is Hermitian up to rounding, each grid value
    is the upper bound ``1 / (dist(iy, spectrum) - delta)`` of
    :func:`_line_norm` rather than the norm itself.

    ``eigvals``, the ``spectrum`` of an earlier report on the same ``op``,
    lets scans of one operator in several spaces share one eigensolve; it
    is computed when omitted.

    Raises
    ------
    SingularityError
        If an eigenvalue lies on the scan line (within the boundary margin).
    """
    matrix = np.asarray(op, dtype=complex)
    n = matrix.shape[0]
    if eigvals is None:
        eigvals = np.linalg.eigvals(matrix)
    scale = max(1.0, float(np.max(np.abs(eigvals))) if len(eigvals) else 1.0)
    gap_to_line = float(np.min(np.abs(eigvals.real - a))) if len(eigvals) else np.inf
    if gap_to_line <= tol.boundary_margin * scale:
        witness = eigvals[np.argmin(np.abs(eigvals.real - a))]
        raise SingularityError(
            f"eigenvalue {witness} lies on the scan line Re z = {a}",
            distance=gap_to_line, witness=witness)

    scaled = weighted_congruence(matrix, space, space) - a * np.eye(n)
    shifted_norm = float(np.linalg.norm(scaled, 2))
    if y_grid is None:
        core = 10.0 * max(abs(a), 1.0, float(np.max(np.abs(eigvals.imag))) if len(eigvals) else 0.0)
        y_max = max(2.0 * shifted_norm + 1.0, core)
        y_grid = make_y_grid(core, y_max)
        # norm peaks of near-normal operators sit at the eigenvalue heights
        peaks = eigvals.imag
        y_grid = np.unique(np.concatenate([y_grid, peaks, -peaks]))
    y_grid = np.asarray(y_grid, dtype=float)
    line = _ShiftedLine(scaled)
    values = {}

    def line_norm(y):
        key = abs(y) if line.mirrored else y
        if key not in values:
            values[key] = _line_norm(line, key)
        return values[key]

    norms = np.array([line_norm(y) for y in y_grid])
    i_max = int(np.argmax(norms))
    bound = float(norms[i_max])

    # close the gaps between grid points: ||R|| is 1-Lipschitz in log via
    # ||R(y+d)|| <= v/(1-dv); bisect until each segment certifies
    certified = bound
    uncertified = []
    stack = [(y_grid[i], y_grid[i + 1], norms[i], norms[i + 1], 0)
             for i in range(len(y_grid) - 1)]
    while stack:
        y0, y1, v0, v1, depth = stack.pop()
        half = 0.5 * (y1 - y0)
        v = max(v0, v1)
        if half * v < 0.5:
            certified = max(certified, v / (1.0 - half * v))
            continue
        if depth >= MAX_REFINE_DEPTH:
            uncertified.append((y0, y1))
            continue
        ym = 0.5 * (y0 + y1)
        vm = line_norm(ym)
        certified = max(certified, vm)
        stack.append((y0, ym, v0, vm, depth + 1))
        stack.append((ym, y1, vm, v1, depth + 1))

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
                    shifted_norm=shifted_norm, uncertified_segments=uncertified,
                    spectrum=eigvals)


# ----------------------------------------------------------------------
# H3: coarse growth bound on the semigroup


@dataclass
class H3Report:
    """Certified growth envelope ``||e^{tT}|| <= C_b e^{b t}``.

    The verdict passes when the fitted prefactor and rate are both finite,
    so that the envelope is a bound; otherwise it is indeterminate and the
    witness names the constant that is not.
    """

    fit: DecayFit
    t_grid: np.ndarray
    norms: np.ndarray

    @property
    def verdict(self):
        return INDETERMINATE if self.witness else PASS

    @property
    def witness(self):
        """Which fitted constant is not finite, or None."""
        bad = [f"{name} = {value}" for name, value in
               (("C_b", self.fit.prefactor), ("b", self.fit.rate))
               if not np.isfinite(value)]
        return f"fitted constants not finite: {', '.join(bad)}" if bad else None

    def constants(self):
        return {"C_b": self.fit.prefactor, "b": self.fit.rate}

    def to_dict(self):
        return {"C_b": self.fit.prefactor, "b": self.fit.rate,
                "residual": self.fit.residual, "window": list(self.fit.window)}


def check_h3(op, space: WeightedSpace, tol: Tolerances = DEFAULT_TOLERANCES) -> H3Report:
    """Certified envelope ``||e^{tT}|| <= C_b e^{b t}`` on a sampled horizon
    scaled by the spread of the real parts of the spectrum."""
    matrix = np.asarray(op)
    eigvals = np.linalg.eigvals(matrix)
    spread = float(np.max(eigvals.real) - np.min(eigvals.real)) if len(eigvals) else 1.0
    t_grid = default_time_grid(rate_scale=max(spread, 1e-2), n=64)
    norms = semigroup_norms(matrix, t_grid, space)
    fit = fit_exponential_decay(t_grid, norms, tol=tol)
    return H3Report(fit=fit, t_grid=t_grid, norms=norms)


# ----------------------------------------------------------------------
# H4: decomposition bounds on the sampled admissible region


def sample_xi_region(a: float, r: float, xi_list, n_line: int = 21,
                     n_circle: int = 16, grid_shape=(16, 16)) -> np.ndarray:
    """Sample the region {Re z > a} minus the excluded balls.

    Three families: the vertical line ``Re = a + 1e-6``, circles of
    radius ``1.05 r`` around each excluded center, and a rectangular sweep
    extending ``10 * max(|a|, |xi_j - a|, 1)`` to the right of the line.
    Points inside any excluded ball (or left of the line) are dropped.
    """
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
class H4Report:
    """The suprema of the decomposition bounds over the sample.

    The per-sample norms are the columns ``b_inverse`` (``||B(xi)^{-1}||_amb``),
    ``a_b_inverse`` and ``b_inverse_a`` (``||A B(xi)^{-1}||`` and
    ``||B(xi)^{-1} A||``, ambient into small) of ``sweep``, the
    :class:`~semidecay.factorization.ShiftSweep` the factorization check
    and the bound chain reuse. An entry is the exact norm wherever it may
    reach its column's supremum (or the bound chain needs it); elsewhere it
    is a certified upper bound below that supremum. So the three suprema
    and the witness sample are those of the exact norms, largest singular
    values from :func:`~semidecay.spaces.spectral_norms` (smallest singular
    values, as in H2, stay on the SVD). The sweep is not serialized.
    """

    verdict: str
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
        return H4Report(FAIL, f"B - xi numerically singular at xi={samples[i]} "
                              f"(distance {exc.distance:.3e})",
                        np.inf, np.inf, np.inf, tol.h4_ceiling, sweep)
    columns = np.stack([sweep.b_inverse, sweep.a_b_inverse, sweep.b_inverse_a])
    sup_b, sup_ab, sup_ba = (float(np.max(col, initial=0.0)) for col in columns)
    worst = max(sup_b, sup_ab, sup_ba)
    if not np.isfinite(worst) or worst > tol.h4_ceiling:
        i_bad = int(np.argmax(np.max(columns, axis=0)))
        return H4Report(FAIL,
                        f"bound {worst:.3e} exceeds ceiling {tol.h4_ceiling:.1e} "
                        f"at xi={samples[i_bad]}",
                        sup_b, sup_ab, sup_ba, tol.h4_ceiling, sweep)
    return H4Report(PASS, None, sup_b, sup_ab, sup_ba, tol.h4_ceiling, sweep)
