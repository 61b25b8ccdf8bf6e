"""Structure-preserving discretization of the drift-diffusion generator.

The generator ``div(grad f + E f)`` with ``E = grad U + F`` splits into a
part that is symmetric in the strongly weighted space (divergence-form
flux differences with geometric-mean face values, zero-flux boundaries)
and a conservative centered discretization of ``div(F f)`` that is
anti-symmetric in the enlarged space up to O(h^2).

The symmetric stencil is built so that the equilibrium node vector is a
null vector up to rounding (the flux differences of ``f = mu`` telescope
to zero) and mass is conserved exactly (columns sum to zero). Both
properties hold in any dimension because assembly works face by face.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_TOLERANCES, FPProblem, Tolerances
from .errors import (AssemblyError, DomainTooSmallError,
                     InfeasibleParameterError, InsufficientSignalError,
                     MagnitudeGuardError)
from .hypotheses import H2Report, check_h2
from .reports import FAIL, INDETERMINATE, PASS
from .semigroup import (DecayFit, envelope_prefactor, fit_exponential_decay,
                        step_trajectory)
from .spaces import WeightedSpace
from .spectral import is_tridiagonal, sparse_lu

_DENSE_LIMIT = 4200
# symmetric eigenproblems up to this size take a dense eigh, not Lanczos:
# on a 2-D swirl search at N=16 with amplitude 100, shift-invert Lanczos
# from v0 = ones misses the top eigenvalue of 3 of 4 candidates
_DENSE_EIG_LIMIT = 1100
TRUNCATION_GUARD = 1e-12


# ----------------------------------------------------------------------
# continuous ingredients


@dataclass(frozen=True)
class Potential:
    """Radial confining potential ``U(x) = (1 + |x|^2)^(s/2)`` with s >= 1."""

    s: float

    def __post_init__(self):
        if not 1.0 <= self.s < np.inf:
            raise ValueError(f"potential exponent must be finite with s >= 1, got {self.s}")

    def value(self, *coords):
        r2 = sum(np.asarray(c) ** 2 for c in coords)
        return (1.0 + r2) ** (self.s / 2.0)

    def gradient(self, *coords):
        r2 = sum(np.asarray(c) ** 2 for c in coords)
        factor = self.s * (1.0 + r2) ** (self.s / 2.0 - 1.0)
        return tuple(factor * np.asarray(c) for c in coords)


@dataclass(frozen=True)
class UniformPotential:
    """Constant surrogate potential; the symmetric part degenerates to the
    zero-flux Laplacian. Used for closed-form eigenvalue oracles. Exempt
    from the truncation guard (there is no tail to resolve)."""

    level: float = 1.0
    requires_truncation_guard = False

    def value(self, *coords):
        return np.full_like(np.asarray(coords[0], dtype=float), self.level)

    def gradient(self, *coords):
        return tuple(np.zeros_like(np.asarray(c, dtype=float)) for c in coords)


@dataclass(frozen=True)
class EnlargedWeight:
    """Composition weight ``m^{-1}(x) = theta(U(x))`` defining the large space.

    ``polynomial`` uses ``theta(u) = (1 + u^2)^(k/2)`` and requires k > d;
    ``stretched-exponential`` uses ``theta(u) = exp((1 + u^2)^(k/2))`` and
    requires k in (0, 1). Both are increasing, so the embedding constant
    of the pair (large space, strongly weighted space) is computable on
    any truncated grid.
    """

    kind: str = "polynomial"
    k: float = 3.0

    def __post_init__(self):
        if self.kind not in ("polynomial", "stretched-exponential"):
            raise ValueError(f"unknown weight kind '{self.kind}'")
        if self.kind == "stretched-exponential" and not 0.0 < self.k < 1.0:
            raise ValueError(
                f"stretched-exponential weight requires k in (0,1), got {self.k}")
        if not 0.0 < self.k < np.inf:
            raise ValueError(f"weight order must be positive and finite, got k={self.k}")

    def validate_for_dimension(self, d: int):
        if self.kind == "polynomial" and not self.k > d:
            raise ValueError(f"polynomial weight requires k > d, got k={self.k}, d={d}")

    def theta(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "polynomial":
            return (1.0 + u**2) ** (self.k / 2.0)
        return np.exp((1.0 + u**2) ** (self.k / 2.0))


@dataclass(frozen=True)
class SwirlField:
    """Rotational force ``F = phi(U) * rot90(grad U)`` in dimension 2.

    The construction gives ``div F = 0`` and ``grad U . F = 0`` pointwise
    and ``|F| <= sup|phi| (1 + |grad U|)``; in dimension 1 the admissible
    field is identically zero.
    """

    profile: str = "inverse_linear"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.profile not in ("inverse_linear", "constant"):
            raise ValueError(f"unknown swirl profile '{self.profile}'")
        if not np.isfinite(self.amplitude):
            raise ValueError("swirl amplitude must be finite (bounded profile)")

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        if self.profile == "inverse_linear":
            return self.amplitude / (1.0 + u)
        return np.full_like(u, self.amplitude)

    def field(self, potential, x, y):
        u = potential.value(x, y)
        gx, gy = potential.gradient(x, y)
        amp = self.phi(u)
        return amp * (-gy), amp * gx


# ----------------------------------------------------------------------
# grid and assembly


@dataclass(frozen=True)
class FPGrid:
    """Cell-centered uniform grid on [-L, L]^d."""

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got d={self.d}")
        if not 0.0 < self.L < np.inf:
            raise ValueError(f"half-width must be positive and finite, got L={self.L}")
        if self.N < 4:
            raise ValueError(f"need at least 4 cells per axis, got N={self.N}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def n_total(self) -> int:
        return self.N ** self.d

    def axis(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    def meshes(self):
        ax = self.axis()
        if self.d == 1:
            return (ax,)
        return np.meshgrid(ax, ax, indexing="ij")

    def flat_coordinate(self) -> np.ndarray:
        """Radial coordinate per flattened node (used for cutoff supports)."""
        meshes = self.meshes()
        r2 = sum(m**2 for m in meshes)
        return np.sqrt(r2).ravel()


def check_truncation(grid: FPGrid, potential):
    """Require the equilibrium to have decayed at the boundary."""
    if not getattr(potential, "requires_truncation_guard", True):
        return
    boundary = [np.array(grid.L)] + [np.array(0.0)] * (grid.d - 1)
    origin = [np.array(0.0)] * grid.d
    u_boundary = float(np.asarray(potential.value(*boundary)))
    u_center = float(np.asarray(potential.value(*origin)))
    ratio = np.exp(u_center - u_boundary)
    if ratio > TRUNCATION_GUARD:
        raise DomainTooSmallError(
            f"equilibrium boundary/center ratio {ratio:.2e} exceeds the "
            f"truncation guard {TRUNCATION_GUARD:.1e}; enlarge L")


def _equilibrium_nodes(grid: FPGrid, potential) -> np.ndarray:
    """Equilibrium node values, exponentiated once around the potential
    midrange so neighbor products stay representable. All consumers must
    use this one vector (up to scalar normalization): its ratios are what
    the assembled stencil telescopes against exactly."""
    meshes = grid.meshes()
    u_vals = np.asarray(potential.value(*meshes), dtype=float)
    span = float(u_vals.max() - u_vals.min())
    if span > 600.0:
        raise DomainTooSmallError(
            f"potential range {span:.0f} exceeds the representable window; "
            f"shrink L or s")
    return np.exp(-(u_vals - 0.5 * (u_vals.max() + u_vals.min())))


def _csr_from_entries(entries, n) -> sp.csr_matrix:
    """The n x n CSR matrix summing the ``(rows, cols, values)`` blocks of
    ``entries``, duplicates added."""
    rows, cols, vals = (np.concatenate([np.ravel(entry[k]) for entry in entries])
                        for k in range(3))
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return matrix


def assemble_symmetric_part(grid: FPGrid, potential) -> sp.csr_matrix:
    """Divergence-form stencil for ``div(grad f + grad U f)``.

    Face fluxes use the geometric mean of the neighboring equilibrium
    values; with ``g = f / mu`` the flux at a face is
    ``mu_face (g_right - g_left) / h`` and boundary fluxes are zero. The
    equilibrium kills every face difference, and summation by parts gives
    exact symmetry in the ``mu^{-1}`` inner product.
    """
    mu = _equilibrium_nodes(grid, potential)
    h = grid.h
    n = grid.n_total
    shape = mu.shape if grid.d == 2 else (grid.N,)
    idx = np.arange(n).reshape(shape)
    entries = []
    for axis in range(grid.d):
        sl_lo = [slice(None)] * grid.d
        sl_hi = [slice(None)] * grid.d
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        mu_lo = mu[tuple(sl_lo)]
        mu_hi = mu[tuple(sl_hi)]
        mu_face = np.sqrt(mu_lo * mu_hi)
        i_lo = idx[tuple(sl_lo)]
        i_hi = idx[tuple(sl_hi)]
        c_lo = mu_face / mu_lo / h**2     # coefficient of the left cell in the face flux
        c_hi = mu_face / mu_hi / h**2
        # flux at the face enters the left cell with +, the right cell with -
        entries += [(i_lo, i_hi, c_hi), (i_lo, i_lo, -c_lo),
                    (i_hi, i_lo, c_lo), (i_hi, i_hi, -c_hi)]
    return _csr_from_entries(entries, n)


def assemble_skew_part(grid: FPGrid, potential, swirl: SwirlField | None
                       ) -> sp.csr_matrix:
    """Centered conservative flux discretization of ``div(F f)``.

    Returns the zero operator in dimension 1 (the admissible field
    vanishes there) or when no swirl is supplied. Columns sum to zero by
    telescoping, so mass is conserved exactly; anti-symmetry in the
    enlarged inner product holds at rate O(h^2) under refinement.
    """
    n = grid.n_total
    if grid.d == 1 or swirl is None:
        return sp.csr_matrix((n, n))
    ax = grid.axis()
    h = grid.h
    idx = np.arange(n).reshape(grid.N, grid.N)
    face = ax[:-1] + 0.5 * h
    # x-directed faces between (i, j) and (i+1, j)
    xf, yf = np.meshgrid(face, ax, indexing="ij")
    f_x = swirl.field(potential, xf, yf)[0]
    i_lo, i_hi = idx[:-1, :], idx[1:, :]
    # y-directed faces between (i, j) and (i, j+1)
    xg, yg = np.meshgrid(ax, face, indexing="ij")
    f_y = swirl.field(potential, xg, yg)[1]
    j_lo, j_hi = idx[:, :-1], idx[:, 1:]
    return _csr_from_entries(
        [(i_lo, i_lo, f_x / (2 * h)), (i_lo, i_hi, f_x / (2 * h)),
         (i_hi, i_lo, -f_x / (2 * h)), (i_hi, i_hi, -f_x / (2 * h)),
         (j_lo, j_lo, f_y / (2 * h)), (j_lo, j_hi, f_y / (2 * h)),
         (j_hi, j_lo, -f_y / (2 * h)), (j_hi, j_hi, -f_y / (2 * h))], n)


@dataclass
class FPDiscretization:
    """Assembled generator with its two weighted spaces.

    The generator is kept sparse; ``dense_generator`` materializes it for
    the dense linear-algebra paths (guarded by size). All boundary fluxes
    are zeroed (zero-flux on every face of the box). As the assembly check
    it passes: assembly raises on a defect.
    """

    grid: FPGrid
    potential: object
    weight: EnlargedWeight
    swirl: SwirlField | None
    sym: sp.csr_matrix
    skew: sp.csr_matrix
    mu: np.ndarray                 # equilibrium node values, unit discrete mass
    space_small: WeightedSpace     # weights mu^{-1}
    space_ambient: WeightedSpace   # weights theta(U)
    verdict = PASS
    witness = None

    @classmethod
    def build(cls, grid: FPGrid, potential, weight: EnlargedWeight,
              swirl: SwirlField | None = None) -> "FPDiscretization":
        check_truncation(grid, potential)
        weight.validate_for_dimension(grid.d)
        meshes = grid.meshes()
        u_vals = np.asarray(potential.value(*meshes), dtype=float).ravel()
        mu = _equilibrium_nodes(grid, potential).ravel()
        mu = mu / (mu.sum() * grid.h ** grid.d)
        sym = assemble_symmetric_part(grid, potential)
        skew = assemble_skew_part(grid, potential, swirl)
        space_small = WeightedSpace(1.0 / mu, grid.h ** grid.d)
        space_ambient = WeightedSpace(weight.theta(u_vals), grid.h ** grid.d)
        return cls(grid=grid, potential=potential, weight=weight, swirl=swirl,
                   sym=sym, skew=skew, mu=mu, space_small=space_small,
                   space_ambient=space_ambient)

    @property
    def generator(self) -> sp.csr_matrix:
        return (self.sym + self.skew).tocsr()

    def constants(self):
        return {"n": self.grid.n_total, "h": self.grid.h}

    def dense_generator(self) -> np.ndarray:
        if self.grid.n_total > _DENSE_LIMIT:
            raise MagnitudeGuardError(
                f"dense generator of size {self.grid.n_total} exceeds the "
                f"limit {_DENSE_LIMIT}; use the sparse paths")
        return self.generator.toarray()


# ----------------------------------------------------------------------
# spectral gap


@dataclass
class GapReport:
    """Leading spectrum of the symmetrized generator in the small space."""

    lambda_gap: float
    leading: float
    gap_eigenvector_alignment: float
    n: int


def _similarity(matrix: sp.spmatrix, log_w: np.ndarray) -> sp.csr_matrix:
    """Similarity ``S_ij = T_ij sqrt(w_i / w_j)``, which is symmetric up to
    rounding when T is symmetric in the inner product weighted by w. Only
    stored (neighbor) entries are scaled, so the weight ratios stay
    moderate. The small space passes ``-log(mu)``, the ambient space
    ``log(theta(U))``."""
    coo = matrix.tocoo()
    data = coo.data * np.exp(0.5 * (log_w[coo.row] - log_w[coo.col]))
    return sp.coo_matrix((data, (coo.row, coo.col)), shape=matrix.shape).tocsr()


def _shift_above(sym) -> float:
    """A shift above the spectrum of a symmetric sparse matrix: its
    Gershgorin top (clipped at 0) plus one. Subtracting a nonnegative
    diagonal lowers every Gershgorin disc, so the shift stays above."""
    abs_row_sums = np.asarray(abs(sym).sum(axis=1)).ravel()
    diag = sym.diagonal()
    return max(float(np.max(diag + (abs_row_sums - np.abs(diag)))), 0.0) + 1.0


def _top_symmetric_eigs(s_mat: sp.csr_matrix, k: int):
    """Largest k eigenvalues (descending) of the symmetric part
    ``(S + S^T) / 2`` of a sparse matrix, with their vectors.
    Deterministic: tridiagonal and dense paths are direct, the sparse path
    uses shift-invert Lanczos with a fixed start vector and a shift above
    the spectrum, over one :func:`~semidecay.spectral.sparse_lu` of the
    shifted matrix."""
    n = s_mat.shape[0]
    if n > 1 and is_tridiagonal(s_mat):
        diag = s_mat.diagonal()
        off = 0.5 * (s_mat.diagonal(-1) + s_mat.diagonal(1))
        vals, vecs = sla.eigh_tridiagonal(diag, off, select="i",
                                          select_range=(n - k, n - 1))
        return vals[::-1], vecs[:, ::-1]
    if n <= _DENSE_EIG_LIMIT:
        dense = s_mat.toarray()
        dense = 0.5 * (dense + dense.T)
        vals, vecs = sla.eigh(dense, subset_by_index=[n - k, n - 1])
        return vals[::-1], vecs[:, ::-1]
    sym = (0.5 * (s_mat + s_mat.T)).tocsc()
    v0 = np.ones(n) / np.sqrt(n)
    sigma = _shift_above(sym)
    lu = sparse_lu(sym - sigma * sp.identity(n, format="csc"))
    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    vals, vecs = spla.eigsh(sym, k=k, sigma=sigma, which="LM", v0=v0,
                            OPinv=op_inv)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def spectral_gap_H(disc: FPDiscretization, tol: Tolerances = DEFAULT_TOLERANCES
                   ) -> GapReport:
    """Discrete spectral gap of the symmetric part in the small space.

    Symmetrizes by the equilibrium similarity, confirms that the leading
    eigenvalue is zero with eigenvector along sqrt(mu), and returns the
    second eigenvalue (the discrete analogue of the sharp constant in the
    weighted gradient inequality).

    Raises
    ------
    AssemblyError
        If the leading eigenvalue is not zero to tolerance, which means
        the stencil lost its built-in equilibrium.
    """
    s_mat = _similarity(disc.sym, -np.log(disc.mu))
    scale = float(abs(s_mat).max())
    vals, vecs = _top_symmetric_eigs(s_mat, 2)
    leading = float(vals[0])
    if abs(leading) > tol.tol_eig * max(scale, 1.0):
        raise AssemblyError(
            f"leading symmetrized eigenvalue {leading:.3e} is not zero "
            f"(scale {scale:.3e}); the assembled stencil lost its equilibrium")
    sqrt_mu = np.sqrt(disc.mu)
    sqrt_mu /= np.linalg.norm(sqrt_mu)
    alignment = float(abs(vecs[:, 0] @ sqrt_mu))
    if alignment < 1.0 - 1e-8:
        raise AssemblyError(
            f"leading eigenvector alignment with sqrt(mu) is {alignment:.12f}")
    return GapReport(lambda_gap=float(vals[1]), leading=leading,
                     gap_eigenvector_alignment=alignment, n=disc.grid.n_total)


def gap_mode(disc: FPDiscretization) -> np.ndarray:
    """Eigenvector of the gap eigenvalue, mapped back to density variables."""
    s_mat = _similarity(disc.sym, -np.log(disc.mu))
    _, vecs = _top_symmetric_eigs(s_mat, 2)
    mode = vecs[:, 1] * np.sqrt(disc.mu)
    return mode / np.linalg.norm(mode)


# ----------------------------------------------------------------------
# decomposition search


# LOBPCG on the sparse search path: a Ritz pair is accepted only when its
# residual norm is at most LOBPCG_TOL within LOBPCG_MAXITER iterations
LOBPCG_TOL = 1e-9
LOBPCG_MAXITER = 100


@dataclass
class DecompositionResult:
    """Outcome of the cutoff search.

    ``achieved`` is the accepted candidate's top eigenvalue as computed (a
    Ritz value on the sparse path, so a lower bound); ``achieved_upper`` is
    a certified upper bound on that eigenvalue (see
    :func:`_collatz_wielandt_upper`), or None where the symmetrized generator is not an irreducible Metzler
    matrix or the computed top eigenvector is not positive.
    """

    found: bool
    M: float | None
    R: float | None
    achieved: float | None
    target: float
    part_a_diagonal: np.ndarray | None
    frontier: list
    achieved_upper: float | None = None

    @property
    def verdict(self):
        return PASS if self.found else FAIL

    @property
    def witness(self):
        return None if self.found else f"no (M, R) reached {self.target} in the search box"

    def constants(self):
        if not self.found:
            return {}
        return {"M": self.M, "R": self.R, "achieved": self.achieved,
                "achieved_upper": self.achieved_upper}

    def to_dict(self):
        return {"found": self.found, "M": self.M, "R": self.R,
                "achieved": self.achieved, "achieved_upper": self.achieved_upper,
                "target": self.target,
                "frontier": [[m, r, v] for m, r, v in self.frontier]}


def check_target(target_a):
    """The decomposition search's check on its target.

    Shared with :class:`~semidecay.config.FPProblem`, which runs it when
    the config is read, so a target that is not negative is a config error
    there.
    """
    if not target_a < 0.0:
        raise InfeasibleParameterError("decomposition target must be negative")


def _is_irreducible_metzler(sym) -> bool:
    """Whether every off-diagonal entry of a symmetric sparse matrix is
    nonnegative and its nonzero off-diagonal entries connect all nodes.
    For such a matrix the top eigenvalue is simple and its eigenvector is
    the only one with entries of one sign (Perron-Frobenius)."""
    coo = sym.tocoo()
    off = coo.row != coo.col
    if np.any(coo.data[off] < 0.0):
        return False
    edges = off & (coo.data > 0.0)
    n = sym.shape[0]
    if is_tridiagonal(sym):
        # a path graph, connected iff no off-diagonal entry vanishes; the
        # 1-D search thus never imports csgraph
        return int(np.count_nonzero(edges)) == 2 * (n - 1)
    from scipy.sparse.csgraph import connected_components
    graph = sp.coo_matrix((coo.data[edges], (coo.row[edges], coo.col[edges])),
                          shape=sym.shape)
    return connected_components(graph, directed=False)[0] == 1


def _positive(vector):
    """``vector`` with its sign made positive, or None if its entries do not
    all share one strict sign."""
    if np.all(vector > 0.0):
        return vector
    if np.all(vector < 0.0):
        return -vector
    return None


def _collatz_wielandt_upper(matrix, vector) -> float | None:
    """Certified upper bound ``max_i (S x)_i / x_i`` on the top eigenvalue
    of an irreducible symmetric Metzler matrix S, for any x > 0 (the
    Collatz-Wielandt formula for S + cI, c >= -min diag S).

    Each ``(S x)_i`` is widened by the error bound of a k-term dot product,
    gamma_k sum_j |S_ij| x_j (Higham 2002, section 3.5), with k two above
    the row's stored entries to cover the rounding of the widening sum, and
    the largest ratio is rounded up by one ulp for the division. None when
    x has entries of both signs or zeros.
    """
    x = _positive(np.asarray(vector, dtype=float))
    if x is None:
        return None
    csr = sp.csr_matrix(matrix)
    k = np.diff(csr.indptr) + 2.0
    unit = 0.5 * np.finfo(float).eps
    gamma = k * unit / (1.0 - k * unit)
    ratios = (csr @ x + gamma * (abs(csr) @ x)) / x
    return float(np.nextafter(np.max(ratios), np.inf))


def _shared_lu_tops(sym, diagonals):
    """Top eigenpair of ``sym - diag(d)`` for each nonnegative ``d``, lazily,
    for an irreducible Metzler ``sym`` on the sparse path.

    One :func:`~semidecay.spectral.sparse_lu` of ``sym - sigma I``, with
    sigma above the spectrum of every candidate, preconditions LOBPCG
    (Knyazev 2001) for all of them; each candidate starts from the previous
    one's eigenvector. A Ritz pair is accepted when its last residual norm
    is within ``LOBPCG_TOL`` and its vector has one sign, which in an
    irreducible Metzler matrix only the top eigenvector has; any other
    candidate takes the shift-invert path of :func:`_top_symmetric_eigs`.
    Yields the eigenvalue and its eigenvector.
    """
    n = sym.shape[0]
    lu = sparse_lu(sym - _shift_above(sym) * sp.identity(n, format="csc"))
    start = np.full((n, 1), 1.0 / np.sqrt(n))
    for diag in diagonals:
        candidate = (sym - sp.diags(diag)).tocsr()
        with warnings.catch_warnings():
            # non-convergence is read from the residual history below
            warnings.filterwarnings("ignore", category=UserWarning,
                                    message="(?s).*not reaching the requested tolerance")
            vals, vecs, history = spla.lobpcg(
                candidate, start, M=lambda block: -lu.solve(block), tol=LOBPCG_TOL,
                maxiter=LOBPCG_MAXITER, largest=True, retResidualNormsHistory=True)
        vector = _positive(vecs[:, 0]) if np.max(history[-1]) <= LOBPCG_TOL else None
        if vector is None:
            vals, vecs = _top_symmetric_eigs(candidate, 1)
            vector = vecs[:, 0]
        start = vector[:, None]
        yield float(vals[0]), vector


def find_decomposition(disc: FPDiscretization, target_a: float,
                       m_grid=None, r_grid=None) -> DecompositionResult:
    """Search the cutoff family ``A = M chi(|x| <= R)`` for a coercive remainder.

    Scans a logarithmic grid in the multiplier M and a linear grid in the
    cutoff radius R (deterministic order, M-major ascending), accepting
    the first pair for which the largest eigenvalue of the
    ambient-symmetrized remainder drops to ``target_a`` or below. When the
    whole box fails, the result carries the frontier of best achieved
    values so the caller can widen the search.

    Every candidate is the symmetrized generator minus a nonnegative
    diagonal. When that matrix is an irreducible Metzler matrix (checked
    once) and takes the sparse path, one factorization serves the whole
    search (:func:`_shared_lu_tops`); otherwise each candidate is solved by
    :func:`_top_symmetric_eigs`. The accepted candidate also gets the
    certified upper bound ``achieved_upper``.
    """
    check_target(target_a)
    if m_grid is None:
        m_grid = np.geomspace(1.0, 100.0, 8)
    if r_grid is None:
        r_grid = np.linspace(1.0, disc.grid.L / 2.0, 6)
    coord = disc.grid.flat_coordinate()
    # the similarity scales the diagonal by exactly 1, so the symmetrized
    # remainder of every candidate is this matrix minus M chi, bit for bit
    scaled = _similarity(disc.generator, np.log(disc.space_ambient.weights))
    sym = 0.5 * (scaled + scaled.T)
    metzler = _is_irreducible_metzler(sym)
    pairs = [(float(m_val), float(r_val)) for m_val in np.asarray(m_grid, dtype=float)
             for r_val in np.asarray(r_grid, dtype=float)]
    diagonals = (m_val * (coord <= r_val).astype(float) for m_val, r_val in pairs)
    if metzler and sym.shape[0] > _DENSE_EIG_LIMIT and not is_tridiagonal(sym):
        tops = _shared_lu_tops(sym, diagonals)
    else:
        tops = ((float(vals[0]), vecs[:, 0]) for vals, vecs in
                (_top_symmetric_eigs(sym - sp.diags(diag), 1) for diag in diagonals))
    frontier = []
    for (m_val, r_val), (top, vector) in zip(pairs, tops):
        frontier.append((m_val, r_val, top))
        if top <= target_a:
            diag = m_val * (coord <= r_val).astype(float)
            upper = None
            if metzler:
                upper = _collatz_wielandt_upper(sym - sp.diags(diag), vector)
            return DecompositionResult(found=True, M=m_val, R=r_val, achieved=top,
                                       target=target_a, part_a_diagonal=diag,
                                       frontier=frontier, achieved_upper=upper)
    return DecompositionResult(found=False, M=None, R=None, achieved=None,
                               target=target_a, part_a_diagonal=None,
                               frontier=frontier)


# ----------------------------------------------------------------------
# decay experiments


@dataclass
class DecayExperimentResult:
    """Trajectory of the deviation from equilibrium in both norms.

    ``fit`` is the free-fitted certified envelope of the relative ambient
    deviation; ``pinned`` certifies the envelope at a caller-requested
    rate when one is given. ``equilibrium`` marks a deviation that never
    left the noise floor (the fit is then None). The check passes for an
    equilibrium or a negative fitted rate; without a fit it is indeterminate.
    """

    times: np.ndarray
    deviation_ambient: np.ndarray
    deviation_small: np.ndarray
    mass: np.ndarray
    scheme: str
    fit: DecayFit | None
    pinned: DecayFit | None
    equilibrium: bool

    @property
    def verdict(self):
        if self.fit is None:
            return PASS if self.equilibrium else INDETERMINATE
        return PASS if self.fit.rate < 0.0 else FAIL

    @property
    def witness(self):
        if self.verdict == INDETERMINATE:
            return "deviation fell below the signal floor"
        return None

    def constants(self):
        if self.fit is None:
            return {"equilibrium": True} if self.equilibrium else {}
        out = {"rate": self.fit.rate, "C": self.fit.prefactor}
        if self.pinned is not None:
            out.update(pinned_rate=self.pinned.rate, pinned_C=self.pinned.prefactor)
        return out

    def to_dict(self):
        out = {"scheme": self.scheme, "equilibrium": self.equilibrium,
               "n_samples": int(len(self.times))}
        if self.fit is not None:
            out["fit"] = {"rate": self.fit.rate, "prefactor": self.fit.prefactor,
                          "residual": self.fit.residual}
        if self.pinned is not None:
            out["pinned"] = {"rate": self.pinned.rate,
                             "prefactor": self.pinned.prefactor}
        return out


def _heavy_tail(disc: FPDiscretization, offset: float = 0.0) -> np.ndarray:
    """``(1 + |x - offset e_1|^2)^(-(k+1)/2)`` at the nodes."""
    meshes = disc.grid.meshes()
    r2 = sum(m**2 for m in [meshes[0] - offset, *meshes[1:]])
    return ((1.0 + r2) ** (-(disc.weight.k + 1.0) / 2.0)).ravel()


# the named initial data of experiments and the CLI: name -> builder
INITIAL_DATA = {
    "heavy-tail": _heavy_tail,
    "offset-heavy-tail": lambda disc: _heavy_tail(disc, 1.0),
    "equilibrium": lambda disc: disc.mu.copy(),
    "gap-mode": lambda disc: disc.mu + 1e-3 * gap_mode(disc),
}


def initial_datum(disc: FPDiscretization, kind: str) -> np.ndarray:
    """The initial datum named ``kind`` in :data:`INITIAL_DATA`."""
    if kind not in INITIAL_DATA:
        raise ValueError(f"unknown initial datum '{kind}'")
    return INITIAL_DATA[kind](disc)


def decay_experiment(disc: FPDiscretization, space: WeightedSpace, f0,
                     t_grid, scheme: str = "implicit-euler",
                     pinned_rate: float | None = None,
                     tol: Tolerances = DEFAULT_TOLERANCES
                     ) -> DecayExperimentResult:
    """Evolve f0, subtract the equilibrium share of its mass, fit the decay.

    The states of :func:`~semidecay.semigroup.step_trajectory` are reduced
    as they stream in: each gives its discrete mass ``sum f h^d`` and the
    norms of ``f - mass0 mu`` in the ambient and the small space, so the
    memory is O(n) plus three numbers per sample, whatever the step count.
    The mass is checked against the initial mass at every recorded time
    (the conservative stencils make the drift pure rounding); the
    certified envelope is fitted to the ambient deviation relative to its
    initial value.
    """
    f0 = np.asarray(f0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    hd = disc.grid.h ** disc.grid.d
    mass0 = float(f0.sum() * hd)
    equilibrium_share = mass0 * disc.mu
    mass = np.empty(len(t_grid))
    dev_ambient = np.empty(len(t_grid))
    dev_small = np.empty(len(t_grid))
    states = step_trajectory(disc.generator, f0, t_grid, scheme=scheme)
    for i, f in enumerate(states):
        mass[i] = f.sum() * hd
        deviation = f - equilibrium_share
        dev_ambient[i] = space.norm(deviation)
        dev_small[i] = disc.space_small.norm(deviation)
    drift = np.max(np.abs(mass - mass0)) / max(abs(mass0), 1e-300)
    if drift > max(tol.mass_tol * len(t_grid), 1e-10):
        raise AssemblyError(f"mass drifted by {drift:.3e} over the trajectory")

    scale0 = dev_ambient[0]
    floor = tol.floor_factor * np.finfo(float).eps * max(space.norm(f0), 1e-300)
    if scale0 <= floor or np.all(dev_ambient <= floor):
        return DecayExperimentResult(times=t_grid, deviation_ambient=dev_ambient,
                                     deviation_small=dev_small, mass=mass,
                                     scheme=scheme, fit=None, pinned=None,
                                     equilibrium=True)
    rel = dev_ambient / scale0
    try:
        fit = fit_exponential_decay(t_grid, rel, tol=tol)
    except InsufficientSignalError:
        fit = None
    pinned = None
    if pinned_rate is not None:
        prefactor = envelope_prefactor(t_grid, rel, pinned_rate)
        pinned = DecayFit(prefactor=prefactor, rate=pinned_rate,
                          window=(float(t_grid[0]), float(t_grid[-1])),
                          residual=float("nan"))
    return DecayExperimentResult(times=t_grid, deviation_ambient=dev_ambient,
                                 deviation_small=dev_small, mass=mass,
                                 scheme=scheme, fit=fit, pinned=pinned,
                                 equilibrium=False)


def resolvent_scan_fp(disc: FPDiscretization, space: WeightedSpace, a: float,
                      tol: Tolerances = DEFAULT_TOLERANCES, eigvals=None) -> H2Report:
    """Uniform resolvent bound of the assembled generator along ``Re z = a``.

    ``eigvals``: the ``spectrum`` of an earlier scan of the same
    discretization, so that scans in both spaces share one eigensolve.
    """
    return check_h2(disc.dense_generator(), a, space, tol=tol, eigvals=eigvals)


@dataclass
class ResolventScans:
    """Both resolvent scans of one generator along ``Re z = a``: they pass
    iff both certificates closed, else the witness names each open scan."""

    small: H2Report
    ambient: H2Report
    a: float

    def named(self):
        return (("scan_small", self.small), ("scan_ambient", self.ambient))

    @property
    def witness(self):
        open_scans = [f"{name}: {scan.witness}" for name, scan in self.named()
                      if scan.witness is not None]
        return "; ".join(open_scans) or None

    @property
    def verdict(self):
        return INDETERMINATE if self.witness else PASS

    def constants(self):
        return {"K_small": self.small.bound, "K_ambient": self.ambient.bound,
                "K_small_certified": self.small.certified_bound,
                "K_ambient_certified": self.ambient.certified_bound, "a": self.a}


def build_problem(problem: FPProblem) -> FPDiscretization:
    """Assemble the discretization of a validated problem config."""
    return FPDiscretization.build(problem.grid, problem.potential,
                                  problem.weight, swirl=problem.swirl)
