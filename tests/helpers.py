"""Independent oracles and small helpers that only the tests use."""

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from semidecay import generate_instance
from semidecay.config import Tolerances
from semidecay.equivalence import verify_decay_from_resolvent
from semidecay.errors import SingularityError
from semidecay.hypotheses import check_h1
from semidecay.spaces import operator_norms, spectral_norms


def distance_to_spectrum(matrix, point: complex) -> float:
    return float(np.min(np.abs(np.linalg.eigvals(np.asarray(matrix)) - point)))


def spectral_norm_power_iteration(matrix, tol=1e-12, max_iter=10000) -> float:
    """Largest singular value by power iteration on ``M^H M``.

    Deterministic: starts from the normalized all-ones vector. It converges
    to the norm from below, so it serves only as the independent
    cross-check of :func:`semidecay.spaces.spectral_norms`.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[1]
    v = np.ones(n, dtype=complex if np.iscomplexobj(matrix) else float)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = matrix.conj().T @ (matrix @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_new = w / norm_w
        sigma_new = np.sqrt(norm_w)
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return float(sigma_new)
        sigma, v = sigma_new, v_new
    return float(sigma)


def weighted_adjoint(matrix, space) -> np.ndarray:
    """Adjoint with respect to the space inner product: ``W^{-1} M^H W``."""
    matrix = np.asarray(matrix)
    w = space.weights
    return (matrix.conj().T * w[None, :]) / w[:, None]


def envelope_holds(times, values, prefactor, rate, slack=1e-12) -> bool:
    """Whether ``values <= prefactor e^{rate t}`` at every sample, up to a
    relative ``slack``."""
    values = np.asarray(values, dtype=float)
    bound = prefactor * np.exp(rate * np.asarray(times, dtype=float))
    return bool(np.all(values <= bound * (1.0 + slack)))


def split_matrices(result, disc):
    """The generator and the parts A and B = T - A of a decomposition
    search result, as sparse matrices."""
    gen = disc.generator
    part_a = sp.diags(result.part_a_diagonal).tocsr()
    return gen, part_a, (gen - part_a).tocsr()


def cluster_union_find(points, radius):
    """Single-linkage groups at distance ``radius`` by union-find: the
    reference for ``hypotheses._cluster``, with the same group and member
    order (groups by first point, members by index)."""
    points = np.asarray(points)
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx) for idx in groups.values()]


def resolvent_scalar(matrix, xi: complex, tol: Tolerances) -> np.ndarray:
    """The one-shift guarded inverse by its own LU factorization, with the
    diagnostics of each rejection.

    The independent oracle of :func:`semidecay.spectral.guarded_inverses`:
    it factors the shifted matrix with ``scipy.linalg.lu_factor`` and takes
    the three 2-norms of the guard exactly for every shift, where the
    stacked path takes them only for the shifts its O(n^2) filter flags.
    """
    n = matrix.shape[0]
    shifted = matrix - xi * np.eye(n)
    ident = np.eye(n, dtype=shifted.dtype)
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            res = sla.lu_solve(sla.lu_factor(shifted), ident)
    except (sla.LinAlgError, ValueError):
        dist = distance_to_spectrum(matrix, xi)
        raise SingularityError(
            f"shift {xi} is singular (distance to spectrum {dist:.3e})",
            distance=dist, witness=xi)
    if not np.all(np.isfinite(res)):
        dist = distance_to_spectrum(matrix, xi)
        raise SingularityError(
            f"shift {xi} is numerically singular "
            f"(distance to spectrum {dist:.3e})", distance=dist, witness=xi)
    shifted_norm, res_norm, residual = spectral_norms(
        np.stack([shifted, res, shifted @ res - ident]))
    # sigma_min(shifted) = 1/||res||; reject shifts inside the conditioning band
    if res_norm * shifted_norm * tol.tol_solve >= 1.0:
        dist = distance_to_spectrum(matrix, xi)
        raise SingularityError(
            f"shift {xi} too close to the spectrum: inverse norm {res_norm:.3e} "
            f"puts it inside the tol_solve={tol.tol_solve:.1e} conditioning band "
            f"(distance to spectrum {dist:.3e})",
            distance=dist, witness=xi)
    if residual > tol.tol_solve * max(shifted_norm * res_norm, 1.0):
        dist = distance_to_spectrum(matrix, xi)
        raise SingularityError(
            f"shift {xi} solve residual {residual:.3e} exceeds "
            f"{tol.tol_solve:.1e} * cond (distance to spectrum {dist:.3e})",
            distance=dist, witness=xi)
    return res


def decay_certificate(seed, n):
    """The generated operator and the decay certificate the testbed runner
    hands to the converse: H1 at the instance's abscissa, decay at half of it."""
    inst = generate_instance(seed, n)
    cert = inst.certificate
    h1 = check_h1(inst.split.full, cert.a, cert.r, expected_k=cert.k)
    transfer = verify_decay_from_resolvent(inst.split.full, inst.pair.ambient,
                                           h1, 0.5 * cert.a)
    return inst.split.full, transfer.certificate


def laplace_ratios(matrix, certificate, z_samples):
    """The converse's ratio ``||R(z) - sum_j P_j / (xi_j - z)|| (Re z - a) / C``
    at every z, each norm taken exactly, one z at a time."""
    space, level = certificate.space, certificate.level
    ratios = []
    for z in z_samples:
        lhs = resolvent_scalar(matrix, z, Tolerances()).astype(complex)
        for xi, proj in zip(certificate.discrete_eigs, certificate.projectors):
            lhs -= proj / (complex(xi) - z)
        norm = operator_norms(lhs[None], space, space)[0]
        ratios.append(norm / (certificate.prefactor / (z.real - level)))
    return np.array(ratios)
