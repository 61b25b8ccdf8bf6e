"""Independent oracles and small helpers that only the tests use."""

import numpy as np
import scipy.sparse as sp


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
