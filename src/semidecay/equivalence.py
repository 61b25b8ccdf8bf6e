"""Quantitative equivalence between resolvent bounds and semigroup decay.

The forward direction turns verified spectral structure into a certified
decay envelope on the deflated semigroup. The converse direction takes a
decay certificate (level, prefactor, surviving eigenvalues, commuting
projectors), re-splits the operator's spectrum to localize the surviving
modes (H1), and verifies the quantitative Laplace-transform bound

    ||R(z) - sum_j P_j / (xi_j - z)|| <= C_a / (Re z - a)

on a sample of the half plane Re z > a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CertificateError
from .hypotheses import H1Report, check_h1
from .reports import FAIL, PASS, Check
from .semigroup import (DecayFit, default_time_grid, envelope_prefactor,
                        fit_exponential_decay, propagators, semigroup_norms)
from .spaces import WeightedSpace, operator_norms
from .spectral import blocks, resolvent_block, spectral_projector


@dataclass
class DecayCertificate:
    """A sampled decay bound on the deflated semigroup.

    Asserts ``||e^{tT} - sum_j e^{xi_j t} P_j|| <= prefactor * e^{level t}``
    in the norm of ``space``, certified on the sampled times with an
    inter-sample curvature margin folded into the prefactor.
    """

    level: float
    prefactor: float
    discrete_eigs: list
    projectors: list
    space: WeightedSpace


@dataclass
class DecayTransferReport(Check):
    fit: DecayFit
    certificate: DecayCertificate
    t_grid: np.ndarray
    deviation_norms: np.ndarray

    @property
    def witness(self):
        if self.fit.rate <= self.certificate.level:
            return None
        return (f"fitted rate {self.fit.rate:.6e} exceeds the requested rate "
                f"{self.certificate.level:.6e}")

    def constants(self):
        return {"rate": self.certificate.level, "C_lambda": self.certificate.prefactor,
                "fitted_rate": self.fit.rate}


def verify_decay_from_resolvent(op, space: WeightedSpace, h1: H1Report, rate: float,
                                tol: Tolerances = DEFAULT_TOLERANCES) -> DecayTransferReport:
    """Certify the decay of the semigroup deflated by its surviving modes.

    Builds the spectral projector P_j of each surviving mode xi_j of the
    passing H1 report ``h1`` (:func:`~semidecay.spectral.spectral_projector`
    on H1's eigenvalues and ball radius), computes
    ``D(t) = ||e^{tT} - sum_j e^{xi_j t} P_j||`` on 200 times up to
    ``5 / |a|`` (``a`` the H1 abscissa, else ``rate`` where it is 0), fits a
    certified envelope, and passes iff the fitted rate does not exceed the
    requested one. The returned certificate carries the modes, their
    projectors and the requested rate together with the smallest prefactor
    valid at that rate (inflated by the inter-sample curvature margin so
    the continuous envelope is covered, not just the samples).
    """
    matrix = np.asarray(op)
    projectors = [spectral_projector(matrix, h1.eigenvalues, c, h1.r, tol=tol)
                  for c in h1.discrete_eigs]
    gap = abs(h1.a) if h1.a else abs(rate)
    t_grid = default_time_grid(rate_scale=max(gap, 1e-2), n=200)
    deflation = list(zip(map(complex, h1.discrete_eigs), projectors))
    norms = semigroup_norms(matrix, t_grid, space, deflation=deflation)
    fit = fit_exponential_decay(t_grid, norms, tol=tol)
    prefactor = envelope_prefactor(t_grid, norms, rate)
    certificate = DecayCertificate(level=rate, prefactor=prefactor,
                                   discrete_eigs=list(h1.discrete_eigs),
                                   projectors=projectors, space=space)
    return DecayTransferReport(fit=fit, certificate=certificate, t_grid=t_grid,
                               deviation_norms=norms)


def default_z_samples(level: float, scale: float) -> np.ndarray:
    """Deterministic sample of the half plane Re z > level, 72 points.

    A geometric ladder of 8 distances to the line crossed with 8 imaginary
    offsets, plus a far-field ray of 8 points along the real axis. Every
    distance is positive, so every point lies strictly right of the line.
    """
    distances = np.geomspace(0.05 * scale, 10.0 * scale, 8)
    offsets = np.linspace(-4.0 * scale, 4.0 * scale, 8)
    grid = (level + distances[:, None] + 1j * offsets[None, :]).ravel()
    ray = level + np.geomspace(0.1 * scale, 100.0 * scale, 8)
    return np.concatenate([grid, ray.astype(complex)])


@dataclass
class ConverseReport(Check):
    """``laplace_max_ratio`` is the largest ratio of the Laplace bound's two
    sides over ``z_samples``, each left side an exact norm, and ``worst_z``
    the first sample attaining it (None when every ratio is 0, or H1
    failed). A re-derived H1 that does not pass gives its ``unmet``."""

    witness: str | None
    h1: H1Report
    laplace_max_ratio: float
    commutation_defect: float
    z_samples: np.ndarray | None = None
    worst_z: complex | None = None
    unmet: str = FAIL

    def constants(self):
        return {"laplace_max_ratio": self.laplace_max_ratio}


def verify_resolvent_from_decay(op, spectrum, certificate: DecayCertificate,
                                tol: Tolerances = DEFAULT_TOLERANCES
                                ) -> ConverseReport:
    """Recover the structural hypotheses from a decay certificate.

    Every norm is taken in ``certificate.space``. The projectors are first
    checked to commute with the semigroup on sampled times (a certificate
    violating this is rejected outright). Then ``spectrum``, as
    :func:`~semidecay.spectral.eigen_decompose` returned it for ``op``, is
    split (H1) on a line slightly above the certificate level (which may
    itself touch the spectrum), and the Laplace bound is
    verified at the certificate level with multiplicative slack
    ``laplace_slack`` on the sampled half plane (:func:`default_z_samples`):
    the left side is the exact weighted norm at every sample, one stacked
    :func:`~semidecay.spaces.operator_norms` per block of samples.

    Raises
    ------
    CertificateError
        If the certificate does not carry one projector per discrete
        eigenvalue, or its projectors do not commute with the semigroup.
    """
    matrix = np.asarray(op)
    space = certificate.space
    level = certificate.level
    c_a = certificate.prefactor
    xis = [complex(z) for z in certificate.discrete_eigs]
    projs = [np.asarray(p) for p in certificate.projectors]
    # every surviving eigenvalue needs its projector: a shorter list would
    # leave modes undeflated
    if len(xis) != len(projs):
        raise CertificateError(f"{len(xis)} discrete eigenvalues but "
                               f"{len(projs)} projectors")

    # commutation of the certified projectors with the semigroup, on
    # propagators walked from the identity by one step propagator; one
    # stack holds each propagator followed by its commutators
    defect = 0.0
    if projs:
        stack = []
        for props in propagators(matrix, np.linspace(0.0, 2.0, 6)):
            for prop in props:
                stack.append(prop)
                stack.extend(proj @ prop - prop @ proj for proj in projs)
        norms = operator_norms(np.stack(stack), space, space).reshape(-1, 1 + len(projs))
        ratios = norms[:, 1:] / np.maximum(norms[:, :1], 1e-300)
        defect = float(np.fmax.reduce(ratios, axis=None, initial=0.0))
    if defect > 1e-8:
        raise CertificateError(
            f"projectors do not commute with the semigroup (defect {defect:.3e})")

    # localization is checked at a line slightly above the certificate
    # level: decay at rate `level` yields it on every line strictly to the
    # right, while the certificate level itself may touch the spectrum
    clearance = min((x.real - level for x in xis), default=np.inf)
    lift = 0.05 * max(abs(level), 1.0)
    if np.isfinite(clearance):
        lift = min(lift, 0.5 * clearance)
    a_check = level + lift
    sep = min((abs(x - y) for x in xis for y in xis if x != y), default=np.inf)
    room = min((x.real - a_check for x in xis), default=1.0)
    ball_radius = 0.45 * min(sep, room) if np.isfinite(sep) else 0.45 * room
    h1 = check_h1(spectrum, a_check, ball_radius, expected_k=len(xis), tol=tol)
    if h1.verdict != PASS:
        return ConverseReport(f"H1: {h1.witness}", h1, np.inf, defect, unmet=h1.unmet)

    z_samples = default_z_samples(level, max(abs(level), 1.0))
    ratios = np.empty(len(z_samples))
    for block in blocks(len(z_samples), matrix.shape[0]):
        zs = z_samples[block]
        defected = resolvent_block(matrix, zs, tol).astype(complex, copy=False)
        for xi, proj in zip(xis, projs):
            defected -= proj / (xi - zs)[:, None, None]
        ratios[block] = operator_norms(defected, space, space) / (c_a / (zs.real - level))
    i = int(np.argmax(ratios))
    worst = float(ratios[i])
    worst_z = z_samples[i] if worst > 0.0 else None
    if worst > 1.0 + tol.laplace_slack:
        return ConverseReport(f"Laplace bound violated at z={worst_z} "
                              f"(ratio {worst:.6f})",
                              h1, worst, defect, z_samples, worst_z)
    return ConverseReport(None, h1, worst, defect, z_samples, worst_z)
