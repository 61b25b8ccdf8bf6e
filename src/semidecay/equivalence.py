"""Quantitative equivalence between resolvent bounds and semigroup decay.

The forward direction turns verified spectral structure into a certified
decay envelope on the deflated semigroup. The converse direction takes a
decay certificate (level, prefactor, surviving eigenvalues, commuting
projectors), re-derives the localization H1 of the surviving modes, and
verifies the quantitative Laplace-transform bound

    ||R(z) - sum_j P_j / (xi_j - z)|| <= C_a / (Re z - a)

on a sample of the half plane Re z > a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import CertificateError
from .hypotheses import FAIL, PASS, H1Report, check_h1
from .semigroup import (DecayFit, default_time_grid, envelope_prefactor,
                        fit_exponential_decay, propagators, semigroup_norms)
from .spaces import WeightedSpace, operator_norm, operator_norms
from .spectral import SHIFT_BLOCK, SpectralReport, resolvent_block


@dataclass
class DecayCertificate:
    """A sampled decay bound on the deflated semigroup.

    Asserts ``||e^{tT} - sum_j e^{xi_j t} P_j|| <= prefactor * e^{level t}``
    in the norm of ``space``, certified on ``t_grid`` with an inter-sample
    curvature margin folded into the prefactor.
    """

    level: float
    prefactor: float
    discrete_eigs: list
    projectors: list
    space: WeightedSpace
    t_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 5.0, 200))


@dataclass
class DecayTransferReport:
    verdict: str
    fitted_rate: float
    prefactor_at_rate: float
    fit: DecayFit
    certificate: DecayCertificate
    t_grid: np.ndarray
    deviation_norms: np.ndarray
    witness = None

    def constants(self):
        return {"rate": self.certificate.level, "C_lambda": self.prefactor_at_rate,
                "fitted_rate": self.fitted_rate}


def verify_decay_from_resolvent(op, space: WeightedSpace, report: SpectralReport,
                                rate: float, t_grid=None,
                                tol: Tolerances = DEFAULT_TOLERANCES
                                ) -> DecayTransferReport:
    """Certify the decay of the semigroup deflated by its surviving modes.

    Computes ``D(t) = ||e^{tT} - sum_j e^{xi_j t} P_j||`` on a time grid,
    fits a certified envelope, and passes iff the fitted rate does not
    exceed the requested one. The returned certificate carries the
    requested rate together with the smallest prefactor valid at that rate
    (inflated by the inter-sample curvature margin so the continuous
    envelope is covered, not just the samples).
    """
    matrix = np.asarray(op)
    if report.discrete_eigs is None or report.projectors is None:
        raise CertificateError("spectral report lacks discrete eigenvalues or projectors")
    if t_grid is None:
        gap = abs(report.half_plane_abscissa) if report.half_plane_abscissa else abs(rate)
        t_grid = default_time_grid(rate_scale=max(gap, 1e-2), n=200)
    t_grid = np.asarray(t_grid, dtype=float)
    deflation = list(zip(map(complex, report.discrete_eigs), report.projectors))
    norms = semigroup_norms(matrix, t_grid, space, deflation=deflation)
    fit = fit_exponential_decay(t_grid, norms, tol=tol)
    prefactor = envelope_prefactor(t_grid, norms, rate)
    certificate = DecayCertificate(level=rate, prefactor=prefactor,
                                   discrete_eigs=list(report.discrete_eigs),
                                   projectors=list(report.projectors),
                                   space=space, t_grid=t_grid)
    verdict = PASS if fit.rate <= rate else FAIL
    return DecayTransferReport(verdict=verdict, fitted_rate=fit.rate,
                               prefactor_at_rate=prefactor, fit=fit,
                               certificate=certificate, t_grid=t_grid,
                               deviation_norms=norms)


def default_z_samples(level: float, scale: float, n: int = 64,
                      seed: int = 0) -> np.ndarray:
    """Deterministic sample of the half plane Re z > level.

    A geometric ladder of distances to the line crossed with imaginary
    offsets, plus a far-field ray along the real axis; at least ``n``
    points.
    """
    rng = np.random.default_rng(seed)
    distances = np.geomspace(0.05 * scale, 10.0 * scale, max(n // 8, 4))
    offsets = np.linspace(-4.0 * scale, 4.0 * scale, 8)
    grid = (level + distances[:, None] + 1j * offsets[None, :]).ravel()
    ray = level + np.geomspace(0.1 * scale, 100.0 * scale, 8)
    extra_n = max(0, n - len(grid) - len(ray))
    extra = (level + rng.uniform(0.05, 5.0, extra_n) * scale
             + 1j * rng.uniform(-5.0, 5.0, extra_n) * scale)
    return np.concatenate([grid, ray.astype(complex), extra])


@dataclass
class ConverseReport:
    verdict: str
    witness: str | None
    h1: H1Report
    laplace_max_ratio: float
    commutation_defect: float
    z_samples: np.ndarray | None = None

    def constants(self):
        return {"laplace_max_ratio": self.laplace_max_ratio}


def verify_resolvent_from_decay(op, space: WeightedSpace,
                                certificate: DecayCertificate,
                                z_samples=None, n_z: int = 64,
                                ball_radius: float | None = None,
                                tol: Tolerances = DEFAULT_TOLERANCES
                                ) -> ConverseReport:
    """Recover the structural hypotheses from a decay certificate.

    The projectors are first checked to commute with the semigroup on
    sampled times (a certificate violating this is rejected outright).
    Then H1 is re-derived on a line slightly above the certificate level
    (which may itself touch the spectrum), and the Laplace bound is
    verified at the certificate level with multiplicative slack
    ``laplace_slack`` on the sampled half plane.
    """
    matrix = np.asarray(op)
    level = certificate.level
    c_a = certificate.prefactor
    xis = [complex(z) for z in certificate.discrete_eigs]
    projs = [np.asarray(p) for p in certificate.projectors]

    # commutation of the certified projectors with the semigroup, on
    # propagators walked from e^{0.1 T} by one step propagator
    defect = 0.0
    if projs:
        for prop in propagators(matrix, np.linspace(0.1, 2.0, 5)):
            prop_norm = max(operator_norm(prop, space, space), 1e-300)
            for proj in projs:
                comm = operator_norm(proj @ prop - prop @ proj, space, space)
                defect = max(defect, comm / prop_norm)
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
    if ball_radius is None:
        sep = min((abs(x - y) for x in xis for y in xis if x != y), default=np.inf)
        room = min((x.real - a_check for x in xis), default=1.0)
        ball_radius = 0.45 * min(sep, room) if np.isfinite(sep) else 0.45 * room
    h1 = check_h1(matrix, a_check, ball_radius, expected_k=len(xis), tol=tol,
                  compute_projectors=False)
    if h1.verdict != PASS:
        return ConverseReport(h1.verdict, f"H1: {h1.witness}", h1, np.inf, defect)

    scale = max(abs(level), 1.0)
    if z_samples is None:
        z_samples = default_z_samples(level, scale, n=n_z)
    z_samples = np.asarray(z_samples, dtype=complex)
    inside = z_samples[z_samples.real > level]
    worst = 0.0
    worst_z = None
    for start in range(0, len(inside), SHIFT_BLOCK):
        zs = inside[start:start + SHIFT_BLOCK]
        defected = resolvent_block(matrix, zs, tol).astype(complex, copy=False)
        for xi, proj in zip(xis, projs):
            defected -= proj / (xi - zs)[:, None, None]
        lhs = operator_norms(defected, space, space)
        for z, lhs_z in zip(zs, lhs):
            ratio = lhs_z / (c_a / (z.real - level))
            if ratio > worst:
                worst, worst_z = ratio, z
    if worst > 1.0 + tol.laplace_slack:
        return ConverseReport(FAIL,
                              f"Laplace bound violated at z={worst_z} "
                              f"(ratio {worst:.6f})",
                              h1, float(worst), defect, z_samples)
    return ConverseReport(PASS, None, h1, float(worst), defect, z_samples)
