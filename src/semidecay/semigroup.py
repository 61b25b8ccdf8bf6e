"""Matrix semigroups, linear time stepping, and exponential-envelope fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (InsufficientSignalError, MagnitudeGuardError,
                     StepRejectionError)
from .spaces import WeightedSpace, operator_norms
from .spectral import blocks, sparse_lu


def matrix_exponential(matrix) -> np.ndarray:
    """Scaling-and-squaring matrix exponential with an overflow guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = sla.expm(np.asarray(matrix))
    if not np.all(np.isfinite(result.real)):
        raise MagnitudeGuardError("matrix exponential overflowed; shorten the horizon")
    return result


def uniform_step(t_grid) -> float:
    """The step of a sampled time grid, the one grid rule of both walks.

    A grid passes when it starts at 0, has at least two times, and its
    steps are positive and agree to rtol 1e-12; the step is the first one.
    Any other grid is a ``ValueError``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    steps = np.diff(t_grid)
    if (len(steps) == 0 or t_grid[0] != 0.0 or not steps[0] > 0.0
            or not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0)):
        raise ValueError("a time grid must start at 0 and be uniform and increasing, "
                         "with at least two times")
    return steps[0]


def propagators(matrix, t_grid):
    """``e^{tT}`` at the times of ``t_grid``, one stack per
    :func:`~semidecay.spectral.blocks` block, in order.

    The grid passes :func:`uniform_step`. The walk starts at the identity,
    and each propagator after it is the previous one times the one-step
    propagator ``e^{dt T}``, the walk's one :func:`matrix_exponential`,
    written in place into its slot of the stack. Each block is filled
    under one ``errstate`` and checked by one overflow guard, which raises
    :class:`MagnitudeGuardError` when any of its propagators is not finite.
    Every stack is a fresh array that the caller may modify.
    """
    step = matrix_exponential(matrix * uniform_step(t_grid))
    n = matrix.shape[0]
    power = None
    for block in blocks(len(t_grid), n):
        stack = np.empty((block.stop - block.start, n, n), dtype=step.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for prop in stack:
                if power is None:
                    prop[:] = np.eye(n)
                else:
                    np.matmul(power, step, out=prop)
                power = prop
        if not np.all(np.isfinite(stack.real)):
            raise MagnitudeGuardError("matrix exponential overflowed; shorten the horizon")
        power = power.copy()
        yield stack


def semigroup_norms(op, t_grid, space: WeightedSpace, deflation=None) -> np.ndarray:
    """``||e^{tT} - sum_j e^{xi_j t} P_j||`` in the induced norm of ``space``.

    ``deflation`` is an optional list of ``(xi_j, P_j)`` pairs subtracted
    from the propagator before taking the norm; with no deflation this is
    the plain semigroup norm.

    The propagators are the powers of one short-step propagator
    ``e^{dt T}`` (scaling and squaring builds ``expm(k dt T)`` from the
    same powers), so the whole grid, which passes :func:`uniform_step`,
    costs one matrix exponential. Each stack of :func:`propagators` is
    deflated in place and reduced by one stacked
    :func:`~semidecay.certify.spectral_norms`.
    """
    matrix = np.asarray(op)
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty(len(t_grid))
    for block, stack in zip(blocks(len(t_grid), matrix.shape[0]),
                            propagators(matrix, t_grid)):
        if deflation:
            stack = stack.astype(complex, copy=False)
            for xi, proj in deflation:
                stack -= np.exp(xi * t_grid[block])[:, None, None] * proj
        out[block] = operator_norms(stack, space, space)
    return out


def default_time_grid(rate_scale: float, n: int) -> np.ndarray:
    """Uniform grid on [0, 5 / |rate_scale|]."""
    t_max = 5.0 / max(abs(rate_scale), 1e-12)
    return np.linspace(0.0, t_max, n)


@dataclass(frozen=True)
class DecayFit:
    """Certified exponential envelope ``values(t) <= prefactor * e^{rate t}``.

    The prefactor is inflated after the regression so the bound holds at
    every sample above the signal floor; prefactor >= 1 is expected and
    prefactor > 1 is meaningful (transient growth). ``residual`` is the
    largest absolute deviation of the log-values from the fitted line over
    the fit window.
    """

    prefactor: float
    rate: float
    window: tuple
    residual: float


def fit_exponential_decay(times, norms, tol: Tolerances = DEFAULT_TOLERANCES
                          ) -> DecayFit:
    """Least-squares exponential fit with a certified envelope.

    The rate comes from a line through ``(t, log norm)`` on the tail
    window: the last half of the samples above the floor. The prefactor is
    then inflated minimally so the envelope holds at every sample above the
    floor, making the returned pair a certified envelope rather than a
    regression.

    Raises
    ------
    InsufficientSignalError
        If fewer than two samples sit above the signal floor
        ``floor_factor * eps * norms[0]``.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if len(times) != len(norms):
        raise ValueError("times and norms must have equal length")
    if len(norms) < 4:
        raise ValueError("need at least 4 samples to fit a decay envelope")
    if np.any(norms < 0.0):
        raise ValueError("norms must be nonnegative")
    floor = tol.floor_factor * np.finfo(float).eps * norms[0]
    keep = norms > floor
    if keep.sum() < 2:
        raise InsufficientSignalError(
            f"only {int(keep.sum())} samples above the floor {floor:.3e}")
    t_kept = times[keep]
    n_kept = norms[keep]
    start = min(len(t_kept) // 2, len(t_kept) - 2)
    t_fit = t_kept[start:]
    log_fit = np.log(n_kept[start:])
    design = np.vstack([t_fit, np.ones(len(t_fit))]).T
    (rate, intercept), *_ = np.linalg.lstsq(design, log_fit, rcond=None)
    residual = float(np.max(np.abs(log_fit - (rate * t_fit + intercept))))
    prefactor = float(np.max(n_kept * np.exp(-rate * t_kept)))
    return DecayFit(prefactor=prefactor, rate=float(rate),
                    window=(float(t_fit[0]), float(t_fit[-1])),
                    residual=residual)


def envelope_prefactor(times, values, rate: float) -> float:
    """Smallest certified C with ``values <= C e^{rate t}`` between samples too.

    The sampled maximum of ``values * e^{-rate t}`` is inflated by an
    estimate of how far the smooth curve can poke above its samples:
    for a C^2 function the inter-sample excess is at most
    ``max|y''| dt^2 / 8``, with ``y''`` estimated by second differences and
    widened by a factor 2.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    y = values * np.exp(-rate * times)
    c0 = float(np.max(y))
    if len(times) < 3 or c0 == 0.0:
        return c0
    dt = np.diff(times)
    second = np.abs(np.diff(y, 2)) / (dt[:-1] * dt[1:])
    excess = 2.0 * float(np.max(second)) * float(np.max(dt)) ** 2 / 8.0
    return c0 + excess


# the one-step schemes of step_trajectory: name -> theta
SCHEMES = {"implicit-euler": 1.0, "crank-nicolson": 0.5}


def step_trajectory(matrix, f0, t_grid, scheme: str = "implicit-euler"):
    """March ``df/dt = T f`` on a uniform grid with an A-stable one-step scheme.

    Returns an iterator over the states at the times of ``t_grid``, in
    order, starting with a copy of ``f0``; each state is a fresh array, so
    a caller that reduces them as they arrive holds O(n) memory whatever
    the step count. The grid (by :func:`uniform_step`) and scheme are
    validated, and ``I - theta dt T`` is factorized once through
    :func:`~semidecay.spectral.sparse_lu`, when this function is called;
    the solves run as the states are read.
    Accepts dense or sparse ``matrix``.

    The implicit solves are residual-checked each step; a violation raises
    :class:`StepRejectionError` rather than silently drifting.
    """
    dt = uniform_step(t_grid)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'")
    theta = SCHEMES[scheme]
    f0 = np.array(f0, dtype=float)
    n = len(f0)
    matrix = sp.csr_matrix(matrix)
    eye = sp.identity(n, format="csr")
    lhs = (eye - dt * theta * matrix).tocsc()
    solve = sparse_lu(lhs).solve
    rhs_mat = None if theta == 1.0 else (eye + dt * (1.0 - theta) * matrix).tocsr()
    return _march(lhs, solve, rhs_mat, f0, len(t_grid))


def _march(lhs, solve, rhs_mat, f, count):
    """``f`` and the ``count - 1`` residual-checked steps after it."""
    yield f
    for i in range(1, count):
        rhs = f if rhs_mat is None else rhs_mat @ f
        f_new = solve(rhs)
        residual = np.linalg.norm(lhs @ f_new - rhs)
        if residual > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
            raise StepRejectionError(
                f"implicit solve residual {residual:.3e} at step {i}")
        f = f_new
        yield f
