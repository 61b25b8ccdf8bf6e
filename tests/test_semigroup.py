import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidecay import generate_instance, semigroup
from semidecay.errors import InsufficientSignalError, MagnitudeGuardError
from semidecay.hypotheses import check_h1
from semidecay.semigroup import (default_time_grid, envelope_prefactor,
                                 fit_exponential_decay, matrix_exponential,
                                 propagators, semigroup_norms, step_trajectory)
from semidecay.spaces import WeightedSpace, operator_norm
from semidecay.spectral import blocks, eigen_decompose, spectral_projector

from helpers import envelope_holds


def trajectory(mat, f0, t_grid):
    """``e^{tT} f0`` at each time of ``t_grid``, read from the propagator
    stacks."""
    stacks = propagators(np.asarray(mat), np.asarray(t_grid, dtype=float))
    return np.array([prop @ f0 for stack in stacks for prop in stack])


class TestSemigroupApply:
    def test_zero_generator_is_constant(self):
        f0 = np.array([1.0, -2.0, 0.5])
        traj = trajectory(np.zeros((3, 3)), f0, [0.0, 0.5, 1.0, 1.5, 2.0])
        for row in traj:
            npt.assert_allclose(row, f0, atol=1e-15)

    def test_diagonal(self):
        traj = trajectory(np.diag([0.0, -1.0]), np.array([1.0, 1.0]), [0.0, 1.0])
        npt.assert_allclose(traj[1], [1.0, np.exp(-1.0)], rtol=1e-13)

    def test_nilpotent_is_polynomial(self):
        # e^{tT} = I + tT for a nilpotent block
        t_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        traj = trajectory(t_mat, np.array([0.0, 1.0]), [0.0, 2.0])
        npt.assert_allclose(traj[1], [2.0, 1.0], atol=1e-14)

    def test_overflow_guard(self):
        with pytest.raises(MagnitudeGuardError):
            matrix_exponential(np.array([[2000.0]]))

    @given(s=st.floats(0.05, 2.0), t=st.floats(0.05, 2.0),
           seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_property(self, s, t, seed):
        gen = np.random.default_rng(seed)
        mat = gen.standard_normal((5, 5))
        whole = matrix_exponential(mat * (s + t))
        split = matrix_exponential(mat * s) @ matrix_exponential(mat * t)
        assert (np.linalg.norm(whole - split, 2)
                <= 1e-9 * np.linalg.norm(whole, 2))


class TestFitExponentialDecay:
    def test_pure_exponential_recovered_exactly(self):
        times = np.linspace(0.0, 2.0, 21)
        fit = fit_exponential_decay(times, 2.0 * np.exp(-3.0 * times))
        assert fit.rate == pytest.approx(-3.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_constant_norms(self):
        times = np.linspace(0.0, 5.0, 12)
        fit = fit_exponential_decay(times, np.ones(12))
        assert fit.rate == pytest.approx(0.0, abs=1e-14)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-14)

    def test_transient_growth_gives_prefactor_above_one(self):
        # oracle: dense matrix exponential sampling of a non-normal pair
        t_mat = np.array([[-1.0, 10.0], [0.0, -1.1]])
        times = np.linspace(0.0, 12.0, 121)
        norms = np.array([np.linalg.norm(matrix_exponential(t_mat * t), 2)
                          for t in times])
        fit = fit_exponential_decay(times, norms)
        assert fit.rate == pytest.approx(-1.0, abs=0.1)
        assert fit.prefactor > 1.0
        assert envelope_holds(times, norms, fit.prefactor, fit.rate)

    def test_envelope_certified_at_every_sample(self, rng):
        times = np.linspace(0.0, 3.0, 40)
        norms = np.exp(-times) * (1.0 + 0.2 * rng.random(40))
        fit = fit_exponential_decay(times, norms)
        assert envelope_holds(times, norms, fit.prefactor, fit.rate)

    def test_all_samples_below_floor(self):
        times = np.linspace(0.0, 1.0, 8)
        norms = np.full(8, 1e-30)
        norms[0] = 1.0    # the floor is relative to the first sample
        with pytest.raises(InsufficientSignalError):
            fit_exponential_decay(times, norms)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([0.0, 1.0], [1.0, 0.5])

    def test_nonmonotone_data_is_not_an_error(self):
        times = np.linspace(0.0, 4.0, 30)
        norms = np.exp(-0.5 * times) * (1.0 + 0.5 * np.sin(3 * times) ** 2)
        fit = fit_exponential_decay(times, norms)
        assert envelope_holds(times, norms, fit.prefactor, fit.rate)


def test_envelope_prefactor_covers_intersample_peak():
    # coarse samples of a curve whose true maximum falls between samples
    times = np.linspace(0.0, 1.0, 9)
    values = np.cos(np.pi * (times - 0.44)) ** 2
    c = envelope_prefactor(times, values, 0.0)
    dense_t = np.linspace(0.0, 1.0, 2001)
    dense = np.cos(np.pi * (dense_t - 0.44)) ** 2
    assert c >= dense.max()


class TestStepTrajectory:
    def test_crank_nicolson_matches_exponential(self):
        gen = np.random.default_rng(1)
        mat = -np.eye(6) + 0.3 * gen.standard_normal((6, 6))
        f0 = gen.standard_normal(6)
        t_grid = np.linspace(0.0, 1.0, 201)
        reference = matrix_exponential(mat) @ f0
        marched = np.stack(list(step_trajectory(mat, f0, t_grid,
                                                 scheme="crank-nicolson")))
        err = np.linalg.norm(marched[-1] - reference) / np.linalg.norm(reference)
        assert err <= 5e-5    # second-order scheme at dt = 5e-3

    def test_implicit_euler_first_order(self):
        mat = np.diag([-1.0, -2.0])
        f0 = np.ones(2)
        t_grid = np.linspace(0.0, 1.0, 101)
        marched = np.stack(list(step_trajectory(mat, f0, t_grid,
                                                 scheme="implicit-euler")))
        exact = np.exp(np.outer(t_grid, np.diag(mat)))
        err = np.max(np.abs(marched - exact))
        assert err <= 2e-2

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError):
            step_trajectory(np.eye(2) * -1, np.ones(2), [0.0, 0.1, 0.3])


def test_semigroup_norms_with_deflation():
    t_mat = np.diag([0.0, -1.0])
    proj = np.diag([1.0, 0.0])
    times = np.linspace(0.0, 3.0, 7)
    norms = semigroup_norms(t_mat, times, WeightedSpace(np.ones(2)),
                            deflation=[(0.0 + 0.0j, proj)])
    npt.assert_allclose(norms, np.exp(-times), rtol=1e-12)


# ----------------------------------------------------------------------
# dense oracle: the per-time loop the propagator walk replaced, one matrix
# exponential and one SVD per time


def oracle_semigroup_norms(matrix, t_grid, space, deflation=None):
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        prop = matrix_exponential(matrix * t)
        if deflation:
            prop = prop.astype(complex)
            for xi, proj in deflation:
                prop -= np.exp(xi * t) * proj
        out[i] = operator_norm(prop, space, space)
    return out


def walked_oracle_norms(matrix, t_grid, space, deflation=None):
    """The walk one time at a time, ``power = power @ step``, with one guard
    and one norm per time: the order in which the stacked walk multiplies."""
    t_grid = np.asarray(t_grid, dtype=float)
    step = matrix_exponential(matrix * t_grid[1])
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        power = np.eye(len(matrix)) if i == 0 else power @ step
        assert np.all(np.isfinite(power))
        prop = power
        if deflation:
            prop = prop.astype(complex)
            for xi, proj in deflation:
                prop -= np.exp(xi * t) * proj
        out[i] = operator_norm(prop, space, space)
    return out


@pytest.fixture
def expm_calls(monkeypatch):
    """Counts the matrix exponentials the semigroup module takes."""
    calls = []
    original = semigroup.matrix_exponential

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(semigroup, "matrix_exponential", counting)
    return calls


class TestPropagatorWalk:
    @pytest.mark.parametrize("seed,n", [(1, 16), (2, 16), (3, 16), (1, 32), (2, 32)])
    def test_matches_per_time_exponentials(self, seed, n, expm_calls):
        inst = generate_instance(seed, n)
        space, matrix = inst.pair.ambient, inst.split.full
        cert = inst.certificate
        # the grids of H3 (plain norms) and of the decay transfer (deflated)
        spread = np.ptp(np.linalg.eigvals(matrix).real)
        h3_grid = default_time_grid(rate_scale=spread, n=64)
        npt.assert_allclose(semigroup_norms(matrix, h3_grid, space),
                            oracle_semigroup_norms(matrix, h3_grid, space),
                            rtol=1e-12, atol=0.0)
        h1 = check_h1(eigen_decompose(matrix), cert.a, cert.r, expected_k=cert.k)
        deflation = [(complex(c), spectral_projector(matrix, h1.eigenvalues, c, h1.r))
                     for c in h1.discrete_eigs]
        assert deflation
        transfer_grid = default_time_grid(rate_scale=abs(cert.a), n=200)
        expm_calls.clear()
        walked = semigroup_norms(matrix, transfer_grid, space, deflation=deflation)
        assert len(expm_calls) == 1    # the grid starts at 0: one step propagator
        npt.assert_allclose(
            walked, oracle_semigroup_norms(matrix, transfer_grid, space, deflation),
            rtol=1e-12, atol=0.0)

    def test_overflowing_power_raises(self):
        # one step e^{0.1 * 700} is finite; its powers pass e^{709.8} by t = 1.1
        t_grid = np.linspace(0.0, 2.0, 21)
        space = WeightedSpace(np.ones(2))
        with pytest.raises(MagnitudeGuardError, match="overflowed"):
            semigroup_norms(np.diag([700.0, -1.0]), t_grid, space)
        with pytest.raises(MagnitudeGuardError, match="overflowed"):
            semigroup_norms(np.diag([700.0, -1.0]), t_grid[:12], space)

    def test_apply_walks_a_grid_from_zero(self, rng, expm_calls):
        mat = -0.5 * np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        f0 = rng.standard_normal(5)
        t_grid = np.linspace(0.0, 2.0, 41)
        traj = trajectory(mat, f0, t_grid)
        assert len(expm_calls) == 1
        npt.assert_array_equal(traj[0], f0)
        for t, row in zip(t_grid, traj):
            npt.assert_allclose(row, matrix_exponential(mat * t) @ f0,
                                rtol=1e-12, atol=1e-15)


class TestStackedWalk:
    """:func:`propagators` fills one stack per block of
    :func:`~semidecay.spectral.blocks`; the stacks must reproduce the walk one
    time at a time bit for bit, also on a grid whose last block is short."""

    @pytest.mark.parametrize("n,count", [(16, 200), (32, 64)])
    def test_equals_the_per_time_walk(self, n, count):
        inst = generate_instance(3, n)
        space, matrix = inst.pair.ambient, inst.split.full
        cert = inst.certificate
        t_grid = default_time_grid(rate_scale=abs(cert.a), n=count)
        sizes = [len(stack) for stack in propagators(matrix, t_grid)]
        assert sizes == [b.stop - b.start for b in blocks(count, n)]
        npt.assert_array_equal(semigroup_norms(matrix, t_grid, space),
                               walked_oracle_norms(matrix, t_grid, space))
        h1 = check_h1(eigen_decompose(matrix), cert.a, cert.r, expected_k=cert.k)
        deflation = [(complex(c), spectral_projector(matrix, h1.eigenvalues, c, h1.r))
                     for c in h1.discrete_eigs]
        assert deflation
        npt.assert_array_equal(
            semigroup_norms(matrix, t_grid, space, deflation=deflation),
            walked_oracle_norms(matrix, t_grid, space, deflation))

    def test_overflow_in_the_second_block_raises(self):
        # n = 16 takes blocks of 32; e^{40 t} passes e^{709.8} at t = 18,
        # the 37th time of this grid
        matrix = np.diag(np.r_[40.0, -np.ones(15)])
        t_grid = np.linspace(0.0, 30.0, 61)
        stacks = propagators(matrix, t_grid)
        first = next(stacks)
        assert len(first) == 32 and np.all(np.isfinite(first))
        with pytest.raises(MagnitudeGuardError, match="overflowed"):
            next(stacks)
        with pytest.raises(MagnitudeGuardError, match="overflowed"):
            semigroup_norms(matrix, t_grid, WeightedSpace(np.ones(16)))

    def test_stacks_are_the_callers(self, rng):
        # writing into a yielded stack leaves the stacks after it unchanged
        mat = -0.5 * np.eye(16) + 0.3 * rng.standard_normal((16, 16))
        t_grid = np.linspace(0.0, 4.0, 70)
        expected = np.concatenate(list(propagators(mat, t_grid)))
        scribbled = []
        for stack in propagators(mat, t_grid):
            scribbled.append(stack.copy())
            stack[:] = np.nan
        npt.assert_array_equal(np.concatenate(scribbled), expected)


class TestGridRule:
    """Both walks, :func:`propagators` and :func:`step_trajectory`, take
    the grids :func:`~semidecay.semigroup.uniform_step` passes and raise
    one ``ValueError`` on any other, before any matrix exponential."""

    @pytest.mark.parametrize("t_grid", [
        pytest.param([0.0, -0.1, -0.2], id="decreasing"),
        pytest.param(np.linspace(0.4, 3.0, 27), id="off-zero"),
        pytest.param([0.0, 0.1, 0.3, 0.35, 1.0, 2.5], id="non-uniform"),
        pytest.param([0.0], id="one-time"),
    ])
    def test_both_walks_reject(self, t_grid, expm_calls):
        mat = np.diag([-1.0, -2.0])
        with pytest.raises(ValueError) as walked:
            semigroup_norms(mat, t_grid, WeightedSpace(np.ones(2)))
        with pytest.raises(ValueError) as marched:
            step_trajectory(mat, np.ones(2), t_grid)
        assert str(walked.value) == str(marched.value)
        assert "start at 0" in str(walked.value)
        assert expm_calls == []

    def test_step_is_the_first_step(self):
        # the fp-decay grid: an arange from 0, whose steps differ by rounding
        t_grid = np.arange(0.0, 2.0 + 0.5 * 0.1, 0.1)
        assert semigroup.uniform_step(t_grid) == t_grid[1] == 0.1
        assert semigroup.uniform_step(np.linspace(0.0, 2.0, 6)) == 2.0 / 5
