import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import resolvent_scalar
from semidecay import generate_instance, spectral
from semidecay.errors import SeparationError, SingularityError
from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential)
from semidecay.config import DEFAULT_TOLERANCES
from semidecay.spaces import norm_bounds
from semidecay.spectral import (_projector_contour, _projector_subspace,
                                eigen_decompose, guarded_inverses,
                                resolvent_block, resolvent_matrix,
                                spectral_projector)


class TestResolvent:
    def test_diagonal(self):
        t = np.diag([0.0, -1.0])
        res = resolvent_matrix(t, 1j)
        expected = np.diag([1j, (-1 + 1j) / 2])
        npt.assert_allclose(res, expected, atol=1e-14)

    def test_zero_operator(self):
        res = resolvent_matrix(np.zeros((4, 4)), 1.0)
        npt.assert_allclose(res, -np.eye(4), atol=1e-15)

    def test_norm_by_eigenvalue_enumeration(self):
        # oracle: max over 1/|lambda_j - i|
        lams = np.array([0.0, -1.0, -2.0])
        t = np.diag(lams)
        res = resolvent_matrix(t, 1j)
        oracle = np.max(1.0 / np.abs(lams - 1j))
        assert oracle == pytest.approx(1.0)
        assert np.linalg.norm(res, 2) == pytest.approx(oracle, rel=1e-14)

    def test_singularity_reports_distance(self):
        t = np.diag([0.0, -1.0])
        with pytest.raises(SingularityError) as info:
            resolvent_matrix(t, 1e-14)
        assert info.value.distance == pytest.approx(1e-14, rel=1.0)

    def test_residual_invariant(self, rng):
        for _ in range(10):
            n = rng.integers(2, 12)
            t = rng.standard_normal((n, n))
            xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                res = resolvent_matrix(t, xi)
            except SingularityError:
                continue
            shifted = t - xi * np.eye(n)
            cond = np.linalg.cond(shifted)
            residual = np.linalg.norm(shifted @ res - np.eye(n), 2)
            assert residual <= 1e-10 * max(cond, 1.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_resolvent_identity(self, seed):
        """First resolvent identity R(a) - R(b) = (a - b) R(a) R(b)."""
        gen = np.random.default_rng(seed)
        t = gen.standard_normal((6, 6))
        xi, eta = 2.0 + 1j, -3.0 - 0.5j
        r_xi = resolvent_matrix(t, xi)
        r_eta = resolvent_matrix(t, eta)
        lhs = r_xi - r_eta
        rhs = (xi - eta) * (r_xi @ r_eta)
        npt.assert_allclose(lhs, rhs, atol=1e-10 * np.linalg.norm(lhs, 2) + 1e-12)


class TestShiftedInverses:
    def test_bitwise_equal_to_scalar_inverses(self, rng):
        t = rng.standard_normal((12, 12))
        xis = rng.uniform(-3, 3, 11) + 1j * rng.uniform(-3, 3, 11)
        inverses, errors = guarded_inverses(t, xis)
        assert inverses.shape == (11, 12, 12) and not errors
        for xi, inverse in zip(xis, inverses):
            npt.assert_array_equal(inverse, resolvent_scalar(t, xi, DEFAULT_TOLERANCES))
            npt.assert_array_equal(inverse, resolvent_matrix(t, xi))

    def test_singular_shift_is_flagged_and_raises_the_scalar_error(self):
        t = np.diag([0.0, -1.0, -2.0]) + np.triu(np.ones((3, 3)), 1)
        # exactly singular at -1, inside the conditioning band at -2 + 1e-14
        xis = np.array([1j, -1.0, 0.5 + 0.5j, -2.0 + 1e-14])
        inverses, errors = guarded_inverses(t, xis)
        assert sorted(errors) == [1, 3]
        assert [_exact_guard_passes(t, xi) for xi in xis] == [True, False, True, False]
        npt.assert_array_equal(inverses[0], resolvent_matrix(t, 1j))
        for i, error in errors.items():
            assert np.isnan(inverses[i]).all()
            assert str(error) == str(_scalar_error(t, xis[i]))
            with pytest.raises(SingularityError) as one:
                resolvent_matrix(t, xis[i])
            assert str(one.value) == str(error)
        # a block raises for its first rejected shift
        with pytest.raises(SingularityError) as block:
            resolvent_block(t, xis)
        assert str(block.value) == str(_scalar_error(t, xis[1]))

    def test_one_solve_per_shift(self, monkeypatch):
        """Every shift is factored by the stacked solve, and by nothing else,
        however the guard settles it: a shift whose inverse overflows, one
        rejected inside the conditioning band, and a flagged shift that the
        exact test accepts.

        Matrices are counted as they enter a solve or an LU factorization.
        An exactly singular shift makes ``np.linalg.solve`` raise for its
        whole stack without returning it, so that block pays one more
        solve per shift, the per-matrix fallback, and still no LU. The
        distances to the spectrum of all rejected shifts come from one
        eigensolve, and a block with no rejection takes none.
        """
        gen = np.random.default_rng(7)
        t = np.triu(gen.standard_normal((8, 8)), 1) + np.diag(-np.arange(8.0))
        xis = np.array([0.5 + 0.5j, 1e-310, -3.0 + 1e-10, -3.0 + 1.5e-9, 2.0j])
        factored, exact, spectra = [0], [0], [0]
        solve, lu_factor = np.linalg.solve, scipy.linalg.lu_factor
        norms, eigvals = spectral.spectral_norms, np.linalg.eigvals

        def counting(kernel, counter):
            def counted(a, *args, **kwargs):
                counter[0] += int(np.prod(np.shape(a)[:-2]))
                return kernel(a, *args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "solve", counting(solve, factored))
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting(lu_factor, factored))
        monkeypatch.setattr(spectral, "spectral_norms", counting(norms, exact))
        monkeypatch.setattr(np.linalg, "eigvals", counting(eigvals, spectra))
        inverses, errors = guarded_inverses(t, xis)
        assert factored[0] == len(xis)
        assert sorted(errors) == [1, 2]
        assert spectra[0] == 1
        assert "is numerically singular" in str(errors[1])
        assert "conditioning band" in str(errors[2])
        # the filter flagged shifts 2 and 3, and the exact test accepted 3
        assert exact[0] == 2 * 3
        assert [_exact_guard_passes(t, xi) for xi in xis] == [True, False, False, True, True]
        npt.assert_array_equal(inverses[3], resolvent_scalar(t, xis[3], DEFAULT_TOLERANCES))

        xis[1] = -1.0
        factored[0] = spectra[0] = 0
        inverses, errors = guarded_inverses(t, xis)
        assert factored[0] == 2 * len(xis)
        assert sorted(errors) == [1, 2]
        assert spectra[0] == 1
        assert str(errors[1]) == str(_scalar_error(t, xis[1]))
        assert str(errors[2]) == str(_scalar_error(t, xis[2]))
        # the per-shift fallback gives the one-shift inverses bit for bit
        for i, xi in enumerate(xis):
            if i in errors:
                assert np.isnan(inverses[i]).all()
            else:
                npt.assert_array_equal(inverses[i],
                                       resolvent_scalar(t, xi, DEFAULT_TOLERANCES))

        spectra[0] = 0
        _, errors = guarded_inverses(t, xis[[0, 3, 4]])
        assert not errors and spectra[0] == 0


class TestGuardFilter:
    """The O(n^2) filter of :func:`guarded_inverses` against the exact
    three-SVD guard it stands in front of, and the merged path against the
    one-shift LU oracle."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 24),
           count=st.integers(1, 6), complex_=st.booleans(),
           log_scale=st.floats(-150.0, 150.0))
    @settings(max_examples=60, deadline=None)
    def test_bounds_bracket_the_spectral_norm(self, seed, n, count, complex_, log_scale):
        gen = np.random.default_rng(seed)
        stack = gen.standard_normal((count, n, n))
        if complex_:
            stack = stack + 1j * gen.standard_normal((count, n, n))
        # rank-one members, where the column bound is attained
        stack[0] = np.outer(stack[0][:, 0], stack[0][0])
        stack *= 2.0 ** log_scale
        lower, upper = norm_bounds(stack)
        exact = np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.all(lower <= exact) and np.all(exact <= upper)

    def test_filter_passes_only_what_the_exact_guard_passes(self, rng):
        t = rng.standard_normal((12, 12))
        lam = np.linalg.eigvals(t)[0]
        offsets = 10.0 ** -np.arange(6, 13)
        xis = np.concatenate([lam + offsets, lam + 1j * offsets, [0.3 + 2.0j]])
        _, errors = guarded_inverses(t, xis)
        exact_ok = np.array([_exact_guard_passes(t, xi) for xi in xis])
        assert not any(exact_ok[i] for i in errors)
        assert all(i in errors for i in np.flatnonzero(~exact_ok))
        # not vacuous: the far shift passes, the 1e-12 ones are rejected
        assert len(xis) - 1 not in errors
        assert len(offsets) - 1 in errors and len(xis) - 2 in errors

    @pytest.mark.parametrize("kind", ["real", "complex", "triangular"])
    def test_agrees_with_the_lu_oracle_near_the_spectrum(self, kind, monkeypatch):
        exact_calls = [0]
        norms = spectral.spectral_norms

        def counting(stack):
            exact_calls[0] += 1
            return norms(stack)

        monkeypatch.setattr(spectral, "spectral_norms", counting)
        accepted = exact_rejected = 0
        for seed in range(8):
            gen = np.random.default_rng(seed)
            n = 3 + 2 * seed
            t = gen.standard_normal((n, n))
            if kind == "complex":
                t = t + 1j * gen.standard_normal((n, n))
            elif kind == "triangular":
                t = np.triu(t, 1) + np.diag(-np.arange(float(n)))
            lam = np.linalg.eigvals(t)[seed % n]
            # cond(T - lam - d) is about k / d: offsets around the band edge
            # d = k tol_solve, where the filter flags and the exact test decides
            k = 1e-6 * np.linalg.cond(t - (lam + 1e-6) * np.eye(n))
            offsets = k * DEFAULT_TOLERANCES.tol_solve * 10.0 ** gen.uniform(-1.0, 1.0, 6)
            xis = np.concatenate([lam + offsets, lam + 1j * offsets,
                                  [lam.real, 0.2 + 3.0j]])
            inverses, errors = guarded_inverses(t, xis)
            for i, xi in enumerate(xis):
                try:
                    oracle = resolvent_scalar(t, xi, DEFAULT_TOLERANCES)
                except SingularityError as exc:
                    assert i in errors
                    assert str(errors[i]) == str(exc)
                    assert errors[i].distance == exc.distance
                    assert errors[i].witness == exc.witness
                    exact_rejected += "singular" not in str(exc)
                else:
                    assert i not in errors
                    npt.assert_array_equal(inverses[i], oracle)
                    accepted += 1
        # not vacuous: shifts the exact test rejected, and flagged shifts it
        # accepted (every exact test that did not reject)
        assert exact_rejected > 0 and accepted > 0
        assert exact_calls[0] > exact_rejected


def _exact_guard_passes(matrix, xi, tol=DEFAULT_TOLERANCES):
    """The three-SVD guard the filter stands in front of, on the stacked
    solve's inverse."""
    n = matrix.shape[0]
    shifted = matrix - xi * np.eye(n)
    try:
        inverse = np.linalg.solve(shifted, np.eye(n, dtype=shifted.dtype))
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inverse)):
        return False
    cond = np.linalg.norm(shifted, 2) * np.linalg.norm(inverse, 2)
    residual = np.linalg.norm(shifted @ inverse - np.eye(n), 2)
    return bool(cond * tol.tol_solve < 1.0
                and residual <= tol.tol_solve * max(cond, 1.0))


def _scalar_error(t, xi):
    with pytest.raises(SingularityError) as info:
        resolvent_scalar(t, xi, DEFAULT_TOLERANCES)
    return info.value


class TestEigenDecompose:
    def test_diagonal(self):
        eigvals, _ = eigen_decompose(np.diag([0.0, -1.0]))
        npt.assert_allclose(sorted(eigvals.real), [-1.0, 0.0], atol=1e-15)

    def test_companion_matrix_roots(self):
        # companion matrix of z^2 + 1 has roots +-i
        comp = np.array([[0.0, -1.0], [1.0, 0.0]])
        eigvals, _ = eigen_decompose(comp)
        npt.assert_allclose(sorted(eigvals.imag), [-1.0, 1.0], atol=1e-14)
        npt.assert_allclose(eigvals.real, 0.0, atol=1e-14)

    def test_drift_diffusion_spectrum(self):
        """Fine-grid generator spectrum approaches {0, -2, -4, ...}."""
        grid = FPGrid(d=1, L=8.0, N=800)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        eigvals, _ = eigen_decompose(disc.dense_generator())
        top = np.sort(eigvals.real)[::-1][:3]
        npt.assert_allclose(top, [0.0, -2.0, -4.0], atol=2e-2)

    def test_residuals_below_tolerance(self, rng):
        t = rng.standard_normal((20, 20))
        _, max_residual = eigen_decompose(t)
        assert max_residual <= 1e-9


class TestSpectralProjector:
    def test_diagonal_rank_one(self):
        proj = spectral_projector(np.diag([0.0, -1.0]), 0.0, 0.5)
        npt.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-12)

    def test_jordan_block_full_circle(self):
        # defective group: whole spectrum inside, projector is the identity
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        proj = spectral_projector(jordan, 0.0, 0.5)
        npt.assert_allclose(proj, np.eye(2), atol=1e-10)
        assert np.linalg.matrix_rank(proj) == 2

    def test_methods_agree_on_planted_eigenvalue(self, rng):
        # cross-method oracle: contour vs invariant subspaces
        lams = np.array([1.0, -2.0, -2.5, -3.0, -3.5, -4.0])
        basis = rng.standard_normal((6, 6)) + np.eye(6) * 2
        t = basis @ np.diag(lams) @ np.linalg.inv(basis)
        p_sub = _projector_subspace(t, lambda z: bool(abs(z - 1.0) < 0.8))
        p_con = _projector_contour(t, 1.0, 0.8, 64, DEFAULT_TOLERANCES)
        assert np.linalg.norm(p_sub - p_con, 2) <= 1e-8

    def test_circle_through_eigenvalue_rejected(self):
        with pytest.raises(SeparationError):
            spectral_projector(np.diag([0.0, -1.0]), 0.0, 1.0)

    def test_projector_algebra_on_generated_instances(self):
        for seed in (2, 3, 5):
            inst = generate_instance(seed, 10)
            t = inst.split.full
            cert = inst.certificate
            proj = spectral_projector(t, 0.0, cert.r)
            t_norm = np.linalg.norm(t, 2)
            assert np.linalg.norm(proj @ proj - proj, 2) <= 1e-9 * max(np.linalg.norm(proj, 2), 1)
            assert np.linalg.norm(t @ proj - proj @ t, 2) <= 1e-9 * t_norm
            # a projector for a disjoint group annihilates this one
            other_center = np.sort_complex(eigen_decompose(t)[0])[0]
            try:
                proj_other = spectral_projector(t, other_center, 0.1 * cert.r)
            except SeparationError:
                continue
            assert np.linalg.norm(proj @ proj_other, 2) <= 1e-8
