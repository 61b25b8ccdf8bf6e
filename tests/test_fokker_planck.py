import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from semidecay import fokker_planck
from semidecay.errors import AssemblyError, DomainTooSmallError
from semidecay.factorization import (SplitOperator, enlargement_bound_chain,
                                     shift_sweep)
from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential, SwirlField, UniformPotential,
                                     assemble_skew_part,
                                     assemble_symmetric_part, check_domain,
                                     decay_experiment, find_decomposition,
                                     gap_mode, initial_datum,
                                     resolvent_scan_fp, spectral_gap_H)
from semidecay.hypotheses import check_h2, check_h4
from semidecay.reports import PASS, RunReport
from semidecay.semigroup import DecayFit, step_trajectory
from semidecay.spectral import sparse_lu
from semidecay.spaces import EmbeddedSpacePair

from helpers import split_matrices


class TestIngredients:
    def test_potential_validation_and_values(self):
        with pytest.raises(ValueError):
            Potential(0.5)
        pot = Potential(2.0)
        assert pot.value(np.array(0.0)) == 1.0
        x = np.array([0.7, -1.3])
        npt.assert_allclose(pot.value(x), 1 + x**2)
        npt.assert_allclose(pot.gradient(x)[0], 2 * x)

    def test_gradient_matches_finite_differences(self):
        pot = Potential(3.0)
        x = np.linspace(-2, 2, 9)
        y = np.linspace(-1, 1, 9)
        eps = 1e-6
        gx = (pot.value(x + eps, y) - pot.value(x - eps, y)) / (2 * eps)
        npt.assert_allclose(pot.gradient(x, y)[0], gx, rtol=1e-8)

    def test_weight_kind_constraints(self):
        with pytest.raises(ValueError):
            EnlargedWeight("stretched-exponential", 1.5)
        EnlargedWeight("polynomial", 3.0).validate_for_dimension(1)
        with pytest.raises(ValueError):
            EnlargedWeight("polynomial", 1.5).validate_for_dimension(2)
        w = EnlargedWeight("stretched-exponential", 0.5)
        u = np.array([1.0, 2.0, 5.0])
        assert np.all(np.diff(w.theta(u)) > 0)

    def test_swirl_structure_identities(self):
        """div F = 0 and grad U . F = 0 at second order under refinement."""
        pot = Potential(2.0)
        swirl = SwirlField("inverse_linear", 1.0)
        residuals = []
        for n in (40, 80, 160):
            ax = np.linspace(-3, 3, n)
            h = ax[1] - ax[0]
            x, y = np.meshgrid(ax, ax, indexing="ij")
            fx, fy = swirl.field(pot, x, y)
            div = ((fx[2:, 1:-1] - fx[:-2, 1:-1]) / (2 * h)
                   + (fy[1:-1, 2:] - fy[1:-1, :-2]) / (2 * h))
            residuals.append(np.max(np.abs(div)))
            gx, gy = pot.gradient(x, y)
            npt.assert_allclose(gx * fx + gy * fy, 0.0, atol=1e-14)
            bound = swirl.amplitude * (1 + np.sqrt(gx**2 + gy**2))
            assert np.all(np.sqrt(fx**2 + fy**2) <= bound + 1e-14)
        rate = np.log(residuals[0] / residuals[2]) / np.log(4.0)
        assert rate > 1.7


class TestSymmetricPart:
    def test_equilibrium_is_null_vector(self, fp_small):
        # telescoping kills f = mu; rounding only
        residual = fp_small.sym @ fp_small.mu
        scale = np.abs(fp_small.sym) @ np.abs(fp_small.mu)
        assert np.max(np.abs(residual) / np.maximum(scale, 1e-300)) <= 1e-14

    def test_constant_equilibrium_reduces_to_laplacian(self):
        grid = FPGrid(d=1, L=1.0, N=8)
        sym = assemble_symmetric_part(grid, check_domain(grid, UniformPotential())[1]).toarray()
        h2 = grid.h ** 2
        expected = (np.diag(np.full(7, 1.0), 1) + np.diag(np.full(7, 1.0), -1)
                    - np.diag([1, 2, 2, 2, 2, 2, 2, 1])) / h2
        npt.assert_allclose(sym, expected, atol=1e-14)

    def test_exact_discrete_symmetry(self, fp_small, rng):
        t_mat = fp_small.sym
        w = fp_small.space_small.weights
        h = fp_small.grid.h
        f = rng.standard_normal(fp_small.grid.n_total)
        g = rng.standard_normal(fp_small.grid.n_total)
        lhs = np.sum((t_mat @ f) * g * w) * h
        rhs = np.sum(f * (t_mat @ g) * w) * h
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_mass_conservation_matrix_level(self, fp_small):
        col_sums = np.asarray(fp_small.generator.sum(axis=0)).ravel()
        assert np.max(np.abs(col_sums)) <= 1e-13 * np.max(np.abs(fp_small.generator.data))

    def test_truncation_guard(self):
        with pytest.raises(DomainTooSmallError):
            check_domain(FPGrid(d=1, L=2.0, N=50), Potential(1.0))

    @pytest.mark.parametrize("s", [400.0, 1e6], ids=["inf_range", "nan_range"])
    def test_overflowing_potential_fails_the_range_check_without_warnings(self, s):
        # Tier-1 turns every warning into an error, so a numpy RuntimeWarning
        # on the way to the range check fails here
        with pytest.raises(DomainTooSmallError, match="exceeds the representable window"):
            FPDiscretization.build(FPGrid(d=1, L=8.0, N=40), Potential(s),
                                   EnlargedWeight())

    def test_node_count_is_bounded(self):
        FPGrid(d=1, L=8.0, N=20000)
        FPGrid(d=2, L=8.0, N=256)
        FPGrid(d=1, L=8.0, N=fokker_planck.MAX_NODES)
        for d, n in ((1, fokker_planck.MAX_NODES + 1), (2, 1001), (1, 10**300)):
            with pytest.raises(ValueError, match="at most 1000000 nodes"):
                FPGrid(d=d, L=8.0, N=n)

    def test_nonpositivity_with_single_neutral_mode(self):
        from semidecay.fokker_planck import _similarity
        grid = FPGrid(d=1, L=8.0, N=200)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        s_mat = _similarity(disc.sym, -np.log(disc.mu)).toarray()
        s_mat = 0.5 * (s_mat + s_mat.T)
        eigvals = np.linalg.eigvalsh(s_mat)
        scale = np.max(np.abs(eigvals))
        assert np.all(eigvals <= 1e-9 * scale)
        assert np.sum(np.abs(eigvals) <= 1e-9 * scale) == 1


class TestSkewPart:
    def test_zero_in_dimension_one(self, fp_small):
        assert fp_small.skew.nnz == 0

    def test_zero_without_field(self):
        grid = FPGrid(d=2, L=4.0, N=8)
        skew = assemble_skew_part(grid, Potential(2.0), None)
        assert skew.nnz == 0

    def test_conservative_column_sums(self):
        grid = FPGrid(d=2, L=8.0, N=24)
        skew = assemble_skew_part(grid, Potential(2.0), SwirlField("inverse_linear", 1.0))
        col_sums = np.asarray(skew.sum(axis=0)).ravel()
        assert np.max(np.abs(col_sums)) <= 1e-13 * np.max(np.abs(skew.data))

    def test_quadratic_form_vanishes_at_second_order(self):
        pot = Potential(2.0)
        weight = EnlargedWeight("polynomial", 3.0)
        swirl = SwirlField("inverse_linear", 1.0)
        forms = []
        for n in (50, 100, 200):
            grid = FPGrid(d=2, L=8.0, N=n)
            skew = assemble_skew_part(grid, pot, swirl)
            x, y = grid.meshes()
            w = weight.theta(pot.value(x, y)).ravel()
            f = (np.exp(-((x - 0.7)**2 + (y + 0.4)**2) / 2) * (1 + 0.3 * x)).ravel()
            q = abs(np.sum((skew @ f) * f * w)) / np.sum(f**2 * w)
            forms.append(q)
        assert forms[0] / forms[1] == pytest.approx(4.0, rel=0.4)
        assert forms[1] / forms[2] == pytest.approx(4.0, rel=0.4)


class TestSpectralGap:
    def test_quadratic_potential_gap(self):
        grid = FPGrid(d=1, L=8.0, N=1000)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        assert gap.lambda_gap == pytest.approx(-2.0, rel=2e-4)
        assert abs(gap.leading) <= 1e-10
        assert gap.gap_eigenvector_alignment == pytest.approx(1.0, abs=1e-10)

    def test_neumann_surrogate_closed_form(self):
        grid = FPGrid(d=1, L=8.0, N=500)
        disc = FPDiscretization.build(grid, UniformPotential(),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        exact = -(np.pi / (2 * grid.L)) ** 2
        assert gap.lambda_gap == pytest.approx(exact, rel=1e-4)

    def test_second_order_convergence(self):
        errors = []
        for n in (250, 500, 1000):
            grid = FPGrid(d=1, L=8.0, N=n)
            disc = FPDiscretization.build(grid, Potential(2.0),
                                          EnlargedWeight("polynomial", 3.0))
            errors.append(abs(spectral_gap_H(disc).lambda_gap + 2.0))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)

    def test_broken_assembly_detected(self, fp_small):
        broken = FPDiscretization(grid=fp_small.grid, weight=fp_small.weight,
                                  sym=fp_small.sym + 0.1 * __import__("scipy.sparse", fromlist=["identity"]).identity(fp_small.grid.n_total),
                                  skew=fp_small.skew, mu=fp_small.mu,
                                  space_small=fp_small.space_small,
                                  space_ambient=fp_small.space_ambient)
        with pytest.raises(AssemblyError):
            spectral_gap_H(broken)


class TestFindDecomposition:
    def test_zero_multiplier_is_rejected(self, fp_small):
        gap = spectral_gap_H(fp_small)
        result = find_decomposition(fp_small, 0.5 * gap.lambda_gap,
                                    m_grid=[0.0], r_grid=[2.0])
        assert not result.found
        assert result.frontier[0][2] > 0.5 * gap.lambda_gap

    def test_search_box_contains_feasible_pair(self, fp_small):
        gap = spectral_gap_H(fp_small)
        result = find_decomposition(fp_small, 0.5 * gap.lambda_gap)
        assert result.found
        assert 1.0 <= result.M <= 100.0
        assert 1.0 <= result.R <= fp_small.grid.L / 2
        assert result.achieved <= 0.5 * gap.lambda_gap

    def test_accepted_pair_revalidates_h4(self):
        grid = FPGrid(d=1, L=8.0, N=200)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        target = 0.5 * gap.lambda_gap
        result = find_decomposition(disc, target)
        assert result.found
        gen, part_a, part_b = split_matrices(result, disc)
        split = SplitOperator(full=gen.toarray(), part_a=part_a.toarray(),
                              part_b=part_b.toarray())
        pair = EmbeddedSpacePair(disc.space_ambient, disc.space_small)
        samples = target + 1e-6 + 1j * np.linspace(-1.0, 1.0, 7)
        report = check_h4(split, pair, samples)
        assert report.verdict == PASS


class TestDecayExperiment:
    def test_failed_decay_carries_its_witness(self):
        """A fitted rate that is not negative fails, and the report names it."""
        times = np.linspace(0.0, 1.0, 3)
        fit = DecayFit(prefactor=1.0, rate=0.0, window=(0.0, 1.0), residual=0.0)
        result = fokker_planck.DecayExperimentResult(
            times=times, deviation_ambient=np.ones(3), deviation_small=np.ones(3),
            mass=np.ones(3), scheme="implicit-euler", fit=fit, pinned=None,
            equilibrium=False)
        report = RunReport(command="fp-decay", config={})
        report.add_check("decay", result)
        assert report.verdicts["decay"] == {
            "verdict": "fail", "witness": "fitted rate 0.000000e+00 is not negative",
            "constants": {"rate": 0.0, "C": 1.0}}

    def test_equilibrium_stays_flat(self, fp_small):
        t_grid = np.linspace(0.0, 1.0, 51)
        result = decay_experiment(fp_small, initial_datum(fp_small, "equilibrium"), t_grid)
        assert result.equilibrium
        assert np.max(result.deviation_ambient) <= 1e-10

    def test_gap_mode_decays_at_gap_rate(self, fp_small):
        gap = spectral_gap_H(fp_small)
        t_grid = np.arange(0.0, 3.0 + 1e-9, 0.005)
        result = decay_experiment(fp_small, initial_datum(fp_small, "gap-mode"), t_grid,
                                  scheme="crank-nicolson")
        assert result.fit.rate == pytest.approx(gap.lambda_gap, abs=5e-3)
        assert result.fit.prefactor == pytest.approx(1.0, abs=5e-3)

    def test_offcenter_heavy_tail_settles_on_gap_rate(self, fp_small):
        gap = spectral_gap_H(fp_small)
        t_grid = np.arange(0.0, 4.0 + 1e-9, 0.01)
        result = decay_experiment(fp_small, initial_datum(fp_small, "offset-heavy-tail"),
                                  t_grid, scheme="crank-nicolson")
        assert gap.lambda_gap - 0.1 * abs(gap.lambda_gap) <= result.fit.rate < 0.0

    def test_even_heavy_tail_exhibits_transient_prefactor(self, fp_small):
        gap = spectral_gap_H(fp_small)
        t_grid = np.arange(0.0, 4.0 + 1e-9, 0.01)
        result = decay_experiment(fp_small, initial_datum(fp_small, "heavy-tail"), t_grid,
                                  scheme="crank-nicolson",
                                  pinned_rate=gap.lambda_gap)
        # parity: the even datum skips the odd gap mode, so the free fit
        # lands on the next even mode while the pinned envelope still holds
        assert result.fit.rate < gap.lambda_gap
        assert result.fit.prefactor > 1.0
        rel = result.deviation_ambient / result.deviation_ambient[0]
        assert np.all(rel <= result.pinned.prefactor
                      * np.exp(result.pinned.rate * result.times) * (1 + 1e-12))

    def test_mass_recorded_and_conserved(self, fp_small):
        t_grid = np.linspace(0.0, 1.0, 101)
        f0 = initial_datum(fp_small, "heavy-tail")
        result = decay_experiment(fp_small, f0, t_grid)
        drift = np.max(np.abs(result.mass - result.mass[0]))
        assert drift <= 1e-10 * abs(result.mass[0])


class TestResolventScan:
    def test_consistency_with_direct_check(self):
        grid = FPGrid(d=1, L=8.0, N=120)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        a_line = 0.5 * gap.lambda_gap
        scan = resolvent_scan_fp(disc, a_line).small
        dense = disc.dense_generator()
        direct = check_h2(dense, a_line, disc.space_small,
                          np.linalg.eigvals(dense.astype(complex)))
        assert scan.bound == direct.bound
        npt.assert_array_equal(scan.norms, direct.norms)

    def test_enlarged_weights_scan_is_finite(self):
        grid = FPGrid(d=1, L=8.0, N=120)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        scan = resolvent_scan_fp(disc, 0.5 * gap.lambda_gap).ambient
        assert np.isfinite(scan.bound)
        assert scan.bound > 0

    def test_scan_dominated_by_bound_chain(self):
        grid = FPGrid(d=1, L=8.0, N=120)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        target = 0.5 * gap.lambda_gap
        decomp = find_decomposition(disc, target)
        assert decomp.found
        gen, part_a, part_b = split_matrices(decomp, disc)
        split = SplitOperator(full=gen.toarray(), part_a=part_a.toarray(),
                              part_b=part_b.toarray())
        pair = EmbeddedSpacePair(disc.space_ambient, disc.space_small)
        ys = np.linspace(-2.0, 2.0, 9)
        samples = target + 1e-6 + 1j * ys
        chain = enlargement_bound_chain(shift_sweep(split, pair, samples))
        assert chain.dominated
        # the certified chain bound dominates the scan on the same points
        assert chain.certified_bound >= np.max(chain.direct_values)


class TestStretchedExponentialWeight:
    def test_gap_and_decay_run_end_to_end(self):
        grid = FPGrid(d=1, L=8.0, N=300)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("stretched-exponential", 0.5))
        gap = spectral_gap_H(disc)
        assert gap.lambda_gap == pytest.approx(-2.0, rel=2e-3)
        t_grid = np.arange(0.0, 2.0 + 1e-9, 0.01)
        result = decay_experiment(disc, initial_datum(disc, "gap-mode"), t_grid,
                                  scheme="crank-nicolson")
        assert result.fit.rate == pytest.approx(gap.lambda_gap, abs=2e-2)

    def test_embedding_constant_finite(self):
        grid = FPGrid(d=1, L=8.0, N=100)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("stretched-exponential", 0.5))
        c = EmbeddedSpacePair(disc.space_ambient, disc.space_small).embedding_constant
        assert np.isfinite(c) and c > 0


def test_initial_datum_shapes(fp_small):
    for kind in ("heavy-tail", "offset-heavy-tail", "equilibrium", "gap-mode"):
        f0 = initial_datum(fp_small, kind)
        assert f0.shape == (fp_small.grid.n_total,)
    with pytest.raises(ValueError):
        initial_datum(fp_small, "nope")


def test_heavy_tail_formula(fp_small):
    x = fp_small.grid.axis()
    npt.assert_allclose(initial_datum(fp_small, "heavy-tail"),
                        (1 + x**2) ** -2.0, rtol=1e-15)


def _swirl_disc(N, amplitude=1.0):
    return FPDiscretization.build(FPGrid(d=2, L=8.0, N=N), Potential(2.0),
                                  EnlargedWeight("polynomial", 3.0),
                                  swirl=SwirlField("inverse_linear", amplitude))


@pytest.fixture(scope="module")
def fp_swirl_sparse():
    """2-D swirl discretization just above the dense eigensolver limit."""
    disc = _swirl_disc(34)
    assert disc.grid.n_total > fokker_planck._DENSE_EIG_LIMIT
    return disc


@pytest.fixture(scope="module")
def fp_swirl_16_strong():
    """A strong swirl below the dense eigensolver limit: shift-invert
    Lanczos from ``v0 = ones`` misses most of its search's top eigenvalues."""
    disc = _swirl_disc(16, amplitude=100.0)
    assert disc.grid.n_total <= fokker_planck._DENSE_EIG_LIMIT
    return disc


@pytest.fixture(scope="module")
def fp_swirl_48():
    """The shipped 2-D swirl grid (``configs/fp_d2_swirl.json``)."""
    return _swirl_disc(48)


def _ambient_symmetrized_remainder(disc, m_val, r_val):
    """Dense ambient symmetrization of ``T - M 1{|x| <= R}``."""
    chi = (disc.grid.flat_coordinate() <= r_val).astype(float)
    remainder = (disc.generator - sp.diags(m_val * chi)).toarray()
    root = np.sqrt(disc.space_ambient.weights)
    scaled = root[:, None] * remainder / root[None, :]
    return 0.5 * (scaled + scaled.T)


def _dense_top(disc, m_val, r_val):
    """Top eigenvalue of the dense symmetrized remainder, and max|S|."""
    dense = _ambient_symmetrized_remainder(disc, m_val, r_val)
    n = dense.shape[0]
    top = sla.eigh(dense, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
    return top, np.max(np.abs(dense))


def _search_every_candidate(disc):
    """A 4-candidate search with an unreachable target, so every candidate
    is tried; each frontier value must match the dense eigensolver."""
    result = find_decomposition(disc, -1e3, m_grid=[1.0, 10.0], r_grid=[1.0, 2.0])
    assert len(result.frontier) == 4
    for m_val, r_val, top in result.frontier:
        expected, scale = _dense_top(disc, m_val, r_val)
        npt.assert_allclose(top, expected, rtol=0.0, atol=1e-13 * scale)


class TestSparseBranchAgainstDenseOracle:
    """Shift-invert Lanczos and the sparse stepper against dense solvers.

    The gap eigenvalue of the radial 2-D problem is double, so eigenvalues
    and residuals are compared, not eigenvectors.
    """

    def _check_top_eigs(self, s_mat, k):
        dense = s_mat.toarray()
        dense = 0.5 * (dense + dense.T)
        vals, vecs = fokker_planck._top_symmetric_eigs(s_mat, k)
        ref = sla.eigh(dense, eigvals_only=True)[::-1][:k]
        scale = np.max(np.abs(dense))
        npt.assert_allclose(vals, ref, rtol=0.0, atol=1e-13 * scale)
        residuals = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
        assert np.all(residuals <= 1e-13 * scale)
        return vals

    def test_gap_eigenvalues(self, fp_swirl_sparse):
        disc = fp_swirl_sparse
        s_mat = fokker_planck._similarity(disc.sym, -np.log(disc.mu))
        vals = self._check_top_eigs(s_mat, 2)
        gap = spectral_gap_H(disc)
        assert gap.lambda_gap == vals[1] and gap.leading == vals[0]

    def test_search_remainder_top_eigenvalue(self, fp_swirl_sparse):
        disc = fp_swirl_sparse
        dense = _ambient_symmetrized_remainder(disc, 10.0, 2.0)
        top = self._check_top_eigs(sp.csr_matrix(dense), 1)[0]
        result = find_decomposition(disc, -1e-3, m_grid=[10.0], r_grid=[2.0])
        npt.assert_allclose(result.frontier[0][2], top, rtol=0.0,
                            atol=1e-13 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("fixture", ["fp_swirl_sparse", "fp_swirl_48",
                                         "fp_swirl_16_strong"],
                             ids=["34", "48", "16-amplitude-100"])
    def test_frontier_equals_dense_eigh(self, request, fixture):
        """Every candidate of the search, against the dense eigensolver of
        that candidate's remainder: the shared-factorization search at N=34
        and 48, the per-candidate dense path at N=16."""
        _search_every_candidate(request.getfixturevalue(fixture))

    def test_non_metzler_search_takes_the_shift_invert_path(self, eigen_calls):
        """A strong swirl gives the symmetrized generator negative
        off-diagonal entries; every candidate is then solved by shift-invert
        Lanczos on its own factorization."""
        disc = _swirl_disc(34, amplitude=100.0)
        scaled = fokker_planck._similarity(disc.generator,
                                           np.log(disc.space_ambient.weights))
        assert not fokker_planck._is_irreducible_metzler(0.5 * (scaled + scaled.T))
        _search_every_candidate(disc)
        assert eigen_calls() == {"splu": 4, "eigsh": 4, "lobpcg": 0}

    @pytest.mark.parametrize("defect", ["sign_change", "residual"])
    def test_rejected_ritz_pair_falls_back(self, fp_swirl_sparse, eigen_calls,
                                           monkeypatch, defect):
        """A Ritz vector with entries of both signs is not the Perron vector,
        and an unconverged residual is no eigenpair: either sends that
        candidate down the shift-invert path."""
        lobpcg = spla.lobpcg
        seen = []

        def defective_second_call(*args, **kwargs):
            vals, vecs, history = lobpcg(*args, **kwargs)
            seen.append(vals[0])
            if len(seen) == 2 and defect == "sign_change":
                vecs = vecs.copy()
                vecs[0] = -vecs[0]
            if len(seen) == 2 and defect == "residual":
                history = history[:-1] + [np.array(2 * fokker_planck.LOBPCG_TOL)]
            return vals, vecs, history

        monkeypatch.setattr(spla, "lobpcg", defective_second_call)
        _search_every_candidate(fp_swirl_sparse)
        assert len(seen) == 4
        assert eigen_calls() == {"splu": 2, "eigsh": 1, "lobpcg": 4}

    @pytest.mark.parametrize("d, N, target", [(2, 34, -2.0), (1, 200, None)])
    def test_achieved_upper_brackets_the_dense_top(self, d, N, target):
        """The accepted Ritz value bounds the top eigenvalue from below (up
        to the dense solver's rounding) and ``achieved_upper`` from above."""
        disc = _swirl_disc(N) if d == 2 else FPDiscretization.build(
            FPGrid(d=1, L=8.0, N=N), Potential(2.0), EnlargedWeight("polynomial", 3.0))
        if target is None:
            target = 0.5 * spectral_gap_H(disc).lambda_gap
        result = find_decomposition(disc, target, m_grid=[1.0, 10.0], r_grid=[1.0, 2.0])
        assert result.found
        expected, scale = _dense_top(disc, result.M, result.R)
        assert result.achieved <= expected + 1e-13 * scale
        assert expected <= result.achieved_upper
        assert result.achieved_upper - result.achieved <= 1e-6 * abs(result.achieved)
        assert result.to_dict()["achieved_upper"] == result.achieved_upper
        assert result.constants()["achieved_upper"] == result.achieved_upper

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_sparse_and_dense_steppers_agree(self, fp_swirl_sparse, scheme):
        disc = fp_swirl_sparse
        f0 = initial_datum(disc, "heavy-tail")
        t_grid = np.linspace(0.0, 0.5, 26)
        sparse = np.stack(list(step_trajectory(disc.generator, f0, t_grid,
                                               scheme=scheme)))
        dense = np.stack(list(step_trajectory(disc.generator.toarray(), f0, t_grid,
                                              scheme=scheme)))
        npt.assert_array_equal(sparse, dense)


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts sparse LU factorizations; ARPACK's own factorization raises."""
    arpack = sys.modules["scipy.sparse.linalg._eigen.arpack.arpack"]

    def arpack_splu(*args, **kwargs):
        raise AssertionError("ARPACK factored the shifted matrix itself")

    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(arpack, "splu", arpack_splu)
    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


@pytest.fixture
def eigen_calls(splu_calls, monkeypatch):
    """A function returning the counts of sparse LU factorizations and of
    ``eigsh`` and ``lobpcg`` calls so far."""
    counts = {"eigsh": 0, "lobpcg": 0}
    for name in counts:
        def counting(*args, _name=name, _original=getattr(spla, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spla, name, counting)
    return lambda: {"splu": len(splu_calls), **counts}


class TestSparseFactorizationCount:
    def test_one_factorization_per_eigensolve(self, fp_swirl_sparse, eigen_calls):
        """The gap factors once; the whole search of an irreducible Metzler
        remainder shares one factorization and makes no Lanczos call."""
        disc = fp_swirl_sparse
        spectral_gap_H(disc)
        assert eigen_calls() == {"splu": 1, "eigsh": 1, "lobpcg": 0}
        # an unreachable target makes the search try every candidate
        result = find_decomposition(disc, -1e3, m_grid=[1.0, 10.0],
                                    r_grid=[1.0, 2.0])
        assert len(result.frontier) == 4
        assert eigen_calls() == {"splu": 2, "eigsh": 1, "lobpcg": 4}

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_one_factorization_per_trajectory(self, fp_swirl_sparse, splu_calls,
                                              scheme):
        disc = fp_swirl_sparse
        step_trajectory(disc.generator, initial_datum(disc, "heavy-tail"),
                        np.linspace(0.0, 0.5, 26), scheme=scheme)
        assert splu_calls == [(disc.grid.n_total,) * 2]


class TestStreamedDecay:
    """``decay_experiment`` reduces each streamed state as it arrives."""

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    @pytest.mark.parametrize("which", ["fp_small", "fp_swirl_sparse"])
    def test_matches_stacked_trajectory(self, request, which, scheme):
        disc = request.getfixturevalue(which)
        f0 = initial_datum(disc, "heavy-tail")
        t_grid = np.linspace(0.0, 0.5, 26)
        result = decay_experiment(disc, f0, t_grid, scheme=scheme)
        # oracle: the whole trajectory stacked, then reduced row by row
        traj = np.stack(list(step_trajectory(disc.generator, f0, t_grid, scheme=scheme)))
        hd = disc.grid.h ** disc.grid.d
        deviation = traj - (float(f0.sum() * hd) * disc.mu)[None, :]
        npt.assert_array_equal(result.mass, traj.sum(axis=1) * hd)
        npt.assert_array_equal(result.deviation_ambient,
                               [disc.space_ambient.norm(g) for g in deviation])
        npt.assert_array_equal(result.deviation_small,
                               [disc.space_small.norm(g) for g in deviation])

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_memory_does_not_grow_with_the_step_count(self, scheme):
        """From 50 to 400 steps the traced peak grows by a few numbers per
        sample; a stacked trajectory and its deviation would add 2 * 350 * n
        * 8 bytes."""
        disc = FPDiscretization.build(FPGrid(d=1, L=8.0, N=2000), Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        f0 = initial_datum(disc, "heavy-tail")

        def traced_peak(steps):
            t_grid = np.linspace(0.0, 0.01 * steps, steps + 1)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                decay_experiment(disc, f0, t_grid,
                                 scheme=scheme, pinned_rate=-1.0)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        growth = traced_peak(400) - traced_peak(50)
        assert growth < 2 * disc.grid.n_total * 8


class TestSparseOrdering:
    @staticmethod
    def _implicit_euler_matrix(disc):
        return (sp.identity(disc.grid.n_total, format="csc")
                - 0.02 * disc.generator).tocsc()

    def test_two_dimensional_stencil_fills_less_than_colamd(self, fp_swirl_sparse):
        lhs = self._implicit_euler_matrix(fp_swirl_sparse)
        ordered, default = sparse_lu(lhs), spla.splu(lhs)
        assert (ordered.L.nnz + ordered.U.nnz
                < 0.75 * (default.L.nnz + default.U.nnz))

    def test_tridiagonal_matrix_keeps_the_default_ordering(self, fp_small):
        lhs = self._implicit_euler_matrix(fp_small)
        npt.assert_array_equal(sparse_lu(lhs).perm_c, spla.splu(lhs).perm_c)
