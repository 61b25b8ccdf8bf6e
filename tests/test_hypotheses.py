from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from semidecay.equivalence import verify_decay_from_resolvent
from semidecay.errors import SingularityError
from semidecay.factorization import SplitOperator
from semidecay import generate_instance, hypotheses
from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential, SwirlField, find_decomposition,
                                     spectral_gap_H)
from semidecay.hypotheses import (check_h1, check_h2, check_h3, check_h4, make_y_grid,
                                  sample_xi_region)
from semidecay.reports import FAIL, INDETERMINATE, PASS
from semidecay.certify import rounding_margin, spectral_norms
from semidecay.spaces import (EmbeddedSpacePair, WeightedSpace, operator_norm,
                              weighted_congruence)
from semidecay.spectral import eigen_decompose, resolvent_matrix

from helpers import cluster_union_find, split_matrices


class TestH1:
    def test_clusters_match_union_find(self, rng):
        # points on a 0.1 lattice put many pair distances at the radius
        for trial in range(300):
            n = int(rng.integers(1, 25))
            points = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
            if trial % 2:
                points = np.round(points, 1)
            radius = float(np.round(rng.uniform(0.05, 1.5), 1 + trial % 2))
            groups = hypotheses._cluster(points, radius)
            expected = cluster_union_find(points, radius)
            assert len(groups) == len(expected)
            for got, want in zip(groups, expected):
                npt.assert_array_equal(got, want)

    def test_two_point_spectrum_passes(self):
        t_mat = np.diag([0.0, -1.0])
        report = check_h1(eigen_decompose(t_mat), a=-0.5, r=0.25)
        assert report.verdict == PASS
        assert report.discrete_eigs == [0.0 + 0.0j]
        # the decay transfer builds the projector of the surviving mode
        space = WeightedSpace(np.ones(2))
        transfer = verify_decay_from_resolvent(t_mat, space, report, -0.9)
        npt.assert_allclose(transfer.certificate.projectors[0], np.diag([1.0, 0.0]),
                            atol=1e-12)

    def test_undeclared_eigenvalue_in_half_plane_fails(self):
        t_mat = np.diag([0.0, -0.4])
        report = check_h1(eigen_decompose(t_mat), a=-0.5, r=0.25, expected_k=1)
        assert report.verdict == FAIL
        assert report.witness is not None

    def test_eigenvalue_on_the_line_is_indeterminate(self):
        t_mat = np.diag([0.0, -0.5])
        report = check_h1(eigen_decompose(t_mat), a=-0.5, r=0.2)
        assert report.verdict == INDETERMINATE

    def test_ball_touching_the_line_fails(self):
        # group center at -0.2 with r = 0.4 is not strictly inside Re > -0.5
        t_mat = np.diag([-0.2, -2.0])
        report = check_h1(eigen_decompose(t_mat), a=-0.5, r=0.4)
        assert report.verdict == FAIL

    def test_drift_diffusion_generator(self, fp_small):
        gap = spectral_gap_H(fp_small)
        t_dense = fp_small.dense_generator()
        report = check_h1(eigen_decompose(t_dense), a=0.5 * gap.lambda_gap,
                          r=0.1 * abs(gap.lambda_gap))
        assert report.verdict == PASS
        assert len(report.discrete_eigs) == 1
        assert abs(report.discrete_eigs[0]) <= 1e-8


class TestH2:
    def test_diagonal_bound_attained_at_origin(self):
        t_mat = np.diag([0.0, -1.0])
        report = check_h2(t_mat, -0.5, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        assert report.bound == pytest.approx(2.0, rel=1e-12)
        assert report.argmax_y == 0.0
        assert report.certified_bound >= report.bound
        assert report.verdict == PASS and report.witness is None
        assert report.constants() == {
            "K": report.bound, "K_certified": report.certified_bound,
            "argmax_y": 0.0, "tail_bound": report.tail_bound,
            "tail_valid_from": report.tail_valid_from,
            "shifted_norm": report.shifted_norm, "n_grid": len(report.y_grid),
            "n_uncertified_segments": 0}

    def test_uncertified_segments_are_indeterminate(self, monkeypatch):
        # the sampled maximum is finite, but depth-1 bisection leaves
        # segments where the Lipschitz certificate does not close
        monkeypatch.setattr(hypotheses, "MAX_REFINE_DEPTH", 1)
        t_mat = np.array([[-1.0, 50.0], [0.0, -1.1]])
        report = check_h2(t_mat, 0.0, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        assert np.isfinite(report.bound)
        assert len(report.uncertified_segments) == 58
        assert report.verdict == INDETERMINATE
        assert report.witness == (f"certified bound {report.certified_bound:.6e}, "
                                  "58 uncertified segments")

    def test_normal_operator_bound_is_inverse_distance(self, rng):
        lams = np.array([0.5 + 2j, -1.0 - 1j, -2.0 + 0.5j])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        t_mat = q @ np.diag(lams) @ q.conj().T
        a_line = -0.4
        report = check_h2(t_mat, a_line, WeightedSpace(np.ones(3)), eigen_decompose(t_mat)[0])
        oracle = 1.0 / np.min(np.abs(lams.real - a_line))
        assert report.bound == pytest.approx(oracle, rel=1e-9)

    def test_nonnormal_amplification(self):
        # oracle: dense SVD per grid point, far above the normal prediction
        t_mat = np.array([[-1.0, 10.0], [0.0, -1.1]])
        a_line = -0.5
        report = check_h2(t_mat, a_line, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        y_oracle = report.y_grid
        oracle = max(1.0 / np.linalg.svd(t_mat - (a_line + 1j * y) * np.eye(2),
                                         compute_uv=False)[-1]
                     for y in y_oracle)
        assert report.bound == pytest.approx(oracle, rel=1e-12)
        assert report.bound > 5.0 * (1.0 / 0.5)

    def test_eigenvalue_on_scan_line_raises(self):
        t_mat = np.diag([0.0, -1.0])
        with pytest.raises(SingularityError):
            check_h2(t_mat, 0.0, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])

    def test_weighted_scan(self):
        space = WeightedSpace([1.0, 9.0])
        t_mat = np.array([[0.0, 1.0], [0.0, -1.0]])
        report = check_h2(t_mat, -0.5, space, eigen_decompose(t_mat)[0])
        scaling = np.diag([1.0, 3.0])
        oracle = max(np.linalg.norm(
            np.linalg.inv(scaling @ (t_mat - (-0.5 + 1j * y) * np.eye(2))
                          @ np.linalg.inv(scaling)), 2) for y in report.y_grid)
        assert report.bound == pytest.approx(oracle, rel=1e-11)

    def test_y_grid_is_symmetric_and_refined_near_zero(self):
        grid = make_y_grid(5.0, 50.0)
        npt.assert_allclose(grid, -grid[::-1], atol=0.0)
        positive = grid[(grid > 0) & (grid <= 5.0)]
        spacings = np.diff(np.concatenate([[0.0], positive]))
        assert spacings[0] < spacings[-1]


def _dense_line_norms(scaled, ys):
    """Oracle: one dense SVD of ``S - iyI`` per y."""
    eye = np.eye(scaled.shape[0])
    return np.array([1.0 / np.linalg.svd(scaled - 1j * y * eye, compute_uv=False)[-1]
                     for y in ys])


def _fp_line(grid, swirl=None, ambient=False):
    disc = FPDiscretization.build(grid, Potential(2.0), EnlargedWeight("polynomial", 3.0),
                                  swirl=swirl)
    a_line = 0.5 * spectral_gap_H(disc).lambda_gap
    space = disc.space_ambient if ambient else disc.space_small
    matrix = np.asarray(disc.dense_generator(), dtype=complex)
    scaled = weighted_congruence(matrix, space, space) - a_line * np.eye(len(matrix))
    return matrix, a_line, space, scaled


class TestH2LineKernel:
    """The banded Gram kernel against the dense SVD it replaces."""

    @pytest.mark.parametrize("ambient", [False, True], ids=["small", "ambient"])
    def test_fp_scan_matches_dense_oracle(self, ambient):
        matrix, a_line, space, scaled = _fp_line(FPGrid(d=1, L=8.0, N=120),
                                                 ambient=ambient)
        report = check_h2(matrix, a_line, space, eigen_decompose(matrix)[0])
        dense = _dense_line_norms(scaled, report.y_grid)
        if not ambient:
            # the scan takes the Hermitian path here (see TestH2HermitianLine);
            # the band kernel itself still meets the oracle on this matrix
            band = hypotheses._GramBand(scaled, 1)
            sigmas = [band.sigma_min(abs(y)) for y in report.y_grid]
            assert None not in sigmas
            npt.assert_allclose(1.0 / np.array(sigmas), dense, rtol=1e-12, atol=0.0)
            return
        line = hypotheses._ShiftedLine(scaled)
        assert line.mirrored and line.band is not None and line.nearest is None
        npt.assert_allclose(report.norms, dense, rtol=1e-12, atol=0.0)
        # every grid value came from the band kernel, not its SVD fallback
        assert all(line.band.sigma_min(abs(y)) is not None for y in report.y_grid)

    def test_2d_swirl_matches_dense_oracle(self):
        _, _, _, scaled = _fp_line(FPGrid(d=2, L=8.0, N=16),
                                   swirl=SwirlField("inverse_linear", 1.0), ambient=True)
        line = hypotheses._ShiftedLine(scaled)
        assert line.mirrored and line.band is not None
        ys = np.concatenate([np.linspace(0.0, 4.0, 17), [10.0, 100.0]])
        sigmas = [line.band.sigma_min(y) for y in ys]
        assert None not in sigmas
        npt.assert_allclose(1.0 / np.array(sigmas), _dense_line_norms(scaled, ys),
                            rtol=1e-12, atol=0.0)

    def test_nearly_equal_smallest_singular_values(self, rng):
        # two decoupled diagonal entries 1 and 1 + 1e-9 give the two smallest
        # singular values of S - iyI at every y; a 1e-6 band couples them
        n, b = 60, 2
        scaled = np.diag(3.0 + rng.random(n)).astype(complex)
        scaled[5, 5], scaled[40, 40] = 1.0, 1.0 + 1e-9
        for k in range(-b, b + 1):
            noise = rng.standard_normal(n - abs(k)) + 1j * rng.standard_normal(n - abs(k))
            scaled += 1e-6 * np.diag(noise, k)
        ys = np.linspace(-3.0, 3.0, 25)
        sv = np.linalg.svd(scaled, compute_uv=False)
        assert sv[-2] - sv[-1] < 1e-5 * sv[-1]
        line = hypotheses._ShiftedLine(scaled)
        assert not line.mirrored and line.band is not None
        sigmas = [line.band.sigma_min(y) for y in ys]
        assert None not in sigmas
        npt.assert_allclose(1.0 / np.array(sigmas), _dense_line_norms(scaled, ys),
                            rtol=1e-12, atol=0.0)

    def test_diagonal_operator_takes_exact_values(self):
        # the shift equals an exact eigenvalue of the diagonal Gram band, so
        # the inverse iteration may meet a singular solve and fall back
        scaled = np.diag([-0.5, -1.5, -0.75 + 2.0j, -3.0]).astype(complex)
        scaled = np.kron(np.eye(3), scaled)
        ys = np.linspace(-4.0, 4.0, 33)
        line = hypotheses._ShiftedLine(scaled)
        assert line.band is not None
        assert any(line.band.sigma_min(y) is None for y in ys)
        values = [hypotheses._line_norm(line, y) for y in ys]
        npt.assert_array_equal(values, hypotheses._dense_line_norms(scaled, ys))


    def test_reused_shifts_on_the_scan_walk_match_the_oracles(self, monkeypatch):
        """The fp_d1_scan ambient line at N=200, walked in check_h2's own
        order: every grid and bisection |y|, the 200 spurious heights up to
        2.5e-7 among them. Reused shifts meet the dense SVD and a kernel
        that anchors at every point, and a fresh kernel replays the walk bit
        for bit."""
        matrix, a_line, space, scaled = _fp_line(FPGrid(d=1, L=8.0, N=200), ambient=True)
        walk, line_norm = [], hypotheses._line_norm

        def recording(line, y):
            walk.append((y, line_norm(line, y)))
            return walk[-1][1]

        monkeypatch.setattr(hypotheses, "_line_norm", recording)
        check_h2(matrix, a_line, space, np.linalg.eigvals(matrix))
        ys, values = (np.array(column) for column in zip(*walk))
        assert 200 <= len(ys) <= 300 and np.sum((ys > 0.0) & (ys <= 2.5e-7)) == 200
        npt.assert_allclose(values, _dense_line_norms(scaled, ys), rtol=1e-12, atol=0.0)
        replay = hypotheses._ShiftedLine(scaled).band
        npt.assert_array_equal(1.0 / np.array([replay.sigma_min(y) for y in ys]), values)
        every_point = hypotheses._GramBand(scaled, 1)
        anchored = []
        for y in ys:
            every_point.anchor = None
            anchored.append(every_point.sigma_min(y))
        npt.assert_allclose(1.0 / np.array(anchored), values, rtol=1e-13, atol=0.0)

    def test_one_factorization_per_band_evaluation(self, monkeypatch, gram_bands):
        """The fp_d1_scan ambient line at N=200 in check_h2's own walk: each
        band evaluation factors its shifted band once (two banded solves
        each refactored it before), 49 anchors serve the 249 evaluations,
        and none falls back to the SVD."""
        matrix, a_line, space, _ = _fp_line(FPGrid(d=1, L=8.0, N=200), ambient=True)
        evaluations, line_norm = [], hypotheses._line_norm

        def counting(line, y):
            evaluations.append(y)
            return line_norm(line, y)

        monkeypatch.setattr(hypotheses, "_line_norm", counting)
        check_h2(matrix, a_line, space, np.linalg.eigvals(matrix))
        band, = gram_bands
        assert len(evaluations) == 249
        assert band.factorizations == 249
        assert band.anchors == 49 and band.fallbacks == 0

    def test_a_shift_weyl_cannot_keep_takes_a_new_anchor(self):
        """At y = 0 the Gram eigenvalues nearest 0 are 0.09 and 1.0001; at
        y = 1 they are 0.0001 and 0.09, so the anchor's smallest one lies
        nearer the second than the first. A nearby y reuses the shift."""
        n = 40
        diagonal = np.full(n, -3.0, dtype=complex)
        diagonal[5], diagonal[20], diagonal[30] = -0.3, -0.01 + 1.0j, -0.3 + 1.0j
        coupling = 1e-3 * np.ones(n - 1)
        scaled = np.diag(diagonal) + np.diag(coupling, 1) + np.diag(coupling, -1)
        eye = np.eye(n)
        gram = lambda y: (scaled - 1j * y * eye).conj().T @ (scaled - 1j * y * eye)
        anchor_low = np.linalg.eigvalsh(gram(0.0))[0]
        low, second = np.linalg.eigvalsh(gram(1.0))[:2]
        assert abs(anchor_low - second) < abs(anchor_low - low)

        band = hypotheses._GramBand(scaled, 1)
        ys = [0.0, 0.01, 1.0]
        counts = []
        sigmas = []
        for y in ys:
            sigmas.append(band.sigma_min(y))
            counts.append(band.anchors)
        assert counts == [1, 1, 2] and band.anchor[0] == 1.0
        npt.assert_allclose(1.0 / np.array(sigmas), _dense_line_norms(scaled, ys),
                            rtol=1e-12, atol=0.0)

    def test_one_by_one_line_has_no_second_eigenvalue(self):
        # the shift is the exact eigenvalue, so gbtrf meets a zero pivot and
        # the value comes from the SVD fallback, with no warning
        t_mat = np.array([[-1.0 + 1.0j]])
        report = check_h2(t_mat, -0.5, WeightedSpace(np.ones(1)),
                          eigen_decompose(t_mat)[0])
        npt.assert_allclose(report.norms, 1.0 / np.abs(-0.5 + 1.0j - 1j * report.y_grid),
                            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_banded_lines_match_the_svd(self, n, capfd):
        # a diagonal line is banded at any n; its iterate is n x min(n, 2),
        # and LAPACK reports a wider block on stdout as an illegal value
        scaled = np.diag([-0.5 + 0.1j, -1.5 - 0.05j, -3.0 + 0.02j][:n])
        ys = np.linspace(-3.0, 3.0, 25)
        line = hypotheses._ShiftedLine(scaled)
        assert line.band is not None and line.nearest is None
        values = [hypotheses._line_norm(line, y) for y in ys]
        npt.assert_allclose(values, _dense_line_norms(scaled, ys), rtol=1e-12, atol=0.0)
        assert "illegal value" not in capfd.readouterr().out
        assert line.band.factorizations > line.band.fallbacks

    @pytest.mark.parametrize("d,swirl,ambient", [
        (1, None, False), (1, None, True),
        (2, SwirlField("inverse_linear", 1.0), False),
        (2, SwirlField("inverse_linear", 1.0), True)],
        ids=["1d-small", "1d-ambient", "2d-small", "2d-ambient"])
    def test_banded_shifted_norm_is_an_upper_bound(self, d, swirl, ambient):
        grid = FPGrid(d=d, L=8.0, N=120 if d == 1 else 16)
        _, _, _, scaled = _fp_line(grid, swirl=swirl, ambient=ambient)
        line = hypotheses._ShiftedLine(scaled)
        # the band gives the norm: a Hermitian line's closed form, else the kernel
        assert (line.band is None) == (line.nearest is not None)
        assert line.norm >= np.linalg.svd(scaled, compute_uv=False)[0]
        margin = rounding_margin(scaled)
        dense = spectral_norms(scaled[None])[0] * (1.0 + margin)
        assert abs(line.norm - dense) <= margin * dense


class TestH2HermitianLine:
    """Lines Hermitian up to rounding: one spectrum, then a bound per y."""

    def test_small_space_scan_is_a_certified_upper_bound(self):
        matrix, a_line, space, scaled = _fp_line(FPGrid(d=1, L=8.0, N=120))
        line = hypotheses._ShiftedLine(scaled)
        assert line.nearest is not None and line.defect > 0.0
        report = check_h2(matrix, a_line, space, eigen_decompose(matrix)[0])
        dense = _dense_line_norms(scaled, report.y_grid)
        values = report.norms
        assert np.all(dense <= values)
        assert np.all(values <= dense * (1.0 + 2.0 * line.defect * values))

    def test_swirl_small_space_keeps_the_band_kernel(self):
        _, _, _, scaled = _fp_line(FPGrid(d=2, L=8.0, N=16),
                                   swirl=SwirlField("inverse_linear", 1.0))
        line = hypotheses._ShiftedLine(scaled)
        assert line.nearest is None and line.band is not None
        ys = np.array([0.0, 0.5, 2.0, 10.0])
        values = [hypotheses._line_norm(line, y) for y in ys]
        npt.assert_allclose(values, _dense_line_norms(scaled, ys), rtol=1e-12, atol=0.0)

    def test_skew_perturbation_keeps_the_band_kernel(self):
        _, _, _, scaled = _fp_line(FPGrid(d=1, L=8.0, N=120))
        n = scaled.shape[0]
        skew = np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
        perturbed = scaled + 1e-8 * skew
        line = hypotheses._ShiftedLine(perturbed)
        assert line.nearest is None and line.band is not None
        ys = np.array([0.0, 0.1, 1.0, 50.0])
        values = [hypotheses._line_norm(line, y) for y in ys]
        npt.assert_allclose(values, _dense_line_norms(perturbed, ys), rtol=1e-12, atol=0.0)

    def test_unclosed_margin_falls_back_to_the_exact_norm(self):
        # a defect larger than the distance to the spectrum leaves no bound,
        # so the value is the SVD's: a Hermitian line has no band kernel
        scaled = np.diag([-0.5, -1.5, -3.0]).astype(complex)
        line = hypotheses._ShiftedLine(scaled)
        assert line.nearest == 0.5 and line.band is None
        line.defect = 1.0
        ys = np.array([0.0, 0.3, 0.6])
        values = [hypotheses._line_norm(line, y) for y in ys]
        npt.assert_array_equal(values, hypotheses._dense_line_norms(scaled, ys))


class TestH2Mirror:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The y of every line evaluation, one at a time or stacked."""
        calls = []
        line_norm, dense_line_norms = hypotheses._line_norm, hypotheses._dense_line_norms

        def recording(line, y):
            calls.append(float(y))
            return line_norm(line, y)

        def recording_dense(scaled, ys):
            calls.extend(float(y) for y in ys)
            return dense_line_norms(scaled, ys)

        monkeypatch.setattr(hypotheses, "_line_norm", recording)
        monkeypatch.setattr(hypotheses, "_dense_line_norms", recording_dense)
        return calls

    def test_real_operator_is_evaluated_once_per_abs_y(self, evaluated):
        t_mat = np.array([[-1.0, 10.0], [0.0, -1.1]])
        report = check_h2(t_mat, -0.5, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        assert min(evaluated) >= 0.0
        assert len(evaluated) == len(set(evaluated))
        assert set(np.abs(report.y_grid)) <= set(evaluated)
        npt.assert_array_equal(report.norms, report.norms[::-1])

    def test_complex_operator_is_evaluated_at_both_signs(self, evaluated):
        t_mat = np.array([[-1.0 + 1.0j, 5.0], [0.0, -2.0]])
        report = check_h2(t_mat, -0.5, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        ys = report.y_grid
        assert set(ys) <= set(evaluated)
        oracle = _dense_line_norms(t_mat + 0.5 * np.eye(2), ys)
        npt.assert_allclose(report.norms, oracle, rtol=1e-12, atol=0.0)
        # the eigenvalue height +1 is on the grid, and its mirror is not a peak
        at = {y: norm for y, norm in zip(ys, report.norms)}
        assert at[1.0] > 1.5 * at[-1.0]



class TestH3:
    def test_contraction_with_neutral_mode(self):
        t_mat = np.diag([0.0, -1.0])
        report = check_h3(t_mat, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        assert report.fit.prefactor == pytest.approx(1.0, rel=1e-9)
        assert report.fit.rate == pytest.approx(0.0, abs=1e-9)

    def test_zero_generator(self):
        t_mat = np.zeros((3, 3))
        report = check_h3(t_mat, WeightedSpace(np.ones(3)), eigen_decompose(t_mat)[0])
        assert report.fit.prefactor == pytest.approx(1.0, rel=1e-12)
        assert report.fit.rate == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("prefactor,rate", [(np.inf, -0.1), (1.0, np.nan)])
    def test_non_finite_fit_is_indeterminate(self, prefactor, rate):
        t_mat = np.diag([0.0, -1.0])
        report = check_h3(t_mat, WeightedSpace(np.ones(2)), eigen_decompose(t_mat)[0])
        assert report.verdict == PASS
        broken = replace(report, fit=replace(report.fit, prefactor=prefactor,
                                             rate=rate))
        assert broken.verdict == INDETERMINATE

    def test_single_real_part_spectrum_has_a_finite_horizon(self):
        """Zero spread put the horizon at 5 / 1e-2 and e^{1.5 t} overflowed
        there; the floor 1e-2 max(1, max |Re lambda|) of the spread keeps
        e^{t Re lambda} below e^500 on the horizon."""
        report = check_h3(np.array([[1.5]]), WeightedSpace(np.ones(1)), np.array([1.5]))
        assert report.verdict == PASS
        assert report.t_grid[-1] == pytest.approx(5.0 / 0.015, rel=1e-12)
        assert report.fit.rate == pytest.approx(1.5, rel=1e-9)

    def test_shift_moves_rate_exactly(self):
        # the default grid depends only on the spread of the real parts
        # while it stays above its floor, and the shift leaves it unchanged
        t_mat = np.diag([0.0, -1.0])
        space = WeightedSpace(np.ones(2))
        base = check_h3(t_mat, space, eigen_decompose(t_mat)[0])
        shifted_mat = t_mat + 0.3 * np.eye(2)
        shifted = check_h3(shifted_mat, space, eigen_decompose(shifted_mat)[0])
        npt.assert_array_equal(shifted.t_grid, base.t_grid)
        assert shifted.fit.rate - base.fit.rate == pytest.approx(0.3, abs=1e-9)
        assert shifted.fit.prefactor == pytest.approx(base.fit.prefactor, rel=1e-9)


class TestH4:
    def test_trivial_split_passes_with_zero_mixed_norms(self):
        full = np.diag([-1.0, -2.0])
        split = SplitOperator.from_regularizer(full, np.zeros((2, 2)))
        pair = EmbeddedSpacePair.from_weights(np.ones(2), np.ones(2))
        report = check_h4(split, pair, sample_xi_region(-0.5, 0.1, []))
        assert report.verdict == PASS
        assert report.sup_a_b_inverse == 0.0
        assert report.sup_b_inverse_a == 0.0

    def test_pinned_diagonal_arithmetic(self, pinned_instance):
        split, pair = pinned_instance.split, pinned_instance.pair
        report = check_h4(split, pair, [-0.5 + 0.0j])
        assert report.verdict == PASS
        assert report.sup_b_inverse == pytest.approx(2.0, rel=1e-12)

    def test_singular_sample_fails_with_witness(self, pinned_instance):
        split, pair = pinned_instance.split, pinned_instance.pair
        # xi = 0 is an eigenvalue of the coercive part (inside the excluded ball)
        report = check_h4(split, pair, [0.0 + 0.0j])
        assert report.verdict == FAIL
        assert "singular" in report.witness

    def test_cutoff_regularizer_mixed_norm_bound(self):
        """Mixed norm of A B(xi)^{-1} obeys the cutoff-weight bound."""
        grid = FPGrid(d=1, L=8.0, N=200)
        disc = FPDiscretization.build(grid, Potential(2.0),
                                      EnlargedWeight("polynomial", 3.0))
        gap = spectral_gap_H(disc)
        decomp = find_decomposition(disc, 0.5 * gap.lambda_gap)
        assert decomp.found
        gen, part_a, part_b = split_matrices(decomp, disc)
        split = SplitOperator(full=gen.toarray(), part_a=part_a.toarray(),
                              part_b=part_b.toarray())
        pair = EmbeddedSpacePair(disc.space_ambient, disc.space_small)
        xi = 0.5 * gap.lambda_gap + 1e-6 + 0.3j
        b_inv = resolvent_matrix(split.part_b, xi)
        mixed = operator_norm(split.part_a @ b_inv, pair.ambient, pair.small)
        support = disc.grid.flat_coordinate() <= decomp.R
        lift = np.sqrt(np.max(disc.space_small.weights[support]
                              / disc.space_ambient.weights[support]))
        bound = decomp.M * lift * operator_norm(b_inv, pair.ambient, pair.ambient)
        assert mixed <= bound * (1 + 1e-10)


def test_sampled_region_avoids_balls_and_line():
    samples = sample_xi_region(-0.75, 0.25, [0.0 + 0.0j])
    assert len(samples) >= 25
    assert np.all(samples.real > -0.75)
    assert np.all(np.abs(samples - 0.0) > 0.25)


def test_the_two_samples_keep_their_sizes():
    """The full and the thin H4 sample of testbed seed 1 are the 291- and
    53-point samples of every earlier testbed report."""
    cert = generate_instance(1, 16).certificate
    full = sample_xi_region(cert.a, cert.r, list(cert.xi))
    thin = sample_xi_region(cert.a, cert.r, list(cert.xi), thin=True)
    assert (hypotheses.FULL_SAMPLE, hypotheses.THIN_SAMPLE) == ((21, 16, (16, 16)),
                                                                (9, 8, (6, 6)))
    assert (len(full), len(thin)) == (291, 53)
