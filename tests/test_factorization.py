import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidecay import factorization, generate_instance
from semidecay.config import DEFAULT_TOLERANCES
from semidecay.factorization import (SplitOperator, enlarged_resolvent,
                                     enlargement_bound_chain,
                                     injectivity_check, verify_factorization)
from semidecay.hypotheses import check_h4, sample_xi_region
from semidecay.spaces import EmbeddedSpacePair, operator_norm
from semidecay.spectral import resolvent_matrix


def line_samples(cert, n=9):
    ims = np.linspace(-2.0, 2.0, n)
    return cert.a + 1e-6 + 1j * ims


class TestEnlargedResolvent:
    def test_pinned_diagonal_hand_check(self, pinned_instance):
        split, pair = pinned_instance.split, pinned_instance.pair
        xi = -0.5
        b_inv = resolvent_matrix(split.part_b, xi)
        npt.assert_allclose(b_inv, np.diag([2.0, -1.0]), atol=1e-14)
        npt.assert_allclose(split.part_a @ b_inv, np.diag([0.0, -0.5]), atol=1e-14)
        u = enlarged_resolvent(split, pair, xi)
        npt.assert_allclose(u, np.diag([2.0, -2.0]), atol=1e-13)
        direct = np.linalg.inv(split.full - xi * np.eye(2))
        npt.assert_allclose(u, direct, atol=1e-13)

    def test_zero_regularizer_reduces_to_plain_resolvent(self, rng):
        full = -np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        split = SplitOperator.from_regularizer(full, np.zeros((5, 5)))
        pair = EmbeddedSpacePair.from_weights(np.ones(5), rng.uniform(1, 4, 5))
        u = enlarged_resolvent(split, pair, 0.5j)
        npt.assert_allclose(u, resolvent_matrix(full, 0.5j), atol=1e-12)

    def test_random_instance_on_the_line(self):
        inst = generate_instance(11, 8)
        cert = inst.certificate
        for xi in line_samples(cert, 5):
            u = enlarged_resolvent(inst.split, inst.pair, xi)
            resid = operator_norm((inst.split.full - xi * np.eye(8)) @ u - np.eye(8),
                                  inst.pair.ambient, inst.pair.ambient)
            assert resid <= 1e-9


class TestVerifyFactorization:
    def test_three_instance_families(self, pinned_instance, rng):
        report = verify_factorization(pinned_instance.split, pinned_instance.pair,
                                      line_samples(pinned_instance.certificate))
        assert report.max_identity_residual <= 1e-9
        assert report.max_inverse_mismatch <= 1e-9

        full = -2 * np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        trivial = SplitOperator.from_regularizer(full, np.zeros((6, 6)))
        pair = EmbeddedSpacePair.from_weights(np.ones(6), np.full(6, 2.0))
        report = verify_factorization(trivial, pair, [0.5 + 1j, 1.0, 2.0 - 0.5j])
        assert report.max_identity_residual <= 1e-9

        inst = generate_instance(23, 16)
        report = verify_factorization(inst.split, inst.pair,
                                      line_samples(inst.certificate))
        assert report.max_identity_residual <= 1e-9
        assert report.max_inverse_mismatch <= 1e-8

    def test_one_inverse_per_matrix_per_sample(self, monkeypatch):
        """B - xi and T - xi are each inverted once; R(xi) is the direct inverse."""
        calls = []

        def counting(matrix, xi, tol=DEFAULT_TOLERANCES):
            calls.append(xi)
            return resolvent_matrix(matrix, xi, tol)

        monkeypatch.setattr(factorization, "resolvent_matrix", counting)
        inst = generate_instance(23, 16)
        samples = line_samples(inst.certificate)
        report = verify_factorization(inst.split, inst.pair, samples)
        assert len(calls) == 2 * len(samples)
        assert report.max_inverse_mismatch <= 1e-8


class TestInjectivity:
    def test_pinned_passes_off_spectrum(self, pinned_instance):
        report = injectivity_check(pinned_instance.split, pinned_instance.pair, -0.5)
        assert report.passed
        assert report.sigma_min == pytest.approx(0.5, rel=1e-12)

    def test_excluded_center_fails_with_null_vector(self, pinned_instance):
        report = injectivity_check(pinned_instance.split, pinned_instance.pair, 0.0)
        assert not report.passed
        assert report.sigma_min <= 1e-14
        npt.assert_allclose(np.abs(report.null_vector), [1.0, 0.0], atol=1e-12)
        assert report.note is not None

    def test_random_instance_on_scan_line(self):
        inst = generate_instance(5, 12)
        for xi in line_samples(inst.certificate, 4):
            report = injectivity_check(inst.split, inst.pair, xi)
            assert report.passed


class TestBoundChain:
    def test_zero_regularizer_chain_equals_direct(self, rng):
        full = -np.eye(4) - np.diag([0.0, 1.0, 2.0, 3.0])
        split = SplitOperator.from_regularizer(full, np.zeros((4, 4)))
        pair = EmbeddedSpacePair.from_weights(rng.uniform(0.5, 1.0, 4),
                                              rng.uniform(1.0, 3.0, 4))
        samples = [0.3 + 0.2j, 1.0, 0.5 - 1j]
        report = enlargement_bound_chain(split, pair, samples)
        npt.assert_allclose(report.chain_values, report.direct_values, rtol=1e-12)
        assert report.dominated

    def test_pinned_diagonal_arithmetic(self, pinned_instance):
        report = enlargement_bound_chain(pinned_instance.split,
                                         pinned_instance.pair, [-0.5])
        # ||B(xi)^{-1}|| + c_J ||R(xi)|| ||A B(xi)^{-1}|| = 2 + 1 * 2 * 0.5
        assert report.chain_values[0] == pytest.approx(3.0, rel=1e-12)
        assert report.direct_values[0] == pytest.approx(2.0, rel=1e-12)
        assert report.dominated

    @given(seed=st.integers(2, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_domination_on_random_seeds(self, seed):
        inst = generate_instance(seed, 8)
        cert = inst.certificate
        samples = sample_xi_region(cert.a, cert.r, list(cert.xi),
                                   n_line=5, n_circle=6, grid_shape=(3, 3))
        report = enlargement_bound_chain(inst.split, inst.pair, samples)
        assert report.dominated
        assert report.certified_bound >= report.direct_sup


class TestShiftCovariance:
    def test_shift_moves_spectrum_and_preserves_norms(self):
        inst = generate_instance(3, 10)
        cert = inst.certificate
        sigma = 0.37
        eye = np.eye(10)
        shifted = SplitOperator(full=inst.split.full + sigma * eye,
                                part_a=inst.split.part_a,
                                part_b=inst.split.part_b + sigma * eye)
        samples = line_samples(cert, 5)
        base = check_h4(inst.split, inst.pair, cert.a, cert.r, list(cert.xi),
                        samples=samples)
        moved = check_h4(shifted, inst.pair, cert.a + sigma, cert.r,
                         [x + sigma for x in cert.xi], samples=samples + sigma)
        # resolvents at shifted points are equal matrices, so all bounds agree
        assert moved.sup_b_inverse == pytest.approx(base.sup_b_inverse, rel=1e-12)
        assert moved.sup_a_b_inverse == pytest.approx(base.sup_a_b_inverse, rel=1e-12)
        assert moved.sup_b_inverse_a == pytest.approx(base.sup_b_inverse_a, rel=1e-12)

        chain_base = enlargement_bound_chain(inst.split, inst.pair, samples)
        chain_moved = enlargement_bound_chain(shifted, inst.pair, samples + sigma)
        assert chain_moved.certified_bound == pytest.approx(
            chain_base.certified_bound, rel=1e-12)


def test_split_operator_rejects_inconsistent_parts():
    with pytest.raises(ValueError):
        SplitOperator(full=np.eye(3), part_a=np.eye(3), part_b=np.eye(3))
