import numpy as np
import numpy.testing as npt
import pytest

from helpers import decay_certificate, laplace_ratios
from semidecay import equivalence, generate_instance
from semidecay.equivalence import (DecayCertificate, verify_decay_from_resolvent,
                                   verify_resolvent_from_decay)
from semidecay.errors import CertificateError
from semidecay.hypotheses import check_h1
from semidecay.reports import FAIL, PASS
from semidecay.spaces import WeightedSpace, operator_norm
from semidecay.spectral import eigen_decompose


def diag_report():
    t_mat = np.diag([0.0, -1.0])
    return check_h1(eigen_decompose(t_mat), a=-0.9, r=0.25)


class TestDecayFromResolvent:
    def test_two_point_pass(self):
        t_mat = np.diag([0.0, -1.0])
        report = diag_report()
        space = WeightedSpace(np.ones(2))
        transfer = verify_decay_from_resolvent(t_mat, space, report, -0.9)
        assert transfer.verdict == PASS
        assert transfer.fit.rate == pytest.approx(-1.0, abs=1e-6)
        # the deflated propagator is exactly e^{-t} on the second mode
        npt.assert_allclose(transfer.deviation_norms,
                            np.exp(-transfer.t_grid), rtol=1e-9)

    def test_rate_below_true_decay_fails(self):
        t_mat = np.diag([0.0, -1.0])
        report = diag_report()
        space = WeightedSpace(np.ones(2))
        transfer = verify_decay_from_resolvent(t_mat, space, report, -1.1)
        assert transfer.verdict == FAIL

    def test_transient_growth_passes_with_large_prefactor(self):
        t_mat = np.array([[-1.0, 10.0], [0.0, -2.0]])
        space = WeightedSpace(np.ones(2))
        # k=0 configuration: no surviving modes above a=-0.95, so the
        # undeflated semigroup norm itself must obey the envelope
        report0 = check_h1(eigen_decompose(t_mat), a=-0.95, r=0.01)
        assert report0.discrete_eigs == []
        transfer = verify_decay_from_resolvent(t_mat, space, report0, -0.9)
        assert transfer.verdict == PASS
        assert transfer.fit.rate == pytest.approx(-1.0, abs=0.05)
        assert transfer.certificate.prefactor > 1.0


class TestResolventFromDecay:
    def test_two_point_certificate_passes(self):
        t_mat = np.diag([0.0, -1.0])
        space = WeightedSpace(np.ones(2))
        cert = DecayCertificate(level=-1.0, prefactor=1.0,
                                discrete_eigs=[0.0 + 0.0j],
                                projectors=[np.diag([1.0, 0.0])], space=space)
        report = verify_resolvent_from_decay(t_mat, eigen_decompose(t_mat), cert)
        assert report.verdict == PASS
        assert report.laplace_max_ratio <= 1.0 + 1e-6
        assert report.h1.verdict == PASS
        assert report.commutation_defect == 0.0

    def test_wrong_projector_rejected_by_laplace_bound(self):
        # commutes with the diagonal semigroup but misattributes the modes
        t_mat = np.diag([0.0, -1.0])
        space = WeightedSpace(np.ones(2))
        cert = DecayCertificate(level=-1.0, prefactor=1.0,
                                discrete_eigs=[0.0 + 0.0j],
                                projectors=[np.diag([0.0, 1.0])], space=space)
        report = verify_resolvent_from_decay(t_mat, eigen_decompose(t_mat), cert)
        assert report.verdict == FAIL
        assert "Laplace" in report.witness

    def test_noncommuting_projector_rejected_outright(self):
        t_mat = np.diag([0.0, -1.0])
        space = WeightedSpace(np.ones(2))
        cert = DecayCertificate(level=-1.0, prefactor=1.0,
                                discrete_eigs=[0.0 + 0.0j],
                                projectors=[np.array([[1.0, 1.0], [0.0, 0.0]])],
                                space=space)
        with pytest.raises(CertificateError):
            verify_resolvent_from_decay(t_mat, eigen_decompose(t_mat), cert)

    def test_certificate_without_projectors_is_rejected(self):
        space = WeightedSpace(np.ones(2))
        cert = DecayCertificate(level=-1.0, prefactor=1.0,
                                discrete_eigs=[0.0 + 0.0j], projectors=[], space=space)
        t_mat = np.diag([0.0, -1.0])
        with pytest.raises(CertificateError, match="1 discrete eigenvalues but 0"):
            verify_resolvent_from_decay(t_mat, eigen_decompose(t_mat), cert)

    def test_norms_are_taken_in_the_certificate_space(self):
        """The Laplace ratio is measured in ``certificate.space``: it matches
        a direct inverse measured there, and not the unweighted one."""
        t_mat = np.array([[0.0, 0.0], [1.0, -1.0]])
        space = WeightedSpace(np.array([1.0, 100.0]))
        spectrum = eigen_decompose(t_mat)
        h1 = check_h1(spectrum, a=-0.5, r=0.25)
        cert = verify_decay_from_resolvent(t_mat, space, h1, -0.4).certificate
        report = verify_resolvent_from_decay(t_mat, spectrum, cert)
        ratios = {}
        for name, norm_space in (("weighted", space),
                                 ("unweighted", WeightedSpace(np.ones(2)))):
            worst = 0.0
            for z in report.z_samples:
                lhs = np.linalg.inv(t_mat - z * np.eye(2)) - sum(
                    p / (xi - z) for xi, p in zip(cert.discrete_eigs, cert.projectors))
                worst = max(worst, operator_norm(lhs, norm_space, norm_space)
                            * (z.real - cert.level) / cert.prefactor)
            ratios[name] = worst
        assert report.laplace_max_ratio == pytest.approx(ratios["weighted"], rel=1e-10)
        assert ratios["unweighted"] != pytest.approx(ratios["weighted"], rel=1e-3)

    def test_round_trip_on_random_normal_instances(self, rng):
        for _ in range(8):
            lams = np.concatenate([[0.0], rng.uniform(-3.0, -1.0, 5)])
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            t_mat = q @ np.diag(lams) @ q.T
            space = WeightedSpace(np.ones(6))
            spectrum = eigen_decompose(t_mat)
            h1 = check_h1(spectrum, a=-0.5, r=0.2)
            assert h1.verdict == PASS
            transfer = verify_decay_from_resolvent(t_mat, space, h1, -0.4)
            assert transfer.verdict == PASS
            converse = verify_resolvent_from_decay(t_mat, spectrum, transfer.certificate)
            assert converse.verdict == PASS

    @pytest.mark.parametrize("n,seeds", [(16, range(1, 21)), (32, range(1, 5))])
    def test_laplace_maximum_is_the_all_exact_one(self, n, seeds, monkeypatch):
        """The Laplace maximum and the first z attaining it are those of the
        exact norms at all 72 samples."""
        taken = []
        norms = equivalence.operator_norms

        def counting(stack, dom, cod):
            taken.append(len(stack))
            return norms(stack, dom, cod)

        monkeypatch.setattr(equivalence, "operator_norms", counting)
        for seed in seeds:
            matrix, spectrum, cert = decay_certificate(seed, n)
            taken.clear()
            report = verify_resolvent_from_decay(matrix, spectrum, cert)
            assert report.verdict == PASS
            ratios = laplace_ratios(matrix, cert, report.z_samples)
            assert np.all(np.isfinite(ratios))
            worst = int(np.argmax(ratios))
            assert report.laplace_max_ratio == ratios[worst]
            assert report.worst_z == report.z_samples[worst]
            # one stack of the six propagators and their commutators first
            assert taken[0] == 6 * (1 + len(cert.projectors))


def test_round_trip_on_generated_instances():
    """Laplace bound holds with slack at a level slightly above the abscissa."""
    for seed in (2, 9, 31):
        inst = generate_instance(seed, 10)
        cert = inst.certificate
        spectrum = eigen_decompose(inst.split.full)
        h1 = check_h1(spectrum, cert.a, cert.r, expected_k=1)
        assert h1.verdict == PASS
        transfer = verify_decay_from_resolvent(inst.split.full, inst.pair.ambient,
                                               h1, 0.5 * cert.a)
        assert transfer.verdict == PASS
        converse = verify_resolvent_from_decay(inst.split.full, spectrum,
                                               transfer.certificate)
        assert converse.verdict == PASS
        assert converse.laplace_max_ratio <= 1.0 + 1e-6
