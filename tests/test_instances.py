import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidecay import generate_instance, instances, load_instance, save_instance
from semidecay.cli import main
from semidecay.config import Tolerances
from semidecay.errors import InfeasibleParameterError
from semidecay.hypotheses import PASS, check_h1, check_h4, sample_xi_region
from semidecay.matio import read_matrix
from semidecay.reports import load_report
from semidecay.spectral import eigen_decompose, spectral_projector


def test_seed_one_is_the_pinned_diagonal_instance():
    inst = generate_instance(1, 2)
    npt.assert_allclose(inst.split.full, np.diag([0.0, -1.0]), atol=0.0)
    npt.assert_allclose(inst.split.part_a, np.diag([0.0, 0.5]), atol=0.0)
    npt.assert_allclose(inst.split.part_b, np.diag([0.0, -1.5]), atol=0.0)
    cert = inst.certificate
    assert (cert.a, cert.r) == (-0.75, 0.25)
    assert cert.xi == (0.0 + 0.0j,)
    assert inst.pair.embedding_constant == 1.0


def test_zero_strength_gives_trivial_split():
    inst = generate_instance(4, 9, strength=0.0)
    npt.assert_allclose(inst.split.part_a, np.zeros((9, 9)), atol=0.0)
    npt.assert_allclose(inst.split.part_b, inst.split.full, atol=0.0)


def test_infeasible_parameters_rejected():
    with pytest.raises(InfeasibleParameterError):
        generate_instance(0, 4, a=-2.0, gap=-1.0)      # a below the gap
    with pytest.raises(InfeasibleParameterError):
        generate_instance(0, 4, a=0.5, gap=-1.0)       # a not negative
    with pytest.raises(InfeasibleParameterError):
        generate_instance(0, 4, strength=-1.0)
    with pytest.raises(InfeasibleParameterError):
        generate_instance(0, 1)


def test_planted_spectrum_structure():
    inst = generate_instance(12, 20)
    eigvals, _ = eigen_decompose(inst.split.full)
    # exactly one eigenvalue at the origin, the rest at or below the gap
    at_zero = np.abs(eigvals) < 1e-10
    assert at_zero.sum() == 1
    assert np.all(eigvals[~at_zero].real <= inst.certificate.gap + 1e-10)


def test_embedding_weights_are_lifted():
    inst = generate_instance(8, 16)
    assert np.all(inst.pair.small.weights >= inst.pair.ambient.weights - 1e-15)
    assert inst.pair.embedding_constant <= 1.0 + 1e-12


@given(seed=st.integers(2, 10_000), n=st.integers(3, 24))
@settings(max_examples=25, deadline=None)
def test_certificate_revalidates(seed, n):
    """Self-check oracle: every emitted certificate passes its own checks."""
    inst = generate_instance(seed, n)
    cert = inst.certificate
    h1 = check_h1(inst.split.full, cert.a, cert.r, expected_k=cert.k,
                  compute_projectors=False)
    assert h1.verdict == PASS
    samples = sample_xi_region(cert.a, cert.r, list(cert.xi),
                               n_line=5, n_circle=4, grid_shape=(3, 3))
    h4 = check_h4(inst.split, inst.pair, samples)
    assert h4.verdict == PASS


def test_multi_group_instance_revalidates_and_round_trips():
    from semidecay.equivalence import (verify_decay_from_resolvent,
                                       verify_resolvent_from_decay)
    inst = generate_instance(13, 14, k=3)
    cert = inst.certificate
    assert len(cert.xi) == 3
    h1 = check_h1(inst.split.full, cert.a, cert.r, expected_k=3)
    assert h1.verdict == PASS
    assert len(h1.projectors) == 3
    samples = sample_xi_region(cert.a, cert.r, list(cert.xi),
                               n_line=5, n_circle=4, grid_shape=(3, 3))
    h4 = check_h4(inst.split, inst.pair, samples)
    assert h4.verdict == PASS
    transfer = verify_decay_from_resolvent(inst.split.full, inst.pair.ambient,
                                           h1, 0.5 * cert.a)
    assert transfer.verdict == PASS
    converse = verify_resolvent_from_decay(inst.split.full, transfer.certificate)
    assert converse.verdict == PASS


def test_group_count_validation():
    with pytest.raises(InfeasibleParameterError):
        generate_instance(0, 4, k=0)
    with pytest.raises(InfeasibleParameterError):
        generate_instance(0, 4, k=4)


def test_save_load_round_trip(tmp_path):
    inst = generate_instance(6, 7)
    save_instance(inst, tmp_path / "inst")
    loaded = load_instance(tmp_path / "inst")
    npt.assert_allclose(loaded.split.full, inst.split.full, rtol=1e-15)
    npt.assert_allclose(loaded.split.part_a, inst.split.part_a, rtol=1e-15)
    npt.assert_allclose(loaded.pair.ambient.weights, inst.pair.ambient.weights,
                        rtol=1e-15)
    assert loaded.certificate.a == inst.certificate.a
    assert loaded.certificate.xi == inst.certificate.xi


def test_manifest_ships_projectors_and_tolerances(tmp_path):
    inst = generate_instance(6, 7)
    save_instance(inst, tmp_path / "inst")
    manifest = json.loads((tmp_path / "inst" / "instance.json").read_text())
    assert manifest["projectors"] == ["Pi_1.mtx"]
    assert "tol_solve" in manifest["tolerances"]
    proj = read_matrix(tmp_path / "inst" / "Pi_1.mtx")
    assert np.linalg.norm(proj @ proj - proj, 2) <= 1e-10
    commutator = inst.split.full @ proj - proj @ inst.split.full
    assert np.linalg.norm(commutator, 2) <= 1e-9 * np.linalg.norm(inst.split.full, 2)


def test_projectors_are_computed_under_the_recorded_tolerances(tmp_path, monkeypatch):
    used = []

    def recording(op, center, radius, tol):
        used.append(tol)
        return spectral_projector(op, center, radius, tol)

    monkeypatch.setattr(instances, "spectral_projector", recording)
    tol = Tolerances(tol_proj=1e-7)
    save_instance(generate_instance(13, 14, k=3), tmp_path / "inst", tol)
    assert used == [tol] * 3
    manifest = json.loads((tmp_path / "inst" / "instance.json").read_text())
    assert manifest["tolerances"] == tol.to_dict()


def test_manifest_in_the_older_format_gives_the_same_verdicts(tmp_path):
    """A manifest that still carries ``certificate.embedding_constant``
    loads, and its instance checks as the freshly written one does."""
    inst = generate_instance(6, 7)
    reports = {}
    for name in ("fresh", "older"):
        inst_dir = tmp_path / name
        save_instance(inst, inst_dir)
        if name == "older":
            manifest = json.loads((inst_dir / "instance.json").read_text())
            manifest["certificate"]["embedding_constant"] = inst.pair.embedding_constant
            (inst_dir / "instance.json").write_text(json.dumps(manifest))
        assert (inst_dir / "Pi_1.mtx").exists()
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"schema_version": 1, "command": "enlarge-check",
                                   "instance_path": str(inst_dir),
                                   "out_dir": str(tmp_path / f"out_{name}")}))
        assert main(["enlarge-check", "--config", str(cfg)]) == 0
        reports[name] = load_report(tmp_path / f"out_{name}" / "report.json")
    assert reports["older"]["verdicts"] == reports["fresh"]["verdicts"]


def test_determinism():
    left = generate_instance(99, 12)
    right = generate_instance(99, 12)
    npt.assert_array_equal(left.split.full, right.split.full)
    npt.assert_array_equal(left.pair.small.weights, right.pair.small.weights)
