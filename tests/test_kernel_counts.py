"""How many dense kernels one instance check runs, and how often a
drift-diffusion run evaluates its potential on the nodes.

The counts patch the numpy/scipy entry points, so they see every call
whichever module makes it.
"""

import json
import sys

import numpy as np
import pytest
import scipy.linalg

from semidecay import factorization, generate_instance, hypotheses, spectral
from semidecay.factorization import shift_sweep
from semidecay.config import DEFAULT_TOLERANCES
from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential, SwirlField, spectral_gap_H)
from semidecay.hypotheses import check_h2, sample_xi_region
from semidecay.reports import PASS
from semidecay.runner import _check_instance


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts matrix exponentials, SVD matrices, Hermitian eigensolve
    matrices (the kernel of :func:`~semidecay.certify.spectral_norms`) and
    the calls that take them, dense solve matrices and calls, the exact
    norms inside :func:`~semidecay.spectral.guarded_inverses`, and the
    eigendecompositions (``eig``, ``schur`` and ``eigvals`` calls, as the
    benchmark tracer counts them) with the Schur forms among them."""
    calls = {"expm": 0, "svd": 0, "exact_in_guarded_inverses": 0, "eigvalsh": 0,
             "eigvalsh_calls": 0, "solve": 0, "solve_calls": 0, "eig": 0, "schur": 0}
    inside = []
    expm, svd, norm = scipy.linalg.expm, np.linalg.svd, np.linalg.norm
    eigvalsh, solve = np.linalg.eigvalsh, np.linalg.solve
    eig, schur, eigvals = scipy.linalg.eig, scipy.linalg.schur, np.linalg.eigvals
    guarded_inverses = spectral.guarded_inverses

    def counting_eig(kernel, schur_form=False):
        def counted(*args, **kwargs):
            calls["eig"] += 1
            calls["schur"] += schur_form
            return kernel(*args, **kwargs)
        return counted

    def count_svd(matrices=1):
        calls["svd"] += matrices
        if inside:
            calls["exact_in_guarded_inverses"] += matrices

    def counting_expm(a, *args, **kwargs):
        calls["expm"] += 1
        return expm(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        count_svd()
        return svd(a, *args, **kwargs)

    def counting_norm(x, ord=None, axis=None, keepdims=False):
        # only the spectral norm of a matrix (ord 2 or -2) is an SVD
        if ord in (2, -2) and (np.ndim(x) == 2 or isinstance(axis, tuple)):
            count_svd(int(np.prod(np.shape(x)[:-2])) or 1)
        return norm(x, ord=ord, axis=axis, keepdims=keepdims)

    def counting_eigvalsh(a, *args, **kwargs):
        matrices = int(np.prod(np.shape(a)[:-2]))
        calls["eigvalsh"] += matrices
        calls["eigvalsh_calls"] += 1
        if inside:
            calls["exact_in_guarded_inverses"] += matrices
        return eigvalsh(a, *args, **kwargs)

    def counting_solve(a, *args, **kwargs):
        calls["solve"] += int(np.prod(np.shape(a)[:-2]))
        calls["solve_calls"] += 1
        return solve(a, *args, **kwargs)

    def counting_guarded_inverses(*args, **kwargs):
        inside.append(True)
        try:
            return guarded_inverses(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(scipy.linalg, "eig", counting_eig(eig))
    monkeypatch.setattr(scipy.linalg, "schur", counting_eig(schur, schur_form=True))
    monkeypatch.setattr(np.linalg, "eigvals", counting_eig(eigvals))
    # the sweep holds it by name; resolvent_block reaches it through spectral
    for module in (spectral, factorization):
        monkeypatch.setattr(module, "guarded_inverses", counting_guarded_inverses)
    return calls


def test_instance_check_kernel_counts(kernel_calls):
    result = _check_instance(generate_instance(1, 16), DEFAULT_TOLERANCES,
                             thin_samples=True)
    assert result["converse"].verdict == PASS
    # H3, the decay transfer and the converse's commutation check walk one
    # propagator each, one exponential per walk, since every grid starts at 0
    # (333 exponentials, one per time point, before the walk; 8 before the
    # commutation walk)
    assert 0 < kernel_calls["expm"] <= 3
    assert kernel_calls["svd"] > 0 and kernel_calls["eigvalsh"] > 0
    assert kernel_calls["exact_in_guarded_inverses"] == 0


def test_instance_check_decomposes_its_operator_once(monkeypatch):
    """H1's eigendecomposition is the only eigensolve of an instance check:
    H2, H3, the projector and the converse read its spectrum (2 ``eig`` and
    3 ``eigvals`` calls before)."""
    calls = {"eig": 0, "eigvals": 0}
    originals = {"eig": scipy.linalg.eig, "eigvals": np.linalg.eigvals}

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    monkeypatch.setattr(scipy.linalg, "eig", counting("eig"))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals"))
    result = _check_instance(generate_instance(1, 16), DEFAULT_TOLERANCES,
                             thin_samples=True)
    assert result["converse"].verdict == PASS
    assert calls == {"eig": 1, "eigvals": 0}


@pytest.mark.parametrize("seed,n,k", [(1, 16, 1), (13, 14, 3)])
def test_decay_transfer_builds_the_projectors(seed, n, k, monkeypatch, kernel_calls):
    """H1 decides on the spectrum alone: the decay transfer builds one
    projector per surviving mode, and no other check of an instance builds
    any. Each projector takes one ordered Schur form (two, of T and of T^H,
    before), beside H1's one eigendecomposition."""
    callers = []
    projector = spectral.spectral_projector

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):    # a comprehension's frame
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return projector(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("semidecay") and hasattr(module, "spectral_projector"):
            monkeypatch.setattr(module, "spectral_projector", recording)
    result = _check_instance(generate_instance(seed, n, k=k), DEFAULT_TOLERANCES,
                             thin_samples=True)
    assert result["h1"].verdict == PASS and len(result["h1"].discrete_eigs) == k
    assert callers == ["verify_decay_from_resolvent"] * k
    assert len(result["decay_transfer"].certificate.projectors) == k
    assert kernel_calls["schur"] == k
    assert kernel_calls["eig"] == k + 1


def test_instance_check_stacks_whole_blocks(kernel_calls):
    """At n = 16 a block holds 32 shifts, times or contour points, so the
    thin 53-shift sample, the 200 decay times and the 72 converse points
    take few stacked calls: 32 solves and 71 eigensolves with blocks of 8,
    whose norms also came one commutation matrix at a time. A change that
    splits the blocks again shows here. The projector's Sylvester solve
    takes no dense solve (243 with its Gram solve)."""
    assert spectral.block_size(16) == 32
    _check_instance(generate_instance(1, 16), DEFAULT_TOLERANCES, thin_samples=True)
    assert kernel_calls["solve_calls"] <= 10
    assert kernel_calls["solve"] == 242
    assert kernel_calls["eigvalsh_calls"] <= 32
    assert kernel_calls["eigvalsh"] <= 416


def test_shift_sweep_takes_exact_norms_only_where_they_are_reported(kernel_calls):
    inst = generate_instance(1, 32)
    cert = inst.certificate
    samples = sample_xi_region(cert.a, cert.r, list(cert.xi))
    assert len(samples) == 291
    sweep = shift_sweep(inst.split, inst.pair, samples)
    assert sweep.b_failure is None and sweep.t_failure is None
    # one exact norm per sample (the direct ||R||_amb); the four bracketed
    # norms only where a sup or a domination decision needs them, and the
    # factorization residuals by O(n^2) bounds (1184 matrices before)
    exact = kernel_calls["svd"] + kernel_calls["eigvalsh"]
    assert exact <= 2 * len(samples)
    assert exact == sweep.exact_norms


def test_banded_scan_runs_no_square_svd_per_line_point(monkeypatch):
    grid = FPGrid(d=1, L=8.0, N=80)
    disc = FPDiscretization.build(grid, Potential(2.0), EnlargedWeight("polynomial", 3.0))
    a_line = 0.5 * spectral_gap_H(disc).lambda_gap
    evaluated, shapes_inside = [], []
    svd, line_norm = np.linalg.svd, hypotheses._line_norm

    def recording_svd(a, *args, **kwargs):
        if evaluated and evaluated[-1] is None:
            shapes_inside.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recording_line_norm(line, y):
        evaluated.append(None)
        try:
            return line_norm(line, y)
        finally:
            evaluated[-1] = float(y)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(hypotheses, "_line_norm", recording_line_norm)
    dense = disc.dense_generator()
    report = check_h2(dense, a_line, disc.space_ambient,
                      np.linalg.eigvals(dense.astype(complex)))
    n = grid.n_total
    assert shapes_inside and (n, n) not in shapes_inside
    # the operator is real: one evaluation per distinct |y|
    assert min(evaluated) >= 0.0
    assert len(evaluated) == len(set(evaluated))
    assert set(np.abs(report.y_grid)) <= set(evaluated)


def test_scan_shares_one_spectrum_and_the_small_line_is_closed_form(tmp_path, monkeypatch,
                                                                     gram_bands):
    from semidecay.config import RunConfig
    from semidecay.runner import run_fp
    calls = {"eigvals": 0, "eig_banded": 0, "dense_generator": 0}
    originals = {"eigvals": np.linalg.eigvals, "eig_banded": scipy.linalg.eig_banded,
                 "dense_generator": FPDiscretization.dense_generator}

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals"))
    monkeypatch.setattr(scipy.linalg, "eig_banded", counting("eig_banded"))
    monkeypatch.setattr(FPDiscretization, "dense_generator", counting("dense_generator"))
    problem = {"d": 1, "s": 2.0, "L": 8.0, "N": 80,
               "weight": {"kind": "polynomial", "k": 3.0}}
    config = RunConfig.from_mapping({"schema_version": 1, "command": "fp-resolvent-scan",
                                     "problem": problem, "out_dir": str(tmp_path)})
    report, _ = run_fp(config)
    assert report.verdicts["resolvent_scan"]["verdict"] == PASS
    assert calls["eigvals"] == 1
    assert calls["dense_generator"] == 1
    # only the ambient line builds a band kernel, and it runs
    band, = gram_bands
    assert band.factorizations > 0

    # the small-space line: one banded eigensolve for its spectrum, none per
    # y, and no band kernel
    grid = FPGrid(d=1, L=8.0, N=80)
    disc = FPDiscretization.build(grid, Potential(2.0), EnlargedWeight("polynomial", 3.0))
    a_line = 0.5 * spectral_gap_H(disc).lambda_gap
    dense = disc.dense_generator()
    eigvals = np.linalg.eigvals(dense.astype(complex))
    calls.update(eig_banded=0)
    gram_bands.clear()
    scan = check_h2(dense, a_line, disc.space_small, eigvals)
    assert len(scan.y_grid) > 100
    assert calls["eig_banded"] == 1
    assert gram_bands == []


@pytest.fixture
def line_kernels(monkeypatch, gram_bands):
    """Counts ``eig_banded`` calls, ``eigvalsh`` calls on an n x n matrix
    (n the line's size, set by the test), ``spectral_norms`` calls made by
    the H2 module, and H2 line evaluations; ``bands`` are the band kernels
    built."""
    calls = {"eig_banded": 0, "square_eigvalsh": 0, "spectral_norms": 0,
             "evaluations": 0, "n": None, "bands": gram_bands}
    eig_banded, eigvalsh = scipy.linalg.eig_banded, np.linalg.eigvalsh
    spectral_norms, line_norm = hypotheses.spectral_norms, hypotheses._line_norm

    def counting_eig_banded(*args, **kwargs):
        calls["eig_banded"] += 1
        return eig_banded(*args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        calls["square_eigvalsh"] += np.shape(a)[-2:] == (calls["n"], calls["n"])
        return eigvalsh(a, *args, **kwargs)

    def counting_spectral_norms(*args, **kwargs):
        calls["spectral_norms"] += 1
        return spectral_norms(*args, **kwargs)

    def counting_line_norm(*args, **kwargs):
        calls["evaluations"] += 1
        return line_norm(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", counting_eig_banded)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(hypotheses, "spectral_norms", counting_spectral_norms)
    monkeypatch.setattr(hypotheses, "_line_norm", counting_line_norm)
    return calls


def test_banded_scan_lines_reuse_the_shift_and_take_no_dense_eigensolve(line_kernels):
    """The fp_d1_scan lines (N=200): the ambient line takes a new shift for
    few of its evaluations (one anchor eigensolve per evaluation before), and
    neither line takes an n x n eigvalsh or spectral_norms, since the tail's
    ||S||_2 comes from the band (one dense Gram eigensolve per line before)."""
    grid = FPGrid(d=1, L=8.0, N=200)
    disc = FPDiscretization.build(grid, Potential(2.0), EnlargedWeight("polynomial", 3.0))
    a_line = 0.5 * spectral_gap_H(disc).lambda_gap
    dense = disc.dense_generator()
    eigvals = np.linalg.eigvals(dense.astype(complex))
    line_kernels["n"] = grid.n_total
    for space in (disc.space_small, disc.space_ambient):
        line_kernels.update(evaluations=0)
        assert check_h2(dense, a_line, space, eigvals).verdict == PASS
    assert 200 <= line_kernels["evaluations"] <= 300
    assert line_kernels["bands"][-1].anchors <= 60
    assert line_kernels["square_eigvalsh"] == 0
    assert line_kernels["spectral_norms"] == 0


def test_dense_testbed_line_takes_one_spectral_norm(line_kernels):
    inst = generate_instance(1, 16)
    line_kernels["n"] = 16
    eigvals = spectral.eigen_decompose(inst.split.full)[0]
    check_h2(inst.split.full, inst.certificate.a, inst.pair.small, eigvals)
    assert line_kernels["spectral_norms"] == 1
    assert line_kernels["eig_banded"] == 0
    assert line_kernels["bands"] == []


@pytest.fixture
def node_evaluations(monkeypatch):
    """The shapes at which :meth:`Potential.value` is evaluated, one per call."""
    shapes = []
    value = Potential.value

    def recording(self, *coords):
        shapes.append(np.shape(coords[0]))
        return value(self, *coords)

    monkeypatch.setattr(Potential, "value", recording)
    return shapes


def test_build_evaluates_the_potential_on_the_nodes_once(node_evaluations):
    """``check_domain`` is the one node pass: the equilibrium, the stencil
    and the ambient weights share it. The swirl's face evaluations, at
    (N-1) x N and N x (N-1), are not node calls."""
    grid = FPGrid(d=2, L=8.0, N=12)
    FPDiscretization.build(grid, Potential(2.0), EnlargedWeight("polynomial", 3.0),
                           swirl=SwirlField("inverse_linear", 1.0))
    assert node_evaluations.count((12, 12)) == 1
    assert {(11, 12), (12, 11)} <= set(node_evaluations)


def test_spectrum_run_evaluates_the_potential_on_the_nodes_twice(tmp_path,
                                                                 node_evaluations):
    """One node pass when the config is read, one in the assembly."""
    from semidecay.cli import main
    config = {"schema_version": 1, "command": "fp-spectrum", "out_dir": str(tmp_path / "out"),
              "problem": {"d": 1, "s": 2.0, "L": 8.0, "N": 80,
                          "weight": {"kind": "polynomial", "k": 3.0}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["fp-spectrum", "--config", str(path)]) == 0
    assert node_evaluations.count((80,)) == 2
