"""The certified bounds of :mod:`semidecay.certify` against independent
oracles, and the rule that the rounding unit is spelled out only there."""

import ast
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import semidecay
from semidecay import hypotheses
from semidecay.certify import (EPS, collatz_wielandt_upper, eigenvalue_margin,
                               hermitian_defect)
from semidecay.fokker_planck import _is_irreducible_metzler, _positive
from semidecay.hypotheses import check_h2
from semidecay.reports import PASS
from semidecay.spaces import WeightedSpace


def _planted_metzler(seed, n=60):
    """A random irreducible symmetric Metzler matrix: a path of positive
    couplings plus random positive ones, on a diagonal of either sign."""
    rng = np.random.default_rng(seed)
    path = 10.0 ** rng.uniform(-3.0, 1.0, n - 1)
    rows, cols = rng.integers(0, n, (2, n))
    extra = sp.coo_matrix((rng.uniform(0.0, 2.0, n), (rows, cols)), shape=(n, n))
    off = sp.diags([path], [1]) + sp.triu(extra, 1)
    return (off + off.T + sp.diags(rng.uniform(-5.0, 1.0, n))).tocsr()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("vector", ["top", "ones", "random"])
def test_collatz_wielandt_upper_bounds_the_dense_top(seed, vector):
    sym = _planted_metzler(seed)
    assert _is_irreducible_metzler(sym)
    dense = sym.toarray()
    values, vectors = np.linalg.eigh(dense)
    n = len(values)
    x = {"top": _positive(vectors[:, -1]), "ones": np.ones(n),
         "random": np.random.default_rng(seed).uniform(0.5, 2.0, n)}[vector]
    upper = collatz_wielandt_upper(sym, x)
    assert upper >= values[-1]
    if vector == "top":
        assert upper - values[-1] <= 1e-6 * np.max(np.abs(dense))


def test_collatz_wielandt_upper_holds_where_the_ritz_value_falls_short():
    """A 2-D grid with a shallow well: its top eigenvalues cluster, and
    Lanczos from ``v0 = ones`` at a loose tolerance accepts a Ritz value
    below the top, with a vector of both signs. The bound from that vector's
    magnitudes still lies above the top."""
    m = 30
    path = sp.diags([np.ones(m - 1), np.ones(m - 1)], [-1, 1])
    adjacency = sp.kron(path, sp.identity(m)) + sp.kron(sp.identity(m), path)
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, m), np.linspace(-1.0, 1.0, m))
    well = 0.3 * (x - 0.6) ** 2 + 0.3 * (y + 0.5) ** 2
    sym = (adjacency - sp.diags(4.0 + well.ravel())).tocsr()
    assert _is_irreducible_metzler(sym)
    top = np.linalg.eigvalsh(sym.toarray())[-1]
    ritz, vecs = spla.eigsh(sym, k=1, which="LA", v0=np.ones(m * m), tol=1e-2)
    assert ritz[0] < top - 1e-8
    assert _positive(vecs[:, 0]) is None
    assert collatz_wielandt_upper(sym, np.abs(vecs[:, 0])) >= top


@pytest.mark.parametrize("factor, closes", [(1.0 - 1e-6, True), (1.0 + 1e-6, False)],
                         ids=["just-below", "just-above"])
def test_hermitian_defect_at_its_threshold(rng, factor, closes):
    """``S = H + i t A`` with H and A real symmetric: ``S - S^H = 2 i t A``
    exactly, and ``||S||_F^2 = ||H||_F^2 + t^2 ||A||_F^2``, so t puts the
    defect ``t ||A||_F`` at ``factor`` times ``n eps ||S||_F``."""
    n = 12
    h, a = rng.standard_normal((2, n, n))
    h, a = h + h.T, a + a.T
    c = factor * n * EPS
    t = c * np.linalg.norm(h) / (np.sqrt(1.0 - c * c) * np.linalg.norm(a))
    defect = hermitian_defect(h + 1j * t * a)
    if closes:
        assert defect == pytest.approx(t * np.linalg.norm(a), rel=1e-12)
    else:
        assert defect is None


def test_dense_hermitian_line_takes_the_closed_form(monkeypatch, rng):
    """A dense symmetric line (n <= BAND_RATIO * b): its spectrum comes from
    ``eig_banded`` on the full band, within ``eigenvalue_margin`` of
    ``eigvalsh``, and every grid value bounds the dense SVD from above."""
    n, a = 12, -0.5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t_mat = (q * -np.linspace(1.0, 4.0, n)) @ q.T
    t_mat = 0.5 * (t_mat + t_mat.T)
    spectra, eig_banded = [], scipy.linalg.eig_banded

    def recording(band, *args, **kwargs):
        spectra.append((band.shape, eig_banded(band, *args, **kwargs)))
        return spectra[-1][1]

    monkeypatch.setattr(scipy.linalg, "eig_banded", recording)
    report = check_h2(t_mat, a, WeightedSpace(np.ones(n)), np.linalg.eigvals(t_mat))
    assert report.verdict == PASS
    scaled = (t_mat - a * np.eye(n)).astype(complex)
    line = hypotheses._ShiftedLine(scaled)
    assert line.band is None and line.nearest is not None
    assert hypotheses.BAND_RATIO * (n - 1) >= n
    (shape, spectrum), _ = spectra
    assert shape == (n, n)
    oracle = np.linalg.eigvalsh(scaled.real)
    assert np.max(np.abs(spectrum - oracle)) <= eigenvalue_margin(oracle)
    assert line.norm >= np.linalg.svd(scaled, compute_uv=False)[0]
    eye = np.eye(n)
    svd = [1.0 / np.linalg.svd(scaled - 1j * y * eye, compute_uv=False)[-1]
           for y in report.y_grid]
    assert np.all(report.norms >= svd)


# the rounding unit may be spelled out only in the certification module, in
# SplitOperator's input check and in the two signal floors
ROUNDING_UNIT = re.compile(r"finfo\((?:float|np\.float64)\)\.eps|2(?:\.0)?\s*\*\*\s*-\s*52")
ALLOWED = {("factorization.py", "SplitOperator"), ("semigroup.py", "fit_exponential_decay"),
           ("fokker_planck.py", "decay_experiment")}


def _enclosing_names(tree, line):
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.lineno <= line <= node.end_lineno]


def test_rounding_unit_is_spelled_out_only_in_the_certification_module():
    package = pathlib.Path(semidecay.__file__).parent
    assert ROUNDING_UNIT.search((package / "certify.py").read_text())
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "certify.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        for number, text in enumerate(source.splitlines(), start=1):
            if ROUNDING_UNIT.search(text) and not any(
                    (path.name, name) in ALLOWED for name in _enclosing_names(tree, number)):
                stray.append(f"{path.name}:{number}: {text.strip()}")
    assert stray == []
