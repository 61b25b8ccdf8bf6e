"""Certified constants against oracles that share no kernel with the code
under test, evaluated off the samples the code used."""

import numpy as np
import pytest

from semidecay import generate_instance
from semidecay.hypotheses import check_h2
from semidecay.spectral import eigen_decompose

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _resolvent_norms(scaled, ys):
    """``1 / sigma_min(S - iyI)`` at each y, from plain dense SVDs."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    shifted = scaled[None] - 1j * ys[:, None, None] * np.eye(len(scaled))
    return 1.0 / np.linalg.svd(shifted, compute_uv=False)[:, -1]


def _line_sup(scaled, y_max, points=4001, steps=80):
    """The largest ``1 / sigma_min(S - iyI)`` over ``|y| <= y_max``: the best
    point of a uniform grid, refined by golden section between its two
    neighbours."""
    ys = np.linspace(-y_max, y_max, points)
    values = _resolvent_norms(scaled, ys)
    k = int(np.argmax(values))
    lo, hi = ys[max(k - 1, 0)], ys[min(k + 1, points - 1)]
    x1, x2 = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    f1, f2 = _resolvent_norms(scaled, [x1, x2])
    best = max(values[k], f1, f2)
    for _ in range(steps):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = _resolvent_norms(scaled, x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = _resolvent_norms(scaled, x2)[0]
        best = max(best, f1, f2)
    return best


@pytest.mark.parametrize("space_name", ["small", "ambient"])
@pytest.mark.parametrize("seed", range(1, 6))
def test_h2_certified_bound_covers_the_line_between_its_grid_points(seed, space_name):
    """``K_certified`` bounds the resolvent norm on the whole scanned line,
    not only at the grid points H2 evaluated: an oracle on 4001 other points
    with a golden-section refinement of its peak stays below it."""
    inst = generate_instance(seed, 16)
    matrix, a = inst.split.full, inst.certificate.a
    space = getattr(inst.pair, space_name)
    report = check_h2(matrix, a, space, eigen_decompose(matrix)[0])
    s = np.sqrt(space.weights * space.cell_measure)
    scaled = s[:, None] * matrix / s[None, :] - a * np.eye(len(matrix))
    oracle = _line_sup(scaled, report.tail_valid_from)
    assert report.certified_bound >= oracle
