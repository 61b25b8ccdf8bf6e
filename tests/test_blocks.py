"""How the samples of a stacked pass are cut into blocks, and that the cut
changes no result."""

import numpy as np
import numpy.testing as npt
import pytest

from helpers import decay_certificate
from semidecay import generate_instance, spectral
from semidecay.config import DEFAULT_TOLERANCES
from semidecay.equivalence import verify_resolvent_from_decay
from semidecay.factorization import _dominates, shift_sweep
from semidecay.hypotheses import sample_xi_region
from semidecay.semigroup import default_time_grid, semigroup_norms


def test_block_size_fills_its_bytes_and_keeps_eight():
    # 128 KiB of complex128 matrices, never fewer than 8
    assert [spectral.block_size(n) for n in (2, 8, 16, 20, 32, 64, 200)] == [
        2048, 128, 32, 20, 8, 8, 8]
    assert spectral.blocks(70, 16) == [slice(0, 32), slice(32, 64), slice(64, 70)]
    assert spectral.blocks(0, 16) == []


def _results(seed, n):
    """Every number of the four blocked passes that a report can read."""
    inst = generate_instance(seed, n)
    split, pair, cert = inst.split, inst.pair, inst.certificate
    if n == 16:
        # the thinned sample the runner uses for sweeps of more than four seeds
        samples = sample_xi_region(cert.a, cert.r, list(cert.xi), thin=True)
    else:
        samples = sample_xi_region(cert.a, cert.r, list(cert.xi))
    sweep = shift_sweep(split, pair, samples)
    assert sweep.b_failure is None and sweep.t_failure is None
    out = {}
    for name in ("b_inverse", "a_b_inverse", "b_inverse_a", "resolvent_small", "chain"):
        column = getattr(sweep, name)
        out[name] = (column.max(), int(np.argmax(column)))
    out["dominated"] = _dominates(sweep.chain, sweep.resolvent)
    for name in ("resolvent", "shifted", "identity_defect", "mismatch"):
        out[name] = getattr(sweep, name)
    matrix, spectrum, decay = decay_certificate(seed, n)
    deflation = list(zip(map(complex, decay.discrete_eigs), decay.projectors))
    out["semigroup_norms"] = semigroup_norms(matrix, default_time_grid(0.5, 200),
                                             decay.space, deflation)
    out["contour"] = spectral._projector_contour(matrix, complex(cert.xi[0]), cert.r,
                                                 64, DEFAULT_TOLERANCES)
    converse = verify_resolvent_from_decay(matrix, spectrum, decay)
    out["laplace"] = (converse.laplace_max_ratio, converse.worst_z)
    return out


@pytest.mark.parametrize("seed,n", [(1, 16), (2, 16), (3, 16), (4, 16), (5, 16), (1, 32)])
def test_block_partition_changes_no_result(seed, n, monkeypatch):
    """One sample per block, the default blocks, and all samples in one
    block give the same maxima, the samples attaining them, the domination
    vector and every per-sample bound, bit for bit."""
    default = _results(seed, n)
    for width in (1, 10 ** 6):
        monkeypatch.setattr(spectral, "block_size", lambda n: width)
        cut = _results(seed, n)
        assert cut.keys() == default.keys()
        for name, value in default.items():
            if isinstance(value, tuple):
                assert cut[name] == value, name
            else:
                npt.assert_array_equal(cut[name], value, err_msg=name)
