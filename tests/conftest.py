import numpy as np
import pytest

from semidecay import generate_instance, hypotheses
from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential)


@pytest.fixture
def pinned_instance():
    """Smallest generated instance: diagonal and hand-checkable."""
    return generate_instance(1, 2)


@pytest.fixture(scope="session")
def fp_small():
    """1-D drift-diffusion discretization used across modules (s=2, N=400)."""
    grid = FPGrid(d=1, L=8.0, N=400)
    return FPDiscretization.build(grid, Potential(2.0),
                                  EnlargedWeight("polynomial", 3.0))


@pytest.fixture
def gram_bands(monkeypatch):
    """Every ``hypotheses._GramBand`` built while the test runs, with its
    anchor, factorization and fallback counts."""
    bands = []

    class Recording(hypotheses._GramBand):
        def __init__(self, *args):
            super().__init__(*args)
            bands.append(self)

    monkeypatch.setattr(hypotheses, "_GramBand", Recording)
    return bands


@pytest.fixture
def rng():
    return np.random.default_rng(42)
