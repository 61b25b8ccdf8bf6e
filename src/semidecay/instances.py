"""Seeded generator of operator splittings valid by construction.

Instances are built in a common unitary basis where everything is upper
triangular, so spectra are read off diagonals exactly: the generator gets
one eigenvalue at 0 plus a cloud with real parts at or below the gap, and
the regularizing part is a low-rank upper-triangular block supported away
from the surviving eigenvalue. The coercive part therefore keeps its only
half-plane eigenvalue (0) inside the excluded ball, which makes the
decomposition hypotheses hold for every admissible parameter choice.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .config import (DEFAULT_TOLERANCES, SCHEMA_VERSION, Tolerances, _integer, _number, _numbers,
                     _points, _read, _schema_version, _string)
from .errors import ConfigError, DimensionMismatchError, InfeasibleParameterError
from .factorization import SplitOperator
from .spaces import EmbeddedSpacePair
from .spectral import spectral_projector

_FEASIBILITY_MARGIN = 0.05


@dataclass(frozen=True)
class InstanceCertificate:
    """Localization data shipped with a generated instance."""

    a: float
    r: float
    xi: tuple
    gap: float
    strength: float
    seed: int
    n: int

    @property
    def k(self):
        return len(self.xi)

    def to_dict(self):
        return {"a": self.a, "r": self.r,
                "xi": [[complex(z).real, complex(z).imag] for z in self.xi],
                "gap": self.gap, "strength": self.strength, "seed": self.seed, "n": self.n}


@dataclass(frozen=True)
class GeneratedInstance:
    split: SplitOperator
    pair: EmbeddedSpacePair
    certificate: InstanceCertificate


def check_instance(n, a, gap, strength, k):
    """The generator's checks on its parameters.

    Shared with :class:`~semidecay.config.InstanceSpec`, which runs them
    when the config is read; :class:`InfeasibleParameterError` is a
    ``ValueError``, so there it becomes a config error naming the key.
    """
    if n < 2:
        raise InfeasibleParameterError("instance size must be at least 2")
    if not 1 <= k <= n - 1:
        raise InfeasibleParameterError(
            f"need 1 <= k <= n-1 surviving eigenvalue groups, got k={k}, n={n}")
    if not all(math.isfinite(v) for v in (a, gap, strength)):
        raise InfeasibleParameterError(
            f"need finite a, gap and strength, got a={a}, gap={gap}, strength={strength}")
    if strength < 0.0:
        raise InfeasibleParameterError("regularization strength must be nonnegative")
    if not gap < a < 0.0:
        raise InfeasibleParameterError(
            f"need gap < a < 0, got gap={gap}, a={a}")
    if (a - gap) < _FEASIBILITY_MARGIN * abs(a):
        raise InfeasibleParameterError(
            f"gap {gap} leaves no margin below a={a}")


def generate_instance(seed: int, n: int, a: float = -0.75, gap: float = -1.0,
                      strength: float = 0.5, k: int = 1) -> GeneratedInstance:
    """Emit a splitting guaranteed to satisfy the localization hypotheses.

    Parameters
    ----------
    seed : RNG seed; ``seed=1, n=2`` pins the diagonal reference instance.
    n : matrix size.
    a : half-plane abscissa of the certificate, in (gap, 0).
    gap : real-part ceiling for the non-surviving eigenvalues (< a).
    strength : scale of the regularizing part (0 gives the trivial split).
    k : number of surviving simple eigenvalues: 0 plus k-1 more stacked
        vertically at spacing 3r so the certificate balls stay disjoint.
    """
    check_instance(n, a, gap, strength, k)
    r = abs(a) / 3.0
    survivors = np.array([3.0j * r * j for j in range(k)])

    if seed == 1 and n == 2:
        # smallest case, pinned: diagonal and hand-checkable
        full = np.diag([0.0, gap])
        part_a = np.diag([0.0, strength])
        split = SplitOperator.from_regularizer(full, part_a)
        pair = EmbeddedSpacePair.from_weights(np.ones(2), np.ones(2))
        cert = InstanceCertificate(a=a, r=r, xi=(0.0 + 0.0j,), gap=gap,
                                   strength=strength, seed=seed, n=n)
        return GeneratedInstance(split, pair, cert)

    rng = np.random.default_rng(seed)
    # planted spectrum: the survivors, then a band left of the gap
    re = gap * (1.0 + 0.5 * rng.random(n - k))
    im = abs(gap) * rng.uniform(-1.0, 1.0, n - k)
    diag = np.concatenate([survivors, re + 1j * im])

    # common unitary basis; strictly upper coupling sets the non-normality,
    # but the surviving block stays decoupled so its eigenvalues remain simple
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eta = 0.25 * abs(gap)
    upper_t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    upper_t[:k, :k] = 0.0
    s_full = np.diag(diag) + eta * upper_t

    # low-rank upper-triangular regularizer supported off the surviving modes
    m_rank = max(1, (n - k) // 4)
    support = k + rng.choice(n - k, size=min(m_rank, n - k), replace=False)
    s_a = np.zeros((n, n), dtype=complex)
    for row in support:
        s_a[row, row] = strength * rng.uniform(0.5, 1.5)
        if row + 1 < n:
            coupling = 0.3 * strength * (rng.standard_normal(n - row - 1)
                                         + 1j * rng.standard_normal(n - row - 1))
            s_a[row, row + 1:] = coupling
    full = q @ s_full @ q.conj().T
    part_a = q @ s_a @ q.conj().T
    split = SplitOperator.from_regularizer(full, part_a)

    # ambient weights moderate, small-space weights lifted above them
    w_ambient = rng.uniform(0.5, 2.0, n)
    w_small = w_ambient * rng.uniform(1.0, 10.0, n)
    pair = EmbeddedSpacePair.from_weights(w_ambient, w_small)

    cert = InstanceCertificate(a=a, r=r, xi=tuple(survivors.tolist()), gap=gap,
                               strength=strength, seed=seed, n=n)
    return GeneratedInstance(split, pair, cert)


def save_instance(instance: GeneratedInstance, directory, eigvals,
                  tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Write the instance as a JSON manifest plus Matrix Market files.

    The manifest records the certificate (spectra, seed), both weight
    vectors, the tolerances in force, and references the matrix files for
    the generator, both split parts, and the spectral projectors of the
    certified eigenvalues. The projectors, computed from ``eigvals`` (the
    generator's spectrum) under those tolerances, are written for the reader:
    :func:`load_instance` does not read them.
    """
    from . import matio as mio
    split, cert = instance.split, instance.certificate
    projectors = [spectral_projector(split.full, eigvals, xi, cert.r, tolerances)
                  for xi in cert.xi]
    os.makedirs(directory, exist_ok=True)
    names = {"full": "T.mtx", "part_a": "A.mtx", "part_b": "B.mtx"}
    for attr, fname in names.items():
        mio.write_matrix(os.path.join(directory, fname), getattr(split, attr))
    projector_files = []
    for j, proj in enumerate(projectors, start=1):
        fname = f"Pi_{j}.mtx"
        mio.write_matrix(os.path.join(directory, fname), proj)
        projector_files.append(fname)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "certificate": cert.to_dict(),
        "matrices": names,
        "projectors": projector_files,
        "weights_ambient": instance.pair.ambient.weights.tolist(),
        "weights_small": instance.pair.small.weights.tolist(),
        "cell_measure": instance.pair.ambient.cell_measure,
        "tolerances": tolerances.to_dict(),
    }
    path = os.path.join(directory, "instance.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def load_instance(directory) -> GeneratedInstance:
    """Read an instance written by :func:`save_instance`.

    The manifest goes through config's strict reader, so its key set is
    closed: ``projectors``, ``tolerances`` and the older
    ``certificate.embedding_constant`` are accepted and ignored. A manifest
    that is missing or not JSON, a ``schema_version`` other than the
    integer 1, an unknown or missing key, a value that is not a JSON number
    (an integer for ``seed`` and ``n``, an array of numbers for the
    weights, a string for each matrix file), a matrix file that cannot be
    read, a matrix or weight vector the split or the space pair rejects,
    or weights of another size than the operator, is a
    :class:`ConfigError` naming the manifest or the file. So is a
    certificate with a non-finite ``a``, ``gap``, ``strength`` or ``xi``,
    a radius ``r`` that is not finite and positive, or an ``n`` other than
    the operator's size.
    """
    from . import matio as mio
    path = os.path.join(directory, "instance.json")

    def read_matrix(fname):
        file = os.path.join(directory, fname)
        try:
            return mio.read_matrix(file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read matrix {file} named in {path}: {exc}") from None

    def certificate(value):
        return InstanceCertificate(**_read(value, {
            "a": _number, "r": _number, "xi": _points, "gap": _number, "strength": _number,
            "seed": _integer, "n": _integer, "embedding_constant": None}, "certificate",
            required=[f.name for f in fields(InstanceCertificate)]))

    def matrices(value):
        keys = ("full", "part_a", "part_b")
        return _read(value, dict.fromkeys(keys, _string), "matrices", required=keys)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read instance manifest {path}: {exc}") from None
    try:
        # projectors and tolerances are written for other readers
        manifest = _read(manifest, {
            "schema_version": _schema_version, "certificate": certificate,
            "matrices": matrices, "weights_ambient": _numbers, "weights_small": _numbers,
            "cell_measure": _number, "projectors": None, "tolerances": None}, "",
            required=("schema_version", "certificate", "matrices", "weights_ambient",
                      "weights_small"))
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {path}") from None
    files = manifest["matrices"]
    mats = {key: read_matrix(fname) for key, fname in files.items()}
    where = f"{path} ({', '.join(f'{key}: {fname}' for key, fname in files.items())})"
    try:
        split = SplitOperator(**mats)
        pair = EmbeddedSpacePair.from_weights(manifest["weights_ambient"],
                                              manifest["weights_small"],
                                              cell_measure=manifest.get("cell_measure", 1.0))
        if pair.dim != split.dim:
            raise ConfigError(f"{pair.dim} weights for an operator of size {split.dim} "
                              f"at {where}")
        cert = manifest["certificate"]
        if not (np.isfinite([cert.a, cert.gap, cert.strength, *cert.xi]).all()
                and 0.0 < cert.r < math.inf):
            raise ValueError(f"need a finite certificate with r > 0, got a={cert.a}, "
                             f"r={cert.r}, gap={cert.gap}, strength={cert.strength}, "
                             f"xi={list(cert.xi)}")
        if cert.n != split.dim:
            raise ValueError(f"certificate n = {cert.n} for an operator of size {split.dim}")
    except (DimensionMismatchError, ValueError) as exc:
        raise ConfigError(f"{exc} at {where}") from None
    return GeneratedInstance(split, pair, cert)
