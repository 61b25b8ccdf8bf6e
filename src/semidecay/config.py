"""Tolerance defaults and strict configuration parsing.

Every numerical slack used anywhere in the package lives in one
:class:`Tolerances` object so a single JSON blob controls a whole run.
Run configurations and instance manifests go through one strict reader,
:func:`_read`, which casts every JSON value once and rejects unknown keys
with a pointer to the offending entry.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .fokker_planck import EnlargedWeight, FPGrid, Potential, SwirlField

SCHEMA_VERSION = 1

# most samples a drift-diffusion horizon may ask for; the decay run keeps
# three numbers per sample (the shipped configs ask for at most 401)
MAX_TIME_SAMPLES = 10**7


@dataclass(frozen=True)
class Tolerances:
    """Floating-point slack for exact-mathematics contracts.

    Attributes
    ----------
    tol_solve : residual factor for linear solves, scaled by the condition number
    tol_eig : eigenpair residual factor, scaled by the operator norm
    tol_proj : allowed disagreement between the two projector constructions
    boundary_margin : half-width of the indeterminate band around decision lines
    h4_ceiling : largest admissible operator norm in the decomposition checks
    mass_tol : relative mass drift allowed per trajectory
    floor_factor : signal floor is floor_factor * machine epsilon * initial norm
    laplace_slack : multiplicative slack on the resolvent bound in converse checks
    """

    tol_solve: float = 1e-10
    tol_eig: float = 1e-9
    tol_proj: float = 1e-8
    boundary_margin: float = 1e-9
    h4_ceiling: float = 1e8
    mass_tol: float = 1e-12
    floor_factor: float = 1e3
    laplace_slack: float = 1e-6

    def __post_init__(self):
        # a NaN or non-positive slack would switch its check off silently
        for key, val in self.to_dict().items():
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"tolerance {key} must be finite and positive, got {val}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Tolerances":
        casts = {f.name: _number for f in dataclasses.fields(cls)}
        return _build("tolerances", lambda: cls(**_read(mapping, casts, "tolerances")))


DEFAULT_TOLERANCES = Tolerances()


def _read(mapping, casts, where, required=()) -> dict:
    """The entries of the JSON object ``mapping``, each cast by ``casts``
    under its own name (``where.key``; ``where`` is empty at the top of a
    file). A key that ``casts`` does not name, or a missing ``required``
    key, is a :class:`ConfigError`; an absent key is left out, so it takes
    its dataclass default, and a key whose cast is ``None`` is accepted
    and ignored."""
    at = where or "the top level"
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected an object at {at}")
    for key in mapping:
        if key not in casts:
            raise ConfigError(f"unknown key '{key}' at {at}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key '{key}' at {at}")
    return {key: _build(f"{where}.{key}" if where else key, lambda: cast(mapping[key]))
            for key, cast in casts.items() if cast is not None and key in mapping}


def _number(value, kind: str = "a number") -> float:
    """A JSON number as a float: ``true`` and ``"8"`` raise ``ValueError``
    rather than read as 1.0 and 8.0, and so does an integer beyond the
    float range."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not {kind}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} is beyond the float range") from None


def _integer(value) -> int:
    """An integral JSON number: ``4`` and ``4.0`` read as 4, while ``4.7``
    raises ``ValueError`` rather than truncate."""
    if not _number(value, "an integer").is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _numbers(value) -> np.ndarray:
    """A JSON array of JSON numbers as a 1-D float array."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not an array of numbers")
    return np.array([_number(item) for item in value], dtype=float)


def _points(value) -> tuple:
    """A JSON array of ``[re, im]`` number pairs as complex numbers; any
    other value fails to unpack or to cast."""
    return tuple(complex(re, im) for re, im in map(_numbers, value))


def _string(value) -> str:
    """A JSON string, which no other value reads as."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _as_is(value):
    """A JSON value uncast, for a field its class checks itself."""
    return value


def _optional(cast):
    """``cast``, except that JSON ``null`` reads as ``None``."""
    return lambda value: None if value is None else cast(value)


def _schema_version(value) -> int:
    """The one ``schema_version`` rule of configs and instance manifests."""
    if _integer(value) != SCHEMA_VERSION:
        raise ValueError(f"{value!r} is not the supported version {SCHEMA_VERSION}")
    return SCHEMA_VERSION


def _build(where, make):
    """Construct one physical object; its ``ValueError`` (or a bad cast)
    becomes a :class:`ConfigError` that names the key."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{exc} at {where}") from None


@dataclass(frozen=True)
class FPProblem:
    """Drift-diffusion problem definition on a truncated grid.

    Holds the physical objects of :mod:`semidecay.fokker_planck`, built
    once here; each validates its own parameters. This class checks only
    what spans fields: the domain must resolve the potential's equilibrium
    (:func:`~semidecay.fokker_planck.check_domain`), the swirl needs d = 2,
    and the time horizon.
    """

    grid: FPGrid
    potential: Potential
    weight: EnlargedWeight
    swirl: SwirlField | None = None
    scheme: str = "implicit-euler"
    t_max: float = 4.0
    dt: float = 0.01
    initial_data: str = "heavy-tail"
    target_a: float | None = None       # decomposition target; default half the gap

    @classmethod
    def from_mapping(cls, mapping, where="problem"):
        # lazy imports: both modules import this one
        from .fokker_planck import (INITIAL_DATA, EnlargedWeight, FPGrid, Potential,
                                    SwirlField, check_domain, check_target)
        from .semigroup import SCHEMES

        def weight(value):
            return EnlargedWeight(**_read(value, {"kind": _string, "k": _number},
                                          f"{where}.weight", required=("kind", "k")))

        def swirl(value):
            vals = _read(value, {"phi": _string, "amplitude": _number}, f"{where}.swirl")
            if "phi" in vals:
                vals["profile"] = vals.pop("phi")
            return SwirlField(**vals)

        vals = _read(mapping, {
            "d": _integer, "s": _number, "L": _number, "N": _integer, "weight": weight,
            "swirl": _optional(swirl), "scheme": _string, "t_max": _number, "dt": _number,
            "initial_data": _string, "target_a": _optional(_number)},
            where, required=("d", "s", "L", "N"))
        grid = _build(where, lambda: FPGrid(d=vals.pop("d"), L=vals.pop("L"), N=vals.pop("N")))
        potential = _build(f"{where}.s", lambda: Potential(s=vals.pop("s")))
        _build(f"{where}.L", lambda: check_domain(grid, potential))
        vals.setdefault("weight", EnlargedWeight())
        _build(f"{where}.weight", lambda: vals["weight"].validate_for_dimension(grid.d))
        if vals.get("swirl") is not None and grid.d != 2:
            raise ConfigError(f"swirl field requires d=2 at {where}.swirl")
        if vals.get("target_a") is not None:
            _build(f"{where}.target_a", lambda: check_target(vals["target_a"]))
        problem = cls(grid=grid, potential=potential, **vals)
        if problem.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme '{problem.scheme}' at {where}.scheme")
        if problem.initial_data not in INITIAL_DATA:
            raise ConfigError(f"unknown initial data '{problem.initial_data}' "
                              f"at {where}.initial_data")
        t_max, dt = problem.t_max, problem.dt
        if not (math.isfinite(dt) and dt > 0.0):
            raise ConfigError(f"time step must be finite and positive, got {dt} at {where}.dt")
        # the run samples arange(0, t_max + dt/2, dt): 3 steps give the 4 samples
        # the decay fit needs; the slack admits t_max = 3*dt written in decimal
        if not (math.isfinite(t_max) and t_max / dt >= 3.0 - 1e-9):
            raise ConfigError(f"horizon must be finite and at least 3 steps of dt "
                              f"(4 samples), got t_max={t_max} at {where}.t_max")
        if t_max / dt + 1.0 > MAX_TIME_SAMPLES:
            raise ConfigError(f"horizon of {t_max / dt + 1.0:.3g} samples exceeds "
                              f"{MAX_TIME_SAMPLES}, got t_max={t_max}, dt={dt} "
                              f"at {where}.t_max")
        return problem

    def to_dict(self):
        out = {"d": self.grid.d, "s": self.potential.s, "L": self.grid.L,
               "N": self.grid.N,
               "weight": {"kind": self.weight.kind, "k": self.weight.k},
               "scheme": self.scheme, "t_max": self.t_max, "dt": self.dt,
               "initial_data": self.initial_data, "target_a": self.target_a}
        if self.swirl is not None:
            out["swirl"] = {"phi": self.swirl.profile, "amplitude": self.swirl.amplitude}
        return out


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of the seeded splitting generator."""

    n: int = 8
    a: float = -0.75
    gap: float = -1.0
    strength: float = 0.5
    k: int = 1

    @classmethod
    def from_mapping(cls, mapping, where="instance"):
        # lazy import: instances imports this module
        from .instances import check_instance

        spec = cls(**_read(mapping, {"n": _integer, "a": _number, "gap": _number,
                                     "strength": _number, "k": _integer}, where))
        _build(where, lambda: check_instance(spec.n, spec.a, spec.gap, spec.strength,
                                             spec.k))
        return spec

    def to_dict(self):
        return dataclasses.asdict(self)


COMMANDS = ("testbed", "fp-spectrum", "fp-decay", "fp-resolvent-scan", "enlarge-check")


@dataclass(frozen=True)
class RunConfig:
    """Validated top-level run configuration."""

    command: str
    seed: int = 1
    n_seeds: int = 1
    instance: InstanceSpec = field(default_factory=InstanceSpec)
    instance_path: str | None = None
    problem: FPProblem | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "out"
    jobs: int = 1
    write_operators: bool = False

    def __post_init__(self):
        # runs for the file and again for the command-line overrides
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed} at config.seed")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be at least 1, got {self.n_seeds} "
                              f"at config.n_seeds")
        if not isinstance(self.write_operators, bool):
            raise ConfigError(f"write_operators must be true or false, got "
                              f"{self.write_operators!r} at config.write_operators")
        for key in ("instance_path", "out_dir"):
            path = getattr(self, key)
            if not (isinstance(path, str) or (key == "instance_path" and path is None)):
                raise ConfigError(f"{key} must be a string, got {path!r} at config.{key}")

    @classmethod
    def from_mapping(cls, mapping, command=None) -> "RunConfig":
        vals = _read(mapping, {
            "schema_version": _schema_version, "command": _string, "seed": _integer,
            "n_seeds": _integer, "instance": InstanceSpec.from_mapping,
            "problem": _optional(FPProblem.from_mapping),
            "tolerances": Tolerances.from_mapping, "jobs": _integer,
            # __post_init__ checks the types of these three
            "instance_path": _as_is, "out_dir": _as_is, "write_operators": _as_is},
            "config", required=("schema_version",))
        del vals["schema_version"]
        cfg_command = vals.setdefault("command", command)
        if cfg_command is None:
            raise ConfigError("missing key 'command' at config")
        if cfg_command not in COMMANDS:
            raise ConfigError(f"unknown command '{cfg_command}' at config.command")
        if command is not None and cfg_command != command:
            raise ConfigError(
                f"config.command '{cfg_command}' does not match CLI command '{command}'")
        if vals.get("problem") is None and cfg_command.startswith("fp-"):
            raise ConfigError(f"missing key 'problem' at config (required by {cfg_command})")
        if cfg_command == "enlarge-check" and not vals.get("instance_path"):
            raise ConfigError("missing key 'instance_path' at config (required by enlarge-check)")
        return cls(**vals)

    @classmethod
    def from_json_file(cls, path, command=None) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                mapping = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        return cls.from_mapping(mapping, command=command)

    def override(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self):
        """Full echo of the effective configuration, defaults included."""
        out = {"schema_version": SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if hasattr(value, "to_dict") else value
        return out

