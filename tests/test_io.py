import csv
import dataclasses
import json
import pathlib
import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import semidecay
from semidecay.config import FPProblem, RunConfig, Tolerances
from semidecay.errors import ConfigError
from semidecay.matio import read_matrix, write_csv, write_matrix


class TestMatrixMarket:
    def test_real_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((7, 7))
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        npt.assert_allclose(read_matrix(path), m, rtol=1e-15)

    def test_complex_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        npt.assert_allclose(read_matrix(path), m, rtol=1e-15)

    def test_sparse_written_as_coordinate(self, tmp_path):
        m = sp.random(40, 40, density=0.05, format="csr", random_state=3)
        path = tmp_path / "m.mtx"
        write_matrix(path, m)
        assert "coordinate" in path.read_text().splitlines()[0]
        npt.assert_allclose(read_matrix(path), m.toarray(), rtol=1e-15)


class TestCsv:
    def test_round_trip_and_header(self, tmp_path):
        t = np.linspace(0.0, 1.0, 11)
        n = np.exp(-t)
        path = tmp_path / "curve.csv"
        write_csv(path, ["t", "norm"], [t, n])
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        data = np.array(rows, dtype=float)
        assert header == ["t", "norm"]
        npt.assert_array_equal(data[:, 0], t)
        npt.assert_array_equal(data[:, 1], n)

    def test_byte_determinism(self, tmp_path):
        t = np.linspace(0.0, 3.0, 50)
        vals = np.sqrt(t + 0.1) * np.pi
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["t", "v"], [t, vals])
        write_csv(p2, ["t", "v"], [t, vals])
        assert p1.read_bytes() == p2.read_bytes()

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [np.ones(3), np.ones(4)])


class TestConfigParsing:
    def base(self, **extra):
        cfg = {"schema_version": 1, "command": "testbed"}
        cfg.update(extra)
        return cfg

    def test_minimal_config(self):
        config = RunConfig.from_mapping(self.base())
        assert config.command == "testbed"
        assert config.seed == 1
        assert config.tolerances == Tolerances()

    def test_unknown_key_rejected_with_pointer(self):
        with pytest.raises(ConfigError, match="unknown key 'sneaky' at config"):
            RunConfig.from_mapping(self.base(sneaky=1))

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="instance"):
            RunConfig.from_mapping(self.base(instance={"n": 4, "oops": 2}))

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            RunConfig.from_mapping({"command": "testbed"})

    def test_schema_version_is_the_integer_one(self):
        assert RunConfig.from_mapping(self.base(schema_version=1.0)).command == "testbed"
        for version in (True, "1", 1.5, 2):
            with pytest.raises(ConfigError, match="at config.schema_version"):
                RunConfig.from_mapping(self.base(schema_version=version))

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            RunConfig.from_mapping(self.base(), command="fp-decay")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            RunConfig.from_mapping({"schema_version": 1, "command": "explode"})

    def test_fp_requires_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            RunConfig.from_mapping({"schema_version": 1, "command": "fp-decay"})

    def test_polynomial_weight_order_must_exceed_dimension(self):
        problem = {"d": 1, "s": 2.0, "L": 8.0, "N": 100,
                   "weight": {"kind": "polynomial", "k": 0.5}}
        with pytest.raises(ConfigError, match="k > d"):
            FPProblem.from_mapping(problem)

    def test_stretched_weight_order_window(self):
        problem = {"d": 1, "s": 2.0, "L": 8.0, "N": 100,
                   "weight": {"kind": "stretched-exponential", "k": 1.2}}
        with pytest.raises(ConfigError, match=r"\(0,1\)"):
            FPProblem.from_mapping(problem)

    def test_potential_exponent_floor(self):
        with pytest.raises(ConfigError, match="s >= 1"):
            FPProblem.from_mapping({"d": 1, "s": 0.5, "L": 8.0, "N": 100})

    def test_swirl_requires_dimension_two(self):
        problem = {"d": 1, "s": 2.0, "L": 8.0, "N": 100,
                   "swirl": {"phi": "constant", "amplitude": 1.0}}
        with pytest.raises(ConfigError, match="d=2"):
            FPProblem.from_mapping(problem)

    def test_tolerance_overrides(self):
        tol = Tolerances.from_mapping({"tol_eig": 1e-6, "h4_ceiling": 1e9})
        assert (tol.tol_eig, tol.h4_ceiling) == (1e-6, 1e9)
        assert tol.tol_solve == Tolerances().tol_solve
        with pytest.raises(ConfigError):
            Tolerances.from_mapping({"not_a_tolerance": 1.0})

    def test_config_echo_is_self_contained(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.base(seed=7)))
        config = RunConfig.from_json_file(path)
        echo = config.to_dict()
        rebuilt = RunConfig.from_mapping(echo)
        assert rebuilt == config

    @pytest.mark.parametrize("name", sorted(
        path.name for path in (pathlib.Path(__file__).parent.parent / "configs").glob("*.json")))
    def test_problem_echo_rebuilds_the_same_objects(self, name):
        path = pathlib.Path(__file__).parent.parent / "configs" / name
        config = RunConfig.from_json_file(path)
        assert RunConfig.from_mapping(config.to_dict()) == config
        if config.problem is not None:
            # every shipped key echoes as written, every other one as its default
            shipped = json.loads(path.read_text())["problem"]
            echo = config.to_dict()["problem"]
            assert {key: echo[key] for key in shipped} == shipped
            defaults = {f.name: f.default for f in dataclasses.fields(FPProblem)
                        if f.name in echo and f.name not in shipped}
            assert defaults and {key: echo[key] for key in defaults} == defaults


def test_every_tolerance_is_read_outside_config():
    """A tolerance that no module reads is a knob that cannot change a
    result; it only grows the config and the echoed report."""
    package = pathlib.Path(semidecay.__file__).parent
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in sorted(package.glob("*.py"))
                       if path.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []


def test_reports_equal_has_an_absolute_floor_near_zero():
    from semidecay.reports import reports_equal

    # H3's rate b of configs/testbed_seed1.json --seed 7 moved by 2.5e-16
    # (2.8e-12 relative) under a rounding-level change of the semigroup norms
    b = -8.92370154177955e-05
    left = {"h3": {"b": b, "C_b": 1.25}}
    moved = {"h3": {"b": b + 2.5e-16, "C_b": 1.25}}
    assert reports_equal(left, moved, rtol=1e-12)
    assert not reports_equal(left, moved, rtol=0.0)
    assert reports_equal(left, json.loads(json.dumps(left)), rtol=0.0)
    # the floor scales with rtol: a move far above rounding still fails
    assert not reports_equal(left, {"h3": {"b": b + 1e-13, "C_b": 1.25}}, rtol=1e-12)
    assert not reports_equal(left, {"h3": {"b": b, "C_b": 1.25 + 1e-11}}, rtol=1e-12)
