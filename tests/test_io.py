import csv
import dataclasses
import json
import pathlib
import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import semidecay
from semidecay import eigen_decompose, generate_instance, load_instance, save_instance
from semidecay.config import FPProblem, RunConfig, Tolerances
from semidecay.errors import ConfigError
from semidecay.instances import GeneratedInstance
from semidecay.matio import read_matrix, write_csv, write_matrix

ROOT = pathlib.Path(__file__).parent.parent


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

    # the benchmark's configs too, so a reader that rejects one fails here
    @pytest.mark.parametrize("path", [*sorted((ROOT / "configs").glob("*.json")),
                                      *sorted((ROOT / "perfbench" / "configs").glob("*.json"))],
                             ids=lambda path: str(path.relative_to(ROOT)).removeprefix("configs/"))
    def test_problem_echo_rebuilds_the_same_objects(self, path):
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


# every JSON value: null, booleans, integers past the float range, floats
# with NaN and +-inf, strings (no "/", so a file name stays in the instance
# directory), arrays and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)

VALID_CONFIG = {"schema_version": 1, "command": "fp-decay", "seed": 3, "n_seeds": 1,
                "instance": {"n": 4, "a": -0.75, "gap": -1.0, "strength": 0.5, "k": 1},
                "problem": {"d": 1, "s": 2.0, "L": 8.0, "N": 40,
                            "weight": {"kind": "polynomial", "k": 3.0},
                            "swirl": None, "scheme": "implicit-euler", "t_max": 1.0,
                            "dt": 0.05, "initial_data": "heavy-tail", "target_a": None},
                "tolerances": {"tol_solve": 1e-10}, "instance_path": None,
                "out_dir": "out", "jobs": 1, "write_operators": False}
CONFIG_KEYS = [(key,) for key in [*VALID_CONFIG, "bogus"]] + [
    ("instance", key) for key in VALID_CONFIG["instance"]] + [
    ("problem", key) for key in VALID_CONFIG["problem"]] + [
    ("problem", "weight", "k"), ("problem", "weight", "kind"), ("tolerances", "tol_solve")]
MANIFEST_KEYS = [("schema_version",), ("certificate",), ("matrices",), ("weights_ambient",),
                 ("weights_small",), ("cell_measure",), ("projectors",), ("tolerances",),
                 ("bogus",), ("matrices", "full"), ("weights_small", 0)] + [
    ("certificate", key) for key in ("a", "r", "xi", "gap", "strength", "seed", "n",
                                     "embedding_constant")]


def _with_value(mapping, keys, value):
    mapping = json.loads(json.dumps(mapping))
    inner = mapping
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return mapping


@pytest.fixture(scope="module")
def saved_instance(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inst")
    inst = generate_instance(3, 4)
    path = save_instance(inst, directory, eigen_decompose(inst.split.full)[0])
    return directory, json.loads(pathlib.Path(path).read_text())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(target=st.sampled_from([("config.json", keys) for keys in CONFIG_KEYS]
                              + [("instance.json", keys) for keys in MANIFEST_KEYS]),
       value=JSON_VALUES)
def test_no_json_value_escapes_the_reader(saved_instance, target, value):
    """One value in one key of a valid config or manifest loads, or is a
    config error; no other exception escapes."""
    directory, manifest = saved_instance
    name, keys = target
    valid = VALID_CONFIG if name == "config.json" else manifest
    (directory / name).write_text(json.dumps(_with_value(valid, keys, value)))
    try:
        if name == "config.json":
            assert isinstance(RunConfig.from_json_file(directory / name), RunConfig)
        else:
            assert isinstance(load_instance(directory), GeneratedInstance)
    except ConfigError:
        pass


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
