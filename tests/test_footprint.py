"""Which optional scipy modules a process loads.

The dense testbed and the 1-D spectrum and resolvent scans call no sparse
eigensolver, sparse LU, graph routine or Matrix Market reader, so neither
``import semidecay`` nor those runs may load ``scipy.sparse.linalg``,
``scipy.io`` or ``scipy.sparse.csgraph``. Each case runs in a fresh
interpreter with ``PYTHONPATH=src`` and one BLAS thread, the way a CLI user
starts one.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import semidecay
from semidecay.fokker_planck import _DENSE_EIG_LIMIT

SRC = pathlib.Path(semidecay.__file__).parent.parent
OPTIONAL = ("scipy.sparse.linalg", "scipy.io", "scipy.sparse.csgraph")

# imports the package, runs the CLI on the argv given as JSON (if any) and
# prints the exit code and the optional modules then loaded
PROBE = f"""
import json, sys
import semidecay
from semidecay import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in {OPTIONAL!r} if m in sys.modules)]))
"""


def loaded_after(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                            cwd=cwd, env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    return code, loaded


def cli_argv(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, schema_version=1,
                                    out_dir=str(tmp_path / "out"))))
    return [config["command"], "--config", str(path)]


def test_import_loads_none(tmp_path):
    assert loaded_after([], tmp_path) == (0, [])


def test_testbed_loads_none(tmp_path):
    argv = cli_argv(tmp_path, {"command": "testbed", "seed": 1, "n_seeds": 2,
                               "instance": {"n": 16, "a": -0.75, "gap": -1.0,
                                            "strength": 0.5}})
    code, loaded = loaded_after(argv, tmp_path)
    assert (code, loaded) == (0, [])


@pytest.mark.parametrize("command", ["fp-resolvent-scan", "fp-spectrum"])
def test_one_dimensional_run_loads_none(tmp_path, command):
    argv = cli_argv(tmp_path, {"command": command, "problem": {
        "d": 1, "s": 2.0, "L": 8.0, "N": 60,
        "weight": {"kind": "polynomial", "k": 3.0}}})
    code, loaded = loaded_after(argv, tmp_path)
    assert (code, loaded) == (0, [])


def test_two_dimensional_decay_loads_the_sparse_solvers(tmp_path):
    # N = 36 puts 1296 unknowns above the dense eigensolver's limit
    assert 36 ** 2 > _DENSE_EIG_LIMIT
    argv = cli_argv(tmp_path, {"command": "fp-decay", "problem": {
        "d": 2, "s": 2.0, "L": 8.0, "N": 36,
        "weight": {"kind": "polynomial", "k": 3.0},
        "swirl": {"phi": "inverse_linear", "amplitude": 1.0},
        "scheme": "implicit-euler", "t_max": 1.0, "dt": 0.05,
        "initial_data": "heavy-tail"}})
    code, loaded = loaded_after(argv, tmp_path)
    assert code == 0
    assert "scipy.sparse.linalg" in loaded and "scipy.io" not in loaded


def import_time_modules(node):
    """The modules named by every import statement outside a function
    body: the imports that run when the module is imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
            yield child.module
            yield from (f"{child.module}.{alias.name}" for alias in child.names)
        yield from import_time_modules(child)


def test_no_module_imports_an_optional_one_at_import_time():
    stray = []
    for path in sorted((SRC / "semidecay").glob("*.py")):
        for name in import_time_modules(ast.parse(path.read_text())):
            if any(name == m or name.startswith(m + ".") for m in OPTIONAL):
                stray.append(f"{path.name}: {name}")
    assert stray == []
