"""The benchmark's correctness gate, run in the test suite.

Each workload under ``perfbench/reference`` is run through ``cli.main`` with
the arguments the benchmark worker passes (``--jobs 1``, and the reference
seed for a seeded workload), and its outputs must pass
``perfbench/checks.py`` with no failed item. ``checks.py`` is read by path
and nothing is written under ``perfbench/``.
"""

import json
import os

import pytest

from semidecay.cli import main

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
REFERENCE = os.path.join(PERFBENCH, "reference")


@pytest.fixture(scope="module")
def checks():
    path = os.path.join(PERFBENCH, "checks.py")
    namespace = {"__name__": "perfbench_checks", "__file__": os.path.abspath(path)}
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), namespace)
    return namespace


@pytest.mark.parametrize("workload", sorted(os.listdir(REFERENCE)))
def test_run_matches_the_benchmark_reference(tmp_path, checks, workload):
    reference = checks["load_reference"](workload)
    config = os.path.join(PERFBENCH, "configs", workload.replace("-", "_") + ".json")
    with open(config, encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    argv = [command, "--config", config, "--jobs", "1", "--out", str(tmp_path)]
    if reference["seeded"]:
        argv += ["--seed", str(reference["seed"])]
    code = main(argv)
    report, csvs = checks["load_outputs"](str(tmp_path), reference["csv_files"])
    attempted, failed, problems = checks["check_run"](reference, reference["seed"],
                                                      code, report, csvs)
    assert attempted > 0
    assert failed == 0, problems
