import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semidecay import equivalence, fokker_planck, generate_instance, hypotheses, runner
from semidecay.cli import main
from semidecay.config import RunConfig, Tolerances
from semidecay.errors import (CertificateError, InsufficientSignalError,
                              MagnitudeGuardError, ProjectorMismatchError,
                              SingularityError)
from semidecay.factorization import shift_sweep
from semidecay.reports import RunReport, load_report, reports_equal
from semidecay.spaces import WeightedSpace

from helpers import write_instance_manifest

BASE_TESTBED = {
    "schema_version": 1,
    "command": "testbed",
    "seed": 1,
    "n_seeds": 1,
    "instance": {"n": 2, "a": -0.75, "gap": -1.0, "strength": 0.5},
}

BASE_FP = {
    "schema_version": 1,
    "command": "fp-decay",
    "problem": {"d": 1, "s": 2.0, "L": 8.0, "N": 120,
                "weight": {"kind": "polynomial", "k": 3.0},
                "scheme": "crank-nicolson", "t_max": 1.5, "dt": 0.01,
                "initial_data": "heavy-tail"},
}


def write_config(tmp_path, mapping, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


def test_testbed_passes_on_pinned_seed(tmp_path):
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 0
    report = load_report(tmp_path / "out" / "report.json")
    assert report["all_passed"]
    assert report["verdicts"]["seed_1.h1"]["verdict"] == "pass"


def test_unknown_config_key_gives_exit_four(tmp_path):
    cfg = write_config(tmp_path, {**BASE_TESTBED, "bogus": True})
    assert main(["testbed", "--config", cfg]) == 4


def test_enlarge_check_without_instance_path_gives_exit_four(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "command": "enlarge-check"})
    assert main(["enlarge-check", "--config", cfg]) == 4
    assert capsys.readouterr().err.strip() == (
        "config error: missing key 'instance_path' at config (required by enlarge-check)")


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe{}"),
    lambda path: path.write_text("{\"schema_version\": 1,"),
], ids=["absent", "directory", "not_utf8", "invalid_json"])
def test_missing_config_file_gives_exit_four(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    make(path)
    assert main(["testbed", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}")
    assert "Traceback" not in err


BASE_SPECTRUM = {"schema_version": 1, "command": "fp-spectrum",
                 "problem": {"d": 1, "s": 2.0, "L": 8.0, "N": 40,
                             "weight": {"kind": "polynomial", "k": 3.0}}}


@pytest.mark.parametrize("base", [BASE_TESTBED, BASE_SPECTRUM], ids=["testbed", "fp-spectrum"])
@pytest.mark.parametrize("out_dir, out_flag", [
    ("out", "blocker"), ("out", "blocker/sub"), ("", None),
], ids=["existing_file", "below_a_file", "empty"])
def test_uncreatable_output_directory_gives_exit_four(tmp_path, capsys, base, out_dir,
                                                      out_flag):
    (tmp_path / "blocker").write_text("")
    cfg = write_config(tmp_path, {**base, "out_dir": out_dir and str(tmp_path / out_dir)})
    argv = ["--out", str(tmp_path / out_flag)] if out_flag else []
    assert main([base["command"], "--config", cfg, *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert "Traceback" not in err


def test_weight_order_violation_gives_exit_four(tmp_path):
    bad = json.loads(json.dumps(BASE_FP))
    bad["problem"]["weight"]["k"] = 0.5
    cfg = write_config(tmp_path, bad)
    assert main(["fp-decay", "--config", cfg]) == 4


BASE_SWIRL = {**BASE_FP, "problem": {"d": 2, "s": 2.0, "L": 8.0, "N": 8,
                                     "swirl": {"phi": "constant", "amplitude": 1.0}}}
BASE_ENLARGE = {"schema_version": 1, "command": "enlarge-check"}


@pytest.mark.parametrize("base, edit, argv, names", [
    (BASE_FP, {"N": 2}, [], "N=2"),
    (BASE_FP, {"L": 0.0}, [], "L=0.0"),
    (BASE_SWIRL, {"swirl": {"amplitude": float("inf")}}, [], "problem.swirl"),
    (BASE_FP, {"dt": 0.0}, [], "problem.dt"),
    (BASE_FP, {"t_max": 0.025}, [], "problem.t_max"),
    (BASE_FP, {"t_max": 1e9, "dt": 1e-9, "N": 60}, [], "exceeds 10000000"),
    (BASE_TESTBED, {"n_seeds": 0}, [], "config.n_seeds"),
    (BASE_TESTBED, {"n_seeds": -3}, [], "config.n_seeds"),
    (BASE_TESTBED, {"seed": "x"}, [], "config.seed"),
    (BASE_FP, {"t_max": "abc"}, [], "problem.t_max"),
    (BASE_TESTBED, {"instance": {"n": "eight"}}, [], "instance.n"),
    (BASE_TESTBED, {"instance": {"n": 0}}, [], "at least 2 at instance"),
    (BASE_TESTBED, {"instance": {"n": 2, "k": 5}}, [], "k=5, n=2 at instance"),
    (BASE_TESTBED, {"instance": {"strength": -1.0}}, [], "nonnegative at instance"),
    (BASE_TESTBED, {"instance": {"a": 0.5}}, [], "got gap=-1.0, a=0.5 at instance"),
    (BASE_TESTBED, {"instance": {"a": -0.75, "gap": -0.76}}, [],
     "leaves no margin below a=-0.75 at instance"),
    (BASE_TESTBED, {"instance": {"strength": float("nan")}}, [], "strength=nan at instance"),
    (BASE_TESTBED, {"instance": {"strength": float("inf")}}, [], "strength=inf at instance"),
    (BASE_FP, {"target_a": 0.5}, [], "negative at problem.target_a"),
    (BASE_FP, {"L": 3.0}, [], "ratio 1.23e-04 exceeds the truncation guard 1.0e-12; "
                              "enlarge L at problem.L"),
    (BASE_FP, {"d": 2, "L": 20.0, "N": 40}, [],
     "potential range 760 exceeds the representable window; shrink L or s at problem.L"),
    (BASE_TESTBED, {"seed": 1.9}, [], "1.9 is not an integer at config.seed"),
    (BASE_TESTBED, {"seed": True}, [], "True is not an integer at config.seed"),
    (BASE_TESTBED, {"n_seeds": 2.5}, [], "at config.n_seeds"),
    (BASE_TESTBED, {"jobs": 50.9}, [], "at config.jobs"),
    (BASE_TESTBED, {"instance": {"n": 4.7}}, [], "4.7 is not an integer at instance.n"),
    (BASE_TESTBED, {"instance": {"n": 4, "k": 1.5}}, [], "at instance.k"),
    (BASE_FP, {"N": 50.9}, [], "50.9 is not an integer at problem.N"),
    (BASE_FP, {"d": 1.5}, [], "at problem.d"),
    (BASE_FP, {"scheme": "reference-exponential"}, [],
     "unknown scheme 'reference-exponential' at problem.scheme"),
    (BASE_TESTBED, {"seed": -1}, [], "got -1 at config.seed"),
    (BASE_TESTBED, {}, ["--seed", "-2"], "got -2 at config.seed"),
    (BASE_TESTBED, {"write_operators": "false"}, [], "'false' at config.write_operators"),
    ({**BASE_TESTBED, "tolerances": {}}, {"tolerances": {"h4_ceiling": float("nan")}}, [],
     "h4_ceiling must be finite"),
    ({**BASE_TESTBED, "tolerances": {}}, {"tolerances": {"tol_solve": -1.0}}, [],
     "tol_solve must be finite"),
    ({**BASE_TESTBED, "tolerances": {}}, {"tolerances": {"tol_solve": True}}, [],
     "tolerances.tol_solve is not a number: True"),
    (BASE_FP, {"s": True}, [], "True is not a number at problem.s"),
    (BASE_FP, {"L": "8"}, [], "'8' is not a number at problem.L"),
    (BASE_TESTBED, {"instance": {"a": "-0.5"}}, [], "'-0.5' is not a number at instance.a"),
    (BASE_ENLARGE, {"instance_path": 5}, [], "got 5 at config.instance_path"),
    ({**BASE_TESTBED, "tolerances": {}}, {"tolerances": {"injectivity_floor": 1e-8}}, [],
     "unknown key 'injectivity_floor' at tolerances"),
    (BASE_TESTBED, {"tolerances": 5}, [], "expected an object at tolerances"),
    (BASE_TESTBED, {"tolerances": None}, [], "expected an object at tolerances"),
], ids=["N", "L", "amplitude", "dt", "t_max", "t_max_samples",
        "n_seeds0", "n_seeds-3", "seed_cast", "t_max_cast", "n_cast", "n0",
        "k_above_n", "strength", "a_positive", "gap_no_margin", "strength_nan",
        "strength_inf",
        "target_a_positive", "L_truncation", "L_range", "seed_fraction", "seed_bool",
        "n_seeds_fraction",
        "jobs_fraction", "n_fraction", "k_fraction", "N_fraction", "d_fraction",
        "scheme_removed", "seed_negative", "seed_flag_negative",
        "write_operators_string", "tolerance_nan", "tolerance_negative",
        "tol_solve_bool", "s_bool", "L_string", "a_string", "instance_path_number",
        "injectivity_floor_removed", "tolerances_number", "tolerances_null"])
def test_invalid_input_gives_exit_four_without_traceback(tmp_path, capsys, base,
                                                          edit, argv, names):
    cfg_map = json.loads(json.dumps(base))
    target = cfg_map["problem"] if "problem" in cfg_map else cfg_map
    for key, val in edit.items():
        if isinstance(val, dict):
            target[key].update(val)
        else:
            target[key] = val
    cfg_map["out_dir"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, cfg_map)
    assert main([cfg_map["command"], "--config", cfg, *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["testbed"], ["testbed", "--config", "cfg.json", "--bogus"], ["bogus"],
    ["testbed", "--config", "cfg.json", "--tolerance", "tol_proj=1e-7"],
], ids=["no_config", "unknown_flag", "unknown_command", "tolerance_flag_removed"])
def test_usage_error_gives_exit_four(capsys, argv):
    """Exit 2 means checks failed or indeterminate: a usage error must
    not read as one."""
    assert main(argv) == 4
    assert "usage: semidecay" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["testbed", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_integral_floats_read_as_integers():
    config = RunConfig.from_mapping({**BASE_TESTBED, "seed": 4.0, "n_seeds": 2,
                                     "instance": {"n": 6.0, "k": 1.0}})
    assert (config.seed, config.n_seeds, config.instance.n, config.instance.k) == (4, 2, 6, 1)
    assert all(type(v) is int for v in (config.seed, config.instance.n, config.instance.k))


def _malform_nan_in_generator(inst_dir):
    # the generated operator is complex: each array entry is "re im"
    path = inst_dir / "T.mtx"
    lines = path.read_text().splitlines()
    size_line = next(i for i, line in enumerate(lines) if not line.startswith("%"))
    lines[size_line + 1] = "nan nan"
    path.write_text("\n".join(lines) + "\n")


def _malform_short_weights(inst_dir):
    manifest = json.loads((inst_dir / "instance.json").read_text())
    manifest["weights_ambient"] = manifest["weights_ambient"][:-1]
    manifest["weights_small"] = manifest["weights_small"][:-1]
    (inst_dir / "instance.json").write_text(json.dumps(manifest))


def _malform_manifest(edit):
    def malform(inst_dir):
        manifest = json.loads((inst_dir / "instance.json").read_text())
        edit(manifest)
        (inst_dir / "instance.json").write_text(json.dumps(manifest))
    return malform


def _set_certificate(**entries):
    return _malform_manifest(lambda m: m["certificate"].update(entries))


def _malform_invalid_json(inst_dir):
    path = inst_dir / "instance.json"
    path.write_text(path.read_text()[:-10])


@pytest.mark.parametrize("malform, names", [
    (_malform_nan_in_generator, ("full has non-finite entries", "full: T.mtx")),
    (_malform_short_weights, ("3 weights for an operator of size 4", "full: T.mtx")),
    (_malform_manifest(lambda m: m.pop("weights_small")), ("lacks the key 'weights_small'",)),
    (_malform_manifest(lambda m: m["certificate"].pop("gap")), ("lacks the key 'gap'",)),
    (_malform_invalid_json, ("cannot read instance manifest",)),
    (lambda inst_dir: (inst_dir / "A.mtx").unlink(), ("cannot read matrix", "A.mtx")),
    (lambda inst_dir: (inst_dir / "instance.json").unlink(),
     ("cannot read instance manifest",)),
    (_set_certificate(a=float("nan")), ("need a finite certificate", "a=nan")),
    (_set_certificate(a="x"), ("'x' is not a number at certificate.a",)),
    (_set_certificate(gap=float("inf")), ("need a finite certificate", "gap=inf")),
    (_set_certificate(strength=None), ("certificate.strength",)),
    (_set_certificate(xi=[[0.0, float("nan")]]), ("need a finite certificate",)),
    (_set_certificate(r=-1), ("need a finite certificate", "r=-1.0")),
    (_set_certificate(r=float("inf")), ("need a finite certificate", "r=inf")),
    (_set_certificate(n=99), ("certificate n = 99 for an operator of size 4",)),
    (_set_certificate(n=4.5), ("4.5 is not an integer at certificate.n",)),
    (_malform_manifest(lambda m: m.update(schema_version=True)),
     ("True is not an integer at schema_version",)),
], ids=["nan_in_T", "short_weights", "no_weights_small", "no_certificate_gap",
        "invalid_json", "no_A_matrix", "no_manifest", "nan_a", "string_a", "infinite_gap",
        "null_strength", "nan_xi", "negative_r", "infinite_r", "wrong_n", "fractional_n",
        "true_schema_version"])
def test_malformed_instance_directory_gives_exit_four(tmp_path, capsys, malform, names):
    from semidecay import eigen_decompose, generate_instance, save_instance
    inst_dir = tmp_path / "inst"
    inst = generate_instance(3, 4)
    save_instance(inst, inst_dir, eigen_decompose(inst.split.full)[0])
    malform(inst_dir)
    cfg = write_config(tmp_path, {
        "schema_version": 1, "command": "enlarge-check",
        "instance_path": str(inst_dir), "out_dir": str(tmp_path / "out")})
    assert main(["enlarge-check", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "instance.json" in err and all(name in err for name in names)
    assert "Traceback" not in err


def test_report_without_verdicts_does_not_pass():
    assert not RunReport(command="testbed", config={}).all_passed


def test_dense_scan_above_size_limit_is_indeterminate(tmp_path, capsys):
    """A scan above the dense size limit is recorded with the size guard's
    error as witness, like an eigenvalue on the line: the report is written
    without CSVs and the run exits 2."""
    cfg_map = json.loads(json.dumps(BASE_FP))
    cfg_map.update(command="fp-resolvent-scan", out_dir=str(tmp_path / "out"))
    cfg_map["problem"]["N"] = 4201
    cfg = write_config(tmp_path, cfg_map)
    assert main(["fp-resolvent-scan", "--config", cfg]) == 2
    assert "check error" not in capsys.readouterr().err
    verdicts = load_report(tmp_path / "out" / "report.json")["verdicts"]
    assert verdicts["assembly"]["verdict"] == "pass"
    assert verdicts["decomposition"]["verdict"] == "pass"
    assert verdicts["resolvent_scan"]["verdict"] == "indeterminate"
    assert "4201" in verdicts["resolvent_scan"]["witness"]
    assert sorted(os.listdir(tmp_path / "out")) == ["report.json"]


def test_infeasible_decomposition_gives_exit_three(tmp_path):
    cfg_map = json.loads(json.dumps(BASE_FP))
    cfg_map["problem"]["target_a"] = -50.0
    cfg_map["out_dir"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, cfg_map)
    assert main(["fp-decay", "--config", cfg]) == 3
    report = load_report(tmp_path / "out" / "report.json")
    # the frontier of best-achieved values ships with the failure
    assert report["constants"]["decomposition"]["frontier"]
    assert report["verdicts"]["decomposition"] == {
        "verdict": "fail", "witness": "no (M, R) reached -50.0 in the search box"}
    assert "details" not in report


def test_singular_h2_line_is_indeterminate(tmp_path, monkeypatch):
    exc = SingularityError("eigenvalue (-0.75+0j) lies on the scan line Re z = -0.75")

    def singular(*args, **kwargs):
        raise exc

    monkeypatch.setattr(runner, "check_h2", singular)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    report = load_report(tmp_path / "out" / "report.json")
    assert report["verdicts"]["seed_1.h2"] == {"verdict": "indeterminate",
                                               "witness": str(exc)}
    assert "details" not in report
    assert report["verdicts"]["seed_1.h1"]["verdict"] == "pass"


def test_singular_sweep_sample_still_writes_the_report(tmp_path, monkeypatch):
    """B - xi and T - xi are singular at xi = 0 on the pinned seed: H4 fails
    with its witness, and the factorization and the bound chain, read from
    the same sweep, are indeterminate with the sweep's error."""
    samples = np.array([-0.5, 0.0], dtype=complex)
    monkeypatch.setattr(runner, "sample_xi_region", lambda *args, **kwargs: samples)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    report = load_report(tmp_path / "out" / "report.json")
    inst = generate_instance(1, 2)
    _, exc = shift_sweep(inst.split, inst.pair, samples).b_failure
    verdicts = report["verdicts"]
    assert verdicts["seed_1.h4"]["verdict"] == "fail"
    assert "singular at xi=0j" in verdicts["seed_1.h4"]["witness"]
    for name in ("factorization", "bound_chain"):
        assert verdicts[f"seed_1.{name}"] == {"verdict": "indeterminate",
                                              "witness": str(exc)}
    # no chain was certified, so the run constants claim nothing
    assert report["constants"]["domination_violations"] is None
    assert report["constants"]["max_certified_bound"] is None
    assert verdicts["seed_1.h1"]["verdict"] == "pass"


@pytest.mark.parametrize("check, function", [
    ("h2", "check_h2"), ("factorization", "verify_factorization"),
    ("bound_chain", "enlargement_bound_chain")])
def test_package_error_in_a_check_is_its_indeterminate_verdict(tmp_path, monkeypatch,
                                                               capsys, check, function):
    """Any package error a guarded check raises, not only a
    SingularityError, is that check's indeterminate verdict with the error
    as witness; every other check runs and the report is written."""
    def planted(*args, **kwargs):
        raise MagnitudeGuardError("planted")

    monkeypatch.setattr(runner, function, planted)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "instance": {"n": 16},
                                  "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    assert "check error" not in capsys.readouterr().err
    verdicts = load_report(tmp_path / "out" / "report.json")["verdicts"]
    assert verdicts.pop(f"seed_1.{check}") == {"verdict": "indeterminate",
                                               "witness": "planted"}
    assert len(verdicts) == 7
    assert {name: entry["verdict"] for name, entry in verdicts.items()} == dict.fromkeys(
        verdicts, "pass")


def test_raising_decay_transfer_still_writes_the_report(tmp_path, monkeypatch, capsys):
    """A package error inside the decay transfer (here its projector) makes
    the transfer indeterminate and skips the converse; the run exits 2 with
    its report, and no check error."""
    exc = ProjectorMismatchError("contour and Schur-form projectors differ by 1.0e-03")

    def mismatched(*args, **kwargs):
        raise exc

    monkeypatch.setattr(equivalence, "spectral_projector", mismatched)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "instance": {"n": 16},
                                  "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    assert "check error:" not in capsys.readouterr().err
    verdicts = load_report(tmp_path / "out" / "report.json")["verdicts"]
    assert verdicts["seed_1.h1"]["verdict"] == "pass"
    assert verdicts["seed_1.decay_transfer"] == {"verdict": "indeterminate",
                                                 "witness": str(exc)}
    converse = verdicts["seed_1.converse"]
    assert converse["verdict"] == "indeterminate"
    assert "skipped" in converse["witness"]
    assert f"ProjectorMismatchError: {exc}" in converse["witness"]


def test_raising_converse_still_writes_the_report(tmp_path, monkeypatch, capsys):
    exc = CertificateError("1 discrete eigenvalues but 0 projectors")

    def inadmissible(*args, **kwargs):
        raise exc

    monkeypatch.setattr(runner, "verify_resolvent_from_decay", inadmissible)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "instance": {"n": 16},
                                  "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    assert "check error:" not in capsys.readouterr().err
    verdicts = load_report(tmp_path / "out" / "report.json")["verdicts"]
    assert verdicts["seed_1.decay_transfer"]["verdict"] == "pass"
    assert verdicts["seed_1.converse"] == {"verdict": "indeterminate", "witness": str(exc)}


@pytest.mark.parametrize("write_operators", [False, True],
                         ids=["report-only", "write-operators"])
def test_failed_eigensolve_still_writes_the_report(tmp_path, monkeypatch, capsys,
                                                   write_operators):
    """An eigensolver that fails makes H1 indeterminate with its error and
    skips H2 and H3, which read the spectrum, and the decay transfer and the
    converse, which need a passing H1; H4 runs as usual and the run exits 2
    with its report. No instance manifest is written, for want of the
    spectrum its projectors are computed from."""
    def unconverged(*args, **kwargs):
        raise scipy.linalg.LinAlgError("eig algorithm did not converge")

    monkeypatch.setattr(scipy.linalg, "eig", unconverged)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "instance": {"n": 16},
                                  "write_operators": write_operators,
                                  "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    assert "check error:" not in capsys.readouterr().err
    report = load_report(tmp_path / "out" / "report.json")
    verdicts = report["verdicts"]
    error = "dense eigensolver failed: eig algorithm did not converge"
    assert verdicts["seed_1.h1"] == {"verdict": "indeterminate", "witness": error}
    for name in ("h2", "h3"):
        assert verdicts[f"seed_1.{name}"] == {
            "verdict": "indeterminate",
            "witness": f"skipped: the eigensolve raised EigenConvergenceError: {error}"}
    assert verdicts["seed_1.h4"]["verdict"] == "pass"
    assert "seed_1.decay_transfer" not in verdicts and "seed_1.converse" not in verdicts
    assert not (tmp_path / "out" / "instance").exists()
    assert report["artifacts"] == []


def test_equilibrium_initial_data_passes_decay(tmp_path):
    cfg_map = json.loads(json.dumps(BASE_FP))
    cfg_map["problem"]["initial_data"] = "equilibrium"
    cfg_map["out_dir"] = str(tmp_path / "out")
    cfg = write_config(tmp_path, cfg_map)
    assert main(["fp-decay", "--config", cfg]) == 0
    report = load_report(tmp_path / "out" / "report.json")
    assert report["verdicts"]["decay"] == {"verdict": "pass",
                                           "constants": {"equilibrium": True}}
    assert "details" not in report


def test_decay_below_the_signal_floor_is_indeterminate(tmp_path, monkeypatch):
    def no_signal(*args, **kwargs):
        raise InsufficientSignalError("only 1 samples above the floor")

    monkeypatch.setattr(fokker_planck, "fit_exponential_decay", no_signal)
    cfg = write_config(tmp_path, {**BASE_FP, "out_dir": str(tmp_path / "out")})
    assert main(["fp-decay", "--config", cfg]) == 2
    report = load_report(tmp_path / "out" / "report.json")
    assert report["verdicts"]["decay"] == {
        "verdict": "indeterminate", "witness": "deviation fell below the signal floor"}
    assert "details" not in report


def test_abscissa_on_spectrum_reports_indeterminate(tmp_path):
    from semidecay import eigen_decompose, generate_instance, save_instance
    inst = generate_instance(1, 2)
    inst_dir = tmp_path / "inst"
    save_instance(inst, inst_dir, eigen_decompose(inst.split.full)[0])
    manifest = json.loads((inst_dir / "instance.json").read_text())
    manifest["certificate"]["a"] = -1.0   # sits exactly on an eigenvalue
    (inst_dir / "instance.json").write_text(json.dumps(manifest))
    cfg = write_config(tmp_path, {
        "schema_version": 1, "command": "enlarge-check",
        "instance_path": str(inst_dir), "out_dir": str(tmp_path / "out")})
    assert main(["enlarge-check", "--config", cfg]) == 2
    report = load_report(tmp_path / "out" / "report.json")
    assert report["verdicts"]["seed_loaded.h1"]["verdict"] == "indeterminate"


def test_fp_spectrum_writes_sparse_generator(tmp_path):
    """A 66 x 66 grid (4356 unknowns) writes its generator without densifying."""
    from scipy.io import mmread

    from semidecay.config import RunConfig
    from semidecay.fokker_planck import build_problem
    cfg = write_config(tmp_path, {
        "schema_version": 1, "command": "fp-spectrum",
        "problem": {"d": 2, "s": 2.0, "L": 8.0, "N": 66,
                    "weight": {"kind": "polynomial", "k": 3.0}},
        "write_operators": True, "out_dir": str(tmp_path / "out")})
    assert main(["fp-spectrum", "--config", cfg]) == 0
    written = mmread(str(tmp_path / "out" / "generator.mtx"))
    generator = build_problem(RunConfig.from_json_file(cfg).problem).generator
    assert written.shape == generator.shape == (4356, 4356)
    assert written.nnz == generator.nnz


def test_determinism_byte_identical_csv(tmp_path):
    for name in ("one", "two"):
        cfg = write_config(tmp_path,
                           {**BASE_FP, "out_dir": str(tmp_path / name)},
                           name=f"{name}.json")
        assert main(["fp-decay", "--config", cfg]) == 0
    csv_one = (tmp_path / "one" / "trajectory.csv").read_bytes()
    csv_two = (tmp_path / "two" / "trajectory.csv").read_bytes()
    assert csv_one == csv_two
    rep_one = load_report(tmp_path / "one" / "report.json")
    rep_two = load_report(tmp_path / "two" / "report.json")
    rep_two["config"]["out_dir"] = rep_one["config"]["out_dir"]
    assert reports_equal(rep_one, rep_two, rtol=0.0)


def test_jobs_do_not_change_results(tmp_path):
    reports = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cfg = write_config(tmp_path,
                           {**BASE_TESTBED, "n_seeds": 3, "instance": {"n": 6},
                            "out_dir": str(out)},
                           name=f"jobs{jobs}.json")
        assert main(["testbed", "--config", cfg, "--jobs", str(jobs)]) == 0
        reports[jobs] = load_report(out / "report.json")
    reports[2]["config"]["out_dir"] = reports[1]["config"]["out_dir"]
    reports[2]["config"]["jobs"] = reports[1]["config"]["jobs"]
    assert reports_equal(reports[1], reports[2], rtol=0.0)


def test_loaded_instance_sample_does_not_depend_on_n_seeds(tmp_path):
    """One loaded instance is one instance: ``n_seeds`` does not thin its
    H4 sample."""
    from semidecay import eigen_decompose, save_instance
    inst = generate_instance(3, 6)
    save_instance(inst, tmp_path / "inst", eigen_decompose(inst.split.full)[0])
    verdicts = []
    for n_seeds in (1, 5):
        out = tmp_path / f"out{n_seeds}"
        cfg = write_config(tmp_path, {**BASE_ENLARGE, "n_seeds": n_seeds,
                                      "instance_path": str(tmp_path / "inst"),
                                      "out_dir": str(out)})
        assert main(["enlarge-check", "--config", cfg]) == 0
        verdicts.append(load_report(out / "report.json")["verdicts"])
    assert verdicts[0] == verdicts[1]


def test_tolerance_override_lands_in_report(tmp_path):
    cfg = write_config(tmp_path, {**BASE_TESTBED, "tolerances": {"tol_proj": 1e-7},
                                  "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 0
    report = load_report(tmp_path / "out" / "report.json")
    assert report["config"]["tolerances"]["tol_proj"] == 1e-7


def test_tolerance_override_lands_in_instance_manifest(tmp_path):
    cfg = write_config(tmp_path, {**BASE_TESTBED, "write_operators": True,
                                  "tolerances": {"tol_proj": 1e-7},
                                  "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 0
    report = load_report(tmp_path / "out" / "report.json")
    manifest = json.loads((tmp_path / "out" / "instance" / "instance.json").read_text())
    assert manifest["tolerances"]["tol_proj"] == 1e-7
    assert manifest["tolerances"] == report["config"]["tolerances"]


def test_golden_seed_one_report(tmp_path):
    golden_path = os.path.join(os.path.dirname(__file__), "data",
                               "testbed_seed1_report.json")
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 0
    produced = load_report(tmp_path / "out" / "report.json")
    golden = load_report(golden_path)
    golden["config"]["out_dir"] = produced["config"]["out_dir"]
    assert reports_equal(produced, golden, rtol=1e-8)


def _readme_constants_columns():
    """The README verdict table's testbed rows: verdict -> the names in
    its constants column."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [line.strip().strip("|").split("|") for line in fh
                if line.startswith("| `seed_N.")]
    return {cells[0].strip().strip("`"): set(re.findall(r"`([^`]+)`", cells[-1]))
            for cells in rows}


def test_readme_verdict_table_names_every_constant(tmp_path):
    """Each testbed verdict of the golden run prints exactly the constants
    its README row names."""
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 0
    verdicts = load_report(tmp_path / "out" / "report.json")["verdicts"]
    columns = _readme_constants_columns()
    assert {name.replace("seed_1.", "seed_N.") for name in verdicts} == set(columns)
    for name, entry in verdicts.items():
        assert set(entry["constants"]) == columns[name.replace("seed_1.", "seed_N.")], name


BASE_SCAN = {**BASE_FP, "command": "fp-resolvent-scan",
             "problem": {"d": 1, "s": 2.0, "L": 8.0, "N": 60,
                         "weight": {"kind": "polynomial", "k": 3.0}}}


def test_resolvent_scan_verdict_needs_both_certificates(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {**BASE_SCAN, "out_dir": str(tmp_path / "closed")})
    assert main(["fp-resolvent-scan", "--config", cfg]) == 0
    closed = load_report(tmp_path / "closed" / "report.json")
    assert closed["verdicts"]["resolvent_scan"]["verdict"] == "pass"
    assert "witness" not in closed["verdicts"]["resolvent_scan"]
    # the certified bounds the verdict rests on are printed beside the grid maxima
    constants = closed["verdicts"]["resolvent_scan"]["constants"]
    assert set(constants) == {"K_small", "K_ambient", "K_small_certified",
                              "K_ambient_certified", "a"}
    for space in ("small", "ambient"):
        assert constants[f"K_{space}"] == closed["constants"][f"K_{space}"]
        assert np.isfinite(constants[f"K_{space}_certified"])
        assert constants[f"K_{space}_certified"] >= constants[f"K_{space}"]

    # a three-point grid on the small-space scan stops short of the Neumann
    # tail, so its certificate cannot close
    scan = runner.resolvent_scan_fp

    def short_small_scan(disc, a, tol):
        dense = disc.dense_generator()
        with monkeypatch.context() as patch:
            patch.setattr(hypotheses, "make_y_grid", lambda *_: np.array([-1.0, 0.0, 1.0]))
            small = hypotheses.check_h2(dense, a, disc.space_small,
                                        np.linalg.eigvals(dense.astype(complex)), tol=tol)
        return replace(scan(disc, a, tol=tol), small=small)

    monkeypatch.setattr(runner, "resolvent_scan_fp", short_small_scan)
    cfg = write_config(tmp_path, {**BASE_SCAN, "out_dir": str(tmp_path / "open")})
    assert main(["fp-resolvent-scan", "--config", cfg]) == 2
    entry = load_report(tmp_path / "open" / "report.json")["verdicts"]["resolvent_scan"]
    assert entry["verdict"] == "indeterminate"
    assert entry["witness"].startswith("scan_small: certified bound inf")
    assert "scan_ambient" not in entry["witness"]
    assert entry["constants"]["K_small_certified"] == "inf"
    assert entry["constants"]["K_ambient_certified"] == constants["K_ambient_certified"]


def test_singular_scan_line_still_writes_the_report(tmp_path, capsys):
    """A boundary margin wide enough to put an eigenvalue on the scan line
    makes the scan indeterminate, like H2 in the testbed, and writes no CSV."""
    cfg = write_config(tmp_path, {**BASE_SCAN, "tolerances": {"boundary_margin": 0.5},
                                  "out_dir": str(tmp_path / "out")})
    assert main(["fp-resolvent-scan", "--config", cfg]) == 2
    assert "check error" not in capsys.readouterr().err
    report = load_report(tmp_path / "out" / "report.json")
    entry = report["verdicts"]["resolvent_scan"]
    assert entry["verdict"] == "indeterminate"
    assert entry["witness"].startswith("eigenvalue ")
    assert "lies on the scan line" in entry["witness"]
    assert report["verdicts"]["decomposition"]["verdict"] == "pass"
    assert "K_small" not in report["constants"]
    assert sorted(os.listdir(tmp_path / "out")) == ["report.json"]


def test_open_h2_certificate_carries_its_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(hypotheses, "MAX_REFINE_DEPTH", 1)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out"),
                                  "instance": {**BASE_TESTBED["instance"], "n": 16}})
    assert main(["testbed", "--config", cfg]) == 2
    report = load_report(tmp_path / "out" / "report.json")
    entry = report["verdicts"]["seed_1.h2"]
    h2 = entry["constants"]
    assert h2["n_uncertified_segments"] > 0
    assert h2["K_certified"] >= h2["K"]
    assert entry == {"verdict": "indeterminate",
                     "witness": f"certified bound {h2['K_certified']:.6e}, "
                                f"{h2['n_uncertified_segments']} uncertified segments",
                     "constants": h2}


def test_non_finite_h3_fit_is_indeterminate(tmp_path, monkeypatch):
    check_h3 = runner.check_h3

    def no_rate(op, space, eigvals, tol=None):
        report = check_h3(op, space, eigvals, tol=tol)
        return replace(report, fit=replace(report.fit, rate=np.nan))

    monkeypatch.setattr(runner, "check_h3", no_rate)
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    report = load_report(tmp_path / "out" / "report.json")
    assert report["verdicts"]["seed_1.h3"]["verdict"] == "indeterminate"
    assert report["verdicts"]["seed_1.h3"]["witness"] == "fitted constants not finite: b = nan"
    assert report["verdicts"]["seed_1.h1"]["verdict"] == "pass"


@pytest.mark.parametrize("t_mat,tolerances,error", [
    (((100.0, 1e100), (0.0, 100.5)), {}, MagnitudeGuardError),
    (((-100.0, 0.0), (0.0, -100.1)), {"floor_factor": 1e13}, InsufficientSignalError)],
    ids=["overflow", "no_signal"])
def test_raised_h3_is_indeterminate_and_the_report_is_written(tmp_path, t_mat, tolerances,
                                                             error):
    """An H3 whose propagators overflow, or whose norms fall below the
    signal floor, is recorded with its error as witness, like H2's
    SingularityError; the run still writes its report. The horizon keeps
    e^{t Re lambda} below e^500, so the overflow takes transient growth
    and the lost signal a raised floor."""
    t_mat = np.array(t_mat)
    write_instance_manifest(tmp_path / "inst", t_mat, np.zeros((2, 2)),
                            np.ones(2), np.ones(2), a=-0.5, r=0.25, xi=(0.0,))
    cfg = write_config(tmp_path, {**BASE_ENLARGE, "instance_path": str(tmp_path / "inst"),
                                  "out_dir": str(tmp_path / "out"), "tolerances": tolerances})
    with pytest.raises(error) as direct:
        hypotheses.check_h3(t_mat, WeightedSpace(np.ones(2)), np.diag(t_mat),
                            tol=Tolerances(**tolerances))
    assert main(["enlarge-check", "--config", cfg]) == 2
    entry = load_report(tmp_path / "out" / "report.json")["verdicts"]["seed_loaded.h3"]
    assert entry == {"verdict": "indeterminate", "witness": str(direct.value)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), complex_entries=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_enlarge_check_on_random_instances_exits_with_a_report(n, complex_entries, seed):
    """A loaded instance with a Gaussian T (real or complex), a sparse A,
    weights log-uniform in [1e-3, 1e3] and a random certificate exits with
    a documented code, with no traceback, and writes its report whenever
    it ran its checks."""
    rng = np.random.default_rng(seed)
    t_mat = rng.standard_normal((n, n))
    if complex_entries:
        t_mat = t_mat + 1j * rng.standard_normal((n, n))
    a_mat = np.where(rng.random((n, n)) < 0.2, t_mat, 0.0)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
    xi = rng.uniform(-2.0, 2.0, rng.integers(0, 3)) + 1j * rng.uniform(-2.0, 2.0)
    with tempfile.TemporaryDirectory() as tmp:
        write_instance_manifest(os.path.join(tmp, "inst"), t_mat, a_mat, *weights,
                                a=float(rng.uniform(-3.0, 1.0)),
                                r=float(rng.uniform(0.01, 1.0)), xi=xi)
        out = os.path.join(tmp, "out")
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({**BASE_ENLARGE, "instance_path": os.path.join(tmp, "inst"),
                       "out_dir": out}, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["enlarge-check", "--config", cfg])
        assert code in (0, 2, 3, 4), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code in (0, 2):
            assert os.path.exists(os.path.join(out, "report.json")), stderr.getvalue()


def _broken_factorization(verify_factorization, seen):
    def broken(sweep):
        report = verify_factorization(sweep)
        residuals = report.identity_residuals.copy()
        residuals[3] = 1.0
        seen.append(f"identity residual 1.000e+00 exceeds 1e-09 "
                    f"at xi = {complex(report.samples[3])}")
        return replace(report, identity_residuals=residuals, max_identity_residual=1.0)
    return broken


def _broken_bound_chain(enlargement_bound_chain, seen):
    def broken(sweep):
        report = enlargement_bound_chain(sweep)
        direct = report.direct_values.copy()
        direct[2] = 2.0 * report.chain_values[2]
        seen.append(f"chain {report.chain_values[2]:.6e} < direct {direct[2]:.6e} "
                    f"at xi = {complex(report.samples[2])}")
        return replace(report, direct_values=direct, dominated=False)
    return broken


def _broken_decay_transfer(verify_decay_from_resolvent, seen):
    def broken(op, space, h1, rate, tol=None):
        # a requested rate far below the spectrum cannot be met
        report = verify_decay_from_resolvent(op, space, h1, 100.0 * rate, tol=tol)
        seen.append(f"fitted rate {report.fit.rate:.6e} exceeds the requested "
                    f"rate {100.0 * rate:.6e}")
        return report
    return broken


@pytest.mark.parametrize("check, function, breaker", [
    ("factorization", "verify_factorization", _broken_factorization),
    ("bound_chain", "enlargement_bound_chain", _broken_bound_chain),
    ("decay_transfer", "verify_decay_from_resolvent", _broken_decay_transfer),
])
def test_failed_check_carries_a_witness(tmp_path, monkeypatch, check, function, breaker):
    seen = []
    monkeypatch.setattr(runner, function, breaker(getattr(runner, function), seen))
    cfg = write_config(tmp_path, {**BASE_TESTBED, "out_dir": str(tmp_path / "out")})
    assert main(["testbed", "--config", cfg]) == 2
    entry = load_report(tmp_path / "out" / "report.json")["verdicts"][f"seed_1.{check}"]
    assert entry["verdict"] == "fail"
    assert entry["witness"] == seen[0]


def test_shipped_two_dimensional_swirl_config(tmp_path):
    """The shipped 2-D swirl run: sparse gap, decomposition search and
    sparse stepping together."""
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "fp_d2_swirl.json")
    assert main(["fp-decay", "--config", cfg, "--out", str(tmp_path)]) == 0
    verdicts = load_report(tmp_path / "report.json")["verdicts"]
    for name in ("assembly", "decomposition", "decay"):
        assert verdicts[name]["verdict"] == "pass"


SHIPPED_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(SHIPPED_CONFIGS)))
def test_shipped_config_passes(tmp_path, name):
    cfg = os.path.join(SHIPPED_CONFIGS, name)
    with open(cfg, encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path / "report.json")["all_passed"]
