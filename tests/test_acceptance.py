"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 1-3 share a 100-instance seeded suite (sizes up to 32). The
drift-diffusion criteria use the analytic oracles: the quadratic-potential
gap (-2), the zero-flux Laplacian gap (-(pi/2L)^2), and second-order
refinement slopes.
"""

import json
import time

import numpy as np
import pytest

from semidecay import generate_instance
from semidecay.cli import main as cli_main
from semidecay.equivalence import (verify_decay_from_resolvent,
                                   verify_resolvent_from_decay)
from semidecay.factorization import (enlargement_bound_chain, shift_sweep,
                                     verify_factorization)
from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential, SwirlField, UniformPotential,
                                     _similarity, assemble_skew_part,
                                     decay_experiment, initial_datum,
                                     spectral_gap_H)
from semidecay.hypotheses import PASS, check_h1, sample_xi_region
from semidecay.reports import load_report, reports_equal
from scipy.linalg import eigh_tridiagonal

from helpers import envelope_holds

N_SEEDS = 100


def _verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite_instances():
    size_rng = np.random.default_rng(0)
    out = []
    for seed in range(1, N_SEEDS + 1):
        n = 2 if seed == 1 else int(size_rng.integers(4, 33))
        out.append(generate_instance(seed, n))
    return out


@pytest.fixture(scope="module")
def suite_samples(suite_instances):
    samples = []
    for inst in suite_instances:
        cert = inst.certificate
        xi = sample_xi_region(cert.a, cert.r, list(cert.xi),
                              n_line=9, n_circle=8, grid_shape=(6, 6))
        assert len(xi) >= 25
        samples.append(xi)
    return samples


def test_criterion_1_factorization_identity(suite_instances, suite_samples):
    start = time.monotonic()
    worst_identity = worst_mismatch = 0.0
    for inst, xi in zip(suite_instances, suite_samples):
        report = verify_factorization(shift_sweep(inst.split, inst.pair, xi))
        worst_identity = max(worst_identity, report.max_identity_residual)
        worst_mismatch = max(worst_mismatch, report.max_inverse_mismatch)
    elapsed = time.monotonic() - start
    ok = worst_identity <= 1e-9 and worst_mismatch <= 1e-8 and elapsed <= 60.0
    _verdict(1, "factorization identity", ok,
             f"identity {worst_identity:.2e}, mismatch {worst_mismatch:.2e}, "
             f"{elapsed:.1f}s over {N_SEEDS} seeds")


def test_criterion_2_bound_chain_domination(suite_instances, suite_samples):
    violations = 0
    for inst, xi in zip(suite_instances, suite_samples):
        report = enlargement_bound_chain(shift_sweep(inst.split, inst.pair, xi))
        if not report.dominated:
            violations += 1
    _verdict(2, "bound-chain domination", violations == 0,
             f"{violations} violations over {N_SEEDS} seeds")


def test_criterion_3_decay_resolvent_round_trip(suite_instances):
    worst_ratio = 0.0
    for inst in suite_instances:
        cert = inst.certificate
        h1 = check_h1(inst.split.full, cert.a, cert.r, expected_k=cert.k)
        assert h1.verdict == PASS
        transfer = verify_decay_from_resolvent(inst.split.full, inst.pair.ambient,
                                               h1, 0.5 * cert.a)
        assert transfer.verdict == PASS
        certificate = transfer.certificate
        assert envelope_holds(transfer.t_grid, transfer.deviation_norms,
                              certificate.prefactor, certificate.level)
        converse = verify_resolvent_from_decay(inst.split.full, certificate)
        assert len(converse.z_samples) >= 50
        assert converse.verdict == PASS
        worst_ratio = max(worst_ratio, converse.laplace_max_ratio)
    _verdict(3, "decay/resolvent round trip", worst_ratio <= 1.0 + 1e-6,
             f"worst Laplace ratio {worst_ratio:.8f} over {N_SEEDS} seeds")


def test_criterion_4_generator_structure():
    rng = np.random.default_rng(7)
    worst = {"mass": 0.0, "symmetry": 0.0, "null": 0.0, "positive": 0.0}
    for s in (1.0, 2.0, 3.0):
        length = 32.0 if s == 1.0 else 8.0
        for n in (200, 400, 800):
            grid = FPGrid(d=1, L=length, N=n)
            disc = FPDiscretization.build(grid, Potential(s),
                                          EnlargedWeight("polynomial", 3.0))
            gen = disc.generator
            f = rng.standard_normal(n)
            g = rng.standard_normal(n)
            mass = abs((gen @ f).sum() * grid.h) / np.linalg.norm(gen @ f)
            worst["mass"] = max(worst["mass"], mass)
            w = disc.space_small.weights
            lhs = np.sum((disc.sym @ f) * g * w)
            rhs = np.sum(f * (disc.sym @ g) * w)
            worst["symmetry"] = max(worst["symmetry"],
                                    abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            null = disc.sym @ disc.mu
            scale = np.abs(disc.sym) @ np.abs(disc.mu)
            worst["null"] = max(worst["null"],
                                np.max(np.abs(null) / np.maximum(scale, 1e-300)))
            s_mat = _similarity(disc.sym, -np.log(disc.mu))
            eigvals = eigh_tridiagonal(s_mat.diagonal(),
                                       0.5 * (s_mat.diagonal(1) + s_mat.diagonal(-1)),
                                       eigvals_only=True)
            eig_scale = np.max(np.abs(eigvals))
            worst["positive"] = max(worst["positive"], eigvals[-1] / eig_scale)
            assert np.sum(np.abs(eigvals) <= 1e-9 * eig_scale) == 1
    ok = (worst["mass"] <= 1e-13 and worst["symmetry"] <= 1e-12
          and worst["null"] <= 1e-14 and worst["positive"] <= 1e-9)
    _verdict(4, "generator structure (s in {1,2,3}, N in {200,400,800})", ok,
             f"mass {worst['mass']:.1e}, sym {worst['symmetry']:.1e}, "
             f"null {worst['null']:.1e}")


def test_criterion_5_spectral_gap_oracles():
    start = time.monotonic()
    grid = FPGrid(d=1, L=8.0, N=2000)
    disc = FPDiscretization.build(grid, Potential(2.0),
                                  EnlargedWeight("polynomial", 3.0))
    gap = spectral_gap_H(disc)
    err_quadratic = abs(gap.lambda_gap - (-2.0)) / 2.0
    surrogate = FPDiscretization.build(grid, UniformPotential(),
                                       EnlargedWeight("polynomial", 3.0))
    gap_flat = spectral_gap_H(surrogate)
    exact_flat = -(np.pi / (2 * grid.L)) ** 2
    err_flat = abs(gap_flat.lambda_gap - exact_flat) / abs(exact_flat)
    elapsed = time.monotonic() - start
    ok = err_quadratic <= 0.01 and err_flat <= 0.01 and elapsed <= 120.0
    _verdict(5, "spectral gap oracles", ok,
             f"gap {gap.lambda_gap:.6f} (err {err_quadratic:.2e}), "
             f"surrogate err {err_flat:.2e}, {elapsed:.1f}s")


def test_criterion_6_enlarged_space_decay():
    grid = FPGrid(d=1, L=8.0, N=1200)
    disc = FPDiscretization.build(grid, Potential(2.0),
                                  EnlargedWeight("polynomial", 3.0))
    lam_p = spectral_gap_H(disc).lambda_gap
    f0 = initial_datum(disc, "heavy-tail")
    x = grid.axis()
    np.testing.assert_allclose(f0, (1 + x**2) ** -2.0, rtol=1e-14)
    t_grid = np.arange(0.0, 4.0 + 1e-9, 0.01)
    result = decay_experiment(disc, disc.space_ambient, f0, t_grid,
                              scheme="crank-nicolson", pinned_rate=lam_p)
    rel = result.deviation_ambient / result.deviation_ambient[0]

    # certified envelope at a rate inside the widened gap window
    pinned = result.pinned
    window_ok = lam_p - 0.1 * abs(lam_p) <= pinned.rate < 0.0
    envelope_ok = envelope_holds(result.times, rel, pinned.prefactor, pinned.rate)

    # the free-fitted run exhibits a prefactor above one, witnessed by a
    # sample where the deviation exceeds its initial value times e^{rate t}
    free = result.fit
    exceed = rel > np.exp(free.rate * result.times)
    c_above_one = free.prefactor > 1.0 and bool(exceed.any())
    free_envelope_ok = envelope_holds(result.times, rel, free.prefactor, free.rate)

    ok = window_ok and envelope_ok and free.rate < 0.0 and c_above_one and free_envelope_ok
    _verdict(6, "enlarged-space decay", ok,
             f"pinned rate {pinned.rate:.4f} C {pinned.prefactor:.4f}; "
             f"free rate {free.rate:.4f} C {free.prefactor:.4f}, "
             f"{int(exceed.sum())} exceedance samples")


def test_criterion_7_skew_part_and_rotational_decay():
    start = time.monotonic()
    pot = Potential(2.0)
    weight = EnlargedWeight("polynomial", 3.0)
    swirl = SwirlField("inverse_linear", 1.0)
    forms = []
    steps = []
    for n in (32, 64, 128):
        grid = FPGrid(d=2, L=8.0, N=n)
        skew = assemble_skew_part(grid, pot, swirl)
        x, y = grid.meshes()
        w = weight.theta(pot.value(x, y)).ravel()
        f = (np.exp(-((x - 0.7) ** 2 + (y + 0.4) ** 2) / 2) * (1 + 0.3 * x)).ravel()
        forms.append(abs(np.sum((skew @ f) * f * w)) / np.sum(f ** 2 * w))
        steps.append(grid.h)
    slope = np.polyfit(np.log(steps), np.log(forms), 1)[0]

    grid = FPGrid(d=2, L=8.0, N=48)
    disc = FPDiscretization.build(grid, pot, weight, swirl=swirl)
    f0 = initial_datum(disc, "heavy-tail")
    t_grid = np.arange(0.0, 3.0 + 1e-9, 0.02)
    result = decay_experiment(disc, disc.space_ambient, f0, t_grid)
    rel = result.deviation_ambient / result.deviation_ambient[0]
    decay_ok = (result.fit is not None and result.fit.rate < 0.0
                and envelope_holds(result.times, rel,
                                   result.fit.prefactor, result.fit.rate))
    elapsed = time.monotonic() - start
    ok = 1.7 <= slope <= 2.3 and decay_ok and elapsed <= 300.0
    _verdict(7, "rotational part", ok,
             f"slope {slope:.3f}, decay rate {result.fit.rate:.4f}, "
             f"C {result.fit.prefactor:.3f}, {elapsed:.1f}s")


def test_criterion_8_cli_determinism_and_exit_codes(tmp_path):
    import os
    testbed = {"schema_version": 1, "command": "testbed", "seed": 1,
               "n_seeds": 1,
               "instance": {"n": 2, "a": -0.75, "gap": -1.0, "strength": 0.5}}
    fp = {"schema_version": 1, "command": "fp-decay",
          "problem": {"d": 1, "s": 2.0, "L": 8.0, "N": 120,
                      "weight": {"kind": "polynomial", "k": 3.0},
                      "scheme": "crank-nicolson", "t_max": 1.5, "dt": 0.01,
                      "initial_data": "heavy-tail"}}

    def run(command, mapping, out):
        cfg = tmp_path / f"{out}.json"
        cfg.write_text(json.dumps({**mapping, "out_dir": str(tmp_path / out)}))
        return cli_main([command, "--config", str(cfg)])

    ok_exit = run("testbed", testbed, "tb1") == 0
    reports = [load_report(tmp_path / "tb1" / "report.json")]
    run("testbed", testbed, "tb2")
    reports.append(load_report(tmp_path / "tb2" / "report.json"))
    reports[1]["config"]["out_dir"] = reports[0]["config"]["out_dir"]
    deterministic = reports_equal(reports[0], reports[1], rtol=0.0)

    golden = load_report(os.path.join(os.path.dirname(__file__), "data",
                                      "testbed_seed1_report.json"))
    golden["config"]["out_dir"] = reports[0]["config"]["out_dir"]
    golden_ok = reports_equal(reports[0], golden, rtol=1e-8)

    assert run("fp-decay", fp, "fp1") == 0
    assert run("fp-decay", fp, "fp2") == 0
    csv_identical = ((tmp_path / "fp1" / "trajectory.csv").read_bytes()
                     == (tmp_path / "fp2" / "trajectory.csv").read_bytes())

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({**testbed, "mystery_key": 1}))
    config_exit = cli_main(["testbed", "--config", str(bad_cfg)]) == 4

    infeasible = json.loads(json.dumps(fp))
    infeasible["problem"]["target_a"] = -50.0
    infeasible["out_dir"] = str(tmp_path / "inf")
    inf_cfg = tmp_path / "inf.json"
    inf_cfg.write_text(json.dumps(infeasible))
    infeasible_exit = cli_main(["fp-decay", "--config", str(inf_cfg)]) == 3

    ok = (ok_exit and deterministic and golden_ok and csv_identical
          and config_exit and infeasible_exit)
    _verdict(8, "CLI determinism and exit codes", ok,
             f"deterministic={deterministic}, golden={golden_ok}, "
             f"csv={csv_identical}")
