"""Experiment engines behind the command-line interface.

Runs are serial: instances are generated and checked one after another
in seed order. The ``jobs`` config key (and ``--jobs``) is accepted and
ignored.
"""

from __future__ import annotations

import os

import numpy as np

from . import matio
from .config import RunConfig
from .equivalence import verify_decay_from_resolvent, verify_resolvent_from_decay
from .errors import ConfigError, SingularityError
from .factorization import enlargement_bound_chain, verify_factorization
from .fokker_planck import (build_problem, decay_experiment, find_decomposition,
                            initial_datum, resolvent_scan_fp, spectral_gap_H)
from .hypotheses import (FAIL, INDETERMINATE, PASS, HypothesisReport,
                         check_h1, check_h2, check_h3, check_h4,
                         sample_xi_region)
from .instances import GeneratedInstance, generate_instance, load_instance, save_instance
from .reports import (EXIT_CHECKS_FAILED, EXIT_INFEASIBLE, EXIT_OK, RunReport)


def _check_instance(instance: GeneratedInstance, tol, thin_samples=False):
    """Run the full check chain on one instance; returns a result dict."""
    split, pair, cert = instance.split, instance.pair, instance.certificate
    a, r, xis = cert.a, cert.r, list(cert.xi)

    h1 = check_h1(split.full, a, r, expected_k=cert.k, tol=tol)
    try:
        h2 = check_h2(split.full, a, pair.small, tol=tol)
        h1.spectral.resolvent_bound = h2.bound
    except SingularityError as exc:
        h2 = exc
    h3 = check_h3(split.full, pair.ambient, tol=tol)
    if thin_samples:
        samples = sample_xi_region(a, r, xis, n_line=9, n_circle=8,
                                   grid_shape=(6, 6))
    else:
        samples = sample_xi_region(a, r, xis)
    h4 = check_h4(split, pair, a, r, xis, samples=samples, tol=tol)
    fact = verify_factorization(split, pair, samples, tol=tol, sweep=h4.sweep)
    chain = enlargement_bound_chain(split, pair, samples, tol=tol, sweep=h4.sweep)

    transfer = None
    converse = None
    if h1.passed:
        rate = 0.5 * a    # strictly above a, still negative
        spectral = h1.spectral
        transfer = verify_decay_from_resolvent(split.full, pair.ambient,
                                               spectral, rate, tol=tol)
        converse = verify_resolvent_from_decay(split.full, pair.ambient,
                                               transfer.certificate, tol=tol)
    return {"h1": h1, "h2": h2, "h3": h3, "h4": h4, "factorization": fact,
            "chain": chain, "transfer": transfer, "converse": converse,
            "certificate": cert}


def _instance_verdicts(report: RunReport, seed: int, result: dict):
    prefix = f"seed_{seed}"
    h1, h2, h3, h4 = result["h1"], result["h2"], result["h3"], result["h4"]
    report.add_verdict(f"{prefix}.h1", h1.verdict, witness=h1.witness,
                       constants={"k": len(h1.spectral.discrete_eigs),
                                  "discrete_eigs": h1.spectral.discrete_eigs,
                                  "a": h1.spectral.half_plane_abscissa,
                                  "r": h1.spectral.isolation_radius})
    if isinstance(h2, SingularityError):
        report.add_verdict(f"{prefix}.h2", INDETERMINATE, witness=str(h2))
    else:
        report.add_verdict(f"{prefix}.h2", h2.verdict,
                           constants={"K": h2.bound, "K_certified": h2.certified_bound})
    report.add_verdict(f"{prefix}.h3", h3.verdict,
                       constants={"C_b": h3.fit.prefactor, "b": h3.fit.rate})
    report.add_verdict(f"{prefix}.h4", h4.verdict, witness=h4.witness,
                       constants=h4.to_dict())
    report.details[f"{prefix}.hypotheses"] = HypothesisReport(
        h1=h1, h2=None if isinstance(h2, SingularityError) else h2,
        h3=h3, h4=h4).to_dict()
    fact, chain = result["factorization"], result["chain"]
    report.add_verdict(f"{prefix}.factorization", fact.verdict,
                       constants=fact.to_dict())
    report.add_verdict(f"{prefix}.bound_chain", chain.verdict,
                       constants=chain.to_dict())
    if result["transfer"] is not None:
        tr = result["transfer"]
        report.add_verdict(f"{prefix}.decay_transfer", tr.verdict,
                           constants={"rate": tr.certificate.level,
                                      "C_lambda": tr.prefactor_at_rate,
                                      "fitted_rate": tr.fitted_rate})
    if result["converse"] is not None:
        cv = result["converse"]
        report.add_verdict(f"{prefix}.converse", cv.verdict, witness=cv.witness,
                           constants={"laplace_max_ratio": cv.laplace_max_ratio})


def run_testbed(config: RunConfig) -> tuple[RunReport, int]:
    """Generate (or load) instances and run the whole check chain on each."""
    report = RunReport(command=config.command, config=config.to_dict())
    tol = config.tolerances
    os.makedirs(config.out_dir, exist_ok=True)

    if config.command == "enlarge-check" or config.instance_path:
        if not config.instance_path:
            raise ConfigError("enlarge-check requires instance_path")
        instances = [(None, load_instance(config.instance_path))]
    else:
        spec = config.instance
        seeds = list(range(config.seed, config.seed + config.n_seeds))
        instances = [(s, generate_instance(s, spec.n, a=spec.a, gap=spec.gap,
                                           strength=spec.strength, k=spec.k))
                     for s in seeds]

    results = [_check_instance(instance, tol, thin_samples=config.n_seeds > 4)
               for _, instance in instances]

    for (seed, instance), result in zip(instances, results):
        label = seed if seed is not None else "loaded"
        _instance_verdicts(report, label, result)

    chains = [res["chain"] for res in results]
    report.constants["max_certified_bound"] = max(
        (c.certified_bound for c in chains), default=0.0)
    report.constants["domination_violations"] = sum(
        0 if c.dominated else 1 for c in chains)

    if config.write_operators and instances:
        inst_dir = os.path.join(config.out_dir, "instance")
        manifest = save_instance(instances[0][1], inst_dir)
        report.artifacts.append(os.path.relpath(manifest, config.out_dir))

    report.write(os.path.join(config.out_dir, "report.json"))
    if report.all_passed:
        return report, EXIT_OK
    return report, EXIT_CHECKS_FAILED


def run_fp(config: RunConfig) -> tuple[RunReport, int]:
    """Assemble the drift-diffusion problem and run the requested stage.

    ``fp-spectrum`` stops after the gap; ``fp-decay`` adds the
    decomposition search and the trajectory experiment; ``fp-resolvent-scan``
    runs the line scans in both spaces. Infeasible decomposition searches
    exit with their own status and ship the search frontier.
    """
    problem = config.problem
    report = RunReport(command=config.command, config=config.to_dict())
    tol = config.tolerances
    os.makedirs(config.out_dir, exist_ok=True)

    disc = build_problem(problem)
    gap = spectral_gap_H(disc, tol=tol)
    lam_p = gap.lambda_gap
    report.constants["lambda_P"] = lam_p
    report.constants["leading_eigenvalue"] = gap.leading
    # sign-convention note: the negative gap constant is used as the lower
    # rate bound; the mirrored reading is recorded alongside, not chosen silently
    report.constants["rate_window"] = {"used": [lam_p, 0.0],
                                       "mirrored": [-lam_p, 0.0]}
    report.add_verdict("assembly", PASS,
                       constants={"n": disc.grid.n_total, "h": disc.grid.h})

    if config.write_operators:
        path = os.path.join(config.out_dir, "generator.mtx")
        matio.write_matrix(path, disc.generator)
        report.artifacts.append(os.path.basename(path))

    if config.command == "fp-spectrum":
        report.write(os.path.join(config.out_dir, "report.json"))
        return report, EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED

    target_a = problem.target_a if problem.target_a is not None else 0.5 * lam_p
    decomp = find_decomposition(disc, target_a)
    report.constants["decomposition"] = decomp.to_dict()
    if not decomp.found:
        report.add_verdict("decomposition", FAIL,
                           witness=f"no (M, R) reached {target_a} in the search box")
        report.write(os.path.join(config.out_dir, "report.json"))
        return report, EXIT_INFEASIBLE
    report.add_verdict("decomposition", PASS,
                       constants={"M": decomp.M, "R": decomp.R,
                                  "achieved": decomp.achieved})

    if config.command == "fp-resolvent-scan":
        a_line = 0.5 * lam_p
        scan_small = resolvent_scan_fp(disc, disc.space_small, a_line, tol=tol)
        scan_ambient = resolvent_scan_fp(disc, disc.space_ambient, a_line, tol=tol,
                                         eigvals=scan_small.spectrum)
        report.constants["K_small"] = scan_small.bound
        report.constants["K_ambient"] = scan_ambient.bound
        scans = (("scan_small", scan_small), ("scan_ambient", scan_ambient))
        open_scans = [f"{name}: certified bound {scan.certified_bound:.6e}, "
                      f"{len(scan.uncertified_segments)} uncertified segments"
                      for name, scan in scans if scan.verdict != PASS]
        report.add_verdict("resolvent_scan",
                           INDETERMINATE if open_scans else PASS,
                           witness="; ".join(open_scans) or None,
                           constants={"K_small": scan_small.bound,
                                      "K_ambient": scan_ambient.bound,
                                      "a": a_line})
        for name, scan in scans:
            path = os.path.join(config.out_dir, f"{name}.csv")
            matio.write_csv(path, ["y", "resolvent_norm"], [scan.y_grid, scan.norms])
            report.artifacts.append(os.path.basename(path))
        report.write(os.path.join(config.out_dir, "report.json"))
        return report, EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED

    # fp-decay
    f0 = initial_datum(disc, problem.initial_data)
    t_grid = np.arange(0.0, problem.t_max + 0.5 * problem.dt, problem.dt)
    result = decay_experiment(disc, disc.space_ambient, f0, t_grid,
                              scheme=problem.scheme, pinned_rate=lam_p, tol=tol)
    path = os.path.join(config.out_dir, "trajectory.csv")
    matio.write_csv(path, ["t", "norm_H", "norm_HH", "mass"],
                    [result.times, result.deviation_small,
                     result.deviation_ambient, result.mass])
    report.artifacts.append(os.path.basename(path))
    report.constants["decay"] = result.to_dict()
    if result.equilibrium:
        report.add_verdict("decay", PASS, constants={"equilibrium": True})
    elif result.fit is None:
        report.add_verdict("decay", INDETERMINATE,
                           witness="deviation fell below the signal floor")
    else:
        negative = result.fit.rate < 0.0
        report.add_verdict("decay", PASS if negative else FAIL,
                           constants={"rate": result.fit.rate,
                                      "C": result.fit.prefactor,
                                      "pinned_rate": lam_p,
                                      "pinned_C": result.pinned.prefactor})
    report.write(os.path.join(config.out_dir, "report.json"))
    return report, EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED
