"""Experiment engines behind the command-line interface.

Runs are serial: instances are generated and checked one after another
in seed order. The ``jobs`` config key (and ``--jobs``) is accepted and
ignored.

A testbed instance runs H1 to H4, then the factorization check and the
bound chain, both read from the shift sweep H4 made on the sampled
region; a run of more than four instances samples each more thinly.
Where the sweep could not invert B - xi or T - xi at a sample, those two
are recorded as indeterminate with the sweep's error as witness, and the
run still writes ``report.json``. H2 on a line through the spectrum and
H3 on a package error are recorded the same way, and so is H1 when the
eigensolve raises; H2 and H3, which read the spectrum, are then recorded
as skipped, and H4 and the checks on its sweep run as usual. When H1
passes, the decay transfer and its converse follow; a package error
raised inside either is recorded the same way, and a converse whose
transfer raised is recorded as skipped.
"""

from __future__ import annotations

import os

import numpy as np

from . import matio
from .config import RunConfig
from .equivalence import verify_decay_from_resolvent, verify_resolvent_from_decay
from .errors import ConfigError, SemidecayError, SingularityError
from .factorization import enlargement_bound_chain, verify_factorization
from .fokker_planck import (build_problem, decay_experiment, find_decomposition,
                            initial_datum, resolvent_scan_fp, spectral_gap_H)
from .hypotheses import check_h1, check_h2, check_h3, check_h4, sample_xi_region
from .instances import GeneratedInstance, generate_instance, load_instance, save_instance
from .reports import (EXIT_CHECKS_FAILED, EXIT_INFEASIBLE, EXIT_OK, RaisedCheck,
                      RunReport, passes)
from .spectral import eigen_decompose


def _check_instance(instance: GeneratedInstance, tol, thin_samples=False) -> dict:
    """Run the full check chain on one instance: check name -> result."""
    split, pair, cert = instance.split, instance.pair, instance.certificate
    a, r, xis = cert.a, cert.r, list(cert.xi)

    try:
        spectrum = eigen_decompose(split.full, tol)
    except SemidecayError as exc:
        h1 = RaisedCheck(exc)
        h2 = h3 = RaisedCheck(f"skipped: the eigensolve raised {type(exc).__name__}: {exc}")
    else:
        h1 = check_h1(spectrum, a, r, expected_k=cert.k, tol=tol)
        try:
            h2 = check_h2(split.full, a, pair.small, h1.eigenvalues, tol=tol)
        except SingularityError as exc:
            h2 = RaisedCheck(exc)
        try:
            h3 = check_h3(split.full, pair.ambient, h1.eigenvalues, tol=tol)
        except SemidecayError as exc:
            h3 = RaisedCheck(exc)
    if thin_samples:
        samples = sample_xi_region(a, r, xis, n_line=9, n_circle=8,
                                   grid_shape=(6, 6))
    else:
        samples = sample_xi_region(a, r, xis)
    h4 = check_h4(split, pair, samples, tol=tol)
    checks = {"h1": h1, "h2": h2, "h3": h3, "h4": h4}
    try:
        checks["factorization"] = verify_factorization(h4.sweep)
        checks["bound_chain"] = enlargement_bound_chain(h4.sweep)
    except SingularityError as exc:
        checks["factorization"] = checks["bound_chain"] = RaisedCheck(exc)
    if passes(h1):
        rate = 0.5 * a    # strictly above a, still negative
        try:
            transfer = verify_decay_from_resolvent(split.full, pair.ambient, h1, rate, tol=tol)
        except SemidecayError as exc:
            checks["decay_transfer"] = RaisedCheck(exc)
            checks["converse"] = RaisedCheck(
                f"skipped: the decay transfer raised {type(exc).__name__}: {exc}")
            return checks
        checks["decay_transfer"] = transfer
        try:
            checks["converse"] = verify_resolvent_from_decay(
                split.full, spectrum, transfer.certificate, tol=tol)
        except SemidecayError as exc:
            checks["converse"] = RaisedCheck(exc)
    return checks


def _finish(report: RunReport, config: RunConfig, code=None) -> tuple[RunReport, int]:
    """Write ``report.json``; exit with ``code``, else by the verdicts."""
    report.write(os.path.join(config.out_dir, "report.json"))
    if code is None:
        code = EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED
    return report, code


def run(config: RunConfig) -> tuple[RunReport, int]:
    """Create the output directory, then run the configured command."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {config.out_dir}: {exc}") from None
    return (run_testbed if config.command in ("testbed", "enlarge-check") else run_fp)(config)


def run_testbed(config: RunConfig) -> tuple[RunReport, int]:
    """Generate (or load) instances and run the whole check chain on each."""
    report = RunReport(command=config.command, config=config.to_dict())
    tol = config.tolerances

    if config.instance_path:
        instances = [("loaded", load_instance(config.instance_path))]
    else:
        spec = config.instance
        seeds = list(range(config.seed, config.seed + config.n_seeds))
        instances = [(s, generate_instance(s, spec.n, a=spec.a, gap=spec.gap,
                                           strength=spec.strength, k=spec.k))
                     for s in seeds]

    results = [_check_instance(instance, tol, thin_samples=len(instances) > 4)
               for _, instance in instances]
    for (label, _), checks in zip(instances, results):
        for name, check in checks.items():
            report.add_check(f"seed_{label}.{name}", check)

    # the run constants cover the chains that ran; null when none did
    chains = [checks["bound_chain"] for checks in results
              if not isinstance(checks["bound_chain"], RaisedCheck)]
    report.constants["max_certified_bound"] = max(
        (c.certified_bound for c in chains), default=None)
    report.constants["domination_violations"] = sum(
        0 if c.dominated else 1 for c in chains) if chains else None

    if config.write_operators and instances and not isinstance(results[0]["h1"], RaisedCheck):
        inst_dir = os.path.join(config.out_dir, "instance")
        manifest = save_instance(instances[0][1], inst_dir, results[0]["h1"].eigenvalues, tol)
        report.artifacts.append(os.path.relpath(manifest, config.out_dir))
    return _finish(report, config)


def run_fp(config: RunConfig) -> tuple[RunReport, int]:
    """Assemble the drift-diffusion problem and run the requested stage.

    ``fp-spectrum`` stops after the gap; ``fp-decay`` adds the
    decomposition search and the trajectory experiment; ``fp-resolvent-scan``
    runs the line scans in both spaces, recorded as indeterminate (and
    without CSVs) when an eigenvalue lies on the scan line. Infeasible
    decomposition searches exit with their own status and ship the search
    frontier.
    """
    problem = config.problem
    report = RunReport(command=config.command, config=config.to_dict())
    tol = config.tolerances

    disc = build_problem(problem)
    gap = spectral_gap_H(disc, tol=tol)
    lam_p = gap.lambda_gap
    report.constants["lambda_P"] = lam_p
    report.constants["leading_eigenvalue"] = gap.leading
    # sign-convention note: the negative gap constant is used as the lower
    # rate bound; the mirrored reading is recorded alongside, not chosen silently
    report.constants["rate_window"] = {"used": [lam_p, 0.0],
                                       "mirrored": [-lam_p, 0.0]}
    report.add_check("assembly", disc)

    if config.write_operators:
        path = os.path.join(config.out_dir, "generator.mtx")
        matio.write_matrix(path, disc.generator)
        report.artifacts.append(os.path.basename(path))

    if config.command == "fp-spectrum":
        return _finish(report, config)

    target_a = problem.target_a if problem.target_a is not None else 0.5 * lam_p
    decomp = find_decomposition(disc, target_a)
    report.constants["decomposition"] = decomp.to_dict()
    report.add_check("decomposition", decomp)
    if not decomp.found:
        return _finish(report, config, EXIT_INFEASIBLE)

    if config.command == "fp-resolvent-scan":
        a_line = 0.5 * lam_p
        try:
            scans = resolvent_scan_fp(disc, a_line, tol=tol)
        except SingularityError as exc:
            report.add_check("resolvent_scan", RaisedCheck(exc))
            return _finish(report, config)
        report.constants["K_small"] = scans.small.bound
        report.constants["K_ambient"] = scans.ambient.bound
        report.add_check("resolvent_scan", scans)
        for name, scan in scans.named():
            path = os.path.join(config.out_dir, f"{name}.csv")
            matio.write_csv(path, ["y", "resolvent_norm"], [scan.y_grid, scan.norms])
            report.artifacts.append(os.path.basename(path))
        return _finish(report, config)

    # fp-decay
    f0 = initial_datum(disc, problem.initial_data)
    t_grid = np.arange(0.0, problem.t_max + 0.5 * problem.dt, problem.dt)
    result = decay_experiment(disc, f0, t_grid,
                              scheme=problem.scheme, pinned_rate=lam_p, tol=tol)
    path = os.path.join(config.out_dir, "trajectory.csv")
    matio.write_csv(path, ["t", "norm_H", "norm_HH", "mass"],
                    [result.times, result.deviation_small,
                     result.deviation_ambient, result.mass])
    report.artifacts.append(os.path.basename(path))
    report.constants["decay"] = result.to_dict()
    report.add_check("decay", result)
    return _finish(report, config)
