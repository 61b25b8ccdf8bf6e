"""Experiment engines behind the command-line interface.

Runs are serial: instances are generated and checked one after another
in seed order. The ``jobs`` config key (and ``--jobs``) is accepted and
ignored.

A testbed instance runs H1 to H4, then the factorization check and the
bound chain, both read from the shift sweep H4 made on the sampled
region; a run of more than four instances samples each more thinly.
When H1 passes, the decay transfer and its converse follow.

Every guarded stage runs through :func:`_attempt`: a package error it
raises is that check's indeterminate verdict, with the error as witness,
and the run still writes ``report.json``. A check that reads what a
raising stage would have given is recorded as skipped, naming the error:
H2 and H3 when the eigensolve raises (H1 is then the raised check), the
converse when the decay transfer raises. The guarded stages are the
eigensolve, H2, H3, the factorization, the bound chain, the decay
transfer, the converse and the drift-diffusion resolvent scan.
"""

from __future__ import annotations

import os

import numpy as np

from . import matio
from .config import RunConfig
from .equivalence import verify_decay_from_resolvent, verify_resolvent_from_decay
from .errors import ConfigError, SemidecayError
from .factorization import enlargement_bound_chain, verify_factorization
from .fokker_planck import (build_problem, decay_experiment, find_decomposition,
                            initial_datum, resolvent_scan_fp, spectral_gap_H)
from .hypotheses import check_h1, check_h2, check_h3, check_h4, sample_xi_region
from .instances import GeneratedInstance, generate_instance, load_instance, save_instance
from .reports import (EXIT_CHECKS_FAILED, EXIT_INFEASIBLE, EXIT_OK, PASS, RaisedCheck,
                      RunReport)
from .spectral import eigen_decompose


def _attempt(check, *args, **kwargs):
    """``check(*args, **kwargs)``, or the :class:`RaisedCheck` of the
    package error it raised."""
    try:
        return check(*args, **kwargs)
    except SemidecayError as exc:
        return RaisedCheck(exc)


def _skipped(stage: str, raised: RaisedCheck) -> RaisedCheck:
    """The entry of a check skipped because ``stage`` raised."""
    error = raised.error
    return RaisedCheck(f"skipped: the {stage} raised {type(error).__name__}: {error}")


def _check_instance(instance: GeneratedInstance, tol, thin_samples=False) -> dict:
    """Run the full check chain on one instance: check name -> result."""
    split, pair, cert = instance.split, instance.pair, instance.certificate
    a, r, xis = cert.a, cert.r, list(cert.xi)

    spectrum = _attempt(eigen_decompose, split.full, tol)
    if isinstance(spectrum, RaisedCheck):
        h1 = spectrum
        h2 = h3 = _skipped("eigensolve", spectrum)
    else:
        h1 = check_h1(spectrum, a, r, expected_k=cert.k, tol=tol)
        h2 = _attempt(check_h2, split.full, a, pair.small, h1.eigenvalues, tol=tol)
        h3 = _attempt(check_h3, split.full, pair.ambient, h1.eigenvalues, tol=tol)
    h4 = check_h4(split, pair, sample_xi_region(a, r, xis, thin=thin_samples), tol=tol)
    checks = {"h1": h1, "h2": h2, "h3": h3, "h4": h4,
              "factorization": _attempt(verify_factorization, h4.sweep),
              "bound_chain": _attempt(enlargement_bound_chain, h4.sweep)}
    if h1.verdict == PASS:
        rate = 0.5 * a    # strictly above a, still negative
        transfer = _attempt(verify_decay_from_resolvent, split.full, pair.ambient, h1,
                            rate, tol=tol)
        checks["decay_transfer"] = transfer
        checks["converse"] = (
            _skipped("decay transfer", transfer) if isinstance(transfer, RaisedCheck)
            else _attempt(verify_resolvent_from_decay, split.full, spectrum,
                          transfer.certificate, tol=tol))
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
    without CSVs) when they raise, as on an eigenvalue on the scan line or
    above the dense size limit. Infeasible
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
        scans = _attempt(resolvent_scan_fp, disc, 0.5 * lam_p, tol=tol)
        report.add_check("resolvent_scan", scans)
        if isinstance(scans, RaisedCheck):
            return _finish(report, config)
        report.constants["K_small"] = scans.small.bound
        report.constants["K_ambient"] = scans.ambient.bound
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
