"""Benchmark of the semidecay certifier, end to end and per layer.

    python3 perfbench/run.py --workload testbed-n32 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program under test is the
`semidecay` package in ./src, imported from there and from nowhere else.

Every certification run is a fresh interpreter (perfbench/worker.py) with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1 before
numpy is imported, calling `semidecay.cli.main` with `--jobs 1`.  Each run's
outputs are checked against perfbench/reference (see checks.py).

--trace 0 makes as many runs as fit in --seconds, at least MIN_SAMPLES,
each after a set-up-only probe, then more probes up to SETUP_SAMPLES set-up
measurements.  Every worker process also times a fixed calibration kernel
that uses no semidecay code.  It reports the end-to-end metrics: median run
wall time and median set-up time, both scaled to the reference speed by
CAL_REF_S / (upper quartile of the calibration times), median peak RSS,
and the share of checked items that passed.
--trace 1 makes an untraced, two traced and another untraced run and reports
the per-layer metrics of perfbench/tracing.py, with the tracing overhead and
the share of the run the layer spans cover.  The result is not correct when
the two traced runs count differently, when the spans cover less than
MIN_COVERAGE of a traced run, or when a function to trace was not found.

The last line of standard output is the result as one JSON object; the lines
before it give the per-run figures and the environment record, which are
also written to perfbench/_work/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

# name -> config under perfbench/configs; whether --seed reaches the inputs
WORKLOADS = {
    "testbed-sweep": ("testbed_sweep.json", True),
    "testbed-n32": ("testbed_n32.json", True),
    "fp-scan": ("fp_scan.json", False),
    "fp-decay-2d": ("fp_decay_2d.json", False),
}
MIN_SAMPLES = 2
SETUP_SAMPLES = 10        # set-up measurements: one per run, the rest from set-up-only probes
CAL_REF_S = 0.11          # calibration time at the reference speed; see README
MIN_COVERAGE = 0.9        # least share of a traced run that the layer spans must cover
DEADLINE_S = 160.0        # no run starts after this, so a benchmark run ends within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

UNITS = {"_s": "s", "_mb": "MB", "_calls": "count", "_segments": "count", "_evals": "count",
         "_candidates": "count", "_ratio": "1", "_gflop": "GFLOP-computed",
         "overhead": "1", "coverage": "1", "_repeat": "1"}


def unit_of(name):
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


class Bench:
    def __init__(self, workload, seed, deadline):
        config_file, self.seeded = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.config = os.path.join("perfbench", "configs", config_file)
        with open(os.path.join(ROOT, self.config), encoding="utf-8") as fh:
            self.command = json.load(fh)["command"]
        self.reference = checks.load_reference(workload)
        self.out = os.path.join("perfbench", "_work", "out", workload)
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.count = 0

    def _worker(self, extra):
        self.count += 1
        tag = f"{self.workload}-{os.getpid()}-{self.count}"
        result_path = os.path.join(WORK, "samples", f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--command", self.command, "--config", self.config,
               "--out", self.out, "--result", result_path] + extra
        if self.seeded:
            cmd += ["--seed", str(self.seed)]
        timeout = max(self.deadline + 15.0 - time.perf_counter(), 1.0)
        with open(os.path.join(WORK, "samples", f"{tag}.log"), "w") as log:
            try:
                subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                               stderr=subprocess.STDOUT, timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                pass
        try:
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}

    def probe(self):
        return self._worker(["--setup-only"])

    def run(self, trace):
        shutil.rmtree(os.path.join(ROOT, self.out), ignore_errors=True)
        sample = self._worker(["--trace", "1"] if trace else [])
        report, csvs = checks.load_outputs(os.path.join(ROOT, self.out),
                                           self.reference["csv_files"])
        sample["attempted"], sample["failed"], sample["problems"] = checks.check_run(
            self.reference, self.seed, sample.get("exit_code"), report, csvs)
        sample["traced"] = bool(trace)
        return sample


def end_to_end(bench, seconds):
    start = time.perf_counter()
    samples, probes = [], []
    probe_s = []
    while True:
        t0 = time.perf_counter()
        probes.append(bench.probe())
        probe_s.append(time.perf_counter() - t0)
        samples.append(bench.run(trace=False))
        now = time.perf_counter()
        if "run_s" not in samples[-1]:
            break
        # start another run only if it, and the probes still needed after
        # it, should end within the time given
        typical = (now - start) / len(samples)
        after = max(SETUP_SAMPLES - 2 * (len(samples) + 1), 0) * statistics.median(probe_s)
        if len(samples) >= MIN_SAMPLES and now + typical + after - start > seconds:
            break
        if now + 1.5 * typical > bench.deadline:
            break
    while (len(samples) + len(probes) < SETUP_SAMPLES
           and time.perf_counter() + 5.0 < bench.deadline):
        probes.append(bench.probe())
    timed = [s for s in samples if "run_s" in s]
    workers = timed + probes
    setups = [w["setup_s"] for w in workers if "setup_s" in w]
    calibrations = [w["calibration_s"] for w in workers if "calibration_s" in w]
    metrics, notes = {}, {}
    if timed and len(setups) == len(calibrations) == len(workers):
        # the upper quartile: short bursts of speed shorten a 0.1 s
        # calibration far more than a run of several seconds
        calibration = statistics.quantiles(calibrations, n=4)[2]
        speed = CAL_REF_S / calibration
        raw_run = statistics.median(s["run_s"] for s in timed)
        raw_setup = statistics.median(setups)
        metrics = {
            "run_s": raw_run * speed,
            "setup_s": raw_setup * speed,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        }
        notes = {"runs": len(timed), "setup_samples": len(setups),
                 "raw_run_s": raw_run, "raw_setup_s": raw_setup,
                 "calibration_s": calibration, "speed": speed,
                 "calibrations_s": calibrations, "setups_s": setups}
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    metrics["check_pass_ratio"] = 1.0 - failed / attempted
    return samples, metrics, notes


def per_layer(bench):
    # untraced, traced, traced, untraced: the overhead is taken over pairs
    # placed symmetrically in time, so a steady drift in speed cancels
    samples = [bench.run(trace=trace) for trace in (False, True, True, False)]
    untraced = [s for s in samples if not s["traced"] and "run_s" in s]
    traced = [s for s in samples if s["traced"] and "counts" in s]
    if len(untraced) < 2 or len(traced) < 2:
        return samples, {}, {}
    counts = traced[0]["counts"]
    repeat = all(s["counts"] == counts for s in traced)
    metrics = {name: statistics.median(s["times"][name] for s in traced)
               for name in traced[0]["times"]}
    metrics.update((name, value) for name, value in counts.items()
                   if name != "spectral.resolvent_distinct_pairs")
    calls = counts["spectral.resolvent_matrix_calls"]
    metrics["spectral.resolvent_distinct_ratio"] = (
        counts["spectral.resolvent_distinct_pairs"] / calls if calls else 0.0)
    metrics["trace.run_s"] = statistics.median(s["run_s"] for s in traced)
    metrics["trace.untraced_run_s"] = statistics.median(s["run_s"] for s in untraced)
    metrics["trace.overhead"] = (sum(s["run_s"] for s in traced)
                                 / sum(s["run_s"] for s in untraced) - 1.0)
    metrics["trace.coverage"] = min(s["covered_s"] / s["run_s"] for s in traced)
    metrics["trace.counts_repeat"] = 1.0 if repeat else 0.0
    missing = sorted({h for s in traced for h in s["missing_hooks"]})
    problems = []
    if not repeat:
        problems.append("the two traced runs gave different counts")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"spans cover {metrics['trace.coverage']:.3f} of a traced run, "
                        f"below {MIN_COVERAGE}")
    if missing:
        problems.append(f"functions to trace not found: {', '.join(missing)}")
    return samples, metrics, {"counts_repeat": repeat, "missing_hooks": missing,
                              "trace_problems": problems}


def run_environment(samples):
    env = next((s["environment"] for s in samples if "environment" in s), {})
    sha = None      # a checkout exported without .git has no commit to name
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "semidecay")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return dict(env, nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                machine=platform.machine(), parent_python=platform.python_version(),
                git_sha=sha, src_sha256=digest.hexdigest())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "semidecay", "cli.py")):
        sys.exit(f"perfbench: no semidecay sources under {os.path.join(ROOT, 'src')}")
    checks.self_test(sorted(WORKLOADS))
    os.makedirs(os.path.join(WORK, "samples"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    bench = Bench(args.workload, args.seed, deadline)
    if args.trace:
        samples, metrics, notes = per_layer(bench)
    else:
        samples, metrics, notes = end_to_end(bench, args.seconds)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    complete = bool(metrics) and all("run_s" in s for s in samples)
    problems = notes.get("trace_problems", [])
    for problem in problems:
        print(f"perfbench: traced run rejected: {problem}")
    result = {"correct": complete and failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in sorted(metrics.items())}}
    env = run_environment(samples)

    for i, s in enumerate(samples):
        print(f"run {i}: traced={s['traced']} exit={s.get('exit_code')} "
              f"setup_s={s.get('setup_s')} run_s={s.get('run_s')} cpu_s={s.get('cpu_s')} "
              f"calibration_s={s.get('calibration_s')} "
              f"peak_rss_mb={s.get('peak_rss_mb')} checked={s['attempted']} "
              f"failed={s['failed']} {'; '.join(s['problems'][:5])}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": len(samples), "notes": notes}))
    print(json.dumps({"environment": env}))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": [{k: v for k, v in s.items()
                                                if k != "environment"} for s in samples],
              "notes": notes, "environment": env, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    with open(os.path.join(WORK, "results", f"{name}-{os.getpid()}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
