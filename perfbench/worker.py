"""One measured certification run, in a fresh interpreter.

Started by run.py with the BLAS thread variables already set to 1, so they
are in force before numpy is first imported.  The worker times the set-up a
CLI user pays (import semidecay, load and validate the config), then calls
`semidecay.cli.main` once, optionally under the tracer, then times the
calibration kernel, and writes its measurements as JSON to --result.  With
--setup-only it skips the run and times set-up and calibration only.

    python3 perfbench/worker.py --root . --command testbed \
        --config perfbench/configs/testbed_n32.json --out OUT --result R.json
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CALIBRATION_REPEATS = 3


def _threads_in_process():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count OpenBLAS reports, through its own query function."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    libs += glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                   "scipy_openblas*", "lib", "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": int(fn())}
    return None


def calibrate():
    """Wall time of a fixed numpy/scipy task that uses no semidecay code.

    It mixes what the workloads spend their time on: many small dense
    factorizations called from Python (the testbeds), SVDs of a 200x200
    matrix (fp-scan), a sparse LU factorization with solves (fp-decay-2d) and
    plain interpreted Python (imports).  run.py divides the measured times
    by it, so that the machine's changing speed cancels out.  Its arrays are
    small, so it does not raise the peak RSS of a run.
    """
    import numpy as np
    import scipy.linalg
    import scipy.sparse
    import scipy.sparse.linalg

    rng = np.random.default_rng(20260101)
    small = rng.standard_normal((24, 24))
    dense = rng.standard_normal((200, 200))
    k = 48
    line = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    grid = (scipy.sparse.kronsum(line, line) + scipy.sparse.identity(k * k)).tocsc()
    rhs = rng.standard_normal(k * k)

    def kernel():
        acc = 0.0
        for _ in range(400):
            acc += np.linalg.svd(small, compute_uv=False)[0]
            acc += scipy.linalg.lu_factor(small)[0][0, 0]
        for _ in range(4):
            acc += np.linalg.svd(dense, compute_uv=False)[0]
        for _ in range(4):
            acc += scipy.sparse.linalg.splu(grid).solve(rhs)[0]
        table = {}
        for i in range(60000):
            table[i % 997] = table.get(i % 997, 0) + i * i
        if not np.isfinite(acc) or len(table) != 997:
            raise RuntimeError("calibration kernel gave a wrong result")

    kernel()        # first calls pay lazy initialisation; not timed
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment():
    import numpy as np
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {})
        return {key: {k: deps.get(key, {}).get(k) for k in ("name", "version")}
                for key in ("blas", "lapack")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "openblas_threads_in_effect": _openblas_threads(),
        "process_threads": _threads_in_process(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    unset = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unset or "numpy" in sys.modules:
        sys.exit(f"worker: {unset} not 1, or numpy imported before set-up")
    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import semidecay
    from semidecay import cli
    from semidecay.config import RunConfig
    config = RunConfig.from_json_file(args.config, command=args.command)
    overrides = {"jobs": 1, "out_dir": args.out}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config.override(**overrides)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(semidecay.__file__).startswith(src + os.sep):
        sys.exit(f"worker: imported semidecay from {semidecay.__file__}, not {src}")

    result = {"setup_s": setup_s}
    if not args.setup_only:
        argv = [args.command, "--config", args.config, "--jobs", "1", "--out", args.out]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        cpu0 = time.process_time()
        t1 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            run_s = time.perf_counter() - t1
            cpu_s = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        result.update(exit_code=code, run_s=run_s, cpu_s=cpu_s,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result.update(times=tracer.times(), counts=tracer.counts(),
                          covered_s=tracer.covered, missing_hooks=tracer.missing)
            tracer.write_spans(args.result + ".spans.json")
        result["environment"] = environment()
    result["calibration_s"] = calibrate()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
