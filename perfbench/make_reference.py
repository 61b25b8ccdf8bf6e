"""Write perfbench/reference/<workload>/ from one run per workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each workload runs once on the default seed, in a fresh interpreter with one
BLAS thread, and its report, CSVs and exit code become the reference that
checks.py compares every later run against.  Regenerate only for a
deliberate, documented change of the program's results.
"""

import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, THREAD_ENV, WORKLOADS

DEFAULT_SEED = 1


def make(workload):
    config_file, seeded = WORKLOADS[workload]
    config = os.path.join("perfbench", "configs", config_file)
    with open(os.path.join(ROOT, config), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = os.path.join("perfbench", "_work", "out", workload)
    shutil.rmtree(os.path.join(ROOT, out), ignore_errors=True)
    result_path = os.path.join(HERE, "_work", f"reference-{workload}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--command", spec["command"], "--config", config, "--out", out,
           "--result", result_path]
    if seeded:
        cmd += ["--seed", str(DEFAULT_SEED)]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    with open(result_path, encoding="utf-8") as fh:
        exit_code = json.load(fh)["exit_code"]

    target = os.path.join(HERE, "reference", workload)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    produced = sorted(os.listdir(os.path.join(ROOT, out)))
    for name in produced:
        shutil.copy(os.path.join(ROOT, out, name), target)
    expected = {"workload": workload, "seed": DEFAULT_SEED, "seeded": seeded,
                "n_seeds": spec.get("n_seeds"), "exit_code": exit_code,
                "csv_files": [name for name in produced if name.endswith(".csv")]}
    with open(os.path.join(target, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print(f"{workload}: exit {exit_code}, wrote {', '.join(produced)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        make(name)
