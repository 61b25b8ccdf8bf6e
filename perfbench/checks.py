"""Correctness of one certification run, checked against stored references.

A run is judged item by item.  The items are the report's verdicts, plus,
where a reference applies, one item for the report-level constants and one
per reference CSV.  An item fails when it is wrong or missing; a wrong exit
code or an unreadable report fails every item of the run.

* With a reference (the default seed, and every seed of a workload whose
  inputs do not depend on the seed): exit code, verdict names and verdict
  values match exactly; verdict constants, report constants and CSV columns
  match within RTOL relative, with an ATOL floor for rounding-level values.
  Keys the reference lacks are ignored, so a report may gain fields.
* Without one (a testbed workload on another seed): exit 0, and every
  verdict the reference has for one instance is present and `pass` for each
  instance of the seed range.

Run this file to execute the negative self-test: it corrupts a reference
constant, a verdict, a CSV value and the exit code, and requires that each
corruption is caught.

    python3 perfbench/checks.py
"""

import copy
import csv
import json
import os
import re
import sys

RTOL = 1e-8        # the tolerance of semidecay.reports.reports_equal
ATOL = 1e-12       # rounding-level residuals and imaginary parts near zero

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def close(ref, got):
    """`got` matches `ref`: numbers within tolerance, the rest exactly."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            key in got and close(value, got[key]) for key, value in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(close(a, b) for a, b in zip(ref, got)))
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        return abs(ref - got) <= RTOL * max(abs(ref), abs(got)) + ATOL
    return ref == got


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body if row]


def load_reference(workload):
    directory = os.path.join(REFERENCE_DIR, workload)
    with open(os.path.join(directory, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(os.path.join(directory, "report.json"), encoding="utf-8") as fh:
        expected["report"] = json.load(fh)
    expected["csvs"] = {name: read_csv(os.path.join(directory, name))
                        for name in expected["csv_files"]}
    return expected


def load_outputs(out_dir, csv_names):
    """The report and the named CSVs of a run; None for what is missing."""
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = None
    csvs = {}
    for name in csv_names:
        try:
            csvs[name] = read_csv(os.path.join(out_dir, name))
        except (OSError, ValueError, IndexError):
            csvs[name] = None
    return report, csvs


_SEED_NAME = re.compile(r"^seed_(\d+)\.(.+)$")


def expected_verdicts(reference, seed):
    """Verdict name -> required verdict for this seed."""
    verdicts = reference["report"]["verdicts"]
    if not reference["seeded"] or seed == reference["seed"]:
        return {name: entry["verdict"] for name, entry in verdicts.items()}
    suffixes = sorted({_SEED_NAME.match(name).group(2) for name in verdicts})
    return {f"seed_{s}.{suffix}": "pass"
            for s in range(seed, seed + reference["n_seeds"]) for suffix in suffixes}


def check_run(reference, seed, exit_code, report, csvs):
    """Return (attempted, failed, problems) for one run's outputs."""
    wanted = expected_verdicts(reference, seed)
    with_reference = not reference["seeded"] or seed == reference["seed"]
    items = list(wanted)
    if with_reference:
        items += ["report.constants"] + [f"csv:{name}" for name in reference["csv_files"]]
    want_code = reference["exit_code"] if with_reference else 0
    if exit_code != want_code or not isinstance(report, dict):
        return len(items), len(items), [
            f"exit code {exit_code} (want {want_code}), report "
            f"{'present' if isinstance(report, dict) else 'missing'}"]

    problems = []
    got_verdicts = report.get("verdicts", {})
    ref_verdicts = reference["report"]["verdicts"]
    for name, verdict in wanted.items():
        entry = got_verdicts.get(name)
        if entry is None:
            problems.append(f"{name}: missing")
        elif entry.get("verdict") != verdict:
            problems.append(f"{name}: {entry.get('verdict')} (want {verdict})")
        elif with_reference and not close(ref_verdicts[name].get("constants", {}),
                                          entry.get("constants", {})):
            problems.append(f"{name}: constants differ from the reference")
    if with_reference:
        if not close(reference["report"]["constants"], report.get("constants")):
            problems.append("report.constants: differ from the reference")
        for name, ref_csv in reference["csvs"].items():
            if csvs.get(name) is None:
                problems.append(f"csv:{name}: missing")
            elif not close([ref_csv[0], ref_csv[1]], [csvs[name][0], csvs[name][1]]):
                problems.append(f"csv:{name}: differs from the reference")
    return len(items), len(problems), problems


def self_test(workloads):
    """Corrupt each reference in four ways; each must be caught."""
    for workload in workloads:
        ref = load_reference(workload)
        seed = ref["seed"]
        ok = check_run(ref, seed, ref["exit_code"], ref["report"], ref["csvs"])
        if ok[1]:
            raise AssertionError(f"{workload}: reference fails itself: {ok[2]}")

        verdict_names = list(ref["report"]["verdicts"])
        flipped = copy.deepcopy(ref["report"])
        flipped["verdicts"][verdict_names[0]]["verdict"] = "fail"

        perturbed = copy.deepcopy(ref["report"])
        name = next(n for n in verdict_names if _first_float(
            perturbed["verdicts"][n].get("constants", {})) is not None)
        _first_float(perturbed["verdicts"][name]["constants"], scale=1.0 + 1e-6)

        cases = {"flipped verdict": (ref["exit_code"], flipped, ref["csvs"]),
                 "perturbed constant": (ref["exit_code"], perturbed, ref["csvs"]),
                 "wrong exit code": (ref["exit_code"] + 1, ref["report"], ref["csvs"])}
        if ref["csvs"]:
            bad_csvs = copy.deepcopy(ref["csvs"])
            header, rows = next(iter(bad_csvs.values()))
            rows[len(rows) // 2][-1] *= 1.0 + 1e-6
            cases["perturbed CSV value"] = (ref["exit_code"], ref["report"], bad_csvs)
        for label, (code, report, csvs) in cases.items():
            attempted, failed, _ = check_run(ref, seed, code, report, csvs)
            if not failed:
                raise AssertionError(f"{workload}: a {label} went unnoticed")
    return True


def _first_float(obj, scale=None):
    """Find the first float of size at least 1e-3 in obj; scale it in place."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, float) and abs(value) >= 1e-3:
            if scale is not None:
                obj[key] = value * scale
            return value
        if isinstance(value, (dict, list)):
            found = _first_float(value, scale)
            if found is not None:
                return found
    return None


if __name__ == "__main__":
    names = sorted(os.listdir(REFERENCE_DIR))
    self_test(names)
    print(f"self-test passed: corrupted references are caught for {', '.join(names)}")
    sys.exit(0)
