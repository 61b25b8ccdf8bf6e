"""Medians and quartiles over benchmark result files.

    python3 perfbench/summarize.py [--out FILE] perfbench/_work/results/*.json

Groups the records run.py wrote by workload and trace mode. For every metric
it prints the median, the quartiles and the spread (quartile distance over
median) as `statistics.quantiles(values, n=4)` gives them, also for the
unscaled times and calibration times kept in each record's notes. It also checks the
predictions the workloads were chosen to confirm. With --out it writes the
summary and the environment record as JSON; baseline.json was made this way.
"""

import argparse
import collections
import json
import statistics

PREDICTIONS = {
    "fp-scan: resolvent_scan_fp_s >= 90 % of traced run_s":
        ("fp-scan", lambda m: m["fokker_planck.resolvent_scan_fp_s"] / m["trace.run_s"] >= 0.9),
    "fp-decay-2d: no SVD, LU or expm calls":
        ("fp-decay-2d", lambda m: m["kernel.svd_calls"] == m["kernel.lu_calls"]
         == m["kernel.expm_calls"] == 0),
    "testbed-n32: factorization.* + check_h4_s > 50 % of traced run_s":
        ("testbed-n32", lambda m: (m["factorization.verify_factorization_s"]
                                   + m["factorization.enlargement_bound_chain_s"]
                                   + m["hypotheses.check_h4_s"]) / m["trace.run_s"] > 0.5),
    "testbed-sweep: resolvent_distinct_ratio < 1":
        ("testbed-sweep", lambda m: m["spectral.resolvent_distinct_ratio"] < 1.0),
    "testbed-n32: resolvent_distinct_ratio < 1":
        ("testbed-n32", lambda m: m["spectral.resolvent_distinct_ratio"] < 1.0),
}


def describe(values):
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args()

    groups = collections.defaultdict(list)
    environment = None
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        groups[(record["workload"], record["trace"])].append(record)
        environment = environment or record["environment"]

    summary = {}
    for (workload, trace), records in sorted(groups.items()):
        values = collections.defaultdict(list)
        for record in records:
            for name, metric in record["result"]["metrics"].items():
                values[name].append(metric["value"])
            # unscaled times and the calibration behind the scaling
            for name in ("raw_run_s", "raw_setup_s", "calibration_s"):
                if name in record["notes"]:
                    values[f"notes.{name}"].append(record["notes"][name])
        mode = "per_layer" if trace else "end_to_end"
        entry = summary.setdefault(workload, {})[mode] = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "all_correct": all(r["result"]["correct"] for r in records),
            "metrics": {name: describe(v) for name, v in sorted(values.items())},
        }
        print(f"{workload} {mode}: {len(records)} runs, seeds {entry['seeds']}, "
              f"all correct: {entry['all_correct']}")
        for name, stats in entry["metrics"].items():
            spread = f"{stats['spread']:.4f}" if "spread" in stats else "-"
            print(f"  {name:48s} median {stats['median']:.6g}  spread {spread}  n={stats['n']}")

    predictions = {}
    for label, (workload, holds) in PREDICTIONS.items():
        layer = summary.get(workload, {}).get("per_layer")
        if layer:
            medians = {name: s["median"] for name, s in layer["metrics"].items()}
            predictions[label] = bool(holds(medians))
            print(f"prediction {'holds' if predictions[label] else 'FAILS'}: {label}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workloads": summary, "predictions": predictions,
                       "environment": environment}, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
