#!/usr/bin/env python3
"""Time the two resolvent line scans of a drift-diffusion config.

Runs :func:`semidecay.fokker_planck.resolvent_scan_fp` on the problem of
CONFIG (any drift-diffusion config; its command is not used), with the
grid size replaced by N when given, along the line Re z = lambda_P / 2
that ``fp-resolvent-scan`` scans. For each line it prints the wall time,
the number of evaluations (one per distinct y, or per distinct |y| on a
real line) and the band kernel's anchor eigensolves, banded LU
factorizations and SVD fallbacks; a dense or Hermitian line has no band
kernel and prints ``-`` for these.

Usage: python scripts/scan_scale.py CONFIG [N]
"""

import json
import sys
import time
from contextlib import contextmanager

from semidecay import fokker_planck, hypotheses
from semidecay.config import RunConfig
from semidecay.fokker_planck import build_problem, resolvent_scan_fp, spectral_gap_H


@contextmanager
def _recorded_lines(lines):
    """Append one record per ``check_h2`` call of ``resolvent_scan_fp``:
    its wall time, evaluations and band kernel (None on a dense or
    Hermitian line)."""
    check_h2, line_norm, gram_band = (fokker_planck.check_h2, hypotheses._line_norm,
                                      hypotheses._GramBand)

    class RecordedBand(gram_band):
        def __init__(self, *args):
            super().__init__(*args)
            lines[-1]["band"] = self

    def counted_line_norm(line, y):
        lines[-1]["evaluations"] += 1
        return line_norm(line, y)

    def timed_check_h2(*args, **kwargs):
        lines.append({"evaluations": 0, "band": None})
        start = time.perf_counter()
        report = check_h2(*args, **kwargs)
        lines[-1]["seconds"] = time.perf_counter() - start
        return report

    fokker_planck.check_h2, hypotheses._line_norm = timed_check_h2, counted_line_norm
    hypotheses._GramBand = RecordedBand
    try:
        yield
    finally:
        fokker_planck.check_h2, hypotheses._line_norm = check_h2, line_norm
        hypotheses._GramBand = gram_band


def main(config_path, n=None):
    with open(config_path, encoding="utf-8") as fh:
        mapping = json.load(fh)
    if n is not None:
        mapping["problem"]["N"] = n
    config = RunConfig.from_mapping(mapping)
    disc = build_problem(config.problem)
    a_line = 0.5 * spectral_gap_H(disc, tol=config.tolerances).lambda_gap
    lines = []
    start = time.perf_counter()
    with _recorded_lines(lines):
        resolvent_scan_fp(disc, a_line, tol=config.tolerances)
    total = time.perf_counter() - start
    print(f"d={config.problem.grid.d} N={config.problem.grid.N} "
          f"n={disc.grid.n_total} a={a_line:.6g}")
    print(f"{'line':<8} {'wall_s':>8} {'evals':>6} {'anchors':>8} "
          f"{'factors':>8} {'fallbacks':>9}")
    for name, line in zip(("small", "ambient"), lines):
        band = line["band"]
        counts = ((band.anchors, band.factorizations, band.fallbacks)
                  if band is not None else ("-",) * 3)
        print(f"{name:<8} {line['seconds']:>8.3f} {line['evaluations']:>6} "
              f"{counts[0]:>8} {counts[1]:>8} {counts[2]:>9}")
    print(f"scan total {total:.3f} s (lines and the shared eigensolve)")


if __name__ == "__main__":
    main(sys.argv[1], *(int(a) for a in sys.argv[2:3]))
