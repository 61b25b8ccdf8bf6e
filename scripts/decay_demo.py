#!/usr/bin/env python3
"""Headline decay experiment: heavy-tailed data in the enlarged space.

Evolves f0 = (1+x^2)^(-2) under the quadratic-potential generator and
certifies two envelopes on the enlarged-space deviation: one pinned to the
measured gap rate, one free-fitted. The free fit lands on the second even
mode (the datum is even, so the odd gap mode is never excited) and its
prefactor exceeds one: the transient sits above the pure exponential.
"""

import numpy as np

from semidecay.fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                                     Potential, decay_experiment,
                                     initial_datum, spectral_gap_H)
from semidecay.matio import write_csv


def main(out_csv="decay_demo.csv"):
    grid = FPGrid(d=1, L=8.0, N=1200)
    disc = FPDiscretization.build(grid, Potential(2.0),
                                  EnlargedWeight("polynomial", 3.0))
    lam_p = spectral_gap_H(disc).lambda_gap
    print(f"measured gap: {lam_p:.6f}")
    t_grid = np.arange(0.0, 4.0 + 1e-9, 0.01)
    result = decay_experiment(disc, initial_datum(disc, "heavy-tail"), t_grid,
                              scheme="crank-nicolson", pinned_rate=lam_p)
    rel = result.deviation_ambient / result.deviation_ambient[0]
    print(f"pinned envelope: rate {result.pinned.rate:.4f}, "
          f"C = {result.pinned.prefactor:.6f}")
    print(f"free envelope:   rate {result.fit.rate:.4f}, "
          f"C = {result.fit.prefactor:.6f}")
    exceed = rel > np.exp(result.fit.rate * result.times)
    if exceed.any():
        t_first = result.times[exceed][0]
        print(f"transient above e^(rate*t) at {int(exceed.sum())} samples "
              f"(first at t = {t_first:.2f}): the prefactor is genuinely > 1")
    write_csv(out_csv, ["t", "norm_H", "norm_HH", "mass"],
              [result.times, result.deviation_small,
               result.deviation_ambient, result.mass])
    print(f"trajectory written to {out_csv}")


if __name__ == "__main__":
    import sys
    main(*sys.argv[1:2])
