#!/usr/bin/env python3
"""Sweep seeded instances and tabulate the certified bounds.

The identity and mismatch columns are certified upper bounds on the
factorization residuals, within a factor n of their exact values. The
exact column counts the matrices whose norm the shift sweep took exactly
(one direct resolvent norm per sample, the rest where a supremum or a
domination decision needed it) against the number of samples. That count
depends on the sweep's blocks (``spectral.block_size``: 32 samples at
n = 16, 8 from n = 32 on), because each block raises its floors from all
of its lower bounds at once; the other columns do not.

Usage: python scripts/seed_sweep.py [n_seeds] [max_size]
"""

import sys

import numpy as np

from semidecay import generate_instance
from semidecay.factorization import (enlargement_bound_chain, shift_sweep,
                                     verify_factorization)
from semidecay.hypotheses import sample_xi_region


def main(n_seeds=100, max_size=32):
    size_rng = np.random.default_rng(0)
    print(f"{'seed':>4} {'n':>3} {'identity ≤':>10} {'mismatch ≤':>10} "
          f"{'K_chain':>10} {'K_direct':>10} {'dominated':>9} {'exact':>9}")
    worst_identity = worst_mismatch = 0.0
    violations = exact_norms = n_samples = 0
    for seed in range(1, n_seeds + 1):
        n = 2 if seed == 1 else int(size_rng.integers(4, max_size + 1))
        inst = generate_instance(seed, n)
        cert = inst.certificate
        xi = sample_xi_region(cert.a, cert.r, list(cert.xi), thin=True)
        sweep = shift_sweep(inst.split, inst.pair, xi)
        fact = verify_factorization(sweep)
        chain = enlargement_bound_chain(sweep)
        worst_identity = max(worst_identity, fact.max_identity_residual)
        worst_mismatch = max(worst_mismatch, fact.max_inverse_mismatch)
        violations += 0 if chain.dominated else 1
        exact_norms += sweep.exact_norms
        n_samples += len(xi)
        print(f"{seed:>4} {n:>3} {fact.max_identity_residual:>10.2e} "
              f"{fact.max_inverse_mismatch:>10.2e} {chain.certified_bound:>10.3e} "
              f"{chain.direct_sup:>10.3e} {str(chain.dominated):>9} "
              f"{f'{sweep.exact_norms}/{len(xi)}':>9}")
    print(f"\nworst identity residual ≤ {worst_identity:.2e}")
    print(f"worst inverse mismatch  ≤ {worst_mismatch:.2e}")
    print(f"domination violations:   {violations}/{n_seeds}")
    print(f"exact norm matrices:     {exact_norms} for {n_samples} samples")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
