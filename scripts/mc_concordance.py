#!/usr/bin/env python3
"""Monte Carlo concordance report for the truncated-series distribution.

Samples the spectral statistic, compares empirical quantiles against the
series quantiles, and prints Kolmogorov-Smirnov distances against both the
stated truncation order and a converged one.  Everything is deterministic
given the seed.
"""

import argparse
import sys
import warnings

from jackratio.cli import TABLE1_ALPHAS
from jackratio.dist import (DistParams, TruncationWarning,
                            auto_converged_params, get_table)
from jackratio.mc import (McConfig, empirical_quantile, ks_distance,
                          sample_extreme_ratio)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--beta", type=int, choices=(1, 2, 4), default=1)
    ap.add_argument("--reps", type=int, default=10**6)
    ap.add_argument("--ks-reps", type=int, default=10**5)
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--K", type=int, default=None,
                    help="stated truncation order (default per beta)")
    args = ap.parse_args()
    if args.ks_reps < 1:
        ap.error("--ks-reps must be at least 1")
    try:
        stated_params = DistParams(m=args.m, n=args.n, beta=args.beta, K=args.K)
        cfg = McConfig(m=args.m, n=args.n, beta=args.beta,
                       replications=args.reps, seed=args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    # both series tables take the default t_max, so check it before sampling
    try:
        stated_params.resolved_t_max
    except ValueError:
        ap.error(f"the inner series does not terminate at m={args.m}, n={args.n}, "
                 f"beta={args.beta}, so it has no default t_max")

    samples = sample_extreme_ratio(cfg)
    print(f"sampled {args.reps} replications (m={args.m}, n={args.n}, "
          f"beta={args.beta}, seed={args.seed})")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        stated = get_table(stated_params)
        converged = get_table(auto_converged_params(args.m, args.n, args.beta))
        stated_mass = stated.mass()

    print(f"\n{'alpha':>6} {'empirical':>10} {'series(K=' + str(stated.K) + ')':>14} "
          f"{'series(K=' + str(converged.K) + ')':>14}")
    for alpha in TABLE1_ALPHAS:
        emp = empirical_quantile(samples, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            qs = stated.quantile(alpha) if alpha < stated_mass else float("nan")
            qc = converged.quantile(alpha)
        print(f"{alpha:>6} {emp:>10.4f} {qs:>14.4f} {qc:>14.4f}")

    head = samples[:args.ks_reps]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        d_stated = ks_distance(head, stated.cdf_many)
        d_conv = ks_distance(head, converged.cdf_many)
    print(f"\nKS distance over first {len(head)} samples:")
    print(f"  vs K={stated.K:<4} {d_stated:.4f}   "
          f"(truncated mass {stated_mass:.4f}; the mass deficit is a floor)")
    print(f"  vs K={converged.K:<4} {d_conv:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
