#!/usr/bin/env python3
"""Regenerate the reference tables and the probability-growth curve.

Thin driver over the CLI: writes table1a.csv, table1b.csv, table2.csv and
fig1.csv into the output directory.  The complex-variant quantile table is
emitted twice, at the stated truncation order (K=40) and at the first order
that actually reproduces the reference tail digits (K=44); see the project
notes for why those differ.
"""

import argparse
import os
import sys

from jackratio.cli import TABLE1_ALPHAS, main as cli_main
from jackratio.dist import DistParams, get_table


def run(argv, dest):
    code = cli_main(argv + ["--output", dest])
    if code != 0:
        raise SystemExit(f"command {' '.join(argv)} failed with {code}")
    print(f"wrote {dest}")


def write_deeper_variant(dest, digits):
    table = get_table(DistParams(m=10, n=3, beta=2, K=44))
    with open(dest, "w") as fh:
        fh.write("alpha,F_44_inv\n")
        for alpha in TABLE1_ALPHAS:
            fh.write(f"{alpha:.{digits}f},{table.quantile(alpha):.{digits}f}\n")
    print(f"wrote {dest}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--digits", type=int, default=6)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    d = str(args.digits)

    run(["dist", "table1", "--variant", "a", "--digits", d],
        os.path.join(args.outdir, "table1a.csv"))
    run(["dist", "table1", "--variant", "b", "--digits", d],
        os.path.join(args.outdir, "table1b.csv"))
    write_deeper_variant(os.path.join(args.outdir, "table1b_k44.csv"),
                         args.digits)
    run(["dist", "table2", "--digits", d],
        os.path.join(args.outdir, "table2.csv"))
    run(["dist", "fig1", "--m-grid", "5:145:20", "--digits", d],
        os.path.join(args.outdir, "fig1.csv"))


if __name__ == "__main__":
    sys.exit(main())
