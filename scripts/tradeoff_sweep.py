#!/usr/bin/env python3
"""Speed/accuracy trade-off curve on a synthetic detector.

Sweeps a shared mistake cost lambda = lambda_fp = lambda_fn and reports how
total error rate falls while the evaluation-savings ratio shrinks as labeling
mistakes get more expensive.  Writes the sweep CSV plus its metadata sidecar.
"""

import argparse
import json
from pathlib import Path

from partsched import BeliefGrid, SyntheticSpec, lambda_sweep, save_sweep_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tradeoff_sweep.csv")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--locations", type=int, default=10000)
    parser.add_argument("--parts", type=int, default=9)
    parser.add_argument("--separation", type=float, default=3.0)
    parser.add_argument("--lambdas", type=float, nargs="+",
                        default=[0.5, 2.0, 8.0, 32.0, 128.0])
    args = parser.parse_args()

    spec = SyntheticSpec(n_parts=args.parts, separation=args.separation,
                         prior_positive=0.5, n_locations=args.locations,
                         seed=args.seed)
    sweep = lambda_sweep(spec, [(l, l) for l in args.lambdas], BeliefGrid(101))
    save_sweep_csv(sweep, args.out)
    Path(args.out + ".meta.json").write_text(json.dumps(
        {"seed": args.seed, "lambdas": args.lambdas, "locations": args.locations,
         "parts": args.parts, "separation": args.separation},
        sort_keys=True, separators=(",", ":")) + "\n")

    print(f"{'lambda':>8} {'err=fp+fn':>10} {'rnpe':>8} {'mean_tau':>9} {'ap':>7}")
    for row in sweep.diagonal_rows():
        print(f"{row.lambda_fp:8.1f} {row.fp_rate + row.fn_rate:10.4f} "
              f"{row.rnpe:8.3g} {row.mean_tau:9.2f} {row.ap:7.4f}")
    diag = sweep.diagonal_diagnostics()
    print(f"error non-increasing: {diag['error_nonincreasing']}; "
          f"rnpe non-increasing: {diag['rnpe_nonincreasing']}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
