"""Sweep the split's shift dial and report train/test shift.

Draws a Beta-shaped sample of local homophily ratios, splits it at each
gamma, and prints the resulting train/test EMD with per-bin train shares.
gamma=0 is a homophily-agnostic 80/20 split; larger gamma moves the training
pool toward the most populated bins, so the EMD grows with gamma.
"""

import argparse

import numpy as np

from homshift import bin_index, stratified_split


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", type=float, default=10.0)
    parser.add_argument("--beta", type=float, default=3.0)
    parser.add_argument("--count", type=int, default=10_000)
    parser.add_argument("--bins", type=int, default=10)
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=[0.0, 1.0, 2.0, 3.0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    ratios = rng.beta(args.alpha, args.beta, size=args.count)
    counts = np.bincount(bin_index(ratios, args.bins), minlength=args.bins)
    print(f"sample: Beta({args.alpha:g},{args.beta:g}), {args.count} ratios")
    print("bin counts:", counts.tolist())

    for gamma in args.gammas:
        result = stratified_split(ratios, gamma, args.bins, seed=args.seed)
        shares = " ".join(
            "-" if c == 0 else f"{s:.2f}"
            for c, s in zip(counts, result.per_bin_train_share))
        print(f"gamma={gamma:g}: train/test EMD {result.emd_train_test:.5f}  "
              f"train shares [{shares}]")


if __name__ == "__main__":
    main()
