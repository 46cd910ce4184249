"""Compare the closed-form logit gap against Monte-Carlo simulation.

Sweeps the homophily shift alpha and prints one row per grid point. On the
default parameters the simulated mean lands at twice the closed form, up
to a lambda / b^2 term (the derivation is in homshift.theory's docstring);
the exact zero crossing and the affine shape in alpha are shared by both.
"""

import argparse

from homshift import TheoryParams, sweep_alpha


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--k", type=int, default=500)
    parser.add_argument("--degree", type=int, default=10)
    parser.add_argument("--homophily", type=float, default=0.7)
    parser.add_argument("--mu-l", type=float, default=1.0)
    parser.add_argument("--mu-s", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=0.01)
    parser.add_argument("--lambda-reg", type=float, default=1e-3)
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    params = TheoryParams(n=args.n, k=args.k, d=args.degree,
                          h=args.homophily, alpha_shift=0.0,
                          mu_l=args.mu_l, mu_s=args.mu_s,
                          sigma=args.sigma, lambda_reg=args.lambda_reg)
    rows = sweep_alpha(params, args.alphas, trials=args.trials,
                       seed=args.seed)

    print(f"{'alpha':>6}  {'closed':>9}  {'mc mean':>9}  {'stderr':>8}  ratio")
    for row in rows:
        ratio = row.mc_mean / row.closed_form if row.closed_form else float("nan")
        print(f"{row.alpha:+6.2f}  {row.closed_form:9.5f}  {row.mc_mean:9.5f}  "
              f"{row.mc_stderr:8.5f}  {ratio:5.2f}")


if __name__ == "__main__":
    main()
