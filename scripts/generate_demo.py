"""Rewire a synthetic graph toward a Beta-shaped homophily profile.

Builds a two-class SBM, runs the full generation pipeline, and prints the
edit budget alongside the before/after distance to the goal. Pass --out to
keep the artifacts (edge list, node table, edit log); the written edit log
is checked as `homshift generate` checks it (`EditLog.save_checked`), and
the script exits 1 if it does not replay the source graph to the generated
one.
"""

import argparse
import sys
from pathlib import Path

from homshift import (
    BetaGoal,
    generate,
    global_homophily,
    save_edge_list,
    save_node_table,
    two_class_sbm,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--degree", type=float, default=10.0)
    parser.add_argument("--homophily", type=float, default=0.5)
    parser.add_argument("--alpha", type=float, default=3.0)
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--bins", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    graph, table = two_class_sbm(args.nodes, args.degree, args.homophily,
                                 seed=args.seed)
    print(f"source graph: {graph.node_count} nodes, {graph.edge_count} edges, "
          f"global homophily {global_homophily(graph, table):.3f}")

    goal = BetaGoal(args.alpha, args.beta)
    rewired, log, report = generate(graph, table, goal, args.bins,
                                    seed=args.seed)
    print(f"goal Beta({args.alpha:g},{args.beta:g}) over {args.bins} bins")
    print(f"edits: {report.edits_rewire} rewires + {report.edits_refine} "
          f"refinements ({len(log)} log records)")
    print(f"EMD to goal: {report.emd_original_goal:.4f} -> "
          f"{report.emd_generated_goal:.4f}")
    print(f"global homophily after: {global_homophily(rewired, table):.3f}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        save_edge_list(rewired, args.out / "generated_edges.txt")
        save_node_table(table, args.out / "nodes.csv")
        try:
            log.save_checked(args.out / "edit_log.jsonl", graph, rewired)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(1)
        print(f"wrote generated_edges.txt, nodes.csv, edit_log.jsonl to {args.out}")
        print("edit log replays onto the source graph")


if __name__ == "__main__":
    main()
