"""Command-line pipeline: analyze, generate, split, metrics, theory.

Each subcommand returns its artifacts as writers keyed by file name; `main` adds a
`<command>.config.json` sidecar from which they can be regenerated. All go into --out
under temporary names and then move into place, the sidecar last, so a failed or
refused run leaves no artifact and no sidecar; exit status 0 means all were written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .graph import load_edge_list, load_node_table, save_edge_list
from .homophily import BetaGoal, defined_histogram, global_homophily, local_homophily_all
from .metrics import (
    MetricRecord,
    PredictionTable,
    baseline_adjust,
    delta_metrics,
    load_predictions,
    micro_f1,
    per_class_statistical_parity,
)
from .rewire import generate
from .splits import load_split, save_split, save_split_diagnostics, stratified_split
from .theory import TheoryParams, save_sweep, sweep_alpha


def _write_text(text: str, path: Path) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _dump_json(obj, path: Path) -> None:
    _write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def _write_artifacts(out: Path, artifacts: dict) -> None:
    """Write each `name: writer` entry to `out/<name>.tmp`, then move them all into
    place in order; a writer that raises leaves no artifact or temporary file. The
    last entry's old file goes before the first move, so a run stopped between two
    moves leaves no earlier run's last entry (the sidecar) next to new artifacts."""
    out.mkdir(parents=True, exist_ok=True)
    parts = {out / f"{name}.tmp": out / name for name in artifacts}
    try:
        for part, write in zip(parts, artifacts.values()):
            write(part)
        next(reversed(parts.values())).unlink(missing_ok=True)
        for part, final in parts.items():
            os.replace(part, final)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _load_pair(args):
    g = load_edge_list(args.graph, one_indexed=args.one_indexed)
    t = load_node_table(args.nodes)
    if len(t) < g.node_count:
        raise ValueError(f"{args.nodes}: node table has {len(t)} rows but {args.graph} "
                         f"references node ids up to {g.node_count - 1}")
    if len(t) > g.node_count:
        # trailing table rows are isolated nodes; widen the graph to match
        g = g.widened(len(t))
    return g, t


def _ratios_csv(ratios: np.ndarray) -> str:
    """ratios.csv's text: one `node_id,ratio` row per node, blank for NaN.

    Each distinct value is formatted once. The values are keyed on their bit
    patterns, so -0.0 keeps its own cell apart from 0.0.
    """
    bits, which = np.unique(ratios.view(np.int64), return_inverse=True)
    cells = [",\n" if x != x else f",{x!r}\n" for x in bits.view(np.float64).tolist()]
    return "node_id,ratio\n" + "".join([f"{node}{cells[i]}"
                                        for node, i in enumerate(which.tolist())])


def _cmd_analyze(args) -> dict:
    g, t = _load_pair(args)
    h_global = global_homophily(g, t)
    ratios = local_homophily_all(g, t)
    hist = defined_histogram(ratios, args.bins)
    edges = hist.edges()
    histogram = "bin,lo,hi,mass\n" + "".join(
        f"{b},{float(edges[b])!r},{float(edges[b + 1])!r},{float(hist.mass[b])!r}\n"
        for b in range(hist.bin_count))
    return {
        "ratios.csv": partial(_write_text, _ratios_csv(ratios)),
        "histogram.csv": partial(_write_text, histogram),
        "summary.json": partial(_dump_json, {
            "nodes": g.node_count,
            "edges": g.edge_count,
            "global_homophily": h_global,
            "valid_ratio_nodes": int((~np.isnan(ratios)).sum()),
            "bins": args.bins,
        }),
    }


def _cmd_generate(args) -> dict:
    goal = BetaGoal(args.alpha, args.beta)
    g, t = _load_pair(args)
    generated, log, report = generate(g, t, goal, args.bins, args.seed)
    payload = dataclasses.asdict(report)
    # str keys keep the text order ("10" before "2"); sort_keys orders int keys as numbers
    payload["degree_delta_histogram"] = {
        str(k): v for k, v in report.degree_delta_histogram.items()}
    return {
        "generated_edges.txt": partial(save_edge_list, generated),
        "edit_log.jsonl": partial(log.save_checked, original=g, generated=generated),
        "report.json": partial(_dump_json, payload),
    }


def _save_reloaded_split(assignment, path: Path) -> None:
    """Save a split CSV, then check that the saved file reads back as its tags."""
    save_split(assignment, path)
    if not np.array_equal(load_split(path), assignment.tags):
        raise RuntimeError(f"{path.stem} did not round-trip")


def _cmd_split(args) -> dict:
    gammas = [gm + 0.0 for gm in args.gamma or [0.0]]  # + 0.0 reads -0.0 as 0
    for gm in gammas:
        if not (math.isfinite(gm) and gm >= 0):
            raise ValueError(f"--gamma must be a finite non-negative number, got {gm!r}")
    stems: dict[str, float] = {}
    for gm in gammas:
        # `:g` keeps 6 significant digits, so close gammas can share a file name
        other = stems.setdefault(f"split_gamma{gm:g}", gm)
        if other != gm:
            raise ValueError(f"--gamma {other!r} and --gamma {gm!r} would both write "
                             f"split_gamma{gm:g}.csv")
    g, t = _load_pair(args)
    ratios = local_homophily_all(g, t)
    artifacts = {}
    for stem, gm in stems.items():
        assignment = stratified_split(ratios, gm, args.bins, args.seed,
                                      train_frac=args.train_frac, val_frac=args.val_frac)
        artifacts[f"{stem}.csv"] = partial(_save_reloaded_split, assignment)
        artifacts[f"{stem}.json"] = partial(save_split_diagnostics, assignment)
    return artifacts


def _score(path) -> tuple[dict, MetricRecord, PredictionTable]:
    table = load_predictions(path)
    f1 = micro_f1(table)
    try:
        per_class = [float(x) for x in per_class_statistical_parity(table)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    sp = max(per_class)  # the multiclass parity
    payload = {"f1": f1, "sp": sp, "n_eval": table.n_eval, "per_class_sp": per_class}
    # the runs compared are the files named on the command line, so all share one identity
    record = MetricRecord(f1=f1, sp=sp, n_eval=table.n_eval, dataset="", model="")
    return payload, record, table


def _check_same_nodes(path_a, table_a: PredictionTable, path, table: PredictionTable) -> None:
    """Refuse a run whose node ids, or whose y_true or sensitive on a shared
    id, differ from run a's, naming the smallest such id. The two tables
    hold as many rows."""
    order_a, order = np.argsort(table_a.node_ids), np.argsort(table.node_ids)
    ids_a, ids = table_a.node_ids[order_a], table.node_ids[order]
    if not np.array_equal(ids_a, ids):
        node = np.setxor1d(ids_a, ids)[0]
        has, lacks = (path_a, path) if node in ids_a else (path, path_a)
        raise ValueError(f"runs must score the same nodes: node {node} is in {has} "
                         f"but not in {lacks}")
    differs = ((table_a.y_true[order_a] != table.y_true[order])
               | (table_a.sensitive[order_a] != table.sensitive[order]))
    if differs.any():
        raise ValueError(f"runs must share y_true and sensitive: node {ids[differs.argmax()]} "
                         f"differs between {path_a} and {path}")


def _cmd_metrics(args) -> dict:
    payload_a, rec_a, table_a = _score(args.run_a)
    artifacts = {"metrics_a.json": payload_a}
    compared = []  # (file, table) of --run-b and --baseline, checked against run a
    rec_b = None
    if args.run_b:
        artifacts["metrics_b.json"], rec_b, table_b = _score(args.run_b)
        compared.append((args.run_b, table_b))
    if args.baseline:
        _, rec_base, table_base = _score(args.baseline)
        compared.append((args.baseline, table_base))
        for run, rec, name in ((args.run_a, rec_a, "adjusted_a.json"),
                               (args.run_b, rec_b, "adjusted_b.json")):
            if rec is None:
                continue
            try:
                adj = baseline_adjust(rec, rec_base)
            except ValueError as exc:
                raise ValueError(f"{exc}: {args.baseline} has {rec_base.n_eval} rows, "
                                 f"{run} has {rec.n_eval}") from None
            artifacts[name] = {"f1": adj.f1, "sp": adj.sp}
    if rec_b is not None:
        try:
            d_f1, d_sp = delta_metrics(rec_a, rec_b)
        except ValueError as exc:
            raise ValueError(f"{exc}: {args.run_a} has {rec_a.n_eval} rows, "
                             f"{args.run_b} has {rec_b.n_eval}") from None
        artifacts["delta.json"] = {"delta_f1": d_f1, "delta_sp": d_sp}
    # Every row count now equals run a's.
    for path, table in compared:
        _check_same_nodes(args.run_a, table_a, path, table)
    return {name: partial(_dump_json, payload) for name, payload in artifacts.items()}


def _cmd_theory(args) -> dict:
    grid = []
    for entry in args.alpha_grid.split(","):
        if entry.strip() == "":
            continue
        try:
            alpha = float(entry) + 0.0  # + 0.0 reads -0.0 as 0
        except ValueError:
            raise ValueError(f"--alpha-grid entry {entry!r} is not a number") from None
        if not math.isfinite(alpha):
            raise ValueError(f"--alpha-grid entry {entry!r} is not a finite number")
        grid.append(alpha)
    if not grid:
        raise ValueError("--alpha-grid must list at least one value")
    params = TheoryParams(n=args.n, k=args.k, d=args.d, h=args.h, alpha_shift=0.0,
                          mu_l=args.mu_l, mu_s=args.mu_s, sigma=args.sigma,
                          lambda_reg=args.lam)
    rows = sweep_alpha(params, grid, args.trials, args.seed)
    if not rows:
        raise ValueError("every grid point was skipped; no sweep rows produced")
    return {"sweep.csv": partial(save_sweep, rows)}


def _add_graph_args(sp) -> None:
    sp.add_argument("--graph", required=True, help="edge-list file")
    sp.add_argument("--nodes", required=True, help="node table CSV")
    sp.add_argument("--one-indexed", action="store_true",
                    help="edge list counts nodes from 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homshift",
        description="Local-homophily analysis, goal-directed graph rewiring, "
                    "distribution-shift splits, fairness metrics, and the "
                    "linear-GNN disparity model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="local homophily distribution of a graph")
    _add_graph_args(p)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("generate", help="rewire a graph toward a Beta homophily goal")
    _add_graph_args(p)
    p.add_argument("--alpha", type=float, required=True, help="goal Beta alpha")
    p.add_argument("--beta", type=float, required=True, help="goal Beta beta")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("split", help="gamma-stratified train/val/test splits")
    _add_graph_args(p)
    p.add_argument("--gamma", type=float, action="append",
                   help="shift dial: the train pool moves 1 - 2**-gamma of the way from "
                        "a stratified to the most concentrated split; repeatable; default 0")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--val-frac", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("metrics", help="score prediction files (micro-F1, parity)")
    p.add_argument("--run-a", required=True, help="prediction CSV")
    p.add_argument("--run-b", help="second prediction CSV for delta metrics")
    p.add_argument("--baseline", help="baseline prediction CSV to subtract")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("theory", help="closed-form vs Monte-Carlo logit-gap sweep")
    p.add_argument("--n", type=int, default=1000, help="training nodes")
    p.add_argument("--k", type=int, default=500, help="nodes with y=s=0")
    p.add_argument("--d", type=int, default=10, help="neighborhood degree")
    p.add_argument("--h", type=float, default=0.7, help="training homophily")
    p.add_argument("--alpha-grid", default="0.0",
                   help="comma-separated shifts; use the = form for "
                        "negative values, e.g. --alpha-grid=-0.2,0.0,0.2")
    p.add_argument("--mu-l", type=float, default=1.0)
    p.add_argument("--mu-s", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--lam", type=float, default=1e-3, help="ridge strength")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_theory)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        artifacts = vars(args).pop("func")(args)
        config = dict(vars(args), subcommand=args.command)
        artifacts[f"{args.command}.config.json"] = partial(_dump_json, config)
        _write_artifacts(Path(args.out), artifacts)
    except Exception as exc:
        print(f"homshift {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
