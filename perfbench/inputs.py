"""Seeded input files for the benchmark workloads, made with plain numpy.

Nothing here imports homshift: a rewrite of the library (its SBM generator
included) must not change what a workload feeds it. The same seed and size
always give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SbmSize:
    nodes: int = 3000
    mean_degree: float = 10.0
    edge_homophily: float = 0.5
    graphs: int = 4


@dataclass(frozen=True)
class LargeSize:
    nodes: int = 41554
    edges: int = 680_000
    classes: int = 7
    trailing_isolated: int = 6
    unlabeled_share: float = 0.05
    reversed_duplicate_share: float = 0.01


@dataclass(frozen=True)
class TheorySize:
    n: int = 1000
    k: int = 500
    d: int = 10
    h: float = 0.7
    mu_l: float = 1.0
    mu_s: float = 1.0
    sigma: float = 0.01
    lam: float = 1e-3
    alpha_grid: tuple = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
    trials: int = 5000


FULL = {"generate-sbm": SbmSize(), "read-large": LargeSize(), "theory-sweep": TheorySize()}
# Sizes for the benchmark's own tests: every code path, in seconds.
TINY = {
    "generate-sbm": SbmSize(nodes=300, mean_degree=8.0, graphs=2),
    "read-large": LargeSize(nodes=2000, edges=12_000, classes=4),
    "theory-sweep": TheorySize(n=100, k=50, trials=200),
}


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))


def _sample_pairs(rng, count: int, draw, n: int) -> np.ndarray:
    """`count` distinct canonical pairs (u < v) from repeated batches of `draw`."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < count:
        u, v = draw(2 * (count - keys.size) + 64)
        ok = u != v
        lo, hi = np.minimum(u[ok], v[ok]), np.maximum(u[ok], v[ok])
        fresh = np.concatenate((keys, lo * n + hi))
        _, first = np.unique(fresh, return_index=True)
        keys = fresh[np.sort(first)]  # keep first occurrence, in draw order
    keys = keys[:count]
    return np.column_stack((keys // n, keys % n))


def write_sbm(out: Path, seed: int, size: SbmSize) -> None:
    """`size.graphs` independent SBMs: edges_<k>.txt, nodes_<k>.csv.

    The generator's run time depends on the graph a seed draws (both goals
    are slow on the same graph), so each run rewires several graphs and the
    seed-dependent share of its time shrinks with their number.
    """
    for k in range(size.graphs):
        _write_one_sbm(out, k, np.random.default_rng([seed, 1, k]), size)


def _write_one_sbm(out: Path, k: int, rng, size: SbmSize) -> None:
    """Two-block SBM with exactly round(n*deg/2) edges at the given edge homophily.

    edges_<k>.txt holds sorted `u v` lines; in nodes_<k>.csv sensitive = label.
    """
    n = size.nodes
    n0 = n // 2
    m = int(round(n * size.mean_degree / 2))
    m_same = int(round(size.edge_homophily * m))

    def same_block(count):
        u = rng.integers(0, n, size=count)
        lo = np.where(u < n0, 0, n0)
        hi = np.where(u < n0, n0, n)
        return u, rng.integers(lo, hi)

    def cross_block(count):
        return rng.integers(0, n0, size=count), rng.integers(n0, n, size=count)

    same = _sample_pairs(rng, m_same, same_block, n)
    cross = _sample_pairs(rng, m - m_same, cross_block, n)
    edges = np.vstack((same, cross))
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    _write_lines(out / f"edges_{k}.txt", (f"{u} {v}\n" for u, v in edges.tolist()))
    labels = (np.arange(n) >= n0).astype(np.int64)
    _write_lines(out / f"nodes_{k}.csv", ["node_id,label,sensitive\n"]
                 + [f"{i},{c},{c}\n" for i, c in enumerate(labels.tolist())])


def write_large(out: Path, seed: int, size: LargeSize) -> None:
    """Penn94-scale social graph with class homophily and heavy-tailed degrees.

    edges.txt: a leading comment, shuffled lines in either orientation, and
    a share of reversed duplicates; the last `trailing_isolated` ids never
    appear. nodes.csv: a share of empty labels, binary sensitive attribute.
    pred_run_a/pred_run_b/pred_baseline.csv: predictions on labeled nodes.
    """
    rng = np.random.default_rng([seed, 2])
    n = size.nodes
    core = n - size.trailing_isolated
    class_p = rng.dirichlet(np.full(size.classes, 3.0))
    labels = rng.choice(size.classes, size=n, p=class_p)
    sensitive = rng.integers(0, 2, size=n)
    weight = rng.lognormal(0.0, 0.8, size=core)
    loyalty = rng.beta(2.0, 3.0, size=core)  # per-node chance of a same-class partner

    order = np.argsort(labels[:core], kind="stable")
    cum_all = np.cumsum(weight)
    cum_cls = np.cumsum(weight[order])
    cls_sorted = labels[:core][order]
    start = np.searchsorted(cls_sorted, np.arange(size.classes), side="left")
    stop = np.searchsorted(cls_sorted, np.arange(size.classes), side="right")
    cls_lo = np.where(start > 0, cum_cls[np.maximum(start - 1, 0)], 0.0)
    cls_hi = np.where(stop > 0, cum_cls[np.maximum(stop - 1, 0)], 0.0)

    def draw(count):
        u = np.searchsorted(cum_all, rng.random(count) * cum_all[-1], side="right")
        u = np.minimum(u, core - 1)
        c = labels[u]
        x = cls_lo[c] + rng.random(count) * (cls_hi[c] - cls_lo[c])
        v_same = order[np.minimum(np.searchsorted(cum_cls, x, side="right"), stop[c] - 1)]
        v_any = np.minimum(np.searchsorted(cum_all, rng.random(count) * cum_all[-1],
                                           side="right"), core - 1)
        return u, np.where(rng.random(count) < loyalty[u], v_same, v_any)

    edges = _sample_pairs(rng, size.edges, draw, core)
    flip = rng.random(edges.shape[0]) < 0.5
    lines = np.where(flip[:, None], edges[:, ::-1], edges)
    dup = edges[rng.choice(edges.shape[0], int(size.reversed_duplicate_share * edges.shape[0]),
                           replace=False)][:, ::-1]
    lines = np.vstack((lines, dup))[rng.permutation(edges.shape[0] + dup.shape[0])]
    _write_lines(out / "edges.txt",
                 [f"# synthetic social graph, seed {seed}: {core} ids with edges, "
                  f"{edges.shape[0]} unique edges\n"]
                 + [f"{u}\t{v}\n" for u, v in lines.tolist()])

    unlabeled = rng.random(n) < size.unlabeled_share
    label_cells = np.where(unlabeled, "", labels.astype(str))
    _write_lines(out / "nodes.csv", ["node_id,label,sensitive\n"]
                 + [f"{i},{c},{s}\n" for i, (c, s)
                    in enumerate(zip(label_cells.tolist(), sensitive.tolist()))])

    ids = np.flatnonzero(~unlabeled)
    y_true = labels[ids]
    for name, accuracy in (("run_a", 0.70), ("run_b", 0.75), ("baseline", 0.0)):
        guess = rng.choice(size.classes, size=ids.size, p=class_p)
        y_pred = np.where(rng.random(ids.size) < accuracy, y_true, guess)
        _write_lines(out / f"pred_{name}.csv", ["node_id,y_true,y_pred,sensitive\n"]
                     + [f"{i},{a},{b},{s}\n" for i, a, b, s
                        in zip(ids.tolist(), y_true.tolist(), y_pred.tolist(),
                               sensitive[ids].tolist())])


def write_theory(out: Path, seed: int, size: TheorySize) -> None:
    """The sweep's command-line parameters; the seed drives only the simulation."""
    args = {"n": size.n, "k": size.k, "d": size.d, "h": size.h, "mu_l": size.mu_l,
            "mu_s": size.mu_s, "sigma": size.sigma, "lam": size.lam,
            "alpha_grid": list(size.alpha_grid), "trials": size.trials,
            "seed": int(seed)}
    with open(out / "theory_args.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(args, fh, sort_keys=True, indent=2)
        fh.write("\n")


WRITERS = {"generate-sbm": write_sbm, "read-large": write_large, "theory-sweep": write_theory}


def write_inputs(workload: str, out: Path, seed: int, tiny: bool = False) -> None:
    out.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](out, seed, (TINY if tiny else FULL)[workload])
