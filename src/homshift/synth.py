"""Synthetic labeled graphs for generator and split experiments."""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, NodeTable


def two_class_sbm(n: int, mean_degree: float, homophily: float, seed) -> tuple[Graph, NodeTable]:
    """Two-block stochastic block model with a target edge homophily.

    The first floor(n/2) nodes take class 0, the rest class 1. Within-block
    and cross-block edge probabilities are set so a node's expected same- and
    cross-class degrees are homophily*mean_degree and (1-homophily)*mean_degree.
    The sensitive attribute mirrors the class label.
    """
    if n < 4:
        raise ValueError("need at least 4 nodes")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    if not 0.0 <= mean_degree < math.inf:  # NaN fails too
        raise ValueError(f"mean_degree must be finite and non-negative, got {mean_degree!r}")
    n0 = n // 2
    n1 = n - n0
    p_in = homophily * mean_degree / (n0 - 1)
    p_out = (1.0 - homophily) * mean_degree / n1
    if p_in > 1.0 or p_out > 1.0:
        raise ValueError("mean_degree too large for this n")
    rng = np.random.default_rng(seed)

    blocks = []
    iu, iv = np.triu_indices(n0, k=1)
    keep = rng.random(iu.size) < p_in
    blocks.append(np.column_stack((iu[keep], iv[keep])))
    iu, iv = np.triu_indices(n1, k=1)
    keep = rng.random(iu.size) < p_in
    blocks.append(np.column_stack((iu[keep] + n0, iv[keep] + n0)))
    cross = rng.random((n0, n1)) < p_out
    ci, cj = np.nonzero(cross)
    blocks.append(np.column_stack((ci, cj + n0)))

    edges = np.vstack(blocks)
    g = Graph.from_edges(n, edges)
    labels = np.zeros(n, dtype=np.int64)
    labels[n0:] = 1
    return g, NodeTable(labels, labels.copy())
