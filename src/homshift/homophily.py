"""Homophily measurement: global/local ratios, binned distributions, EMD.

Local homophily of a node is the fraction of its neighbors sharing its
label. Distributions over nodes use b equal bins [i/b, (i+1)/b) with the
last bin closed at 1. The earth mover's distance between two b-bin
histograms uses the ground cost |center_i - center_j|, for which the 1-D
closed form (1/b) * sum_k |CDF_p(k) - CDF_q(k)| is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, NodeTable

# Nudge used when mapping a ratio to its bin index. Local ratios are
# rationals s/d with small denominators, so any value this close to a
# boundary i/b is the boundary itself up to float rounding.
_BIN_EPS = 1e-9


@dataclass(frozen=True)
class HomophilyHistogram:
    """b-bin probability mass function over [0,1] homophily ratios."""

    bin_count: int
    mass: np.ndarray

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError("bin_count must be positive")
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (self.bin_count,):
            raise ValueError(f"mass must have shape ({self.bin_count},)")
        if not np.all(np.isfinite(mass)):
            raise ValueError("mass entries must be finite")
        if np.any(mass < -1e-15):
            raise ValueError("mass entries must be non-negative")
        mass = np.clip(mass, 0.0, None)
        if abs(float(mass.sum()) - 1.0) > 1e-12:
            raise ValueError("mass must sum to 1 within 1e-12")
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)

    def edges(self) -> np.ndarray:
        return np.arange(self.bin_count + 1, dtype=np.float64) / self.bin_count


@dataclass(frozen=True)
class BetaGoal:
    """Shape parameters of a Beta-distributed goal homophily distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"Beta shape parameter {name} must be finite and positive, "
                                 f"got {value!r}")


def _same_label_edge_mask(g: Graph, t: NodeTable) -> np.ndarray:
    """Per-edge agreement; edges touching an invalid label never agree."""
    lu = t.labels[g.edges[:, 0]]
    lv = t.labels[g.edges[:, 1]]
    return (lu == lv) & (lu >= 0) & (lv >= 0)


def same_label_counts(g: Graph, t: NodeTable) -> np.ndarray:
    """Per node, the integer count of neighbours sharing its (valid) label."""
    agree = g.edges.compress(_same_label_edge_mask(g, t), axis=0)  # see graph.load_edge_list
    return np.bincount(agree.ravel(), minlength=g.node_count)


def global_homophily(g: Graph, t: NodeTable) -> float:
    """Fraction of edges whose endpoints share a label."""
    if len(t) != g.node_count:
        raise ValueError("node table does not match graph size")
    if g.edge_count == 0:
        raise ValueError("global homophily undefined on an edgeless graph")
    return float(_same_label_edge_mask(g, t).sum()) / g.edge_count


def local_homophily_all(g: Graph, t: NodeTable) -> np.ndarray:
    """Per-node local homophily; NaN flags isolated or unlabeled nodes."""
    if len(t) != g.node_count:
        raise ValueError("node table does not match graph size")
    same = same_label_counts(g, t)
    out = np.full(g.node_count, np.nan)
    ok = (g.degrees > 0) & (t.labels >= 0)
    out[ok] = same[ok] / g.degrees[ok]
    return out


def bin_index(ratios: np.ndarray, bin_count: int) -> np.ndarray:
    """Bin ids for ratios in [0,1]; 1.0 lands in the last (closed) bin."""
    idx = np.floor(np.asarray(ratios, dtype=np.float64) * bin_count + _BIN_EPS)
    return np.clip(idx, 0, bin_count - 1).astype(np.int64)


def defined_bins(ratios, bin_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes with a defined (non-NaN) ratio, each one's bin, and the count per bin."""
    if bin_count < 1:
        raise ValueError("bin_count must be positive")
    ratios = np.asarray(ratios, dtype=np.float64)
    ids = np.flatnonzero(~np.isnan(ratios))
    if ids.size == 0:
        raise ValueError("no node has a defined ratio")
    bins = bin_index(ratios[ids], bin_count)
    return ids, bins, np.bincount(bins, minlength=bin_count)


def histogram(ratios, bin_count: int) -> HomophilyHistogram:
    """Normalized bin counts of the given ratios."""
    if bin_count < 1:
        raise ValueError("bin_count must be positive")
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.size == 0:
        raise ValueError("need at least one ratio")
    if np.any(np.isnan(ratios)) or np.any((ratios < 0) | (ratios > 1)):
        raise ValueError("ratios must lie in [0, 1] with no NaN")
    counts = np.bincount(bin_index(ratios, bin_count), minlength=bin_count)
    return HomophilyHistogram(bin_count, counts / ratios.size)


def defined_histogram(ratios, bin_count: int) -> HomophilyHistogram:
    """Histogram of the ratios that are defined (not NaN)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    ratios = ratios[~np.isnan(ratios)]
    if ratios.size == 0:
        raise ValueError("no node has a defined local homophily ratio")
    return histogram(ratios, bin_count)


def homophily_histogram(g: Graph, t: NodeTable, bin_count: int) -> HomophilyHistogram:
    """Histogram of local ratios over nodes where the ratio is defined."""
    return defined_histogram(local_homophily_all(g, t), bin_count)


def beta_goal_histogram(goal: BetaGoal, bin_count: int) -> HomophilyHistogram:
    """Goal histogram: the Beta(alpha, beta) mass of each bin, renormalized.

    Each bin mass is the difference of the regularized incomplete beta
    function (the Beta CDF) at the bin's edges.
    """
    # imported here so that importing homshift loads no scipy
    from scipy import special

    if bin_count < 2:
        raise ValueError("bin_count must be at least 2")
    edges = np.arange(bin_count + 1, dtype=np.float64) / bin_count
    mass = np.diff(special.betainc(goal.alpha, goal.beta, edges))
    total = mass.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("Beta bin masses are not finite")
    return HomophilyHistogram(bin_count, mass / total)


def emd(p: HomophilyHistogram, q: HomophilyHistogram) -> float:
    """Earth mover's distance between two same-width histograms.

    Closed form for the 1-D bin-center ground cost: the L1 distance between
    the CDFs scaled by the bin width 1/b.
    """
    if p.bin_count != q.bin_count:
        raise ValueError("histograms must share a bin count")
    return float(np.abs(np.cumsum(p.mass - q.mass)).sum()) / p.bin_count
