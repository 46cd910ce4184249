"""Homophily-stratified train/val/test splits with a distribution-shift dial.

gamma controls how strongly the training set concentrates on the graph's
dominant local-homophily bins: gamma=0 reproduces a plain stratified 80/20
split, larger gamma pushes train mass toward the majority bins and test
mass toward the minority bins, so the two histograms drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import read_id_table
from .homophily import HomophilyHistogram, bin_index, emd, histogram

TRAIN, VAL, TEST, EXCLUDED = 0, 1, 2, 3
TAG_NAMES = ("train", "val", "test", "excluded")


def concentrate(p: HomophilyHistogram, gamma: float) -> HomophilyHistogram:
    """Raise every bin to the gamma power and renormalize.

    Empty bins stay empty for every gamma (0**gamma is taken as 0, even at
    gamma=0), so structurally absent homophily levels never gain mass.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    mass = p.mass.copy()
    pos = mass > 0
    if not pos.any():
        raise ValueError("all histogram bins are empty")
    out = np.zeros_like(mass)
    out[pos] = mass[pos] ** gamma
    return HomophilyHistogram(p.bin_count, out / out.sum())


def invert(pg: HomophilyHistogram) -> HomophilyHistogram:
    """Reciprocal of every nonzero bin, renormalized; an involution."""
    mass = pg.mass.copy()
    pos = mass > 0
    if not pos.any():
        raise ValueError("all histogram bins are empty")
    out = np.zeros_like(mass)
    out[pos] = 1.0 / mass[pos]
    return HomophilyHistogram(pg.bin_count, out / out.sum())


@dataclass(frozen=True)
class SplitAssignment:
    """Per-node split tags plus the diagnostics of the draw.

    tags holds TRAIN/VAL/TEST for nodes with a defined ratio and EXCLUDED
    for the rest. The val set is carved out of the training pool, so the
    train side of emd_train_test is the full pool (train plus val) and
    per_bin_train_share is the pool's fraction of each bin (0.0 when the
    bin is empty).
    """

    tags: np.ndarray
    gamma: float
    bin_count: int
    seed: int | None
    emd_train_test: float
    per_bin_train_share: np.ndarray

    def __post_init__(self):
        tags = np.asarray(self.tags, dtype=np.int8)
        tags.flags.writeable = False
        object.__setattr__(self, "tags", tags)
        share = np.asarray(self.per_bin_train_share, dtype=np.float64)
        share.flags.writeable = False
        object.__setattr__(self, "per_bin_train_share", share)

    def mask(self, tag: int) -> np.ndarray:
        return self.tags == tag


def largest_remainder(quotas, total: int, caps=None) -> np.ndarray:
    """Round real quotas to nonnegative integers summing to `total`.

    Floors every quota (clamped to [0, caps]), then hands leftover units to
    the largest fractional parts, ties toward the lower index, one unit per
    index per pass and never above its cap. An excess is taken back from the
    smallest fractional parts the same way. Raises when no pass can move.
    """
    quotas = np.asarray(quotas, dtype=np.float64)
    if caps is None:
        caps = np.full(quotas.size, np.iinfo(np.int64).max)
    caps = np.asarray(caps, dtype=np.int64)
    floors = np.clip(np.floor(quotas + 1e-9).astype(np.int64), 0, caps)
    rem = int(total - floors.sum())
    fracs = quotas - floors
    order = np.lexsort((np.arange(quotas.size), -fracs))
    if rem > 0:
        step, limit = 1, caps
    else:
        step, limit, order = -1, np.zeros_like(caps), order[::-1]
    moved = True
    while rem != 0 and moved:
        moved = False
        for idx in order:
            if rem == 0:
                break
            if floors[idx] != limit[idx]:
                floors[idx] += step
                rem -= step
                moved = True
    if rem != 0:
        raise ValueError(f"cannot apportion {total} units within the caps")
    return floors


def stratified_split(ratios, gamma: float, bin_count: int, seed,
                     train_frac: float = 0.8, val_frac: float = 0.2) -> SplitAssignment:
    """Split nodes by local-homophily bin with gamma-concentrated train mass.

    Per-bin train weights are w_b = P_b^gamma / (P_b^gamma + inv(P^gamma)_b);
    a single scalar c, found by bisection, rescales them so the clamped
    per-bin demands sum to train_frac of the eligible nodes. Nodes without a
    defined ratio (NaN) are tagged EXCLUDED. The val set is a uniform
    val_frac subset of the training pool.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.size == 0:
        raise ValueError("ratios must be nonempty")
    if not (0.0 < train_frac < 1.0):
        raise ValueError("train_frac must lie in (0, 1)")
    if not (0.0 <= val_frac < 1.0):
        raise ValueError("val_frac must lie in [0, 1)")
    valid = ~np.isnan(ratios)
    ids = np.flatnonzero(valid)
    if ids.size == 0:
        raise ValueError("no node has a defined ratio")
    bins = bin_index(ratios[ids], bin_count)
    n_b = np.bincount(bins, minlength=bin_count).astype(np.int64)
    n_valid = int(ids.size)

    p = HomophilyHistogram(bin_count, n_b / n_valid)
    pg = concentrate(p, gamma).mass
    pg_bar = invert(HomophilyHistogram(bin_count, pg)).mass
    denom = pg + pg_bar
    w = np.divide(pg, denom, out=np.zeros_like(pg), where=denom > 0)

    target = train_frac * n_valid
    positive = w > 0
    if n_b[positive].sum() < target - 1e-9:
        raise ValueError("requested training fraction exceeds the weighted population")
    lo, hi = 0.0, 1.0 / w[positive].min()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(n_b * np.minimum(1.0, mid * w)) < target:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)

    quotas = n_b * np.minimum(1.0, c * w)
    pool_counts = largest_remainder(quotas, int(round(target)), caps=n_b)

    rng = np.random.default_rng(seed)
    tags = np.full(ratios.size, EXCLUDED, dtype=np.int8)
    tags[ids] = TEST
    pool_parts = []
    for b in range(bin_count):
        members = ids[bins == b]
        if members.size == 0:
            continue
        take = int(pool_counts[b])
        if take > 0:
            pool_parts.append(rng.choice(members, size=take, replace=False))
    pool = np.sort(np.concatenate(pool_parts)) if pool_parts else np.empty(0, dtype=np.int64)
    tags[pool] = TRAIN
    n_val = int(round(val_frac * pool.size))
    if n_val > 0:
        val_ids = rng.choice(pool, size=n_val, replace=False)
        tags[val_ids] = VAL

    test_ids = ids[tags[ids] == TEST]
    if pool.size == 0 or test_ids.size == 0:
        raise ValueError("split produced an empty train pool or test set")
    pair_emd = emd(histogram(ratios[pool], bin_count),
                   histogram(ratios[test_ids], bin_count))
    share = np.divide(pool_counts, n_b, out=np.zeros(bin_count), where=n_b > 0)
    return SplitAssignment(
        tags=tags,
        gamma=float(gamma),
        bin_count=bin_count,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
        emd_train_test=float(pair_emd),
        per_bin_train_share=share,
    )


def save_split(assignment: SplitAssignment, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,split\n")
        for node, tag in enumerate(assignment.tags):
            fh.write(f"{node},{TAG_NAMES[tag]}\n")


def _tag(cell: str) -> int:
    """A split tag name's code; whitespace around the name is ignored."""
    try:
        return TAG_NAMES.index(cell.strip())
    except ValueError:
        raise ValueError(f"unknown split tag {cell!r}") from None


def load_split(path) -> np.ndarray:
    """Split tags from a `node_id,split` CSV; errors name the file and line.

    The file follows graph.read_id_table's rules, and its node ids must be
    0, 1, 2, ... in file order.
    """
    rows, _, lines = read_id_table(path, ("node_id", "split"), {1: _tag})
    bad = np.flatnonzero(rows[:, 0] != np.arange(rows.shape[0]))
    if bad.size:
        raise ValueError(f"{path}: line {lines[bad[0]]}: node ids must be consecutive from 0")
    return rows[:, 1].astype(np.int8)


def split_diagnostics(assignment: SplitAssignment) -> dict:
    return {
        "gamma": assignment.gamma,
        "emd_train_test": assignment.emd_train_test,
        "per_bin_train_share": [float(s) for s in assignment.per_bin_train_share],
    }


def save_split_diagnostics(assignment: SplitAssignment, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(split_diagnostics(assignment), fh, sort_keys=True, indent=2)
        fh.write("\n")
