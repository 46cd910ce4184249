"""Homophily-stratified train/val/test splits with a distribution-shift dial.

gamma moves the training pool linearly, through x = 1 - 2**-gamma, from a
plain stratified 80/20 split (gamma=0) toward the most concentrated pool of
the same size, which fills the most populated local-homophily bins first.
Train and test sizes stay fixed, so the train/test distance grows with gamma.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import owned_readonly, read_id_table
from .homophily import HomophilyHistogram, defined_bins, emd

TRAIN, VAL, TEST, EXCLUDED = 0, 1, 2, 3
TAG_NAMES = ("train", "val", "test", "excluded")


@dataclass(frozen=True)
class SplitAssignment:
    """Per-node split tags plus the diagnostics of the draw.

    tags holds TRAIN/VAL/TEST for nodes with a defined ratio and EXCLUDED
    for the rest. The val set is carved out of the training pool, so the
    train side of emd_train_test is the full pool (train plus val) and
    per_bin_train_share is the pool's fraction of each bin (0.0 when the
    bin is empty). Like `NodeTable`, it keeps read-only arrays of its own
    and never marks or shares the caller's.
    """

    tags: np.ndarray
    gamma: float
    emd_train_test: float
    per_bin_train_share: np.ndarray

    def __post_init__(self):
        tags, share = self.tags, self.per_bin_train_share
        object.__setattr__(self, "tags", owned_readonly(np.asarray(tags, dtype=np.int8), tags))
        object.__setattr__(self, "per_bin_train_share",
                           owned_readonly(np.asarray(share, dtype=np.float64), share))


def largest_remainder(quotas, total: int, caps=None) -> np.ndarray:
    """Round real quotas to nonnegative integers summing to `total`.

    Floors every quota (clamped to [0, caps]), then hands leftover units to
    the largest fractional parts, one unit per index per pass and never above
    its cap. An excess is taken back from the smallest fractional parts the
    same way. Raises when no pass can move. Fractional parts are compared as
    the computed floats `quotas - floors`; of exactly equal ones, the lower
    index gains a unit first and gives one back last. Nominally equal parts
    carry rounding noise (0.9 * 266 and 0.9 * 406 leave 0.4000000000000057
    and 0.4000000000000341), so such a tie can go to the higher index.
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
    while rem != 0:
        # One pass: the first |rem| indices in order that can still move.
        take = order[floors[order] != limit[order]][:abs(rem)]
        if take.size == 0:
            raise ValueError(f"cannot apportion {total} units within the caps")
        floors[take] += step
        rem -= step * take.size
    return floors


def stratified_split(ratios, gamma: float, bin_count: int, seed,
                     train_frac: float = 0.8, val_frac: float = 0.2) -> SplitAssignment:
    """Split nodes by local-homophily bin, moving train mass toward the largest bins.

    The training pool (train plus val) always holds round(train_frac * N) of
    the N nodes with a defined ratio. Its extreme counts e_b fill the bins
    whole in descending count order (ties to the lower index), the last one
    partly, until train_frac * N is reached. Bin b's pool quota is
    (1 - x) * train_frac * n_b + x * e_b with x = 1 - 2**-gamma, so gamma=0
    is a plain stratified split, gamma=inf is the extreme one, and the
    train/test EMD grows as x times the extreme split's, up to rounding.
    Nodes without a defined ratio (NaN) are tagged EXCLUDED. The val set is
    a uniform val_frac subset of the training pool.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.size == 0:
        raise ValueError("ratios must be nonempty")
    if not (0.0 < train_frac < 1.0):
        raise ValueError("train_frac must lie in (0, 1)")
    if not (0.0 <= val_frac < 1.0):
        raise ValueError("val_frac must lie in [0, 1)")
    if not gamma >= 0:
        raise ValueError(f"gamma must be non-negative, got {gamma!r}")
    ids, bins, n_b = defined_bins(ratios, bin_count)

    target = train_frac * ids.size
    order = np.argsort(-n_b, kind="stable")
    extreme = np.empty(bin_count)
    extreme[order] = np.clip(target - (np.cumsum(n_b[order]) - n_b[order]), 0, n_b[order])
    x = 1.0 - 2.0 ** -float(gamma)
    quotas = (1.0 - x) * train_frac * n_b + x * extreme
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
    if n_val == pool.size:
        raise ValueError(f"val_frac {val_frac!r} moves all {pool.size} pool nodes to val, "
                         "leaving no training node")
    pair_emd = emd(HomophilyHistogram(bin_count, pool_counts / pool.size),
                   HomophilyHistogram(bin_count, (n_b - pool_counts) / test_ids.size))
    share = np.divide(pool_counts, n_b, out=np.zeros(bin_count), where=n_b > 0)
    return SplitAssignment(
        tags=tags,
        gamma=float(gamma),
        emd_train_test=float(pair_emd),
        per_bin_train_share=share,
    )


def save_split(assignment: SplitAssignment, path) -> None:
    ends = [f",{name}\n" for name in TAG_NAMES]
    rows = [f"{node}{ends[tag]}" for node, tag in enumerate(assignment.tags.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(["node_id,split\n"] + rows))


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
    """Write `split_diagnostics` as JSON; a NaN or an infinity in it (gamma
    may be inf) raises ValueError before the file is opened."""
    text = json.dumps(split_diagnostics(assignment), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
