"""Transport-guided graph rewiring toward a goal homophily distribution.

The pipeline: bin the empirical local-homophily ratios, solve the 1-D
optimal transport to a Beta-parameterized goal histogram, hand every node a
target bin center, then edit edges in two phases. The rewire phase swaps a
source's edge to a neighbour j for one to a partner k: the source keeps its
degree, j loses an edge and k gains one. The refine phase only adds edges.
Every single edit must strictly shrink the total distance sum
|h_v - h_goal_v| over nodes with targets, which guarantees termination and
makes the edit log a monotone certificate.

Partner rule: among the partners that pass the gate, an edit takes the one
with the smallest remaining gap |h - goal|, ties to the lower node id. A
rewire picks both the removed neighbour and the added partner this way;
the addition gate does not depend on which neighbour is removed.

Partner search never builds an O(n) candidate mask. The possible partners
sit in pools, one per (label, move direction), kept up to date edit by
edit (see `_EditState`). A pool groups its members into classes that share
both the gap and the change an added edge would make, so the gate is
decided once per class, and it keeps a lower bound on its classes' add
changes, so a pool where no class can pass is skipped whole. One search,
`_EditState._best_partner`, walks the classes of every pool an addition
draws from in ascending order under one bound, the best (gap, id) found so
far, and so applies the partner rule. The state reaches a node's class
through a handle it stores per node, and a label's pools through a tuple
indexed by sign, so no edit builds a (label, sign) key.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .editlog import EditLog, _collector_paused
from .graph import Graph, NodeTable
from .homophily import (
    BetaGoal,
    HomophilyHistogram,
    beta_goal_histogram,
    defined_bins,
    defined_histogram,
    emd,
    local_homophily_all,
    same_label_counts,
)
from .splits import largest_remainder

# Tolerances: a node is on target when gap * degree <= _MOVE_TOL, float dust
# short of one whole edge move; a gate passes only if the edit shrinks the
# potential by more than _GATE_TOL.
_MOVE_TOL = 1e-9
_GATE_TOL = 1e-12


@dataclass(frozen=True)
class TransportPlan:
    """b x b nonnegative matrix; row i says where bin-i node mass goes."""

    bin_count: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (self.bin_count, self.bin_count):
            raise ValueError("transport matrix shape must be (b, b)")
        if np.any(m < -1e-12):
            raise ValueError("transport matrix entries must be non-negative")
        m = np.clip(m, 0.0, None)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class NodeGoal:
    """A node's current ratio, its target bin center, and the move direction."""

    node: int
    h_current: float
    h_goal: float
    direction: int


def transport_plan(p: HomophilyHistogram, q: HomophilyHistogram) -> TransportPlan:
    """Optimal transport from p to q under the |center_i - center_j| cost.

    Uses the monotone coupling, which is exactly optimal for convex 1-D
    costs: cell (i, j) holds the overlap of bin i's interval of p's CDF with
    bin j's interval of q's CDF. Diagonal mass is left in place.
    """
    if p.bin_count != q.bin_count:
        raise ValueError("histograms must share a bin count")
    cp = np.concatenate(([0.0], np.cumsum(p.mass)))
    cq = np.concatenate(([0.0], np.cumsum(q.mass)))
    plan = np.minimum.outer(cp[1:], cq[1:]) - np.maximum.outer(cp[:-1], cq[:-1])
    plan = np.maximum(plan, 0.0)
    if (np.abs(plan.sum(axis=1) - p.mass).max() > 1e-9
            or np.abs(plan.sum(axis=0) - q.mass).max() > 1e-9):
        raise RuntimeError("transport plan marginals drifted beyond 1e-9")
    return TransportPlan(p.bin_count, plan)


def assign_node_goals(plan: TransportPlan, ratios, bin_count: int, seed) -> list[NodeGoal]:
    """Give every binnable node a target bin per the transport plan.

    Within each source bin the (seeded) shuffled nodes are partitioned into
    target bins with largest-remainder counts, so cell counts match the plan
    as closely as integers allow. Nodes kept in their own bin get direction
    0 and are never edited. Returns goals sorted by node id.
    """
    ids, h_cur, h_goal, directions = _assign_goals(plan, ratios, bin_count, seed)
    return list(map(NodeGoal, ids.tolist(), h_cur.tolist(), h_goal.tolist(),
                    directions.tolist()))


def _assign_goals(plan: TransportPlan, ratios, bin_count: int, seed):
    """`assign_node_goals` as arrays: the node ids, their current ratios,
    their goals and their directions, by ascending node id."""
    if plan.bin_count != bin_count:
        raise ValueError("plan bin count does not match b")
    ids, bins, bin_sizes = defined_bins(ratios, bin_count)
    row_mass = plan.matrix.sum(axis=1)
    if np.abs(row_mass - bin_sizes / ids.size).max() > 1e-6:
        raise ValueError("transport plan is inconsistent with the ratio histogram")
    rng = np.random.default_rng(seed)
    # targets[k] is the target bin of node ids[k]
    targets = np.empty(ids.size, dtype=np.int64)
    for i in np.flatnonzero(bin_sizes).tolist():
        n_i = int(bin_sizes[i])
        row_sum = float(row_mass[i])
        if row_sum <= 0:
            raise ValueError(f"plan row {i} is empty but bin {i} holds {n_i} nodes")
        counts = largest_remainder(plan.matrix[i] / row_sum * n_i, n_i)
        targets[rng.permutation(np.flatnonzero(bins == i))] = np.repeat(
            np.arange(bin_count), counts)
    h_cur = np.asarray(ratios, dtype=np.float64)[ids]
    h_goal = (targets + 0.5) / bin_count
    directions = np.where(targets == bins, 0, np.where(h_goal > h_cur, 1, -1))
    return ids, h_cur, h_goal, directions


def _goal_arrays(goals: list[NodeGoal]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node ids, goals and directions of `goals`, as arrays in list order."""
    return (np.array([ng.node for ng in goals], dtype=np.int64),
            np.array([ng.h_goal for ng in goals], dtype=np.float64),
            np.array([ng.direction for ng in goals], dtype=np.int64))


def _adjacency_lists(g: Graph, ids: np.ndarray) -> list[list[int]]:
    """Mutable ascending neighbour lists of g, one per node, holding the int
    objects of `ids`, the object array whose entry v is node id v. They are
    slices of the CSR's rows, which are sorted already."""
    ptr, indices = g._csr()
    nbrs = ids[indices].tolist()
    del indices
    ptr = ptr.tolist()
    return [nbrs[ptr[v]:ptr[v + 1]] for v in range(g.node_count)]


def _check_goals(nodes: np.ndarray, h_goal: np.ndarray, direction: np.ndarray,
                 deg: np.ndarray, labels: np.ndarray) -> None:
    """Refuse goals an edit state cannot take, naming the first bad goal in
    list order and, for that goal, the first of its checks that fails.

    Every goal needs a node in range and not named before; a goal with a
    move target also needs its node to have an edge and a label, and its
    goal ratio to lie in [0, 1] (NaN fails).
    """
    in_range = (nodes >= 0) & (nodes < deg.size)
    inside = nodes[in_range]
    first = np.zeros(nodes.size, dtype=bool)
    first[np.unique(nodes, return_index=True)[1]] = True
    isolated = np.zeros(nodes.size, dtype=bool)
    isolated[in_range] = deg[inside] == 0
    unlabeled = np.zeros(nodes.size, dtype=bool)
    unlabeled[in_range] = labels[inside] < 0
    moving = direction != 0
    bad = np.stack((~in_range, ~first, moving & isolated, moving & unlabeled,
                    moving & ~((h_goal >= 0.0) & (h_goal <= 1.0))))
    if not bad.any():
        return
    k = int(np.flatnonzero(bad.any(axis=0))[0])
    node = int(nodes[k])
    raise ValueError((
        f"goal for out-of-range node {node}",
        f"duplicate goal for node {node}",
        f"node {node} has a move target but is isolated",
        f"node {node} has a move target but no label",
        f"node {node} has goal {float(h_goal[k])!r} outside [0, 1]",
    )[int(np.argmax(bad[:, k]))])


class _EditState:
    """Mutable working state of the two edit phases, one loop method each.

    `generate` runs both loops on one state; `rewire_phase` and
    `refine_phase` each build a state for their one loop. The goals come as
    three arrays in list order: node ids, goal ratios and directions.

    `_refresh` alone decides whether a node is live, by one rule: a node is
    on target when its lower edge-move bound leaves no move (gap * degree
    <= _MOVE_TOL, gap = |goal - h|), and live with the sign of goal - h
    otherwise. Its additions-only upper bound divides the same gap * degree
    by 1 - goal or goal, both in (0, 1], or equals the lower bound at a
    goal of 0 or 1, so it leaves a move whenever the lower one does.
    `__init__` calls `_refresh` for each node with a goal, in id order,
    which also fills the pools; a node without a goal keeps live 0. After
    an edit it runs once per endpoint, after all of a move's edits: after
    a refine addition on (i, k), and after both edits of a rewire pair on
    i, j and k, since no pool is read between the pair's removal and its
    addition.

    Partner pools. The live nodes with sign s and label c form the pool
    _pools[c][s]: each label's entry is a tuple indexed by sign, whose
    entry 0 is None since a node of sign 0 is in no pool. The pools an
    addition draws from sit the same way in _candidate_pools[c][s] (see
    `_best_partner`). A live member k is filed under its class key
    filed[k] = (gap, add change), the add change being the change in gap if
    k gained one edge of the kind its own sign wants; members that share
    both floats are interchangeable and form one class. A pool is the list
    [keys, ids, bound]: keys lists its distinct class keys in ascending
    order, ids[key] the class's member ids in ascending order, and bound is
    at most the least add change among its classes (inf while it never had
    one); a class that empties is dropped. The key is the state's only copy
    of either float; filed[k] is None while k is in no pool, and
    class_of[k] is then None too and otherwise the very list ids[filed[k]].
    `_refresh` takes v out of its old class through class_of[v], and puts v
    into its new class; this is all of the pool bookkeeping. Only a class
    that appears or empties touches the key list, and only one that appears
    can lower the bound; `_best_partner` raises it back to the exact least
    add change when it walks a whole pool and finds no partner there.

    Every log record is one `_edit` call, the only code after `__init__`
    that changes adj, deg or same. A rewire pair is a removal (i, j), then
    an addition (i, k): i's degree drops by one and comes back. So the
    records a state appended, replayed onto its input graph, give the graph
    its neighbour lists hold; that replay builds each phase's result
    (`_replayed`). adj[v] lists v's neighbours in ascending order, so an
    edit finds an edge's slot, and a search tests a neighbour, by bisection.

    `generate` builds and runs the state with the cyclic garbage collector
    paused (`_collector_paused`). The state's lists, the goals and the keys
    and tuples the loops make hold no reference cycle, so reference
    counting frees all they drop; a collection there would walk every live
    neighbour list and class list and free nothing.
    """

    def __init__(self, g: Graph, t: NodeTable, nodes: np.ndarray, h_goal: np.ndarray,
                 direction: np.ndarray, log: EditLog):
        n = g.node_count
        if len(t) != n:
            raise ValueError("node table does not match graph size")
        deg = g.degrees.astype(np.int64)
        same = same_label_counts(g, t)
        _check_goals(nodes, h_goal, direction, deg, t.labels)
        moving = direction != 0
        goal = np.full(n, np.nan)
        goal[nodes[moving]] = h_goal[moving]
        act = np.flatnonzero(~np.isnan(goal))

        # Per-node state lives in Python lists: edits read and write single
        # entries, which lists do several times faster than numpy scalars.
        # Every node id the state holds (in the neighbour lists, the pools,
        # the source orders and so the log) is taken from `ids`, so each id is
        # one int object however many places hold it.
        self.ids = np.arange(n, dtype=object)
        self.labels = t.labels.tolist()
        self.adj = _adjacency_lists(g, self.ids)
        self.deg = deg.tolist()
        self.same = same.tolist()
        self.goal = goal.tolist()
        self.live = [0] * n
        self.filed: list[tuple[float, float] | None] = [None] * n
        self.class_of: list[list[int] | None] = [None] * n
        pool_labels = np.unique(t.labels[act]).tolist()
        self._pools = {c: (None, [[], {}, math.inf], [[], {}, math.inf]) for c in pool_labels}
        self._candidate_pools = {
            c: (None, [self._pools[c][1]], [self._pools[o][-1] for o in pool_labels if o != c])
            for c in pool_labels}
        self.log = log
        for v in self.ids[act].tolist():
            self._refresh(v)

    def _refresh(self, v: int) -> None:
        """Recompute v's sign and, while it is live, its key; move it between
        classes. v has a goal, so degree >= 1.

        v leaves its old class through class_of[v]; the class's pool is
        looked up only when v was its last member. A new class lowers its
        pool's bound to its add change when that is lower.
        """
        same, deg, goal = self.same[v], self.deg[v], self.goal[v]
        diff = goal - same / deg
        gap = abs(diff)
        s = (1 if diff > 0 else -1) if gap * deg > _MOVE_TOL else 0
        members = self.class_of[v]
        if members is not None:
            idx = bisect.bisect_left(members, v)
            if idx == len(members) or members[idx] != v:
                raise RuntimeError("internal: node missing from its partner pool")
            if len(members) > 1:
                del members[idx]
            else:
                keys, ids, _ = self._pools[self.labels[v]][self.live[v]]
                old = self.filed[v]
                del ids[old]
                del keys[bisect.bisect_left(keys, old)]
        self.live[v] = s
        if s:
            d = abs((same + (s > 0)) / (deg + 1) - goal) - gap
            key = self.filed[v] = (gap, d)
            pool = self._pools[self.labels[v]][s]
            ids = pool[1]
            members = ids.get(key)
            if members is None:
                members = ids[key] = [v]
                bisect.insort(pool[0], key)
                if d < pool[2]:
                    pool[2] = d
            else:
                bisect.insort(members, v)
            self.class_of[v] = members
        else:
            self.filed[v] = self.class_of[v] = None

    def _best_partner(self, i: int, s: int, d_i: float) -> int:
        """Partner for one edge addition at source i by the partner rule; -1
        if none passes.

        The candidates are the live nodes of sign s, other than i and its
        neighbours, that share i's label (s > 0) or differ from it (s < 0);
        they sit in the pools `_candidate_pools[label_i][s]`. A candidate k
        passes when d_i (i's change) plus k's add change is below -_GATE_TOL,
        summed in that order, so a class passes or fails as a whole. A pool
        whose bound fails that test is skipped: float addition is monotone,
        so no class of it can pass. The other pools are walked in order and
        each pool's keys ascending; a pool's walk stops at the first key
        whose gap is greater than that of the best (gap, id) found so far in
        any pool. A passing class offers its first id that is neither i nor
        a neighbour of i, its lowest eligible one, and that id becomes the
        best when its (gap, id) is smaller. A pool walked to its end without
        a new best gets its exact least add change as its bound.
        """
        adj_i = self.adj[i]
        n_adj = len(adj_i)
        below = -_GATE_TOL
        found = None
        for pool in self._candidate_pools[self.labels[i]][s]:
            keys, ids, bound = pool
            if not d_i + bound < below:
                continue
            before = found
            for key in keys:
                if found is not None and key[0] > found[0]:
                    break
                if d_i + key[1] < below:
                    for k in ids[key]:
                        if k == i:
                            continue
                        at = bisect.bisect_left(adj_i, k)
                        if at == n_adj or adj_i[at] != k:
                            if found is None or (key[0], k) < found:
                                found = (key[0], k)
                            break
            else:
                if found is before:
                    pool[2] = min(map(itemgetter(1), keys), default=math.inf)
        return -1 if found is None else found[1]

    def _edit(self, phase: str, op: str, i: int, v: int, agree: bool) -> None:
        """Remove or add edge (i, v) and append its record, with the
        arguments of `EditLog.append` plus `agree`.

        Both endpoints' neighbour lists and degrees change, and their `same`
        counts too when `agree` (i and v share a label). The edge is checked
        before anything changes: a removal needs it present, an addition
        needs it absent and i != v. v's slot in adj[i] is found once, by
        bisection, for the check and the change.
        """
        adj_i, adj_v = self.adj[i], self.adj[v]
        at = bisect.bisect_left(adj_i, v)
        present = at < len(adj_i) and adj_i[at] == v
        if op == "remove":
            if not present:
                raise RuntimeError("internal: removing missing edge")
            del adj_i[at]
            del adj_v[bisect.bisect_left(adj_v, i)]
            step = -1
        else:
            if present or v == i:
                raise RuntimeError("internal: adding duplicate or self edge")
            adj_i.insert(at, v)
            bisect.insort(adj_v, i)
            step = 1
        self.deg[i] += step
        self.deg[v] += step
        if agree:
            self.same[i] += step
            self.same[v] += step
        self.log.append(phase, op, i, v)

    def _removals(self, i: int) -> list[tuple[float, int, float]]:
        """The neighbours a rewire at source i, under its sign s, may remove,
        as (gap_j, j, d_j) in ascending order; d_j is the change in j's gap
        that losing the edge makes.

        They are i's live neighbours j of sign s with degree above 1 whose
        edge to i has the kind i sheds: cross-label when s > 0, same-label
        when s < 0. Inside one source's rewire loop only i, the removed j and
        the added k change, so the list stays exact while i keeps sign s once
        each removed j is deleted from it. An added k never belongs on it:
        its edge to i has the kind i gains under s.
        """
        s = self.live[i]
        want_diff = s > 0  # raising h removes heterophilous edges
        eq_rm = 0 if want_diff else 1
        label_i = self.labels[i]
        removals = []
        for j in self.adj[i]:
            if (self.live[j] != s or self.deg[j] <= 1
                    or (self.labels[j] != label_i) != want_diff):
                continue
            gap_j = self.filed[j][0]
            d_j = abs((self.same[j] - eq_rm) / (self.deg[j] - 1) - self.goal[j]) - gap_j
            removals.append((gap_j, j, d_j))
        removals.sort()
        return removals

    def attempt_rewire(self, i: int, removals: list[tuple[float, int, float]]) -> bool:
        """One paired remove+add on source i; returns False if none is valid.

        `removals` is `_removals(i)` for i's current sign, less the
        neighbours earlier pairs under that sign removed. The removed
        neighbour j is its first entry that passes the removal gate, the
        best gate-passing one by the partner rule; it is deleted from
        `removals` when the pair fires. The addition gate depends on i's
        counts after the removal, not on which neighbour j is removed, so
        the partner k is searched for once, after some j passes.

        Both are picked from the state before the edit. The pair is then two
        `_edit` calls on i, the removal of j and then the addition of k, and
        i, j and k are refreshed once each. j != k, since j is a neighbour of
        i and k is not.
        """
        s = self.live[i]
        if s == 0 or self.deg[i] <= 1:
            return False
        want_diff = s > 0  # raising h removes heterophilous edges
        eq_rm = 0 if want_diff else 1
        same_i2 = self.same[i] - eq_rm
        deg_i2 = self.deg[i] - 1
        goal_i = self.goal[i]
        gap_i2 = abs(same_i2 / deg_i2 - goal_i)
        d_rm_i = gap_i2 - self.filed[i][0]
        below = -_GATE_TOL
        for at, (_, j, d_j) in enumerate(removals):
            if d_rm_i + d_j < below:
                break
        else:
            return False
        eq_add = 1 if s > 0 else 0
        d_add_i = abs((same_i2 + eq_add) / (deg_i2 + 1) - goal_i) - gap_i2
        k = self._best_partner(i, s, d_add_i)
        if k < 0:
            return False
        del removals[at]
        self._edit("rewire", "remove", i, j, not want_diff)
        self._edit("rewire", "add", i, k, want_diff)
        self._refresh(i)
        self._refresh(j)
        self._refresh(k)
        return True

    def attempt_refine(self, i: int) -> bool:
        """One beneficial edge addition at node i; False if none is valid."""
        s = self.live[i]
        if s == 0:
            return False
        k = self._best_partner(i, s, self.filed[i][1])
        if k < 0:
            return False
        self._edit("refine", "add", i, k, s > 0)
        self._refresh(i)
        self._refresh(k)
        return True

    def run_rewire(self, seed) -> None:
        """The rewire phase's loop (see `rewire_phase`), logged as "rewire"."""
        rng = np.random.default_rng(seed)
        # The sources are the nodes with a goal and a direction, in id order.
        for i in self.ids[rng.permutation(np.flatnonzero(~np.isnan(self.goal)))].tolist():
            sign = 0
            while self.live[i]:
                if self.live[i] != sign:  # a new sign sheds another kind of edge
                    sign = self.live[i]
                    removals = self._removals(i)
                if not self.attempt_rewire(i, removals):
                    break

    def run_refine(self, seed) -> None:
        """The refine phase's loop (see `refine_phase`), logged as "refine"."""
        rng = np.random.default_rng(seed)
        while True:
            off_target = np.flatnonzero(self.live)
            if off_target.size == 0:
                break
            applied = False
            for i in self.ids[rng.permutation(off_target)].tolist():
                while self.live[i] != 0 and self.attempt_refine(i):
                    applied = True
            if not applied:
                break


def _replayed(g: Graph, t: NodeTable, log: EditLog, start: int, deg: list[int],
              same: list[int]) -> Graph:
    """The graph the edit state that appended `log`'s records from seq
    `start` on ends with: `g` with those records replayed onto it. The
    caller drops the state first, so its neighbour lists are gone by then.
    The state's own degree and same-label counts `deg` and `same`, kept
    edit by edit, must equal the result's.
    """
    result = log.replay(g, start)
    if not np.array_equal(result.degrees, deg):
        raise RuntimeError("internal: the replayed degrees differ from the edit state's")
    if not np.array_equal(same_label_counts(result, t), same):
        raise RuntimeError("internal: the replayed same-label counts differ from the edit state's")
    return result


def _one_phase(g: Graph, t: NodeTable, goals: list[NodeGoal], log: EditLog, run,
               seed) -> Graph:
    """The graph one phase's loop `run` (an `_EditState` method) leaves."""
    start = len(log)
    state = _EditState(g, t, *_goal_arrays(goals), log)
    run(state, seed)
    deg, same = state.deg, state.same
    del state
    return _replayed(g, t, log, start, deg, same)


def _phase_log(log: EditLog | None, seed) -> EditLog:
    if log is not None:
        return log
    header = {"seed": int(seed)} if isinstance(seed, (int, np.integer)) else {}
    return EditLog(header=header)


def rewire_phase(g: Graph, t: NodeTable, goals: list[NodeGoal], seed,
                 log: EditLog | None = None) -> tuple[Graph, EditLog]:
    """Paired remove+add edits toward per-node targets.

    A pair keeps the source's degree; the removed neighbour loses an edge
    and the added partner gains one.

    Sources are visited once in seeded random order; each gets paired edits
    while its lower edge-move bound leaves a move and a pair passes the
    gate. An edit fires only when the removal and the addition each
    strictly shrink the summed goal distance of their endpoints, so every
    log record lowers the potential.
    """
    log = _phase_log(log, seed)
    return _one_phase(g, t, goals, log, _EditState.run_rewire, seed), log


def refine_phase(g: Graph, t: NodeTable, goals: list[NodeGoal], seed,
                 log: EditLog | None = None) -> tuple[Graph, EditLog]:
    """Addition-only cleanup for nodes rewiring could not finish.

    Sweeps off-target nodes, those whose lower edge-move bound leaves a
    move, in seeded random order, adding mutually beneficial edges until no
    beneficial pair remains. Each addition is within the additions-only
    upper bound at the node's current state, which is never below the lower.
    """
    log = _phase_log(log, seed)
    return _one_phase(g, t, goals, log, _EditState.run_refine, seed), log


@dataclass(frozen=True)
class GenerationReport:
    """Summary of one generate() run.

    edits_rewire counts paired remove+add edits (two log records each);
    edits_refine counts single additions. degree_delta_histogram maps the
    per-node degree change to how many nodes experienced it.
    """

    emd_original_goal: float
    emd_generated_goal: float
    edits_rewire: int
    edits_refine: int
    degree_delta_histogram: dict[int, int]


def generate(g: Graph, t: NodeTable, goal: BetaGoal, bin_count: int,
             seed) -> tuple[Graph, EditLog, GenerationReport]:
    """Rewire `g` so its local-homophily histogram approaches the Beta goal."""
    # The collector resumes once _generate has returned, when the edit
    # state's lists are freed and no longer count as new objects.
    with _collector_paused():
        return _generate(g, t, goal, bin_count, seed)


def _generate(g: Graph, t: NodeTable, goal: BetaGoal, bin_count: int,
              seed) -> tuple[Graph, EditLog, GenerationReport]:
    ratios = local_homophily_all(g, t)
    source_hist = defined_histogram(ratios, bin_count)
    goal_hist = beta_goal_histogram(goal, bin_count)
    plan = transport_plan(source_hist, goal_hist)
    seed_assign, seed_rewire, seed_refine = np.random.SeedSequence(seed).spawn(3)
    nodes, _, h_goal, direction = _assign_goals(plan, ratios, bin_count, seed_assign)
    log = EditLog(header={
        "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
        "alpha": goal.alpha,
        "beta": goal.beta,
        "bins": bin_count,
    })
    # One state serves both phases: the state the rewire phase ends in is
    # what refine_phase would build from the rewired graph, pools included.
    state = _EditState(g, t, nodes, h_goal, direction, log)
    state.run_rewire(seed_rewire)
    n_rewire = len(log)
    state.run_refine(seed_refine)
    deg, same = state.deg, state.same
    del state
    g_final = _replayed(g, t, log, 0, deg, same)
    final_hist = defined_histogram(local_homophily_all(g_final, t), bin_count)
    values, counts = np.unique(g_final.degrees - g.degrees, return_counts=True)
    report = GenerationReport(
        emd_original_goal=emd(source_hist, goal_hist),
        emd_generated_goal=emd(final_hist, goal_hist),
        edits_rewire=n_rewire // 2,
        edits_refine=len(log) - n_rewire,
        degree_delta_histogram=dict(zip(values.tolist(), counts.tolist())),
    )
    return g_final, log, report
