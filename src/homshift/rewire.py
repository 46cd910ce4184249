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
decided once per class. A search walks the classes in ascending order and
takes the lowest eligible id among the passing classes of the first gap
that has one, which by the partner rule is the partner.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

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

# Tolerances: a node is on target when gap * degree <= _MOVE_TOL, the dust
# _ceil_tol forgives, so its lower edge-move bound leaves no move; a gate
# passes only if the edit shrinks the potential by more than _GATE_TOL.
_EQ_TOL = 1e-12  # edge_move_bounds: a goal this close to 0 or 1 is at that end
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
    return list(map(NodeGoal, ids.tolist(), h_cur.tolist(), h_goal.tolist(),
                    directions.tolist()))


def _ceil_tol(x: float) -> int:
    """Ceiling robust to float dust, up to _MOVE_TOL, just above an integer."""
    return int(math.ceil(x - _MOVE_TOL))


def edge_move_bounds(h_current: float, h_goal: float, degree: int) -> tuple[int, int]:
    """(lower, upper) edge-move counts to take h_current to h_goal.

    Lower bound: moves needed when each rewire shifts h by exactly 1/degree.
    Upper bound: additions-only count, solving (s + e)/(d + e) = h_goal for
    a raising goal and s/(d + e) = h_goal for a lowering one. Goals of
    exactly 0 or 1 fall back to pure rewiring (upper == lower). A gap whose
    lower bound leaves no move, the dust `_ceil_tol` forgives, gives (0, 0):
    the node is on target, as `_EditState` marks it.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not (0.0 <= h_current <= 1.0 and 0.0 <= h_goal <= 1.0):
        raise ValueError("ratios must lie in [0, 1]")
    gap = abs(h_goal - h_current)
    lower = _ceil_tol(gap * degree)
    if lower == 0:
        return (0, 0)
    if h_current < h_goal:
        upper = lower if h_goal >= 1.0 - _EQ_TOL else _ceil_tol(gap * degree / (1.0 - h_goal))
    else:
        upper = lower if h_goal <= _EQ_TOL else _ceil_tol(gap * degree / h_goal)
    return (lower, upper)


# The phase and op columns of a rewire pair's two records.
_REWIRE_PHASES = ("rewire", "rewire")
_REWIRE_OPS = ("remove", "add")


def _adjacency_sets(g: Graph) -> list[set[int]]:
    """Mutable neighbour sets of g, one per node."""
    ptr = g.indptr.tolist()
    nbrs = g.indices.tolist()
    return [set(nbrs[ptr[v]:ptr[v + 1]]) for v in range(g.node_count)]


def _graph_from_adjacency(adj: list[set[int]]) -> Graph:
    """The graph whose node v has neighbour set adj[v]."""
    degrees = [len(nbrs) for nbrs in adj]
    u = np.repeat(np.arange(len(adj), dtype=np.int64), degrees)
    v = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int64, count=sum(degrees))
    keep = u < v
    return Graph.from_edges(len(adj), np.column_stack((u[keep], v[keep])))


class _PartnerPool:
    """The nodes of one (label, live sign), grouped by filed (gap, add change) key.

    Members that share both floats are interchangeable for a search, so they
    form one class. `keys` holds the distinct class keys in ascending order,
    and `ids[key]` the class's member ids in ascending order; a class that
    empties is dropped. `_EditState._refresh` files and moves the members.
    """

    __slots__ = ("keys", "ids")

    def __init__(self):
        self.ids: dict[tuple[float, float], list[int]] = {}
        self.keys: list[tuple[float, float]] = []

    def first_passing(self, i: int, adj_i: set[int], d_i: float) -> tuple[float, int] | None:
        """The (gap, id)-smallest member, other than i and i's neighbours,
        whose add change passes the gate with d_i; None if there is none.

        A class passes or fails the gate as a whole. The first eligible id of
        a passing class is its lowest, and the classes of the first gap that
        yields a partner are all looked at, so the lowest id at that gap wins.
        """
        below = -_GATE_TOL
        found = None
        for key in self.keys:
            if found is not None and key[0] != found[0]:
                break
            if d_i + key[1] < below:
                for k in self.ids[key]:
                    if k != i and k not in adj_i:
                        if found is None or k < found[1]:
                            found = (key[0], k)
                        break
        return found


class _EditState:
    """Mutable working state of the two edit phases, one loop method each.

    `generate` runs both loops on one state; `rewire_phase` and
    `refine_phase` each build a state for their one loop.

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
    (c, s). An addition at source i with sign s draws its partner from pool
    (label_i, s) when s > 0, and from every pool (c, s) with c != label_i
    when s < 0. Each pool files a live member k under its class key
    filed[k] = (gap, add change), the add change being the change in gap if
    k gained one edge of the kind its own sign wants, in a sorted list of
    distinct keys and a dict from key to the class's ids in ascending
    order. The key is the state's only copy of either float; filed[k] is
    None while k is in no pool. `_refresh` finds v's old class by its
    stored key, without rebuilding it, takes v out, and puts v into its new
    class; this is all of the pool bookkeeping, and only a class that
    appears or empties touches the key list.

    A rewire pair is applied as one update (`attempt_rewire`): i's
    neighbour set swaps j for k, i's degree stays while j's drops and k's
    grows by one, `same` changes for i and for whichever of j and k shares
    i's label, and the log gains both records at once.

    `generate` builds and runs the state with the cyclic garbage collector
    paused (`_collector_paused`). The state's sets and lists, the goals and
    the keys and tuples the loops make hold no reference cycle, so
    reference counting frees all they drop; a collection there would walk
    every live adjacency set and class list and free nothing.
    """

    def __init__(self, g: Graph, t: NodeTable, goals: list[NodeGoal], log: EditLog):
        n = g.node_count
        if len(t) != n:
            raise ValueError("node table does not match graph size")
        deg = g.degrees.astype(np.int64)
        same = same_label_counts(g, t)
        goal = np.full(n, np.nan)
        seen = set()
        for ng in goals:
            if not (0 <= ng.node < n):
                raise ValueError(f"goal for out-of-range node {ng.node}")
            if ng.node in seen:
                raise ValueError(f"duplicate goal for node {ng.node}")
            seen.add(ng.node)
            if ng.direction != 0:
                if deg[ng.node] == 0:
                    raise ValueError(f"node {ng.node} has a move target but is isolated")
                if t.labels[ng.node] < 0:
                    raise ValueError(f"node {ng.node} has a move target but no label")
                if not 0.0 <= ng.h_goal <= 1.0:  # NaN fails too
                    raise ValueError(f"node {ng.node} has goal {ng.h_goal!r} outside [0, 1]")
                goal[ng.node] = ng.h_goal
        act = np.flatnonzero(~np.isnan(goal))

        # Per-node state lives in Python lists: edits read and write single
        # entries, which lists do several times faster than numpy scalars.
        self.labels = t.labels.tolist()
        self.adj = _adjacency_sets(g)
        self.deg = deg.tolist()
        self.same = same.tolist()
        self.goal = goal.tolist()
        self.live = [0] * n
        self.filed: list[tuple[float, float] | None] = [None] * n
        pool_labels = np.unique(t.labels[act]).tolist()
        self._pools = {(c, sign): _PartnerPool() for c in pool_labels for sign in (-1, 1)}
        # The pools an addition at a source of label c and sign s draws from.
        self._candidate_pools = {
            (c, sign): ([self._pools[c, sign]] if sign > 0 else
                        [self._pools[o, sign] for o in pool_labels if o != c])
            for c in pool_labels for sign in (-1, 1)}
        self.log = log
        for v in act.tolist():
            self._refresh(v)

    def _refresh(self, v: int) -> None:
        """Recompute v's sign and, while it is live, its key; move it between
        pools. v has a goal, so degree >= 1."""
        same, deg, goal = self.same[v], self.deg[v], self.goal[v]
        diff = goal - same / deg
        gap = abs(diff)
        s = (1 if diff > 0 else -1) if gap * deg > _MOVE_TOL else 0
        c = self.labels[v]
        old = self.filed[v]
        if old is not None:
            pool = self._pools[c, self.live[v]]
            members = pool.ids.get(old, [])
            idx = bisect.bisect_left(members, v)
            if idx == len(members) or members[idx] != v:
                raise RuntimeError("internal: node missing from its partner pool")
            if len(members) > 1:
                del members[idx]
            else:
                del pool.ids[old]
                del pool.keys[bisect.bisect_left(pool.keys, old)]
        self.live[v] = s
        if s:
            d = abs((same + (s > 0)) / (deg + 1) - goal) - gap
            key = self.filed[v] = (gap, d)
            pool = self._pools[c, s]
            members = pool.ids.get(key)
            if members is None:
                pool.ids[key] = [v]
                bisect.insort(pool.keys, key)
            else:
                bisect.insort(members, v)
        else:
            self.filed[v] = None

    def _best_partner(self, i: int, s: int, d_i: float) -> int:
        """Partner for one edge addition at source i; -1 if none passes.

        Candidates are the non-adjacent nodes with a goal that move in direction
        s and share i's label (s > 0) or differ from it (s < 0). A candidate
        k passes when d_i (i's change) plus k's own change is below
        -_GATE_TOL, summed in that order. Of the passing candidates,
        the one with the smallest gap wins, ties to the lower id. With
        several pools (s < 0 and three or more labels) each pool's first
        passing key is found, and the smallest of them wins.
        """
        best = None
        for pool in self._candidate_pools[self.labels[i], s]:
            key = pool.first_passing(i, self.adj[i], d_i)
            if key is not None and (best is None or key < best):
                best = key
        return -1 if best is None else best[1]

    def attempt_rewire(self, i: int) -> bool:
        """One paired remove+add on source i; returns False if none is valid.

        The addition gate depends on i's counts after the removal, not on
        which neighbour j is removed, so the partner k is searched for
        before any neighbour is looked at, and no j could succeed where k
        is not found. The removed neighbour j is the best gate-passing one
        by the partner rule.

        Both are picked from the state before the edit, so the pair is
        applied as one update of adj, deg, same and the log, and then i, j
        and k are refreshed once each; j != k, since j is a neighbour of i
        and k is not.
        """
        s = self.live[i]
        if s == 0 or self.deg[i] <= 1:
            return False
        want_diff = s > 0  # raising h removes heterophilous edges
        eq_rm = 0 if want_diff else 1
        same_i2 = self.same[i] - eq_rm
        deg_i2 = self.deg[i] - 1
        goal_i = self.goal[i]
        eq_add = 1 if s > 0 else 0
        gap_i2 = abs(same_i2 / deg_i2 - goal_i)
        d_add_i = abs((same_i2 + eq_add) / (deg_i2 + 1) - goal_i) - gap_i2
        k = self._best_partner(i, s, d_add_i)
        if k < 0:
            return False
        d_rm_i = gap_i2 - self.filed[i][0]
        label_i = self.labels[i]
        best = None
        for j in self.adj[i]:
            if (self.live[j] != s or self.deg[j] <= 1
                    or (self.labels[j] != label_i) != want_diff):
                continue
            gap_j = self.filed[j][0]
            d_j = abs((self.same[j] - eq_rm) / (self.deg[j] - 1) - self.goal[j]) - gap_j
            if d_rm_i + d_j < -_GATE_TOL and (best is None or (gap_j, j) < best):
                best = (gap_j, j)
        if best is None:
            return False
        j = best[1]
        adj, deg, same, log = self.adj, self.deg, self.same, self.log
        adj_i = adj[i]
        if j not in adj_i:
            raise RuntimeError("internal: removing missing edge")
        if k in adj_i or k == i:
            raise RuntimeError("internal: adding duplicate or self edge")
        adj_i.remove(j)
        adj[j].remove(i)
        adj_i.add(k)
        adj[k].add(i)
        deg[j] -= 1
        deg[k] += 1
        # i's degree is unchanged. Raising h, k shares i's label and j does
        # not; lowering it, j does and k does not.
        if want_diff:
            same[k] += 1
        else:
            same[j] -= 1
        same[i] = same_i2 + eq_add
        log.phases += _REWIRE_PHASES
        log.ops += _REWIRE_OPS
        log.us += (i, i)
        log.vs += (j, k)
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
        adj_i = self.adj[i]
        if k in adj_i or k == i:
            raise RuntimeError("internal: adding duplicate or self edge")
        adj_i.add(k)
        self.adj[k].add(i)
        self.deg[i] += 1
        self.deg[k] += 1
        if s > 0:  # k shares i's label
            self.same[i] += 1
            self.same[k] += 1
        self.log.append("refine", "add", i, k)
        self._refresh(i)
        self._refresh(k)
        return True

    def run_rewire(self, seed) -> None:
        """The rewire phase's loop (see `rewire_phase`), logged as "rewire"."""
        rng = np.random.default_rng(seed)
        # The sources are the nodes with a goal and a direction, in id order.
        for i in rng.permutation(np.flatnonzero(~np.isnan(self.goal))).tolist():
            while self.live[i] and self.attempt_rewire(i):
                pass

    def run_refine(self, seed) -> None:
        """The refine phase's loop (see `refine_phase`), logged as "refine"."""
        rng = np.random.default_rng(seed)
        while True:
            off_target = np.flatnonzero(self.live)
            if off_target.size == 0:
                break
            applied = False
            for i in rng.permutation(off_target).tolist():
                while self.live[i] != 0 and self.attempt_refine(i):
                    applied = True
            if not applied:
                break

    def finish(self) -> Graph:
        return _graph_from_adjacency(self.adj)


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
    state = _EditState(g, t, goals, _phase_log(log, seed))
    state.run_rewire(seed)
    return state.finish(), state.log


def refine_phase(g: Graph, t: NodeTable, goals: list[NodeGoal], seed,
                 log: EditLog | None = None) -> tuple[Graph, EditLog]:
    """Addition-only cleanup for nodes rewiring could not finish.

    Sweeps off-target nodes, those whose lower edge-move bound leaves a
    move, in seeded random order, adding mutually beneficial edges until no
    beneficial pair remains. Each addition is within the additions-only
    upper bound at the node's current state, which is never below the lower.
    """
    state = _EditState(g, t, goals, _phase_log(log, seed))
    state.run_refine(seed)
    return state.finish(), state.log


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
    # state's sets and lists are freed and no longer count as new objects.
    with _collector_paused():
        return _generate(g, t, goal, bin_count, seed)


def _generate(g: Graph, t: NodeTable, goal: BetaGoal, bin_count: int,
              seed) -> tuple[Graph, EditLog, GenerationReport]:
    ratios = local_homophily_all(g, t)
    source_hist = defined_histogram(ratios, bin_count)
    goal_hist = beta_goal_histogram(goal, bin_count)
    plan = transport_plan(source_hist, goal_hist)
    seed_assign, seed_rewire, seed_refine = np.random.SeedSequence(seed).spawn(3)
    goals = assign_node_goals(plan, ratios, bin_count, seed_assign)
    log = EditLog(header={
        "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
        "alpha": goal.alpha,
        "beta": goal.beta,
        "bins": bin_count,
    })
    # One state serves both phases: the state the rewire phase ends in is
    # what refine_phase would build from the rewired graph, pools included.
    state = _EditState(g, t, goals, log)
    state.run_rewire(seed_rewire)
    n_rewire = len(log)
    state.run_refine(seed_refine)
    g_final = state.finish()
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
