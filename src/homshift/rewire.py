"""Transport-guided graph rewiring toward a goal homophily distribution.

The pipeline: bin the empirical local-homophily ratios, solve the 1-D
optimal transport to a Beta-parameterized goal histogram, hand every node a
target bin center, then edit edges in two phases. The rewire phase performs
degree-preserving remove+add pairs on each source node; the refine phase
only adds edges. Every single edit must strictly shrink the total distance
sum |h_v - h_goal_v| over nodes with targets, which guarantees termination
and makes the edit log a monotone certificate.

Partner rule: among the partners that pass the gate, an edit takes the one
with the smallest remaining gap |h - goal|, ties to the lower node id. A
rewire first picks the removed neighbour this way, then the added partner;
the addition gate does not depend on which neighbour was removed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, NodeTable
from .homophily import (
    BetaGoal,
    HomophilyHistogram,
    beta_goal_histogram,
    bin_index,
    defined_histogram,
    emd,
    local_homophily_all,
    same_label_counts,
)
from .splits import largest_remainder

# Tolerances: _EQ_TOL decides "on target"; a gate passes only if the edit
# shrinks the potential by more than _GATE_TOL (strict improvement).
_EQ_TOL = 1e-12
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

    Uses the monotone (north-west-corner on sorted bins) coupling, which is
    exactly optimal for convex 1-D costs. Diagonal mass is left in place.
    """
    if p.bin_count != q.bin_count:
        raise ValueError("histograms must share a bin count")
    b = p.bin_count
    remaining = p.mass.copy()
    need = q.mass.copy()
    plan = np.zeros((b, b))
    i = j = 0
    while i < b and j < b:
        moved = min(remaining[i], need[j])
        if moved > 0:
            plan[i, j] += moved
            remaining[i] -= moved
            need[j] -= moved
        done_i = remaining[i] <= 1e-15
        done_j = need[j] <= 1e-15
        if done_i and done_j:
            i += 1
            j += 1
        elif done_i:
            i += 1
        elif done_j:
            j += 1
        else:  # both positive yet min()==0 is impossible; defensive only
            raise RuntimeError("transport coupling stalled")
    if (np.abs(plan.sum(axis=1) - p.mass).max() > 1e-9
            or np.abs(plan.sum(axis=0) - q.mass).max() > 1e-9):
        raise RuntimeError("transport plan marginals drifted beyond 1e-9")
    return TransportPlan(b, plan)


def assign_node_goals(plan: TransportPlan, ratios, bin_count: int, seed) -> list[NodeGoal]:
    """Give every binnable node a target bin per the transport plan.

    Within each source bin the (seeded) shuffled nodes are partitioned into
    target bins with largest-remainder counts, so cell counts match the plan
    as closely as integers allow. Nodes kept in their own bin get direction
    0 and are never edited. Returns goals sorted by node id.
    """
    if plan.bin_count != bin_count:
        raise ValueError("plan bin count does not match b")
    ratios = np.asarray(ratios, dtype=np.float64)
    valid = ~np.isnan(ratios)
    ids = np.flatnonzero(valid)
    if ids.size == 0:
        raise ValueError("no node has a defined ratio")
    bins = bin_index(ratios[ids], bin_count)
    n_total = ids.size
    bin_mass = np.bincount(bins, minlength=bin_count) / n_total
    row_mass = plan.matrix.sum(axis=1)
    if np.abs(row_mass - bin_mass).max() > 1e-6:
        raise ValueError("transport plan is inconsistent with the ratio histogram")
    centers = (np.arange(bin_count) + 0.5) / bin_count
    rng = np.random.default_rng(seed)
    goals: list[NodeGoal] = []
    for i in range(bin_count):
        members = ids[bins == i]
        n_i = members.size
        if n_i == 0:
            continue
        row_sum = float(row_mass[i])
        if row_sum <= 0:
            raise ValueError(f"plan row {i} is empty but bin {i} holds {n_i} nodes")
        counts = largest_remainder(plan.matrix[i] / row_sum * n_i, n_i)
        perm = rng.permutation(members)
        pos = 0
        for j in range(bin_count):
            for node in perm[pos:pos + counts[j]]:
                h_cur = float(ratios[node])
                if j == i:
                    direction = 0
                else:
                    direction = 1 if centers[j] > h_cur else -1
                goals.append(NodeGoal(int(node), h_cur, float(centers[j]), direction))
            pos += counts[j]
    goals.sort(key=lambda ng: ng.node)
    return goals


def _ceil_tol(x: float) -> int:
    """Ceiling robust to float dust just above an integer."""
    return int(math.ceil(x - 1e-9))


def edge_move_bounds(h_current: float, h_goal: float, degree: int) -> tuple[int, int]:
    """(lower, upper) edge-move counts to take h_current to h_goal.

    Lower bound: moves needed when each rewire shifts h by exactly 1/degree.
    Upper bound: additions-only count, solving (s + e)/(d + e) = h_goal for
    a raising goal and s/(d + e) = h_goal for a lowering one. Goals of
    exactly 0 or 1 fall back to pure rewiring (upper == lower).
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not (0.0 <= h_current <= 1.0 and 0.0 <= h_goal <= 1.0):
        raise ValueError("ratios must lie in [0, 1]")
    gap = abs(h_goal - h_current)
    if gap <= _EQ_TOL:
        return (0, 0)
    lower = _ceil_tol(gap * degree)
    if h_current < h_goal:
        upper = lower if h_goal >= 1.0 - _EQ_TOL else _ceil_tol(gap * degree / (1.0 - h_goal))
    else:
        upper = lower if h_goal <= _EQ_TOL else _ceil_tol(gap * degree / h_goal)
    return (lower, upper)


@dataclass(frozen=True)
class EditRecord:
    seq: int
    phase: str   # "rewire" | "refine"
    op: str      # "remove" | "add"
    u: int       # acting source node
    v: int       # neighbor (remove) or candidate (add)


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


@dataclass
class EditLog:
    """Ordered, replayable record of the generator's edge edits."""

    header: dict = field(default_factory=dict)
    records: list[EditRecord] = field(default_factory=list)

    def append(self, phase: str, op: str, u: int, v: int) -> None:
        self.records.append(EditRecord(len(self.records), phase, op, u, v))

    def replay(self, g: Graph) -> Graph:
        """Apply the log to `g`; raises if any record does not fit."""
        adj = _adjacency_sets(g)
        for rec in self.records:
            u, v = rec.u, rec.v
            if u == v or not (0 <= u < g.node_count and 0 <= v < g.node_count):
                raise ValueError(f"record {rec.seq}: invalid endpoints ({u}, {v})")
            if rec.op == "remove":
                if v not in adj[u]:
                    raise ValueError(f"record {rec.seq}: removing missing edge ({u}, {v})")
                adj[u].discard(v)
                adj[v].discard(u)
            elif rec.op == "add":
                if v in adj[u]:
                    raise ValueError(f"record {rec.seq}: adding duplicate edge ({u}, {v})")
                adj[u].add(v)
                adj[v].add(u)
            else:
                raise ValueError(f"record {rec.seq}: unknown op {rec.op!r}")
        return _graph_from_adjacency(adj)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(self.header, sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(json.dumps(
                    {"seq": rec.seq, "phase": rec.phase, "op": rec.op, "u": rec.u, "v": rec.v},
                    sort_keys=True) + "\n")

    @staticmethod
    def load(path) -> "EditLog":
        log = EditLog()
        with open(path, "r", encoding="utf-8") as fh:
            first = True
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if first and "op" not in obj:
                    log.header = obj
                    first = False
                    continue
                first = False
                log.records.append(EditRecord(int(obj["seq"]), obj["phase"], obj["op"],
                                              int(obj["u"]), int(obj["v"])))
        return log


class _EditState:
    """Mutable working state shared by the two edit phases.

    Every edit picks its partner by the module's partner rule: the smallest
    remaining gap among gate-passing partners, ties to the lower id. In a
    rewire the addition gate does not depend on the removed neighbour.
    """

    def __init__(self, g: Graph, t: NodeTable, goals: list[NodeGoal],
                 log: EditLog, phase: str):
        n = g.node_count
        if len(t) != n:
            raise ValueError("node table does not match graph size")
        self.n = n
        self.labels = t.labels
        self.adj = _adjacency_sets(g)
        self.deg = g.degrees.astype(np.int64)
        self.same = same_label_counts(g, t)
        self.goal = np.full(n, np.nan)
        self.active = np.zeros(n, dtype=bool)
        seen = set()
        for ng in goals:
            if not (0 <= ng.node < n):
                raise ValueError(f"goal for out-of-range node {ng.node}")
            if ng.node in seen:
                raise ValueError(f"duplicate goal for node {ng.node}")
            seen.add(ng.node)
            if ng.direction != 0:
                if self.deg[ng.node] == 0:
                    raise ValueError(f"node {ng.node} has a move target but is isolated")
                if t.labels[ng.node] < 0:
                    raise ValueError(f"node {ng.node} has a move target but no label")
                self.goal[ng.node] = ng.h_goal
                self.active[ng.node] = True
        self.h = np.full(n, np.nan)
        self.gap_abs = np.full(n, np.inf)
        self.live = np.zeros(n, dtype=np.int8)
        for v in np.flatnonzero(self.active):
            self._refresh(int(v))
        self.log = log
        self.phase = phase

    def _refresh(self, v: int) -> None:
        if not self.active[v] or self.deg[v] == 0:
            self.live[v] = 0
            return
        h = self.same[v] / self.deg[v]
        self.h[v] = h
        diff = self.goal[v] - h
        self.gap_abs[v] = abs(diff)
        self.live[v] = 0 if abs(diff) <= _EQ_TOL else (1 if diff > 0 else -1)

    def _apply(self, op: str, u: int, v: int) -> None:
        if op == "remove":
            if v not in self.adj[u]:
                raise RuntimeError("internal: removing missing edge")
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            delta = -1
        else:
            if v in self.adj[u] or u == v:
                raise RuntimeError("internal: adding duplicate or self edge")
            self.adj[u].add(v)
            self.adj[v].add(u)
            delta = 1
        self.deg[u] += delta
        self.deg[v] += delta
        if self.labels[u] == self.labels[v] and self.labels[u] >= 0:
            self.same[u] += delta
            self.same[v] += delta
        self._refresh(u)
        self._refresh(v)
        self.log.append(self.phase, op, u, v)

    def _delta(self, v, new_same, new_deg):
        """Change in |h_v - goal_v| if v's counts became (new_same, new_deg).

        v may be one node or an array of nodes; elementwise float64 rounds
        exactly like the scalar form.
        """
        return np.abs(new_same / new_deg - self.goal[v]) - self.gap_abs[v]

    def _best_partner(self, i: int, s: int, d_i: float) -> int:
        """Partner for one edge addition at source i; -1 if none passes.

        Candidates are the active, non-adjacent nodes that move in direction
        s and share i's label (s > 0) or differ from it (s < 0). A candidate
        k passes when d_i (i's change) plus k's own change is below
        -_GATE_TOL, summed in that order. Of the passing candidates,
        the one with the smallest gap wins, ties to the lower id.
        """
        if s > 0:
            mask = self.labels == self.labels[i]
        else:
            mask = self.labels != self.labels[i]
        mask &= self.active & (self.live == s)
        mask[i] = False
        if self.adj[i]:
            mask[list(self.adj[i])] = False
        ks = np.flatnonzero(mask)
        eq = 1 if s > 0 else 0
        ks = ks[d_i + self._delta(ks, self.same[ks] + eq, self.deg[ks] + 1) < -_GATE_TOL]
        if ks.size == 0:
            return -1
        return int(ks[np.argmin(self.gap_abs[ks])])

    def attempt_rewire(self, i: int) -> bool:
        """One paired remove+add on source i; returns False if none is valid.

        The removed neighbour j is the best gate-passing one by the partner
        rule. The addition gate depends on i's counts after the removal, not
        on j, so no other j could succeed where the chosen one finds no
        addition partner.
        """
        s = int(self.live[i])
        if s == 0 or self.deg[i] <= 1:
            return False
        want_diff = s > 0  # raising h removes heterophilous edges
        eq_rm = 0 if want_diff else 1
        js = np.sort(np.fromiter(self.adj[i], dtype=np.int64, count=len(self.adj[i])))
        js = js[self.active[js] & (self.live[js] == s) & (self.deg[js] > 1)
                & ((self.labels[js] != self.labels[i]) == want_diff)]
        d_rm_i = self._delta(i, self.same[i] - eq_rm, self.deg[i] - 1)
        js = js[d_rm_i + self._delta(js, self.same[js] - eq_rm, self.deg[js] - 1) < -_GATE_TOL]
        if js.size == 0:
            return False
        j = int(js[np.argmin(self.gap_abs[js])])
        same_i2 = self.same[i] - eq_rm
        deg_i2 = self.deg[i] - 1
        eq_add = 1 if s > 0 else 0
        d_add_i = (abs((same_i2 + eq_add) / (deg_i2 + 1) - self.goal[i])
                   - abs(same_i2 / deg_i2 - self.goal[i]))
        k = self._best_partner(i, s, d_add_i)
        if k < 0:
            return False
        self._apply("remove", i, j)
        self._apply("add", i, k)
        return True

    def attempt_refine(self, i: int) -> bool:
        """One beneficial edge addition at node i; False if none is valid."""
        s = int(self.live[i])
        if s == 0:
            return False
        _, upper = edge_move_bounds(float(self.h[i]), float(self.goal[i]), int(self.deg[i]))
        if upper < 1:
            return False
        eq = 1 if s > 0 else 0
        k = self._best_partner(i, s, self._delta(i, self.same[i] + eq, self.deg[i] + 1))
        if k < 0:
            return False
        self._apply("add", i, k)
        return True

    def potential(self) -> float:
        act = np.flatnonzero(self.active)
        return float(self.gap_abs[act].sum())

    def finish(self) -> Graph:
        return _graph_from_adjacency(self.adj)


def _phase_log(log: EditLog | None, seed) -> EditLog:
    if log is not None:
        return log
    header = {"seed": int(seed)} if isinstance(seed, (int, np.integer)) else {}
    return EditLog(header=header)


def rewire_phase(g: Graph, t: NodeTable, goals: list[NodeGoal], seed,
                 log: EditLog | None = None) -> tuple[Graph, EditLog]:
    """Degree-preserving paired remove+add edits toward per-node targets.

    Sources are visited once in seeded random order; each gets up to its
    lower edge-move bound of paired edits. An edit fires only when the
    removal and the addition each strictly shrink the summed goal distance
    of their endpoints, so every log record lowers the potential.
    """
    state = _EditState(g, t, goals, _phase_log(log, seed), "rewire")
    rng = np.random.default_rng(seed)
    sources = sorted(ng.node for ng in goals if ng.direction != 0)
    if sources:
        for i in rng.permutation(np.asarray(sources, dtype=np.int64)):
            i = int(i)
            while state.live[i] != 0:
                lower, _ = edge_move_bounds(float(state.h[i]), float(state.goal[i]),
                                            int(state.deg[i]))
                if lower < 1 or not state.attempt_rewire(i):
                    break
    return state.finish(), state.log


def refine_phase(g: Graph, t: NodeTable, goals: list[NodeGoal], seed,
                 log: EditLog | None = None) -> tuple[Graph, EditLog]:
    """Addition-only cleanup for nodes rewiring could not finish.

    Sweeps off-target nodes in seeded random order, adding mutually
    beneficial edges (each capped by the additions-only upper bound at the
    node's current state) until no beneficial pair remains.
    """
    state = _EditState(g, t, goals, _phase_log(log, seed), "refine")
    rng = np.random.default_rng(seed)
    while True:
        off_target = np.flatnonzero(state.live != 0)
        if off_target.size == 0:
            break
        applied = False
        for i in rng.permutation(off_target):
            i = int(i)
            while state.live[i] != 0 and state.attempt_refine(i):
                applied = True
        if not applied:
            break
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
    g_rewired, log = rewire_phase(g, t, goals, seed_rewire, log=log)
    g_final, log = refine_phase(g_rewired, t, goals, seed_refine, log=log)
    final_hist = defined_histogram(local_homophily_all(g_final, t), bin_count)
    deltas = (g_final.degrees - g.degrees).astype(int)
    delta_hist: dict[int, int] = {}
    for d in deltas:
        delta_hist[int(d)] = delta_hist.get(int(d), 0) + 1
    n_rewire = sum(1 for r in log.records if r.phase == "rewire")
    n_refine = sum(1 for r in log.records if r.phase == "refine")
    report = GenerationReport(
        emd_original_goal=emd(source_hist, goal_hist),
        emd_generated_goal=emd(final_hist, goal_hist),
        edits_rewire=n_rewire // 2,
        edits_refine=n_refine,
        degree_delta_histogram=delta_hist,
    )
    return g_final, log, report
