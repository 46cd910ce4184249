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
import contextlib
import gc
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

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
_EQ_TOL = 1e-12  # edge_move_bounds' "no gap"
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


# Edit logs are written and decoded this many lines at a time, which bounds
# the memory a log takes beyond its records.
_LOG_CHUNK = 1024


# The keys of one edit-log record, in the order its missing keys are named:
# seq, then the keys of EditLog's columns.
_RECORD_KEYS = ("seq", "phase", "op", "u", "v")


@dataclass(frozen=True)
class EditRecord:
    seq: int
    phase: str   # "rewire" | "refine"
    op: str      # "remove" | "add"
    u: int       # acting source node
    v: int       # neighbor (remove) or candidate (add)


# The phase and op columns of a rewire pair's two records.
_REWIRE_PHASES = ("rewire", "rewire")
_REWIRE_OPS = ("remove", "add")


def _adjacency_sets(g: Graph) -> list[set[int]]:
    """Mutable neighbour sets of g, one per node."""
    ptr = g.indptr.tolist()
    nbrs = g.indices.tolist()
    return [set(nbrs[ptr[v]:ptr[v + 1]]) for v in range(g.node_count)]


def _int64_ids(ids: list) -> np.ndarray:
    """ids as an int64 array; an id beyond int64 becomes -1, out of range as it was."""
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        return np.asarray([x if -2**63 <= x < 2**63 else -1 for x in ids], dtype=np.int64)


def _graph_from_adjacency(adj: list[set[int]]) -> Graph:
    """The graph whose node v has neighbour set adj[v]."""
    degrees = [len(nbrs) for nbrs in adj]
    u = np.repeat(np.arange(len(adj), dtype=np.int64), degrees)
    v = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int64, count=sum(degrees))
    keep = u < v
    return Graph.from_edges(len(adj), np.column_stack((u[keep], v[keep])))


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, then restore the
    caller's setting. For loops that make many containers but no reference
    cycles: reference counting frees all they drop, so a collection there
    only walks live objects and finds nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _is_header(obj) -> bool:
    """The header rule, for the first non-blank line: an object with no "op" key."""
    return isinstance(obj, dict) and "op" not in obj


def _record_prefix(op: str, phase: str) -> str:
    """A saved record's text up to its seq number."""
    return '{"op": %s, "phase": %s, "seq": ' % (json.dumps(op), json.dumps(phase))


# A saved record's text after its prefix: seq, u and v.
_RECORD_FORMAT = '%s%d, "u": %d, "v": %d}\n'

_DIGITS = b"0123456789"

# A saved record line of the generator's words, ASCII digits deleted and
# newline dropped -> its (phase, op).
_SKELETONS = {(_RECORD_FORMAT % (_record_prefix(op, phase), 0, 0, 0)).encode()
              .translate(None, _DIGITS)[:-1]: (phase, op)
              for op in ("add", "remove") for phase in ("refine", "rewire")}


def _block_columns(block: list[bytes], index: int):
    """(phases, ops, us, vs) of a block of record lines whose first seq is
    `index`, or None unless every line is in `save`'s exact form for the
    generator's words, with seq equal to its index.

    With its digits deleted, each line must be one of the `_SKELETONS`.
    Only a skeleton's three number slots sit right after ": " and right
    before "," or "}", and a slot holds one maximal digit run, so three
    such runs per line fill the slots exactly. A run with no leading zero
    and at most 18 digits is the JSON int of its int64 value.
    """
    data = b"".join(block)
    if not data.endswith(b"\n"):
        return None
    lines = data.translate(None, _DIGITS).split(b"\n")[:-1]
    try:
        phases, ops = zip(*map(_SKELETONS.__getitem__, lines))
    except KeyError:
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    digits = text - 48  # uint8: every non-digit byte wraps to 10 or more
    edges = np.zeros(text.size + 2, dtype=bool)  # False-padded, so every run has both edges
    np.less(digits, 10, out=edges[1:-1])
    starts, ends = np.flatnonzero(edges[1:] != edges[:-1]).reshape(-1, 2).T
    if starts.size != 3 * len(lines):
        return None
    # The last byte is a newline, so a run at offset 0 or 1 wraps to it and fails.
    opened = (text[starts - 2] == 58) & (text[starts - 1] == 32)  # ": "
    closed = (text[ends] == 44) | (text[ends] == 125)  # "," or "}"
    widths = ends - starts
    width = int(widths.max())
    if (width > 18 or not (opened.all() and closed.all())
            or ((digits[starts] == 0) & (widths > 1)).any()):
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(width, 0, -1):  # Horner over the runs, right-aligned
        at = ends - k
        values = values * 10 + np.where(at >= starts, digits[at], 0)
    if not np.array_equal(values[0::3], np.arange(index, index + len(lines))):
        return None
    return phases, ops, values[1::3].tolist(), values[2::3].tolist()


def _saved_log(path):
    """The log at `path` when its first line is a header and every record
    line passes `_block_columns`, else None."""
    with open(path, "rb") as fh:
        first = fh.readline()
        try:
            header = json.loads(first.decode("utf-8"))
        except (ValueError, RecursionError):  # RecursionError: nesting too deep for the decoder
            return None
        # a CR would end a line in the text reader, which splits only at LF here
        if not first.endswith(b"\n") or b"\r" in first or not _is_header(header):
            return None
        log = EditLog(header)
        columns = (log.phases, log.ops, log.us, log.vs)
        for block in iter(lambda: list(itertools.islice(fh, _LOG_CHUNK)), []):
            values = _block_columns(block, len(log))
            if values is None:
                return None
            for column, chunk in zip(columns, values):
                column.extend(chunk)
    return log


def _line_chunk(path, block: list[str], start: int, header_open: bool, index: int):
    """(header or None, column values) of a chunk's lines, decoded one at a
    time from line number `start` and seq `index`; raises naming the first
    bad line."""
    header, objs = None, []
    for lineno, line in enumerate(map(str.strip, block), start=start):
        if not line:
            continue
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected a JSON object, got {line!r}")
        if header_open:
            header_open = False
            if _is_header(obj):
                header = obj
                continue
        for key in _RECORD_KEYS:
            if key not in obj:
                raise ValueError(f"{where}: record has no {key!r} key")
        for key in ("seq", "u", "v"):
            if type(obj[key]) is not int:
                raise ValueError(f"{where}: {key!r} must be an integer, got {obj[key]!r}")
        for key in ("phase", "op"):
            if type(obj[key]) is not str:
                raise ValueError(f"{where}: {key!r} must be a string, got {obj[key]!r}")
        if obj["seq"] != index + len(objs):
            raise ValueError(f"{where}: 'seq' must be {index + len(objs)}, got {obj['seq']!r}")
        objs.append(obj)
    return header, [[o[key] for o in objs] for key in _RECORD_KEYS[1:]]


@dataclass
class EditLog:
    """Ordered, replayable record of the generator's edge edits.

    The records are held as four parallel columns of plain ints and strs
    (`phases`, `ops`, `us`, `vs`), with no Python object per record, so a
    long log gives the garbage collector nothing to traverse. A record's
    seq is its index. `records` builds `EditRecord`s from the columns on
    each access.
    """

    header: dict = field(default_factory=dict)
    phases: list[str] = field(default_factory=list)
    ops: list[str] = field(default_factory=list)
    us: list[int] = field(default_factory=list)
    vs: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def records(self) -> list[EditRecord]:
        """A read-only view: a new list of `EditRecord`s built from the columns."""
        return list(map(EditRecord, itertools.count(), self.phases, self.ops, self.us, self.vs))

    def append(self, phase: str, op: str, u: int, v: int) -> None:
        self.phases.append(phase)
        self.ops.append(op)
        self.us.append(u)
        self.vs.append(v)

    def replay(self, g: Graph) -> Graph:
        """Apply the log to `g`; raises naming the first record that does not fit.

        A record is checked for valid endpoints, then for removing a missing
        or adding a present edge, then for an unknown op. Every valid record
        toggles its edge, so with the records grouped by canonical edge key
        lo * n + hi, a record sees its edge present when g holds it XOR an
        odd number of the group's records come before it, and the edge ends
        present when g holds it XOR the group is odd. Up to the first bad
        record every record is valid, so the first bad record found this
        way is the first one a record-by-record replay meets.
        """
        m = len(self)
        if m == 0:
            return g
        n = g.node_count
        u, v = _int64_ids(self.us), _int64_ids(self.vs)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad_ends = (lo == hi) | (lo < 0) | (hi >= n)
        keys = lo * n + hi
        keys[bad_ends] = -1 - np.flatnonzero(bad_ends)  # one group each, in no edge of g
        remove = np.fromiter(map(operator.eq, self.ops, itertools.repeat("remove")), bool, m)
        add = np.fromiter(map(operator.eq, self.ops, itertools.repeat("add")), bool, m)
        # The groups in key order, each in log order; rank is the place in its group.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        starts = np.flatnonzero(new)
        rank = np.arange(m) - starts[np.cumsum(new) - 1]
        edge_keys = g.edges[:, 0] * n + g.edges[:, 1]  # ascending, as g.edges is
        at = np.searchsorted(edge_keys, keys)
        in_g = np.zeros(m, dtype=bool)
        if edge_keys.size:
            in_g = edge_keys[np.minimum(at, edge_keys.size - 1)] == keys
        present = in_g ^ (rank % 2 == 1)
        rm, ad = remove[order], add[order]
        bad = bad_ends[order] | (rm & ~present) | (ad & present) | ~(rm | ad)
        if bad.any():
            r = int(order[bad].min())
            op, a, b = self.ops[r], self.us[r], self.vs[r]
            if bad_ends[r]:
                raise ValueError(f"record {r}: invalid endpoints ({a}, {b})")
            if remove[r]:
                raise ValueError(f"record {r}: removing missing edge ({a}, {b})")
            if add[r]:
                raise ValueError(f"record {r}: adding duplicate edge ({a}, {b})")
            raise ValueError(f"record {r}: unknown op {op!r}")
        touched = np.zeros(edge_keys.size, dtype=bool)
        touched[at[in_g]] = True
        ends_present = in_g[starts] ^ (np.diff(np.append(starts, m)) % 2 == 1)
        final = np.concatenate((edge_keys[~touched], keys[starts[ends_present]]))
        return Graph.from_edges(n, np.column_stack(np.divmod(final, n)))

    def save(self, path) -> None:
        """Write the header, then one JSON object per record with sorted keys.

        What `load` would refuse, or `%d` would write as another number,
        raises ValueError before the file is opened: a header that is not a
        dict, has an "op" key or holds NaN or an infinity; a phase or op that
        is not a string, named; or a u or v that is not an int or numpy
        integer (a bool, a float, a str), named with its record's seq.
        """
        if not _is_header(self.header):
            raise ValueError(f"header must be a dict without an 'op' key, got {self.header!r}")
        try:
            header = json.dumps(self.header, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"header {self.header!r}: {exc}") from None
        pairs = set(zip(self.ops, self.phases))
        for key, words in (("phase", {p for _, p in pairs}), ("op", {o for o, _ in pairs})):
            for word in words:
                if type(word) is not str:
                    raise ValueError(f"{key!r} must be a string, got {word!r}")
        # a log holds a type or two of id, so only a failure walks the records
        bad = {t for t in {*map(type, self.us), *map(type, self.vs)}
               if t is bool or not issubclass(t, (int, np.integer))}
        if bad:
            for seq, u, v in zip(itertools.count(), self.us, self.vs):
                for key, value in (("u", u), ("v", v)):
                    if type(value) in bad:
                        raise ValueError(f"seq {seq}: {key!r} must be an integer, got {value!r}")
        prefixes = {pair: _record_prefix(*pair) for pair in pairs}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for a in range(0, len(self), _LOG_CHUNK):
                b = a + _LOG_CHUNK
                args = tuple(itertools.chain.from_iterable(zip(
                    map(prefixes.__getitem__, zip(self.ops[a:b], self.phases[a:b])),
                    range(a, b), self.us[a:b], self.vs[a:b])))
                fh.write(_RECORD_FORMAT * (len(args) // 4) % args)

    @staticmethod
    def load(path) -> "EditLog":
        """Read a log; every error names the file and line.

        Each non-blank line holds one JSON object. The first is the header
        unless it has an "op" key. A record needs string "phase" and "op",
        integer "u" and "v", and an integer "seq" equal to its index.

        Two tiers give the same result. A log in `save`'s exact form for
        the generator's words (a header line, then records with canonical
        non-negative ids, LF line ends) is decoded in numpy blocks
        (`_saved_log`). Any other file is read again from the start, one
        line at a time (`_line_chunk`), which raises for its first bad line.
        """
        with _collector_paused():
            log = _saved_log(path)
            if log is not None:
                return log
            log = EditLog()
            columns = (log.phases, log.ops, log.us, log.vs)
            header_open, start = True, 1  # no non-blank line read yet; the chunk's first line
            with open(path, "r", encoding="utf-8") as fh:
                for block in iter(lambda: list(itertools.islice(fh, _LOG_CHUNK)), []):
                    header, values = _line_chunk(path, block, start, header_open, len(log))
                    if header is not None:
                        log.header = header
                    header_open = header_open and not any(map(str.strip, block))
                    for column, chunk in zip(columns, values):
                        column.extend(chunk)
                    start += len(block)
        return log


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
