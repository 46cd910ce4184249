"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: transport
cost via a general LP solver, components via union-find, per-node
edge-move bounds that the edit state's liveness rule must agree with,
micro-F1 via a full confusion matrix, an edit-log checker that recounts
neighborhoods from its own adjacency sets, the set-based graph builder and
line-by-line edge-list parser that the array-native ones replaced, the
mask-based partner search that the generator's partner pools replaced, the
full neighbour scan for a rewire's removal that sorted per-source removal
lists replaced, the bulk edit-state construction that per-node refreshes replaced, the
node-by-node goal assignment that per-bin array writes replaced, the
three CSV loaders (node table, split, predictions) that one bulk id-keyed
reader replaced, that reader as it was when it filtered every line for
blanks, the row-by-row split writer that a single join
replaced, the set-based edit-log replay that key arithmetic replaced, the
line-by-line edit-log reader that block decoding replaced, the
one-node local homophily that the all-nodes count replaced, the
per-node training-representation sampler that the simulator's sufficient
statistics replaced, the batched LAPACK solve of those statistics that
the closed-form 2 x 2 inverse replaced, and the index-by-index
largest-remainder loop that one array step per pass replaced.
"""

from __future__ import annotations

import csv
import functools
import gc
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from homshift import (
    INVALID,
    TAG_NAMES,
    EditLog,
    Graph,
    NodeGoal,
    NodeTable,
    PredictionTable,
    TheoryParams,
    aggregation_coefficient,
    bin_index,
    two_class_sbm,
)
from homshift.graph import _cells, _parse_rows
from homshift.rewire import _GATE_TOL as GATE_TOL
from homshift.rewire import _MOVE_TOL as MOVE_TOL
from homshift.splits import largest_remainder


@pytest.fixture(scope="session")
def sbm_pair():
    """2000-node half/half SBM near h=0.5, shared across expensive tests."""
    return two_class_sbm(2000, 10, 0.5, seed=7)


@pytest.fixture()
def tiny_pair():
    """5-path with alternating-ish labels; small enough to hand-check."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    t = NodeTable(np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 0]))
    return g, t


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The collector's setting as the caller holds it; restored afterwards."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def lp_transport_cost(p_mass, q_mass) -> float:
    """Minimal transport cost between histograms, ground cost |i-j|/b.

    Solves the full LP over all b*b plan entries; only for small b.
    """
    p_mass = np.asarray(p_mass, dtype=np.float64)
    q_mass = np.asarray(q_mass, dtype=np.float64)
    b = p_mass.size
    cost = np.abs(np.subtract.outer(np.arange(b), np.arange(b))).ravel() / b
    a_eq = np.zeros((2 * b, b * b))
    for i in range(b):
        a_eq[i, i * b:(i + 1) * b] = 1.0        # row sums = p
        a_eq[b + i, i::b] = 1.0                 # col sums = q
    rhs = np.concatenate([p_mass, q_mass])
    res = linprog(cost, A_eq=a_eq, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def union_find_components(node_count: int, edges) -> np.ndarray:
    """Component labels (renumbered by smallest member) via union-find."""
    parent = list(range(node_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = [find(x) for x in range(node_count)]
    relabel = {}
    out = np.empty(node_count, dtype=np.int64)
    for x, r in enumerate(roots):
        if r not in relabel:
            relabel[r] = len(relabel)
        out[x] = relabel[r]
    return out


_EQ_TOL = 1e-12  # edge_move_bounds: a goal this close to 0 or 1 is at that end


def _ceil_tol(x: float) -> int:
    """Ceiling robust to float dust, up to MOVE_TOL, just above an integer."""
    return int(math.ceil(x - MOVE_TOL))


def edge_move_bounds(h_current: float, h_goal: float, degree: int) -> tuple[int, int]:
    """(lower, upper) edge-move counts to take h_current to h_goal.

    Lower bound: moves needed when each rewire shifts h by exactly 1/degree.
    Upper bound: additions-only count, solving (s + e)/(d + e) = h_goal for
    a raising goal and s/(d + e) = h_goal for a lowering one. Goals of
    exactly 0 or 1 fall back to pure rewiring (upper == lower). A gap whose
    lower bound leaves no move, the dust `_ceil_tol` forgives, gives (0, 0):
    the node is on target, as `_EditState` must mark it.
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


def reference_from_edges(node_count: int, edges) -> tuple[tuple, tuple]:
    """Set-based graph build: (sorted canonical edge tuples, sorted neighbour tuples)."""
    if node_count < 0:
        raise ValueError("node_count must be non-negative")
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
        canon.add((u, v) if u < v else (v, u))
    edge_tuple = tuple(sorted(canon))
    neighbors: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edge_tuple:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return edge_tuple, tuple(tuple(sorted(ns)) for ns in neighbors)


def reference_load_edge_list(path, one_indexed: bool = False):
    """Line-by-line edge-list parse: (node_count, edge set, self_loops, duplicates).

    Raises the same ValueError messages as homshift.load_edge_list. Token
    grammar is Python's int(), wider than the library's ASCII decimal ids.
    """
    pairs: set[tuple[int, int]] = set()
    self_loops = 0
    duplicates = 0
    max_id = -1
    n_lines = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            n_lines += 1
            tokens = line.replace(",", " ").split()
            if len(tokens) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two node ids, got {raw!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer node id in {raw!r}") from None
            if one_indexed:
                u -= 1
                v -= 1
            if u < 0 or v < 0:
                raise ValueError(f"{path}: line {lineno}: negative node id after adjustment")
            max_id = max(max_id, u, v)
            if u == v:
                self_loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                duplicates += 1
            else:
                pairs.add(key)
    if n_lines == 0:
        raise ValueError(f"{path}: empty edge list")
    return max_id + 1, pairs, self_loops, duplicates


_REFERENCE_TAGS = {name: tag for tag, name in enumerate(TAG_NAMES)}
_REFERENCE_PREDICTION_HEADER = "node_id,y_true,y_pred,sensitive"


def reference_load_node_table(path) -> NodeTable:
    """csv.reader node-table parse with per-cell int(), as homshift.load_node_table was.

    Header node_id,label,sensitive[,f0,f1,...]; node_id values must cover 0..n-1 exactly. Empty label/sensitive fields
    become the INVALID marker; non-integer values in those columns are errors.
    Any columns past the third are parsed as float features.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty node table") from None
        header = [h.strip() for h in header]
        if header[:3] != ["node_id", "label", "sensitive"]:
            raise ValueError(
                f"{path}: header must start with node_id,label,sensitive; got {header[:3]}"
            )
        n_feat = len(header) - 3
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append((lineno, row))
    n = len(rows)
    if n == 0:
        raise ValueError(f"{path}: node table has no rows")
    labels = np.full(n, INVALID, dtype=np.int64)
    sensitive = np.full(n, INVALID, dtype=np.int64)
    features = np.zeros((n, n_feat), dtype=np.float64) if n_feat else None
    seen = np.zeros(n, dtype=bool)
    for lineno, row in rows:
        try:
            node_id = int(row[0])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-integer node_id {row[0]!r}") from None
        if not (0 <= node_id < n):
            raise ValueError(f"{path}: line {lineno}: node_id {node_id} outside 0..{n - 1} (gap or duplicate elsewhere)")
        if seen[node_id]:
            raise ValueError(f"{path}: line {lineno}: duplicate node_id {node_id}")
        seen[node_id] = True
        for col, out in ((1, labels), (2, sensitive)):
            cell = row[col].strip()
            if cell == "":
                continue  # stays INVALID
            try:
                out[node_id] = int(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-integer {header[col]} value {cell!r}"
                ) from None
        if features is not None:
            try:
                features[node_id] = [float(c) for c in row[3:]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric feature value") from None
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"{path}: node_id {missing} missing (ids must cover 0..{n - 1})")
    return NodeTable(labels, sensitive, features)


def reference_load_split(path) -> np.ndarray:
    """Line-split parse of a `node_id,split` CSV, as homshift.load_split was."""
    tags = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "node_id,split":
            raise ValueError(f"{path}: line 1: split file must start with 'node_id,split'")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                node_s, name = line.split(",")
                node = int(node_s)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected '<integer node id>,<tag>', "
                                 f"got {line!r}") from None
            if node != len(tags):
                raise ValueError(f"{path}: line {lineno}: node ids must be consecutive from 0")
            if name not in _REFERENCE_TAGS:
                raise ValueError(f"{path}: line {lineno}: unknown split tag {name!r}")
            tags.append(_REFERENCE_TAGS[name])
    return np.asarray(tags, dtype=np.int8)


def reference_load_predictions(path) -> PredictionTable:
    """Bulk np.loadtxt then int() row rescan, as homshift.load_predictions was.

    Rows stay in file order and keep their node ids. Node ids must be
    non-negative integers, each listed once; they need not cover 0..n-1 (a
    file may list only the labeled nodes). The rows are parsed in bulk;
    when that fails, they are parsed again one by one with int(), which
    names the bad line or, for a value only int() reads (such as `1_000`),
    gives the table.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header, _, body = fh.read().partition("\n")
    if header.strip() != _REFERENCE_PREDICTION_HEADER:
        raise ValueError(f"{path}: line 1: prediction file must start with "
                         f"'{_REFERENCE_PREDICTION_HEADER}'")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                               comments=None, ndmin=2)
        if (table.shape[1] != 4 or (table[:, 0] < 0).any()
                or np.unique(table[:, 0]).size != len(table)):
            raise ValueError("rejected by the bulk parse")
        cols = table.T
    except ValueError:
        rows = [(lineno, line.strip()) for lineno, line
                in enumerate(body.split("\n"), start=2) if line.strip()]
        cols = [np.array(col) for col in _reference_prediction_columns(path, rows)]
    return PredictionTable(cols[1], cols[2], cols[3], cols[0])


def _reference_prediction_columns(path, rows: list[tuple[int, str]]) -> list[list[int]]:
    """The four integer columns of (line number, text) rows; raises at the first bad one."""
    cols: list[list[int]] = [[], [], [], []]
    first_line: dict[int, int] = {}
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {line!r}")
        try:
            node = int(parts[0])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-integer node id "
                             f"{parts[0]!r}") from None
        if node < 0:
            raise ValueError(f"{path}: line {lineno}: negative node id {node}")
        if node in first_line:
            raise ValueError(f"{path}: line {lineno}: duplicate node id {node} "
                             f"(first on line {first_line[node]})")
        first_line[node] = lineno
        try:
            values = [int(x) for x in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        for col, value in zip(cols, [node, *values]):
            col.append(value)
    return cols


def reference_read_id_table(path, columns, converters=None):
    """homshift.graph.read_id_table as it was when it tested every line for a blank.

    Same rules and return value: (ints, floats or None, line numbers); every
    line after the header is stripped, and the non-blank ones are kept.
    """
    names = [c for c in columns if c is not ...]
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().split("\n")
    header = [cell.strip() for cell in _cells(text[0])] if text[0].strip() else []
    if header[:len(names)] != names or (columns[-1] is not ... and len(header) != len(names)):
        raise ValueError(f"{path}: line 1: header must start with '{','.join(names)}'"
                         f"{'' if columns[-1] is ... else ' and end there'}; got {text[0]!r}")
    keep = [i for i in range(1, len(text)) if text[i].strip()]
    body = [text[i] for i in keep]
    lines = np.array(keep, dtype=np.int64) + 1
    k, f = len(names), len(header) - len(names)
    converters = converters or {}
    cached = {conv: functools.cache(conv) for conv in converters.values()}
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(body, dtype=[("ints", np.int64, (k,)), ("floats", np.float64, (f,))],
                               delimiter=",", quotechar='"', comments=None, ndmin=1,
                               converters={c: cached[conv] for c, conv in converters.items()})
        ints, floats = table["ints"], table["floats"]
        ids = np.sort(ints[:, 0])
        if ids.size != len(body) or (ids < 0).any() or (np.diff(ids) == 0).any():
            raise ValueError("rejected by the bulk parse")
    except (ValueError, OverflowError):
        ints, floats = _parse_rows(path, body, lines, header, k, converters)
    return ints, floats if f else None, lines


def reference_save_edge_list(g: Graph, path) -> None:
    """One-`%` edge-list writer, as homshift.save_edge_list was before it wrote in chunks."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(("%d %d\n" * g.edge_count) % tuple(g.edges.ravel().tolist()))


def assert_same_graph(got: Graph, want: Graph) -> None:
    """`got` holds what `want` holds, array for array: values, dtypes and flags."""
    assert got.node_count == want.node_count
    for name in ("edges", "degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
        assert a.flags.c_contiguous and not a.flags.writeable, name
    assert got == want


def reference_save_split(assignment, path) -> None:
    """Row-by-row split writer, as homshift.save_split was."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,split\n")
        for node, tag in enumerate(assignment.tags):
            fh.write(f"{node},{TAG_NAMES[tag]}\n")


def reference_ratios_csv(ratios: np.ndarray) -> str:
    """ratios.csv's text as homshift.cli._ratios_csv built it: one f-string per row,
    after formatting each distinct bit pattern once."""
    bits, which = np.unique(ratios.view(np.int64), return_inverse=True)
    cells = [",\n" if x != x else f",{x!r}\n" for x in bits.view(np.float64).tolist()]
    return "node_id,ratio\n" + "".join([f"{node}{cells[i]}"
                                        for node, i in enumerate(which.tolist())])


def reference_save_node_table(t: NodeTable, path) -> None:
    """Row-by-row node-table writer, as homshift.save_node_table was."""
    n_feat = 0 if t.features is None else t.features.shape[1]
    header = ["node_id", "label", "sensitive"] + [f"f{i}" for i in range(n_feat)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(t)):
            lab = "" if t.labels[i] == INVALID else str(int(t.labels[i]))
            sen = "" if t.sensitive[i] == INVALID else str(int(t.sensitive[i]))
            cells = [str(i), lab, sen]
            if t.features is not None:
                cells += [repr(float(x)) for x in t.features[i]]
            fh.write(",".join(cells) + "\n")


def reference_save_predictions(p: PredictionTable, path) -> None:
    """Row-by-row prediction writer, each row under its node id, as
    homshift.save_predictions was."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,y_true,y_pred,sensitive\n")
        for k in range(p.y_true.size):
            fh.write(f"{p.node_ids[k]},{p.y_true[k]},{p.y_pred[k]},{p.sensitive[k]}\n")


def reference_local_homophily(g: Graph, t: NodeTable, node: int) -> float:
    """Fraction of a labeled, non-isolated node's neighbours sharing its label,
    counted over its neighbour list."""
    neighbors = g.neighbors(node)
    return int((t.labels[neighbors] == t.labels[node]).sum()) / neighbors.size


def reference_training_representations(params: TheoryParams,
                                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One draw of the n x 2 representation matrix R and one-hot labels Y.

    Row i is b_coef * s_i * [p_i, q_i] with p_i ~ N(mu_l, sigma),
    q_i ~ N(mu_s, sigma) and s_i = -1 for the k (y=0, s=0) rows, +1 after.
    """
    b_coef = aggregation_coefficient(params.h, params.d)
    n, k = params.n, params.k
    feats = rng.normal((params.mu_l, params.mu_s), params.sigma, size=(n, 2))
    signs = np.ones((n, 1))
    signs[:k] = -1.0
    r_mat = b_coef * signs * feats
    y_mat = np.zeros((n, 2))
    y_mat[:k, 0] = 1.0
    y_mat[k:, 1] = 1.0
    return r_mat, y_mat


def reference_monte_carlo_gap(params: TheoryParams, trials: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Per-trial logit gaps from ridge fits on all n x 2 drawn node features.

    Draws every training feature, forms R^T R and R^T Y by summing over the
    n nodes, and solves each trial's 2 x 2 system; O(n) work per trial.
    """
    b_coef = aggregation_coefficient(params.h, params.d)
    a_coef = aggregation_coefficient(params.h + params.alpha_shift, params.d)
    n, k = params.n, params.k
    means = np.array([params.mu_l, params.mu_s])
    signs = np.ones((n, 1))
    signs[:k] = -1.0
    y_mat = np.zeros((n, 2))
    y_mat[:k, 0] = 1.0
    y_mat[k:, 1] = 1.0
    eye = params.lambda_reg * np.eye(2)
    gaps = np.empty(trials)
    done = 0
    while done < trials:
        m = min(2000, trials - done)  # trials per batched solve
        feats = rng.normal(means, params.sigma, size=(m, n, 2))
        r_mat = b_coef * signs * feats
        gram = np.einsum("mni,mnj->mij", r_mat, r_mat) + eye
        cross = np.einsum("mni,nj->mij", r_mat, y_mat)
        w_mat = np.linalg.solve(gram, cross)
        u_feats = rng.normal(means, params.sigma, size=(m, 2))
        v_feats = rng.normal(means, params.sigma, size=(m, 2))
        r_u = -a_coef * u_feats
        r_v = np.column_stack((-a_coef * v_feats[:, 0], a_coef * v_feats[:, 1]))
        gaps[done:done + m] = (np.einsum("mi,mi->m", r_u, w_mat[:, :, 0])
                               - np.einsum("mi,mi->m", r_v, w_mat[:, :, 0]))
        done += m
    return gaps


def reference_simulate_gaps(params: TheoryParams, trials: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Per-trial logit gaps from the sufficient statistics, by one batched solve.

    Draws what `theory._simulate_gaps` draws, in the same order and shapes,
    stacks each trial's regularized Gram matrix into a (trials, 2, 2) array
    and solves all of them with np.linalg.solve (LAPACK's pivoted LU).
    """
    b_coef = aggregation_coefficient(params.h, params.d)
    a_coef = aggregation_coefficient(params.h + params.alpha_shift, params.d)
    n, k, sigma = params.n, params.k, abs(params.sigma)
    means = np.array([params.mu_l, params.mu_s])
    sum_0 = rng.normal(k * means, math.sqrt(k) * sigma, size=(trials, 2))
    sum_1 = rng.normal((n - k) * means, math.sqrt(n - k) * sigma, size=(trials, 2))
    c1_sq = rng.chisquare(n - 2, trials) if n > 2 else np.zeros(trials)
    c2_sq = rng.chisquare(n - 3, trials) if n > 3 else np.zeros(trials)
    z = rng.standard_normal(trials) if n > 2 else np.zeros(trials)
    c1 = np.sqrt(c1_sq)
    scatter = np.empty((trials, 2, 2))
    scatter[:, 0, 0] = c1_sq
    scatter[:, 0, 1] = scatter[:, 1, 0] = c1 * z
    scatter[:, 1, 1] = z * z + c2_sq
    feat_scatter = (sigma * sigma * scatter
                    + sum_0[:, :, None] * sum_0[:, None, :] / k
                    + sum_1[:, :, None] * sum_1[:, None, :] / (n - k))
    gram = b_coef * b_coef * feat_scatter + params.lambda_reg * np.eye(2)
    w_0 = np.linalg.solve(gram, -b_coef * sum_0[:, :, None])[:, :, 0]
    u_feats = rng.normal(means, sigma, size=(trials, 2))
    v_feats = rng.normal(means, sigma, size=(trials, 2))
    r_diff = -a_coef * np.column_stack((u_feats[:, 0] - v_feats[:, 0],
                                        u_feats[:, 1] + v_feats[:, 1]))
    return (r_diff * w_0).sum(axis=1)


def reference_largest_remainder(quotas, total: int, caps=None) -> np.ndarray:
    """splits.largest_remainder as it was before each pass became one array
    step: every pass walks the order one index at a time, moving a unit at
    each index not yet at its limit, until the remainder is gone or a pass
    moves nothing."""
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


def reference_assign_node_goals(plan, ratios, bin_count: int, seed) -> list:
    """Goal assignment node by node, as homshift.assign_node_goals was.

    Per non-empty source bin, in bin order: split the bin's count over the
    plan row by largest remainder, permute its members with the seeded
    generator, and hand out target bins in order, one NodeGoal per node;
    then sort the goals by node id.
    """
    if plan.bin_count != bin_count:
        raise ValueError("plan bin count does not match b")
    ratios = np.asarray(ratios, dtype=np.float64)
    ids = np.flatnonzero(~np.isnan(ratios))
    if ids.size == 0:
        raise ValueError("no node has a defined ratio")
    bins = bin_index(ratios[ids], bin_count)
    bin_mass = np.bincount(bins, minlength=bin_count) / ids.size
    row_mass = plan.matrix.sum(axis=1)
    if np.abs(row_mass - bin_mass).max() > 1e-6:
        raise ValueError("transport plan is inconsistent with the ratio histogram")
    centers = (np.arange(bin_count) + 0.5) / bin_count
    rng = np.random.default_rng(seed)
    goals = []
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


def reference_best_partner(state, i: int, s: int, d_i: float) -> int:
    """Addition partner of source i by a full candidate mask over all nodes.

    The generator's search before partner pools: mask the nodes with a goal,
    live sign s and i's label (s > 0) or another label (s < 0), drop i and
    its neighbours, gate every candidate in one numpy expression, and take
    the smallest gap among those that pass, ties to the lower id; -1 if
    none passes. Reads the state's per-node values and each live node's
    gap from its filed key; touches no pool.
    """
    labels = np.asarray(state.labels)
    live = np.asarray(state.live)
    same = np.asarray(state.same)
    deg = np.asarray(state.deg)
    goal = np.asarray(state.goal)
    gap = np.array([np.inf if key is None else key[0] for key in state.filed])
    mask = labels == labels[i] if s > 0 else labels != labels[i]
    mask &= ~np.isnan(goal) & (live == s)
    mask[i] = False
    if state.adj[i]:
        mask[list(state.adj[i])] = False
    ks = np.flatnonzero(mask)
    eq = 1 if s > 0 else 0
    change = np.abs((same[ks] + eq) / (deg[ks] + 1) - goal[ks]) - gap[ks]
    ks = ks[d_i + change < -GATE_TOL]
    if ks.size == 0:
        return -1
    return int(ks[np.argmin(gap[ks])])


def reference_removal(state, i: int) -> int:
    """Removed neighbour of a rewire at source i by a full scan of its
    neighbours; -1 if none passes, or if i is not live or has degree 1.

    The generator's pick before per-source removal lists: every neighbour j
    of i's live sign s, with degree above 1 and an edge to i of the kind i
    sheds (cross-label for s > 0, same-label for s < 0), is gated with i's
    change in gap for losing one such edge, and the smallest (gap, id) among
    those that pass is taken. Reads the state's per-node values and each
    live node's gap from its filed key; touches no pool.
    """
    s = state.live[i]
    if s == 0 or state.deg[i] <= 1:
        return -1
    want_diff = s > 0
    eq_rm = 0 if want_diff else 1
    gap_i2 = abs((state.same[i] - eq_rm) / (state.deg[i] - 1) - state.goal[i])
    d_rm_i = gap_i2 - state.filed[i][0]
    best = None
    for j in state.adj[i]:
        if (state.live[j] != s or state.deg[j] <= 1
                or (state.labels[j] != state.labels[i]) != want_diff):
            continue
        gap_j = state.filed[j][0]
        d_j = abs((state.same[j] - eq_rm) / (state.deg[j] - 1) - state.goal[j]) - gap_j
        if d_rm_i + d_j < -GATE_TOL and (best is None or (gap_j, j) < best):
            best = (gap_j, j)
    return -1 if best is None else best[1]


def reference_edit_state(g: Graph, t: NodeTable, goals) -> tuple[list, list, dict]:
    """The per-node status and partner pools of a fresh _EditState, built in bulk.

    The construction before `_refresh` filled the state node by node: one
    vectorised gap |goal - same/deg|, live sign and add change over the
    nodes with a moving goal, then each (label, sign) pool from a mask of
    its members, grouped by (gap, add change) class. A node is live when
    gap * deg > MOVE_TOL. Same-label counts come from the edge array, not
    from the library. Returns each node's (gap, add change) key (None off
    the live nodes) and live sign as lists, and {label: (None, raising
    pool, lowering pool)}, each pool [keys, ids, bound] with keys ascending,
    each class's ids ascending and bound the least add change (inf if the
    pool is empty).
    """
    n = g.node_count
    labels = t.labels
    deg = g.degrees.astype(np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    hit = (labels[u] == labels[v]) & (labels[u] >= 0)
    same = np.bincount(np.concatenate((u[hit], v[hit])), minlength=n)
    goal = np.full(n, np.nan)
    for ng in goals:
        if ng.direction != 0:
            goal[ng.node] = ng.h_goal
    act = np.flatnonzero(~np.isnan(goal))
    diff = goal[act] - same[act] / deg[act]
    gap = np.full(n, np.inf)
    gap[act] = np.abs(diff)
    live = np.zeros(n, dtype=np.int64)
    live[act] = np.where(np.abs(diff) * deg[act] <= MOVE_TOL, 0, np.where(diff > 0, 1, -1))
    add = np.abs((same + (live > 0)) / (deg + 1) - goal) - gap
    add = np.where(live != 0, add, np.inf)
    pools = {}
    for c in np.unique(labels[act]).tolist():
        by_sign = [None, None, None]
        for sign in (-1, 1):
            ks = np.flatnonzero((labels == c) & (live == sign))
            ids = {}
            for key, k in zip(zip(gap[ks].tolist(), add[ks].tolist()), ks.tolist()):
                ids.setdefault(key, []).append(k)
            by_sign[sign] = [sorted(ids), ids, float(add[ks].min(initial=np.inf))]
        pools[c] = tuple(by_sign)
    filed = [(a, b) if s else None for a, b, s in zip(gap.tolist(), add.tolist(), live.tolist())]
    return filed, live.tolist(), pools


def reference_replay(log, g: Graph) -> Graph:
    """`log` applied to `g` one record at a time on adjacency sets.

    The replay before key arithmetic: each record is checked for valid
    endpoints, then for removing a missing or adding a present edge, then
    for an unknown op, and the first bad one raises.
    """
    adj = [set(g.neighbors(v).tolist()) for v in range(g.node_count)]
    n = g.node_count
    for seq, op, u, v in zip(range(len(log)), log.ops, log.us, log.vs):
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"record {seq}: invalid endpoints ({u}, {v})")
        if op == "remove":
            if v not in adj[u]:
                raise ValueError(f"record {seq}: removing missing edge ({u}, {v})")
            adj[u].discard(v)
            adj[v].discard(u)
        elif op == "add":
            if v in adj[u]:
                raise ValueError(f"record {seq}: adding duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        else:
            raise ValueError(f"record {seq}: unknown op {op!r}")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def reference_edit_log_load(path):
    """An edit log read one line at a time; raises naming the first bad line.

    The reader before block decoding, plus the rule that a record's
    seq is its index: each non-blank line is decoded on its own, the first
    one is the header when it is an object with no "op" key, and every
    record is checked in order.
    """
    log = EditLog()
    first = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: expected a JSON object, got {line!r}")
            if first and "op" not in obj:
                log.header = obj
                first = False
                continue
            first = False
            for key in ("seq", "phase", "op", "u", "v"):
                if key not in obj:
                    raise ValueError(f"{where}: record has no {key!r} key")
            for key in ("seq", "u", "v"):
                if type(obj[key]) is not int:
                    raise ValueError(f"{where}: {key!r} must be an integer, "
                                     f"got {obj[key]!r}")
            for key in ("phase", "op"):
                if type(obj[key]) is not str:
                    raise ValueError(f"{where}: {key!r} must be a string, "
                                     f"got {obj[key]!r}")
            if obj["seq"] != len(log):
                raise ValueError(f"{where}: 'seq' must be {len(log)}, got {obj['seq']!r}")
            log.append(obj["phase"], obj["op"], obj["u"], obj["v"])
    return log


def confusion_micro_f1(y_true, y_pred) -> float:
    """Micro-F1 from summed per-class TP/FP/FN counts."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    classes = np.union1d(y_true, y_pred)
    tp = fp = fn = 0
    for c in classes:
        tp += int(((y_pred == c) & (y_true == c)).sum())
        fp += int(((y_pred == c) & (y_true != c)).sum())
        fn += int(((y_pred != c) & (y_true == c)).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


class EditLogChecker:
    """Independent replay of an edit log with potential and simplicity checks.

    Maintains its own adjacency sets and recomputes each touched node's
    homophily by scanning its neighborhood, so agreement with the library's
    incremental bookkeeping is meaningful. Every `audit_every` records the
    running potential is re-derived completely from scratch.
    """

    def __init__(self, g: Graph, t: NodeTable, goals, audit_every: int = 500):
        self.adj = [set(g.neighbors(v).tolist()) for v in range(g.node_count)]
        self.labels = t.labels
        self.goal = {ng.node: ng.h_goal for ng in goals}
        self.touched_zero_direction = False
        self.zero_nodes = {ng.node for ng in goals if ng.direction == 0}
        self.audit_every = audit_every
        self.potentials = [self._full_potential()]

    def _node_h(self, v: int) -> float:
        nbrs = self.adj[v]
        same = sum(1 for w in nbrs if self.labels[w] == self.labels[v] and self.labels[v] >= 0)
        return same / len(nbrs)

    def _full_potential(self) -> float:
        return sum(abs(self._node_h(v) - hg) for v, hg in self.goal.items())

    def apply(self, records):
        pot = self.potentials[0]
        for idx, rec in enumerate(records, start=1):
            u, v = rec.u, rec.v
            assert u != v, f"record {rec.seq}: self loop"
            if u in self.zero_nodes or v in self.zero_nodes:
                self.touched_zero_direction = True
            affected = [w for w in (u, v) if w in self.goal]
            before = sum(abs(self._node_h(w) - self.goal[w]) for w in affected)
            if rec.op == "remove":
                assert v in self.adj[u], f"record {rec.seq}: edge missing"
                self.adj[u].discard(v)
                self.adj[v].discard(u)
            else:
                assert rec.op == "add", f"record {rec.seq}: bad op"
                assert v not in self.adj[u], f"record {rec.seq}: duplicate edge"
                self.adj[u].add(v)
                self.adj[v].add(u)
            after = sum(abs(self._node_h(w) - self.goal[w]) for w in affected)
            assert after < before - 1e-13, (
                f"record {rec.seq}: potential did not strictly decrease "
                f"({before} -> {after})")
            pot += after - before
            self.potentials.append(pot)
            if idx % self.audit_every == 0:
                full = self._full_potential()
                assert abs(full - pot) < 1e-9, "incremental potential drifted"
        final = self._full_potential()
        assert abs(final - pot) < 1e-9
        return self

    def edges(self) -> tuple:
        out = []
        for u, nbrs in enumerate(self.adj):
            out.extend((u, w) for w in nbrs if u < w)
        return tuple(sorted(out))
