"""Immutable simple-graph containers, file IO, and dataset preprocessing ops."""

from __future__ import annotations

import functools
import io
import logging
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Marker for a missing label or sensitive attribute in a NodeTable.
INVALID = -1


# Largest node count whose canonical keys lo * n + hi fit in int64.
_MAX_NODES = 3_037_000_499


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on the dense node set 0..node_count-1.

    Representation: `edges` is the canonical (m, 2) int64 array of (u, v)
    pairs with u < v, sorted ascending, read-only and C-contiguous, and
    `degrees` holds each node's neighbour count. The adjacency is CSR: the
    neighbours of v are `indices[indptr[v]:indptr[v+1]]`, sorted ascending
    (`neighbors(v)`). The CSR pair is built on first access and kept, so a
    caller that reads only `edges` and `degrees` never pays its sort. All
    arrays are read-only; build graphs with `from_edges`.

    Equality compares `node_count` and `edges`, so graphs built from equal
    edge sets (in any order, with any duplicates) compare equal and
    serialize identically; graphs on different node counts never do.

    `load_edge_list` accepts ASCII decimal node ids (`[+-]?[0-9]+`, within
    int64), two per line, separated by whitespace and/or commas.
    """

    node_count: int
    edges: np.ndarray
    degrees: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(self.edges, other.edges)

    @staticmethod
    def from_edges(node_count: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs or an (m, 2) int array.

        Duplicate and reversed-duplicate pairs collapse to one edge.
        Self-loops and out-of-range ids are rejected, naming the first
        offending pair.
        """
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        if node_count > _MAX_NODES:
            raise ValueError(f"node_count {node_count} too large")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            for u, v in edges:  # an id beyond int64 is out of range; name the first bad pair
                _check_pair(int(u), int(v), node_count)
            raise
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs; got shape {pairs.shape}")
        u, v = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= node_count))
        if bad.size:
            _check_pair(int(u[bad[0]]), int(v[bad[0]]), node_count)
        # Sort the keys and mask adjacent repeats rather than call np.unique:
        # on 687k keys under numpy 2.4, np.unique takes 0.6 s, this 0.012 s.
        keys = lo * node_count + hi
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        canon = np.column_stack(np.divmod(keys, node_count))
        degrees = np.bincount(canon.ravel(), minlength=node_count)
        for arr in (canon, degrees):
            arr.flags.writeable = False
        return Graph(node_count, canon, degrees)

    def widened(self, node_count: int) -> "Graph":
        """The same edges on `node_count` nodes; the added trailing nodes are isolated.

        The canonical edge array does not depend on the node count, so it is
        shared; only `degrees` grows.
        """
        if node_count < self.node_count:
            raise ValueError(f"cannot narrow a {self.node_count}-node graph to {node_count}")
        if node_count > _MAX_NODES:
            raise ValueError(f"node_count {node_count} too large")
        degrees = np.concatenate((self.degrees,
                                  np.zeros(node_count - self.node_count, dtype=self.degrees.dtype)))
        degrees.flags.writeable = False
        return Graph(node_count, self.edges, degrees)

    @functools.cached_property
    def indptr(self) -> np.ndarray:
        """CSR row offsets: node v's neighbours are indices[indptr[v]:indptr[v + 1]]."""
        indptr = np.concatenate(([0], np.cumsum(self.degrees)))
        indptr.flags.writeable = False
        return indptr

    @functools.cached_property
    def indices(self) -> np.ndarray:
        """CSR neighbour ids, grouped by node and ascending within each group."""
        n = self.node_count
        u, v = self.edges[:, 0], self.edges[:, 1]
        # Both directions of every edge, keyed by (source, target): sorting the
        # keys groups the targets by source, each group ascending.
        both = np.concatenate((u * n + v, v * n + u))
        both.sort()
        indices = both % n
        indices.flags.writeable = False
        return indices

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, 2) int64 array; (0, 2)-shaped when there are none."""
        return self.edges

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbours of v, a read-only view into `indices`."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


def _check_pair(u: int, v: int, node_count: int) -> None:
    """Raise for a self-loop or an out-of-range id; return for a valid pair."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) not allowed")
    if not (0 <= u < node_count and 0 <= v < node_count):
        raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")


@dataclass(frozen=True)
class NodeTable:
    """Per-node class label, sensitive attribute, and optional features.

    Missing labels/attributes carry the INVALID marker instead of being
    dropped, so the table stays index-aligned with its graph.
    """

    labels: np.ndarray
    sensitive: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        sensitive = np.asarray(self.sensitive, dtype=np.int64)
        if labels.shape != sensitive.shape or labels.ndim != 1:
            raise ValueError("labels and sensitive must be equal-length 1-D arrays")
        features = self.features
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != labels.shape[0]:
                raise ValueError("features must be a (n, f) array aligned with labels")
            features.flags.writeable = False
        labels.flags.writeable = False
        sensitive.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sensitive", sensitive)
        object.__setattr__(self, "features", features)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def take(self, ids: np.ndarray) -> "NodeTable":
        """Row subset in the given id order."""
        feats = None if self.features is None else self.features[ids].copy()
        return NodeTable(self.labels[ids].copy(), self.sensitive[ids].copy(), feats)


def load_edge_list(path, one_indexed: bool = False) -> Graph:
    """Parse a whitespace- or comma-separated edge list into a Graph.

    '#' starts a comment. Duplicate lines and reversed duplicates collapse;
    self-loops are dropped, with drop counts reported through the module
    logger. The node count is the largest id plus one.

    A local regular file is parsed straight from its name, which numpy
    reads in chunks. If that parse fails or its rows do not pass (a comma,
    a bad id), the file's text is parsed again with commas read as spaces,
    and an error from that pass names the first bad line. The file is
    always read as UTF-8 text: a name ending in .gz, .bz2, .xz or .lzma is
    not decompressed, and a missing file raises FileNotFoundError even
    when a compressed sibling exists.
    """
    lowest = 1 if one_indexed else 0
    name = _plain_file_name(path)
    pairs = None if name is None else _parse_pairs(name)
    if pairs is None or pairs.shape[0] == 0 or pairs.shape[1] != 2 or (pairs < lowest).any():
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        pairs = _parse_pairs(io.StringIO(text.replace(",", " ")))
        if pairs is not None and pairs.shape[0] == 0:
            raise ValueError(f"{path}: empty edge list")
        if pairs is None or pairs.shape[1] != 2 or (pairs < lowest).any():
            raise ValueError(_first_bad_line(path, text, one_indexed)
                             or f"{path}: unparseable edge list")
    pairs -= lowest
    loops = pairs[:, 0] == pairs[:, 1]
    g = Graph.from_edges(int(pairs.max()) + 1, pairs[~loops])
    self_loops = int(loops.sum())
    duplicates = pairs.shape[0] - self_loops - g.edge_count
    if self_loops or duplicates:
        logger.info(
            "%s: dropped %d self-loop(s), collapsed %d duplicate edge line(s)",
            path, self_loops, duplicates,
        )
    return g


# The suffixes numpy's DataSource decompresses (numpy.lib._datasource._file_openers).
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


def _plain_file_name(path) -> str | None:
    """`path` as an absolute name if np.loadtxt may open it as itself, else None.

    np.loadtxt opens a str name through numpy's DataSource, which fetches a
    URL, opens a compressed sibling (`e.txt.gz`) of a missing file, and
    decompresses by suffix. An existing regular file's name, prefixed with
    the working directory when relative, never reads as a URL and is found
    as itself; a compressed suffix is refused.
    """
    try:
        name = os.path.join(os.getcwd(), os.fspath(path))
    except TypeError:  # a file descriptor, say: open() alone reads it
        return None
    except OSError:  # no working directory, which DataSource also needs
        return None
    if (isinstance(name, str) and os.path.isfile(name)
            and os.path.splitext(name)[1] not in _COMPRESSED_SUFFIXES):
        return name
    return None


def _parse_pairs(source) -> np.ndarray | None:
    """np.loadtxt's (r, c) int64 array of whitespace-separated ids, or None if it fails."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except ValueError:
        return None


_NODE_ID = re.compile(r"[+-]?[0-9]+", re.ASCII)


def _first_bad_line(path, text: str, one_indexed: bool) -> str | None:
    """Message naming the first line of `text` that is not a valid edge, if any.

    Accepts exactly what load_edge_list's comma-reading bulk parse accepts;
    it runs only after that parse failed, to say where.
    """
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        tokens = raw.split("#", 1)[0].replace(",", " ").split()
        if not tokens:
            continue
        if len(tokens) != 2:
            return f"{path}: line {lineno}: expected two node ids, got {raw!r}"
        if not all(_NODE_ID.fullmatch(tok) for tok in tokens):
            return f"{path}: line {lineno}: non-integer node id in {raw!r}"
        values = [int(tok) for tok in tokens]
        if any(not -2**63 <= x < 2**63 for x in values):
            return f"{path}: line {lineno}: node id beyond int64 in {raw!r}"
        if min(values) < (1 if one_indexed else 0):
            return f"{path}: line {lineno}: negative node id after adjustment"
    return None


def save_edge_list(g: Graph, path) -> None:
    """Write the canonical sorted edge list, `u v` with u < v, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(("%d %d\n" * g.edge_count) % tuple(g.edges.ravel().tolist()))


def read_id_table(path, columns, converters=None):
    """Rows of a CSV keyed by node id, in file order; errors name the file and line.

    The header's cells, stripped, must be `columns`, or start with them when
    `columns` ends with `...` (the further columns are floats). Blank lines
    are skipped, and a cell may be double-quoted on one line (README, "File
    formats"). Column 0 holds unique non-negative node ids. `converters`
    maps a column index to a function from cell text to int that raises
    ValueError on a bad cell; errors call the column by the function's name.
    The bulk parse calls it once per distinct cell text. Other columns are
    read as int() reads them.

    Returns (ints, floats, lines): the (r, k) int64 array of the k named
    columns, the (r, f) float64 array of the further ones (None if there are
    none), and each row's line number. A file with no blank line keeps its
    split lines as they are, numbered 2..r+1; only a file with one is
    filtered line by line. Rows are parsed in bulk; if that fails, they are
    parsed again one by one with the same converters, which names the first
    bad line or, for a value only int() or float() reads (such as `1_000`),
    gives the table.
    """
    names = [c for c in columns if c is not ...]
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().split("\n")
    header = [cell.strip() for cell in _cells(text[0])] if text[0].strip() else []
    if header[:len(names)] != names or (columns[-1] is not ... and len(header) != len(names)):
        raise ValueError(f"{path}: line 1: header must start with '{','.join(names)}'"
                         f"{'' if columns[-1] is ... else ' and end there'}; got {text[0]!r}")
    body = text[1:-1] if text[-1] == "" else text[1:]  # the final newline leaves an ""
    # A line is blank when `not line.strip()`, that is when it is "" or all
    # whitespace; both tests run in C over the whole list.
    if "" in body or any(map(str.isspace, body)):
        lines = np.array([i for i, line in enumerate(body, start=2) if line.strip()],
                         dtype=np.int64)
        body = [line for line in body if line.strip()]
    else:
        lines = np.arange(2, len(body) + 2, dtype=np.int64)
    k, f = len(names), len(header) - len(names)
    converters = converters or {}
    # np.loadtxt calls a converter on every cell, and a node table or split
    # file holds a handful of distinct cells: look each text up instead.
    cached = {conv: functools.cache(conv) for conv in converters.values()}
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(body, dtype=[("ints", np.int64, (k,)), ("floats", np.float64, (f,))],
                               delimiter=",", quotechar='"', comments=None, ndmin=1,
                               converters={c: cached[conv] for c, conv in converters.items()})
        ints, floats = table["ints"], table["floats"]
        # sort and diff rather than np.unique: 0.4 ms against 10 ms on 39.5k ids
        # under numpy 2.4. Fewer rows than lines means a quote joined two lines.
        ids = np.sort(ints[:, 0])
        if ids.size != len(body) or (ids < 0).any() or (np.diff(ids) == 0).any():
            raise ValueError("rejected by the bulk parse")
    except (ValueError, OverflowError):
        ints, floats = _parse_rows(path, body, lines, header, k, converters)
    return ints, floats if f else None, lines


def _cells(line: str) -> list[str]:
    """The cells of one CSV line, unquoted, as the bulk parse in read_id_table splits it."""
    if '"' not in line:  # the same cells, without np.loadtxt's 0.2-1 ms per call
        return line.split(",")
    return np.loadtxt([line], dtype=str, delimiter=",", quotechar='"', comments=None,
                      ndmin=1).tolist()


def _parse_rows(path, body, lines, header, k, converters):
    """read_id_table's row-by-row pass: (ints, floats), or raise at the first bad line."""
    convert = [converters.get(c, int) if c < k else float for c in range(len(header))]
    pattern = ",".join(["<integer node id>"] + [
        "<integer>" if conv is int else f"<{conv.__name__.strip('_').replace('_', ' ')}>"
        for conv in convert[1:k]]) + (",<number>..." if len(header) > k else "")
    first_line: dict[int, int] = {}
    rows = []
    for lineno, line in zip(lines.tolist(), body):
        where = f"{path}: line {lineno}: "
        expected = f"{where}expected '{pattern}', got {line!r}"
        cells = _cells(line)
        if len(cells) != len(header):
            raise ValueError(f"{expected} (expected {len(header)} fields, got {len(cells)})")
        try:
            node = int(cells[0])
        except ValueError:
            raise ValueError(f"{expected} (non-integer node id {cells[0]!r})") from None
        if node < 0:
            raise ValueError(f"{where}negative node id {node}")
        if node in first_line:
            raise ValueError(f"{where}duplicate node id {node} (first on line {first_line[node]})")
        first_line[node] = lineno
        rows.append([node])
        for name, conv, cell in zip(header[1:], convert[1:], cells[1:]):
            try:
                rows[-1].append(conv(cell))
            except ValueError as exc:
                raise ValueError(f"{expected} ({name}: {exc})") from None
        if not all(-2**63 <= v < 2**63 for v in rows[-1][:k]):
            raise ValueError(f"{expected} (a value beyond int64)")
    r, f = len(rows), len(header) - k
    return (np.array([row[:k] for row in rows], dtype=np.int64).reshape(r, k),
            np.array([row[k:] for row in rows], dtype=np.float64).reshape(r, f))


def _integer_or_blank(cell: str) -> int:
    """A node-table label or sensitive cell: blank is INVALID."""
    if not cell.strip():
        return INVALID
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"non-integer value {cell!r}") from None


def load_node_table(path) -> NodeTable:
    """Read a node table CSV with header node_id,label,sensitive[,f0,f1,...].

    The file follows read_id_table's rules; its node ids must cover 0..n-1,
    in any order, and rows are stored by id. A blank label or sensitive
    cell becomes the INVALID marker; any columns past the third are parsed
    as float features.
    """
    ints, features, lines = read_id_table(path, ("node_id", "label", "sensitive", ...),
                                          {1: _integer_or_blank, 2: _integer_or_blank})
    n = ints.shape[0]
    if n == 0:
        raise ValueError(f"{path}: node table has no rows")
    ids = ints[:, 0]
    if ids.max() >= n:  # unique ids below n would cover 0..n-1
        row = int(np.argmax(ids >= n))
        raise ValueError(f"{path}: line {lines[row]}: node_id {ids[row]} outside 0..{n - 1}; "
                         f"the ids must cover 0..{n - 1}")
    by_id = np.argsort(ids)
    return NodeTable(ints[by_id, 1], ints[by_id, 2],
                     None if features is None else features[by_id])


def save_node_table(t: NodeTable, path) -> None:
    """Inverse of load_node_table; INVALID values are written as empty fields."""
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


def induced_subgraph(g: Graph, t: NodeTable, keep: np.ndarray) -> tuple[Graph, NodeTable, np.ndarray]:
    """Subgraph on `keep` (sorted original ids), compacted to 0..len(keep)-1.

    Returns (graph, table, node_map) with node_map[new_id] == original_id.
    """
    keep = np.asarray(keep, dtype=np.int64)
    new_of_old = np.full(g.node_count, -1, dtype=np.int64)
    new_of_old[keep] = np.arange(keep.shape[0])
    mapped = new_of_old[g.edges]
    sub = Graph.from_edges(int(keep.shape[0]), mapped[(mapped >= 0).all(axis=1)])
    return sub, t.take(keep), keep.copy()


def connected_components(g: Graph) -> np.ndarray:
    """Component id per node; ids are ordered by first (smallest) member."""
    # imported here so that importing homshift does not pay for csgraph
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components as label_components

    n = g.node_count
    if n == 0:
        return np.empty(0, dtype=np.int64)
    adjacency = csr_array((np.ones(g.indices.size, dtype=np.int8), g.indices, g.indptr),
                          shape=(n, n))
    count, comp = label_components(adjacency, directed=False)
    # renumber the components in order of their smallest member
    first = np.full(count, n, dtype=np.int64)
    np.minimum.at(first, comp, np.arange(n))
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(count)
    return rank[comp]


def largest_connected_component(g: Graph, t: NodeTable) -> tuple[Graph, NodeTable, np.ndarray]:
    """Induced subgraph on the largest component, ids compacted.

    Size ties break toward the component containing the smallest original
    node id. Returns (graph, table, node_map), node_map[new] == old.
    """
    if g.node_count == 0:
        raise ValueError("graph has no nodes")
    comp = connected_components(g)
    sizes = np.bincount(comp)
    # component ids are assigned in order of smallest member, so argmax's
    # first-maximum rule implements the smallest-min-id tie break
    target = int(np.argmax(sizes))
    keep = np.flatnonzero(comp == target)
    return induced_subgraph(g, t, keep)


def filter_top_classes(
    g: Graph,
    t: NodeTable,
    k: int,
    exclude: frozenset[int] | set[int] = frozenset(),
) -> tuple[Graph, NodeTable, np.ndarray]:
    """Keep the k most frequent classes (minus `exclude`), then take the LCC.

    Nodes survive the filter only if their class ranks in the top k AND their
    sensitive attribute is valid. Class ids are re-mapped densely by
    descending frequency (frequency ties rank the lower original id first);
    sensitive ids are compacted preserving ascending order. Returns
    (graph, table, node_map) with node_map[new] == original id in `g`.
    """
    if len(t) != g.node_count:
        raise ValueError("node table does not match graph size")
    if k < 1:
        raise ValueError("k must be positive")
    valid_label = t.labels >= 0
    candidate = valid_label & ~np.isin(t.labels, list(exclude))
    classes, counts = np.unique(t.labels[candidate], return_counts=True)
    if classes.shape[0] < k:
        raise ValueError(f"only {classes.shape[0]} classes available after exclusion, need {k}")
    # rank by descending count, ties toward the lower original class id
    order = np.lexsort((classes, -counts))
    top = order[:k]  # indices into the sorted `classes`, most frequent first
    keep_mask = np.isin(t.labels, classes[top]) & (t.sensitive >= 0)
    keep = np.flatnonzero(keep_mask)
    if keep.shape[0] == 0:
        raise ValueError("no nodes survive the class/sensitive filter")
    sub_g, sub_t, node_map = induced_subgraph(g, t, keep)
    sub_g, sub_t, lcc_map = largest_connected_component(sub_g, sub_t)
    node_map = node_map[lcc_map]
    rank = np.empty(classes.shape[0], dtype=np.int64)
    rank[top] = np.arange(k)
    # the LCC may have dropped a class entirely; re-compact preserving rank order
    _, new_labels = np.unique(rank[np.searchsorted(classes, sub_t.labels)], return_inverse=True)
    _, new_sens = np.unique(sub_t.sensitive, return_inverse=True)
    return sub_g, NodeTable(new_labels, new_sens, sub_t.features), node_map
