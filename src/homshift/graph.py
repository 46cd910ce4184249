"""Immutable simple-graph and node-table containers and their file IO."""

from __future__ import annotations

import functools
import io
import logging
import numbers
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


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, ascending. Sorts `keys`, a buffer the
    caller owns, in place.

    Sort and mask adjacent repeats rather than call np.unique: on 687k keys
    under numpy 2.4, np.unique takes 0.6 s, this 0.012 s. The mask is
    written in place, which saves the copy np.diff's prepend would make.
    """
    keys.sort()
    first = np.empty(keys.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on the dense node set 0..node_count-1.

    Representation: `edges` is the canonical (m, 2) int64 array of (u, v)
    pairs with u < v, sorted ascending, read-only and C-contiguous, and
    `degrees` holds each node's neighbour count. The adjacency is CSR: the
    neighbours of v are `indices[indptr[v]:indptr[v+1]]`, sorted ascending
    (`neighbors(v)`). Only `neighbors` and README's scipy recipe read the
    CSR pair; it is built on first access and kept, so a caller that reads
    only `edges` and `degrees` never pays its sort. The generator reads the
    adjacency once, from a pair the graph does not keep. All arrays are
    read-only; build graphs with `from_edges`.

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
        offending pair; a non-integral id is refused (`int64_array`).
        """
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        if node_count > _MAX_NODES:
            raise ValueError(f"node_count {node_count} too large")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = int64_array(edges, "edge endpoints")
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
        # The keys lo * node_count + hi are formed in lo's buffer, and hi and
        # this call's own hold on the pairs go before the sort, so the keys
        # are the only m-length int64 temporary left for the sort and the
        # build that this call made.
        lo *= node_count
        lo += hi
        keys = lo
        del lo, hi, u, v, pairs, edges
        keys = _distinct_sorted(keys)
        return Graph._from_keys(node_count, keys)

    @staticmethod
    def _from_keys(node_count: int, keys: np.ndarray) -> "Graph":
        """The graph whose edges have the canonical keys lo * node_count + hi.

        `keys` must be an int64 array of distinct keys of valid pairs
        (0 <= lo < hi < node_count), ascending; this is not checked. Callers
        that hold such keys build here instead of sending an (m, 2) copy
        back through `from_edges`.
        """
        canon = np.empty((keys.shape[0], 2), dtype=np.int64)
        np.divmod(keys, node_count, out=(canon[:, 0], canon[:, 1]))
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
        return self._csr()[1]

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR pair (indptr, indices), with `indices` built afresh.

        The graph keeps the small `indptr` but not this `indices` (2m ids),
        so a caller that reads the adjacency once does not leave it cached
        on a graph that outlives the read.
        """
        n = self.node_count
        u, v = self.edges[:, 0], self.edges[:, 1]
        # Both directions of every edge, keyed by (source, target): sorting the
        # keys groups the targets by source, each group ascending.
        both = np.concatenate((u * n + v, v * n + u))
        both.sort()
        indices = np.remainder(both, n, out=both)
        indices.flags.writeable = False
        return self.indptr, indices

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, 2) int64 array; (0, 2)-shaped when there are none."""
        return self.edges

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbours of v, a read-only view into `indices`.

        Raises IndexError unless 0 <= v < node_count; a negative id does not
        count from the end.
        """
        if not 0 <= v < self.node_count:
            raise IndexError(f"node {v} outside 0..{self.node_count - 1}")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


def int64_array(values, what: str) -> np.ndarray:
    """`values` as an int64 array, refusing a value that is not an int64 integer.

    Integer input and integral values such as 2.0 convert as
    `np.asarray(values, dtype=np.int64)` does. A float array is first
    checked, so 0.5, NaN, an infinity or 1e30 raises ValueError naming
    `what` and the first such value instead of being truncated; so does an
    object array's first value that is neither an int nor int-valued, such
    as Fraction(1, 2), Decimal("0.5") or 0.5. An integer beyond int64
    raises OverflowError, from a list as from an unsigned array.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        bad = ~((np.trunc(arr) == arr) & (np.abs(arr) < 2.0**63))
        if bad.any():
            raise ValueError(f"{what} must be int64 integers, got {arr[bad].item(0)!r}")
    elif arr.dtype.kind == "u":
        if arr.size and arr.max() >= 2**63:
            raise OverflowError(f"{what} must be int64 integers, got {arr.max()}")
    elif arr.dtype.kind == "O":
        for x in arr.flat:
            if not (isinstance(x, numbers.Integral) or _is_int64_valued(x)):
                shown = x.item() if isinstance(x, np.generic) else x
                raise ValueError(f"{what} must be int64 integers, got {shown!r}")
    return np.asarray(values, dtype=np.int64)


def _is_int64_valued(x) -> bool:
    """Whether a non-int object equals an int64 integer, as 2.0 or Fraction(4, 2) does."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return False
    return i == x and -2**63 <= i < 2**63


def owned_readonly(arr: np.ndarray, source) -> np.ndarray:
    """`arr`, converted from `source`, as a read-only array no caller can write.

    A conversion that returned `source` itself, or a view of another
    buffer, is copied first, so the caller's array stays writable and a
    later write to it does not show through.
    """
    if arr is source or not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


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
    dropped, so the table stays index-aligned with its graph. The table
    keeps read-only arrays of its own; it never marks or shares the
    caller's.
    """

    labels: np.ndarray
    sensitive: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = int64_array(self.labels, "labels")
        sensitive = int64_array(self.sensitive, "sensitive")
        if labels.shape != sensitive.shape or labels.ndim != 1:
            raise ValueError("labels and sensitive must be equal-length 1-D arrays")
        features = self.features
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != labels.shape[0]:
                raise ValueError("features must be a (n, f) array aligned with labels")
            features = owned_readonly(features, self.features)
        object.__setattr__(self, "labels", owned_readonly(labels, self.labels))
        object.__setattr__(self, "sensitive", owned_readonly(sensitive, self.sensitive))
        object.__setattr__(self, "features", features)

    def __len__(self) -> int:
        return int(self.labels.shape[0])


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
    text = None
    if pairs is None or pairs.shape[0] == 0 or pairs.shape[1] != 2 or pairs.min() < lowest:
        text = _read_text(path)
        pairs = _parse_pairs(io.StringIO(text.replace(",", " ")))
        if pairs is not None and pairs.shape[0] == 0:
            raise ValueError(f"{path}: empty edge list")
        if pairs is None or pairs.shape[1] != 2 or pairs.min() < lowest:
            raise ValueError(_first_bad_line(path, text, one_indexed)
                             or f"{path}: unparseable edge list")
    if lowest:
        pairs -= lowest
    node_count = int(pairs.max()) + 1
    if node_count > _MAX_NODES:
        text = _read_text(path) if text is None else text
        raise ValueError(_first_bad_line(path, text, one_indexed)
                         or f"{path}: node_count {node_count} too large")
    # The ids are valid, so the graph is built here from the edge keys
    # lo * node_count + hi, as Graph.from_edges builds it. The keys are formed
    # from the parsed array, this function's own, with hi written over its
    # second column, and the array is dropped before the sort: of the m-row
    # buffers only the keys live on.
    rows = pairs.shape[0]
    u, v = pairs[:, 0], pairs[:, 1]
    keep = u != v
    self_loops = rows - int(np.count_nonzero(keep))
    keys = np.minimum(u, v)
    np.maximum(u, v, out=v)
    keys *= node_count
    keys += v
    del u, v, pairs, text
    if self_loops:
        keys = keys[keep]
    del keep
    keys = _distinct_sorted(keys)
    g = Graph._from_keys(node_count, keys)
    duplicates = rows - self_loops - g.edge_count
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


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _first_bad_line(path, text: str, one_indexed: bool) -> str | None:
    """Message naming the first line of `text` that is not a valid edge, if any.

    Accepts exactly what load_edge_list's comma-reading bulk parse accepts
    and keeps within the supported node count; it runs only after that
    parse failed or found an id beyond that count, to say where.
    """
    lowest = 1 if one_indexed else 0
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
        if min(values) < lowest:
            return f"{path}: line {lineno}: negative node id after adjustment"
        if max(values) - lowest >= _MAX_NODES:
            return (f"{path}: line {lineno}: node id beyond the supported node count "
                    f"{_MAX_NODES} in {raw!r}")
    return None


# Edge lists are written this many edges at a time, which bounds the memory
# the text takes beyond the graph.
_EDGE_CHUNK = 8192


def save_edge_list(g: Graph, path) -> None:
    """Write the canonical sorted edge list, `u v` with u < v, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for a in range(0, g.edge_count, _EDGE_CHUNK):
            chunk = g.edges[a:a + _EDGE_CHUNK]
            fh.write(("%d %d\n" * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _id_cell_rows(cells: list) -> str:
    """`node,cell` lines for the nodes 0, 1, ..., one per str in `cells`.

    The text is one `%` over the flat (node, cell) tuple, as save_edge_list
    formats its chunks.
    """
    flat = [None] * (2 * len(cells))
    flat[::2] = range(len(cells))
    flat[1::2] = cells
    return ("%d,%s\n" * len(cells)) % tuple(flat)


def read_id_table(path, columns, converters=None):
    """Rows of a CSV keyed by node id, in file order; errors name the file and line.

    The header's cells, stripped, must be `columns`, or start with them when
    `columns` ends with `...` (the further columns are floats). Blank lines
    are skipped, and a cell may be double-quoted on one line (README, "File
    formats"). Column 0 holds unique non-negative node ids. `converters`
    maps a column index to a function from cell text to int that raises
    ValueError on a bad cell; errors call the column by the function's name.
    The bulk parse stores those cells as text and calls each converter once
    per distinct text, over all the columns it serves; a file whose text it
    could not store exactly (a NUL anywhere, or a converter cell longer than
    8 characters or not ASCII) is read row by row instead, with the same
    result. Other columns are read as int() reads them.

    Returns (ints, floats, lines): the (r, k) int64 array of the k named
    columns, the (r, f) float64 array of the further ones (None if there are
    none), and each row's line number. The file is read once as text, for
    the header and for two tests in C over the whole text: whether a line
    after the header is blank (`_has_blank_line`), and whether the text
    holds a `"`. When neither holds and `_plain_file_name` gives the
    file's name, np.loadtxt parses the file again from that name, past its
    first line, and the rows are numbered 2..r+1, r being the lines after
    the header. Both reads decode UTF-8 with universal newlines, so they
    see the same lines; the rows numpy returns must number r, or the
    row-by-row pass below reads the file. Otherwise np.loadtxt parses the
    text's lines, blank ones dropped. If the bulk parse fails, the rows are
    parsed again one by one with the same converters, which names the first
    bad line or, for a value only int() or float() reads (such as `1_000`),
    gives the table.
    """
    names = [c for c in columns if c is not ...]
    content = _read_text(path)
    first, _, rest = content.partition("\n")
    header = [cell.strip() for cell in _cells(first)] if first.strip() else []
    if header[:len(names)] != names or (columns[-1] is not ... and len(header) != len(names)):
        raise ValueError(f"{path}: line 1: header must start with '{','.join(names)}'"
                         f"{'' if columns[-1] is ... else ' and end there'}; got {first!r}")
    # the r lines after the header; a final newline ends the last one
    r = rest.count("\n") + (not rest.endswith("\n")) if rest else 0
    blank = bool(rest) and _has_blank_line(rest)
    name = None if blank or '"' in content else _plain_file_name(path)
    lines = np.arange(2, r + 2, dtype=np.int64)
    body = None if name else rest.split("\n")[:r]  # split only for a parse of the lines
    if blank:
        keep = [i for i, line in enumerate(body) if line.strip()]
        lines, body = lines[keep], [body[i] for i in keep]
    k, f = len(names), len(header) - len(names)
    converters = converters or {}
    served: dict = {}  # each converter's columns, converted together: each text once
    for c, conv in converters.items():
        if c < k:  # as in the row-by-row pass, the float columns take none
            served.setdefault(conv, []).append(c)
    try:
        # numpy's string fields drop trailing NULs, so `1\0` would reach a
        # converter as `1`; the row-by-row pass reads such a file instead.
        if "\0" in content:
            raise ValueError("a NUL in the file")
        # Given converters, np.loadtxt calls one in Python on every cell;
        # stored as text, the cells are split and kept in C instead.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(body if name is None else name,
                               dtype=[(f"c{c}", _CELL if c in converters else np.int64)
                                      for c in range(k)] + [("floats", np.float64, (f,))],
                               delimiter=",", quotechar='"', comments=None, ndmin=1,
                               skiprows=0 if name is None else 1, encoding="utf-8")
        ints = np.empty((table.shape[0], k), dtype=np.int64)
        for c in range(k):
            if c not in converters:
                ints[:, c] = table[f"c{c}"]
        for conv, cols in served.items():
            ints[:, cols] = _convert_each_text_once(
                conv, np.stack([table[f"c{c}"] for c in cols], axis=1))
        floats = table["floats"]
        # sort and diff rather than np.unique: 0.4 ms against 10 ms on 39.5k ids
        # under numpy 2.4. Rows other than the lines mean a quote joined two
        # lines, or that the file changed between its two reads.
        ids = np.sort(ints[:, 0])
        if ids.size != lines.size or (ids < 0).any() or (np.diff(ids) == 0).any():
            raise ValueError("rejected by the bulk parse")
    except (ValueError, OverflowError):
        if body is None:
            body = rest.split("\n")[:r]
        ints, floats = _parse_rows(path, body, lines, header, k, converters)
    return ints, floats if f else None, lines


# str.isspace's ASCII characters other than "\n"; a text of other ASCII
# characters has no whitespace-only line.
_ASCII_SPACE = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
# A line of "" or whitespace between two newlines. re's \s is str.isspace
# on every code point (tests/test_graph.py), so this finds what
# `not line.strip()` finds.
_BLANK_LINE = re.compile(r"\n\s*\n")


def _has_blank_line(rest: str) -> bool:
    """Whether a line of `rest` (the text after the header line, non-empty) is blank.

    A blank line is "" or whitespace only, as `not line.strip()` tells; a
    final newline ends the last line rather than starting an empty one.
    The tests run in C over the whole text: "\\n\\n" or a leading newline
    is an empty line, and only a text holding a whitespace character other
    than "\\n" is searched for one of whitespace.
    """
    if "\n\n" in rest or rest.startswith("\n"):
        return True
    if rest.isascii() and not any(c in rest for c in _ASCII_SPACE):
        return False
    return _BLANK_LINE.search("\n" + rest if rest.endswith("\n") else f"\n{rest}\n") is not None


# read_id_table's field for a converter cell: np.loadtxt stores its text as
# latin-1 bytes (refusing a character beyond U+00FF), one byte wider than
# the uint64 key _convert_each_text_once reads, so a longer cell shows.
_CELL = "S9"


def _convert_each_text_once(convert, cells: np.ndarray) -> np.ndarray:
    """int64 array of convert(cell) for a `_CELL` array, one call per distinct text.

    A cell's first 8 bytes, NUL-padded, are read as one uint64 key, so the
    distinct texts are found by sorting the keys in C and read back from
    them (the caller has refused a file holding a NUL). A cell that fills
    the field (it may have been cut) or holds a byte beyond ASCII raises
    ValueError, as does any converter error.
    """
    if cells.getfield(np.uint8, 8).any():
        raise ValueError("a cell of 9 or more characters")
    keys = cells.getfield(np.uint64).ravel()
    # sort and mask repeats rather than call np.unique, as Graph.from_edges does
    distinct = np.sort(keys)
    first = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    # S8 drops the padding NULs; UnicodeDecodeError is a ValueError
    texts = [text.decode("ascii") for text in distinct.view("S8").tolist()]
    values = np.array([convert(text) for text in texts], dtype=np.int64)
    return values[np.searchsorted(distinct, keys)].reshape(cells.shape)


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
    columns = [map(str, range(len(t)))] + [
        ["" if x == INVALID else str(x) for x in col.tolist()] for col in (t.labels, t.sensitive)]
    if t.features is not None:
        columns += [map(repr, col) for col in t.features.T.tolist()]
    rows = [",".join(cells) + "\n" for cells in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([",".join(header) + "\n"] + rows))
