"""The generator's edit log: an ordered, replayable record of edge edits.

A log is saved as JSON Lines: a header object, then one object per record
with sorted keys. `EditLog.save` writes that form, `EditLog.load` reads it
back, and `EditLog.replay` applies a log to a graph.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

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


def _int64_ids(ids: list) -> np.ndarray:
    """ids as an int64 array; an id beyond int64 becomes -1, out of range as it was."""
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        return np.asarray([x if -2**63 <= x < 2**63 else -1 for x in ids], dtype=np.int64)


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


def _block_columns(block: list[str], index: int):
    """(phases, ops, us, vs) of a block of record lines whose first seq is
    `index`, or None unless every line is in `save`'s exact form for the
    generator's words, with seq equal to its index.

    With its digits deleted, each line must be one of the `_SKELETONS`.
    Only a skeleton's three number slots sit right after ": " and right
    before "," or "}", and a slot holds one maximal digit run, so three
    such runs per line fill the slots exactly. A run with no leading zero
    and at most 18 digits is the JSON int of its int64 value.
    """
    data = "".join(block).encode()
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

        What `load` would refuse or read back as something else, or `%d`
        would write as another number, raises ValueError before the file is
        opened: a header that is not a dict, has an "op" key, holds NaN or
        an infinity, or does not load back equal (a non-str key, a tuple, a
        value JSON cannot write); a phase or op that is not a string, named;
        or a u or v that is not an int or numpy integer (a bool, a float, a
        str), named with its record's seq.
        """
        if not _is_header(self.header):
            raise ValueError(f"header must be a dict without an 'op' key, got {self.header!r}")
        try:
            header = json.dumps(self.header, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"header {self.header!r}: {exc}") from None
        if json.loads(header) != self.header:
            raise ValueError(f"header {self.header!r} would load back as {json.loads(header)!r}")
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

        The file is read once, in blocks. The first line is a block of its
        own; until a non-blank line has been read, blocks are decoded line
        by line (`_line_chunk`), which settles the header. After that, each
        block of `_LOG_CHUNK` lines in `save`'s exact form for the
        generator's words is decoded in numpy (`_block_columns`), and any
        other block line by line, with the same result; the line reader
        raises for its first bad line.
        """
        log = EditLog()
        columns = (log.phases, log.ops, log.us, log.vs)
        header_open, start = True, 1  # no non-blank line read yet; the block's first line
        with _collector_paused(), open(path, "r", encoding="utf-8") as fh:
            chunks = iter(lambda: list(itertools.islice(fh, _LOG_CHUNK)), [])
            for block in itertools.chain([list(itertools.islice(fh, 1))], chunks):
                values = None if header_open else _block_columns(block, len(log))
                if values is None:
                    header, values = _line_chunk(path, block, start, header_open, len(log))
                    if header is not None:
                        log.header = header
                    header_open = header_open and not any(map(str.strip, block))
                for column, chunk in zip(columns, values):
                    column.extend(chunk)
                start += len(block)
        return log
