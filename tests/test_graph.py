import collections
import functools
import gzip
import io
import os
import socket
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homshift.graph

from homshift import (
    INVALID,
    Graph,
    NodeTable,
    connected_components,
    filter_top_classes,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
    load_node_table,
    load_predictions,
    load_split,
    save_edge_list,
    save_node_table,
)
from homshift.graph import _integer_or_blank, _parse_rows, read_id_table
from homshift.splits import _tag

from conftest import (
    reference_from_edges,
    reference_load_edge_list,
    reference_load_node_table,
    reference_load_predictions,
    reference_load_split,
    reference_read_id_table,
    union_find_components,
)


def test_from_edges_canonicalizes_order_and_duplicates():
    g = Graph.from_edges(4, [(2, 1), (1, 2), (0, 3), (3, 0)])
    assert np.array_equal(g.edges, [[0, 3], [1, 2]])
    assert np.array_equal(g.neighbors(3), [0])
    assert g.degrees.tolist() == [1, 1, 1, 1]
    assert np.array_equal(g.neighbors(1), [2]) and np.array_equal(g.neighbors(2), [1])
    assert 1 not in g.neighbors(0)


def test_graph_equality_is_on_node_count_and_edges():
    assert Graph.from_edges(3, [(0, 1)]) == Graph.from_edges(3, [(1, 0)])
    assert Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)]) == Graph.from_edges(3, [(1, 0)])
    assert Graph.from_edges(3, [(0, 1)]) != Graph.from_edges(4, [(0, 1)])
    assert Graph.from_edges(3, [(0, 1)]) != Graph.from_edges(3, [(0, 2)])
    assert Graph.from_edges(3, [(0, 1)]) != ((0, 1),)


@given(st.integers(2, 10),
       st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
       st.integers(0, 4))
@settings(max_examples=100)
def test_widened_matches_a_fresh_build(node_count, pairs, extra):
    pairs = [(u % node_count, v % node_count) for u, v in pairs if u % node_count != v % node_count]
    g = Graph.from_edges(node_count, pairs)
    wide = g.widened(node_count + extra)
    fresh = Graph.from_edges(node_count + extra, pairs)
    assert wide == fresh
    for name in ("edges", "indptr", "indices", "degrees"):
        got, want = getattr(wide, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable, name
    assert np.array_equal(wide.neighbors(node_count + extra - 1),
                          fresh.neighbors(node_count + extra - 1))
    with pytest.raises(ValueError, match="narrow"):
        g.widened(node_count - 1)


@given(st.integers(0, 10),
       st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=40))
@settings(max_examples=150)
def test_from_edges_matches_set_reference(node_count, pairs):
    try:
        ref_edges, ref_adjacency = reference_from_edges(node_count, pairs)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Graph.from_edges(node_count, pairs)
        assert str(info.value) == str(exc)
        return
    for edges in (pairs, iter(pairs), np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        g = Graph.from_edges(node_count, edges)
        assert g.edges.tolist() == [list(e) for e in ref_edges]
        assert [g.neighbors(v).tolist() for v in range(node_count)] == \
            [list(ns) for ns in ref_adjacency]
        assert g.degrees.tolist() == [len(ns) for ns in ref_adjacency]
        assert g.indptr.tolist() == [0] + np.cumsum(g.degrees).tolist()
        assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous


def test_from_edges_and_load_edge_list_leave_the_csr_unbuilt(tmp_path):
    """Only a caller of neighbors, indptr or indices pays for the CSR's sort."""
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n2 1\n", encoding="utf-8")
    loaded = load_edge_list(path)
    for g in (Graph.from_edges(4, [(0, 1), (2, 1)]), loaded, loaded.widened(5)):
        assert "indptr" not in vars(g) and "indices" not in vars(g)
        assert g.neighbors(1).tolist() == [0, 2]
        assert "indptr" in vars(g) and "indices" in vars(g)
        assert g.indices is g.indices and g.indptr is g.indptr


def test_from_edges_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"edge \(0, 18446744073709551616\) out of range"):
        Graph.from_edges(3, [(0, 1), (0, 2**64), (1, 1)])
    with pytest.raises(ValueError, match="too large"):
        Graph.from_edges(2**32, [])


def test_edge_array_empty_graph():
    g = Graph.from_edges(3, [])
    assert g.edge_array().shape == (0, 2)
    assert g.edge_count == 0


@given(st.sets(st.tuples(st.integers(0, 19), st.integers(0, 19)).filter(lambda e: e[0] != e[1]),
               max_size=40))
@settings(max_examples=60)
def test_edge_list_round_trip(tmp_path_factory, edge_set):
    path = tmp_path_factory.mktemp("io") / "edges.txt"
    g = Graph.from_edges(20, edge_set)
    if g.edge_count == 0:
        return  # loader treats a file with no data lines as an error
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    # node count shrinks to max id + 1 on load; the edge set must survive
    assert np.array_equal(g2.edges, g.edges)


def test_load_edge_list_parsing(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n0 1\n1,2\n2 2\n0 1\n1 0\n3 4 # trailing\n")
    g = load_edge_list(path)
    # self-loop dropped, duplicate and reversed-duplicate lines collapsed
    assert np.array_equal(g.edges, [[0, 1], [1, 2], [3, 4]])
    assert g.node_count == 5


def test_load_edge_list_one_indexed(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n2 3\n")
    g = load_edge_list(path, one_indexed=True)
    assert np.array_equal(g.edges, [[0, 1], [1, 2]])


_SEPARATORS = (" ", "  ", "\t", ",", ", ", " ,", ",,")


@st.composite
def _edge_list_files(draw):
    """Edge-list text: comments, blanks, commas, CRLF or CR, self-loops, reversed duplicates."""
    lines = []
    for kind in draw(st.lists(st.sampled_from(["edge"] * 6 + ["comment", "blank", "bad"]),
                              max_size=25)):
        if kind == "comment":
            lines.append("# " + draw(st.sampled_from(["note", "1 2", "a,b", ""])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            tokens = [draw(st.sampled_from(["", "+", "0"])) + str(draw(st.integers(0, 8)))
                      for _ in range(2)]
            if kind == "bad":
                tokens[0] = draw(st.sampled_from(["-1", "x", "1.5", "0x1", "1e3"]))
            line = tokens[0] + draw(st.sampled_from(_SEPARATORS)) + tokens[1]
            pad = draw(st.sampled_from(["", " ", "\t"]))
            tail = draw(st.sampled_from(["", " # trailing", "#x"]))
            lines.append(pad + line + pad + tail)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@given(_edge_list_files(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_load_edge_list_matches_line_reference(tmp_path_factory, text, one_indexed):
    path = tmp_path_factory.mktemp("io") / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        node_count, pairs, self_loops, duplicates = reference_load_edge_list(path, one_indexed)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            load_edge_list(path, one_indexed=one_indexed)
        assert str(info.value) == str(exc)
        return
    with mock.patch.object(homshift.graph.logger, "info") as info:
        g = load_edge_list(path, one_indexed=one_indexed)
    assert g == Graph.from_edges(node_count, pairs)
    if self_loops or duplicates:
        info.assert_called_once()
        assert info.call_args.args[2:] == (self_loops, duplicates)
    else:
        info.assert_not_called()


@pytest.mark.parametrize("text, one_indexed, message", [
    ("# header\n0 1\n0 x\n", False, "line 3: non-integer node id"),
    ("0 1\n5\n", False, "line 2: expected two node ids"),
    ("0\n1\n2\n", False, "line 1: expected two node ids"),
    ("1 2\n2 3\n# c\n3 0\n", True, "line 4: negative node id"),
    ("0 1\n1 9223372036854775808\n", False, "line 2: node id beyond int64"),
    ("0 1\n-9223372036854775809 1\n", False, "line 2: node id beyond int64"),
    ("0 1_000\n", False, "line 1: non-integer node id"),
])
def test_load_edge_list_error_names_file_and_line(tmp_path, text, one_indexed, message):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        load_edge_list(path, one_indexed=one_indexed)
    assert str(info.value).startswith(f"{path}: ")


def test_load_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 x\n")
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list(bad)
    three = tmp_path / "three.txt"
    three.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="two node ids"):
        load_edge_list(three)
    neg = tmp_path / "neg.txt"
    neg.write_text("0 1\n")
    with pytest.raises(ValueError, match="negative"):
        load_edge_list(neg, one_indexed=True)


_STYLE_EDGES = [(0, 1), (2, 1), (0, 2), (3, 5), (5, 3)]


@pytest.mark.parametrize("separators", [(" ",), ("\t",), (" \t ",), (",",), (", ",), (",,",),
                                        (" ", ",", "\t", ", ", ",,", " ,")])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_edge_list_styles_give_one_graph(tmp_path, separators, ending):
    lines = ["# an edge list", ""]
    for i, (u, v) in enumerate(_STYLE_EDGES):
        lines.append(f"{u}{separators[i % len(separators)]}{v}" + (" # note" if i == 2 else ""))
    path = tmp_path / "edges.txt"
    path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(ending.join(lines + ["4" + separators[-1] + "y"]).encode("utf-8"))
    want = Graph.from_edges(6, _STYLE_EDGES)
    for name in (path, str(path)):
        with mock.patch.object(homshift.graph, "_parse_pairs",
                               wraps=homshift.graph._parse_pairs) as parse:
            assert load_edge_list(name) == want
        # the file is parsed by name; only a comma sends it to the text pass
        sources = [type(call.args[0]) for call in parse.call_args_list]
        comma = any("," in sep for sep in separators)
        assert sources == ([str, io.StringIO] if comma else [str])
        with pytest.raises(ValueError) as info:
            load_edge_list(str(bad) if isinstance(name, str) else bad)
        assert str(info.value) == (f"{bad}: line {len(lines) + 1}: non-integer node id in "
                                   f"{'4' + separators[-1] + 'y'!r}")


def test_load_edge_list_opens_only_the_named_local_file(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("load_edge_list reached for the network")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.setattr(socket.socket, "connect", no_network)
    monkeypatch.chdir(tmp_path)
    with gzip.open(tmp_path / "edges.txt.gz", "wt", encoding="utf-8") as fh:
        fh.write("0 1\n")
    # numpy's DataSource would open the compressed sibling of a missing file
    for missing in (tmp_path / "edges.txt", str(tmp_path / "edges.txt"), "edges.txt"):
        with pytest.raises(FileNotFoundError):
            load_edge_list(missing)
    # ... and fetch a URL; a URL-shaped name is a local path, like open() reads it
    url = "http://localhost:9/edges.txt"
    with pytest.raises(FileNotFoundError):
        load_edge_list(url)
    (tmp_path / "http:" / "localhost:9").mkdir(parents=True)
    (tmp_path / "http:" / "localhost:9" / "edges.txt").write_text("0 1\n1 2\n")
    assert load_edge_list(url) == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_load_edge_list_reads_an_absolute_path_without_a_working_directory(tmp_path,
                                                                         monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n")
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    with pytest.raises(FileNotFoundError):
        os.getcwd()
    want = Graph.from_edges(3, [(0, 1), (1, 2)])
    with mock.patch.object(homshift.graph, "_parse_pairs",
                           wraps=homshift.graph._parse_pairs) as parse:
        assert load_edge_list(path) == want
        assert load_edge_list(str(path)) == want
    # numpy's DataSource needs a working directory: the text pass reads the file
    assert [type(call.args[0]) for call in parse.call_args_list] == [io.StringIO] * 2


def test_load_edge_list_reads_compressed_suffixes_as_plain_text(tmp_path):
    want = Graph.from_edges(3, [(0, 1), (1, 2)])
    for suffix in homshift.graph._COMPRESSED_SUFFIXES:
        plain = tmp_path / f"edges.txt{suffix}"
        plain.write_text("0 1\n1 2\n")
        assert load_edge_list(plain) == want
    packed = tmp_path / "packed.txt.gz"
    with gzip.open(packed, "wt", encoding="utf-8") as fh:
        fh.write("0 1\n1 2\n")
    with pytest.raises(UnicodeDecodeError):
        load_edge_list(packed)
    # every suffix numpy decompresses by is kept off the by-name parse
    openers = np.lib._datasource._file_openers
    assert set(openers.keys()) - {None} <= set(homshift.graph._COMPRESSED_SUFFIXES)


def test_node_table_round_trip(tmp_path):
    t = NodeTable(
        labels=np.array([0, 1, INVALID, 2]),
        sensitive=np.array([1, INVALID, 0, 1]),
        features=np.array([[0.5, -1.0], [2.0, 0.0], [1.5, 3.25], [0.0, 0.0]]),
    )
    path = tmp_path / "nodes.csv"
    save_node_table(t, path)
    t2 = load_node_table(path)
    assert np.array_equal(t2.labels, t.labels)
    assert np.array_equal(t2.sensitive, t.sensitive)
    assert np.allclose(t2.features, t.features)


def test_load_node_table_errors(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("node_id,label\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_node_table(p)
    p.write_text("node_id,label,sensitive\n0,1,0\n0,1,0\n")
    with pytest.raises(ValueError):
        load_node_table(p)
    p.write_text("node_id,label,sensitive\n0,1,0\n2,1,0\n")
    with pytest.raises(ValueError):
        load_node_table(p)
    p.write_text("node_id,label,sensitive\n0,x,0\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_node_table(p)


def test_node_table_missing_values_become_invalid(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("node_id,label,sensitive\n0,,1\n1,2,\n")
    t = load_node_table(p)
    assert t.labels.tolist() == [INVALID, 2]
    assert t.sensitive.tolist() == [1, INVALID]


_TABLE_LOADERS = {
    "node": (load_node_table, reference_load_node_table),
    "split": (load_split, reference_load_split),
    "pred": (load_predictions, reference_load_predictions),
}


@st.composite
def _id_table_files(draw):
    """(kind, new-loader text, reference text) for a node table, split or prediction file.

    Cells may be padded (` 3 `), quoted (`"3"`) or written with an
    underscore (`1_0`); blank and whitespace-only lines and CRLF endings
    occur. About half the files carry one fault: a negative, duplicate,
    gapped or swapped id, a bad cell, or a wrong field count. Quoting is
    transparent: the old split and prediction loaders did not read quotes,
    so their reference text drops them. Tag cells are never padded (the old
    split loader kept that space in the tag).
    """
    kind = draw(st.sampled_from(sorted(_TABLE_LOADERS)))
    n = draw(st.integers(0, 12))
    features = draw(st.integers(0, 2)) if kind == "node" else 0
    if kind == "pred":
        ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    elif kind == "node":
        ids = draw(st.permutations(range(n)))
    else:
        ids = list(range(n))
    header = {"node": ["node_id", "label", "sensitive"] + [f"f{c}" for c in range(features)],
              "split": ["node_id", "split"],
              "pred": ["node_id", "y_true", "y_pred", "sensitive"]}[kind]
    rows = []
    for node in ids:
        if kind == "node":
            row = [draw(st.sampled_from(["", " ", "-1", "0", "2", "11"])),
                   draw(st.sampled_from(["", "0", "1"]))]
            row += [draw(st.sampled_from([repr(draw(st.floats(-1e3, 1e3))), "1e-3", "25"]))
                    for _ in range(features)]
        elif kind == "split":
            row = [draw(st.sampled_from(["train", "val", "test", "excluded"]))]
        else:
            row = [draw(st.sampled_from(["0", "1", "12"])) for _ in range(2)]
            row += [draw(st.sampled_from(["0", "1"]))]
        rows.append([str(node)] + row)

    fault = draw(st.sampled_from([None] * 6 + ["negative", "duplicate", "gap", "swap",
                                               "bad cell", "field count"]))
    if fault and n:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if fault == "negative":
            rows[i][0] = str(-int(rows[i][0]) - 1)
        elif fault == "duplicate":
            rows[i][0] = rows[j][0]
        elif fault == "gap":
            rows[i][0] = str(n + draw(st.integers(0, 3)))
        elif fault == "swap":
            rows[i][0], rows[j][0] = rows[j][0], rows[i][0]
        elif fault == "bad cell":
            rows[i][draw(st.integers(1, len(header) - 1))] = \
                draw(st.sampled_from(["x", "1.5", "sideways", "2", "-3"]))
        else:
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]

    def styled(cell, col, header_row):
        digits = [k for k in range(1, len(cell)) if cell[k - 1:k + 1].isdigit()]
        if digits and not header_row and draw(st.integers(0, 5)) == 0:
            cell = cell[:digits[0]] + "_" + cell[digits[0]:]
        style = draw(st.sampled_from(["plain", "plain", "pad", "quote", "quote_pad"]))
        if "pad" in style and (kind == "node" or not (header_row or (kind, col) == ("split", 1))):
            cell = f" {cell} "
        return (f'"{cell}"', cell) if "quote" in style else (cell, cell)

    lines = [list(zip(*(styled(c, col, True) for col, c in enumerate(header))))]
    for row in rows:
        lines.append(list(zip(*(styled(c, col, False) for col, c in enumerate(row)))))
        for _ in range(draw(st.integers(0, 1))):
            blank = draw(st.sampled_from(["", " ", "\t"]))
            lines.append([(blank,), (blank,)])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from(["", ending]))
    texts = [ending.join(",".join(line[which]) for line in lines) + tail for which in (0, 1)]
    return kind, texts[0], texts[1] if kind != "node" else texts[0]


@given(_id_table_files())
@settings(max_examples=400, deadline=None)
def test_id_table_loaders_match_references(tmp_path_factory, case):
    kind, text, reference_text = case
    load, reference_load = _TABLE_LOADERS[kind]
    root = tmp_path_factory.mktemp("tables")
    path, reference_path = root / "table.csv", root / "reference.csv"
    path.write_bytes(text.encode("utf-8"))
    reference_path.write_bytes(reference_text.encode("utf-8"))
    try:
        expected = reference_load(reference_path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            load(path)
        if str(exc).startswith(f"{reference_path}: "):
            assert str(info.value).startswith(f"{path}: ")
        return
    got = load(path)
    if kind == "split":
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        return
    names = ("labels", "sensitive", "features") if kind == "node" else \
        ("y_true", "y_pred", "sensitive")
    for name in names:
        want, have = getattr(expected, name), getattr(got, name)
        assert (want is None) == (have is None)
        if want is not None:
            assert want.dtype == have.dtype and np.array_equal(want, have)


def test_id_tables_share_one_cell_grammar(tmp_path):
    # quotes and padding read alike in all three formats (the old split and
    # prediction loaders rejected quoted cells, and kept the space in ` train`)
    split = tmp_path / "split.csv"
    split.write_text('"node_id", split\n"0", train \n1,"val"\n', encoding="utf-8")
    assert load_split(split).tolist() == [0, 1]
    preds = tmp_path / "preds.csv"
    preds.write_text('node_id,y_true,y_pred,sensitive\r\n"4", 1 ,"0",1\r\n', encoding="utf-8")
    assert load_predictions(preds).y_true.tolist() == [1]
    # a node table may add feature columns; the other headers must match exactly
    split.write_text("node_id,split,extra\n0,train,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header must start with 'node_id,split' and end there"):
        load_split(split)
    # a quoted cell cannot span lines, though the bulk parse alone would join them
    nodes = tmp_path / "nodes.csv"
    nodes.write_text('node_id,label,sensitive\n"1\n",0,0\n0,1,1\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: .*expected 3 fields, got 1"):
        load_node_table(nodes)
    # int() reads any size; the table holds int64
    nodes.write_text("node_id,label,sensitive\n0,9223372036854775808,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: .*a value beyond int64"):
        load_node_table(nodes)


# Lines `not line.strip()` calls blank: empty, or whitespace only, including
# whitespace that is not ASCII and characters that split("\n") leaves alone.
_BLANK_LINES = ["", " ", "\t", "\xa0", "\x0c", "\x1c", "\x85", "\u2028", " \t\xa0"]
_ID_TABLE_KINDS = {
    "nodes": (("node_id", "label", "sensitive", ...), {1: _integer_or_blank, 2: _integer_or_blank},
              ["", "0", "1", "1", '"1"', " 2 ", "x"]),
    "split": (("node_id", "split"), {1: _tag}, ["train", "val", "test", "test", '"val"', "x"]),
    "predictions": (("node_id", "y_true", "y_pred", "sensitive"), {},
                    ["0", "1", "1", '"0"', "x"]),
}


@st.composite
def _id_tables(draw):
    """(columns, converters, text) of an id-keyed CSV with blank lines anywhere.

    Blank lines fall between rows, after the last one and, rarely, before
    the header; the file ends with or without a newline, in LF or CRLF.
    Ids are mostly unique and cells mostly valid, so most files load.
    """
    columns, converters, cells = _ID_TABLE_KINDS[draw(st.sampled_from(sorted(_ID_TABLE_KINDS)))]
    features = draw(st.integers(0, 1)) if columns[-1] is ... else 0
    k = sum(c is not ... for c in columns)
    header = ",".join([c for c in columns if c is not ...] + [f"f{i}" for i in range(features)])
    lines = [header] if draw(st.integers(0, 9)) else [draw(st.sampled_from(_BLANK_LINES)), header]
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=8))
    if ids and not draw(st.integers(0, 9)):
        ids.append(ids[0])
    for node in ids:
        lines += draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=1))
        row = [str(node)] + [draw(st.sampled_from(cells)) for _ in range(k - 1)]
        lines.append(",".join(row + ["0.5"] * features))
    lines += draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=3))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return columns, converters, ending.join(lines) + draw(st.sampled_from(["", ending]))


@given(_id_tables())
@settings(max_examples=300, deadline=None)
def test_read_id_table_matches_the_line_filtering_reference(tmp_path_factory, case):
    columns, converters, text = case
    path = tmp_path_factory.mktemp("tables") / "table.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read):
        try:
            return read(path, columns, converters)
        except ValueError as exc:
            return str(exc)

    got, want = outcome(read_id_table), outcome(reference_read_id_table)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for name, a, b in zip(("ints", "floats", "lines"), got, want):
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


_CONVERTER_CELLS = {
    _integer_or_blank: ["", " ", "\t", "0", "1", "+2", "-1", " 3 ", "1_000", "007", "-0", "x"],
    _tag: ["train", "val", " test ", "excluded\t", "test", "Train"],
}


@st.composite
def _converter_tables(draw):
    """(columns, converter, text, converter cell texts) for a node table or split file.

    Converter cells repeat, and may be blank, padded, quoted, signed or
    written with an underscore; a few are bad ("x", "Train"). Ids are
    unique and mostly plain, so most files pass the bulk parse; a feature
    `1_0` passes only the row-by-row one.
    """
    convert = draw(st.sampled_from(sorted(_CONVERTER_CELLS, key=lambda c: c.__name__)))
    columns = ("node_id", "label", "sensitive", ...) if convert is _integer_or_blank \
        else ("node_id", "split")
    features = draw(st.integers(0, 2)) if convert is _integer_or_blank else 0
    header = [c for c in columns if c is not ...] + [f"f{i}" for i in range(features)]
    n = draw(st.integers(0, 15))
    pool = draw(st.lists(st.sampled_from(_CONVERTER_CELLS[convert]), min_size=1, max_size=4))
    lines, cells = [",".join(header)], []
    for node in draw(st.permutations(range(n))):
        row = [draw(st.sampled_from(["", "", "", "+"])) + str(node)]
        for _ in range(len(columns) - 2 if convert is _integer_or_blank else 1):
            cell = draw(st.sampled_from(pool))
            cells.append(cell)
            row.append(f'"{cell}"' if draw(st.integers(0, 3)) == 0 else cell)
        row += [draw(st.sampled_from(["0.5", "-2", "+4", "1e-3", "1_0",
                                      repr(draw(st.floats(-9, 9)))])) for _ in range(features)]
        lines.append(",".join(row))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " "])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return columns, convert, ending.join(lines) + ending, cells


@given(_converter_tables())
@settings(max_examples=300, deadline=None)
def test_read_id_table_bulk_parse_matches_rows_and_converts_each_text_once(tmp_path_factory, case):
    columns, convert, text, cells = case
    path = tmp_path_factory.mktemp("tables") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    calls = []

    @functools.wraps(convert)
    def counted(cell):
        calls.append(cell)
        return convert(cell)

    k = sum(c is not ... for c in columns)
    converters = {c: counted for c in range(1, k)}

    def outcome(read, *args):
        try:
            return read(*args)
        except ValueError as exc:
            return str(exc)

    with mock.patch.object(homshift.graph, "_parse_rows", wraps=_parse_rows) as rows:
        got = outcome(read_id_table, path, columns, converters)
    # the row-by-row pass on its own, over the lines read_id_table reads
    raw = path.read_text(encoding="utf-8").split("\n")
    keep = [i for i in range(1, len(raw)) if raw[i].strip()]
    header = [cell.strip() for cell in raw[0].split(",")]
    want = outcome(_parse_rows, path, [raw[i] for i in keep], np.array(keep) + 1, header, k,
                   {c: convert for c in range(1, k)})
    if isinstance(want, str):
        assert got == want
        return
    ints, floats, lines = got
    assert ints.dtype == want[0].dtype and np.array_equal(ints, want[0])
    assert lines.tolist() == [i + 1 for i in keep]
    if len(header) > k:
        assert floats.dtype == want[1].dtype and np.array_equal(floats, want[1])
    else:
        assert floats is None
    if not rows.called:  # the bulk parse took the table
        assert set(collections.Counter(calls).values()) <= {1}
        assert set(calls) == set(cells)


def test_induced_subgraph_maps_ids():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    t = NodeTable(np.arange(5), np.zeros(5, dtype=int))
    sub, sub_t, node_map = induced_subgraph(g, t, np.array([1, 2, 4]))
    assert sub.node_count == 3
    assert np.array_equal(sub.edges, [[0, 1]])
    assert node_map.tolist() == [1, 2, 4]
    assert sub_t.labels.tolist() == [1, 2, 4]


@given(st.sets(st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
               max_size=25))
@settings(max_examples=80)
def test_components_match_union_find(edge_set):
    g = Graph.from_edges(15, edge_set)
    assert connected_components(g).tolist() == union_find_components(15, g.edges).tolist()


def test_largest_component_breaks_ties_toward_smallest_id():
    # two components of size 2: {0,1} and {3,4}; node 2 isolated
    g = Graph.from_edges(5, [(0, 1), (3, 4)])
    t = NodeTable(np.arange(5), np.zeros(5, dtype=int))
    sub, _, node_map = largest_connected_component(g, t)
    assert node_map.tolist() == [0, 1]
    assert np.array_equal(sub.edges, [[0, 1]])


def test_largest_component_empty_graph():
    t = NodeTable(np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        largest_connected_component(Graph.from_edges(0, []), t)


def test_filter_top_classes_ranks_relabels_and_takes_lcc():
    # class frequencies: 0 -> 2 nodes, 1 -> 3 nodes, 2 -> 1 node
    labels = np.array([0, 0, 1, 1, 1, 2])
    sens = np.array([0, 1, 0, 1, 0, 1])
    g = Graph.from_edges(6, [(0, 1), (0, 2), (2, 3), (4, 5)])
    t = NodeTable(labels, sens)
    sub, sub_t, node_map = filter_top_classes(g, t, 2)
    # top-2 classes are 1 (count 3) then 0 (count 2); node 5 (class 2) dropped;
    # LCC of the filtered graph is {0,1,2,3}, node 4 is disconnected
    assert node_map.tolist() == [0, 1, 2, 3]
    # class 1 ranks first -> new id 0; class 0 -> new id 1
    assert sub_t.labels.tolist() == [1, 1, 0, 0]
    assert np.array_equal(sub.edges, [[0, 1], [0, 2], [2, 3]])


def test_filter_top_classes_drops_invalid_sensitive_and_excluded():
    labels = np.array([0, 0, 0, 1, 1])
    sens = np.array([0, 1, INVALID, 0, 1])
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (1, 3)])
    t = NodeTable(labels, sens)
    sub, sub_t, node_map = filter_top_classes(g, t, 1)
    # class 0 is the majority; node 2 lacks a sensitive value and is dropped
    assert node_map.tolist() == [0, 1]
    assert sub_t.labels.tolist() == [0, 0]
    with pytest.raises(ValueError):
        filter_top_classes(g, t, 3, exclude={1})


def test_filter_top_classes_frequency_tie_prefers_lower_class_id():
    labels = np.array([5, 5, 3, 3])
    sens = np.zeros(4, dtype=int)
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sub, sub_t, _ = filter_top_classes(g, NodeTable(labels, sens), 2)
    # counts tie at 2; class 3 ranks ahead of class 5
    assert sub_t.labels.tolist() == [1, 1, 0, 0]


def test_filter_top_classes_recompacts_when_the_lcc_drops_a_class():
    # class 7: nodes 0-3, class 5: node 4, both in the 5-node component;
    # class 9: nodes 5-7, alone in a 3-node component that the LCC drops
    labels = np.array([7, 7, 7, 7, 5, 9, 9, 9])
    sens = np.array([1, 3, 1, 3, 3, 0, 0, 0])
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)])
    sub, sub_t, node_map = filter_top_classes(g, NodeTable(labels, sens), 3)
    assert node_map.tolist() == [0, 1, 2, 3, 4]
    # ranks 7 -> 0, 9 -> 1, 5 -> 2; with 9 gone, rank 2 compacts to 1
    assert sub_t.labels.tolist() == [0, 0, 0, 0, 1]
    # sensitive values 1 and 3 compact to 0 and 1 in ascending order
    assert sub_t.sensitive.tolist() == [0, 1, 0, 1, 1]
    assert np.array_equal(sub.edges, [[0, 1], [1, 2], [2, 3], [3, 4]])


def test_graph_is_immutable():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(Exception):
        g.degrees[0] = 5
    for arr in (g.edges, g.indptr, g.indices, g.neighbors(0)):
        with pytest.raises(ValueError):
            arr[0] = 2
    t = NodeTable(np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(Exception):
        t.labels[0] = 2
