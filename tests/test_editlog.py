"""The edit log: save, load and replay."""

import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homshift import BetaGoal, EditLog, EditRecord, Graph, generate, two_class_sbm
from homshift import editlog

from conftest import reference_edit_log_load, reference_replay


def test_edit_log_roundtrip(tmp_path):
    log = EditLog(header={"seed": 4, "alpha": 2.0, "beta": 3.0, "bins": 10})
    log.append("rewire", "remove", 0, 1)
    log.append("rewire", "add", 0, 2)
    log.append("refine", "add", 3, 4)
    path = tmp_path / "edits.jsonl"
    log.save(path)

    loaded = EditLog.load(path)
    assert loaded.header == log.header
    assert loaded.records == log.records
    assert [r.seq for r in loaded.records] == [0, 1, 2]

    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == log.header
    assert list(json.loads(lines[1])) == sorted(["seq", "phase", "op", "u", "v"])


@pytest.fixture(params=[2, None], ids=["chunk2", "chunk-default"])
def log_chunk(request, monkeypatch):
    """Edit logs are written and read in chunks of lines; a 2-line chunk
    puts chunk boundaries between the header, blank lines and records."""
    if request.param is not None:
        monkeypatch.setattr(editlog, "_LOG_CHUNK", request.param)


def test_edit_log_save_matches_per_record_json(tmp_path, log_chunk):
    """The one-format writer gives json.dumps(..., sort_keys=True) bytes,
    also for phase and op strings that need escaping."""
    log = EditLog(header={"seed": None, "alpha": 0.5})
    log.append("rewire", "remove", 0, 1)
    log.append('re"wire\\', "add", 12345678901, 2)
    log.append("réfine", "add\n", 3, 4)
    path = tmp_path / "edits.jsonl"
    log.save(path)
    expected = json.dumps(log.header, sort_keys=True) + "\n" + "".join(
        json.dumps({"seq": r.seq, "phase": r.phase, "op": r.op, "u": r.u, "v": r.v},
                   sort_keys=True) + "\n" for r in log.records)
    assert path.read_bytes() == expected.encode("utf-8")
    assert EditLog.load(path) == log


def test_edit_log_load_skips_blank_lines_and_reads_crlf(tmp_path, log_chunk):
    path = tmp_path / "edits.jsonl"
    path.write_bytes(b'{"seed": 1}\r\n\r\n\x0c{"op": "add", "phase": "refine", "seq": 0, '
                     b'"u": 3, "v": 4}\r\n   \n')
    log = EditLog.load(path)
    assert log.header == {"seed": 1}
    assert [(r.seq, r.phase, r.op, r.u, r.v) for r in log.records] == [(0, "refine", "add", 3, 4)]
    # a file without a header line holds records only
    path.write_text('{"op": "add", "phase": "refine", "seq": 0, "u": 3, "v": 4}\n')
    assert EditLog.load(path).header == {}


_RECORD = '{"op": "add", "phase": "refine", "seq": 0, "u": 3, "v": 4}'


@pytest.mark.parametrize("bad, fragment", [
    ('{"op": "add", "phase": "refine", "seq": 1, "u": 3', "invalid JSON"),
    (_RECORD + " " + _RECORD, "invalid JSON"),
    (_RECORD + ", " + _RECORD, "invalid JSON"),
    # nested too deep for the decoder, which raises RecursionError
    pytest.param("[" * 200_000, "invalid JSON: maximum recursion depth exceeded",
                 id="deep-array"),
    pytest.param('{"a": ' * 200_000, "invalid JSON: maximum recursion depth exceeded",
                 id="deep-object"),
    ('[1, 2]', "expected a JSON object"),
    ('{"op": "add", "phase": "refine", "seq": 1, "u": 3}', "no 'v' key"),
    ('{"op": "add", "seq": 1, "u": 3, "v": 4}', "no 'phase' key"),
    ('{"op": "add", "phase": "refine", "seq": "1", "u": 3, "v": 4}', "'seq' must be an integer"),
    ('{"op": "add", "phase": "refine", "seq": 1, "u": 3.0, "v": 4}', "'u' must be an integer"),
    ('{"op": "add", "phase": "refine", "seq": 1, "u": 3, "v": true}', "'v' must be an integer"),
    # a record's seq is its index: a repeated seq, then a lost or moved record
    (_RECORD, "'seq' must be 1, got 0"),
    (_RECORD.replace('"seq": 0', '"seq": 2'), "'seq' must be 1, got 2"),
])
def test_edit_log_load_error_names_file_and_line(tmp_path, log_chunk, bad, fragment):
    # header on line 1, a good record on line 2, a blank line 3, the bad line 4
    path = tmp_path / "edits.jsonl"
    path.write_text('{"seed": 1}\n' + _RECORD + "\n\n" + bad + "\n" + _RECORD + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        EditLog.load(path)
    assert str(info.value).startswith(f"{path}: line 4: ")
    assert fragment in str(info.value)


@pytest.mark.parametrize("text, lineno, fragment", [
    ("[]\n" + _RECORD + "\n", 1, "expected a JSON object"),
    # only the first object can be the header; a later one without "op"
    # is a bad record, also when a chunk boundary falls before it
    ('{"seed": 1}\n\n{"phase": "refine", "seq": 0, "u": 3, "v": 4}\n', 3, "no 'op' key"),
])
def test_edit_log_load_header_errors(tmp_path, log_chunk, text, lineno, fragment):
    path = tmp_path / "edits.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        EditLog.load(path)
    assert str(info.value).startswith(f"{path}: line {lineno}: ")
    assert fragment in str(info.value)


def test_edit_log_replay_rejects_bad_records():
    g = Graph.from_edges(3, [(0, 1)])

    missing = EditLog()
    missing.append("rewire", "remove", 0, 2)
    with pytest.raises(ValueError, match="missing"):
        missing.replay(g)

    duplicate = EditLog()
    duplicate.append("refine", "add", 0, 1)
    with pytest.raises(ValueError, match="duplicate"):
        duplicate.replay(g)

    loop = EditLog()
    loop.append("rewire", "add", 1, 1)
    with pytest.raises(ValueError, match="endpoints"):
        loop.replay(g)

    out_of_range = EditLog()
    out_of_range.append("rewire", "add", 0, 5)
    with pytest.raises(ValueError, match="endpoints"):
        out_of_range.replay(g)


@pytest.mark.parametrize("bad, fragment", [
    ('{"op": "add", "phase": ["x"], "seq": 1, "u": 3, "v": 4}', "'phase' must be a string"),
    ('{"op": "add", "phase": {"p": 1}, "seq": 1, "u": 3, "v": 4}', "'phase' must be a string"),
    ('{"op": 7, "phase": "refine", "seq": 1, "u": 3, "v": 4}', "'op' must be a string"),
    ('{"op": null, "phase": "refine", "seq": 1, "u": 3, "v": 4}', "'op' must be a string"),
])
def test_edit_log_load_rejects_non_string_phase_or_op(tmp_path, log_chunk, bad, fragment):
    path = tmp_path / "edits.jsonl"
    path.write_text('{"seed": 1}\n' + _RECORD + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        EditLog.load(path)
    assert str(info.value).startswith(f"{path}: line 3: ")
    assert fragment in str(info.value)


def _record_line(seq: int, **changes) -> str:
    return json.dumps({"op": "add", "phase": "refine", "seq": seq, "u": 3, "v": 4, **changes},
                      sort_keys=True)


def _load_outcome(load, path):
    """The log a reader returns, or the message it raises."""
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("text", [
    # a record cut in two, made up for by two records on one line
    '{"seed": 1}\n{"op": "add", "phase": "refine"\n"seq": 0, "u": 3, "v": 4}\n'
    + _record_line(1) + ", " + _record_line(2) + "\n",
    # an extra array value of a record holds the next line
    '{"seed": 1}\n' + _record_line(0)[:-1] + ', "x": [{"a": 1}\n{"b": 2}]}\n'
    + _record_line(1) + ", " + _record_line(2) + "\n",
    # an array value of the header holds the next line
    '{"seed": [{"a": 1}\n{"b": 2}]}\n' + _record_line(0) + ", " + _record_line(1) + "\n",
    # a string of the header runs on into the next line
    '{"seed": "a\n{", "z": 1}\n' + _record_line(0) + ", " + _record_line(1) + "\n",
    # valid, but outside save's form: nested header values, extra record keys
    '{"seed": {"runs": [1, 2]}}\n' + _record_line(0, note=[1, {"a": 2}]) + "\n"
    + _record_line(1, extra=None) + "\n" + _record_line(2) + "\n",
])
def test_edit_log_load_reads_each_line_on_its_own(tmp_path, log_chunk, text):
    """Lines that decode as one JSON array only when joined, and valid lines
    outside `save`'s form, read as they read one at a time."""
    path = tmp_path / "edits.jsonl"
    path.write_text(text, encoding="utf-8")
    assert _load_outcome(EditLog.load, path) == _load_outcome(reference_edit_log_load, path)


_BAD_VALUES = {"seq": ["0", 1.0, True, None], "u": [3.0, "3", False, [3]],
               "v": [None, {"v": 4}], "phase": [7, None, ["x"], {"p": 1}], "op": [1.5, True]}


@st.composite
def _edit_log_texts(draw):
    """A saved edit log with blank lines, LF, CRLF or CR line ends and an
    optional header, and at most one line broken in one of several ways."""
    records = [{"seq": k, "phase": draw(st.sampled_from(["rewire", "refine", 'q"x\\', "réf"])),
                "op": draw(st.sampled_from(["add", "remove", "nop"])),
                "u": draw(st.integers(-1, 2**70)), "v": draw(st.integers(0, 40))}
               for k in range(draw(st.integers(0, 7)))]
    lines = [json.dumps(r, sort_keys=True) for r in records]
    has_header = draw(st.booleans())
    if has_header:
        header = draw(st.fixed_dictionaries({}, optional={
            "seed": st.none() | st.integers(0, 9), "alpha": st.floats(0.5, 9.0),
            "runs": st.lists(st.integers(0, 3), max_size=2)}))
        lines.insert(0, json.dumps(header, sort_keys=True))
    kind = draw(st.sampled_from(["none", "truncate", "two", "non-object", "missing-key",
                                 "wrong-type", "seq", "swap", "drop", "repeat", "split"]))
    if kind != "none" and records:
        k = draw(st.integers(0, len(records) - 1))
        at = k + has_header
        record = dict(records[k])
        if kind == "truncate":
            lines[at] = lines[at][:draw(st.integers(1, len(lines[at]) - 1))]
        elif kind == "two":
            lines[at] += draw(st.sampled_from([" ", ",", ", "])) + lines[at]
        elif kind == "non-object":
            lines[at] = draw(st.sampled_from(["[1, 2]", "3", '"x"', "null", "[]"]))
        elif kind == "missing-key":
            del record[draw(st.sampled_from(sorted(record)))]
            lines[at] = json.dumps(record, sort_keys=True)
        elif kind == "wrong-type":
            key = draw(st.sampled_from(sorted(_BAD_VALUES)))
            record[key] = draw(st.sampled_from(_BAD_VALUES[key]))
            lines[at] = json.dumps(record, sort_keys=True)
        elif kind == "seq":
            record["seq"] += draw(st.sampled_from([-2, -1, 1, 5]))
            lines[at] = json.dumps(record, sort_keys=True)
        elif kind == "swap" and k + 1 < len(records):
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        elif kind == "drop":
            del lines[at]
        elif kind == "repeat":
            lines.insert(at, lines[at])
        elif kind == "split":
            cut = lines[at].index(", ") + 1
            lines[at:at + 1] = [lines[at][:cut], lines[at][cut:]]
    blank = st.sampled_from(["", "   ", "\t", "\x0c"])
    body = [b for line in lines for b in draw(st.lists(blank, max_size=2)) + [line]]
    body += draw(st.lists(blank, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + eol for line in body)


@given(_edit_log_texts(), st.sampled_from([1, 2, 3, None]))
@settings(max_examples=300, deadline=None)
def test_edit_log_load_matches_the_line_reference(tmp_path_factory, text, chunk):
    """Bulk decoding in chunks of any size gives the line-by-line reader's
    log, or raises its message, file and line included."""
    path = tmp_path_factory.mktemp("log") / "edits.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(editlog, "_LOG_CHUNK", chunk)
        outcome = _load_outcome(EditLog.load, path)
    assert outcome == _load_outcome(reference_edit_log_load, path)


# Ids at the edges of the block decoder's rules: one and two digits, 18
# digits (the widest it decodes) and 19 (read line by line).
_EDGE_IDS = [0, 9, 10, 10**17, 10**18 - 1, 10**18, 2**63 - 1]


@st.composite
def _generator_logs(draw):
    """A log of the generator's words with edge-case and random ids."""
    log = EditLog(header=draw(st.sampled_from([{}, {"seed": 11}, {"alpha": 3.0, "runs": [1, 20]}])))
    ids = st.sampled_from(_EDGE_IDS) | st.integers(0, 2**63 - 1)
    for _ in range(draw(st.integers(0, 7))):
        log.append(draw(st.sampled_from(["rewire", "refine"])),
                   draw(st.sampled_from(["remove", "add"])), draw(ids), draw(ids))
    return log


def _insert(text: str, at: int, piece: str) -> str:
    return text[:at] + piece + text[at:]


@st.composite
def _one_change(draw, text: str):
    """`text` as it is, or with one change that takes it out of `save`'s form."""
    kind = draw(st.sampled_from(["none", "digit", "cr", "leading-zero", "minus", "split-run",
                                 "crlf", "blank", "no-final-newline", "no-header"]))
    numbers = [m.start(1) for m in re.finditer(r": (\d)", text)]
    runs = [m.span() for m in re.finditer(r"\d{2,}", text)]
    ends = [m.start() for m in re.finditer("\n", text)]
    if kind in ("digit", "cr"):  # anywhere, inside a word or key too
        piece = draw(st.sampled_from("0123456789")) if kind == "digit" else "\r"
        text = _insert(text, draw(st.integers(0, len(text))), piece)
    elif kind in ("leading-zero", "minus") and numbers:
        text = _insert(text, draw(st.sampled_from(numbers)), "0" if kind == "leading-zero" else "-")
    elif kind == "split-run" and runs:
        a, b = draw(st.sampled_from(runs))
        text = _insert(text, draw(st.integers(a + 1, b - 1)), " ")
    elif kind == "crlf":
        if draw(st.booleans()):
            text = text.replace("\n", "\r\n")
        else:
            text = _insert(text, draw(st.sampled_from(ends)), "\r")
    elif kind == "blank":
        text = _insert(text, draw(st.sampled_from([0] + [e + 1 for e in ends])), "\n")
    elif kind == "no-final-newline":
        text = text[:-1]
    elif kind == "no-header":
        text = text.split("\n", 1)[1]
    return text


@given(st.data(), st.sampled_from([1, 2, 3, None]))
@settings(max_examples=300, deadline=None)
def test_edit_log_load_decodes_saved_logs_as_the_line_reference(tmp_path_factory, data, chunk):
    """A log `save` wrote, as it is or with one change that breaks a block
    rule, reads as the line-by-line reader reads it, error included."""
    path = tmp_path_factory.mktemp("log") / "edits.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(editlog, "_LOG_CHUNK", chunk)
        data.draw(_generator_logs()).save(path)
        text = data.draw(_one_change(path.read_text(encoding="utf-8")))
        path.write_bytes(text.encode("utf-8"))
        outcome = _load_outcome(EditLog.load, path)
    assert outcome == _load_outcome(reference_edit_log_load, path)


@pytest.mark.parametrize("chunk", [1, None], ids=["chunk1", "chunk-default"])
@pytest.mark.parametrize("text", ["{}\n0", '{"seed": 11}\n' + _record_line(0) + "\n42"],
                         ids=["after-header", "after-record"])
def test_edit_log_load_names_a_last_line_of_digits_with_no_final_newline(
        tmp_path, monkeypatch, chunk, text):
    """Such a block has no record line once its digits are deleted; it is
    read line by line, and the error names the file and the line."""
    if chunk is not None:
        monkeypatch.setattr(editlog, "_LOG_CHUNK", chunk)
    path = tmp_path / "edits.jsonl"
    path.write_bytes(text.encode("utf-8"))
    line = text.count("\n") + 1
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: expected a JSON object")):
        EditLog.load(path)
    assert _load_outcome(EditLog.load, path) == _load_outcome(reference_edit_log_load, path)


def _line_chunk_spy(monkeypatch) -> list:
    """The (first line number, lines) of each block that reaches the line
    reader, in order."""
    seen = []
    line_chunk = editlog._line_chunk

    def spy(path, block, start, *args):
        seen.append((start, block))
        return line_chunk(path, block, start, *args)

    monkeypatch.setattr(editlog, "_line_chunk", spy)
    return seen


def _generated_log() -> EditLog:
    g, t = two_class_sbm(200, 6, 0.5, seed=3)
    return generate(g, t, BetaGoal(3.0, 10.0), 10, seed=1)[1]


@pytest.mark.parametrize("change", ["as-saved", "crlf", "cr", "no-header"])
def test_saved_generator_logs_take_the_block_decoder(tmp_path, log_chunk, monkeypatch, change):
    """Of a log in `save`'s form, also with CRLF or CR line ends or without
    its header line, only the one-line block of line 1, which settles the
    header, reaches the line reader; so a silently slower load fails here."""
    by_hand = EditLog(header={"seed": 1})
    for k, (u, v) in enumerate(zip(_EDGE_IDS[:5], _EDGE_IDS[4::-1])):
        by_hand.append(("rewire", "refine")[k % 2], ("remove", "add")[k // 2 % 2], u, v)
    seen = _line_chunk_spy(monkeypatch)
    for log in (_generated_log(), by_hand):
        path = tmp_path / "edits.jsonl"
        log.save(path)
        text = path.read_text(encoding="utf-8")
        if change == "no-header":
            text = text.split("\n", 1)[1]
            log.header = {}
        elif change != "as-saved":
            text = text.replace("\n", {"crlf": "\r\n", "cr": "\r"}[change])
        path.write_bytes(text.encode("utf-8"))
        seen.clear()
        assert EditLog.load(path) == log
        assert seen == [(1, [text.splitlines()[0] + "\n"])]


def test_an_off_form_block_alone_takes_the_line_reader(tmp_path, monkeypatch):
    """A blank line in a saved log's third block of records sends that block
    alone to the line reader; the blocks after it still take the block
    decoder, and the log loads as it was saved."""
    chunk = 4
    monkeypatch.setattr(editlog, "_LOG_CHUNK", chunk)
    log = _generated_log()
    assert len(log) > 3 * chunk
    path = tmp_path / "edits.jsonl"
    log.save(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    third = 1 + 2 * chunk  # index of the third record block's first line
    lines.insert(third + 1, "\n")
    path.write_text("".join(lines), encoding="utf-8")
    seen = _line_chunk_spy(monkeypatch)
    assert EditLog.load(path) == log
    assert seen == [(1, lines[:1]), (third + 1, lines[third:third + chunk])]


def test_edit_log_save_refuses_what_load_refuses(tmp_path):
    log = EditLog(header={"seed": 1})
    log.append("refine", 7, 3, 4)
    path = tmp_path / "edits.jsonl"
    with pytest.raises(ValueError, match="'op' must be a string, got 7"):
        log.save(path)
    assert not path.exists()


@pytest.mark.parametrize("header, message", [
    ({"op": "x"}, "header must be a dict without an 'op' key, got {'op': 'x'}"),
    ([1, 2], "header must be a dict without an 'op' key, got [1, 2]"),
    ({"x": math.nan}, "header {'x': nan}: Out of range float values are not JSON compliant"),
    ({"x": [-math.inf]}, "header {'x': [-inf]}: Out of range float values are not JSON compliant"),
    ({1: "a"}, "header {1: 'a'} would load back as {'1': 'a'}"),
    ({"a": (1, 2)}, "header {'a': (1, 2)} would load back as {'a': [1, 2]}"),
    ({1: "a", "b": 2}, "header {1: 'a', 'b': 2}: '<' not supported between instances of "),
    ({"seed": np.int64(1)}, "header {'seed': np.int64(1)}: Object of type int64 is not JSON "
                            "serializable"),
])
def test_edit_log_save_refuses_a_header_load_would_not_read_back(tmp_path, header, message):
    log = EditLog(header=header)
    log.append("rewire", "add", 0, 1)
    path = tmp_path / "edits.jsonl"
    with pytest.raises(ValueError, match=re.escape(message)):
        log.save(path)
    assert not path.exists()


@pytest.mark.parametrize("key, value", [
    ("u", 1.7), ("v", "3"), ("u", True), ("v", None), ("u", np.float64(2)),
])
def test_edit_log_save_refuses_ids_it_cannot_write_as_they_are(tmp_path, key, value):
    log = EditLog(header={"seed": 1})
    log.append("rewire", "add", 0, 1)
    log.append("rewire", "add", np.int64(1), np.int32(2))  # numpy integers are ids
    log.append("rewire", "remove", 0, 1)
    log.save(tmp_path / "valid.jsonl")
    assert EditLog.load(tmp_path / "valid.jsonl").records == log.records
    {"u": log.us, "v": log.vs}[key][2] = value
    path = tmp_path / "edits.jsonl"
    with pytest.raises(ValueError, match=re.escape(f"seq 2: {key!r} must be an integer, "
                                                   f"got {value!r}")):
        log.save(path)
    assert not path.exists()


def _replay_outcome(replay, log, g):
    """The graph a replay gives, or the message it raises."""
    try:
        return replay(log, g)
    except ValueError as exc:
        return str(exc)


@st.composite
def _replay_cases(draw):
    """A graph on 0-6 nodes and a log of mostly valid toggles of its pairs,
    mixed with a wrong op for a pair's state (a missing or duplicate edge),
    records of any endpoints (ids beyond int64 too) and unknown ops, some
    of them no string."""
    n = draw(st.integers(0, 6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph.from_edges(n, sorted(edges))
    present = set(edges)
    ids = st.integers(-1, n) | st.sampled_from([2**63, -2**63 - 1, 2**70])
    rate = draw(st.sampled_from([0, 2, 6]))  # percent of each kind of bad record
    log = EditLog()
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 99)) // max(rate, 1) if rate else 3
        if not pairs or kind == 0:
            a, b = draw(ids), draw(ids)
            op = draw(st.sampled_from(["add", "remove"]))
        else:
            a, b = draw(st.sampled_from(pairs))
            op = "remove" if (a, b) in present else "add"
            if kind == 1:
                op = "add" if op == "remove" else "remove"
            elif kind == 2:
                op = draw(st.sampled_from(["move", 7, None, ("add",)]))
            else:
                present ^= {(a, b)}
            if draw(st.booleans()):
                a, b = b, a
        log.append("rewire", op, a, b)
    return g, log


@given(_replay_cases())
@settings(max_examples=400, deadline=None)
def test_edit_log_replay_matches_the_set_reference(case):
    g, log = case
    assert (_replay_outcome(EditLog.replay, log, g)
            == _replay_outcome(reference_replay, log, g))


def test_edit_log_replay_edge_cases():
    # a graph with no edges: an edge added, removed and added again is present
    empty = Graph.from_edges(4, [])
    log = EditLog()
    for op in ("add", "remove", "add"):
        log.append("refine", op, 2, 1)
    log.append("refine", "add", 0, 3)
    assert log.replay(empty) == Graph.from_edges(4, [(1, 2), (0, 3)])
    assert EditLog().replay(empty) == empty
    log.append("refine", "remove", 3, 2)
    with pytest.raises(ValueError, match=r"^record 4: removing missing edge \(3, 2\)$"):
        log.replay(empty)
    # no nodes at all: every record has bad endpoints
    nodeless = EditLog()
    nodeless.append("refine", "add", 0, 1)
    with pytest.raises(ValueError, match=r"^record 0: invalid endpoints \(0, 1\)$"):
        nodeless.replay(Graph.from_edges(0, []))

    g = Graph.from_edges(3, [(0, 1)])
    # ids beyond int64 are out of range, but an earlier bad record comes first
    huge = EditLog()
    huge.append("rewire", "remove", 1, 0)
    huge.append("rewire", "add", 0, 2**64)
    with pytest.raises(ValueError, match=rf"^record 1: invalid endpoints \(0, {2**64}\)$"):
        huge.replay(g)
    huge.ops[0] = "add"
    with pytest.raises(ValueError, match=r"^record 0: adding duplicate edge \(1, 0\)$"):
        huge.replay(g)
    # an op that is no string is an unknown op, after the endpoint check
    for op in (7, None, ["add"]):
        odd = EditLog()
        odd.append("rewire", op, 0, 2)
        with pytest.raises(ValueError, match=r"^record 0: unknown op "):
            odd.replay(g)
        assert str(_replay_outcome(EditLog.replay, odd, g)).endswith(repr(op))
    odd.us[0] = 2
    with pytest.raises(ValueError, match="invalid endpoints"):
        odd.replay(g)


def _sample_log():
    log = EditLog(header={"seed": 2, "alpha": 3.0, "beta": 10.0, "bins": 10})
    for k in range(7):
        log.append("rewire" if k < 4 else "refine", "remove" if k in (0, 2) else "add",
                   k, 10 * k + 1)
    return log


def test_edit_log_columns_survive_save_and_load(tmp_path, log_chunk):
    log = _sample_log()
    path = tmp_path / "edits.jsonl"
    log.save(path)
    loaded = EditLog.load(path)
    assert loaded == log
    assert len(loaded) == len(log) == 7
    assert loaded.records == log.records
    assert loaded.records == [EditRecord(k, "rewire" if k < 4 else "refine",
                                         "remove" if k in (0, 2) else "add", k, 10 * k + 1)
                              for k in range(7)]

    # equality looks at every column and the header
    for column in ("phases", "ops", "us", "vs"):
        other = EditLog.load(path)
        values = getattr(other, column)
        values[3] += 1 if isinstance(values[3], int) else "x"
        assert other != log
    other = EditLog.load(path)
    other.header["seed"] = 3
    assert other != log

    empty = tmp_path / "empty.jsonl"
    EditLog(header={"seed": 1}).save(empty)
    assert len(EditLog.load(empty)) == 0 and EditLog.load(empty).records == []


def test_edit_log_records_is_a_read_only_view():
    log = _sample_log()
    view = log.records
    view.append(EditRecord(99, "refine", "add", 0, 1))
    assert len(log) == 7 and log.records == view[:7]
    with pytest.raises(AttributeError):
        log.records = []


def test_edit_log_load_leaves_the_collector_as_it_found_it(tmp_path, caller_gc, monkeypatch):
    path = tmp_path / "edits.jsonl"
    path.write_text('{"seed": 1}\n' + _RECORD + "\n", encoding="utf-8")
    seen = []
    block_columns = editlog._block_columns

    def recording_block(*args):
        seen.append(gc.isenabled())
        return block_columns(*args)

    monkeypatch.setattr(editlog, "_block_columns", recording_block)
    assert len(EditLog.load(path)) == 1
    assert seen == [False] and gc.isenabled() is caller_gc
    path.write_text('{"seed": 1}\n' + _RECORD + "\n{bad\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: invalid JSON"):
        EditLog.load(path)
    assert gc.isenabled() is caller_gc
