"""Transport planning, goal assignment, and the two-phase rewiring engine."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homshift import (
    BetaGoal,
    EditLog,
    EditRecord,
    GenerationReport,
    Graph,
    HomophilyHistogram,
    NodeGoal,
    NodeTable,
    TransportPlan,
    assign_node_goals,
    beta_goal_histogram,
    bin_index,
    edge_move_bounds,
    emd,
    generate,
    histogram,
    local_homophily_all,
    refine_phase,
    rewire_phase,
    save_edge_list,
    transport_plan,
    two_class_sbm,
)

from homshift import rewire
from homshift.homophily import defined_histogram
from homshift.rewire import _RUN, _EditState

from conftest import (
    EditLogChecker,
    lp_transport_cost,
    reference_best_partner,
    reference_edit_log_load,
    reference_replay,
)


@pytest.fixture(scope="module")
def small_pair():
    """600-node SBM shared by the rewiring invariant tests."""
    return two_class_sbm(600, 8, 0.5, seed=13)


@pytest.fixture(scope="module")
def small_goals(small_pair):
    g, t = small_pair
    ratios = local_homophily_all(g, t)
    source = histogram(ratios[~np.isnan(ratios)], 10)
    target = beta_goal_histogram(BetaGoal(3.0, 10.0), 10)
    plan = transport_plan(source, target)
    goals = assign_node_goals(plan, ratios, 10, seed=5)
    return ratios, source, target, goals


@pytest.fixture(scope="module")
def rewired(small_pair, small_goals):
    g, t = small_pair
    goals = small_goals[3]
    return rewire_phase(g, t, goals, seed=21)


@pytest.fixture(scope="module")
def gen_run(small_pair):
    g, t = small_pair
    return generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11)


# ---------------------------------------------------------------- transport


def test_transport_plan_identity_is_diagonal():
    h = HomophilyHistogram(2, np.array([0.3, 0.7]))
    plan = transport_plan(h, h)
    assert np.allclose(plan.matrix, np.diag([0.3, 0.7]), atol=1e-15)


def test_transport_plan_two_bin_swap():
    p = HomophilyHistogram(2, np.array([1.0, 0.0]))
    q = HomophilyHistogram(2, np.array([0.0, 1.0]))
    assert np.allclose(transport_plan(p, q).matrix, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
    # and the reverse direction fills the lower triangle instead
    assert np.allclose(transport_plan(q, p).matrix, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_transport_plan_partial_overlap():
    p = HomophilyHistogram(2, np.array([0.6, 0.4]))
    q = HomophilyHistogram(2, np.array([0.3, 0.7]))
    assert np.allclose(transport_plan(p, q).matrix, [[0.3, 0.3], [0.0, 0.4]], atol=1e-15)


def test_transport_plan_cost_matches_lp_oracle():
    """Monotone filling is optimal for this ground cost: equals LP and EMD."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        b = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(b))
        q = rng.dirichlet(np.ones(b))
        p, q = p / p.sum(), q / q.sum()
        hp, hq = HomophilyHistogram(b, p), HomophilyHistogram(b, q)
        plan = transport_plan(hp, hq)
        assert np.allclose(plan.matrix.sum(axis=1), p, atol=1e-9)
        assert np.allclose(plan.matrix.sum(axis=0), q, atol=1e-9)
        dist = np.abs(np.subtract.outer(np.arange(b), np.arange(b))) / b
        cost = float((plan.matrix * dist).sum())
        assert abs(cost - emd(hp, hq)) < 1e-12
        assert abs(cost - lp_transport_cost(p, q)) < 1e-9


def test_transport_plan_bin_mismatch_rejected():
    p = HomophilyHistogram(2, np.array([0.5, 0.5]))
    q = HomophilyHistogram(3, np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        transport_plan(p, q)


def test_transport_plan_negative_entry_rejected():
    with pytest.raises(ValueError):
        TransportPlan(2, np.array([[-0.5, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------- goal assignment


def test_diagonal_plan_keeps_everyone_in_place():
    ratios = np.array([0.05, 0.05, 0.55, 0.95])
    source = histogram(ratios, 2)
    plan = TransportPlan(2, np.diag(source.mass))
    goals = assign_node_goals(plan, ratios, 2, seed=0)
    assert len(goals) == 4
    for gl in goals:
        assert gl.direction == 0
        expected_center = 0.25 if ratios[gl.node] < 0.5 else 0.75
        assert gl.h_goal == expected_center


def test_split_row_moves_half():
    # ten nodes in bin 0 of two; half the row mass is routed to bin 1
    ratios = np.full(10, 0.2)
    plan = TransportPlan(2, np.array([[0.5, 0.5], [0.0, 0.0]]))
    goals = assign_node_goals(plan, ratios, 2, seed=1)
    stay = [gl for gl in goals if gl.direction == 0]
    move = [gl for gl in goals if gl.direction != 0]
    assert len(stay) == 5 and len(move) == 5
    assert all(gl.h_goal == 0.25 for gl in stay)
    assert all(gl.h_goal == 0.75 and gl.direction == 1 for gl in move)


def test_goal_assignment_deterministic():
    ratios = np.full(10, 0.2)
    plan = TransportPlan(2, np.array([[0.5, 0.5], [0.0, 0.0]]))
    a = assign_node_goals(plan, ratios, 2, seed=3)
    b = assign_node_goals(plan, ratios, 2, seed=3)
    assert a == b


def test_goal_counts_match_plan_quotas():
    rng = np.random.default_rng(4)
    ratios = rng.beta(5.0, 2.0, size=400)
    source = histogram(ratios, 6)
    target = beta_goal_histogram(BetaGoal(2.0, 5.0), 6)
    plan = transport_plan(source, target)
    goals = assign_node_goals(plan, ratios, 6, seed=9)

    assert [gl.node for gl in goals] == sorted(gl.node for gl in goals)
    bins = bin_index(ratios, 6)
    centers = (np.arange(6) + 0.5) / 6
    counts = np.zeros((6, 6), dtype=int)
    for gl in goals:
        i = int(bins[gl.node])
        j = int(np.argmin(np.abs(centers - gl.h_goal)))
        assert abs(centers[j] - gl.h_goal) < 1e-12
        assert gl.h_current == ratios[gl.node]
        if j == i:
            assert gl.direction == 0
        else:
            assert gl.direction == (1 if centers[j] > ratios[gl.node] else -1)
        counts[i, j] += 1

    # row totals are exact; each cell is within one node of its quota,
    # the defining property of largest-remainder rounding
    for i in range(6):
        n_i = int((bins == i).sum())
        assert counts[i].sum() == n_i
        row = plan.matrix[i].sum()
        if n_i and row > 0:
            quota = plan.matrix[i] / row * n_i
            assert np.all(np.abs(counts[i] - quota) < 1.0 + 1e-6)


def test_inconsistent_plan_rejected():
    ratios = np.full(10, 0.2)
    plan = TransportPlan(2, np.array([[0.4, 0.4], [0.0, 0.2]]))
    with pytest.raises(ValueError):
        assign_node_goals(plan, ratios, 2, seed=0)


# ------------------------------------------------------------- move bounds


def test_edge_move_bounds_examples():
    assert edge_move_bounds(0.2, 0.5, 10) == (3, 6)
    assert edge_move_bounds(0.8, 0.5, 10) == (3, 6)
    assert edge_move_bounds(0.5, 0.5, 10) == (0, 0)
    # goals at the ends of the scale cannot be reached by additions alone,
    # so the addition bound falls back to the flip bound
    assert edge_move_bounds(0.4, 1.0, 5) == (3, 3)
    assert edge_move_bounds(0.4, 0.0, 5) == (2, 2)


def test_edge_move_bounds_float_dust():
    # 0.2 - 0.1 slightly exceeds 0.1 in floats; the bound must still be 1
    assert edge_move_bounds(0.1, 0.2, 10)[0] == 1


def test_edge_move_bounds_invalid_degree():
    with pytest.raises(ValueError):
        edge_move_bounds(0.5, 0.7, 0)


def _min_flips(same: int, degree: int, target: Fraction) -> int:
    """Fewest same/different swaps (degree fixed) to reach or cross target."""
    h = Fraction(same, degree)
    if h == target:
        return 0
    if h < target:
        return next(m for m in range(degree - same + 1)
                    if Fraction(same + m, degree) >= target)
    return next(m for m in range(same + 1)
                if Fraction(same - m, degree) <= target)


def _min_additions(same: int, degree: int, target: Fraction):
    """Fewest pure additions to reach or cross target; None if unreachable."""
    h = Fraction(same, degree)
    if h == target:
        return 0
    for m in range(4001):
        if h < target and Fraction(same + m, degree + m) >= target:
            return m
        if h > target and Fraction(same, degree + m) <= target:
            return m
    return None


def test_edge_move_bounds_brute_force_oracle():
    degree = 10
    for same in range(degree + 1):
        for j in range(21):
            target = Fraction(j, 20)
            lower, upper = edge_move_bounds(same / degree, j / 20, degree)
            assert lower == _min_flips(same, degree, target)
            adds = _min_additions(same, degree, target)
            if adds is None:
                assert upper == lower
            else:
                assert upper == adds
            assert upper >= lower or adds is not None


# ---------------------------------------------------------------- edit log


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
        monkeypatch.setattr(rewire, "_LOG_CHUNK", request.param)


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
    # valid, but outside the bulk rules: nested header values, extra record keys
    '{"seed": {"runs": [1, 2]}}\n' + _record_line(0, note=[1, {"a": 2}]) + "\n"
    + _record_line(1, extra=None) + "\n" + _record_line(2) + "\n",
])
def test_edit_log_load_reads_each_line_on_its_own(tmp_path, log_chunk, text):
    """Lines that decode as one JSON array only when joined never get past
    the bulk decoding: the log reads as its lines read one at a time."""
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
            mp.setattr(rewire, "_LOG_CHUNK", chunk)
        outcome = _load_outcome(EditLog.load, path)
    assert outcome == _load_outcome(reference_edit_log_load, path)


def test_edit_log_save_refuses_what_load_refuses(tmp_path):
    log = EditLog(header={"seed": 1})
    log.append("refine", 7, 3, 4)
    path = tmp_path / "edits.jsonl"
    with pytest.raises(ValueError, match="'op' must be a string, got 7"):
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


# ------------------------------------------------------------- hand traces


def test_rewire_phase_hand_trace():
    # Node 0 (label 0) sits at h=1/4 and wants 3/4. Its heterophilous
    # neighbors 1 and 2 want to shed their one cross edge; leaves 7 and 8
    # (label 0) each want one same-label edge. Two remove+add pairs fix
    # everyone. Seed 13 visits node 0 first in the source permutation;
    # the exact trace below depends on that order.
    g = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (0, 4),
                              (1, 5), (2, 6), (7, 9), (8, 9)])
    t = NodeTable(np.array([0, 1, 1, 1, 0, 1, 1, 0, 0, 1]),
                  np.zeros(10, dtype=int))
    goals = [
        NodeGoal(0, 0.25, 0.75, 1),
        NodeGoal(1, 0.5, 1.0, 1),
        NodeGoal(2, 0.5, 1.0, 1),
        NodeGoal(3, 0.0, 0.0, 0),
        NodeGoal(4, 1.0, 1.0, 0),
        NodeGoal(7, 0.0, 0.5, 1),
        NodeGoal(8, 0.0, 0.5, 1),
    ]
    g2, log = rewire_phase(g, t, goals, seed=13)

    trace = [(r.phase, r.op, r.u, r.v) for r in log.records]
    assert trace == [("rewire", "remove", 0, 1), ("rewire", "add", 0, 7),
                     ("rewire", "remove", 0, 2), ("rewire", "add", 0, 8)]
    assert g2.edge_count == g.edge_count
    assert g2.degrees[0] == 4

    ratios = local_homophily_all(g2, t)
    assert ratios[0] == 0.75
    assert ratios[1] == 1.0 and ratios[2] == 1.0
    assert ratios[7] == 0.5 and ratios[8] == 0.5
    # direction-0 nodes keep their original neighborhoods
    assert g2.degrees[3] == 1 and g2.degrees[4] == 1


def test_rewire_phase_no_active_goals_is_identity(tiny_pair):
    g, t = tiny_pair
    ratios = local_homophily_all(g, t)
    goals = [NodeGoal(i, float(ratios[i]), float(ratios[i]), 0)
             for i in range(g.node_count)]
    g2, log = rewire_phase(g, t, goals, seed=0)
    assert log.records == []
    assert np.array_equal(g2.edge_array(), g.edge_array())


def test_refine_phase_single_addition():
    # two saturated nodes of different labels both want lower homophily;
    # one cross edge between them serves both
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1]), np.zeros(6, dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1), NodeGoal(1, 1.0, 0.5, -1)]
    g2, log = refine_phase(g, t, goals, seed=0)

    assert [(r.phase, r.op, r.u, r.v) for r in log.records] == [("refine", "add", 0, 1)]
    ratios = local_homophily_all(g2, t)
    assert ratios[0] == pytest.approx(2 / 3)
    assert ratios[1] == pytest.approx(2 / 3)


def test_refine_phase_on_target_is_identity(tiny_pair):
    g, t = tiny_pair
    ratios = local_homophily_all(g, t)
    goals = [NodeGoal(i, float(ratios[i]), float(ratios[i]), 0)
             for i in range(g.node_count)]
    g2, log = refine_phase(g, t, goals, seed=4)
    assert log.records == []
    assert np.array_equal(g2.edge_array(), g.edge_array())


@pytest.mark.parametrize("phase", [rewire_phase, refine_phase])
@pytest.mark.parametrize("h_goal", [1.5, -0.2, math.nan])
def test_phases_reject_a_moving_goal_outside_unit_interval(phase, h_goal):
    g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1]), np.zeros(6, dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1), NodeGoal(1, 1.0, h_goal, 1)]
    with pytest.raises(ValueError, match=r"^node 1 has goal .* outside \[0, 1\]$"):
        phase(g, t, goals, seed=0)


# -------------------------------------------------------- partner choice


def _addition_state(partner_goals):
    """Node 0 (label 0, h=1) wants 0.5 and needs a cross-label partner.

    Node 1 (label 1, h=1, gap 1.0) and nodes 4 and 5 (label 1, h=1 via a
    shared neighbour 9) also want lower ratios; partner_goals sets the
    goals of 4 and 5.
    """
    g = Graph.from_edges(10, [(0, 2), (0, 3), (1, 6), (1, 7), (1, 8), (4, 9), (5, 9)])
    t = NodeTable(np.array([0, 1, 0, 0, 1, 1, 1, 1, 1, 1]), np.zeros(10, dtype=int))
    goals = [NodeGoal(0, 1.0, 0.5, -1), NodeGoal(1, 1.0, 0.0, -1)]
    goals += [NodeGoal(v, 1.0, h, -1) for v, h in zip((4, 5), partner_goals)]
    return _EditState(g, t, goals, EditLog())


def _trace(state):
    return [(r.op, r.u, r.v) for r in state.log.records]


def test_addition_gap_tie_goes_to_lower_id():
    # 4 and 5 tie at gap 0.5, ahead of node 1's gap 1.0; all three pass
    state = _addition_state((0.5, 0.5))
    assert state.attempt_refine(0)
    assert _trace(state) == [("add", 0, 4)]


def test_addition_skips_smallest_gap_that_fails_gate():
    # node 4 is nearly on target (gap 0.05): a cross edge would drop it to
    # h=0.5, a 0.4 overshoot that outweighs node 0's 1/3 gain, so the gate
    # rejects it and node 5 (next smallest gap) is taken
    state = _addition_state((0.95, 0.5))
    assert state.attempt_refine(0)
    assert _trace(state) == [("add", 0, 5)]


def test_rewire_skips_neighbour_that_fails_removal_gate():
    # Node 0 (label 0) sits at h=1/4 and wants 3/4, so it sheds a cross
    # edge. Neighbour 1 has the smallest gap (h=1/2, goal 0.55): losing
    # its cross edge takes it to h=1, which the removal gate rejects.
    # Neighbour 2 (goal 1.0) passes and is removed; node 7 takes the add.
    g = Graph.from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (7, 8)])
    t = NodeTable(np.array([0, 1, 1, 1, 0, 1, 1, 0, 1]), np.zeros(9, dtype=int))
    goals = [NodeGoal(0, 0.25, 0.75, 1), NodeGoal(1, 0.5, 0.55, 1),
             NodeGoal(2, 0.5, 1.0, 1), NodeGoal(7, 0.0, 0.5, 1)]
    state = _EditState(g, t, goals, EditLog())
    assert state.attempt_rewire(0)
    assert _trace(state) == [("remove", 0, 2), ("add", 0, 7)]


# --------------------------------------------------------- partner pools


def _check_pools(state):
    """Every pool holds exactly its (label, live sign) members in (gap, id)
    order, cut into runs of at most 2 * _RUN keys, and its run floors bound
    the members' add changes from below."""
    live = np.asarray(state.live)
    labels = np.asarray(state.labels)
    for (c, s), pool in state._pools.items():
        members = np.flatnonzero((labels == c) & (live == s))
        keys = sorted((state.gap_abs[v], int(v)) for v in members)
        assert [key for run in pool.runs for key in run] == keys
        assert all(0 < len(run) <= 2 * _RUN for run in pool.runs)
        assert pool.lasts == [run[-1] for run in pool.runs]
        for floor, run in zip(pool.floors, pool.runs):
            assert floor <= min(state.add_delta[k] for _, k in run)


def _capture_states(mp):
    """Collect every _EditState as its phase finishes, pools checked."""
    states = []
    finish = _EditState.finish

    def capturing_finish(self):
        _check_pools(self)
        states.append(self)
        return finish(self)

    mp.setattr(_EditState, "finish", capturing_finish)
    return states


@st.composite
def _edit_problems(draw):
    """A small random graph with 2 or 3 labels, and goals on a coarse grid
    so that many nodes share a gap."""
    n = draw(st.integers(6, 30))
    n_labels = draw(st.sampled_from([2, 3]))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), min_size=n, max_size=4 * n))
    g = Graph.from_edges(n, sorted(edges))
    labels = np.array(draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n)))
    t = NodeTable(labels, np.zeros(n, dtype=int))
    grid = (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0)
    goals = []
    for v in range(n):
        if g.degrees[v] > 0 and draw(st.booleans()):
            goals.append(NodeGoal(v, 0.5, draw(st.sampled_from(grid)), 1))
    return g, t, goals, draw(st.integers(0, 2**16))


def _checked_replay(g, t, goals, seed):
    """Run both phases with every partner search checked against the mask
    reference: each search must return the reference's partner, or -1 when
    the reference finds none. Pools are checked as each phase ends. Returns
    the final graph, the log and the outcome counts (found, none, tied: a
    found partner whose gap another node of its sign shares)."""
    search = _EditState._best_partner
    seen = {"found": 0, "none": 0, "tied": 0}

    def checked_search(self, i, s, d_i):
        got = search(self, i, s, d_i)
        assert got == reference_best_partner(self, i, s, d_i)
        seen["found" if got >= 0 else "none"] += 1
        if got >= 0 and sum(gap == self.gap_abs[got] and live == s
                            for gap, live in zip(self.gap_abs, self.live)) > 1:
            seen["tied"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_EditState, "_best_partner", checked_search)
        states = _capture_states(mp)
        g_rw, log = rewire_phase(g, t, goals, seed=seed)
        g_fin, log = refine_phase(g_rw, t, goals, seed=seed + 1, log=log)
    assert len(states) == 2
    return g_fin, log, seen


@given(_edit_problems())
@settings(max_examples=150, deadline=None)
def test_pool_search_matches_mask_reference(problem):
    """Replays both phases on small random graphs with the search checked,
    then audits the log independently."""
    g, t, goals, seed = problem
    g_fin, log, _ = _checked_replay(g, t, goals, seed)
    checker = EditLogChecker(g, t, goals).apply(log.records)
    assert checker.edges() == tuple(map(tuple, g_fin.edge_array().tolist()))


def test_pool_search_sees_ties_and_both_outcomes():
    """The checked replay meets found partners, searches that find none,
    and gap ties: on a 3-label random graph with grid goals all three occur."""
    rng = np.random.default_rng(2)
    n = 120
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.06]
    g = Graph.from_edges(n, edges)
    t = NodeTable(np.arange(n) % 3, np.zeros(n, dtype=int))
    goals = [NodeGoal(v, 0.5, (0.25, 0.5, 0.75)[v % 3], 1)
             for v in range(n) if g.degrees[v] > 0]
    _, _, seen = _checked_replay(g, t, goals, seed=4)
    assert seen["found"] > 0 and seen["none"] > 0 and seen["tied"] > 0


def test_pools_stay_bounded_after_generate(small_pair):
    """After a full generate() on the 600-node SBM, the one state both
    phases ran on has pools that hold exactly the live nodes."""
    g, t = small_pair
    with pytest.MonkeyPatch.context() as mp:
        states = _capture_states(mp)
        _, log, _ = generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11)
    assert len(states) == 1 and log.records
    state, = states
    assert (sum(len(run) for pool in state._pools.values() for run in pool.runs)
            == np.count_nonzero(state.live))


def _check_matches_fresh_state(state, t, goals):
    """The state a phase ends in holds what a new _EditState built from its
    final graph holds: live signs, same-label counts, degrees, gaps and pool
    members, and the add change of every live node (it is left stale once a
    node is on target)."""
    fresh = _EditState(state.finish(), t, goals, EditLog())
    assert state.live == fresh.live
    assert (state.same, state.deg) == (fresh.same, fresh.deg)
    assert state.gap_abs == fresh.gap_abs
    live = [v for v, s in enumerate(state.live) if s]
    assert [state.add_delta[v] for v in live] == [fresh.add_delta[v] for v in live]
    assert state._pools.keys() == fresh._pools.keys()
    for c_s, pool in state._pools.items():
        assert ([key for run in pool.runs for key in run]
                == [key for run in fresh._pools[c_s].runs for key in run])


def _phase_states(g, t, goals, seed):
    with pytest.MonkeyPatch.context() as mp:
        states = _capture_states(mp)
        g_rw, log = rewire_phase(g, t, goals, seed=seed)
        refine_phase(g_rw, t, goals, seed=seed + 1, log=log)
    assert len(states) == 2
    return states


@pytest.mark.parametrize("alpha, beta", [(3.0, 10.0), (10.0, 3.0)])
def test_phase_end_state_matches_a_fresh_state(small_pair, alpha, beta):
    g, t = small_pair
    ratios = local_homophily_all(g, t)
    source = histogram(ratios[~np.isnan(ratios)], 10)
    plan = transport_plan(source, beta_goal_histogram(BetaGoal(alpha, beta), 10))
    goals = assign_node_goals(plan, ratios, 10, seed=5)
    states = _phase_states(g, t, goals, seed=21)
    assert len(states[0].log) > 0
    for state in states:
        _check_matches_fresh_state(state, t, goals)


@given(_edit_problems())
@settings(max_examples=60, deadline=None)
def test_phase_end_state_matches_a_fresh_state_on_small_graphs(problem):
    g, t, goals, seed = problem
    for state in _phase_states(g, t, goals, seed):
        _check_matches_fresh_state(state, t, goals)


# ------------------------------------------------------- phase invariants


def test_rewire_phase_preserves_edges_and_pairs_sources(small_pair, rewired):
    g, _ = small_pair
    g_rw, log = rewired
    assert g_rw.edge_count == g.edge_count
    recs = log.records
    assert recs and len(recs) % 2 == 0
    assert [r.seq for r in recs] == list(range(len(recs)))
    for k in range(0, len(recs), 2):
        rm, ad = recs[k], recs[k + 1]
        assert rm.phase == "rewire" and ad.phase == "rewire"
        assert (rm.op, ad.op) == ("remove", "add")
        assert rm.u == ad.u


def test_rewire_phase_degree_accounting(small_pair, rewired):
    # each pair conserves its source's degree, so a node's net change is
    #±1 per record in which it appears as the passive endpoint
    g, _ = small_pair
    g_rw, log = rewired
    delta = np.zeros(g.node_count, dtype=int)
    appearances = np.zeros(g.node_count, dtype=int)
    for rec in log.records:
        delta[rec.v] += 1 if rec.op == "add" else -1
        appearances[rec.v] += 1
    assert np.array_equal(g_rw.degrees - g.degrees, delta)
    assert np.all(np.abs(delta) <= appearances)


def test_refine_phase_only_adds(small_pair, small_goals, rewired):
    _, t = small_pair
    goals = small_goals[3]
    g_rw, _ = rewired
    g_fin, log = refine_phase(g_rw, t, goals, seed=22)
    assert log.records
    assert all(r.phase == "refine" and r.op == "add" for r in log.records)
    assert g_fin.edge_count == g_rw.edge_count + len(log.records)


def test_edit_log_checker_audit(small_pair, small_goals, rewired):
    """Independent replay: simplicity, per-edit potential decrease,
    direction-0 nodes untouched, and final edges in exact agreement."""
    g, t = small_pair
    goals = small_goals[3]
    g_rw, log_rw = rewired
    g_fin, log_rf = refine_phase(g_rw, t, goals, seed=22)

    checker = EditLogChecker(g, t, goals).apply(log_rw.records + log_rf.records)
    assert not checker.touched_zero_direction
    assert checker.edges() == tuple(map(tuple, g_fin.edge_array().tolist()))


def test_pipeline_reduces_emd(small_pair, small_goals, rewired):
    _, t = small_pair
    _, source, target, goals = small_goals
    g_rw, _ = rewired
    g_fin, _ = refine_phase(g_rw, t, goals, seed=22)
    final_ratios = local_homophily_all(g_fin, t)
    final = histogram(final_ratios[~np.isnan(final_ratios)], 10)
    assert emd(final, target) <= emd(source, target)
    assert emd(final, target) < 0.05


# ------------------------------------------------------------ generate()


def test_generate_reduces_emd(small_pair, gen_run):
    g, t = small_pair
    g2, _, report = gen_run
    assert report.emd_generated_goal <= 0.5 * report.emd_original_goal

    # reported figures match an independent recomputation from the graphs
    target = beta_goal_histogram(BetaGoal(3.0, 10.0), 10)
    for graph, value in ((g, report.emd_original_goal),
                         (g2, report.emd_generated_goal)):
        ratios = local_homophily_all(graph, t)
        hist = histogram(ratios[~np.isnan(ratios)], 10)
        assert emd(hist, target) == pytest.approx(value, abs=1e-12)


def test_generate_replay_matches(small_pair, gen_run):
    g, _ = small_pair
    g2, log, _ = gen_run
    assert np.array_equal(log.replay(g).edge_array(), g2.edge_array())


def test_generate_report_consistency(small_pair, gen_run):
    g, _ = small_pair
    g2, log, report = gen_run
    rewire_recs = [r for r in log.records if r.phase == "rewire"]
    refine_recs = [r for r in log.records if r.phase == "refine"]
    # phases are contiguous: all rewiring precedes all refining
    assert log.records[:len(rewire_recs)] == rewire_recs
    assert report.edits_rewire == len(rewire_recs) // 2
    assert report.edits_refine == len(refine_recs)

    deltas = (g2.degrees - g.degrees).astype(int)
    hist = {}
    for d in deltas.tolist():
        hist[d] = hist.get(d, 0) + 1
    assert report.degree_delta_histogram == hist
    assert sum(report.degree_delta_histogram.values()) == g.node_count
    n_add = sum(1 for r in log.records if r.op == "add")
    n_remove = sum(1 for r in log.records if r.op == "remove")
    assert int(deltas.sum()) == 2 * (n_add - n_remove)


def test_generate_log_holds_plain_columns(gen_run):
    """The log keeps no object per record: four lists of ints and strs."""
    _, log, report = gen_run
    assert set(vars(log)) == {"header", "phases", "ops", "us", "vs"}
    assert {type(x) for col in (log.us, log.vs) for x in col} == {int}
    assert {type(x) for col in (log.phases, log.ops) for x in col} == {str}
    assert len(log) == 2 * report.edits_rewire + report.edits_refine


def test_generate_header_and_determinism(small_pair, gen_run):
    g, t = small_pair
    g2, log, _ = gen_run
    assert log.header == {"seed": 11, "alpha": 3.0, "beta": 10.0, "bins": 10}

    g3, log3, _ = generate(g, t, BetaGoal(3.0, 10.0), 10, seed=11)
    assert np.array_equal(g3.edge_array(), g2.edge_array())
    assert log3.records == log.records


def test_matched_goal_needs_fewer_edits(small_pair, gen_run):
    # a Beta goal moment-fitted to the existing ratios asks for almost
    # nothing; a distant goal forces a full reshaping
    g, t = small_pair
    _, _, far_report = gen_run
    ratios = local_homophily_all(g, t)
    valid = ratios[~np.isnan(ratios)]
    mean, var = float(valid.mean()), float(valid.var())
    common = mean * (1 - mean) / var - 1
    fit = BetaGoal(mean * common, (1 - mean) * common)

    _, _, report = generate(g, t, fit, 10, seed=11)
    assert report.emd_original_goal < 0.05
    assert report.emd_generated_goal <= report.emd_original_goal
    fit_edits = report.edits_rewire + report.edits_refine
    far_edits = far_report.edits_rewire + far_report.edits_refine
    assert fit_edits < far_edits / 3


def _multiclass_pair():
    rng = np.random.default_rng(3)
    n = 90
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.12]
    return Graph.from_edges(n, edges), NodeTable(np.arange(n) % 3, np.zeros(n, dtype=int))


def _two_state_generate(g, t, goal, bin_count, seed):
    """generate() from the public phase functions: rewire_phase, then
    refine_phase on a state built anew from the rewired graph."""
    ratios = local_homophily_all(g, t)
    source_hist = defined_histogram(ratios, bin_count)
    goal_hist = beta_goal_histogram(goal, bin_count)
    plan = transport_plan(source_hist, goal_hist)
    seed_assign, seed_rewire, seed_refine = np.random.SeedSequence(seed).spawn(3)
    goals = assign_node_goals(plan, ratios, bin_count, seed_assign)
    log = EditLog(header={"seed": seed, "alpha": goal.alpha, "beta": goal.beta,
                          "bins": bin_count})
    g_rw, log = rewire_phase(g, t, goals, seed_rewire, log=log)
    n_rewire = len(log)
    g_fin, log = refine_phase(g_rw, t, goals, seed_refine, log=log)
    final_hist = defined_histogram(local_homophily_all(g_fin, t), bin_count)
    values, counts = np.unique(g_fin.degrees - g.degrees, return_counts=True)
    return g_fin, log, GenerationReport(
        emd_original_goal=emd(source_hist, goal_hist),
        emd_generated_goal=emd(final_hist, goal_hist),
        edits_rewire=n_rewire // 2,
        edits_refine=len(log) - n_rewire,
        degree_delta_histogram=dict(zip(values.tolist(), counts.tolist())),
    )


@pytest.mark.parametrize("alpha, beta", [(3.0, 10.0), (10.0, 3.0)])
def test_generate_matches_the_two_phase_functions(small_pair, alpha, beta):
    g, t = small_pair
    got = generate(g, t, BetaGoal(alpha, beta), 10, seed=11)
    assert got[2].edits_rewire > 0 and got[2].edits_refine > 0
    assert got == _two_state_generate(g, t, BetaGoal(alpha, beta), 10, 11)


@given(_edit_problems(), st.sampled_from([(3.0, 10.0), (10.0, 3.0), (2.0, 2.0)]))
@settings(max_examples=60, deadline=None)
def test_generate_matches_the_two_phase_functions_on_small_graphs(problem, shape):
    g, t, _, seed = problem
    goal = BetaGoal(*shape)
    assert generate(g, t, goal, 5, seed) == _two_state_generate(g, t, goal, 5, seed)


def test_generate_multiclass():
    g, t = _multiclass_pair()
    g2, log, report = generate(g, t, BetaGoal(2.0, 2.0), 5, seed=3)
    assert report.emd_generated_goal < report.emd_original_goal
    assert np.array_equal(log.replay(g).edge_array(), g2.edge_array())


# sha256 of (edit_log.jsonl, generated_edges.txt) as saved by the
# generator before its partner search was vectorised. Any change to the
# partner order, the gate arithmetic or the serialisation shows up here.
_GOLDEN_ARTIFACTS = {
    "sbm-beta-3-10": (
        "9ed798caab87d07b50d4a0387475231575166aa47702e1f33ffd80201d75e285",
        "67ad9dfdcb319abb0de790ee687ac6645b9d9e9f739175a0210a48e4951dd945"),
    "sbm-beta-10-3": (
        "d5492d0e2348fcb74058e24a6ad637d7165a420632b37f69fb7340461c9f7d7a",
        "74e9e3afe505ca1ab47c792cd202b4cee06a56a2b4312c64bfb1640420f9ac8c"),
    "multiclass": (
        "4ba44d2fb4de9654e4ef256577db313038d6525b600e1d884b59883225bf4c0a",
        "ae542beb9913eaf7eb78865899ade5f74ad009fbf17521e4f0e67b4420e771da"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_ARTIFACTS))
def test_generate_artifacts_are_pinned(tmp_path, case):
    if case == "multiclass":
        (g, t), goal, bins, seed = _multiclass_pair(), BetaGoal(2.0, 2.0), 5, 3
    else:
        alpha, beta = (3.0, 10.0) if case == "sbm-beta-3-10" else (10.0, 3.0)
        g, t = two_class_sbm(1000, 8, 0.5, seed=13)
        goal, bins, seed = BetaGoal(alpha, beta), 10, 11
    g2, log, _ = generate(g, t, goal, bins, seed=seed)
    log.save(tmp_path / "edit_log.jsonl")
    save_edge_list(g2, tmp_path / "generated_edges.txt")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("edit_log.jsonl", "generated_edges.txt"))
    assert digests == _GOLDEN_ARTIFACTS[case]


def test_generate_rejects_fully_unlabeled():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = NodeTable(np.full(4, -1), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        generate(g, t, BetaGoal(2.0, 2.0), 5, seed=0)
