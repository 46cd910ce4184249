"""Parity and F1 metrics over prediction tables, plus run comparisons."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homshift import (
    MetricRecord,
    PredictionTable,
    baseline_adjust,
    delta_metrics,
    load_predictions,
    micro_f1,
    multiclass_statistical_parity,
    per_class_statistical_parity,
    save_predictions,
    statistical_parity,
)

from conftest import confusion_micro_f1, reference_save_predictions


def _table(y_true, y_pred, sensitive, node_ids=None):
    return PredictionTable(np.asarray(y_true), np.asarray(y_pred),
                           np.asarray(sensitive), node_ids)


# --------------------------------------------------------------- parity


def test_statistical_parity_hand_value():
    # group 0 predicts the preferred class at 3/4, group 1 at 1/4
    p = _table([1] * 8, [1, 1, 1, 0, 1, 0, 0, 0],
               [0, 0, 0, 0, 1, 1, 1, 1])
    assert statistical_parity(p, preferred=1) == 0.5
    assert statistical_parity(p, preferred=0) == 0.5


def test_statistical_parity_group_swap_invariant():
    y_pred = [1, 0, 1, 1, 0, 0]
    sens = np.array([0, 0, 0, 1, 1, 1])
    p = _table([0] * 6, y_pred, sens)
    q = _table([0] * 6, y_pred, 1 - sens)
    assert statistical_parity(p, 1) == statistical_parity(q, 1)


def test_statistical_parity_identical_rates_is_zero():
    p = _table([0, 1] * 4, [1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 1, 1, 1])
    assert statistical_parity(p, 1) == 0.0


def test_statistical_parity_needs_both_groups():
    p = _table([0, 1], [0, 1], [0, 0])
    with pytest.raises(ValueError, match="sensitive groups"):
        statistical_parity(p, 1)


def test_multiclass_parity_hand_fixture():
    # group rates: (0.4, 0.4, 0.2) vs (0.2, 0.1, 0.7)
    y_pred = [0] * 4 + [1] * 4 + [2] * 2 + [0] * 2 + [1] * 1 + [2] * 7
    sens = [0] * 10 + [1] * 10
    p = _table([0] * 20, y_pred, sens)
    assert per_class_statistical_parity(p) == pytest.approx([0.2, 0.3, 0.5], abs=1e-12)
    assert multiclass_statistical_parity(p) == pytest.approx(0.5, abs=1e-12)


def test_parity_of_independent_predictions_is_small():
    rng = np.random.default_rng(1)
    n = 10_000
    p = _table(rng.integers(0, 3, n), rng.integers(0, 3, n), rng.integers(0, 2, n))
    assert multiclass_statistical_parity(p) < 0.05


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1),
                          st.booleans()), min_size=1, max_size=40),
       st.booleans())
def test_per_class_parity_matches_statistical_parity(rows, sub_table):
    y_true, y_pred, sens, keep = (np.array(col) for col in zip(*rows))
    ids = None
    if sub_table:
        ids = np.flatnonzero(keep) if keep.any() else np.array([0])
        y_true, y_pred, sens = y_true[ids], y_pred[ids], sens[ids]
    p = _table(y_true, y_pred, sens, ids)
    try:
        expected = [statistical_parity(p, c) for c in range(p.class_count)]
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            per_class_statistical_parity(p)
        return
    got = per_class_statistical_parity(p)
    assert got.shape == (p.class_count,)
    assert got.tolist() == expected


def test_multiclass_parity_needs_two_classes():
    p = _table([0, 0], [0, 0], [0, 1])
    with pytest.raises(ValueError, match="2 classes"):
        multiclass_statistical_parity(p)


# ------------------------------------------------------------------- F1


def test_micro_f1_equals_accuracy():
    p = _table([0, 1, 2, 1], [0, 2, 2, 1], [0, 1, 0, 1])
    assert micro_f1(p) == 0.75


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=60))
def test_micro_f1_matches_confusion_oracle(pairs):
    y_true = np.array([a for a, _ in pairs])
    y_pred = np.array([b for _, b in pairs])
    p = _table(y_true, y_pred, np.zeros(len(pairs), dtype=int))
    assert micro_f1(p) == pytest.approx(confusion_micro_f1(y_true, y_pred), abs=1e-12)


# ------------------------------------------------------------ the table


def test_a_sub_table_scores_only_its_rows():
    y_true = np.array([0, 0, 1, 1, 5])
    y_pred = np.array([0, 1, 1, 0, 5])
    sens = np.array([0, 1, 0, 1, 1])
    whole = _table(y_true, y_pred, sens)
    assert (whole.n_eval, whole.class_count) == (5, 6)
    rows = [0, 1, 2, 3]
    p = _table(y_true[rows], y_pred[rows], sens[rows], rows)
    assert p.n_eval == 4
    # the row left out holds the only class-5 labels
    assert p.class_count == 2
    assert micro_f1(p) == 0.5


def test_table_validation():
    with pytest.raises(ValueError, match="equal-length"):
        _table([0, 1], [0], [0, 1])
    with pytest.raises(ValueError, match="empty"):
        _table([], [], [])
    with pytest.raises(ValueError, match="non-negative"):
        _table([0, -1], [0, 0], [0, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        _table([0, 1], [0, 1], [0, 2])
    for columns, name, shown in [(([0, 1], [0, 1], [0.5, 1]), "sensitive", "0.5"),
                           (([0, 1.25], [0, 1], [0, 1]), "y_true", "1.25"),
                           (([0, 1], np.array([np.nan, 1.0]), [0, 1]), "y_pred", "nan")]:
        with pytest.raises(ValueError, match=f"{name} must be int64 integers, got {shown}$"):
            PredictionTable(*columns)


def test_table_checks_its_node_ids():
    assert _table([0, 1, 1], [0, 1, 0], [0, 1, 1]).node_ids.tolist() == [0, 1, 2]
    assert _table([0, 1, 1], [0, 1, 0], [0, 1, 1], [7, 3.0, 12]).node_ids.tolist() == [7, 3, 12]
    for ids, message in [([4, 9, 4], "node_ids must be distinct, got 4 more than once"),
                         ([0, -2, 1], "node_ids must be non-negative, got -2"),
                         ([0, 0.5, 1], "node_ids must be int64 integers, got 0.5"),
                         ([0, 1], "node_ids must match the table length"),
                         ([[0, 1, 2]], "node_ids must match the table length")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _table([0, 1, 1], [0, 1, 0], [0, 1, 1], ids)


def test_table_keeps_its_own_arrays():
    base = np.array([[0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]])
    ids = np.array([5, 2, 9, 0])
    p = PredictionTable(base[:, 0], base[:, 1], base[:, 2], ids)
    q = PredictionTable(base[:, 0].copy(), base[:, 0], base[:, 0], base[:, 0] + [0, 0, 2, 2])
    base[:, :] = 0
    ids[0] = 1
    assert p.y_true.tolist() == [0, 1, 0, 1] and p.y_pred.tolist() == [1, 1, 0, 0]
    assert p.sensitive.tolist() == [1, 0, 1, 0] and p.node_ids.tolist() == [5, 2, 9, 0]
    assert q.y_pred.tolist() == q.sensitive.tolist() == [0, 1, 0, 1]
    assert base.flags.writeable and ids.flags.writeable
    for arr in (p.y_true, p.y_pred, p.sensitive, p.node_ids, q.y_true, q.node_ids):
        assert not arr.flags.writeable


def test_table_takes_integral_floats_as_ints():
    p = PredictionTable([0.0, 1.0], np.array([1.0, 1.0]), [0, 1.0])
    assert [a.dtype for a in (p.y_true, p.y_pred, p.sensitive)] == [np.int64] * 3
    assert p.y_true.tolist() == [0, 1] and p.sensitive.tolist() == [0, 1]


# ------------------------------------------------------- run comparison


def test_delta_metrics_fixture():
    a = MetricRecord(f1=0.80, sp=0.10, n_eval=1000, dataset="synth", model="gcn")
    b = MetricRecord(f1=0.71, sp=0.19, n_eval=1000, dataset="synth", model="gcn")
    d_f1, d_sp = delta_metrics(a, b)
    assert d_f1 == pytest.approx(-0.09, abs=1e-12)
    assert d_sp == pytest.approx(+0.09, abs=1e-12)

    back = delta_metrics(b, a)
    assert back[0] == -d_f1 and back[1] == -d_sp


def test_delta_metrics_identity_checks():
    a = MetricRecord(0.8, 0.1, 10, "synth", "gcn")
    with pytest.raises(ValueError):
        delta_metrics(a, MetricRecord(0.8, 0.1, 10, "other", "gcn"))
    with pytest.raises(ValueError):
        delta_metrics(a, MetricRecord(0.8, 0.1, 10, "synth", "mlp"))
    with pytest.raises(ValueError, match="same evaluation subset"):
        delta_metrics(a, MetricRecord(0.8, 0.1, 11, "synth", "gcn"))


def test_baseline_adjust():
    model = MetricRecord(0.8, 0.1, 10, "synth", "gcn")
    base = MetricRecord(0.5, 0.2, 10, "synth", "majority")
    adj = baseline_adjust(model, base)
    assert adj.f1 == pytest.approx(0.3, abs=1e-12)
    assert adj.sp == pytest.approx(-0.1, abs=1e-12)
    assert adj.model == "gcn" and adj.dataset == "synth" and adj.n_eval == 10

    zero = baseline_adjust(model, model)
    assert zero.f1 == 0.0 and zero.sp == 0.0

    with pytest.raises(ValueError):
        baseline_adjust(model, MetricRecord(0.5, 0.2, 11, "synth", "majority"))
    with pytest.raises(ValueError):
        baseline_adjust(model, MetricRecord(0.5, 0.2, 10, "other", "majority"))


# ------------------------------------------------------------ round trip


def test_predictions_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    p = _table(rng.integers(0, 4, 30), rng.integers(0, 4, 30), rng.integers(0, 2, 30))
    path = tmp_path / "preds.csv"
    save_predictions(p, path)
    q = load_predictions(path)
    assert np.array_equal(q.y_true, p.y_true)
    assert np.array_equal(q.y_pred, p.y_pred)
    assert np.array_equal(q.sensitive, p.sensitive)
    assert q.node_ids.tolist() == p.node_ids.tolist() == list(range(30))

    assert path.read_text(encoding="utf-8").splitlines()[0] == \
        "node_id,y_true,y_pred,sensitive"


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 12), min_size=n, max_size=n),
    st.lists(st.integers(0, 12), min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n),
    st.none() | st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))))
@settings(max_examples=80, deadline=None)
def test_save_predictions_matches_row_writer(tmp_path_factory, case):
    p = _table(*case)
    root = tmp_path_factory.mktemp("write")
    save_predictions(p, root / "bulk.csv")
    reference_save_predictions(p, root / "rows.csv")
    assert (root / "bulk.csv").read_bytes() == (root / "rows.csv").read_bytes()


def test_sub_table_roundtrip_keeps_its_scores(tmp_path):
    y_true, y_pred, sens = np.array([[0, 0, 1, 1, 5], [0, 1, 1, 0, 5], [0, 1, 0, 1, 1]])
    path = tmp_path / "preds.csv"
    rows = [0, 1, 2, 3]
    p = PredictionTable(y_true[rows], y_pred[rows], sens[rows], rows)
    save_predictions(p, path)
    q = load_predictions(path)
    assert (micro_f1(q), q.n_eval, q.class_count) == (micro_f1(p), p.n_eval, p.class_count) \
        == (0.5, 4, 2)
    assert per_class_statistical_parity(q).tolist() == per_class_statistical_parity(p).tolist()
    # each row is written under its node id
    rows = [0, 1, 4]
    p = PredictionTable(y_true[rows], y_pred[rows], sens[rows], rows)
    save_predictions(p, path)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == \
        ["0,0,0,0", "1,0,1,1", "4,5,5,1"]
    q = load_predictions(path)
    assert (micro_f1(q), q.n_eval, q.class_count) == (micro_f1(p), p.n_eval, p.class_count)
    assert per_class_statistical_parity(q).tolist() == per_class_statistical_parity(p).tolist()
    assert q.node_ids.tolist() == rows


def test_predictions_roundtrip_keeps_unordered_gapped_ids(tmp_path):
    text = "node_id,y_true,y_pred,sensitive\n7,1,0,1\n3,0,0,0\n12,2,2,1\n"
    path, again = tmp_path / "preds.csv", tmp_path / "again.csv"
    path.write_text(text, encoding="utf-8")
    q = load_predictions(path)
    assert q.node_ids.tolist() == [7, 3, 12]
    save_predictions(q, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_predictions_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n0,0,0,0\n")
    with pytest.raises(ValueError, match="must start with") as info:
        load_predictions(path)
    assert str(info.value).startswith(f"{path}: line 1: ")


@pytest.mark.parametrize("text, lineno, fragment", [
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n1,1,x,0\n", 3, "invalid literal"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n\n1,1,0\n", 4, "expected 4 fields"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\nfoo,1,0,1\n", 3, "non-integer node id 'foo'"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n\n2.5,1,0,1\n", 4, "non-integer node id '2.5'"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n-3,1,0,1\n", 3, "negative node id -3"),
    ("node_id,y_true,y_pred,sensitive\n7,1,0,1\n0,1,0,1\n\n7,0,0,1\n", 5,
     "duplicate node id 7 (first on line 2)"),
])
def test_load_predictions_error_names_file_and_line(tmp_path, text, lineno, fragment):
    path = tmp_path / "preds.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_predictions(path)
    assert str(info.value).startswith(f"{path}: line {lineno}: ")
    assert fragment in str(info.value)


def test_load_predictions_keeps_file_order_with_gapped_ids(tmp_path):
    # prediction files may list only labeled nodes: ids with gaps, any order
    path = tmp_path / "preds.csv"
    path.write_text("node_id,y_true,y_pred,sensitive\n9,2,2,1\n3,0,1,0\n\n41,1,1,1\n",
                    encoding="utf-8")
    q = load_predictions(path)
    assert q.y_true.tolist() == [2, 0, 1]
    assert q.y_pred.tolist() == [2, 1, 1]
    assert q.sensitive.tolist() == [1, 0, 1]
    assert q.node_ids.tolist() == [9, 3, 41]


def test_load_predictions_reads_what_int_reads(tmp_path):
    # the bulk parse rejects `1_000`; the row-wise pass reads it as int()
    # does, as the loader always has
    path = tmp_path / "preds.csv"
    path.write_text("node_id,y_true,y_pred,sensitive\n1_000, 1 ,0,1\n5,0,0,0\n",
                    encoding="utf-8")
    q = load_predictions(path)
    assert q.y_true.tolist() == [1, 0]
    assert q.y_pred.tolist() == [0, 0]


@pytest.mark.parametrize("text, lineno, fragment", [
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n1,0,0,2\n", 3,
     "sensitive attribute must be 0 or 1, got 2"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n\n4,1,0,-1\n", 4,
     "sensitive attribute must be 0 or 1, got -1"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n1,-1,0,0\n", 3,
     "class ids must be non-negative, got y_true -1 and y_pred 0"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n1,0,-2,0\n", 3,
     "class ids must be non-negative, got y_true 0 and y_pred -2"),
    # the first bad line is named, whichever rule it breaks
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n1,0,0,5\n2,-1,0,0\n", 3,
     "sensitive attribute must be 0 or 1"),
    ("node_id,y_true,y_pred,sensitive\n0,1,0,1\n1,-1,0,5\n2,0,0,7\n", 3,
     "class ids must be non-negative"),
])
def test_load_predictions_value_error_names_file_and_line(tmp_path, text, lineno, fragment):
    path = tmp_path / "preds.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_predictions(path)
    assert str(info.value).startswith(f"{path}: line {lineno}: {fragment}")


@pytest.mark.parametrize("text", ["node_id,y_true,y_pred,sensitive\n",
                                  "node_id,y_true,y_pred,sensitive\n\n  \n"])
def test_load_predictions_empty_table_names_file(tmp_path, text):
    path = tmp_path / "preds.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_predictions(path)
    assert str(info.value) == f"{path}: prediction table is empty"
