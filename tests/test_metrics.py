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

from conftest import confusion_micro_f1


def _table(y_true, y_pred, sensitive, mask=None):
    return PredictionTable(np.asarray(y_true), np.asarray(y_pred),
                           np.asarray(sensitive), mask)


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
def test_per_class_parity_matches_statistical_parity(rows, masked):
    y_true, y_pred, sens, keep = (np.array(col) for col in zip(*rows))
    if masked and not keep.any():
        keep[0] = True
    p = _table(y_true, y_pred, sens, keep if masked else None)
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


# ----------------------------------------------------------------- mask


def test_mask_restricts_evaluation():
    y_true = [0, 0, 1, 1, 5]
    y_pred = [0, 1, 1, 0, 5]
    sens = [0, 1, 0, 1, 1]
    mask = np.array([True, True, True, True, False])
    p = _table(y_true, y_pred, sens, mask)
    assert p.n_eval == 4
    # the masked-out row holds the only class-5 labels
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
    with pytest.raises(ValueError, match="mask"):
        _table([0, 1], [0, 1], [0, 1], np.array([True]))
    with pytest.raises(ValueError, match="no rows"):
        _table([0, 1], [0, 1], [0, 1], np.array([False, False]))
    for mask, shown in [([0, 2, 0, 3], "2"), (np.array([1.0, 0.5, 1.0, 1.0]), "0.5"),
                        (np.array([True, None, True, True], dtype=object), "None"),
                        (np.array(["1", "0", "1", "1"]), "'1'")]:
        with pytest.raises(ValueError, match=f"mask must be boolean, got {shown}$"):
            _table([0, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 1], mask)
    assert _table([0, 1], [0, 1], [0, 1], [1, 0.0]).mask.tolist() == [True, False]
    for columns, name, shown in [(([0, 1], [0, 1], [0.5, 1]), "sensitive", "0.5"),
                           (([0, 1.25], [0, 1], [0, 1]), "y_true", "1.25"),
                           (([0, 1], np.array([np.nan, 1.0]), [0, 1]), "y_pred", "nan")]:
        with pytest.raises(ValueError, match=f"{name} must be int64 integers, got {shown}$"):
            PredictionTable(*columns)


def test_table_keeps_its_own_arrays():
    base = np.array([[0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]])
    mask = np.array([True, True, False, True])
    p = PredictionTable(base[:, 0], base[:, 1], base[:, 2], mask)
    q = PredictionTable(base[:, 0].copy(), base[:, 0], base[:, 0])
    base[:, :] = 0
    mask[0] = False
    assert p.y_true.tolist() == [0, 1, 0, 1] and p.y_pred.tolist() == [1, 1, 0, 0]
    assert p.sensitive.tolist() == [1, 0, 1, 0] and p.mask.tolist() == [True, True, False, True]
    assert q.y_pred.tolist() == q.sensitive.tolist() == [0, 1, 0, 1]
    assert base.flags.writeable and mask.flags.writeable
    for arr in (p.y_true, p.y_pred, p.sensitive, p.mask, q.y_true):
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
    assert q.mask is None

    assert path.read_text(encoding="utf-8").splitlines()[0] == \
        "node_id,y_true,y_pred,sensitive"


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
