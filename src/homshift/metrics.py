"""Group-fairness and accuracy scoring for node-classification runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import int64_array, owned_readonly, read_id_table


@dataclass(frozen=True)
class PredictionTable:
    """True labels, predicted labels, and a binary sensitive attribute.

    An optional boolean mask restricts every metric to a held-out subset;
    without one, all rows are evaluated. The mask holds booleans or the
    values 0 and 1. The table keeps read-only arrays of its own; it never
    marks or shares the caller's.
    """

    y_true: np.ndarray
    y_pred: np.ndarray
    sensitive: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        y_true = int64_array(self.y_true, "y_true")
        y_pred = int64_array(self.y_pred, "y_pred")
        sens = int64_array(self.sensitive, "sensitive")
        if not (y_true.shape == y_pred.shape == sens.shape) or y_true.ndim != 1:
            raise ValueError("y_true, y_pred, sensitive must be equal-length vectors")
        if y_true.size == 0:
            raise ValueError("prediction table is empty")
        if np.any(y_true < 0) or np.any(y_pred < 0):
            raise ValueError("class ids must be non-negative")
        if not np.isin(sens, (0, 1)).all():
            raise ValueError("sensitive attribute must be 0 or 1")
        mask = self.mask
        if mask is not None:
            mask = np.asarray(mask)
            if mask.dtype != bool:
                bad = ~((mask == 0) | (mask == 1))
                if bad.any():
                    shown = mask[bad].ravel()[0]
                    shown = shown.item() if isinstance(shown, np.generic) else shown
                    raise ValueError(f"mask must be boolean, got {shown!r}")
                mask = mask.astype(bool)
            if mask.shape != y_true.shape:
                raise ValueError("mask must match the table length")
            if not mask.any():
                raise ValueError("mask selects no rows")
            mask = owned_readonly(mask, self.mask)
        object.__setattr__(self, "y_true", owned_readonly(y_true, self.y_true))
        object.__setattr__(self, "y_pred", owned_readonly(y_pred, self.y_pred))
        object.__setattr__(self, "sensitive", owned_readonly(sens, self.sensitive))
        object.__setattr__(self, "mask", mask)

    def evaluated(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y_true, y_pred, sensitive) restricted to the evaluated subset."""
        if self.mask is None:
            return self.y_true, self.y_pred, self.sensitive
        return self.y_true[self.mask], self.y_pred[self.mask], self.sensitive[self.mask]

    @property
    def n_eval(self) -> int:
        return int(self.y_true.size if self.mask is None else self.mask.sum())

    @property
    def class_count(self) -> int:
        y_true, y_pred, _ = self.evaluated()
        return int(max(y_true.max(), y_pred.max())) + 1


_PREDICTION_COLUMNS = ("node_id", "y_true", "y_pred", "sensitive")


def load_predictions(path) -> PredictionTable:
    """Predictions from a `node_id,y_true,y_pred,sensitive` CSV; errors name the file and line.

    The file follows graph.read_id_table's rules: node ids are non-negative
    integers, each listed once. They need not cover 0..n-1 (a file may list
    only the labeled nodes), and rows stay in file order. The file must
    hold a row, class ids must be non-negative and the sensitive attribute
    0 or 1; the error names the first line that breaks a rule.
    """
    rows, _, lines = read_id_table(path, _PREDICTION_COLUMNS)
    if rows.shape[0] == 0:
        raise ValueError(f"{path}: prediction table is empty")
    negative = (rows[:, 1:3] < 0).any(axis=1)
    bad = negative | ((rows[:, 3] != 0) & (rows[:, 3] != 1))
    if bad.any():
        r = int(np.argmax(bad))
        what = (f"class ids must be non-negative, got y_true {rows[r, 1]} and y_pred {rows[r, 2]}"
                if negative[r] else f"sensitive attribute must be 0 or 1, got {rows[r, 3]}")
        raise ValueError(f"{path}: line {lines[r]}: {what}")
    return PredictionTable(rows[:, 1], rows[:, 2], rows[:, 3])


def save_predictions(p: PredictionTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_PREDICTION_COLUMNS) + "\n")
        for node in range(p.y_true.size):
            fh.write(f"{node},{p.y_true[node]},{p.y_pred[node]},{p.sensitive[node]}\n")


def _sensitive_groups(sens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g0 = sens == 0
    g1 = sens == 1
    if not g0.any() or not g1.any():
        raise ValueError("both sensitive groups must be nonempty on the evaluated subset")
    return g0, g1


def statistical_parity(p: PredictionTable, preferred: int) -> float:
    """|P(pred = preferred | s=0) - P(pred = preferred | s=1)| on the subset."""
    _, y_pred, sens = p.evaluated()
    g0, g1 = _sensitive_groups(sens)
    return abs(float((y_pred[g0] == preferred).mean())
               - float((y_pred[g1] == preferred).mean()))


def per_class_statistical_parity(p: PredictionTable) -> np.ndarray:
    """statistical_parity(p, c) for every class c, from one count per group."""
    _, y_pred, sens = p.evaluated()
    g0, g1 = _sensitive_groups(sens)
    pred_0, pred_1 = y_pred[g0], y_pred[g1]
    r0 = np.bincount(pred_0, minlength=p.class_count) / pred_0.size
    r1 = np.bincount(pred_1, minlength=p.class_count) / pred_1.size
    return np.abs(r0 - r1)


def multiclass_statistical_parity(p: PredictionTable) -> float:
    """Worst-case statistical parity: the max over one-vs-rest per-class parities."""
    if p.class_count < 2:
        raise ValueError("multiclass parity needs at least 2 classes")
    return float(per_class_statistical_parity(p).max())


def micro_f1(p: PredictionTable) -> float:
    """Micro-averaged F1; equals accuracy for single-label classification."""
    y_true, y_pred, _ = p.evaluated()
    return float((y_true == y_pred).mean())


@dataclass(frozen=True)
class MetricRecord:
    """One run's scores plus the identity needed to compare runs."""

    f1: float
    sp: float
    n_eval: int
    dataset: str
    model: str


def delta_metrics(run_a: MetricRecord, run_b: MetricRecord) -> tuple[float, float]:
    """(F1_b - F1_a, SP_b - SP_a); both runs must score the same task and subset."""
    if run_a.dataset != run_b.dataset or run_a.model != run_b.model:
        raise ValueError("delta requires records from the same dataset and model")
    if run_a.n_eval != run_b.n_eval:
        raise ValueError("delta requires runs scored on the same evaluation subset")
    return (run_b.f1 - run_a.f1, run_b.sp - run_a.sp)


def baseline_adjust(model: MetricRecord, baseline: MetricRecord) -> MetricRecord:
    """Subtract a structure-free baseline's scores from a model's scores."""
    if model.dataset != baseline.dataset or model.n_eval != baseline.n_eval:
        raise ValueError("baseline must score the same evaluation subset")
    return MetricRecord(
        f1=model.f1 - baseline.f1,
        sp=model.sp - baseline.sp,
        n_eval=model.n_eval,
        dataset=model.dataset,
        model=model.model,
    )
