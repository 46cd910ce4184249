"""Group-fairness and accuracy scoring for node-classification runs."""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PredictionTable:
    """True labels, predicted labels, and a binary sensitive attribute.

    An optional boolean mask restricts every metric to a held-out subset;
    without one, all rows are evaluated.
    """

    y_true: np.ndarray
    y_pred: np.ndarray
    sensitive: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        y_true = np.asarray(self.y_true, dtype=np.int64)
        y_pred = np.asarray(self.y_pred, dtype=np.int64)
        sens = np.asarray(self.sensitive, dtype=np.int64)
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
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != y_true.shape:
                raise ValueError("mask must match the table length")
            if not mask.any():
                raise ValueError("mask selects no rows")
            mask.flags.writeable = False
        for arr in (y_true, y_pred, sens):
            arr.flags.writeable = False
        object.__setattr__(self, "y_true", y_true)
        object.__setattr__(self, "y_pred", y_pred)
        object.__setattr__(self, "sensitive", sens)
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


_PREDICTION_HEADER = "node_id,y_true,y_pred,sensitive"


def load_predictions(path) -> PredictionTable:
    """Predictions from a `node_id,y_true,y_pred,sensitive` CSV; errors name the file and line.

    Rows stay in file order. Node ids must be non-negative integers, each
    listed once; they need not cover 0..n-1 (a file may list only the
    labeled nodes). The rows are parsed in bulk; when that fails, they are
    parsed again one by one with int(), which names the bad line or, for
    a value only int() reads (such as `1_000`), gives the table.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header, _, body = fh.read().partition("\n")
    if header.strip() != _PREDICTION_HEADER:
        raise ValueError(f"{path}: line 1: prediction file must start with "
                         f"'{_PREDICTION_HEADER}'")
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
        cols = [np.array(col) for col in _prediction_columns(path, rows)]
    return PredictionTable(cols[1], cols[2], cols[3])


def _prediction_columns(path, rows: list[tuple[int, str]]) -> list[list[int]]:
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


def save_predictions(p: PredictionTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_PREDICTION_HEADER + "\n")
        for node in range(p.y_true.size):
            fh.write(f"{node},{p.y_true[node]},{p.y_pred[node]},{p.sensitive[node]}\n")


def _group_rates(y_pred: np.ndarray, sens: np.ndarray, preferred: int) -> tuple[float, float]:
    g0 = sens == 0
    g1 = sens == 1
    if not g0.any() or not g1.any():
        raise ValueError("both sensitive groups must be nonempty on the evaluated subset")
    return (float((y_pred[g0] == preferred).mean()),
            float((y_pred[g1] == preferred).mean()))


def statistical_parity(p: PredictionTable, preferred: int) -> float:
    """|P(pred = preferred | s=0) - P(pred = preferred | s=1)| on the subset."""
    _, y_pred, sens = p.evaluated()
    r0, r1 = _group_rates(y_pred, sens, preferred)
    return abs(r0 - r1)


def per_class_statistical_parity(p: PredictionTable) -> np.ndarray:
    return np.array([statistical_parity(p, c) for c in range(p.class_count)])


def multiclass_statistical_parity(p: PredictionTable, conditional_pairs: bool = False) -> float:
    """Worst-case statistical parity across classes.

    Default takes the max over one-vs-rest per-class parities. With
    conditional_pairs=True it instead maximizes over unordered class pairs,
    comparing group rates conditioned on the prediction landing in the pair;
    both readings coincide for binary tasks.
    """
    if p.class_count < 2:
        raise ValueError("multiclass parity needs at least 2 classes")
    if not conditional_pairs:
        return float(per_class_statistical_parity(p).max())
    _, y_pred, sens = p.evaluated()
    if not (sens == 0).any() or not (sens == 1).any():
        raise ValueError("both sensitive groups must be nonempty on the evaluated subset")
    best = None
    for a in range(p.class_count):
        for b in range(a + 1, p.class_count):
            keep = (y_pred == a) | (y_pred == b)
            if not ((keep & (sens == 0)).any() and (keep & (sens == 1)).any()):
                continue
            r0, r1 = _group_rates(y_pred[keep], sens[keep], a)
            gap = abs(r0 - r1)
            best = gap if best is None else max(best, gap)
    if best is None:
        raise ValueError("no class pair has predictions in both sensitive groups")
    return float(best)


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
    """(F1_b - F1_a, SP_b - SP_a); both runs must score the same task."""
    if run_a.dataset != run_b.dataset or run_a.model != run_b.model:
        raise ValueError("delta requires records from the same dataset and model")
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
