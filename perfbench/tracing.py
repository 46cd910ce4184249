"""Spans around homshift's public functions, recorded from outside the library.

`Tracer.install` rebinds each traced function wherever a homshift module (or
class) holds it, so calls between modules are seen as well as calls from the
CLI, and restores the originals on exit. Spans stay in memory as
(id, name, start, end, parent) and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# Span name -> (module, attribute path) of the function it wraps. The span
# name's prefix is the layer the time is charged to.
TARGETS = {
    "graph.load_edge_list": ("graph", "load_edge_list"),
    "graph.save_edge_list": ("graph", "save_edge_list"),
    "graph.load_node_table": ("graph", "load_node_table"),
    "graph.from_edges": ("graph", "Graph.from_edges"),
    "homophily.local_homophily_all": ("homophily", "local_homophily_all"),
    "homophily.homophily_histogram": ("homophily", "homophily_histogram"),
    "homophily.global_homophily": ("homophily", "global_homophily"),
    "homophily.beta_goal_histogram": ("homophily", "beta_goal_histogram"),
    "homophily.histogram": ("homophily", "histogram"),
    "homophily.emd": ("homophily", "emd"),
    "rewire.generate": ("rewire", "generate"),
    "rewire.rewire_phase": ("rewire", "rewire_phase"),
    "rewire.refine_phase": ("rewire", "refine_phase"),
    "rewire.transport_plan": ("rewire", "transport_plan"),
    "rewire.assign_node_goals": ("rewire", "assign_node_goals"),
    "rewire.edit_log_save": ("rewire", "EditLog.save"),
    "rewire.edit_log_load": ("rewire", "EditLog.load"),
    "rewire.edit_log_replay": ("rewire", "EditLog.replay"),
    "splits.stratified_split": ("splits", "stratified_split"),
    "splits.save_split": ("splits", "save_split"),
    "splits.save_split_diagnostics": ("splits", "save_split_diagnostics"),
    "splits.load_split": ("splits", "load_split"),
    "metrics.load_predictions": ("metrics", "load_predictions"),
    "metrics.micro_f1": ("metrics", "micro_f1"),
    "metrics.multiclass_statistical_parity": ("metrics", "multiclass_statistical_parity"),
    "metrics.per_class_statistical_parity": ("metrics", "per_class_statistical_parity"),
    "metrics.delta_metrics": ("metrics", "delta_metrics"),
    "metrics.baseline_adjust": ("metrics", "baseline_adjust"),
    "theory.sweep_alpha": ("theory", "sweep_alpha"),
    "theory.monte_carlo_gap": ("theory", "monte_carlo_gap"),
    "theory.expected_logit_gap": ("theory", "expected_logit_gap"),
    "theory.save_sweep": ("theory", "save_sweep"),
    "synth.two_class_sbm": ("synth", "two_class_sbm"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"homshift.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; `install` turns it on for homshift's functions."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def install(self):
        """Rebind every traced function in every loaded homshift module and class."""
        undo = []
        try:
            for name, (module, path) in TARGETS.items():
                owner, attr = _resolve(module, path)
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                traced = self._wrap(name, fn)
                if isinstance(owner, type):
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, staticmethod(traced) if is_static else traced)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "homshift" or mod is None:
                        continue
                    if mod.__dict__.get(attr) is fn:
                        undo.append((mod, attr, fn))
                        setattr(mod, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def as_json(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans]


def inclusive_s(spans: list[dict], names) -> float:
    """Seconds inside spans named in `names`, counting nested ones once."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += s["end"] - s["start"]
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its direct children's."""
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child_time[s["id"]]
    return out
