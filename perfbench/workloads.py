"""The benchmark's workloads: the CLI calls each one makes, and output oracles.

Every oracle recomputes what it checks with this file's own numpy code from
the input files. The one exception is the generator's per-node goals, which
are rebuilt with homshift's public `beta_goal_histogram`, `transport_plan`
and `assign_node_goals` on the seed streams `generate` uses, because the
edit-log potential is defined relative to them. Paths are relative to the
run directory, so the `<command>.config.json` sidecars, and with them every
artifact hash, do not depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

BINS = 10
GENERATE_SEED = 11
GOALS = ((3.0, 10.0), (10.0, 3.0))
GAMMAS = (0, 1, 2, 3)
TRAIN_FRAC = 0.8
VAL_FRAC = 0.2
TAG_CODES = {"train": 0, "val": 1, "test": 2, "excluded": 3}
_TOL = 1e-12


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv for `homshift.cli.main` and the directory it writes."""

    name: str
    argv: tuple
    out: str


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = _TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def sha256_tree(path: Path) -> dict[str, str]:
    """sha256 of every file under `path`, by relative path."""
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(path).rglob("*")) if p.is_file()}


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------- own readers


def read_edges(path) -> np.ndarray:
    """Whitespace-separated id pairs, '#' comments, as an (m, 2) array."""
    return np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2).reshape(-1, 2)


def unique_edges(raw: np.ndarray, n: int) -> np.ndarray:
    """Canonical (u < v) sorted distinct pairs without self-loops."""
    lo, hi = raw.min(axis=1), raw.max(axis=1)
    keep = lo != hi
    keys = np.unique(lo[keep] * n + hi[keep])
    return np.column_stack((keys // n, keys % n))


def read_labels(path) -> np.ndarray:
    """Label column of a node table; empty cells become -1."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expect(header[:3] == ["node_id", "label", "sensitive"], f"{path}: bad header")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    expect([int(r[0]) for r in rows] == list(range(len(rows))), f"{path}: ids not 0..n-1")
    return np.array([int(r[1]) if r[1] else -1 for r in rows], dtype=np.int64)


def local_ratios(edges: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Same-label neighbor share per node, NaN where isolated or unlabeled."""
    n = labels.size
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    agree = ((lu == lv) & (lu >= 0) & (lv >= 0)).astype(np.float64)
    same = (np.bincount(edges[:, 0], weights=agree, minlength=n)
            + np.bincount(edges[:, 1], weights=agree, minlength=n))
    deg = np.bincount(edges.ravel(), minlength=n)
    out = np.full(n, np.nan)
    ok = (deg > 0) & (labels >= 0)
    out[ok] = same[ok] / deg[ok]
    return out


def bin_counts(ratios: np.ndarray, bins: int = BINS) -> np.ndarray:
    idx = np.clip(np.floor(ratios * bins + 1e-9), 0, bins - 1).astype(np.int64)
    return np.bincount(idx, minlength=bins)


def bin_mass(ratios: np.ndarray, bins: int = BINS) -> np.ndarray:
    return bin_counts(ratios, bins) / ratios.size


def emd(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.abs(np.cumsum(p - q)).sum()) / p.size


def beta_mass(alpha: float, beta: float, bins: int = BINS) -> np.ndarray:
    mass = np.diff(special.betainc(alpha, beta, np.arange(bins + 1) / bins))
    return mass / mass.sum()


# ----------------------------------------------------------- workloads


class Workload:
    name = ""
    pipeline_metric = ""

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self, command: Command) -> None:
        """Raise CheckFailed if the command's artifacts are wrong (cwd = run dir)."""
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        """Deterministic result metrics, (value, unit) by name, read after the checks."""
        return {}

    def peak_probes(self, sizes) -> dict:
        """Per-layer peak-memory metric name -> `probe.py peak` arguments."""
        return {}

    @staticmethod
    def check_config(command: Command) -> None:
        cfg = read_json(Path(command.out) / f"{command.name}.config.json")
        expect(cfg.get("subcommand") == command.name, "config sidecar names another command")


class GenerateSbm(Workload):
    name = "generate-sbm"
    pipeline_metric = "generate_s"

    def peak_probes(self, sizes):
        (a, b), s = GOALS[0], sizes[self.name]
        return {"rewire.generate_peak_mb": ("generate", "inputs/edges_0.txt",
                                            "inputs/nodes_0.csv", repr(a), repr(b), str(BINS),
                                            str(GENERATE_SEED)),
                "synth.two_class_sbm_peak_mb": ("two_class_sbm", str(s.nodes),
                                                repr(s.mean_degree), repr(s.edge_homophily),
                                                "0")}

    def commands(self):
        """One `generate` per input graph, the goals alternating."""
        out = []
        for k in range(len(list(Path("inputs").glob("edges_*.txt")))):
            a, b = GOALS[k % len(GOALS)]
            target = f"out/generate_{k}_a{a:g}_b{b:g}"
            out.append(Command("generate", (
                "generate", "--graph", f"inputs/edges_{k}.txt", "--nodes", f"inputs/nodes_{k}.csv",
                "--alpha", f"{a:g}", "--beta", f"{b:g}", "--bins", str(BINS),
                "--seed", str(GENERATE_SEED), "--out", target), target))
        return out

    def check(self, command):
        import homshift  # only for the goal rebuild, see the module docstring

        argv = command.argv
        alpha, beta, graph, nodes = (argv[argv.index(flag) + 1]
                                     for flag in ("--alpha", "--beta", "--graph", "--nodes"))
        alpha, beta = float(alpha), float(beta)
        out = Path(command.out)
        self.check_config(command)
        labels = read_labels(nodes)
        n = labels.size
        original = unique_edges(read_edges(graph), n)
        generated = read_edges(out / "generated_edges.txt")
        expect(bool(np.all(generated[:, 0] < generated[:, 1])), "generated edge not as u < v")
        keys = generated[:, 0] * n + generated[:, 1]
        expect(bool(np.all(np.diff(keys) > 0)), "generated edges not sorted and distinct")

        ratios = local_ratios(original, labels)
        valid = ~np.isnan(ratios)
        source_mass = bin_mass(ratios[valid])
        goal_mass = beta_mass(alpha, beta)
        plan = homshift.transport_plan(homshift.HomophilyHistogram(BINS, source_mass),
                                       homshift.beta_goal_histogram(
                                           homshift.BetaGoal(alpha, beta), BINS))
        seed_assign = np.random.SeedSequence(GENERATE_SEED).spawn(3)[0]
        goals = homshift.assign_node_goals(plan, ratios, BINS, seed_assign)
        goal_of = {g.node: g.h_goal for g in goals}
        movable = {g.node for g in goals if g.direction != 0}

        header, records = self._read_log(out / "edit_log.jsonl")
        expect(header.get("alpha") == alpha and header.get("beta") == beta
               and header.get("bins") == BINS and header.get("seed") == GENERATE_SEED,
               "edit-log header does not match the command")
        adj = [set() for _ in range(n)]
        for u, v in original.tolist():
            adj[u].add(v)
            adj[v].add(u)

        lab = labels.tolist()

        def h(v):
            return sum(1 for w in adj[v] if lab[w] == lab[v]) / len(adj[v])

        phases = [r["phase"] for r in records]
        n_rewire = phases.count("rewire")
        expect(phases == ["rewire"] * n_rewire + ["refine"] * (len(phases) - n_rewire),
               "rewire records do not all precede refine records")
        expect(n_rewire % 2 == 0, "odd number of rewire records")
        for idx, rec in enumerate(records):
            u, v, op = rec["u"], rec["v"], rec["op"]
            expect(rec["seq"] == idx, f"record {idx}: seq {rec['seq']}")
            expect(u != v and 0 <= u < n and 0 <= v < n, f"record {idx}: bad endpoints")
            expect(u in movable and v in movable,
                   f"record {idx}: touches a node without a move target")
            if rec["phase"] == "rewire":
                want = "remove" if idx % 2 == 0 else "add"
                expect(op == want, f"record {idx}: rewire records must pair remove+add")
                if op == "add":
                    expect(records[idx - 1]["u"] == u, f"record {idx}: pair has two sources")
            else:
                expect(op == "add", f"record {idx}: refine record is not an addition")
            before = abs(h(u) - goal_of[u]) + abs(h(v) - goal_of[v])
            if op == "remove":
                expect(v in adj[u], f"record {idx}: removes a missing edge")
                adj[u].discard(v)
                adj[v].discard(u)
            else:
                expect(v not in adj[u], f"record {idx}: adds an existing edge")
                adj[u].add(v)
                adj[v].add(u)
            after = abs(h(u) - goal_of[u]) + abs(h(v) - goal_of[v])
            expect(after < before - 1e-13, f"record {idx}: potential did not strictly drop")
        replayed = np.array([(u, v) for u in range(n) for v in sorted(adj[u]) if u < v],
                            dtype=np.int64).reshape(-1, 2)
        expect(np.array_equal(replayed, generated),
               "replaying the edit log does not reproduce generated_edges.txt")

        final = local_ratios(generated, labels)
        emd_before = emd(source_mass, goal_mass)
        emd_after = emd(bin_mass(final[~np.isnan(final)]), goal_mass)
        report = read_json(out / "report.json")
        expect(close(report["emd_original_goal"], emd_before, 1e-9), "emd_original_goal is off")
        expect(close(report["emd_generated_goal"], emd_after, 1e-9), "emd_generated_goal is off")
        expect(emd_after <= 0.5 * emd_before, "EMD to goal did not fall to half or less")
        expect(report["edits_rewire"] == n_rewire // 2
               and report["edits_refine"] == len(records) - n_rewire, "edit counts are off")
        delta = (np.bincount(generated.ravel(), minlength=n)
                 - np.bincount(original.ravel(), minlength=n))
        values, counts = np.unique(delta, return_counts=True)
        expect(report["degree_delta_histogram"]
               == {str(int(d)): int(c) for d, c in zip(values, counts)},
               "degree_delta_histogram is off")

    @staticmethod
    def _read_log(path):
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        expect(bool(lines) and "op" not in lines[0], "edit log has no header")
        return lines[0], lines[1:]

    def extra_metrics(self):
        reports = [read_json(Path(c.out) / "report.json") for c in self.commands()]
        return {"emd_to_goal": (sum(r["emd_generated_goal"] for r in reports) / len(reports),
                                "1")}


class ReadLarge(Workload):
    name = "read-large"
    pipeline_metric = "read_pipeline_s"

    def commands(self):
        graph = ("--graph", "inputs/edges.txt", "--nodes", "inputs/nodes.csv")
        gammas = tuple(a for g in GAMMAS for a in ("--gamma", str(g)))
        return [
            Command("analyze", ("analyze",) + graph + ("--out", "out/analyze"), "out/analyze"),
            Command("split", ("split",) + graph + gammas + ("--out", "out/split"), "out/split"),
            Command("metrics", ("metrics", "--run-a", "inputs/pred_run_a.csv",
                                "--run-b", "inputs/pred_run_b.csv",
                                "--baseline", "inputs/pred_baseline.csv",
                                "--out", "out/metrics"), "out/metrics"),
        ]

    def peak_probes(self, sizes):
        return {"graph.load_edge_list_peak_mb": ("load_edge_list", "inputs/edges.txt")}

    def _truth(self):
        labels = read_labels("inputs/nodes.csv")
        edges = unique_edges(read_edges("inputs/edges.txt"), labels.size)
        return labels, edges, local_ratios(edges, labels)

    def check(self, command):
        self.check_config(command)
        getattr(self, f"_check_{command.name}")(Path(command.out))

    def _check_analyze(self, out):
        labels, edges, ratios = self._truth()
        valid = ~np.isnan(ratios)
        summary = read_json(out / "summary.json")
        lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
        h_global = float(((lu == lv) & (lu >= 0)).sum()) / edges.shape[0]
        expect(summary["nodes"] == labels.size and summary["edges"] == edges.shape[0],
               "node or edge count differs from the input's own dedup")
        expect(summary["valid_ratio_nodes"] == int(valid.sum()), "valid_ratio_nodes is off")
        expect(close(summary["global_homophily"], h_global), "global_homophily is off")
        with open(out / "ratios.csv", encoding="utf-8") as fh:
            expect(fh.readline() == "node_id,ratio\n", "ratios.csv header")
            rows = [line.rstrip("\n").split(",") for line in fh]
        expect([int(r[0]) for r in rows] == list(range(labels.size)), "ratios.csv ids")
        got = np.array([float(r[1]) if r[1] else np.nan for r in rows])
        expect(np.array_equal(got, ratios, equal_nan=True),
               "ratios.csv differs from the bincount recomputation")
        hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1, ndmin=2)
        expect(hist.shape == (BINS, 4), "histogram.csv shape")
        expect(abs(hist[:, 3].sum() - 1.0) <= 1e-9, "histogram mass does not sum to 1")
        expect(np.allclose(hist[:, 3], bin_mass(ratios[valid]), rtol=0, atol=_TOL),
               "histogram mass differs from the recomputation")

    def _check_split(self, out):
        _, _, ratios = self._truth()
        valid = ~np.isnan(ratios)
        n_valid = int(valid.sum())
        for gamma in GAMMAS:
            stem = out / f"split_gamma{gamma}"
            with open(f"{stem}.csv", encoding="utf-8") as fh:
                expect(fh.readline() == "node_id,split\n", "split header")
                rows = [line.rstrip("\n").split(",") for line in fh]
            expect([int(r[0]) for r in rows] == list(range(ratios.size)), "split ids")
            expect(all(r[1] in TAG_CODES for r in rows), "unknown split tag")
            tags = np.array([TAG_CODES[r[1]] for r in rows])
            expect(np.array_equal(tags != TAG_CODES["excluded"], valid),
                   f"gamma {gamma}: tagged nodes are not exactly the defined-ratio nodes")
            pool = (tags == TAG_CODES["train"]) | (tags == TAG_CODES["val"])
            expect(int(pool.sum()) == round(TRAIN_FRAC * n_valid),
                   f"gamma {gamma}: pool is not round(0.8 * valid)")
            expect(int((tags == TAG_CODES["val"]).sum()) == round(VAL_FRAC * pool.sum()),
                   f"gamma {gamma}: val is not round(0.2 * pool)")
            diag = read_json(f"{stem}.json")
            test = tags == TAG_CODES["test"]
            expect(diag["gamma"] == gamma, "split diagnostics gamma")
            expect(close(diag["emd_train_test"],
                         emd(bin_mass(ratios[pool]), bin_mass(ratios[test]))),
                   f"gamma {gamma}: emd_train_test is off")
            n_b = bin_counts(ratios[valid])
            share = np.divide(bin_counts(ratios[pool]), n_b, out=np.zeros(BINS), where=n_b > 0)
            expect(np.allclose(diag["per_bin_train_share"], share, rtol=0, atol=_TOL),
                   f"gamma {gamma}: per_bin_train_share is off")

    @staticmethod
    def _score(path):
        table = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
        y_true, y_pred, sens = table[:, 1], table[:, 2], table[:, 3]
        per_class = [abs(float((y_pred[sens == 0] == c).mean())
                         - float((y_pred[sens == 1] == c).mean()))
                     for c in range(int(max(y_true.max(), y_pred.max())) + 1)]
        return {"f1": float((y_true == y_pred).mean()), "sp": max(per_class),
                "n_eval": int(table.shape[0]), "per_class_sp": per_class}

    def _check_metrics(self, out):
        runs = {k: self._score(f"inputs/pred_{k}.csv") for k in ("run_a", "run_b", "baseline")}
        for key, name in (("run_a", "metrics_a"), ("run_b", "metrics_b")):
            got, want = read_json(out / f"{name}.json"), runs[key]
            expect(got["n_eval"] == want["n_eval"] and close(got["f1"], want["f1"])
                   and close(got["sp"], want["sp"])
                   and np.allclose(got["per_class_sp"], want["per_class_sp"], rtol=0, atol=_TOL),
                   f"{name}.json differs from the recomputation")
        delta = read_json(out / "delta.json")
        expect(close(delta["delta_f1"], runs["run_b"]["f1"] - runs["run_a"]["f1"])
               and close(delta["delta_sp"], runs["run_b"]["sp"] - runs["run_a"]["sp"]),
               "delta.json is off")
        for key, name in (("run_a", "adjusted_a"), ("run_b", "adjusted_b")):
            adj = read_json(out / f"{name}.json")
            expect(close(adj["f1"], runs[key]["f1"] - runs["baseline"]["f1"])
                   and close(adj["sp"], runs[key]["sp"] - runs["baseline"]["sp"]),
                   f"{name}.json is off")


class TheorySweep(Workload):
    name = "theory-sweep"
    pipeline_metric = "theory_s"

    def _args(self):
        return read_json("inputs/theory_args.json")

    def peak_probes(self, sizes):
        return {"theory.monte_carlo_gap_peak_mb": ("monte_carlo_gap", "inputs/theory_args.json")}

    def commands(self):
        a = self._args()
        grid = ",".join(f"{x:g}" for x in a["alpha_grid"])
        return [Command("theory", (
            "theory", "--n", str(a["n"]), "--k", str(a["k"]), "--d", str(a["d"]),
            "--h", repr(a["h"]), "--mu-l", repr(a["mu_l"]), "--mu-s", repr(a["mu_s"]),
            "--sigma", repr(a["sigma"]), "--lam", repr(a["lam"]), f"--alpha-grid={grid}",
            "--trials", str(a["trials"]), "--seed", str(a["seed"]), "--out", "out/theory"),
            "out/theory")]

    def check(self, command):
        self.check_config(command)
        a = self._args()
        with open(Path(command.out) / "sweep.csv", encoding="utf-8") as fh:
            expect(fh.readline() == "alpha,closed_form,mc_mean,mc_stderr,trials\n",
                   "sweep.csv header")
            rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
        expect(len(rows) == len(a["alpha_grid"]), "sweep.csv row count")
        b_coef = 1 + a["d"] * (2 * a["h"] - 1)
        denom = b_coef * (a["lam"] + (a["mu_l"] ** 2 + a["mu_s"] ** 2) * a["n"])
        for row, alpha in zip(rows, a["alpha_grid"]):
            expect(all(math.isfinite(x) for x in row), f"alpha {alpha}: non-finite value")
            expect(row[0] == alpha and row[4] == a["trials"], f"alpha {alpha}: wrong row")
            expect(row[3] > 0, f"alpha {alpha}: stderr is not positive")
            closed = (a["mu_s"] ** 2 * a["k"] * (1 + a["d"] * (2 * (a["h"] + alpha) - 1))
                      / denom)
            expect(abs(row[1] - closed) <= 1e-12 * max(1.0, abs(closed)),
                   f"alpha {alpha}: closed form differs from the recomputation")


WORKLOADS = {w.name: w for w in (GenerateSbm(), ReadLarge(), TheorySweep())}
