"""Acceptance gate: one test per release criterion.

Each test prints a single "criterion N: PASS/FAIL" line before asserting,
and evaluates every clause of its criterion so a failure reports all
violated clauses at once. Two criteria fail by measurement, not by
accident, and are left red on purpose: the Monte-Carlo mean sits at twice
the closed form (criteria 1 and 2). Criterion 6's ten-bin train/test EMD
is monotone in gamma now that the split moves its pool linearly toward
the most concentrated one.
The README's acceptance section carries the analysis; the checks here
state the criteria as written and are not loosened to force green.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from homshift import (
    BetaGoal,
    EXCLUDED,
    HomophilyHistogram,
    MetricRecord,
    PredictionTable,
    TheoryParams,
    TRAIN,
    VAL,
    assign_node_goals,
    beta_goal_histogram,
    bin_index,
    delta_metrics,
    emd,
    expected_logit_gap,
    generate,
    global_homophily,
    histogram,
    load_edge_list,
    load_node_table,
    local_homophily_all,
    micro_f1,
    monte_carlo_gap,
    multiclass_statistical_parity,
    refine_phase,
    rewire_phase,
    save_edge_list,
    save_node_table,
    statistical_parity,
    stratified_split,
    sweep_alpha,
    transport_plan,
    two_class_sbm,
)
from homshift.cli import main as cli_main

from conftest import EditLogChecker, lp_transport_cost


def _verdict(num: int, failures: list) -> None:
    print(f"criterion {num}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _canonical_params(**overrides) -> TheoryParams:
    base = dict(n=1000, k=500, d=10, h=0.7, alpha_shift=0.2,
                mu_l=1.0, mu_s=1.0, sigma=0.01, lambda_reg=1e-3)
    base.update(overrides)
    return TheoryParams(**base)


def test_criterion_1_theory_values():
    failures = []
    p = _canonical_params()
    closed = expected_logit_gap(p)

    # the closed-form expression, recomputed from scratch
    b = 1 + p.d * (2 * p.h - 1)
    expected = (p.mu_s ** 2 * p.k * (1 + p.d * (2 * p.h + 2 * p.alpha_shift - 1))
                / (b * (p.lambda_reg + (p.mu_l ** 2 + p.mu_s ** 2) * p.n)))
    if abs(closed - expected) > 1e-12:
        failures.append(f"closed form {closed!r} != recomputed formula {expected!r}")
    if abs(closed - 0.45) > 1e-4:
        failures.append(f"closed form {closed:.6f} not 0.45 up to the ridge correction")

    start = time.monotonic()
    res = monte_carlo_gap(p, 20_000, np.random.default_rng(1))
    runtime = time.monotonic() - start
    if runtime >= 30:
        failures.append(f"simulation took {runtime:.1f}s (limit 30s)")
    rel = abs(res.mc_gap_mean - closed) / closed
    if rel > 0.05:
        failures.append(
            f"Monte-Carlo mean {res.mc_gap_mean:.5f} differs from the closed form "
            f"{closed:.5f} by {rel:.0%} (limit 5%); the ratio is "
            f"{res.mc_gap_mean / closed:.3f}")
    if abs(res.mc_gap_mean - closed) > 3 * res.mc_gap_stderr:
        failures.append(
            f"Monte-Carlo mean {res.mc_gap_mean:.5f} +- {res.mc_gap_stderr:.5f} "
            f"is {abs(res.mc_gap_mean - closed) / res.mc_gap_stderr:.1f} stderr "
            f"from the closed form")

    exact = expected_logit_gap(_canonical_params(alpha_shift=0.0, lambda_reg=0.0))
    if exact != p.mu_s ** 2 * p.k / (p.n * (p.mu_l ** 2 + p.mu_s ** 2)):
        failures.append(f"alpha=0, lambda=0 gap {exact!r} != k/(2n)")
    if expected_logit_gap(_canonical_params(mu_s=0.0)) != 0.0:
        failures.append("mu_s=0 gap is not exactly 0")

    _verdict(1, failures)


def test_criterion_2_affine_alpha():
    failures = []
    p = _canonical_params(alpha_shift=0.0)
    alphas = np.linspace(-0.3, 0.3, 7)
    rows = sweep_alpha(p, alphas, trials=2000, seed=2)
    if len(rows) != 7:
        failures.append("grid points were unexpectedly skipped")

    closed = np.array([row.closed_form for row in rows])
    slope, intercept = np.polyfit(alphas, closed, 1)
    pred = intercept + slope * alphas
    ss_res = float(((closed - pred) ** 2).sum())
    ss_tot = float(((closed - closed.mean()) ** 2).sum())
    r_squared = 1 - ss_res / ss_tot
    if r_squared <= 0.999:
        failures.append(f"closed-form fit has R^2 = {r_squared}")

    b = 1 + p.d * (2 * p.h - 1)
    expected_slope = (2 * p.d * p.mu_s ** 2 * p.k
                      / (b * (p.lambda_reg + (p.mu_l ** 2 + p.mu_s ** 2) * p.n)))
    if abs(slope - expected_slope) > 1e-9:
        failures.append(f"fitted slope {slope!r} != derived slope {expected_slope!r}")

    off_band = [
        f"alpha={row.alpha:+.1f}: mc {row.mc_mean:.4f} +- {row.mc_stderr:.4f} "
        f"vs line {intercept + slope * row.alpha:.4f}"
        for row in rows
        if abs(row.mc_mean - (intercept + slope * row.alpha)) > 3 * row.mc_stderr
    ]
    if off_band:
        failures.append(
            "Monte-Carlo means leave the 3-stderr band around the closed-form "
            "line (they track twice the line): " + "; ".join(off_band))

    _verdict(2, failures)


def test_criterion_3_generator_emd_reduction(sbm_pair):
    failures = []
    g, t = sbm_pair
    start = time.monotonic()
    for alpha, beta in ((3.0, 10.0), (10.0, 3.0)):
        _, _, report = generate(g, t, BetaGoal(alpha, beta), 10, seed=11)
        if report.emd_generated_goal > 0.5 * report.emd_original_goal:
            failures.append(
                f"Beta({alpha:g},{beta:g}): EMD {report.emd_original_goal:.4f} -> "
                f"{report.emd_generated_goal:.4f} missed the halving bound")
    runtime = time.monotonic() - start
    if runtime >= 60:
        failures.append(f"generation took {runtime:.1f}s (limit 60s)")
    _verdict(3, failures)


def test_criterion_4_rewire_invariants(sbm_pair):
    failures = []
    g, t = sbm_pair
    ratios = local_homophily_all(g, t)
    source = histogram(ratios[~np.isnan(ratios)], 10)
    target = beta_goal_histogram(BetaGoal(3.0, 10.0), 10)
    goals = assign_node_goals(transport_plan(source, target), ratios, 10, seed=5)

    g_rw, log = rewire_phase(g, t, goals, seed=21)
    if g_rw.edge_count != g.edge_count:
        failures.append(f"|E| changed {g.edge_count} -> {g_rw.edge_count}")
    recs = log.records
    if len(recs) % 2:
        failures.append("rewire log is not paired")
    for k in range(0, len(recs) - 1, 2):
        if (recs[k].op, recs[k + 1].op) != ("remove", "add") or recs[k].u != recs[k + 1].u:
            failures.append(f"records {k},{k + 1} do not form a source-preserving pair")
            break

    g_fin, log = refine_phase(g_rw, t, goals, seed=22, log=log)
    try:
        # simplicity and strict potential decrease, record by record
        EditLogChecker(g, t, goals).apply(log.records)
    except AssertionError as exc:
        failures.append(f"edit audit failed: {exc}")

    replay_hash = hashlib.sha256(log.replay(g).edge_array().tobytes()).hexdigest()
    final_hash = hashlib.sha256(g_fin.edge_array().tobytes()).hexdigest()
    if replay_hash != final_hash:
        failures.append("replayed edge-list hash differs from the generated graph")

    _verdict(4, failures)


def test_criterion_5_emd_oracle():
    failures = []
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(b))
        q = rng.dirichlet(np.ones(b))
        hp = HomophilyHistogram(b, p / p.sum())
        hq = HomophilyHistogram(b, q / q.sum())
        worst = max(worst, abs(emd(hp, hq) - lp_transport_cost(hp.mass, hq.mass)))
    if worst > 1e-9:
        failures.append(f"worst disagreement with the LP oracle: {worst:.2e}")

    for _ in range(100):
        b = int(rng.integers(2, 7))
        hp, hq, hr = (HomophilyHistogram(b, m / m.sum())
                      for m in rng.dirichlet(np.ones(b), size=3))
        if emd(hp, hq) != emd(hq, hp):
            failures.append("symmetry violated")
            break
        if emd(hp, hp) != 0.0:
            failures.append("identity violated")
            break
        if emd(hp, hr) > emd(hp, hq) + emd(hq, hr) + 1e-12:
            failures.append("triangle inequality violated")
            break

    _verdict(5, failures)


def test_criterion_6_split_protocol():
    failures = []
    ratios = np.random.default_rng(5).beta(10.0, 3.0, size=10_000)

    flat = stratified_split(ratios, 0.0, 10, seed=2)
    n_b = np.bincount(bin_index(ratios, 10), minlength=10)
    for count, share in zip(n_b, flat.per_bin_train_share):
        if count >= 30:
            noise = 3 * math.sqrt(0.8 * 0.2 / count) + 1.0 / count
            if abs(share - 0.8) > noise:
                failures.append(
                    f"gamma=0 share {share:.3f} on a {count}-node bin leaves "
                    f"the binomial noise band around 0.8")

    emds = [stratified_split(ratios, g, 10, seed=2).emd_train_test
            for g in (0.0, 1.0, 2.0, 3.0)]
    if not all(lo <= hi + 1e-12 for lo, hi in zip(emds, emds[1:])):
        failures.append(
            "train/test EMD is not monotone non-decreasing over gamma in "
            f"{{0,1,2,3}}: {[round(e, 5) for e in emds]} (the inverted "
            "distribution collapses onto the rarest populated bin, pushing "
            "every per-bin weight to 1 as gamma grows)")

    again = stratified_split(ratios, 2.0, 10, seed=2)
    if not np.array_equal(again.tags,
                          stratified_split(ratios, 2.0, 10, seed=2).tags):
        failures.append("identical seeds produced different assignments")

    _verdict(6, failures)


def test_criterion_7_metric_fixtures():
    failures = []
    fixture = PredictionTable(
        np.array([1] * 8),
        np.array([1, 1, 1, 0, 1, 0, 0, 0]),
        np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    if statistical_parity(fixture, 1) != 0.5:
        failures.append("binary parity fixture is not exactly 0.5")
    if micro_f1(fixture) != 0.5:
        failures.append("micro-F1 fixture is not exactly 0.5")

    rng = np.random.default_rng(11)
    for _ in range(50):
        table = PredictionTable(rng.integers(0, 3, 60), rng.integers(0, 3, 60),
                                rng.integers(0, 2, 60))
        _, y_pred, sens = table.evaluated()
        per_class = [abs(float((y_pred[sens == 0] == c).mean())
                         - float((y_pred[sens == 1] == c).mean()))
                     for c in range(3)]
        if abs(multiclass_statistical_parity(table) - max(per_class)) > 1e-12:
            failures.append("multiclass parity != max of per-class parities")
            break

    before = MetricRecord(f1=0.80, sp=0.10, n_eval=100, dataset="x", model="m")
    after = MetricRecord(f1=0.71, sp=0.19, n_eval=100, dataset="x", model="m")
    d_f1, d_sp = delta_metrics(before, after)
    if abs(d_sp - 0.09) > 1e-12 or abs(d_f1 + 0.09) > 1e-12:
        failures.append(f"delta convention broken: got ({d_f1}, {d_sp})")

    _verdict(7, failures)


_DATASETS = (
    ("tolokers_fair", 11_758, ("thousands", 519), 0.58),
    ("fb_penn94_fair", 7_016, ("exact", 59_845), 0.39),
    ("pokec_fair", 69_949, ("thousands", 130), 0.38),
)


def test_criterion_8_dataset_verification():
    data_root = Path(__file__).resolve().parent.parent / "data"
    present = [spec for spec in _DATASETS
               if (data_root / spec[0] / "edges.txt").exists()
               and (data_root / spec[0] / "nodes.csv").exists()]
    if not present:
        print("criterion 8: SKIP")
        pytest.skip("dataset files absent; supply data/<name>/edges.txt and "
                    "nodes.csv for tolokers_fair, fb_penn94_fair, pokec_fair")

    failures = []
    for name, n_nodes, (kind, n_edges), h_expected in present:
        g = load_edge_list(data_root / name / "edges.txt")
        t = load_node_table(data_root / name / "nodes.csv")
        if g.node_count != n_nodes:
            failures.append(f"{name}: {g.node_count} nodes, expected {n_nodes}")
        if kind == "exact" and g.edge_count != n_edges:
            failures.append(f"{name}: {g.edge_count} edges, expected {n_edges}")
        if kind == "thousands" and round(g.edge_count / 1000) != n_edges:
            failures.append(f"{name}: {g.edge_count} edges, expected about {n_edges}K")
        h = global_homophily(g, t)
        if abs(h - h_expected) > 0.01:
            failures.append(f"{name}: global homophily {h:.3f}, expected {h_expected}")
    _verdict(8, failures)


def test_criterion_9_pipeline_determinism(tmp_path):
    failures = []
    g, t = two_class_sbm(400, 8, 0.5, seed=17)
    save_edge_list(g, tmp_path / "edges.txt")
    save_node_table(t, tmp_path / "nodes.csv")
    graph_args = ["--graph", str(tmp_path / "edges.txt"),
                  "--nodes", str(tmp_path / "nodes.csv")]
    commands = (
        ["generate"] + graph_args + ["--alpha", "3.0", "--beta", "10.0",
                                     "--seed", "5", "--out", str(tmp_path / "gen")],
        ["split"] + graph_args + ["--gamma", "0.0", "--gamma", "2.0",
                                  "--seed", "3", "--out", str(tmp_path / "split")],
        ["theory", "--alpha-grid", "0.0,0.1", "--trials", "50",
         "--seed", "3", "--out", str(tmp_path / "theory")],
    )

    def run_all() -> dict:
        snapshot = {}
        for cmd in commands:
            if cli_main(list(cmd)) != 0:
                failures.append(f"{cmd[0]} exited nonzero")
            out_dir = Path(cmd[cmd.index("--out") + 1])
            for path in sorted(out_dir.iterdir()):
                snapshot[f"{out_dir.name}/{path.name}"] = path.read_bytes()
        return snapshot

    first = run_all()
    second = run_all()
    if set(first) != set(second):
        failures.append("the two runs produced different artifact sets")
    else:
        diff = [name for name in first if first[name] != second[name]]
        if diff:
            failures.append("artifacts changed between identical runs: " + ", ".join(diff))
    _verdict(9, failures)
