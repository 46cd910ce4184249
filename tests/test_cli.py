"""End-to-end coverage of the homshift command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homshift
from homshift import (
    EditLog,
    load_edge_list,
    load_split,
    save_edge_list,
    save_node_table,
    two_class_sbm,
)
from homshift import cli
from homshift.cli import _dump_json, _ratios_csv, main

from conftest import reference_ratios_csv


@pytest.fixture(scope="module")
def sbm_files(tmp_path_factory):
    """A 400-node SBM written to disk the way the CLI expects to read it."""
    root = tmp_path_factory.mktemp("sbm")
    g, t = two_class_sbm(400, 8, 0.5, seed=17)
    save_edge_list(g, root / "edges.txt")
    save_node_table(t, root / "nodes.csv")
    return root, g, t


def _write_predictions(path, y_true, y_pred, sensitive, node_ids=None):
    ids = range(len(y_true)) if node_ids is None else node_ids
    lines = ["node_id,y_true,y_pred,sensitive"]
    lines += [f"{i},{a},{b},{s}" for i, a, b, s in zip(ids, y_true, y_pred, sensitive)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_import_loads_no_scipy():
    """scipy is imported by the functions that use it, not by `import homshift`."""
    src = str(Path(homshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, homshift, homshift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -------------------------------------------------------------- analyze


def test_analyze_toy_graph(tmp_path):
    (tmp_path / "g.txt").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "n.csv").write_text(
        "node_id,label,sensitive\n0,0,0\n1,0,1\n2,0,0\n3,0,1\n4,0,0\n")
    out = tmp_path / "out"
    rc = main(["analyze", "--graph", str(tmp_path / "g.txt"),
               "--nodes", str(tmp_path / "n.csv"),
               "--bins", "4", "--out", str(out)])
    assert rc == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"nodes": 5, "edges": 3, "global_homophily": 1.0,
                       "valid_ratio_nodes": 4, "bins": 4}

    # the isolated trailing node has no ratio; everyone else sits at 1.0
    ratio_lines = (out / "ratios.csv").read_text().splitlines()
    assert ratio_lines[0] == "node_id,ratio"
    assert ratio_lines[1:] == ["0,1.0", "1,1.0", "2,1.0", "3,1.0", "4,"]

    hist_lines = (out / "histogram.csv").read_text().splitlines()
    assert hist_lines[0] == "bin,lo,hi,mass"
    assert hist_lines[-1] == "3,0.75,1.0,1.0"
    masses = [float(line.split(",")[3]) for line in hist_lines[1:]]
    assert masses == [0.0, 0.0, 0.0, 1.0]

    config = json.loads((out / "analyze.config.json").read_text())
    assert config["subcommand"] == "analyze" and config["bins"] == 4


def test_analyze_one_indexed_matches(tmp_path):
    (tmp_path / "g0.txt").write_text("0 1\n1 2\n")
    (tmp_path / "g1.txt").write_text("1 2\n2 3\n")
    (tmp_path / "n.csv").write_text("node_id,label,sensitive\n0,0,0\n1,1,1\n2,0,0\n")
    base = ["--nodes", str(tmp_path / "n.csv"), "--bins", "5"]
    assert main(["analyze", "--graph", str(tmp_path / "g0.txt"),
                 "--out", str(tmp_path / "a")] + base) == 0
    assert main(["analyze", "--graph", str(tmp_path / "g1.txt"), "--one-indexed",
                 "--out", str(tmp_path / "b")] + base) == 0
    assert (tmp_path / "a" / "ratios.csv").read_bytes() == \
        (tmp_path / "b" / "ratios.csv").read_bytes()


def _per_node_ratios_csv(ratios) -> str:
    """The per-node ratios.csv writer that _ratios_csv replaced, as a reference."""
    text = "node_id,ratio\n"
    for node, r in enumerate(ratios):
        text += f"{node},{'' if np.isnan(r) else repr(float(r))}\n"
    return text


def test_ratios_csv_matches_the_per_node_writer():
    rng = np.random.default_rng(8)
    ratios = np.concatenate([
        [np.nan, 0.0, 1.0, 5e-05, 1e-300, 5e-324, 1 / 3, 2 / 3, 0.1, np.nan],
        rng.random(200), rng.integers(0, 7, 50) / 7])
    ratios[rng.random(ratios.size) < 0.1] = np.nan
    # NaNs with other payloads and signs, and -0.0 next to 0.0: a writer that
    # merges equal floats gives one of the two zeros the other's cell
    odd_nans = np.array([0x7FF8_0000_0000_0123, 0x7FF0_0000_0000_0001,
                         -0x0008_0000_0000_0000], dtype=np.int64).view(np.float64)
    ratios = np.concatenate([ratios, odd_nans, [-0.0, 0.0, -0.0], np.full(400, 0.25),
                             np.tile([0.0, -0.0, np.nan], 300), np.full(500, 1 / 3)])
    assert _ratios_csv(ratios) == _per_node_ratios_csv(ratios)
    assert _ratios_csv(np.array([], dtype=np.float64)) == "node_id,ratio\n"


@given(st.lists(st.one_of(st.sampled_from([np.nan, 0.0, 1.0, 0.5, 1 / 3]),
                          st.floats(0, 1)), max_size=50))
@settings(max_examples=200, deadline=None)
def test_ratios_csv_matches_the_one_row_at_a_time_writer(values):
    ratios = np.array(values, dtype=np.float64)
    assert _ratios_csv(ratios) == reference_ratios_csv(ratios)


# ------------------------------------------------------------- generate


def test_generate_outputs_and_determinism(sbm_files, tmp_path):
    root, g, _ = sbm_files
    args = ["generate", "--graph", str(root / "edges.txt"),
            "--nodes", str(root / "nodes.csv"),
            "--alpha", "3.0", "--beta", "10.0", "--bins", "10", "--seed", "5"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    report = json.loads((out1 / "report.json").read_text())
    assert report["emd_generated_goal"] < report["emd_original_goal"]
    assert report["edits_rewire"] > 0
    assert sum(report["degree_delta_histogram"].values()) == 400

    generated = load_edge_list(out1 / "generated_edges.txt")
    replayed = EditLog.load(out1 / "edit_log.jsonl").replay(g)
    assert replayed == generated

    # identical seeds produce identical artifacts, byte for byte
    for name in ("generated_edges.txt", "edit_log.jsonl", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_writes_no_sidecar_when_the_replay_check_fails(
        sbm_files, tmp_path, monkeypatch, capsys):
    root, g, _ = sbm_files
    # the saved file's check replays the source graph to itself
    monkeypatch.setattr(EditLog, "replay_file", staticmethod(lambda path, graph: graph))
    out = tmp_path / "out"
    rc = main(["generate", "--graph", str(root / "edges.txt"),
               "--nodes", str(root / "nodes.csv"),
               "--alpha", "3.0", "--beta", "10.0", "--seed", "5", "--out", str(out)])
    assert rc == 1
    assert "replay does not reproduce" in capsys.readouterr().err
    assert sorted(out.iterdir()) == []  # no artifact, temporary file or sidecar


def test_generate_checks_its_saved_log_without_loading_it(sbm_files, tmp_path, monkeypatch):
    """The saved log is checked from its decoded columns; no EditLog is read back."""
    root, g, _ = sbm_files

    def no_load(path):
        raise AssertionError(f"EditLog.load({path})")

    monkeypatch.setattr(EditLog, "load", staticmethod(no_load))
    out = tmp_path / "out"
    assert main(["generate", "--graph", str(root / "edges.txt"),
                 "--nodes", str(root / "nodes.csv"),
                 "--alpha", "3.0", "--beta", "10.0", "--seed", "5", "--out", str(out)]) == 0
    assert (out / "generate.config.json").exists()


# ---------------------------------------------------------------- split


def test_split_outputs(sbm_files, tmp_path):
    root, g, _ = sbm_files
    out = tmp_path / "out"
    rc = main(["split", "--graph", str(root / "edges.txt"),
               "--nodes", str(root / "nodes.csv"),
               "--gamma", "0.0", "--gamma", "2.0",
               "--bins", "10", "--seed", "3", "--out", str(out)])
    assert rc == 0

    tags0 = load_split(out / "split_gamma0.csv")
    tags2 = load_split(out / "split_gamma2.csv")
    assert tags0.size == g.node_count and tags2.size == g.node_count

    diag0 = json.loads((out / "split_gamma0.json").read_text())
    diag2 = json.loads((out / "split_gamma2.json").read_text())
    assert diag0["gamma"] == 0.0 and diag2["gamma"] == 2.0
    assert len(diag0["per_bin_train_share"]) == 10
    assert diag0["emd_train_test"] <= diag2["emd_train_test"]

    valid = int((tags0 != 3).sum())
    pool = int((tags0 == 0).sum() + (tags0 == 1).sum())
    assert pool == round(0.8 * valid)


def test_split_rejects_gammas_that_share_a_file_name(sbm_files, tmp_path, capsys):
    # both print as 0.123457 under the 6-significant-digit file name
    root, _, _ = sbm_files
    out = tmp_path / "out"
    rc = main(["split", "--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv"),
               "--gamma", "0.1234567", "--gamma", "0.1234568", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "0.1234567" in err and "0.1234568" in err and "split_gamma0.123457.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
def test_split_rejects_a_gamma_that_is_not_finite_and_non_negative(
        sbm_files, tmp_path, capsys, bad):
    root, _, _ = sbm_files
    out = tmp_path / "out"
    rc = main(["split", "--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv"),
               "--gamma", "1.0", f"--gamma={bad}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--gamma must be a finite non-negative number, got {float(bad)!r}" in err
    assert "would both write" not in err
    assert not out.exists()


def test_split_reads_negative_zero_gamma_as_zero(sbm_files, tmp_path):
    root, _, _ = sbm_files
    graph = ["--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv")]
    neg, pos = tmp_path / "neg", tmp_path / "pos"
    assert main(["split", *graph, "--gamma=-0.0", "--gamma", "0", "--out", str(neg)]) == 0
    assert main(["split", *graph, "--out", str(pos)]) == 0
    names = ["split.config.json", "split_gamma0.csv", "split_gamma0.json"]
    assert sorted(p.name for p in neg.iterdir()) == names
    for name in names[1:]:
        assert (neg / name).read_bytes() == (pos / name).read_bytes(), name


def test_split_refuses_zero_bins(sbm_files, tmp_path, capsys):
    root, _, _ = sbm_files
    out = tmp_path / "out"
    rc = main(["split", "--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv"),
               "--bins", "0", "--out", str(out)])
    assert rc == 1
    assert "homshift split: error: bin_count must be positive" in capsys.readouterr().err
    assert not (out / "split.config.json").exists()


# -------------------------------------------------------------- metrics


def test_metrics_outputs(tmp_path):
    y_true = [1] * 8
    y_a = [1, 1, 1, 0, 1, 0, 0, 0]
    sens = [0, 0, 0, 0, 1, 1, 1, 1]
    _write_predictions(tmp_path / "a.csv", y_true, y_a, sens)
    _write_predictions(tmp_path / "b.csv", y_true, y_true, sens)
    out = tmp_path / "out"
    rc = main(["metrics", "--run-a", str(tmp_path / "a.csv"),
               "--run-b", str(tmp_path / "b.csv"),
               "--baseline", str(tmp_path / "a.csv"), "--out", str(out)])
    assert rc == 0

    a = json.loads((out / "metrics_a.json").read_text())
    assert a == {"f1": 0.5, "sp": 0.5, "n_eval": 8, "per_class_sp": [0.5, 0.5]}
    b = json.loads((out / "metrics_b.json").read_text())
    assert b["f1"] == 1.0 and b["sp"] == 0.0

    delta = json.loads((out / "delta.json").read_text())
    assert delta == {"delta_f1": 0.5, "delta_sp": -0.5}

    assert json.loads((out / "adjusted_a.json").read_text()) == {"f1": 0.0, "sp": 0.0}
    adj_b = json.loads((out / "adjusted_b.json").read_text())
    assert adj_b == {"f1": 0.5, "sp": -0.5}


def test_metrics_single_class_parity_is_zero(tmp_path):
    _write_predictions(tmp_path / "a.csv", [0, 0, 0], [0, 0, 0], [0, 1, 0])
    out = tmp_path / "out"
    assert main(["metrics", "--run-a", str(tmp_path / "a.csv"),
                 "--out", str(out)]) == 0
    a = json.loads((out / "metrics_a.json").read_text())
    assert a["sp"] == 0.0 and a["f1"] == 1.0


@pytest.mark.parametrize("body, message", [
    ("0,1,1,0\n1,0,0,2\n", "{bad}: line 3: sensitive attribute must be 0 or 1, got 2"),
    # every row in sensitive group 0
    ("0,1,1,0\n1,0,0,0\n", "{bad}: both sensitive groups must be nonempty on the evaluated subset"),
    # one class and one group: refused like any one-group file, not scored as parity 0
    ("0,0,0,0\n1,0,0,0\n", "{bad}: both sensitive groups must be nonempty on the evaluated subset"),
    # a valid file with 2 rows where the others have 3
    ("0,1,1,0\n1,0,0,1\n", "baseline must score the same evaluation subset: "
                           "{base} has {n_base} rows, {run} has {n_run}"),
], ids=["bad-row", "one-group", "one-class-one-group", "row-count"])
@pytest.mark.parametrize("flag", ["--run-a", "--run-b", "--baseline"])
def test_metrics_error_names_the_bad_prediction_file(tmp_path, capsys, flag, body, message):
    good = tmp_path / "good.csv"
    _write_predictions(good, [1, 0, 1], [1, 0, 0], [0, 1, 1])
    bad = tmp_path / "bad.csv"
    bad.write_text("node_id,y_true,y_pred,sensitive\n" + body, encoding="utf-8")
    files = {"--run-a": good, "--run-b": good, "--baseline": good, flag: bad}
    argv = ["metrics", "--out", str(tmp_path / "out")]
    for name, path in files.items():
        argv += [name, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    base, n_base, run, n_run = (bad, 2, good, 3) if flag == "--baseline" else (good, 3, bad, 2)
    assert message.format(bad=bad, base=base, n_base=n_base, run=run, n_run=n_run) in err
    assert not (tmp_path / "out" / "metrics.config.json").exists()


def test_metrics_delta_refuses_runs_of_different_row_counts(tmp_path, capsys):
    run_a, run_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_predictions(run_a, [1, 0, 1], [1, 0, 0], [0, 1, 1])
    _write_predictions(run_b, [1, 0], [1, 1], [0, 1])
    out = tmp_path / "out"
    assert main(["metrics", "--run-a", str(run_a), "--run-b", str(run_b),
                 "--out", str(out)]) == 1
    assert ("delta requires runs scored on the same evaluation subset: "
            f"{run_a} has 3 rows, {run_b} has 2") in capsys.readouterr().err
    assert not (out / "delta.json").exists()
    assert not (out / "metrics.config.json").exists()


def test_metrics_refuses_runs_on_different_nodes(tmp_path, capsys):
    """Four rows each, ids 0-3 against 10-13: as many rows, but other nodes."""
    run_a, run_b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_predictions(run_a, [1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 0])
    _write_predictions(run_b, [1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 0], [10, 11, 12, 13])
    out = tmp_path / "out"
    assert main(["metrics", "--run-a", str(run_a), "--run-b", str(run_b),
                 "--baseline", str(run_b), "--out", str(out)]) == 1
    assert (f"runs must score the same nodes: node 0 is in {run_a} but not in {run_b}"
            in capsys.readouterr().err)
    assert not (out / "delta.json").exists()
    assert not (out / "metrics.config.json").exists()


@pytest.mark.parametrize("flag", ["--run-b", "--baseline"])
@pytest.mark.parametrize("column", [1, 3], ids=["y_true", "sensitive"])
def test_metrics_refuses_a_shared_node_with_other_truth(tmp_path, capsys, flag, column):
    """b lists a's nodes in another order, which is accepted; once node 2's
    y_true or sensitive differs (and node 3's too), the error names node 2."""
    def write(path, rows):
        path.write_text("node_id,y_true,y_pred,sensitive\n"
                        + "".join(",".join(map(str, row)) + "\n" for row in rows),
                        encoding="utf-8")

    run_a, run_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [[0, 1, 1, 0], [1, 0, 0, 1], [2, 1, 0, 1], [3, 0, 0, 0]]
    write(run_a, rows)
    write(run_b, rows[::-1])
    argv = ["metrics", "--run-a", str(run_a), flag, str(run_b)]
    assert main(argv + ["--out", str(tmp_path / "same")]) == 0
    for node in (3, 2):
        rows[node][column] = 1 - rows[node][column]
    write(run_b, rows[::-1])
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert (f"runs must share y_true and sensitive: node 2 differs between {run_a} and {run_b}"
            in capsys.readouterr().err)
    assert not (out / "metrics.config.json").exists()


def test_metrics_error_names_an_empty_prediction_file(tmp_path, capsys):
    _write_predictions(tmp_path / "good.csv", [1, 0], [1, 0], [0, 1])
    empty = tmp_path / "empty.csv"
    empty.write_text("node_id,y_true,y_pred,sensitive\n", encoding="utf-8")
    assert main(["metrics", "--run-a", str(tmp_path / "good.csv"), "--run-b", str(empty),
                 "--out", str(tmp_path / "out")]) == 1
    assert f"{empty}: prediction table is empty" in capsys.readouterr().err


# --------------------------------------------------------------- theory


def test_theory_sweep_csv(tmp_path):
    out = tmp_path / "out"
    rc = main(["theory", "--alpha-grid", "0.0,0.2", "--trials", "30",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,closed_form,mc_mean,mc_stderr,trials"
    assert len(lines) == 3
    closed_at_02 = float(lines[2].split(",")[1])
    assert closed_at_02 == pytest.approx(0.45, abs=1e-5)


def test_theory_sweep_csv_is_pinned(tmp_path):
    # the benchmark's theory-sweep call at seed 1: every simulated digit is fixed
    out = tmp_path / "out"
    assert main(["theory", "--n", "1000", "--k", "500", "--d", "10", "--h", "0.7",
                 "--mu-l", "1.0", "--mu-s", "1.0", "--sigma", "0.01", "--lam", "0.001",
                 "--alpha-grid=-0.3,-0.2,-0.1,0,0.1,0.2,0.3", "--trials", "5000",
                 "--seed", "1", "--out", str(out)]) == 0
    assert (hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
            == "586b9e771dcbe69a61bd9739ec3f62cd24140271d614c60e0aeb88e5bfb78e36")


def test_theory_no_sensitive_signal(tmp_path):
    out = tmp_path / "out"
    rc = main(["theory", "--alpha-grid", "0.0,0.1", "--mu-s", "0.0",
               "--trials", "20", "--seed", "1", "--out", str(out)])
    assert rc == 0
    for line in (out / "sweep.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        assert float(fields[1]) == 0.0
        assert abs(float(fields[2])) < 0.05


# ------------------------------------------------------- config sidecar


def _argv_from_config(config: dict, out) -> list[str]:
    """The command line that a `<command>.config.json` records, writing into `out`."""
    argv = [config["subcommand"]]
    for key, value in sorted(config.items()):
        if key in ("command", "subcommand", "out") or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("command", ["analyze", "generate", "split", "metrics", "theory"])
def test_outputs_regenerate_from_the_config_alone(sbm_files, tmp_path, command):
    root, g, t = sbm_files
    (tmp_path / "edges1.txt").write_text("".join(f"{u + 1} {v + 1}\n" for u, v in g.edges))
    _write_predictions(tmp_path / "a.csv", t.labels, t.labels[::-1], t.sensitive)
    _write_predictions(tmp_path / "b.csv", t.labels, t.labels, t.sensitive)
    graph = ["--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv")]
    argv = {
        "analyze": ["--graph", str(tmp_path / "edges1.txt"), "--one-indexed",
                    "--nodes", str(root / "nodes.csv"), "--bins", "7"],
        "generate": graph + ["--alpha", "3.0", "--beta", "10.0", "--seed", "5"],
        "split": graph + ["--gamma", "0.0", "--gamma", "1.5", "--train-frac", "0.7",
                          "--seed", "4"],
        "metrics": ["--run-a", str(tmp_path / "a.csv"), "--run-b", str(tmp_path / "b.csv"),
                    "--baseline", str(tmp_path / "b.csv")],
        "theory": ["--alpha-grid=-0.1,0.0", "--trials", "20", "--seed", "2"],
    }[command]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, *argv, "--out", str(first)]) == 0
    config = json.loads((first / f"{command}.config.json").read_text())
    assert main(_argv_from_config(config, second)) == 0

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert not [name for name in names if name.endswith(".tmp")]
    for name in names:
        if name == f"{command}.config.json":
            rerun = json.loads((second / name).read_text())
            assert rerun.pop("out") == str(second) and config.pop("out") == str(first)
            assert rerun == config
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# ------------------------------------------------ every option is read

# Options that name the output or the inputs every run of a command needs.
_INPUT_OPTIONS = {"--out", "--graph", "--nodes", "--run-a"}

# A second value for every other option of every subcommand (None for a flag),
# given after a base run's arguments; a new option needs an entry here.
_SECOND_VALUES = {
    "analyze": {"--one-indexed": None, "--bins": "7"},
    "generate": {"--one-indexed": None, "--alpha": "10.0", "--beta": "3.0", "--bins": "7",
                 "--seed": "1"},
    "split": {"--one-indexed": None, "--gamma": "1.0", "--bins": "7", "--train-frac": "0.7",
              "--val-frac": "0.1", "--seed": "1"},
    "metrics": {"--run-b": "{b}", "--baseline": "{b}"},
    "theory": {"--n": "800", "--k": "300", "--d": "8", "--h": "0.6", "--alpha-grid": "0.1",
               "--mu-l": "2.0", "--mu-s": "0.5", "--sigma": "0.1", "--lam": "0.01",
               "--trials": "30", "--seed": "1"},
}


def _subcommand_options() -> dict[str, set[str]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {a.option_strings[0] for a in p._actions
                      if a.dest != "help" and a.option_strings[0] not in _INPUT_OPTIONS}
            for command, p in sub.choices.items()}


def test_every_option_has_a_second_value():
    assert {command: set(values) for command, values in _SECOND_VALUES.items()} \
        == _subcommand_options()


@pytest.mark.parametrize("command", sorted(_SECOND_VALUES))
def test_every_option_reaches_a_result(sbm_files, tmp_path, command):
    """A second value of any option changes an artifact other than the sidecar, or
    the set of artifacts; an option that only reaches the sidecar fails here."""
    root, g, t = sbm_files
    # node 0 has no edge, so the list reads both 0- and 1-indexed
    (tmp_path / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in g.edges if u and v))
    _write_predictions(tmp_path / "a.csv", t.labels, t.labels[::-1], t.sensitive)
    _write_predictions(tmp_path / "b.csv", t.labels, t.labels, t.sensitive)
    graph = ["--graph", str(tmp_path / "edges.txt"), "--nodes", str(root / "nodes.csv")]
    base = {
        "analyze": graph,
        "generate": graph + ["--alpha", "3.0", "--beta", "10.0"],
        "split": graph,
        "metrics": ["--run-a", str(tmp_path / "a.csv")],
        "theory": ["--trials", "20"],
    }[command]

    def artifacts(argv, out):
        assert main([command, *argv, "--out", str(out)]) == 0, argv
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != f"{command}.config.json"}

    first = artifacts(base, tmp_path / "base")
    unread = []
    for option, value in _SECOND_VALUES[command].items():
        extra = [] if value is None else [value.format(b=tmp_path / "b.csv")]
        if artifacts(base + [option, *extra], tmp_path / option.lstrip("-")) == first:
            unread.append(option)
    assert unread == []


# One artifact writer per command, made to raise after it has written.
_FAILING_WRITERS = pytest.mark.parametrize("command, writer", [
    ("analyze", "_dump_json"),
    ("generate", "_dump_json"),
    ("split", "save_split_diagnostics"),
    ("metrics", "_dump_json"),
    ("theory", "save_sweep"),
])


def _command_argv(sbm_files, tmp_path, command) -> list[str]:
    root, _, t = sbm_files
    _write_predictions(tmp_path / "a.csv", t.labels, t.labels, t.sensitive)
    graph = ["--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv")]
    return {
        "analyze": graph,
        "generate": graph + ["--alpha", "3.0", "--beta", "10.0"],
        "split": graph,
        "metrics": ["--run-a", str(tmp_path / "a.csv")],
        "theory": ["--trials", "20"],
    }[command]


def _fail_after_writing(monkeypatch, writer) -> None:
    write = getattr(cli, writer)

    def write_then_fail(*args, **kwargs):
        write(*args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, write_then_fail)


@_FAILING_WRITERS
def test_a_run_that_fails_after_writing_an_artifact_leaves_no_sidecar(
        sbm_files, tmp_path, monkeypatch, capsys, command, writer):
    argv = _command_argv(sbm_files, tmp_path, command)
    _fail_after_writing(monkeypatch, writer)
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 1
    assert f"homshift {command}: error: disk full" in capsys.readouterr().err
    assert not any(out.iterdir())  # no artifact, temporary file or sidecar


@_FAILING_WRITERS
def test_a_failed_run_leaves_an_existing_output_directory_as_it_was(
        sbm_files, tmp_path, monkeypatch, capsys, command, writer):
    """A previous run's artifacts and sidecar, and files that are not
    homshift's, keep their bytes when a run into the same --out fails."""
    root, _, t = sbm_files
    argv = _command_argv(sbm_files, tmp_path, command)
    _write_predictions(tmp_path / "b.csv", t.labels, t.labels[::-1], t.sensitive)
    # the previous run differs, so a rewritten artifact would show
    previous = {"analyze": ["--bins", "7"], "metrics": ["--run-a", str(tmp_path / "b.csv")]}
    out = tmp_path / "out"
    assert main([command, *argv, *previous.get(command, ["--seed", "1"]),
                 "--out", str(out)]) == 0
    (out / "notes.txt").write_bytes(b"not homshift's\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert f"{command}.config.json" in before and len(before) > 2

    _fail_after_writing(monkeypatch, writer)
    assert main([command, *argv, "--out", str(out)]) == 1
    assert f"homshift {command}: error: disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_run_stopped_between_two_moves_leaves_no_earlier_sidecar(
        sbm_files, tmp_path, monkeypatch, capsys):
    """A run whose second rename fails has moved one new artifact in next to
    the previous run's others; the previous sidecar must not stay to claim
    them, and no temporary file is left."""
    argv = _command_argv(sbm_files, tmp_path, "analyze")
    out = tmp_path / "out"
    assert main(["analyze", *argv, "--bins", "7", "--out", str(out)]) == 0
    assert (out / "analyze.config.json").exists()
    replace, calls = os.replace, []

    def stop_at_the_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("stopped")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", stop_at_the_second)
    assert main(["analyze", *argv, "--out", str(out)]) == 1
    assert "homshift analyze: error: stopped" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["histogram.csv", "ratios.csv",
                                                     "summary.json"]


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize("edges, nodes, message", [
    (None, None, "No such file or directory"),
    ("0 1\n1 4\n", "node_id,label,sensitive\n0,0,0\n1,1,1\n",
     "{nodes}: node table has 2 rows but {graph} references node ids up to 4"),
], ids=["missing", "short-table"])
def test_missing_input_reports_error(tmp_path, capsys, edges, nodes, message):
    graph, table = tmp_path / "g.txt", tmp_path / "n.csv"
    for path, text in ((graph, edges), (table, nodes)):
        if text is not None:
            path.write_text(text, encoding="utf-8")
    rc = main(["analyze", "--graph", str(graph), "--nodes", str(table),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "homshift analyze: error: " in err
    assert message.format(graph=graph, nodes=table) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["theory", "--lam", "nan", "--trials", "20"], "lambda_reg must be finite, got nan"),
    (["theory", "--sigma", "1e200", "--trials", "20"],
     "simulated gap of trial 0 is nan: the parameters overflow double precision"),
    (["theory", "--mu-l", "1e300", "--trials", "20"],
     "the closed form overflows at mu_l=1e+300, mu_s=1.0, n=1000"),
    (["theory", "--mu-l", "0", "--mu-s", "1e-200", "--lam", "0", "--trials", "20"],
     "the closed form's denominator is 0 at mu_l=0.0, mu_s=1e-200, lambda_reg=0.0, n=1000"),
    (["theory", "--alpha-grid=0.1,abc", "--trials", "20"],
     "--alpha-grid entry 'abc' is not a number"),
    (["theory", "--alpha-grid=0,nan,inf", "--trials", "20"],
     "--alpha-grid entry 'nan' is not a finite number"),
    (["metrics", "--run-a", "{missing}.csv"], "No such file or directory"),
    (["analyze", "--graph", "{graph}", "--nodes", "{nodes}", "--bins", "0"],
     "bin_count must be positive"),
    (["split", "--graph", "{graph}", "--nodes", "{nodes}", "--gamma", "0", "--gamma", "1",
      "--train-frac", "2"], "train_frac must lie in (0, 1)"),
    (["split", "--graph", "{graph}", "--nodes", "{nodes}", "--gamma", "0", "--gamma", "1",
      "--val-frac", "0.999"], "leaving no training node"),
    (["generate", "--graph", "{graph}", "--nodes", "{nodes}", "--alpha", "3", "--beta", "10",
      "--bins", "0"], "bin_count must be positive"),
    # the goal is checked before either input file is read
    (["generate", "--graph", "{missing}.txt", "--nodes", "{missing}.csv",
      "--alpha", "inf", "--beta", "10"],
     "Beta shape parameter alpha must be finite and positive, got inf"),
    (["generate", "--graph", "{graph}", "--nodes", "{nodes}", "--alpha", "3", "--beta", "10",
      "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    (["split", "--graph", "{graph}", "--nodes", "{nodes}", "--seed", "-2"],
     "--seed must be a non-negative integer, got -2"),
    (["theory", "--trials", "20", "--seed", "-3"], "--seed must be a non-negative integer, got -3"),
], ids=["theory", "theory-sim-overflow", "theory-closed-form-overflow",
        "theory-closed-form-zero-denominator", "theory-grid-entry", "theory-grid-non-finite",
        "metrics", "analyze", "split", "split-no-train", "generate",
        "generate-goal-first", "generate-seed", "split-seed", "theory-seed"])
def test_a_refused_run_leaves_no_output_directory(sbm_files, tmp_path, capsys, argv, message):
    root, _, _ = sbm_files
    names = {"graph": root / "edges.txt", "nodes": root / "nodes.csv",
             "missing": tmp_path / "missing"}
    out = tmp_path / "out"
    assert main([arg.format(**names) for arg in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"homshift {argv[0]}: error: " in err and message in err
    assert not out.exists()


def test_empty_alpha_grid_reports_error(tmp_path, capsys):
    rc = main(["theory", "--alpha-grid", ",", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "homshift theory: error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "inf", "Beta shape parameter alpha must be finite and positive, got inf"),
    ("--beta", "nan", "Beta shape parameter beta must be finite and positive, got nan"),
])
def test_generate_refuses_a_non_finite_beta_goal(sbm_files, tmp_path, capsys, flag, value,
                                                 message):
    root, _, _ = sbm_files
    goal = {"--alpha": "3.0", "--beta": "10.0", flag: value}
    out = tmp_path / "out"
    rc = main(["generate", "--graph", str(root / "edges.txt"), "--nodes", str(root / "nodes.csv"),
               *[arg for pair in goal.items() for arg in pair], "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "edit_log.jsonl").exists()
    assert not (out / "generate.config.json").exists()


@pytest.mark.parametrize("flag, value, name", [
    ("--lam", "nan", "lambda_reg"),
    ("--sigma", "nan", "sigma"),
    ("--sigma", "inf", "sigma"),
    ("--mu-s", "inf", "mu_s"),
    ("--mu-l", "-inf", "mu_l"),
])
def test_theory_refuses_a_non_finite_parameter(tmp_path, capsys, flag, value, name):
    out = tmp_path / "out"
    assert main(["theory", f"{flag}={value}", "--trials", "20", "--out", str(out)]) == 1
    assert f"{name} must be finite, got {float(value)!r}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert not (out / "theory.config.json").exists()


def test_theory_reads_negative_zero_sigma_as_zero(tmp_path):
    argv = ["theory", "--alpha-grid", "0.0,0.2", "--trials", "20", "--seed", "4"]
    assert main(argv + ["--sigma=-0.0", "--out", str(tmp_path / "neg")]) == 0
    assert main(argv + ["--sigma=0.0", "--out", str(tmp_path / "pos")]) == 0
    assert ((tmp_path / "neg" / "sweep.csv").read_bytes()
            == (tmp_path / "pos" / "sweep.csv").read_bytes())


def test_theory_reads_negative_zero_alpha_as_zero(tmp_path):
    argv = ["theory", "--trials", "20", "--seed", "4"]
    assert main(argv + ["--alpha-grid=-0.0,0.2", "--out", str(tmp_path / "neg")]) == 0
    assert main(argv + ["--alpha-grid=0.0,0.2", "--out", str(tmp_path / "pos")]) == 0
    assert ((tmp_path / "neg" / "sweep.csv").read_bytes()
            == (tmp_path / "pos" / "sweep.csv").read_bytes())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_artifacts_refuse_non_finite_values(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _dump_json({"x": [1.0, value]}, tmp_path / "bad.json")
