"""The example scripts under scripts/, run in-process on small inputs."""

import importlib.util
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from homshift import EditLog, Graph, TheoryParams, expected_logit_gap

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    module.main()


def test_generate_demo_checks_the_written_edit_log(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    _run_script("generate_demo", ["--nodes", "200", "--out", str(out)], monkeypatch)
    assert "edit log replays onto the source graph" in capsys.readouterr().out
    assert {p.name for p in out.iterdir()} == {"generated_edges.txt", "nodes.csv",
                                              "edit_log.jsonl"}

    # a log that replays to another graph fails the run
    monkeypatch.setattr(EditLog, "replay_file",
                        staticmethod(lambda path, g: Graph.from_edges(g.node_count, [])))
    with pytest.raises(SystemExit) as info:
        _run_script("generate_demo", ["--nodes", "200", "--out", str(out)], monkeypatch)
    assert info.value.code == 1
    assert "does not reproduce the generated graph" in capsys.readouterr().err


def test_split_sweep_prints_one_row_per_gamma(monkeypatch, capsys):
    _run_script("split_sweep", ["--count", "500"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sample: Beta(10,3), 500 ratios"
    counts = [int(c) for c in lines[1].removeprefix("bin counts: [").rstrip("]").split(",")]
    assert len(counts) == 10 and sum(counts) == 500
    rows = [re.fullmatch(r"gamma=(\S+): train/test EMD (\S+)  train shares \[(.*)\]", line)
            for line in lines[2:]]
    assert [float(row[1]) for row in rows] == [0.0, 1.0, 2.0, 3.0]
    emds = [float(row[2]) for row in rows]
    assert all(lo <= hi for lo, hi in zip(emds, emds[1:]))
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
        shares = row[3].split()
        # an empty bin prints "-", every other bin its train share
        assert [s == "-" for s in shares] == [c == 0 for c in counts]
        assert all(0.0 <= float(s) <= 1.0 for s in shares if s != "-")


def test_theory_sweep_prints_one_row_per_alpha(monkeypatch, capsys):
    _run_script("theory_sweep", ["--trials", "50"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["alpha", "closed", "mc", "mean", "stderr", "ratio"]
    rows = [[float(x) for x in line.split()] for line in lines[1:]]
    assert [row[0] for row in rows] == [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]
    params = TheoryParams(n=1000, k=500, d=10, h=0.7, alpha_shift=0.0, mu_l=1.0, mu_s=1.0,
                          sigma=0.01, lambda_reg=1e-3)
    for alpha, closed, mc_mean, stderr, ratio in rows:
        assert closed == round(expected_logit_gap(replace(params, alpha_shift=alpha)), 5)
        # the simulator lands at twice the closed form (homshift.theory's docstring)
        assert abs(mc_mean - 2 * closed) < 4 * stderr
        assert ratio == pytest.approx(mc_mean / closed, abs=0.006)


def _record(sha, trace, metrics, passes=None, failed=0):
    """A hand-written `record.json` of perfbench/run.py, only the fields the
    trajectory reads, plus one it must not copy."""
    result = {"failed": failed, "passes_s": passes or [1.0]}
    if passes is not None:
        result["paced_passes_s"] = passes
    return {"provenance": {"git_sha": sha, "src_sha256": "ab" * 32, "trace": trace, "seed": 1},
            "named": {"error_rate": [0.0, "ratio"]},
            "metrics": metrics, "result": result, "setup_samples_s": [0.2, 0.3, 0.25]}


def _write_records(work, records):
    for workload, record in records.items():
        (work / workload).mkdir(parents=True, exist_ok=True)
        (work / workload / "record.json").write_text(json.dumps(record), encoding="utf-8")


def test_bench_trajectory_writes_one_entry_per_workload(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    sha = "0123456789abcdef0123456789abcdef01234567"
    _write_records(work, {
        "generate-sbm": _record(sha, 0, {"peak_rss_mb": [70.0, "MB"],
                                         "pipeline_paced_s": [0.75, "s"],
                                         "setup_s": [0.25, "s"]},
                                passes=[0.9, 0.7, 0.8, 0.6, 1.0]),
        "read-large": _record(sha, 1, {"graph.from_edges_calls": [9, "count"]}, failed=1),
    })
    out = tmp_path / "BENCH_first.json"
    _run_script("bench_trajectory", ["--work", str(work), "--out", str(out)], monkeypatch)
    assert capsys.readouterr().out == f"wrote {out}\n"
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert (bench["git_sha"], bench["src_sha256"]) == (sha, "ab" * 32)
    gen, read = bench["workloads"]["generate-sbm"], bench["workloads"]["read-large"]
    assert gen == {
        "provenance": {"git_sha": sha, "src_sha256": "ab" * 32, "trace": 0, "seed": 1},
        "correct": True,
        "named": {"error_rate": {"value": 0.0, "unit": "ratio"}},
        "metrics": {"peak_rss_mb": {"value": 70.0, "unit": "MB"},
                    "pipeline_paced_s": {"value": 0.75, "unit": "s"},
                    "setup_s": {"value": 0.25, "unit": "s"}},
        "paced_passes_s": {"count": 5, "median": 0.8, "q1": 0.7, "q3": 0.9},
    }
    # a traced run has per-layer metrics and no paced passes
    assert read["per_layer"] == {"graph.from_edges_calls": {"value": 9, "unit": "count"}}
    assert "metrics" not in read and "paced_passes_s" not in read
    assert read["correct"] is False

    # a later run, compared: ratios next to BENCHMARK.json's bounds, no gate
    later = tmp_path / "later"
    _write_records(later, {
        "generate-sbm": _record("fedcba9876543210fedcba9876543210fedcba98", 0,
                                {"peak_rss_mb": [77.5, "MB"], "pipeline_paced_s": [0.6, "s"],
                                 "setup_s": [0.25, "s"]}, passes=[0.6]),
        "theory-sweep": _record("fedcba9876543210fedcba9876543210fedcba98", 0,
                                {"setup_s": [0.1, "s"]}, passes=[0.01]),
    })
    out2 = tmp_path / "BENCH_later.json"
    _run_script("bench_trajectory", ["--work", str(later), "--out", str(out2),
                                     "--compare", str(out)], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"0123456789abcdef0123456789abcdef01234567 -> " \
        "fedcba9876543210fedcba9876543210fedcba98 (ratio = current / previous; " \
        "a report, not a gate)"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[3:]}
    assert rows[("generate-sbm", "peak_rss_mb")] == ["70", "77.5", "1.107", "0.10", "lower"]
    assert rows[("generate-sbm", "pipeline_paced_s")] == ["0.75", "0.6", "0.800", "0.25",
                                                          "lower"]
    assert rows[("generate-sbm", "setup_s")] == ["0.25", "0.25", "1.000", "0.25", "lower"]
    assert rows[("theory-sweep", "(not")] == ["in", "the", "previous", "file)"]
    assert len(rows) == 4


def test_bench_trajectory_refuses_records_of_different_commits(tmp_path, monkeypatch):
    work = tmp_path / "work"
    _write_records(work, {"a": _record("1" * 40, 0, {}, passes=[1.0]),
                          "b": _record("2" * 40, 0, {}, passes=[1.0])})
    with pytest.raises(SystemExit, match="different sources"):
        _run_script("bench_trajectory", ["--work", str(work), "--out", str(tmp_path / "x")],
                    monkeypatch)
    with pytest.raises(SystemExit, match="no \\*/record.json"):
        _run_script("bench_trajectory", ["--work", str(tmp_path / "none")], monkeypatch)
    _write_records(work, {"b": _record(None, 0, {}, passes=[1.0]),
                          "a": _record(None, 0, {}, passes=[1.0])})
    with pytest.raises(SystemExit, match="no git sha; name the file with --out"):
        _run_script("bench_trajectory", ["--work", str(work)], monkeypatch)
    assert not (tmp_path / "x").exists()


def test_bench_trajectory_refuses_tiny_records(tmp_path, monkeypatch, capsys):
    work, out = tmp_path / "work", tmp_path / "BENCH_x.json"
    records = {name: _record("1" * 40, 0, {}, passes=[1.0])
               for name in ("generate-sbm", "read-large", "theory-sweep")}
    records["generate-sbm"]["provenance"]["tiny"] = True
    records["read-large"]["provenance"]["tiny"] = False
    records["theory-sweep"]["provenance"]["tiny"] = True
    _write_records(work, records)
    with pytest.raises(SystemExit, match="^bench_trajectory: records of --tiny runs, not of "
                       "the benchmark: generate-sbm, theory-sweep; rerun these workloads "
                       "without --tiny$"):
        _run_script("bench_trajectory", ["--work", str(work), "--out", str(out)], monkeypatch)
    assert not out.exists()
    # full size, whether the record says so or, as older records do, holds no `tiny` key
    del records["theory-sweep"]["provenance"]["tiny"]
    records["generate-sbm"]["provenance"]["tiny"] = False
    _write_records(work, records)
    _run_script("bench_trajectory", ["--work", str(work), "--out", str(out)], monkeypatch)
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert sorted(json.loads(out.read_text(encoding="utf-8"))["workloads"]) == \
        sorted(records)
