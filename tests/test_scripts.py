"""The example scripts under scripts/, run in-process on small inputs."""

import importlib.util
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
    monkeypatch.setattr(EditLog, "replay", lambda self, g: Graph.from_edges(g.node_count, []))
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
