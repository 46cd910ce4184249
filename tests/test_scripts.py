"""The example scripts under scripts/, run in-process on small inputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from homshift import EditLog, Graph

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
