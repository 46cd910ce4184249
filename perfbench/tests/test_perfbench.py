"""The benchmark's own tests, at tiny sizes: each workload end to end in seconds.

Run with `python3 -m pytest perfbench/tests`. They share the benchmark's
work directory, so do not run them while a benchmark run is in progress.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import inputs, run
from perfbench.tracing import Tracer
from perfbench.worker import Runner
from perfbench.workloads import WORKLOADS, CheckFailed, sha256_tree

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_end_to_end(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    for line in done.stdout.strip().splitlines()[:-1]:
        if line.startswith(("provenance ", "FAILED ")):
            continue
        name, value, unit = line.split(" ")
        float(value)


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in WORKLOADS:
        inputs.write_inputs(workload, tmp_path / "a", 5, tiny=True)
        inputs.write_inputs(workload, tmp_path / "b", 5, tiny=True)
        inputs.write_inputs(workload, tmp_path / "c", 6, tiny=True)
    a, b, c = (sha256_tree(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def _edges_flip(path: Path):
    """Drop one generated edge and add one absent edge, keeping the file canonical."""
    lines = path.read_text().splitlines()
    edges = {tuple(map(int, line.split())) for line in lines}
    u, v = sorted(edges)[0]
    w = next(x for x in range(u + 1, inputs.TINY["generate-sbm"].nodes) if (u, x) not in edges)
    edges = (edges - {(u, v)}) | {(u, w)}
    path.write_text("".join(f"{a} {b}\n" for a, b in sorted(edges)))


def _split_tag(path: Path):
    text = path.read_text()
    path.write_text(text.replace(",train\n", ",test\n", 1))


def _log_op(path: Path):
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if '"op": "add"' in line)
    lines[idx] = lines[idx].replace('"op": "add"', '"op": "remove"')
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, command, artifact, corrupt", [
    ("generate-sbm", 0, "generated_edges.txt", _edges_flip),
    ("generate-sbm", 1, "edit_log.jsonl", _log_op),
    ("read-large", 1, "split_gamma1.csv", _split_tag),
])
def test_corrupted_artifact_is_counted_failed(tmp_path, monkeypatch, workload, command,
                                              artifact, corrupt):
    from homshift.cli import main

    inputs.write_inputs(workload, tmp_path / "inputs", 4, tiny=True)
    monkeypatch.chdir(tmp_path)
    spec = WORKLOADS[workload]
    target = spec.commands()[command]

    def corrupting_main(argv):
        rc = main(argv)
        if argv == list(target.argv):
            corrupt(Path(target.out) / artifact)
        return rc

    runner = Runner(spec, corrupting_main)
    runner.run_pass()
    _, failures = runner.check()
    assert len(failures) == 1 and f"({target.name})" in failures[0], failures
    with pytest.raises(CheckFailed):
        spec.check(target)


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    def fake_child(args, cwd, env, timeout):
        if "worker.py" in args[0]:
            (cwd / "result.json").write_text(json.dumps({
                "passes_s": [1.0], "peak_rss_mb": 50.0, "attempted": 2, "failed": 1,
                "failures": ["call 1 (theory): CheckFailed: broken"], "calls": []}))
            return ""
        return json.dumps({"seconds": 0.5, "paced_s": 0.5})

    monkeypatch.setattr(run, "run_child", fake_child)
    rc = run.main(["--workload", "theory-sweep", "--seed", "1", "--seconds", "1", "--tiny"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and last["correct"] is False and last["failed"] == 1


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "theory-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_records_nested_spans_and_restores():
    import homshift
    import homshift.cli

    original = homshift.cli.load_edge_list
    tracer = Tracer()
    with tracer.install():
        assert homshift.cli.load_edge_list is not original
        homshift.Graph.from_edges(3, [(0, 1)])
        with tracer.span("cli.test"):
            homshift.local_homophily_all(homshift.Graph.from_edges(2, [(0, 1)]),
                                         homshift.NodeTable([0, 1], [0, 1]))
    assert homshift.cli.load_edge_list is original
    assert homshift.Graph.from_edges(2, [(0, 1)]).edge_count == 1
    spans = tracer.as_json()
    names = [s["name"] for s in spans]
    assert names == ["graph.from_edges", "cli.test", "graph.from_edges",
                     "homophily.local_homophily_all"]
    assert spans[2]["parent"] == spans[1]["id"] and spans[0]["parent"] is None


def test_pace_charges_a_call_at_the_trimmed_mean_speed_inside_it():
    from perfbench.pace import REFERENCE_S, Pace

    pace = Pace()
    # (start, handler seconds, kernel seconds): ten samples, two of them stray.
    kernel = [2.0] * 4 + [0.1] + [2.0] * 4 + [40.0]
    pace.samples = [(0.1 * (i + 1), 0.01, k * REFERENCE_S) for i, k in enumerate(kernel)]
    wall, paced = pace.paced(0.0, 1.2)
    assert wall == pytest.approx(1.2 - 10 * 0.01)
    assert paced == pytest.approx(wall / 2)
    wall, paced = pace.paced(5.0, 6.0)  # no sample inside: all samples so far
    assert (wall, paced) == (1.0, pytest.approx(1.0 / 2))


def test_pace_samples_while_active():
    from perfbench.pace import Pace

    with Pace(period_s=0.01) as pace:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(pace.samples) >= 5
    assert all(kernel_s > 0 for _, _, kernel_s in pace.samples)
