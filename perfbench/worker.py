"""The measured process: runs one workload's CLI calls in-process and checks them.

Started by run.py with the run directory as its working directory, after the
inputs are written, so its peak RSS is the workload's alone. Writes
result.json (and trace.json with --trace 1) into the run directory.

Untraced (--trace 0): repeats the workload's CLI calls as often as whole
passes fit in --seconds (at least once) and records each pass's summed call
time, as wall seconds and as paced seconds (perfbench.pace: wall time
rescaled by a reference kernel timed on the same core during the calls).
Traced (--trace 1): one untraced pass, then one pass with spans around every
homshift function in perfbench.tracing, then the per-call peak-memory probes.
Output oracles run after all timing, on the last pass's artifacts; every
pass must leave byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402
from perfbench.pace import Pace  # noqa: E402
from perfbench.tracing import Tracer, inclusive_s, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, sha256_tree  # noqa: E402

LAYERS = ("cli", "graph", "homophily", "rewire", "splits", "metrics", "theory")
COMMANDS = ("analyze", "generate", "split", "metrics", "theory")
# Inclusive seconds per traced function: the span itself plus its callees.
FUNCTION_SPANS = (
    "rewire.rewire_phase", "rewire.refine_phase", "rewire.transport_plan",
    "rewire.assign_node_goals", "homophily.beta_goal_histogram", "rewire.edit_log_save",
    "rewire.edit_log_load", "rewire.edit_log_replay", "graph.load_edge_list",
    "graph.from_edges", "graph.load_node_table", "graph.save_edge_list",
    "homophily.local_homophily_all", "homophily.homophily_histogram",
    "homophily.global_homophily", "splits.stratified_split", "splits.save_split",
    "splits.load_split", "metrics.load_predictions", "theory.monte_carlo_gap",
    "synth.two_class_sbm",
)
SCORE_SPANS = ("metrics.micro_f1", "metrics.multiclass_statistical_parity",
               "metrics.per_class_statistical_parity", "metrics.delta_metrics",
               "metrics.baseline_adjust")
COUNTED_SPANS = ("graph.from_edges", "homophily.local_homophily_all", "theory.monte_carlo_gap")
PROBE_TIMEOUT_S = 100


class Runner:
    """Runs passes over a workload's commands and keeps every call's outcome."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self.commands = workload.commands()
        self.cli_main = cli_main
        self.calls: list[dict] = []

    def run_pass(self, tracer=None, pace=None) -> tuple[float, float]:
        """One call of each command; returns their summed wall and paced seconds.

        Without a `pace` the paced seconds are the wall seconds.
        """
        wall_total = paced_total = 0.0
        for command in self.commands:
            shutil.rmtree(command.out, ignore_errors=True)
            span = tracer.span(f"cli.{command.name}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                rc = self.cli_main(list(command.argv))
            end = time.perf_counter()
            seconds, paced = pace.paced(start, end) if pace else (end - start, end - start)
            wall_total += seconds
            paced_total += paced
            out = Path(command.out)
            self.calls.append({"command": command.name, "out": command.out, "rc": rc,
                               "seconds": seconds, "paced_s": paced, "interval": [start, end],
                               "hashes": sha256_tree(out) if out.is_dir() else {}})
        return wall_total, paced_total

    def check(self) -> tuple[dict, list[str]]:
        """Oracle verdict per output directory, then each call's failure, if any."""
        verdicts = {}
        for command in self.commands:
            try:
                self.workload.check(command)
                verdicts[command.out] = None
            except Exception as exc:  # any crash in an oracle counts as a failed check
                verdicts[command.out] = f"{type(exc).__name__}: {exc}"
        final = {c["out"]: c["hashes"] for c in self.calls}
        failures = []
        for i, call in enumerate(self.calls):
            if call["rc"] != 0:
                failures.append(f"call {i} ({call['command']}): exit code {call['rc']}")
            elif call["hashes"] != final[call["out"]]:
                failures.append(f"call {i} ({call['command']}): artifacts differ between passes")
            elif verdicts[call["out"]]:
                failures.append(f"call {i} ({call['command']}): {verdicts[call['out']]}")
        return final, failures


def probe(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), *args],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def memory_probes(workload, sizes) -> dict:
    """Peak-RSS growth of the workload's heaviest call, each in a fresh process."""
    return {name: probe("peak", *args)["peak_mb"]
            for name, args in workload.peak_probes(sizes).items()}


def edit_record_counts(commands) -> dict[str, int]:
    counts = {"rewire": 0, "refine": 0}
    for command in commands:
        log = Path(command.out) / "edit_log.jsonl"
        if command.name != "generate" or not log.is_file():
            continue
        with open(log, encoding="utf-8") as fh:
            for line in fh:
                phase = json.loads(line).get("phase")
                if phase in counts:
                    counts[phase] += 1
    return counts


def layer_metrics(spans: list[dict], untraced_s: float, traced_s: float, trials: int,
                  records: dict, peaks: dict) -> dict:
    """Every per-layer metric, (value, unit) by name; 0 where a layer is not called."""
    # The synth probe runs outside the CLI calls and is reported on its own.
    in_cli = _within_cli(spans)
    m = {f"{name}_s": (inclusive_s(in_cli, [name]), "s") for name in FUNCTION_SPANS}
    m["synth.two_class_sbm_s"] = (inclusive_s(spans, ["synth.two_class_sbm"]), "s")
    m["metrics.score_s"] = (inclusive_s(in_cli, SCORE_SPANS), "s")
    for name in COUNTED_SPANS:
        m[f"{name}_calls"] = (sum(1 for s in in_cli if s["name"] == name), "count")
    mc_s = m["theory.monte_carlo_gap_s"][0]
    mc_trials = m["theory.monte_carlo_gap_calls"][0] * trials
    m["theory.trials_per_s"] = (mc_trials / mc_s if mc_s > 0 else 0.0, "1/s")
    selfs = self_times(in_cli)
    for command in COMMANDS:
        m[f"cli.{command}_s"] = (inclusive_s(in_cli, [f"cli.{command}"]), "s")
        m[f"cli.{command}_self_s"] = (selfs.get(f"cli.{command}", 0.0), "s")
    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = (sum((v for k, v in selfs.items()
                                           if k.split(".")[0] == layer), 0.0), "s")
    shares = [m[f"layer.{layer}_self_s"][0] / traced_s for layer in LAYERS]
    m["trace.dominant_share"] = (max(shares), "ratio")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.spans"] = (len(spans), "count")
    m["rewire.records_rewire"] = (records["rewire"], "count")
    m["rewire.records_refine"] = (records["refine"], "count")
    for name in ("graph.load_edge_list_peak_mb", "rewire.generate_peak_mb",
                 "theory.monte_carlo_gap_peak_mb", "synth.two_class_sbm_peak_mb"):
        m[name] = (peaks.get(name, 0.0), "MB")
    return m


def _within_cli(spans: list[dict]) -> list[dict]:
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    return [s for s in spans if root(s)["name"].startswith("cli.")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measured process of perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import homshift.cli

    workload = WORKLOADS[args.workload]
    sizes = inputs.TINY if args.tiny else inputs.FULL
    runner = Runner(workload, homshift.cli.main)
    result = {"workload": workload.name}
    if args.trace == 0:
        # Whole passes only, and another one only if it should end within --seconds.
        passes = []
        with Pace() as pace:
            start = time.perf_counter()
            while not passes or ((time.perf_counter() - start) * (1 + 1 / len(passes))
                                 <= args.seconds):
                passes.append(runner.run_pass(pace=pace))
        result["passes_s"] = [wall for wall, _ in passes]
        result["paced_passes_s"] = [paced for _, paced in passes]
        result["reference_samples_s"] = [kernel_s for _, _, kernel_s in pace.samples]
        result["pace_samples"] = pace.samples
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced, _ = runner.run_pass()
        tracer = Tracer()
        with tracer.install():
            traced, _ = runner.run_pass(tracer)
            if workload.name == "generate-sbm":
                s = sizes["generate-sbm"]
                homshift.synth.two_class_sbm(s.nodes, s.mean_degree, s.edge_homophily, 0)
        spans = tracer.as_json()
        with open("trace.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        trials = sizes["theory-sweep"].trials
        metrics = layer_metrics(spans, untraced, traced, trials,
                                edit_record_counts(runner.commands),
                                memory_probes(workload, sizes))
        result["passes_s"] = [untraced]
        result["traced_s"] = traced
        result["per_layer"] = metrics
        result["layer_share"] = {layer: metrics[f"layer.{layer}_self_s"][0] / traced
                                 for layer in LAYERS}

    hashes, failures = runner.check()
    result.update(attempted=len(runner.calls), failed=len(failures),
                  failures=failures, output_sha256=hashes, calls=runner.calls)
    if not failures:
        result["extra"] = workload.extra_metrics()
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
