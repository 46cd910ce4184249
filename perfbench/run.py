"""homshift benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload generate-sbm --seed 1 --seconds 20 --trace 0

Run from anywhere; it works in `.perfbench_work/<workload>/` at the root of
the checkout and reads homshift from its `src/`. Set-up writes the
workload's inputs from --seed with plain numpy (three times, which must give
byte-identical files) and times `import homshift` in three fresh processes;
`setup_s` is the median of write + import, in paced seconds (see
perfbench/pace.py). A separate process then runs the workload
(perfbench/worker.py) with every BLAS/OpenMP pool pinned to one thread, so
its peak RSS excludes set-up.

It prints each metric as `name value unit`, a `provenance` line, and last a
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. It exits 1
when any output check failed, and 2 without a result when the run could
not be made (no homshift sources, a crashed or timed-out worker).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402
from perfbench.pace import Pace  # noqa: E402
from perfbench.workloads import WORKLOADS, sha256_tree  # noqa: E402

SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    """The run could not be made; no result is printed."""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], cwd: Path, env: dict, timeout: float) -> str:
    try:
        done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[0]} timed out after {timeout} s") from exc
    if done.returncode != 0:
        raise RunError(f"{args[0]} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout


def set_up(workload: str, seed: int, run_dir: Path, tiny: bool, env: dict):
    """Write the inputs SETUP_REPEATS times and time imports.

    Returns each repeat's paced seconds (write + import) and the input hashes.
    """
    samples, hashes = [], None
    for rep in range(SETUP_REPEATS):
        target = run_dir / ("inputs" if rep == 0 else f"inputs.rep{rep}")
        shutil.rmtree(target, ignore_errors=True)
        with Pace() as pace:
            start = time.perf_counter()
            inputs.write_inputs(workload, target, seed, tiny=tiny)
            _, write_s = pace.paced(start, time.perf_counter())
        out = run_child([str(ROOT / "perfbench" / "probe.py"), "import"], run_dir, env, 120)
        samples.append(write_s + json.loads(out.strip().splitlines()[-1])["paced_s"])
        rep_hashes = sha256_tree(target)
        if hashes is None:
            hashes = rep_hashes
        else:
            shutil.rmtree(target)
            if rep_hashes != hashes:
                raise RunError("the same seed wrote different input files")
    return samples, hashes


def provenance(args, env: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: env[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="homshift benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test sizes: every code path in seconds, not for measuring")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "homshift" / "cli.py").is_file():
        print(f"perfbench: no homshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = pinned_env()
    try:
        setup_samples, input_hashes = set_up(args.workload, args.seed, run_dir, args.tiny, env)
        worker = [str(ROOT / "perfbench" / "worker.py"), "--workload", args.workload,
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        run_child(worker + (["--tiny"] if args.tiny else []), run_dir, env, WORKER_TIMEOUT_S)
        with open(run_dir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    paced_s = statistics.median(result.get("paced_passes_s", result["passes_s"]))
    named = {workload.pipeline_metric: (paced_s, "s"),
             "pipeline_wall_s": (statistics.median(result["passes_s"]), "s")}
    named.update({k: tuple(v) for k, v in result.get("extra", {}).items()})
    named["error_rate"] = (result["failed"] / result["attempted"], "ratio")
    if args.trace == 0:
        reference = result.get("reference_samples_s")
        if reference:
            named["reference_kernel_ms"] = (1e3 * statistics.median(reference), "ms")
            named["reference_samples"] = (len(reference), "count")
        metrics = {"pipeline_paced_s": (paced_s, "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                   "setup_s": (statistics.median(setup_samples), "s")}
    else:
        metrics = {k: tuple(v) for k, v in result["per_layer"].items()}
        named.update({f"share.{k}": (v, "ratio") for k, v in result["layer_share"].items()})

    record = {"provenance": provenance(args, env), "input_sha256": input_hashes,
              "setup_samples_s": setup_samples, "named": named, "metrics": metrics,
              "result": result}
    with open(run_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} {value!r} {unit}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
