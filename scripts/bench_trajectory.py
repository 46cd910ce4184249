"""Write a benchmark trajectory file from one commit's perfbench runs.

    python3 perfbench/run.py --workload generate-sbm --seed 1 --seconds 20 --trace 0
    (likewise read-large and theory-sweep)
    python3 scripts/bench_trajectory.py [--compare BENCH_<prev>.json]

Reads the `record.json` that `perfbench/run.py` leaves in
`.perfbench_work/<workload>/` and writes `BENCH_<short-sha>.json` at the root
of the checkout. Each workload's entry holds the run's provenance, its
end-to-end `metrics` (from an untraced run) or `per_layer` metrics (from a
traced one), its `named` values and, for an untraced run, the median and
quartiles of its paced passes. Every value keeps its unit. All records must
come from one commit, and none from a `--tiny` run: `pytest perfbench/tests`
leaves such records in `.perfbench_work/`, so rerun the three workloads after
it. A record without the `tiny` key counts as full size.

`--compare` prints, for each metric both files hold, the ratio new/previous
next to the bound and direction `BENCHMARK.json` gives it. It is a report:
it changes no bound and its exit status does not depend on the ratios.
"""

import argparse
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _values(pairs: dict) -> dict:
    """perfbench's {name: [value, unit]} as {name: {"value", "unit"}}, sorted by name."""
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(pairs.items())}


def workload_entry(record: dict) -> dict:
    """One workload's trajectory entry from its perfbench `record.json`."""
    result = record["result"]
    entry = {"provenance": record["provenance"], "correct": result["failed"] == 0,
             "named": _values(record["named"])}
    if record["provenance"]["trace"]:
        entry["per_layer"] = _values(record["metrics"])
    else:
        entry["metrics"] = _values(record["metrics"])
        passes = result["paced_passes_s"]
        q1, median, q3 = np.percentile(passes, [25, 50, 75]).tolist()
        entry["paced_passes_s"] = {"count": len(passes), "median": median, "q1": q1, "q3": q3}
    return entry


def trajectory(work: Path) -> dict:
    """The trajectory of the records under `work`, one entry per workload directory."""
    records = {path.parent.name: json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(work.glob("*/record.json"))}
    if not records:
        raise SystemExit(f"bench_trajectory: no */record.json under {work}")
    tiny = [name for name, r in records.items() if r["provenance"].get("tiny")]
    if tiny:
        raise SystemExit("bench_trajectory: records of --tiny runs, not of the benchmark: "
                         + ", ".join(tiny) + "; rerun these workloads without --tiny")
    commits = {(r["provenance"]["git_sha"], r["provenance"]["src_sha256"])
               for r in records.values()}
    if len(commits) != 1:
        raise SystemExit("bench_trajectory: the records come from different sources: "
                         + ", ".join(sorted(f"{sha} (src {src[:12]})" for sha, src in commits)))
    (sha, src), = commits
    return {"git_sha": sha, "src_sha256": src,
            "workloads": {name: workload_entry(r) for name, r in records.items()}}


def compare(previous: dict, current: dict, benchmark: dict) -> list[str]:
    """Report lines: per workload and metric, previous, current, their ratio and the bound."""
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    lines = [f"{previous['git_sha'] or '?'} -> {current['git_sha'] or '?'} "
             "(ratio = current / previous; a report, not a gate)",
             f"{'workload':<14} {'metric':<32} {'previous':>12} {'current':>12} "
             f"{'ratio':>7} {'bound':>6}  better"]
    for name, entry in current["workloads"].items():
        before = previous["workloads"].get(name)
        if before is None:
            lines.append(f"{name:<14} (not in the previous file)")
            continue
        for group in ("metrics", "per_layer"):
            for metric, now in entry.get(group, {}).items():
                was = before.get(group, {}).get(metric)
                if was is None:
                    continue
                spec = specs.get(metric, {})
                ratio = f"{now['value'] / was['value']:7.3f}" if was["value"] else f"{'-':>7}"
                bound = f"{spec['bound']:6.2f}" if "bound" in spec else f"{'-':>6}"
                lines.append(f"{name:<14} {metric:<32} {was['value']:12.6g} "
                             f"{now['value']:12.6g} {ratio} {bound}  {spec.get('better', '-')}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, default=ROOT / ".perfbench_work",
                        help="directory holding <workload>/record.json")
    parser.add_argument("--out", type=Path,
                        help="file to write (default: BENCH_<short-sha>.json at the root)")
    parser.add_argument("--compare", type=Path, metavar="BENCH_PREV.json",
                        help="print per-metric ratios against an earlier trajectory file")
    args = parser.parse_args(argv)

    current = trajectory(args.work)
    out = args.out
    if out is None:
        if not current["git_sha"]:
            raise SystemExit("bench_trajectory: the records have no git sha; name the file "
                             "with --out")
        out = ROOT / f"BENCH_{current['git_sha'][:7]}.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(current, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if args.compare is not None:
        previous = json.loads(args.compare.read_text(encoding="utf-8"))
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        print("\n".join(compare(previous, current, benchmark)))


if __name__ == "__main__":
    main()
