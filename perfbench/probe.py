"""One measurement in a fresh process, printed as a JSON line.

    python3 perfbench/probe.py import
        seconds to `import homshift` (numpy and scipy included), and the
        same in paced seconds: rescaled by the perfbench/pace.py kernel's
        level (`pace.reference_level`) right before and after the import.
        Kernel samples taken during an import tracked the import's own
        churn more than the host's speed, so none are taken there.
    python3 perfbench/probe.py peak <function> <args...>
        seconds for one call and the growth of the process's peak RSS
        (ru_maxrss) during it, in MB. Functions: load_edge_list <edges>,
        generate <edges> <nodes> <alpha> <beta> <bins> <seed>,
        monte_carlo_gap <theory_args.json>, two_class_sbm <n> <degree> <h> <seed>.

Peak RSS growth stands in for tracemalloc, which slows the generator's
per-edge Python loops more than tenfold. The call runs in a child forked
after the inputs are loaded: Linux carries a process's peak RSS across
exec, so the probe itself starts with its launcher's peak, while a forked
child starts counting afresh.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(function: str, args: list[str]):
    """Load the call's inputs, then return a thunk that makes the measured call."""
    import homshift

    if function == "load_edge_list":
        return lambda: homshift.load_edge_list(args[0])
    if function == "generate":
        g = homshift.load_edge_list(args[0])
        t = homshift.load_node_table(args[1])
        goal = homshift.BetaGoal(float(args[2]), float(args[3]))
        return lambda: homshift.generate(g, t, goal, int(args[4]), int(args[5]))
    if function == "monte_carlo_gap":
        with open(args[0], encoding="utf-8") as fh:
            a = json.load(fh)
        params = homshift.TheoryParams(n=a["n"], k=a["k"], d=a["d"], h=a["h"],
                                       alpha_shift=0.0, mu_l=a["mu_l"], mu_s=a["mu_s"],
                                       sigma=a["sigma"], lambda_reg=a["lam"])
        return lambda: homshift.monte_carlo_gap(params, a["trials"], a["seed"])
    if function == "two_class_sbm":
        return lambda: homshift.two_class_sbm(int(args[0]), float(args[1]), float(args[2]),
                                              int(args[3]))
    raise SystemExit(f"probe: unknown function {function!r}")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["import"]:
        sys.path.insert(0, str(ROOT))
        from perfbench import pace

        before = pace.reference_level()
        start = time.perf_counter()
        import homshift  # noqa: F401
        seconds = time.perf_counter() - start
        level = (before + pace.reference_level()) / 2
        paced = seconds * pace.REFERENCE_S / level
        print(json.dumps({"seconds": seconds, "paced_s": paced}))
        return 0
    if len(argv) >= 2 and argv[0] == "peak":
        call = _call(argv[1], argv[2:])
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                before = _maxrss_mb()
                start = time.perf_counter()
                call()
                seconds = time.perf_counter() - start
                os.write(write_fd, json.dumps({"seconds": seconds,
                                               "peak_mb": _maxrss_mb() - before}).encode())
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not payload:
            print(f"probe: the measured call failed (wait status {status})", file=sys.stderr)
            return 1
        print(payload.decode())
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
