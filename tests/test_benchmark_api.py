"""The homshift names the benchmark under perfbench/ relies on still exist.

The tier-1 suite does not run perfbench's own tests, so a library change
that drops a traced or called name would otherwise break only the benchmark
run. These tests read perfbench's sources and never change them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _homshift_names(path: Path) -> set[str]:
    """Dotted names the file reads off `homshift`: `homshift.cli.main` gives
    'cli' and 'cli.main'."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "homshift":
            names.add(".".join(reversed(parts)))
    return names


def _exists_on_homshift(dotted: str) -> bool:
    obj = importlib.import_module("homshift")
    prefix = "homshift"
    for part in dotted.split("."):
        prefix += "." + part
        try:  # a submodule the package itself does not import is imported here
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(prefix)
        except ImportError:
            return False
    return True


def test_every_traced_target_is_defined_where_the_tracer_looks():
    # Tracer.install reads owner.__dict__[attr], so an inherited or missing
    # attribute fails every traced run
    tracing = _load_tracing()
    missing = []
    for name, (module, path) in tracing.TARGETS.items():
        owner, attr = tracing._resolve(module, path)
        if attr not in owner.__dict__:
            missing.append(name)
    assert missing == []


def test_names_the_benchmark_calls_exist_on_homshift():
    called = {f.name: _homshift_names(f) for f in sorted(PERFBENCH.glob("*.py"))}
    assert called["workloads.py"] and called["probe.py"]
    missing = sorted(f"{file}: homshift.{name}" for file, names in called.items()
                     for name in names if not _exists_on_homshift(name))
    assert missing == []
