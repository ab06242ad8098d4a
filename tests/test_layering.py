"""The package import graph is acyclic and the kernels load no simulator.

``repro.core`` (packing kernels) and ``repro.megafleet`` (pure-numpy engine)
fan out through the leaf module ``repro.workers``; neither may pull in the
simulator stack, ``asyncio`` or a second third-party dependency to do so.
Every wire end in ``src``, the sweep coordinator included, is a blocking
socket or pipe, so even the whole CLI imports without ``asyncio``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def package_of(module: str) -> str | None:
    """``repro.core.aco`` -> ``repro.core``; ``None`` for anything outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return ".".join(parts[:2])


def package_graph() -> dict[str, set[str]]:
    """Edges between ``repro.<name>`` units from every import, function-local ones included."""
    graph: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        source = package_of(module)
        targets = graph.setdefault(source, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path}: relative import"
                # ``from repro import workers`` names the unit in the alias.
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            targets.update(filter(None, map(package_of, imported)))
        targets.discard(source)
        targets.discard("repro")
    return graph


def test_package_import_graph_is_acyclic():
    graph = package_graph()
    assert "repro.workers" in graph and graph["repro.workers"] == set()
    assert "repro.plain" in graph and graph["repro.plain"] == set()
    order: list[str] = []
    while graph:
        leaves = sorted(unit for unit, targets in graph.items() if not targets & graph.keys())
        assert leaves, f"import cycle among {sorted(graph)}: {graph}"
        order.extend(leaves)
        for unit in leaves:
            del graph[unit]
    assert order.index("repro.workers") < order.index("repro.core") < order.index("repro.sweeps")


@pytest.mark.parametrize(
    "module,forbidden",
    [
        ("repro.core", "repro.sweeps repro.scenarios repro.hierarchy asyncio networkx"),
        ("repro.megafleet", "repro.sweeps repro.scenarios repro.hierarchy asyncio networkx"),
        ("repro.scenarios", "networkx"),
        ("repro.cli.main", "asyncio"),
    ],
)
def test_fresh_import_stays_below_its_layer(module, forbidden):
    code = (
        f"import sys, {module}\n"
        f"roots = {forbidden.split()!r}\n"
        "print(sorted(m for m in sys.modules for r in roots if m == r or m.startswith(r + '.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
