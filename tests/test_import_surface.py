"""What a serving process imports.

``networkx`` (and scipy-sized transitive imports behind it) is only needed
by the offline serializability checkers and ``RuntimeTraces``' graph
methods, which import it where they build a graph.  Importing the service
must not pay for it: ~14 MiB of resident memory and ~70 ms of start-up.

The serving path also reports only what it measured: the paper-scale cost
model and prover scheduler belong to the figure harness
(``repro.bench.model``), never to the server, session, client, recovery,
sharding or network layers.
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import os
import subprocess
import sys

from repro.core.protocol import TimingReport

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SERVING_MODULES = sorted(
    [
        os.path.join(SRC, "repro", "core", f"{name}.py")
        for name in ("server", "session", "client", "recovery", "sharding")
    ]
    + glob.glob(os.path.join(SRC, "repro", "net", "*.py"))
)
MODELED_MODULES = {"repro.sim.costmodel", "repro.sim.scheduler"}


def test_serving_process_does_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.net.service, sys; assert 'networkx' not in sys.modules",
        ],
        check=True,
        env=env,
        timeout=60,
    )


def _imported_modules(path: str) -> set[str]:
    """Absolute names of every module (and ``from`` target) *path* imports."""
    package = os.path.relpath(os.path.dirname(path), SRC).replace(os.sep, ".")
    names: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            prefix = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(prefix + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_serving_path_imports_no_cost_model():
    assert len(SERVING_MODULES) > 5
    for path in SERVING_MODULES:
        modeled = _imported_modules(path) & MODELED_MODULES
        assert not modeled, f"{os.path.relpath(path, SRC)} imports {sorted(modeled)}"


def test_timing_report_is_measured_only():
    counts = {"num_txns", "total_constraints", "num_pieces"}
    for field in dataclasses.fields(TimingReport):
        assert field.name in counts or field.name.startswith("measured_"), field.name
