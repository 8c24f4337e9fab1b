"""What a serving process imports, and what any entry point reaches.

``networkx`` (and scipy-sized transitive imports behind it) is only needed
by the offline serializability checkers and ``RuntimeTraces``' graph
methods, which import it where they build a graph.  Importing the service
must not pay for it: ~14 MiB of resident memory and ~70 ms of start-up.

The serving path also reports only what it measured: the paper-scale cost
model and prover scheduler belong to the figure harness
(``repro.bench.model``), never to the server, session, client, recovery,
sharding or network layers.

Every module under ``src/repro`` is reached from an entry point: the CLI
(``python -m repro``), a benchmark or an example.  A module that only its
own tests import does nothing the system uses; it is deleted, or listed in
``TEST_ONLY`` with the reason tier-1 keeps it.
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import os
import subprocess
import sys

from repro.core.protocol import TimingReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SERVING_MODULES = sorted(
    [
        os.path.join(SRC, "repro", "core", f"{name}.py")
        for name in ("server", "session", "client", "recovery", "sharding")
    ]
    + glob.glob(os.path.join(SRC, "repro", "net", "*.py"))
)
MODELED_MODULES = {"repro.sim.costmodel", "repro.sim.scheduler"}
ENTRY_POINTS = sorted(
    [os.path.join(SRC, "repro", "__main__.py")]
    + glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))
    + glob.glob(os.path.join(ROOT, "benchmarks", "e2e", "*.py"))
    + glob.glob(os.path.join(ROOT, "examples", "*.py"))
)
# Dotted name -> file of every module under src/repro (a package by its name).
MODULES = {
    os.path.relpath(path, SRC)[: -len(".py")]
    .replace(os.sep, ".")
    .removesuffix(".__init__"): path
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)
}
TEST_ONLY = {
    "repro.verify.polygraph": "the reference checker that "
    "tests/integration/test_cross_checkers.py compares Elle against, until "
    "ROADMAP item 4.2 replaces it",
}


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


def _imports(path: str) -> list[tuple[str, str | None, str | None]]:
    """``(module, name, bound name)`` for every import in *path*.

    ``name`` is None for ``import module``; relative imports are made
    absolute against the package *path* sits in.
    """
    package = os.path.relpath(os.path.dirname(path), SRC).replace(os.sep, ".")
    found: list[tuple[str, str | None, str | None]] = []
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            prefix = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(prefix + ([node.module] if node.module else []))
            found.extend(
                (module, alias.name, alias.asname or alias.name) for alias in node.names
            )
    return found


def _imported_modules(path: str) -> set[str]:
    """Absolute names of every module (and ``from`` target) *path* imports."""
    names: set[str] = set()
    for module, name, _bound in _imports(path):
        names.add(module)
        if name is not None:
            names.add(f"{module}.{name}")
    return names


def _defining_module(module: str, name: str) -> str:
    """The module that *name*, imported from *module*, comes from.

    A package re-export is followed to the module that defines the name, so
    ``from repro import LitmusSession`` reaches ``repro.core.session`` and
    not every module ``repro/__init__.py`` happens to import.
    """
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    path = MODULES.get(module, "")
    if path.endswith("__init__.py"):
        for source, imported, bound in _imports(path):
            if bound == name:
                return _defining_module(source, imported)
    return module


def _reachable() -> set[str]:
    """Every ``repro`` module an entry point reaches, transitively."""
    reached: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        for module, name, _bound in _imports(todo.pop()):
            target = module if name is None else _defining_module(module, name)
            if target in MODULES and target not in reached:
                reached.add(target)
                # A package's __init__ only re-exports; its names are
                # followed one by one in _defining_module.
                if not MODULES[target].endswith("__init__.py"):
                    todo.append(MODULES[target])
    return reached


def test_serving_path_imports_no_cost_model():
    assert len(SERVING_MODULES) > 5
    for path in SERVING_MODULES:
        modeled = _imported_modules(path) & MODELED_MODULES
        assert not modeled, f"{os.path.relpath(path, SRC)} imports {sorted(modeled)}"


def test_timing_report_is_measured_only():
    counts = {"num_txns", "total_constraints", "num_pieces"}
    for field in dataclasses.fields(TimingReport):
        assert field.name in counts or field.name.startswith("measured_"), field.name


def test_every_module_is_reached_from_an_entry_point():
    modules = {
        name for name, path in MODULES.items() if not path.endswith("__init__.py")
    } - {"repro.__main__"}
    assert set(TEST_ONLY) <= modules, sorted(set(TEST_ONLY) - modules)
    reached = _reachable()
    unreached = sorted(modules - reached - set(TEST_ONLY))
    assert not unreached, f"reached from no CLI, benchmark or example: {unreached}"
    now_reached = sorted(reached & set(TEST_ONLY))
    assert not now_reached, f"TEST_ONLY yet reached; drop the entry: {now_reached}"
