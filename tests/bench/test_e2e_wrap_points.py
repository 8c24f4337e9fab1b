"""The e2e benchmark's contract with ``src/``: every wrap point resolves.

``benchmarks/e2e/trace.py`` times the program from outside by replacing
the public entry points in ``WRAP_POINTS`` — it looks each one up with
``owner.__dict__[attr]``, so an entry point that a refactor moves to a base
class, turns into a re-export, or changes from ``classmethod`` to a plain
function is a ``KeyError`` (or a silently unwrapped call) in the traced
run, which tier-1 would otherwise never see.  The file is imported
read-only; nothing is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACE_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "trace.py"
)
_spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PATH)
trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace)


def _owner(module_name: str, class_name: str | None):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@pytest.mark.parametrize(
    "name, module_name, class_name, attr",
    trace.WRAP_POINTS,
    ids=[point[0] for point in trace.WRAP_POINTS],
)
def test_wrap_point_resolves_in_its_owners_namespace(
    name, module_name, class_name, attr
):
    owner = _owner(module_name, class_name)
    assert attr in owner.__dict__, (
        f"{name}: {module_name}.{class_name or ''}.{attr} is not defined on "
        "its owner itself; benchmarks/e2e/trace.py install() would KeyError"
    )
    target = owner.__dict__[attr]
    assert callable(getattr(target, "__func__", target))


@pytest.mark.parametrize("name", ["core.session.recover", "core.sharding.recover"])
def test_recover_entry_points_stay_classmethods(name):
    (point,) = [p for p in trace.WRAP_POINTS if p[0] == name]
    _name, module_name, class_name, attr = point
    assert isinstance(_owner(module_name, class_name).__dict__[attr], classmethod)

