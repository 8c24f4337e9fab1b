"""The paper's modeled figures, pinned exactly.

``BENCH_figures.json`` at the repo root lists one entry per modeled trial:
the ``benchmarks/bench_*.py`` file that owns it, the name of the plain
function in that file that derives its metrics, the keyword arguments it
is called with, and the metrics it must return.  The numbers come from the
calibrated cost model (:mod:`repro.sim.costmodel`) over seeded scaled
executions, so they do not depend on the machine, and they are compared at
``rel=1e-9``: any change to the model or to a counted execution shows here.
An intended change is accepted by editing the expected values in that file,
in the same change, and saying why.

The file also imports every bench file by path, so a ``src/`` rename that
breaks one fails here and not only when someone next runs the benchmarks.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "benchmarks"
PINNED = json.loads((REPO / "BENCH_figures.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(path.name for path in BENCH_DIR.glob("bench_*.py"))


@functools.cache
def _load_bench(file_name: str):
    spec = importlib.util.spec_from_file_location(
        "paper_figures_" + pathlib.Path(file_name).stem, BENCH_DIR / file_name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_file_covers_the_modeled_trials():
    assert PINNED["kind"] == "modeled"
    names = [trial["trial"] for trial in PINNED["trials"]]
    assert len(names) == len(set(names)) == 10
    assert sum(len(trial["expected"]) for trial in PINNED["trials"]) == 27


@pytest.mark.parametrize(
    "trial", PINNED["trials"], ids=[trial["trial"] for trial in PINNED["trials"]]
)
def test_modeled_metrics_match_the_pins(trial):
    derive = getattr(_load_bench(trial["bench_file"]), trial["function"])
    metrics = derive(**trial["config"])
    assert metrics == pytest.approx(trial["expected"], rel=1e-9), (
        f"{trial['trial']} recomputed "
        + json.dumps(metrics, indent=2, sort_keys=True)
    )


@pytest.mark.parametrize("file_name", BENCH_FILES)
def test_bench_file_imports(file_name):
    _load_bench(file_name)
