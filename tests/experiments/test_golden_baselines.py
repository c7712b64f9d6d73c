"""Golden fixtures for the Fractal and RStream CPU baselines.

Each fixture under ``golden/baselines/`` freezes the result payload of one
baseline backend on one cell of :data:`test_golden_stats.CELLS`: modeled
``seconds``, the Fig. 3 ``stalls`` fractions, ``embeddings`` by size and
the ``failed`` marker.  The CPU cache model is an exact replay of the
engine's access stream, so any change to it, to the mining order, or to
the cost constants shows up here as a byte-level diff.

Regenerate after an *intentional* semantics change with::

    GRAMER_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_golden_baselines.py -q

and commit the updated JSON together with the change that explains it.
"""

import json
import os
from pathlib import Path

import pytest

from repro.runtime import JobSpec
from repro.runtime.backends import get_backend

from .test_golden_stats import CELLS

GOLDEN_DIR = Path(__file__).parent / "golden" / "baselines"
BACKENDS = ("fractal", "rstream")


def compute_payload(backend: str, app_name: str, graph_name: str) -> str:
    """Run one baseline cell to its canonical golden text."""
    spec = JobSpec(backend=backend, app=app_name, dataset=graph_name, scale="tiny")
    result = get_backend(backend).run(spec)
    payload = {
        "backend": backend,
        "app": app_name,
        "graph": graph_name,
        "scale": "tiny",
        "seconds": result.seconds,
        "stalls": result.detail["stalls"],
        "embeddings": {str(k): v for k, v in result.detail["embeddings"].items()},
        "failed": result.detail["failed"],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_path(backend: str, app_name: str, graph_name: str) -> Path:
    return GOLDEN_DIR / f"{backend}_{app_name}_{graph_name}_tiny.json"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(("app_name", "graph_name"), CELLS)
def test_baseline_payload_matches_golden(backend, app_name, graph_name):
    path = golden_path(backend, app_name, graph_name)
    actual = compute_payload(backend, app_name, graph_name)
    if os.environ.get("GRAMER_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "GRAMER_REGEN_GOLDEN=1 (see module docstring)"
    )
    assert actual == path.read_text(), f"{backend} {app_name}/{graph_name}"


def test_no_stale_baseline_fixtures():
    """Every checked-in fixture corresponds to a (backend, cell) pair."""
    known = {golden_path(b, a, g).name for b in BACKENDS for a, g in CELLS}
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk <= known, f"stale fixtures: {sorted(on_disk - known)}"
