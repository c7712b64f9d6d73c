"""Bit-determinism regression: the Table III tiny grid, twice, byte-identical.

This is the contract `gramer check`'s determinism rules (GRM1xx) enforce
statically, asserted dynamically: every modeled result is a pure function
of its JobSpec, so two cold back-to-back runs must serialize to the exact
same bytes — not approximately equal, *identical*.  The reports
``gramer experiment`` writes must likewise be exactly what each module
produces when run on its own.
"""

import json
from dataclasses import asdict

from repro.experiments import (
    fig02_patterns,
    run_all,
    table2_resources,
    table3_runtime,
    table4_clock,
)
from repro.runtime.cache import ArtifactCache
from repro.runtime.executor import Executor

APPS = ["3-CF", "4-MC"]
GRAPHS = ["citeseer", "p2p"]


def _cold_run_bytes(tmp_path, tag: str) -> bytes:
    """One uncached Table III tiny-grid run, serialized canonically."""
    executor = Executor(
        jobs=1,
        use_cache=False,
        cache=ArtifactCache(root=tmp_path / tag, use_disk=False),
    )
    cells = table3_runtime.run(
        "tiny", apps=APPS, graphs=GRAPHS, executor=executor
    )
    payload = []
    for cell in cells:
        record = asdict(cell)
        # Host wall time is the one sanctioned nondeterministic field
        # (JobResult.fingerprint excludes it for the same reason).
        record.pop("wall_seconds")
        payload.append(record)
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


class TestTableIIIByteDeterminism:
    def test_back_to_back_runs_are_byte_identical(self, tmp_path):
        first = _cold_run_bytes(tmp_path, "first")
        second = _cold_run_bytes(tmp_path, "second")
        assert first == second

    def test_rendered_table_is_byte_identical(self, tmp_path):
        tables = [
            table3_runtime.main(
                "tiny",
                apps=["3-CF"],
                graphs=["citeseer"],
                verbose=False,
                executor=Executor(
                    jobs=1,
                    use_cache=False,
                    cache=ArtifactCache(
                        root=tmp_path / f"render{i}", use_disk=False
                    ),
                ),
            ).encode("utf-8")
            for i in range(2)
        ]
        assert tables[0] == tables[1]


class TestExperimentOutputIdentity:
    """``gramer experiment`` writes what the modules produce on their own."""

    CHEAP = {
        "table2": table2_resources,
        "table4": table4_clock,
        "fig02": fig02_patterns,
    }

    def test_run_all_matches_modules(self, tmp_path):
        run_all.main(["--scale", "tiny", "--only", *self.CHEAP, "--jobs", "1",
                      "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
        for name, module in self.CHEAP.items():
            text = (tmp_path / f"{name}.txt").read_text(encoding="utf-8")
            assert text == module.main("tiny") + "\n", name
            data = json.loads(json.dumps(module.run("tiny"), default=str))
            assert payload[name] == data, name
