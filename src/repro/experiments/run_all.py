"""Run every paper experiment and dump text + JSON results.

Usage::

    python -m repro.experiments.run_all --scale small --out results/ --jobs 4

Produces one text report per table/figure plus a combined ``results.json``
used to fill EXPERIMENTS.md.

Execution goes through :mod:`repro.runtime`: the Table III cell grid is
submitted as job specs to one :class:`~repro.runtime.Executor` (fanned out
over a process pool with ``--jobs N`` / ``GRAMER_JOBS``) and memoized in
the content-addressed artifact cache, so a re-run only recomputes changed
cells (``--no-cache`` forces fresh results); Fig. 11 reuses those cells.
The remaining modules fan out over the same worker budget, each computing
its grid once per run.  Output order and report contents are deterministic
regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent import futures as _futures
from pathlib import Path

from repro.obs.log import console
from repro.runtime.executor import Executor, resolve_jobs

from . import (
    ablations,
    dfs_vs_bfs,
    fig02_patterns,
    fig03_stalls,
    fig05_locality,
    fig08_heuristic,
    fig11_energy,
    fig12_lamh,
    fig13_pipeline,
    fig14_sensitivity,
    table2_resources,
    table3_runtime,
    table4_clock,
)

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = [
    "fig02", "fig03", "fig05", "fig08", "table2", "table3",
    "fig11", "fig12", "table4", "fig13", "fig14",
    "dfs_vs_bfs", "ablations",
]


#: The self-contained modules.  Each computes its grid once with
#: ``run(scale)`` (the data stored in ``results.json``) and renders that
#: data with ``render(data)`` (the text of ``<name>.txt``).  ``table3`` and
#: ``fig11`` share cells, so :func:`main` orchestrates them instead.
MODULES = {
    "fig02": fig02_patterns,
    "fig03": fig03_stalls,
    "fig05": fig05_locality,
    "fig08": fig08_heuristic,
    "table2": table2_resources,
    "fig12": fig12_lamh,
    "table4": table4_clock,
    "fig13": fig13_pipeline,
    "fig14": fig14_sensitivity,
    "dfs_vs_bfs": dfs_vs_bfs,
    "ablations": ablations,
}


def _compute_experiment(name: str, scale: str) -> tuple[str, object]:
    """One self-contained module -> (report text, data).

    Top-level so it can cross a process-pool boundary.
    """
    module = MODULES[name]
    data = module.run(scale)
    return module.render(data), data


def _compute_modules(
    names: list[str], scale: str, jobs: int
) -> dict[str, tuple[str, object]]:
    """Run independent experiment modules, optionally across a pool.

    A module that raises is captured as a failure report instead of
    aborting the run — the same isolation contract as cell jobs.
    """
    outputs: dict[str, tuple[str, object]] = {}
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            try:
                outputs[name] = _compute_experiment(name, scale)
            except Exception as exc:  # noqa: BLE001 - isolate failures
                outputs[name] = (
                    f"{name} FAILED: {type(exc).__name__}: {exc}",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        return outputs
    with _futures.ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        submitted = [
            (name, pool.submit(_compute_experiment, name, scale))
            for name in names
        ]
        for name, future in submitted:
            try:
                outputs[name] = future.result()
            except Exception as exc:  # noqa: BLE001
                outputs[name] = (
                    f"{name} FAILED: {type(exc).__name__}: {exc}",
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
    return outputs


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "full"])
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help=f"subset of experiments to run (choices: {EXPERIMENTS})",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="process-pool width for cell/module fan-out "
             "(default: $GRAMER_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell instead of reusing cached job results",
    )
    args = parser.parse_args(argv)
    selected = args.only if args.only else EXPERIMENTS
    jobs = resolve_jobs(args.jobs)
    executor = Executor(jobs=jobs, use_cache=not args.no_cache)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Merge into prior results so partial re-runs keep the other entries.
    payload: dict[str, object] = {}
    existing = out_dir / "results.json"
    if existing.exists():
        try:
            payload = json.loads(existing.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            payload = {}
    payload["scale"] = args.scale
    reports: dict[str, tuple[str, object]] = {}

    start = time.perf_counter()

    # Phase 1 — the shared-cell experiments: the Table III grid goes through
    # the job executor once; fig11 reuses those cells.
    table3_cells = None
    if "table3" in selected:
        table3_cells = table3_runtime.run(
            args.scale, verbose=True, executor=executor
        )
        rows = table3_runtime.speedup_rows(table3_cells)
        reports["table3"] = (table3_runtime.render(rows), rows)

    # Phase 2 — the self-contained modules fan out over the same worker
    # budget (a single selected module runs inline).
    independent = [
        name for name in selected if name not in ("table3", "fig11")
    ]
    reports.update(_compute_modules(independent, args.scale, jobs))

    # Phase 3 — fig11 (energy + total time), reusing table3's cells when
    # available, the artifact cache otherwise.
    if "fig11" in selected:
        data = fig11_energy.run(args.scale, cells=table3_cells)
        reports["fig11"] = (fig11_energy.render(data), data)

    # Emit in canonical order so reports read identically at any --jobs.
    for name in EXPERIMENTS:
        if name not in reports:
            continue
        text, data = reports[name]
        console(f"\n{'=' * 72}\n{text}")
        payload[name] = data
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    payload["wall_seconds"] = time.perf_counter() - start
    with open(out_dir / "results.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    console(
        f"\nCompleted {len(selected)} experiments in "
        f"{payload['wall_seconds']:.0f}s; results under {out_dir}/"
    )


if __name__ == "__main__":
    main()
