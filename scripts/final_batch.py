"""Refresh the remaining experiment outputs at a wall-clock-aware size.

Regenerates fig11 (recalibrated energy), fig12, the §V-A projection, and
the ablations, writing the same per-experiment text files as run_all and
merging into results/results.json.  The dfs_vs_bfs and ablation sweeps run
on representative graph subsets to bound runtime; the full sweeps remain
available via run_all.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.experiments import ablations, dfs_vs_bfs, fig11_energy, fig12_lamh

OUT = Path(sys.argv[1] if len(sys.argv) > 1 else "results")


def record(name: str, text: str, data) -> None:
    print(f"\n{'=' * 70}\n{text}", flush=True)
    (OUT / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    payload_path = OUT / "results.json"
    payload = {}
    if payload_path.exists():
        payload = json.loads(payload_path.read_text(encoding="utf-8"))
    payload[name] = data
    payload_path.write_text(
        json.dumps(payload, indent=2, default=str), encoding="utf-8"
    )


def main() -> None:
    start = time.perf_counter()

    for name, module in (("fig11", fig11_energy), ("fig12", fig12_lamh)):
        data = module.run("small")
        record(name, module.render(data), data)

    rows = dfs_vs_bfs.run(
        "small", graphs=["citeseer", "p2p", "astro", "mico"]
    )
    from repro.experiments.harness import format_table

    text = (
        "§V-A quantified — DFS vs (optimistic) BFS execution mode (4-MC)\n"
        + format_table(
            ["Graph", "DFS cycles", "BFS cycles", "BFS slowdown",
             "Intermediates", "Peak level"],
            [
                [r["graph"], str(r["dfs_cycles"]), str(r["bfs_cycles"]),
                 f"{r['slowdown']:.2f}x",
                 f"{r['intermediate_mb']:.1f}MB",
                 f"{r['peak_level_mb']:.2f}MB"]
                for r in rows
            ],
        )
    )
    record("dfs_vs_bfs", text, rows)

    ablation_data = {
        "steal_selector": ablations.run_steal_selector(
            "small", graphs=["p2p", "mico"]
        ),
        "rank_source": ablations.run_rank_source(
            "small", graphs=["p2p", "mico"]
        ),
        "arbitrator": ablations.run_arbitrator_policy(
            "small", graphs=["p2p", "mico"]
        ),
        "partitions": ablations.run_partition_sweep("small"),
    }
    steal = ablation_data["steal_selector"]
    rank = ablation_data["rank_source"]
    arb = ablation_data["arbitrator"]
    parts = ablation_data["partitions"]
    text = "Ablations (small scale, representative graphs)\n\n"
    text += format_table(
        ["Graph", "Buffer vs LFSR speedup", "ON1 vs identity speedup",
         "Degree-balanced vs RR"],
        [
            [
                steal[i]["graph"],
                f"{steal[i]['buffer_speedup']:.2f}x",
                f"{rank[i]['on1_speedup']:.2f}x",
                f"{arb[i]['balanced_speedup']:.2f}x",
            ]
            for i in range(len(steal))
        ],
    )
    text += "\n\nPartition sweep (mico, 5-CF)\n"
    text += format_table(
        ["Partitions", "Cycles", "Speedup vs 1"],
        [
            [str(r["partitions"]), str(r["cycles"]),
             f"{r['speedup_vs_1']:.2f}x"]
            for r in parts
        ],
    )
    record("ablations", text, ablation_data)

    print(f"\nfinal batch done in {time.perf_counter() - start:.0f}s")


if __name__ == "__main__":
    main()
