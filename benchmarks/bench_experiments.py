"""Time every ``gramer experiment`` module cold, one at a time, through run_all.

Each experiment runs in its own subprocess as::

    python -m repro.experiments.run_all --scale tiny --only NAME \\
        --jobs 1 --no-cache --out TMP

against a fresh, empty ``GRAMER_CACHE_DIR``, so every wall time is a cold
start (graph builds and ON1 ranks included) and no experiment inherits
another's in-process state.  The experiment's ``NAME.txt`` and its
``results.json`` entry are digested while they are timed.

Two checkouts are compared in two steps::

    # 1. the other checkout (e.g. the parent commit), recorded to a file
    PYTHONPATH=src python benchmarks/bench_experiments.py \\
        --src /path/to/parent/src --record before.json
    # 2. this checkout, asserted byte-identical to it, written to
    #    benchmarks/BENCH_experiments.json
    PYTHONPATH=src python benchmarks/bench_experiments.py --before before.json

Both steps take ``--repeat N`` (best of N cold runs per experiment): on a
shared 2-vCPU VM, single cold runs of the unchanged Table III and Fig. 11
experiments varied by up to 60%.

Step 2 refuses to write a record when any experiment's text or data digest
differs from step 1.  fig08's panel (b) is the host wall-clock cost of the
ON_k computation, so its digest covers panel (a) and the accuracy data only.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT_PATH = Path(__file__).parent / "BENCH_experiments.json"
EXPERIMENTS = (
    "fig02", "fig03", "fig05", "fig08", "table2", "table3",
    "fig11", "fig12", "table4", "fig13", "fig14",
    "dfs_vs_bfs", "ablations",
)
#: Host-timing fields: the one sanctioned nondeterminism in the reports.
_FIG08_TIMED = ("mining_seconds", "overheads")


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _stable(name: str, text: str, data) -> tuple[str, object]:
    if name == "fig08":
        text = text.split("\n\nFig. 8 (b)")[0]
        data = {k: v for k, v in data.items() if k not in _FIG08_TIMED}
    return text, data


def run_experiment(name: str, src: Path) -> dict:
    """One cold ``run_all --only NAME`` in a subprocess: wall time + digests."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        env = {**os.environ, "PYTHONPATH": str(src),
               "GRAMER_CACHE_DIR": str(Path(tmp) / "cache")}
        cmd = [sys.executable, "-m", "repro.experiments.run_all", "--scale", "tiny",
               "--only", name, "--jobs", "1", "--no-cache", "--out", str(out)]
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        text = (out / f"{name}.txt").read_text(encoding="utf-8")
        data = json.loads((out / "results.json").read_text(encoding="utf-8"))[name]
    text, data = _stable(name, text, data)
    return {"wall_s": round(wall, 2), "text_digest": _digest(text),
            "data_digest": _digest(json.dumps(data))}


def measure(src: Path, names, repeat: int) -> dict[str, dict]:
    """Best-of-``repeat`` wall time per experiment; every repeat's digests must agree."""
    timings = {}
    for name in names:
        runs = [run_experiment(name, src) for _ in range(repeat)]
        if len({(r["text_digest"], r["data_digest"]) for r in runs}) != 1:
            raise SystemExit(f"{name}: output differs between repeats")
        timings[name] = min(runs, key=lambda r: r["wall_s"])
        print(f"{name:11s} {timings[name]['wall_s']:8.2f}s  "
              f"text {timings[name]['text_digest']}  data {timings[name]['data_digest']}",
              flush=True)
    return timings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the src/ directory of the checkout to time")
    parser.add_argument("--repeat", type=int, default=1,
                        help="cold runs per experiment; the fastest is recorded")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", type=Path, help="write this run's timings here")
    group.add_argument("--before", type=Path,
                       help="a --record file to compare against; writes "
                            f"{OUT_PATH.name}")
    args = parser.parse_args()

    timings = measure(args.src.resolve(), EXPERIMENTS, args.repeat)
    if args.record:
        args.record.write_text(json.dumps(timings, indent=2) + "\n")
        print(f"wrote {args.record}")
        return

    before = json.loads(args.before.read_text())
    changed = [
        name for name in timings
        if (before[name]["text_digest"], before[name]["data_digest"])
        != (timings[name]["text_digest"], timings[name]["data_digest"])
    ]
    if changed:
        raise SystemExit(f"output differs from the --before run for {changed}: "
                         "refusing to record timings of different results")
    rows = {
        name: {"before_s": before[name]["wall_s"], "after_s": run["wall_s"],
               "speedup": round(before[name]["wall_s"] / run["wall_s"], 2),
               "text_digest": run["text_digest"], "data_digest": run["data_digest"]}
        for name, run in timings.items()
    }
    previous = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    total_before = sum(row["before_s"] for row in rows.values())
    total_after = sum(row["after_s"] for row in rows.values())
    record = {
        "benchmark": "gramer experiment modules, cold, one subprocess each "
                     "(run_all --scale tiny --only NAME --jobs 1 --no-cache)",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "repeat": args.repeat,
        "results_identical": True,
        "total_before_s": round(total_before, 2),
        "total_after_s": round(total_after, 2),
        "total_speedup": round(total_before / total_after, 2),
        "timings": rows,
        # Measured with perfbench, parent vs change checkouts; carried over.
        "end_to_end": previous.get("end_to_end", {}),
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"total {total_before:.1f}s -> {total_after:.1f}s "
          f"({total_before / total_after:.2f}x); wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
