"""Record the result digests the benchmark's correctness gate compares against.

Usage (from the root of a checkout)::

    python3 perfbench/record_digests.py --seeds 0-31

Runs one cold pass of ``table3-tiny`` per seed and one of ``sweep-tiny``,
and rewrites ``perfbench/digests.json`` with a digest of every cell's
``JobResult.fingerprint()`` and of every driver text report.  A pass whose
cross-backend embedding counts disagree is refused, never recorded.
Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-31"))
    args = parser.parse_args()
    run._prepare_environment()
    from spans import NullRecorder
    from workloads import DIGESTS_PATH, WORKLOADS, Context, fingerprint_digest, short_digest

    jobs = len(os.sched_getaffinity(0))
    shutil.rmtree(run.WORKDIR, ignore_errors=True)

    def cold_pass(workload, seed: int) -> dict:
        ctx = Context(seed=seed, jobs=jobs, workdir=run.WORKDIR)
        seed_root = run._fresh_root("setup")
        run._build_inputs(workload, ctx, NullRecorder())
        run._clone(seed_root, "pass")
        outputs = workload.cold(ctx)
        print(f"ran {workload.name} seed {seed}", file=sys.stderr)
        return outputs

    table3 = WORKLOADS["table3-tiny"]
    seeds = {}
    for seed in args.seeds:
        outputs = cold_pass(table3, seed)
        failed = table3.check(Context(seed, jobs, run.WORKDIR), outputs)
        if failed:
            sys.exit(f"table3-tiny seed {seed}: refusing to record, failed {sorted(failed)}")
        seeds[str(seed)] = [fingerprint_digest(result) for result in outputs.values()]
    sweep = cold_pass(WORKLOADS["sweep-tiny"], 0)
    digests = {
        "table3-tiny": {"cells": list(outputs), "seeds": seeds},
        "sweep-tiny": {key: short_digest(text) for key, text in sweep.items()},
    }
    DIGESTS_PATH.write_text(json.dumps(digests, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
