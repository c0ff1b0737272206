"""Regenerate the reference outputs in ``perfbench/reference/``.

Usage (from the root of a checkout of the commit that defines the
reference)::

    python3 perfbench/make_reference.py [--seeds 0,1]

Each reference family (``quick`` for quick-suite, ``paper`` for
paper-batched) is run at every master seed with ``--workers 0 --backend
trial``: once untraced, which records the row digests, the pinned manifest
counters and the read-mix output digests, and once traced, which records
the pinned work counts.  The traced run must reproduce the untraced rows
and reads exactly, and neither may leave a run_health failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import run as bench


def serial_trial(command):
    """``command`` with ``--workers 0`` and ``--backend trial``."""
    forced = {"--workers": "0", "--backend": "trial"}
    return tuple(forced.get(command[i - 1], part) if i else part
                 for i, part in enumerate(command))


def generate(family: str, workload: bench.Workload, seed: int,
             root: str) -> dict:
    workload = dataclasses.replace(workload, commands=tuple(
        serial_trial(command) for command in workload.commands))
    work_dir = bench.fresh_dir(root, ".perfbench", f"reference-{family}")
    env = bench.child_env(root, bench.fresh_dir(work_dir, "tmp"))
    log = os.path.join(work_dir, "log.txt")
    records = []
    trace_dir = bench.fresh_dir(work_dir, "trace")
    for tracing in (None, trace_dir):
        store = bench.fresh_dir(work_dir, "store")
        spawns = bench.run_commands(workload, seed, store, env, log, tracing)
        if any(spawn.code != 0 for spawn in spawns):
            raise SystemExit(f"{family} seed {seed}: CLI failed; see {log}")
        records.append(bench.check_store(workload, store, env, log, 0, None,
                                         record=True))
    untraced, traced = records
    if untraced != traced:
        raise SystemExit(f"{family} seed {seed}: traced outputs differ")
    if any(untraced.pop("health").values()):
        raise SystemExit(f"{family} seed {seed}: run_health not clean")
    return {"family": family, "master_seed": seed,
            "commands": [list(command) for command in workload.commands],
            **untraced,
            "work": bench.work_counts(bench.load_trace(trace_dir))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0,1")
    args = parser.parse_args()
    root = os.getcwd()
    families = {"quick": bench.WORKLOADS["quick-suite"],
                "paper": bench.WORKLOADS["paper-batched"]}
    os.makedirs(bench.REFERENCE_DIR, exist_ok=True)
    for seed in (int(part) for part in args.seeds.split(",")):
        for family, workload in families.items():
            reference = generate(family, workload, seed, root)
            path = os.path.join(bench.REFERENCE_DIR,
                                f"{family}-seed{seed}.json")
            with open(path, "w") as handle:
                json.dump(reference, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}: work {reference['work']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
