"""Check a workload's results store against its reference, then time reads.

Usage::

    python perfbench/readmix.py --root STORE --names E2,E4 \
        --reference REF.json --seed N [--min-reads 100] [--bursts 1] \
        [--burst-seconds 0] [--trace-dir DIR]
    python perfbench/readmix.py --root STORE --names E2,E4 --record

First the store is verified: every stored run's rows (canonical JSON, in
cell order) against the reference digests, each run's ``run_health``
ledger, and its telemetry counters ``trials_completed`` and
``rows_written`` against the pinned counts.  Then the fixed read mix runs
in this process over the same store — SQL through
``repro.results.query.run_query``, ``build_report`` per stored run, and
``latest_run`` + ``load_run`` as ``repro show`` calls them — cycle by
cycle (see :func:`mix_cycle`) in an order shuffled by ``--seed``, until
at least ``--min-reads`` SQL reads were timed and each burst has read for
``--burst-seconds``.  The latencies reported
are those of the SQL reads: on small stores a show or a report takes a
fraction of a query's time, and mixing them in puts the percentiles on a
step between two kinds of read.  Every read's output is checked against the reference too.

With ``--record`` nothing is checked; the digests and counts are printed
as a reference instead.  With ``--trace-dir`` the read entry points are
traced (``tracer.py``) during the read mix only.  The result is one JSON
object, the last line on stdout.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from collections import Counter

#: Reads over the mounted tables.  Each output is deterministic for a
#: given store and independent of worker count and backend, so one
#: reference covers every workload built on the same runs.
QUERIES = (
    "SELECT experiment, COUNT(*) AS rows FROM rows "
    "GROUP BY experiment ORDER BY experiment",
    "SELECT experiment, row_count, completed, health_failures FROM runs "
    "ORDER BY experiment",
    "SELECT experiment, cell, row_index FROM rows "
    "ORDER BY experiment, row_index",
    "SELECT experiment, COUNT(*) AS campaigns FROM spans "
    "WHERE name = 'campaign' GROUP BY experiment ORDER BY experiment",
    "SELECT experiment, name, SUM(delta) AS total FROM metrics "
    "WHERE name = 'rows_written' OR name = 'trials_completed' "
    "GROUP BY experiment, name ORDER BY experiment, name",
)

#: Manifest counters pinned per run: trials executed and rows written.
PINNED_COUNTERS = ("trials_completed", "rows_written")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def store_state(root: str, names):
    """Row digests, health and pinned counters of each named run."""
    from repro.results import latest_run, load_run

    state = {}
    for name in names:
        path = latest_run(root, name)
        if path is None:
            state[name] = None
            continue
        manifest, rows = load_run(path)
        health = manifest.get("run_health") or {}
        counters = (manifest.get("telemetry") or {}).get("counters") or {}
        state[name] = {
            "rows": [digest(row) for row in rows],
            "health": len(health.get("failures") or []) +
            int(health.get("quarantined") or 0),
            "retries": int(health.get("retries") or 0),
            "quarantined": int(health.get("quarantined") or 0),
            "counters": {key: counters.get(key) for key in PINNED_COUNTERS},
            "telemetry_events": (manifest.get("telemetry") or {}).get(
                "events", 0),
        }
    return state


def verify(state, reference):
    """``(operations, failed, problems)`` of the store against reference."""
    operations = failed = 0
    problems = []
    for name, expected in reference["runs"].items():
        actual = state.get(name)
        operations += len(expected) + len(PINNED_COUNTERS)
        if actual is None:
            failed += len(expected) + len(PINNED_COUNTERS)
            problems.append(f"{name}: no stored run")
            continue
        # A cell fails if its row is missing or differs from the
        # reference; extra rows count as failures too.
        matched = sum((Counter(expected) & Counter(actual["rows"])).values())
        wrong = max(len(expected), len(actual["rows"])) - matched
        if wrong:
            problems.append(f"{name}: {wrong} of {len(expected)} rows "
                            f"missing or different")
        if actual["health"]:
            problems.append(f"{name}: run_health records "
                            f"{actual['health']} failed/quarantined trials")
        bad_counts = [key for key in PINNED_COUNTERS
                      if actual["counters"][key] !=
                      reference["counters"][name][key]]
        for key in bad_counts:
            problems.append(f"{name}: {key} {actual['counters'][key]} != "
                            f"pinned {reference['counters'][name][key]}")
        failed += min(len(expected), wrong + actual["health"]) + \
            len(bad_counts)
    return operations, failed, problems


def read_ops(names):
    """Every distinct read: the SQL queries, a report and a show per run."""
    ops = [("query", sql) for sql in QUERIES]
    for name in names:
        ops.append(("report", name))
        ops.append(("show", name))
    return ops


def mix_cycle(names, cycle: int):
    """One cycle of the mix: every SQL query, then one run's report and
    show, rotating through the runs.

    Every run gets its report and show within ``len(names)`` cycles.
    """
    name = names[cycle % len(names)]
    return [("query", sql) for sql in QUERIES] + [("report", name),
                                                  ("show", name)]


def perform(root: str, op):
    """Execute one read; returns its output in comparable form."""
    import repro.results
    import repro.results.query
    import repro.results.report

    kind, arg = op
    if kind == "query":
        result = repro.results.query.run_query(root, arg)
        return {"columns": list(result.columns),
                "rows": [list(row) for row in result.rows]}
    if kind == "report":
        report = repro.results.report.build_report(root, arg)
        return {"cells": report.cells, "finalizers": report.finalizers,
                "skipped": report.skipped_columns,
                "runs": [{key: run[key] for key in
                          ("seed", "completed", "rows", "health_failures")}
                         for run in report.runs]}
    path = repro.results.latest_run(root, arg)
    manifest, rows = repro.results.load_run(path)
    return {"experiment": manifest["experiment"],
            "params": manifest.get("params"), "rows": rows}


def op_id(op) -> str:
    return f"{op[0]}:{op[1]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--names", required=True,
                        help="comma-separated stored runs to check")
    parser.add_argument("--reference")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-reads", type=int, default=100)
    parser.add_argument("--bursts", type=int, default=1,
                        help="split the reads into this many bursts; before "
                             "each, print 'ready' and wait for a line on "
                             "stdin")
    parser.add_argument("--burst-seconds", type=float, default=0.0,
                        help="keep each burst reading for at least this "
                             "long")
    parser.add_argument("--trace-dir")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    names = args.names.split(",")
    state = store_state(args.root, names)
    if args.record:
        json.dump({
            "runs": {name: state[name]["rows"] for name in names},
            "counters": {name: state[name]["counters"] for name in names},
            "health": {name: state[name]["health"] for name in names},
            "reads": {op_id(op): digest(perform(args.root, op))
                      for op in read_ops(names)},
        }, sys.stdout)
        return 0

    with open(args.reference) as handle:
        reference = json.load(handle)
    operations, failed, problems = verify(state, reference)
    tracer = None
    if args.trace_dir:
        import tracer as tracing
        tracer = tracing.install(args.trace_dir, role="reads")
    rng = random.Random(args.seed)
    latencies = []
    reads = read_failed = 0
    cycle = 0
    for burst in range(1, args.bursts + 1):
        # Hand control back between bursts, so the caller can spread the
        # reads over a longer stretch of the run (see ``--bursts``).
        print("ready", flush=True)
        sys.stdin.readline()
        started = time.perf_counter()
        while len(latencies) * args.bursts < args.min_reads * burst or \
                time.perf_counter() - started < args.burst_seconds:
            ops = mix_cycle(names, args.seed + cycle)
            rng.shuffle(ops)
            cycle += 1
            for op in ops:
                start = time.perf_counter()
                output = perform(args.root, op)
                elapsed = time.perf_counter() - start
                reads += 1
                if op[0] == "query":
                    latencies.append(elapsed)
                if digest(output) != reference["reads"][op_id(op)]:
                    read_failed += 1
                    if read_failed == 1:
                        problems.append(f"read {op_id(op)} differs from "
                                        f"the reference")
    if tracer is not None:
        tracer.dump()
    json.dump({
        "operations": operations + reads,
        "failed": failed + read_failed,
        "problems": problems,
        "latencies": latencies,
        "retries": sum(s["retries"] for s in state.values() if s),
        "quarantined": sum(s["quarantined"] for s in state.values() if s),
        "telemetry_events": sum(s["telemetry_events"]
                                for s in state.values() if s),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
