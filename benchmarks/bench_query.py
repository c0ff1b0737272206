"""Benchmark ``repro query``'s read path: ``run_query`` end to end.

Builds one synthetic run of many rows, then times a full ``run_query``
aggregate over it: the ``rows.jsonl`` scan, mounting the named tables
into an in-memory sqlite database, and the SQL itself.  Besides wall
time the benchmark records its ``rows_scanned_per_sec`` as
``extra_info``, the scan-throughput number the performance trajectory
(`scripts/bench_record.py`, ``BENCH_<n>.json``) tracks.
"""

import json

import pytest

from repro.results.query import run_query

ROWS = 20_000


@pytest.fixture(scope="module")
def synthetic_root(tmp_path_factory):
    """A results root holding one finished run of ``ROWS`` rows."""
    root = tmp_path_factory.mktemp("bench-query")
    run_dir = root / "SYNTH" / "0123456789ab"
    run_dir.mkdir(parents=True)
    with open(run_dir / "rows.jsonl", "w") as handle:
        for i in range(ROWS):
            record = {"index": i, "key": ["SYNTH", i % 64, i],
                      "row": {"n": 12 + (i % 5), "trial": i,
                              "undecided": (i * 2654435761) % 97,
                              "rate": (i % 1000) / 1000.0,
                              "decided": i % 3 == 0}}
            handle.write(json.dumps(record, allow_nan=False) + "\n")
    manifest = {"experiment": "SYNTH", "params": {"seed": 0}, "seed": 0,
                "workers": 0, "backend": "trial", "completed": True,
                "wall_time_seconds": 1.0, "row_count": ROWS,
                "run_health": None}
    with open(run_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, allow_nan=False)
    return str(root)


@pytest.mark.benchmark(group="store-scan")
def test_bench_query_aggregate(benchmark, synthetic_root):
    """Mount + SQL aggregate over every stored row (`repro query`)."""
    sql = ("SELECT n, COUNT(*) AS trials, AVG(undecided) AS mean_undecided "
           "FROM rows GROUP BY n ORDER BY n")

    result = benchmark.pedantic(run_query, args=(synthetic_root, sql),
                                iterations=1, rounds=3)

    assert len(result.rows) == 5
    assert sum(row[1] for row in result.rows) == ROWS
    benchmark.extra_info["rows"] = ROWS
    benchmark.extra_info["rows_scanned_per_sec"] = \
        ROWS / benchmark.stats.stats.mean
