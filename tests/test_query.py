"""Query-layer tests: mounting, lazy table loading, the sqlite engine."""

import json
import os

import pytest

from repro.experiments import get_experiment
from repro.results import RunStore, load_run, scan_runs
from repro.results.query import (SPAN_META_COLUMNS, MountedStore,
                                 QueryError, _dumps_sorted, _dumps_strict,
                                 _sql_names, mount_store, query_store,
                                 run_query)

PEOPLE = [
    {"name": "ada", "team": "a", "score": 3, "bonus": None},
    {"name": "bob", "team": "b", "score": 1, "bonus": 2.5},
    {"name": "cyd", "team": "a", "score": 2, "bonus": None},
    {"name": "dee", "team": "b", "score": 4, "bonus": 0.5},
]
PEOPLE_COLUMNS = ["name", "team", "score", "bonus"]


def _people(sql, columns=PEOPLE_COLUMNS):
    store = MountedStore(tables={"people": PEOPLE},
                         columns={"people": list(columns)})
    result = query_store(store, sql)
    return result.columns, result.rows


def _store_with_runs(tmp_path, seeds=(1, 2)):
    experiment = get_experiment("E8")
    for seed in seeds:
        params = experiment.resolve_params(
            {"cs": (0.1,), "ns": (50,), "seed": seed})
        store = RunStore.open(str(tmp_path), "E8", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
    return str(tmp_path)


class TestSQL:
    def test_select_where_order(self):
        columns, rows = _people(
            "SELECT name, score FROM people WHERE team = 'a' "
            "ORDER BY score DESC")
        assert columns == ["name", "score"]
        assert rows == [("ada", 3), ("cyd", 2)]

    def test_select_star_uses_declared_columns(self):
        columns, rows = _people("SELECT * FROM people LIMIT 1")
        assert columns == ["name", "team", "score", "bonus"]
        assert rows == [("ada", "a", 3, None)]

    def test_group_by_aggregates(self):
        columns, rows = _people(
            "SELECT team, COUNT(*) AS n, SUM(score) AS total, "
            "AVG(score) AS mean, MIN(score) AS lo, MAX(score) AS hi "
            "FROM people GROUP BY team ORDER BY team")
        assert columns == ["team", "n", "total", "mean", "lo", "hi"]
        assert rows == [("a", 2, 5, 2.5, 2, 3), ("b", 2, 5, 2.5, 1, 4)]

    def test_global_aggregate_and_count_skips_nulls(self):
        _, rows = _people(
            "SELECT COUNT(*) AS all_rows, COUNT(bonus) AS with_bonus "
            "FROM people")
        assert rows == [(4, 2)]

    def test_is_null_in_and_boolean_logic(self):
        _, rows = _people(
            "SELECT name FROM people WHERE bonus IS NULL "
            "AND (team IN ('a', 'c') OR score > 10) ORDER BY name")
        assert rows == [("ada",), ("cyd",)]
        _, rows = _people(
            "SELECT name FROM people WHERE NOT bonus IS NULL "
            "ORDER BY name")
        assert rows == [("bob",), ("dee",)]

    def test_distinct_and_limit(self):
        _, rows = _people(
            "SELECT DISTINCT team FROM people ORDER BY team LIMIT 1")
        assert rows == [("a",)]

    def test_nulls_sort_first_ascending(self):
        # SQLite's order: NULLs first under ASC, last under DESC.
        _, rows = _people(
            "SELECT name, bonus FROM people ORDER BY bonus, name")
        assert [row[0] for row in rows] == ["ada", "cyd", "dee", "bob"]
        _, rows = _people(
            "SELECT name FROM people ORDER BY bonus DESC, name")
        assert [row[0] for row in rows] == ["bob", "dee", "ada", "cyd"]

    def test_missing_column_reads_as_null(self):
        # Mounted tables are heterogeneous (the rows table is the union
        # of every experiment's columns), so a column a row lacks is
        # NULL, not an error.
        _, rows = _people(
            "SELECT name FROM people WHERE missing IS NULL LIMIT 1",
            columns=PEOPLE_COLUMNS + ["missing"])
        assert rows == [("ada",)]

    def test_value_types_survive(self):
        store = MountedStore(
            tables={"t": [{"flag": True, "mixed": 1, "count": 7},
                          {"flag": False, "mixed": True, "count": None}]},
            columns={"t": ["flag", "mixed", "count"]})
        rows = query_store(store, "SELECT * FROM t").rows
        # An all-bool column reads back as bools; ints stay ints.
        assert rows == [(True, 1, 7), (False, 1, None)]
        assert type(rows[0][0]) is bool and type(rows[0][2]) is int

    def test_booleans_are_detected_across_key_sets(self):
        # Rows of different key sets go in as separate batches; a column
        # is BOOLEAN only if every batch holds nothing but bools for it.
        store = MountedStore(
            tables={"t": [{"flag": None}, {"flag": True, "n": 1},
                          {"n": False}, {"flag": False}]},
            columns={"t": ["flag", "n"]})
        rows = query_store(store, "SELECT flag, n FROM t").rows
        assert rows == [(None, None), (True, 1), (None, 0), (False, None)]
        assert type(rows[1][0]) is bool and type(rows[2][1]) is int

    @pytest.mark.parametrize("value", [
        ["E6", "ben-or", 9, "split", 0.25, True, None],
        {"b": [1, {"y": 2, "x": "\u00e9\"q"}], "a": -1.5e-300},
        "plain", 3, None, [],
    ])
    def test_cells_encode_as_json_dumps_does(self, value):
        assert _dumps_sorted(value) == json.dumps(value, sort_keys=True)
        assert _dumps_strict(value) == json.dumps(value)

    def test_non_finite_cells_are_refused_and_encoder_recovers(self):
        with pytest.raises(ValueError):
            _dumps_sorted([1, float("nan")])
        assert _dumps_sorted([{"k": [1]}]) == '[{"k": [1]}]'

    def test_int_float_column_does_not_promote(self):
        # "p" holds 0.5 in one row and the int 1 in another; a column
        # typed REAL would hand the int back as 1.0.
        store = MountedStore(tables={"t": [{"p": 0.5}, {"p": 1}]},
                             columns={"t": ["p"]})
        rows = query_store(store, "SELECT p FROM t").rows
        assert rows == [(0.5,), (1,)]
        assert type(rows[1][0]) is int

    @pytest.mark.parametrize("sql,message", [
        ("SELECT name FROM nowhere", "no such table"),
        ("SELECT FROM WHERE", "syntax error"),
        ("DELETE FROM people", "readonly"),
        ("INSERT INTO people (name) VALUES ('eve')", "readonly"),
        ("UPDATE people SET score = 0", "readonly"),
        ("CREATE TABLE scratch (a)", "readonly"),
        ("SELECT name FROM people; DROP TABLE people", "one statement"),
    ])
    def test_rejections_are_query_errors(self, sql, message):
        with pytest.raises(QueryError, match=message):
            _people(sql)

    def test_integer_beyond_64_bits_is_a_query_error(self):
        store = MountedStore(tables={"t": [{"seed": 2 ** 64}]},
                             columns={"t": ["seed"]})
        with pytest.raises(QueryError, match="64-bit"):
            query_store(store, "SELECT seed FROM t")

    def test_attach_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(QueryError, match="not authorized"):
            _people("ATTACH 'other.db' AS other")
        assert not os.path.exists(tmp_path / "other.db")


class TestMountStore:
    def test_tables_and_meta_columns(self, tmp_path):
        root = _store_with_runs(tmp_path)
        store = mount_store(root)
        assert store.views == ["E8"]
        assert sorted(store.tables) == ["metrics", "rows", "runs", "spans"]
        runs = store.tables["runs"]
        assert len(runs) == 2
        assert all(run["row_count"] == 4 for run in runs)
        assert all("columnar_codec" not in run for run in runs)
        rows = store.tables["rows"]
        assert len(rows) == 8
        first = rows[0]
        assert first["run_id"]
        assert json.loads(first["params"])["seed"] in (1, 2)
        assert json.loads(first["cell"])  # a JSON list
        # Row columns follow the meta columns in the declared order.
        assert store.columns["rows"].index("experiment") == 0

    def test_mount_skips_debris(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        (tmp_path / "E8" / "not-a-run").write_text("debris\n")
        broken = tmp_path / "E8" / "badmanifest00"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json\n")
        with pytest.warns(RuntimeWarning, match="skipping"):
            store = mount_store(root)
        assert len(store.tables["runs"]) == 1

    def test_only_named_tables_are_mounted(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        store = mount_store(root, names={"select", "count", "from",
                                         "runs"})
        assert sorted(store.tables) == ["runs"]
        assert store.views == []
        with pytest.raises(QueryError, match="no such table"):
            query_store(store, "SELECT * FROM rows")

    def test_runs_query_never_reads_telemetry(self, tmp_path,
                                              monkeypatch):
        import repro.results.query as query

        root = _store_with_runs(tmp_path, seeds=(1,))

        def exploding(path):
            raise AssertionError(f"telemetry read for a runs query: {path}")

        monkeypatch.setattr(query, "read_events", exploding)
        result = run_query(root, "SELECT row_count FROM runs")
        assert result.rows == [(4,)]
        with pytest.raises(AssertionError, match="telemetry read"):
            run_query(root, "SELECT * FROM spans")

    def test_telemetry_query_never_parses_rows(self, tmp_path,
                                               monkeypatch):
        import repro.results.store as store

        root = _store_with_runs(tmp_path, seeds=(1,))
        expected = run_query(root, "SELECT COUNT(*) FROM spans").rows

        def exploding(path):
            raise AssertionError(f"rows read for a telemetry query: {path}")

        monkeypatch.setattr(store, "read_jsonl_records", exploding)
        assert run_query(root, "SELECT COUNT(*) FROM spans").rows == expected
        assert run_query(root, "SELECT COUNT(*) FROM metrics").rows
        for sql in ("SELECT * FROM runs", "SELECT * FROM E8"):
            with pytest.raises(AssertionError, match="rows read"):
                run_query(root, sql)

    def test_experiment_view_mounts_rows(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        store = mount_store(root, names={"select", "from", "e8"})
        assert sorted(store.tables) == ["rows"]
        assert store.views == ["E8"]
        result = query_store(store, "SELECT * FROM E8")
        assert len(result.rows) == 1  # the E8-talagrand rows are not E8
        assert result.columns[:2] == ["experiment", "run_id"]

    def test_alias_word_only_mounts_an_extra_table(self, tmp_path):
        root = _store_with_runs(tmp_path)
        aliased = run_query(root, "SELECT COUNT(*) AS rows FROM runs")
        plain = run_query(root, "SELECT COUNT(*) AS n FROM runs")
        assert aliased.rows == plain.rows == [(2,)]
        assert "rows" in mount_store(
            root, names={"select", "count", "as", "rows", "from",
                         "runs"}).tables

    def test_unordered_select_returns_log_order(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        run_dir = next(scan_runs(root))[0]
        # Span events carry different attribute sets; interleave them so
        # batching rows by shape would reorder the table.
        events = [
            {"kind": "span", "id": 1, "parent": 0, "name": "trial-a",
             "t0": 0.0, "dur": 0.1, "tag": ["E8", 1]},
            {"kind": "span", "id": 0, "parent": None, "name": "cell-a",
             "t0": 0.0, "dur": 0.2, "cell": ["E8"]},
            {"kind": "counter", "name": "trials", "t": 0.2, "delta": 1},
            {"kind": "span", "id": 2, "parent": 0, "name": "trial-b",
             "t0": 0.2, "dur": 0.1, "tag": ["E8", 2]},
            {"kind": "span", "id": 3, "parent": None, "name": "campaign",
             "t0": 0.0, "dur": 0.5, "label": "quick"},
            {"kind": "span", "id": 4, "parent": 3, "name": "cell-b",
             "t0": 0.3, "dur": 0.1, "cell": ["E8"]},
        ]
        with open(os.path.join(run_dir, "telemetry.jsonl"), "w") as handle:
            handle.writelines(json.dumps(event) + "\n" for event in events)
        result = run_query(root, "SELECT name FROM spans")
        assert [name for (name,) in result.rows] == [
            "trial-a", "cell-a", "trial-b", "campaign", "cell-b"]

    def test_named_table_without_telemetry_is_empty(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        result = run_query(root, "SELECT * FROM spans")
        assert result.columns == list(SPAN_META_COLUMNS)
        assert result.rows == []


class TestRunQuery:
    def test_run_query_end_to_end(self, tmp_path):
        root = _store_with_runs(tmp_path)
        result = run_query(
            root, "SELECT seed, COUNT(*) AS n FROM rows "
                  "GROUP BY seed ORDER BY seed")
        assert result.columns == ["seed", "n"]
        assert result.rows == [(1, 4), (2, 4)]
        assert result.as_dicts()[0] == {"seed": 1, "n": 4}

    def test_experiment_pseudo_table(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        result = run_query(
            root, "SELECT n, success_probability FROM E8 WHERE n = 50")
        assert len(result.rows) == 1
        assert result.rows[0][0] == 50

    def test_case_colliding_columns_both_readable(self, tmp_path):
        # E8 rows carry the paper's two constants, c and C; SQL names
        # are case-insensitive, so C mounts as C_2.
        root = _store_with_runs(tmp_path, seeds=(1,))
        _, rows = load_run(os.path.join(root, "E8",
                                        os.listdir(os.path.join(root,
                                                                "E8"))[0]))
        expected = [(row["c"], row["C"]) for row in rows
                    if row["experiment"] == "E8"]
        result = run_query(root, "SELECT c, C_2 FROM E8")
        assert result.columns == ["c", "C_2"]
        assert result.rows == expected
        assert expected[0][0] != expected[0][1]

    def test_completed_reads_back_as_bool(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        result = run_query(root, "SELECT completed FROM runs")
        assert result.rows == [(True,)]
        assert type(result.rows[0][0]) is bool

    def test_sql_breadth(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        result = run_query(
            root, "SELECT r.n FROM E8 AS r JOIN runs USING (run_id) "
                  "WHERE runs.completed ORDER BY r.n LIMIT 1")
        assert result.rows[0][0] == 50

    def test_bad_sql_raises_query_error(self, tmp_path):
        root = _store_with_runs(tmp_path, seeds=(1,))
        with pytest.raises(QueryError, match="sqlite rejected"):
            run_query(root, "SELECT frobnicate(")


class TestMountedRowsMatchJsonl:
    """Every row a query reads back equals the stored jsonl record."""

    def _mixed_store(self, tmp_path):
        root = _store_with_runs(tmp_path)
        experiment = get_experiment("E3")
        params = experiment.resolve_params(
            {"ns": (8,), "samples": 2, "separation_trials": 2, "seed": 7})
        store = RunStore.open(root, "E3", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        return root

    def test_rows_table_matches_every_stored_record(self, tmp_path):
        root = self._mixed_store(tmp_path)
        store = mount_store(root)
        columns = store.columns["rows"]
        names = _sql_names(columns)
        result = run_query(root, "SELECT * FROM rows")
        assert result.columns == names
        mounted = {(row[columns.index("run_id")],
                    row[columns.index("row_index")]): row
                   for row in result.rows}
        compared = 0
        for run_dir, _, records in scan_runs(root):
            run_id = os.path.basename(run_dir)
            for record in records:
                row = mounted[(run_id, record["index"])]
                assert json.loads(row[columns.index("cell")]) == \
                    record["key"]
                for column, value in record["row"].items():
                    cell = row[columns.index(column)]
                    if isinstance(value, (dict, list)):
                        cell = json.loads(cell)
                    assert cell == value and type(cell) is type(value), \
                        (run_id, record["index"], column)
                compared += 1
        assert compared == len(mounted) > 0

    def test_experiment_views_partition_rows(self, tmp_path):
        root = self._mixed_store(tmp_path)
        total = run_query(root, "SELECT COUNT(*) FROM rows").rows[0][0]
        per_view = [run_query(root, f"SELECT COUNT(*) FROM {name}")
                    .rows[0][0] for name in ("E3", "E8")]
        others = run_query(
            root, "SELECT COUNT(*) FROM rows "
                  "WHERE experiment NOT IN ('E3', 'E8')").rows[0][0]
        assert all(count > 0 for count in per_view)
        assert sum(per_view) + others == total


class TestQueryCLI:
    def test_query_table_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path)
        assert main(["query", "SELECT seed, COUNT(*) AS n FROM rows "
                              "GROUP BY seed ORDER BY seed",
                     "--out", root]) == 0
        out = capsys.readouterr().out
        assert "seed" in out and "n" in out
        assert "2 row(s)" in out

    def test_query_json_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "SELECT run_id, row_count FROM runs",
                     "--out", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["run_id", "row_count"]
        assert payload["rows"][0][1] == 4
        assert "engine" not in payload

    def test_query_csv_output(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "SELECT seed FROM runs", "--out", root,
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["seed", "1"]

    def test_query_bad_sql_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        root = _store_with_runs(tmp_path, seeds=(1,))
        assert main(["query", "EXPLODE please", "--out", root]) == 2
        assert "repro query" in capsys.readouterr().err
