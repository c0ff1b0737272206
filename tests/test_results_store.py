"""Results-store tests: manifest, streaming rows, and kill/resume."""

import json
import os

import pytest

import repro.experiments.base as base
from repro.experiments import get_experiment
from repro.results import (RunStore, latest_run, list_runs, load_run,
                           params_digest, run_directory)
from repro.results.store import (NonFiniteRowError, parse_record_line,
                                 read_jsonl_records, records_to_rows)

E2_PARAMS = {"ns": (12, 16), "trials": 1, "max_windows": 200000,
             "use_resets": True, "seed": 9}


def _resolved(name, params):
    return get_experiment(name).resolve_params(params)


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 3})
        store = RunStore.open(str(tmp_path), "E8", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=1.25)
        manifest = store.manifest
        assert manifest["experiment"] == "E8"
        assert manifest["seed"] == 3
        assert manifest["workers"] == 0
        assert manifest["completed"] is True
        assert manifest["wall_time_seconds"] == 1.25
        assert manifest["row_count"] == 4  # 1 curve + 3 talagrand cells
        assert manifest["package_version"]
        assert manifest["params"]["cs"] == [0.1]

    def test_run_directory_is_content_addressed(self, tmp_path):
        params = _resolved("E8", {"seed": 3})
        path = run_directory(str(tmp_path), "E8", params)
        assert path == os.path.join(
            str(tmp_path), "E8", params_digest("E8", params))
        # Same config -> same digest; different seed -> different digest.
        assert params_digest("E8", params) == params_digest("E8", params)
        other = dict(params, seed=4)
        assert params_digest("E8", params) != params_digest("E8", other)


class TestStreamingAndLoad:
    def test_rows_stream_as_jsonl(self, tmp_path):
        experiment = get_experiment("E3")
        params = _resolved("E3", {"ns": (8,), "samples": 2,
                                  "separation_trials": 2, "seed": 7})
        store = RunStore.open(str(tmp_path), "E3", params)
        rows = experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        lines = [json.loads(line) for line in
                 open(os.path.join(store.path, "rows.jsonl"))]
        assert [line["row"] for line in lines] == rows
        manifest, loaded = load_run(store.path)
        assert loaded == rows
        assert manifest["completed"]

    def test_list_and_latest_runs(self, tmp_path):
        experiment = get_experiment("E8")
        for seed in (1, 2):
            params = _resolved("E8", {"cs": (0.1,), "ns": (50,),
                                      "seed": seed})
            store = RunStore.open(str(tmp_path), "E8", params)
            experiment.run(params=params, store=store)
            store.finish(wall_time=0.0)
        runs = list_runs(str(tmp_path))
        assert len(runs) == 2
        assert latest_run(str(tmp_path), "E8") == runs[0]
        assert latest_run(str(tmp_path), "E1") is None

    def test_list_runs_breaks_mtime_ties_by_digest(self, tmp_path):
        # Filesystem mtimes are coarse enough for back-to-back runs to
        # tie; the order must then come from the digest, not from
        # directory-listing accidents.
        experiment = get_experiment("E8")
        paths = []
        for seed in (1, 2, 3):
            params = _resolved("E8", {"cs": (0.1,), "ns": (50,),
                                      "seed": seed})
            store = RunStore.open(str(tmp_path), "E8", params)
            experiment.run(params=params, store=store)
            store.finish(wall_time=0.0)
            paths.append(store.path)
        stamp = os.path.getmtime(os.path.join(paths[0], "manifest.json"))
        for path in paths:
            os.utime(os.path.join(path, "manifest.json"), (stamp, stamp))
        assert list_runs(str(tmp_path)) == sorted(
            paths, key=os.path.basename, reverse=True)

    def test_latest_run_prefers_completed_over_fresher_partial(
            self, tmp_path):
        experiment = get_experiment("E8")
        done = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", done)
        experiment.run(params=done, store=store)
        store.finish(wall_time=0.0)
        # An interrupted rerun opens (touching its manifest) but never
        # finishes; `show E8` must still find the completed run.
        partial = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 2})
        RunStore.open(str(tmp_path), "E8", partial)
        assert latest_run(str(tmp_path), "E8") == store.path


class _KillAfter(RunStore):
    """A store that dies (like SIGKILL mid-run) after N row writes."""

    def __init__(self, *args, kill_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._writes_left = kill_after

    def write_row(self, index, key, row):
        if self._writes_left == 0:
            raise KeyboardInterrupt("killed mid-run")
        self._writes_left -= 1
        super().write_row(index, key, row)


class TestResume:
    def test_kill_midrun_then_resume_no_duplicates_identical_table(
            self, tmp_path, monkeypatch):
        experiment = get_experiment("E2")
        params = _resolved("E2", E2_PARAMS)
        reference = experiment.run(params=params, workers=0)

        path = run_directory(str(tmp_path), "E2", params)
        killed = _KillAfter(path, "E2", params, kill_after=1)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=0, store=killed)
        assert not killed.manifest["completed"]
        assert killed.row_count == 1

        # Rerun: the surviving cell must not recompute.  Count the trials
        # that are submitted for execution on resume.
        executed = []
        real_iter_trials = base.iter_trials

        def counting_iter_trials(specs, workers=None, **kwargs):
            specs = list(specs)
            executed.extend(specs)
            return real_iter_trials(specs, workers=workers, **kwargs)

        monkeypatch.setattr(base, "iter_trials", counting_iter_trials)
        resumed_store = RunStore.open(str(tmp_path), "E2", params,
                                      workers=0)
        rows = experiment.run(params=params, workers=0,
                              store=resumed_store)
        resumed_store.finish(wall_time=0.5)

        cells = experiment.cells(params=params)
        assert len(executed) == len(cells[1].specs)  # only the killed cell
        assert rows == reference  # identical final table, fit row included

        # No duplicate rows in the JSONL, and a second rerun executes
        # nothing at all.
        lines = [json.loads(line) for line in
                 open(os.path.join(path, "rows.jsonl"))]
        keys = [json.dumps(line["key"]) for line in lines]
        assert len(keys) == len(set(keys)) == len(cells)
        executed.clear()
        rerun_store = RunStore.open(str(tmp_path), "E2", params, workers=0)
        assert experiment.run(params=params, workers=0,
                              store=rerun_store) == reference
        assert executed == []

    def test_resume_sees_rows_written_after_finish(self, tmp_path):
        # A finished run reopened for more cells resumes from every row
        # in rows.jsonl, including rows appended after finish().
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        store.write_row(99, ["extra-cell"], {"n": 1})
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.row_count == store.row_count
        assert "extra-cell" in str(reopened.completed_rows())

    def test_torn_final_line_is_ignored(self, tmp_path):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        rows = experiment.run(params=params, store=store)
        rows_path = os.path.join(store.path, "rows.jsonl")
        with open(rows_path, "a") as handle:
            handle.write('{"index": 99, "key": ["torn"')  # no newline
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.rows() == rows
        # And the resumed run completes the table without the torn cell.
        assert experiment.run(params=params, store=reopened) == rows

    def test_kill_read_resume_matches_uninterrupted_run(self, tmp_path):
        """kill -> read the partial run -> resume == uninterrupted run."""
        experiment = get_experiment("E2")
        params = _resolved("E2", E2_PARAMS)
        reference = experiment.run(params=params, workers=0)

        path = run_directory(str(tmp_path), "E2", params)
        killed = _KillAfter(path, "E2", params, kill_after=1)
        with pytest.raises(KeyboardInterrupt):
            experiment.run(params=params, workers=0, store=killed)
        # A reader (show, report, query) looks at the partial run before
        # anyone resumes; reading must not disturb what resume sees.
        _, partial = load_run(path)
        assert partial == killed.rows()

        resumed = RunStore.open(str(tmp_path), "E2", params, workers=0)
        rows = experiment.run(params=params, workers=0, store=resumed)
        resumed.finish(wall_time=0.2)
        assert rows == reference
        records = read_jsonl_records(os.path.join(path, "rows.jsonl"))
        assert records_to_rows(records) == resumed.rows()
        keys = [json.dumps(record["key"]) for record in records]
        assert len(keys) == len(set(keys))


class TestManifestDebounce:
    def _store(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        return RunStore.open(str(tmp_path), "E8", params, workers=0)

    def test_row_writes_do_not_rewrite_the_manifest_each_time(
            self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        # Freeze the clock so only the row-count threshold can trigger.
        frozen = store._last_manifest_write
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: frozen)
        threshold = store_module.MANIFEST_EVERY_ROWS
        for i in range(threshold - 1):
            store.write_row(i, [f"cell-{i}"], {"n": i})
        assert store.manifest["row_count"] == 0  # still the open() write
        store.write_row(threshold - 1, ["cell-last"], {"n": threshold})
        assert store.manifest["row_count"] == threshold

    def test_elapsed_time_also_flushes(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        clock = [store._last_manifest_write]
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: clock[0])
        store.write_row(0, ["cell-0"], {"n": 0})
        assert store.manifest["row_count"] == 0
        clock[0] += store_module.MANIFEST_MIN_INTERVAL
        store.write_row(1, ["cell-1"], {"n": 1})
        assert store.manifest["row_count"] == 2

    def test_reopen_corrects_a_lagging_count(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        frozen = store._last_manifest_write
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: frozen)
        for i in range(5):
            store.write_row(i, [f"cell-{i}"], {"n": i})
        assert store.manifest["row_count"] == 0  # lagging, killed here
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.manifest["row_count"] == 5

    def test_finish_writes_an_exact_manifest(self, tmp_path, monkeypatch):
        from repro.results import store as store_module

        store = self._store(tmp_path)
        frozen = store._last_manifest_write
        monkeypatch.setattr(store_module.time, "monotonic",
                            lambda: frozen)
        for i in range(3):
            store.write_row(i, [f"cell-{i}"], {"n": i})
        store.finish(wall_time=0.5)
        manifest = store.manifest
        assert manifest["row_count"] == 3
        assert manifest["completed"] is True


class TestNonFiniteCanonicalization:
    def test_write_row_stores_non_finite_floats_as_null(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        store.write_row(0, ["cell"], {"good": 0.5, "nan": float("nan"),
                                      "inf": float("inf"),
                                      "nested": {"x": float("-inf")}})
        line = open(os.path.join(store.path, "rows.jsonl")).readline()
        assert "NaN" not in line and "Infinity" not in line
        stored = json.loads(line)["row"]
        assert stored == {"good": 0.5, "nan": None, "inf": None,
                          "nested": {"x": None}}
        # The resumed view agrees with the stored form.
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert reopened.rows() == [stored]

    def test_non_finite_params_canonicalized_in_manifest(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        params["threshold"] = float("inf")
        store = RunStore.open(str(tmp_path), "E8", params)
        assert store.manifest["params"]["threshold"] is None

    def test_loader_rejects_raw_nan_lines_loudly(self, tmp_path):
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 1})
        store = RunStore.open(str(tmp_path), "E8", params)
        store.write_row(0, ["cell"], {"n": 1})
        with open(os.path.join(store.path, "rows.jsonl"), "a") as handle:
            handle.write('{"index": 1, "key": ["bad"], '
                         '"row": {"x": NaN}}\n')
        # A pre-canonicalization line is an error, not a torn line to
        # silently drop on resume.
        with pytest.raises(NonFiniteRowError):
            RunStore.open(str(tmp_path), "E8", params)


def _write_records(rows_path, records):
    with open(rows_path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, allow_nan=False) + "\n")


def _synthetic_records():
    # Mixed shapes, mixed types, null-vs-missing and divergent key order.
    return [
        {"index": 0, "key": ["a", 1], "row": {"n": 5, "p": 0.5, "ok": True}},
        {"index": 1, "key": ["a", 2], "row": {"p": 0.25, "n": 6, "ok": False}},
        {"index": 2, "key": ["b", 1], "row": {"n": 7, "extra": None}},
        {"index": 3, "key": ["b", 2],
         "row": {"n": 8, "nested": {"z": 1, "a": [1, 2]}, "label": "x"}},
        {"index": 4, "key": ["c"], "row": {"n": 9, "p": 1}},  # int, not float
    ]


class TestJsonlRecords:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        records = _synthetic_records()
        rows_path = str(tmp_path / "rows.jsonl")
        _write_records(rows_path, records)
        decoded = read_jsonl_records(rows_path)
        assert decoded == records
        # Key order inside each row survives, not just dict equality,
        # and ints never come back as floats.
        assert [list(record["row"]) for record in decoded] == \
            [list(record["row"]) for record in records]
        assert type(decoded[4]["row"]["p"]) is int

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_line_raises_instead_of_dropping(self, tmp_path,
                                                        token):
        rows_path = str(tmp_path / "rows.jsonl")
        with open(rows_path, "w") as handle:
            handle.write('{"index": 0, "key": ["a"], '
                         '"row": {"x": [1, %s]}}\n' % token)
        with pytest.raises(NonFiniteRowError, match=token):
            read_jsonl_records(rows_path)

    def test_torn_lines_still_skipped(self, tmp_path):
        records = _synthetic_records()
        rows_path = str(tmp_path / "rows.jsonl")
        _write_records(rows_path, records[:2])
        with open(rows_path, "a") as handle:
            handle.write('{"index": 9, "key": ["torn"\n\n')
            handle.write(json.dumps(records[2], allow_nan=False) + "\n")
        # The intact line after the torn one is recovered.
        assert read_jsonl_records(rows_path) == records[:3]

    def test_parse_record_line_tells_torn_from_non_finite(self):
        assert parse_record_line('{"row": {"x": 1.5}}') == \
            {"row": {"x": 1.5}}
        with pytest.raises(json.JSONDecodeError):
            parse_record_line('{"row": {"x": 1.5')
        with pytest.raises(NonFiniteRowError):
            parse_record_line('{"row": {"x": NaN}}')
        # The shared decoder keeps working after a refusal.
        assert parse_record_line('[1, 2]') == [1, 2]

    def test_missing_rows_file_reads_as_empty(self, tmp_path):
        assert read_jsonl_records(str(tmp_path / "rows.jsonl")) == []

    def test_records_to_rows_orders_cells_and_keeps_last_write(self):
        records = [
            {"index": 1, "key": ["b"], "row": {"v": "b-old"}},
            {"index": 0, "key": ["a"], "row": {"v": "a"}},
            {"index": 1, "key": ["b"], "row": {"v": "b-new"}},
        ]
        assert records_to_rows(records) == [{"v": "a"}, {"v": "b-new"}]


class TestStoreRobustness:
    def _finished_run(self, tmp_path, seed=1):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,),
                                  "seed": seed})
        store = RunStore.open(str(tmp_path), "E8", params)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        return store

    def test_stray_files_do_not_brick_listing(self, tmp_path):
        store = self._finished_run(tmp_path)
        (tmp_path / "notes.txt").write_text("a stray root file\n")
        (tmp_path / "E8" / "download.partial").write_text("debris\n")
        assert list_runs(str(tmp_path)) == [store.path]
        assert latest_run(str(tmp_path), "E8") == store.path

    def test_load_run_on_a_stray_file_raises_cleanly(self, tmp_path):
        stray = tmp_path / "E8"
        stray.parent.mkdir(exist_ok=True)
        stray.write_text("not a directory\n")
        with pytest.raises(FileNotFoundError, match="not a run directory"):
            load_run(str(stray))

    def test_corrupt_manifest_skipped_with_warning(self, tmp_path):
        from repro.results import scan_runs

        good = self._finished_run(tmp_path, seed=1)
        broken = tmp_path / "E8" / "corrupt000000"
        broken.mkdir()
        (broken / "manifest.json").write_text("{definitely not json\n")
        headless = tmp_path / "E8" / "headless00000"
        headless.mkdir()
        (headless / "manifest.json").write_text('{"seed": 1}\n')
        with pytest.warns(RuntimeWarning, match="skipping unloadable"):
            scanned = list(scan_runs(str(tmp_path)))
        assert [run_dir for run_dir, _, _ in scanned] == [good.path]

    def test_load_run_reports_manifest_without_experiment(self, tmp_path):
        run_dir = tmp_path / "E8" / "headless00000"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text('{"seed": 1}\n')
        with pytest.raises(ValueError, match="no 'experiment' field"):
            load_run(str(run_dir))

    def test_listing_a_missing_root_is_empty(self, tmp_path):
        assert list_runs(str(tmp_path / "nowhere")) == []
        assert latest_run(str(tmp_path / "nowhere"), "E8") is None


class TestRowsJsonlIsTheOnlyFormat:
    def _finished_run(self, tmp_path):
        experiment = get_experiment("E8")
        params = _resolved("E8", {"cs": (0.1,), "ns": (50,), "seed": 3})
        store = RunStore.open(str(tmp_path), "E8", params, workers=0)
        experiment.run(params=params, store=store)
        store.finish(wall_time=0.1)
        return store, params

    def test_finish_writes_no_row_copy(self, tmp_path):
        store, _ = self._finished_run(tmp_path)
        assert "columnar" not in store.manifest
        assert sorted(os.listdir(store.path)) == \
            ["manifest.json", "rows.jsonl"]
        records = read_jsonl_records(os.path.join(store.path, "rows.jsonl"))
        assert records_to_rows(records) == store.rows()

    def test_stale_columnar_files_are_ignored(self, tmp_path):
        from repro.results.query import run_query

        store, params = self._finished_run(tmp_path)
        # Leftovers from the retired columnar copy, now out of date.
        (tmp_path / "E8" / os.path.basename(store.path) /
         "rows.columns.json").write_text('{"codec": "json-columns"}\n{}\n')
        (tmp_path / "E8" / os.path.basename(store.path) /
         "rows.parquet").write_bytes(b"PAR1 not really")
        store.write_row(99, ["extra-cell"], {"n": 1})
        _, rows = load_run(store.path)
        assert rows == store.rows()
        assert run_query(str(tmp_path), "SELECT COUNT(*) FROM rows").rows \
            == [(store.row_count,)]
        assert RunStore.open(str(tmp_path), "E8", params).rows() == rows

    def test_manifest_columnar_block_dropped_at_next_rewrite(self,
                                                             tmp_path):
        store, params = self._finished_run(tmp_path)
        manifest_path = os.path.join(store.path, "manifest.json")
        manifest = store.manifest
        manifest["columnar"] = {"codec": "json-columns", "rows": 4,
                                "source_digest": "0" * 64}
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle, allow_nan=False)
        assert load_run(store.path)[1] == store.rows()
        reopened = RunStore.open(str(tmp_path), "E8", params)
        assert "columnar" not in reopened.manifest
        assert reopened.rows() == store.rows()
