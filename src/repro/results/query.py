"""SQL over every stored run: the ``repro query`` backend.

:func:`mount_store` flattens the results store into up to four tables:

* ``rows`` — one record per stored data row, with the owning run's
  manifest fields joined in as columns (``experiment``, ``run_id``,
  ``seed``, ``backend``, ``completed``, ``wall_time_seconds``,
  ``params`` and ``run_health`` as JSON text, ``health_failures``), plus
  the row's cell identity (``cell``, ``row_index``) and every column of
  the row itself.  Each experiment is also a view over it:
  ``SELECT * FROM E2 ...``.
* ``runs`` — one record per run directory (the manifest summary, with
  ``row_count`` taken from the rows actually readable on disk, not from
  the manifest — a debounced manifest may lag a killed run by a few
  rows).
* ``spans`` — one record per span of the runs' ``telemetry.jsonl``
  event logs (``span_id``, ``parent_id``, ``name``, ``t0``, ``dur`` plus
  every span attribute seen — ``tag``, ``scope``, ``ok``...), with
  ``experiment``/``run_id`` joined in.  Empty when no run has telemetry.
* ``metrics`` — one record per counter/gauge event (``kind``, ``name``,
  ``t``, ``delta``, ``value``), same join columns.

Reading goes through :func:`repro.results.store.scan_runs`, so corrupt
run directories are skipped with a warning instead of bricking every
query.  ``rows.jsonl`` is read only when ``rows``, ``runs`` or an
experiment view is mounted; a query over ``spans``/``metrics`` alone
reads the manifests and event logs.

:func:`run_query` executes the SQL with the standard library's
``sqlite3`` against an in-memory database that holds only the tables
and views the SQL names: a word of the query that matches no table
costs nothing, and a word that matches one by accident only mounts an
extra table, so results never depend on the match.  SQL identifiers are
case-insensitive, so a column whose name case-folds to one already
taken gets a ``_<k>`` suffix (E8's constants ``c`` and ``C`` read back
as ``c`` and ``C_2``).  Values keep their stored types: columns are
untyped, and a column holding only booleans reads back as booleans.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from itertools import groupby
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import (Any, Callable, Collection, Dict, List, Mapping, Optional,
                    Tuple)

from repro.results.store import scan_runs
from repro.telemetry import TELEMETRY_NAME, read_events

#: Manifest-derived columns of the ``rows`` table, in order.  A row
#: column with the same name (e.g. the experiments' own ``experiment``
#: field) overwrites the joined value — for real data they agree.
ROW_META_COLUMNS = (
    "experiment", "run_id", "seed", "backend", "completed",
    "wall_time_seconds", "params", "run_health", "health_failures",
    "cell", "row_index",
)

RUNS_COLUMNS = (
    "experiment", "run_id", "seed", "backend", "completed",
    "wall_time_seconds", "row_count", "health_failures", "params",
)

#: Fixed columns of the ``spans`` table; span attributes follow
#: dynamically in first-seen order.
SPAN_META_COLUMNS = (
    "experiment", "run_id", "span_id", "parent_id", "name", "t0", "dur",
)

METRICS_COLUMNS = (
    "experiment", "run_id", "kind", "name", "t", "delta", "value",
)

#: The fixed event-schema keys of a span event; everything else on the
#: event is a free-form attribute.
_SPAN_EVENT_KEYS = ("kind", "id", "parent", "name", "t0", "dur")

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED_TABLES = {"rows", "runs", "spans", "metrics"}


def _strict_encoder(sort_keys: bool) -> Callable[[Any], str]:
    """``JSONEncoder(sort_keys=..., allow_nan=False).encode``, built once.

    ``encode`` builds a fresh C encoder on every call, which dominates
    mounting container cells (span tags, cell keys); the reused one
    writes the same text.  Stored values are parsed JSON, so they cannot
    be circular and the cycle check is skipped.
    """
    encoder = json.JSONEncoder(sort_keys=sort_keys, allow_nan=False)
    if c_make_encoder is None:  # no C accelerator
        return encoder.encode
    iterencode = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, sort_keys, False,
        False)
    return lambda value: "".join(iterencode(value, 0))


_dumps_sorted = _strict_encoder(sort_keys=True)
_dumps_strict = _strict_encoder(sort_keys=False)


class QueryError(ValueError):
    """A query that cannot be executed (bad SQL, unknown table...)."""


@dataclass
class MountedStore:
    """The results store flattened into queryable tables.

    ``tables`` holds only the mounted tables; ``views`` names the
    experiments mounted as views over ``rows``.
    """

    tables: Dict[str, List[Dict[str, Any]]]
    columns: Dict[str, List[str]]
    views: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class QueryResult:
    """One executed query: labelled columns and tuple rows."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def _health_failures(manifest: Mapping[str, Any]) -> int:
    block = manifest.get("run_health") or {}
    return len(block.get("failures", []) or [])


def _json_cell(value: Any) -> Any:
    if isinstance(value, (dict, list)):
        return _dumps_sorted(value)
    return value


def mount_store(root: str, experiment: Optional[str] = None,
                names: Optional[Collection[str]] = None) -> MountedStore:
    """Flatten the loadable runs under ``root`` into tables.

    ``names`` are the lower-cased words of a query (see
    :func:`run_query`): only the tables and experiment views they name
    are built.  ``None`` mounts everything.
    """
    # rows.jsonl is parsed only for the tables built from it: a query
    # over the event logs reads manifests and telemetry only.
    read_rows = names is None or not names.isdisjoint(("rows", "runs"))
    runs = list(scan_runs(root, experiment=experiment, rows=read_rows))
    views: List[str] = []
    for _, manifest, _ in runs:
        name = manifest["experiment"]
        if (name not in views and _IDENTIFIER_RE.match(name) and
                name.lower() not in _RESERVED_TABLES and
                (names is None or name.lower() in names)):
            views.append(name)
    if views and not read_rows:  # an experiment view is over rows
        runs = list(scan_runs(root, experiment=experiment))

    def wanted(table: str) -> bool:
        return names is None or table in names

    tables: Dict[str, List[Dict[str, Any]]] = {}
    columns: Dict[str, List[str]] = {}
    if wanted("runs"):
        tables["runs"], columns["runs"] = [], list(RUNS_COLUMNS)
    if wanted("rows") or views:
        tables["rows"], columns["rows"] = [], list(ROW_META_COLUMNS)
    if wanted("spans"):
        tables["spans"], columns["spans"] = [], list(SPAN_META_COLUMNS)
    if wanted("metrics"):
        tables["metrics"], columns["metrics"] = [], list(METRICS_COLUMNS)
    seen = {table: set(declared) for table, declared in columns.items()}

    for run_dir, manifest, records in runs:
        run_id = run_dir.rstrip("/").rsplit("/", 1)[-1]
        name = manifest["experiment"]
        meta = {
            "experiment": name,
            "run_id": run_id,
            "seed": manifest.get("seed"),
            "backend": manifest.get("backend"),
            "completed": bool(manifest.get("completed")),
            "wall_time_seconds": manifest.get("wall_time_seconds"),
            "params": _dumps_sorted(manifest.get("params")),
            "run_health": _dumps_sorted(manifest.get("run_health")),
            "health_failures": _health_failures(manifest),
        }
        if "runs" in tables:
            tables["runs"].append({
                **{key: meta[key] for key in
                   ("experiment", "run_id", "seed", "backend", "completed",
                    "wall_time_seconds", "params", "health_failures")},
                "row_count": len(records),
            })
        if "rows" in tables:
            for record in records:
                flattened = dict(meta)
                flattened["cell"] = _dumps_strict(record["key"])
                flattened["row_index"] = record["index"]
                for column, value in record["row"].items():
                    if column not in seen["rows"]:
                        seen["rows"].add(column)
                        columns["rows"].append(column)
                    flattened[column] = _json_cell(value)
                tables["rows"].append(flattened)
        if "spans" not in tables and "metrics" not in tables:
            continue
        for event in read_events(os.path.join(run_dir, TELEMETRY_NAME)):
            kind = event.get("kind")
            if kind == "span" and "spans" in tables:
                span_row: Dict[str, Any] = {
                    "experiment": name, "run_id": run_id,
                    "span_id": event.get("id"),
                    "parent_id": event.get("parent"),
                    "name": event.get("name"),
                    "t0": event.get("t0"),
                    "dur": event.get("dur"),
                }
                for key, value in event.items():
                    if key in _SPAN_EVENT_KEYS:
                        continue
                    if key not in seen["spans"]:
                        seen["spans"].add(key)
                        columns["spans"].append(key)
                    span_row[key] = _json_cell(value)
                tables["spans"].append(span_row)
            elif kind in ("counter", "gauge") and "metrics" in tables:
                tables["metrics"].append({
                    "experiment": name, "run_id": run_id,
                    "kind": kind, "name": event.get("name"),
                    "t": event.get("t"),
                    "delta": event.get("delta"),
                    "value": _json_cell(event.get("value")),
                })
    return MountedStore(tables=tables, columns=columns, views=views)


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _sql_names(columns: List[str]) -> List[str]:
    """Column names unique under SQL's case-insensitive matching."""
    taken = set()
    out = []
    for column in columns:
        name, k = column, 2
        while name.lower() in taken:
            name, k = f"{column}_{k}", k + 1
        taken.add(name.lower())
        out.append(name)
    return out


def _load_table(connection: Any, table: str, columns: List[str],
                rows: List[Dict[str, Any]]) -> None:
    """Create ``table`` and insert ``rows`` in order.

    Neighbouring rows with the same key set go in as one batch, so the
    rowid order (what a query without ORDER BY returns) is scan order.
    """
    groups = [(keys, [tuple(row.values()) for row in run])
              for keys, run in groupby(rows, key=tuple)]
    # Untyped columns keep ints as ints; only a column whose non-null
    # values are all bools is declared, so its converter hands booleans
    # back.  The first batch holding a column usually rules it out.
    maybe_bool = set(columns)
    bools = set()
    for keys, values in groups:
        for key, column in zip(keys, zip(*values)):
            if key in maybe_bool:
                kinds = set(map(type, column))
                kinds.discard(type(None))
                if kinds - {bool}:
                    maybe_bool.discard(key)
                elif kinds:
                    bools.add(key)
    bools &= maybe_bool
    quoted = dict(zip(columns, map(_quote, _sql_names(columns))))
    declared = [quoted[column] + (" BOOLEAN" if column in bools else "")
                for column in columns]
    connection.execute(
        f"CREATE TABLE {_quote(table)} ({', '.join(declared)})")
    inserts: Dict[Tuple[str, ...], str] = {}
    for keys, values in groups:
        if keys not in inserts:
            inserts[keys] = (
                f"INSERT INTO {_quote(table)} "
                f"({', '.join(quoted[key] for key in keys)}) "
                f"VALUES ({', '.join('?' * len(keys))})")
        connection.executemany(inserts[keys], values)


def _connect(store: MountedStore) -> Any:
    import sqlite3

    sqlite3.register_converter("BOOLEAN", lambda raw: raw != b"0")
    connection = sqlite3.connect(":memory:",
                                 detect_types=sqlite3.PARSE_DECLTYPES)
    with connection:
        for table, rows in store.tables.items():
            _load_table(connection, table, store.columns[table], rows)
        for name in store.views:  # vetted identifiers
            connection.execute(
                f'CREATE VIEW "{name}" AS SELECT * FROM rows '
                f"WHERE experiment = '{name}'")
    # Queries read the mounted store; they never write or attach files.
    connection.execute("PRAGMA query_only = ON")
    connection.set_authorizer(
        lambda action, *_: sqlite3.SQLITE_DENY
        if action == sqlite3.SQLITE_ATTACH else sqlite3.SQLITE_OK)
    return connection


def query_store(store: MountedStore, sql: str) -> QueryResult:
    """Execute SQL against an already-mounted store."""
    import sqlite3

    try:
        connection = _connect(store)
    except OverflowError as error:
        raise QueryError(f"cannot mount the store: {error} (SQLite "
                         f"integers are 64-bit)") from error
    try:
        cursor = connection.execute(sql)
        columns = [entry[0] for entry in cursor.description or ()]
        rows = cursor.fetchall()
    except (sqlite3.Error, sqlite3.Warning) as error:
        raise QueryError(f"sqlite rejected the query: {error}") from error
    finally:
        connection.close()
    return QueryResult(columns=columns, rows=rows)


def run_query(root: str, sql: str) -> QueryResult:
    """Mount the tables ``sql`` names under ``root`` and execute it."""
    names = {word.lower() for word in _WORD_RE.findall(sql)}
    return query_store(mount_store(root, names=names), sql)


__all__ = [
    "METRICS_COLUMNS",
    "MountedStore",
    "QueryError",
    "QueryResult",
    "ROW_META_COLUMNS",
    "RUNS_COLUMNS",
    "SPAN_META_COLUMNS",
    "mount_store",
    "query_store",
    "run_query",
]
