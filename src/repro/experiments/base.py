"""The declarative experiment model: cells, experiments, and the run loop.

An :class:`Experiment` describes one table of EXPERIMENTS.md as data: a
name, a parameter grid (full-size defaults plus quick-mode overrides), a
cell builder that expands the grid into :class:`Cell` objects, a row
schema, and an optional finalizer for synthetic rows (the exponential-fit
rows of E2/E4).  The registry in :mod:`repro.experiments.registry` mirrors
the protocol and adversary registries, so every front end — the
``python -m repro`` CLI, the benchmark suite, the examples and the legacy
wrappers in :mod:`repro.analysis.experiments` — runs experiments through
the single code path implemented here.

A :class:`Cell` is one output row: a stable identity key, the
:class:`~repro.runner.spec.TrialSpec` batch backing the row (empty for
analytic experiments such as E3/E5/E8), and a ``build_row`` callback that
turns the cell's execution results into the row dict.  Because every seed
is drawn while cells are *built* (in the exact order the pre-registry
serial loops drew them), which cells later *execute* never perturbs any
other cell — that is what makes both the bit-identical legacy wrappers and
the results store's cell-level resume possible.

:func:`run_cells` is the one campaign loop: it skips the cells a
:class:`RowStore` already holds, streams the rest through a caller-built
executor and writes each row as it arrives.  Experiments, fuzz campaigns
(one cell per trial) and search campaigns (one call per generation) all
run through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from contextlib import nullcontext
from functools import partial
from typing import (Any, Callable, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

# ``run_trials`` is unused here but kept: perfbench's tracer patches it.
from repro.runner import TrialSpec, iter_trials, run_trials  # noqa: F401
from repro.runner.health import RunHealth, TrialFailure
from repro.simulation.trace import ExecutionResult

Row = Dict[str, Any]
CellBuilder = Callable[[Dict[str, Any], random.Random], List["Cell"]]
Finalizer = Callable[[List[Row], Dict[str, Any]], List[Row]]


@dataclass
class Cell:
    """One experiment cell: the trials behind one output row.

    Attributes:
        key: stable, JSON-serialisable identity of the cell within its run
            (e.g. ``("E2", 16)``); the results store uses it to recognise
            already-completed cells on resume.
        specs: the trial specs backing the row, in submission order.
            Analytic cells carry no specs and compute their row directly.
        build_row: maps the cell's results (aligned with ``specs``) to the
            row dict.  All randomness must come from seeds drawn at
            cell-build time, never at row-build time.
    """

    key: Tuple[Any, ...]
    specs: Tuple[TrialSpec, ...]
    build_row: Callable[[Sequence[ExecutionResult]], Row]


class RowStore:
    """The storage interface :func:`run_cells` writes through.

    :class:`repro.results.RunStore` is the real implementation; the base
    class documents the contract and doubles as an in-memory null store.
    """

    def completed_rows(self) -> Dict[str, Row]:
        """Rows already on disk, keyed by :func:`cell_key_id` (a new dict)."""
        return {}

    @property
    def row_count(self) -> int:
        """How many rows the store holds."""
        return 0

    def write_row(self, index: int, key: Tuple[Any, ...], row: Row) -> None:
        """Persist one freshly computed row."""

    def record_health(self, health: Optional["RunHealth"]) -> None:
        """Persist one execution's run-health ledger (no-op by default)."""


def cell_key_id(key: Sequence[Any]) -> str:
    """The canonical string identity of a cell key (JSON list syntax)."""
    import json

    return json.dumps(list(key))


@dataclass(frozen=True)
class Experiment:
    """A declarative experiment: parameter grid, cell expansion, schema.

    Attributes:
        name: canonical registry key ("E1" ... "E8").
        slug: human-readable alias ("feasibility", "exponential-rounds"...).
        title: one-line table title.
        description: what the experiment reproduces, for EXPERIMENTS.md.
        defaults: the full-size (paper-scale) parameter grid.  Always
            includes ``seed``, the master seed.
        quick_overrides: parameter overrides for ``--quick`` smoke runs.
        build_cells: expands resolved parameters into cells, drawing every
            per-trial seed from the master-seeded stream as it goes.
        row_schema: the exact key set of every row the experiment emits.
        finalize: optional synthesiser of extra rows (fits) computed from
            the data rows; re-applied when rendering stored runs, so
            synthetic rows are never persisted.
        parallel: whether the experiment fans trials out through
            :mod:`repro.runner` (False for the analytic experiments).
    """

    name: str
    slug: str
    title: str
    description: str
    defaults: Mapping[str, Any]
    quick_overrides: Mapping[str, Any]
    build_cells: CellBuilder
    row_schema: Tuple[str, ...]
    finalize: Optional[Finalizer] = None
    parallel: bool = True

    def resolve_params(self, params: Optional[Mapping[str, Any]] = None,
                       quick: bool = False) -> Dict[str, Any]:
        """Merge defaults, quick overrides and explicit parameters."""
        merged: Dict[str, Any] = dict(self.defaults)
        if quick:
            merged.update(self.quick_overrides)
        if params:
            unknown = set(params) - set(merged)
            if unknown:
                known = ", ".join(sorted(merged))
                raise ValueError(
                    f"unknown parameter(s) {sorted(unknown)} for "
                    f"{self.name}; known parameters: {known}")
            merged.update(params)
        return merged

    def cells(self, params: Optional[Mapping[str, Any]] = None,
              quick: bool = False) -> List[Cell]:
        """Expand the (resolved) parameter grid into cells."""
        merged = self.resolve_params(params, quick=quick)
        rng = random.Random(merged["seed"])
        return self.build_cells(merged, rng)

    def run(self, params: Optional[Mapping[str, Any]] = None, *,
            quick: bool = False, workers: Optional[int] = None,
            store: Optional[RowStore] = None,
            policy: Optional[Any] = None,
            health: Optional[RunHealth] = None,
            backend: Optional[str] = None,
            telemetry: Optional[Any] = None) -> List[Row]:
        """Run the experiment through :func:`run_cells` and return its rows.

        Cells whose rows ``store`` already holds are skipped (the resume
        path); without a ``store`` the null :class:`RowStore` stands in.

        Execution always goes through the supervising executor
        (:class:`~repro.runner.supervisor.SupervisedRunner`): retries and
        broken-pool recovery are on by default, tunable via ``policy``.
        A cell whose trials exhausted every recovery rung yields no row —
        its failure is recorded in ``health`` (and in the store's
        manifest ``run_health`` block) instead of killing the run; a
        later resume retries exactly the missing cells.

        ``backend`` selects the execution backend: ``"batched"`` (or
        ``"auto"`` with numpy present) routes vectorizable spec groups
        through :class:`~repro.batched.runner.BatchedRunner`, with
        bit-identical results by contract.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
        recorder: each pending cell's consumption becomes a ``cell``
        span and the pending trial total is gauged up front.  Rows are
        bit-identical with or without it.
        """
        merged = self.resolve_params(params, quick=quick)
        cells = self.build_cells(merged, random.Random(merged["seed"]))
        if store is None:
            store = RowStore()
        if health is None:
            health = RunHealth()
        if telemetry is not None:
            telemetry.gauge("cells_total", len(cells))
        execute = partial(iter_trials, workers=workers, policy=policy,
                          health=health, backend=backend,
                          telemetry=telemetry)
        run = run_cells(list(enumerate(cells)), store, execute,
                        telemetry=telemetry, span="cell")
        store.record_health(health)
        rows = [row for row in run.rows if row is not None]
        if self.finalize is not None:
            rows = rows + self.finalize(rows, merged)
        return rows


class CellRun(NamedTuple):
    """What :func:`run_cells` returns.

    Attributes:
        rows: one entry per cell, in the order the cells were given: the
            stored or freshly computed row, or ``None`` for a cell whose
            trials failed for good.
        computed: cells executed and written by this call.
        failed: cells left unwritten because a trial failed for good.
    """

    rows: List[Optional[Row]]
    computed: int
    failed: int


def run_cells(cells: Sequence[Tuple[int, Cell]], store: RowStore,
              execute: Callable[[List[TrialSpec]], Iterator[Any]],
              telemetry: Optional[Any] = None,
              span: Optional[str] = None) -> CellRun:
    """The one campaign loop: resume, stream, write.

    Experiments, fuzz campaigns and search generations all run through
    here.  ``cells`` pairs each cell with its row index in the run.
    Cells whose rows ``store`` already holds are skipped; the specs of
    the rest go to ``execute`` as one batch, whose results must stream
    back in submission order, and each row is built and written the
    moment its cell's results arrive.  A cell with a failed trial stays
    unwritten: the failure is already in the health ledger, and a
    resume retries the cell.

    ``execute`` is built by the caller from its own module's
    ``iter_trials``, so the runner call keeps its call site.  With
    ``telemetry`` the pending trial count is gauged as ``trials_total``,
    and with a ``span`` name too, consuming each pending cell's results
    is timed as one span of that name.
    """
    completed = store.completed_rows()
    pending = [(index, cell) for index, cell in cells
               if cell_key_id(cell.key) not in completed]
    specs = [spec for _, cell in pending for spec in cell.specs]
    if telemetry is not None:
        telemetry.gauge("trials_total", len(specs))
    stream = execute(specs)
    computed = failed = 0
    for index, cell in pending:
        # Chunk/trial spans recorded while this cell's results are
        # consumed nest under its span; a chunk crossing cell boundaries
        # books under the cell that consumed it (see PERFORMANCE.md).
        with (telemetry.span(span, cell=list(cell.key))
              if telemetry is not None and span is not None
              else nullcontext()):
            chunk = [next(stream) for _ in cell.specs]
        if any(isinstance(item, TrialFailure) for item in chunk):
            failed += 1
            continue
        row = cell.build_row(chunk)
        store.write_row(index, cell.key, row)
        completed[cell_key_id(cell.key)] = row
        computed += 1
    rows = [completed.get(cell_key_id(cell.key)) for _, cell in cells]
    return CellRun(rows, computed, failed)


__all__ = ["Cell", "CellRun", "Experiment", "Row", "RowStore", "cell_key_id",
           "run_cells"]
