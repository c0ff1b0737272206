"""Tests for ``run_cells``, the one campaign loop under run/fuzz/search.

The driver is exercised with a fake executor, so the contract is pinned
independently of any engine: cached cells are skipped, a cell with a
failed trial is neither written nor returned, and a rerun on the same
store executes exactly the missing cells.
"""

from repro.experiments.base import Cell, RowStore, run_cells
from repro.results import RunStore
from repro.runner import TrialSpec
from repro.runner.health import TrialFailure
from repro.telemetry import Telemetry


def _spec(seed):
    return TrialSpec(protocol="ben-or", adversary="none", n=4, t=1,
                     inputs=(0, 1, 0, 1), seed=seed)


def _cells():
    """Three two-trial cells; a fake result is its spec's seed."""
    return [(index, Cell(key=("T", index),
                         specs=(_spec(10 * index), _spec(10 * index + 1)),
                         build_row=lambda results, index=index:
                             {"cell": index, "sum": sum(results)}))
            for index in range(3)]


class _FakeExecute:
    """Yields each spec's seed, or a failure for the seeds in ``fail``."""

    def __init__(self, fail=()):
        self.fail = set(fail)
        self.calls = []

    def __call__(self, specs):
        self.calls.append([spec.seed for spec in specs])
        return iter([TrialFailure(spec=spec, error="boom", attempts=3)
                     if spec.seed in self.fail else spec.seed
                     for spec in specs])


def test_failed_cell_is_unwritten_and_retried_alone(tmp_path):
    params = {"seed": 1}
    store = RunStore.open(str(tmp_path), "T", params)
    execute = _FakeExecute(fail={11})
    run = run_cells(_cells(), store, execute)

    assert execute.calls == [[0, 1, 10, 11, 20, 21]]
    assert run.rows == [{"cell": 0, "sum": 1}, None,
                        {"cell": 2, "sum": 41}]
    assert (run.computed, run.failed) == (2, 1)
    assert sorted(store.completed_rows()) == ['["T", 0]', '["T", 2]']

    resumed = RunStore.open(str(tmp_path), "T", params)
    retry = _FakeExecute()
    rerun = run_cells(_cells(), resumed, retry)
    assert retry.calls == [[10, 11]]
    assert rerun.rows == [{"cell": 0, "sum": 1}, {"cell": 1, "sum": 21},
                          {"cell": 2, "sum": 41}]
    assert (rerun.computed, rerun.failed) == (1, 0)


def test_telemetry_gauges_pending_trials_and_spans_pending_cells(tmp_path):
    store = RunStore.open(str(tmp_path), "T", {"seed": 2})
    run_cells(_cells()[:1], store, _FakeExecute())

    events = []
    telemetry = Telemetry()
    telemetry.add_listener(events.append)
    run_cells(_cells(), store, _FakeExecute(), telemetry=telemetry,
              span="cell")
    gauges = [event["value"] for event in events
              if event["kind"] == "gauge" and event["name"] == "trials_total"]
    spans = [event["cell"] for event in events if event["kind"] == "span"]
    assert gauges == [4]
    assert spans == [["T", 1], ["T", 2]]

    quiet = []
    telemetry = Telemetry()
    telemetry.add_listener(quiet.append)
    run_cells(_cells(), RowStore(), _FakeExecute(), telemetry=telemetry)
    assert not [event for event in quiet if event["kind"] == "span"]
