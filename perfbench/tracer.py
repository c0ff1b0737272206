"""In-memory span tracer that instruments ``repro`` from outside.

The traced benchmark run imports this module in the processes it launches
(the CLI launcher ``traced.py`` and the read mix ``readmix.py``) and calls
:func:`install`.  Nothing under ``src/`` changes: every wrapper replaces a
name where its caller looks it up — the module global
``repro.runner.parallel.execute_trial`` that ``_execute_chunk`` calls, the
``iter_trials`` that ``repro.experiments.base`` imported, a method on its
class — so pool workers forked from the instrumented process inherit the
wrappers.

Spans stay in memory.  Each process writes its own file when it ends: the
launcher calls :meth:`Tracer.dump` itself, and a forked worker dumps from a
``multiprocessing`` finalizer, which runs when the pool shuts the worker
down.  A span's *self* time is its duration minus the time of the traced
spans nested inside it.  Spans on the per-window hot path (``run_window``
and the two network calls) keep only their durations, not full records.
"""

from __future__ import annotations

import array
import functools
import json
import multiprocessing.util
import os
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Spans, durations and counts of one process, kept in memory."""

    def __init__(self, trace_dir: str, role: str) -> None:
        self.trace_dir = trace_dir
        self.role = role
        self.pid = os.getpid()
        self.parent: Optional[int] = None
        self.call_id: Optional[int] = None
        self.calls: Dict[int, Dict[str, Any]] = {}
        self._next_call = 0
        self._dumped = False
        self._finalizer = True  # the launching process dumps explicitly
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.durations: Dict[str, array.array] = {}
        self.self_times: Dict[str, float] = {}
        self.records: List[list] = []
        self.counts: Counter = Counter()
        self.stack: List[list] = []
        self._next_span = 0

    def _after_fork(self) -> None:
        # A forked pool worker: start empty, but keep ``call_id`` so the
        # worker's trials are attributed to the dispatch that forked it.
        self.parent = self.pid
        self.pid = os.getpid()
        self.role = "worker"
        self.calls = {}
        self._dumped = False
        self._finalizer = False
        self._reset()

    def _ensure_finalizer(self) -> None:
        # Registered lazily: the multiprocessing bootstrap clears the
        # finalizer registry right after the fork.
        if not self._finalizer:
            self._finalizer = True
            multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    # -- spans ---------------------------------------------------------
    def begin(self) -> list:
        """Open a span frame: ``[start, child time, span id, parent id]``."""
        parent = self.stack[-1][2] if self.stack else None
        self._next_span += 1
        frame = [_clock(), 0.0, self._next_span, parent]
        self.stack.append(frame)
        return frame

    def end(self, name: str, frame: list, keep: bool = True,
            **attrs: Any) -> float:
        """Close ``frame`` as a span called ``name``; returns its duration."""
        duration = _clock() - frame[0]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += duration
        durations = self.durations.get(name)
        if durations is None:
            durations = self.durations[name] = array.array("d")
            self.self_times[name] = 0.0
        durations.append(duration)
        self.self_times[name] += duration - frame[1]
        if keep:
            self.records.append([frame[2], frame[3], name, frame[0],
                                 duration, self.call_id, attrs or None])
        return duration

    def wrap(self, fn: Callable, name: str, keep: bool = True,
             on_result: Optional[Callable[..., None]] = None,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> Callable:
        """``fn`` recorded as span ``name`` on every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if keep:
                tracer._ensure_finalizer()
            frame = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                extra = attrs(*args, **kwargs) if attrs is not None else {}
                tracer.end(name, frame, keep=keep, **extra)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    # -- runner dispatch -----------------------------------------------
    def new_call(self, workers: int, specs: int, site: str) -> int:
        """Register one ``run_trials``/``iter_trials`` call."""
        self._next_call += 1
        self.calls[self._next_call] = {
            "workers": workers, "specs": specs, "site": site,
            "dispatch_s": 0.0, "first": None, "last": None}
        return self._next_call

    # -- output --------------------------------------------------------
    def dump(self) -> None:
        """Write this process's spans to ``trace_dir`` (once)."""
        if self._dumped:
            return
        self._dumped = True
        stem = os.path.join(self.trace_dir, f"{self.role}-{self.pid}")
        index = []
        offset = 0
        with open(stem + ".bin", "wb") as handle:
            for name, durations in self.durations.items():
                handle.write(durations.tobytes())
                index.append([name, offset, len(durations),
                              self.self_times[name]])
                offset += len(durations)
        with open(stem + ".json", "w") as handle:
            json.dump({"role": self.role, "pid": self.pid,
                       "parent": self.parent,
                       "durations": index, "records": self.records,
                       "counts": dict(self.counts),
                       "calls": {str(k): v for k, v in self.calls.items()}},
                      handle)


# ----------------------------------------------------------------------
# Patching helpers.
# ----------------------------------------------------------------------
def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]
           ) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping method kinds."""
    raw = vars(owner).get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


def _add_result_counts(counts: Counter, prefix: str, result: Any) -> None:
    counts[prefix + "trials"] += 1
    counts[prefix + "windows"] += getattr(result, "windows_elapsed", 0)
    counts[prefix + "steps"] += getattr(result, "steps_elapsed", 0)
    counts[prefix + "messages_sent"] += getattr(result, "messages_sent", 0)
    counts[prefix + "messages_delivered"] += getattr(
        result, "messages_delivered", 0)


def _dispatch(tracer: Tracer, fn: Callable, site: str,
              streaming: bool) -> Callable:
    """Wrap ``run_trials``/``iter_trials``: time every result handed over.

    Only the time the caller spends inside the runner counts as dispatch;
    for a stream that is the time inside each ``next()``.  Results are
    counted here, at the runner boundary, so the work counts are the same
    on every backend and worker count.
    """
    from repro.runner.parallel import default_workers

    def traced(specs, workers=None, *args, **kwargs):
        specs = list(specs)
        effective = default_workers() if workers is None else workers
        call = tracer.new_call(min(effective, len(specs)), len(specs), site)
        entry = tracer.calls[call]

        def timed(step: Callable[[], Any]) -> Any:
            outer = tracer.call_id
            tracer.call_id = call
            frame = tracer.begin()
            try:
                return step()
            finally:
                duration = tracer.end("runner.dispatch", frame, keep=False)
                tracer.call_id = outer
                entry["dispatch_s"] += duration
                if entry["first"] is None:
                    entry["first"] = frame[0]
                entry["last"] = frame[0] + duration

        def count(result: Any) -> None:
            _add_result_counts(tracer.counts, "work.", result)
            tracer.counts[f"site.{site}.results"] += 1

        if not streaming:
            results = timed(lambda: fn(specs, workers, *args, **kwargs))
            for result in results:
                count(result)
            return results
        inner = fn(specs, workers, *args, **kwargs)

        def stream():
            while True:
                try:
                    result = timed(lambda: next(inner))
                except StopIteration:
                    return
                count(result)
                yield result

        return stream()

    return traced


def _engine_counts(tracer: Tracer) -> Callable[..., None]:
    def on_result(result: Any, *args: Any, **kwargs: Any) -> None:
        _add_result_counts(tracer.counts, "simulation.", result)
    return on_result


def install(trace_dir: str, role: str) -> Tracer:
    """Instrument ``repro`` in this process; ``role`` is ``cli`` or ``reads``.

    The CLI role wraps the experiment, runner, simulation, batched, store,
    telemetry, search and fuzz layers; the reads role wraps the query,
    report and show entry points the read mix calls.
    """
    tracer = Tracer(trace_dir, role)
    if role == "reads":
        _install_reads(tracer)
    else:
        _install_cli(tracer)
    return tracer


def _install_reads(tracer: Tracer) -> None:
    import repro.results
    import repro.results.query
    import repro.results.report

    wrap = tracer.wrap
    _patch(repro.results.query, "mount_store",
           lambda fn: wrap(fn, "query.mount"))
    _patch(repro.results.query, "query_store",
           lambda fn: wrap(fn, "query.exec"))
    _patch(repro.results.report, "build_report",
           lambda fn: wrap(fn, "report.build"))
    for name in ("load_run", "latest_run"):
        _patch(repro.results, name, lambda fn: wrap(fn, "show.load"))


def _install_cli(tracer: Tracer) -> None:
    import repro.batched.engine
    import repro.batched.runner
    import repro.cli
    import repro.experiments.base
    import repro.experiments.registry
    import repro.results.store
    import repro.runner
    import repro.runner.parallel
    import repro.runner.spec
    import repro.runner.supervisor
    import repro.search
    import repro.search.campaign
    import repro.simulation.engine
    import repro.simulation.network
    import repro.simulation.windows
    import repro.telemetry.recorder
    import repro.verification.fuzzer
    import repro.verification.invariants

    wrap = tracer.wrap
    counts = tracer.counts

    # Simulation: the per-trial entry point and both engines.  The trial
    # wrapper is the first traced call in a forked worker, so it also
    # registers the worker's dump.
    for module in (repro.runner.parallel, repro.runner.supervisor,
                   repro.runner, repro.runner.spec):
        _patch(module, "execute_trial",
               lambda fn: wrap(fn, "simulation.trial"))
    _patch(repro.simulation.windows.WindowEngine, "run",
           lambda fn: wrap(fn, "simulation.window_run",
                           on_result=_engine_counts(tracer)))
    _patch(repro.simulation.engine.StepEngine, "run",
           lambda fn: wrap(fn, "simulation.step_run",
                           on_result=_engine_counts(tracer)))
    _patch(repro.simulation.windows.WindowEngine, "run_window",
           lambda fn: wrap(fn, "simulation.run_window", keep=False))
    for name in ("submit", "take_window_deliveries"):
        _patch(repro.simulation.network.Network, name,
               lambda fn: wrap(fn, "simulation.network", keep=False))

    # Runner: every call site of the two dispatch entry points.
    _patch(repro.experiments.base, "iter_trials",
           lambda fn: _dispatch(tracer, fn, "experiments", True))
    _patch(repro.experiments.base, "run_trials",
           lambda fn: _dispatch(tracer, fn, "experiments", False))
    _patch(repro.verification.fuzzer, "iter_trials",
           lambda fn: _dispatch(tracer, fn, "fuzz", True))
    _patch(repro.search.campaign, "iter_trials",
           lambda fn: _dispatch(tracer, fn, "search", True))

    # Batched backend: engine groups and the routing stats per call.
    def group_attrs(engine: Any) -> Dict[str, Any]:
        return {"trials": engine.size}

    _patch(repro.batched.engine.BatchedWindowEngine, "run",
           lambda fn: wrap(fn, "batched.group", attrs=group_attrs))

    def routed(fn: Callable) -> Callable:
        # The routing stats are final once the first result is out (the
        # groups run up front); callers need not drain the stream.
        @functools.wraps(fn)
        def traced(runner: Any, specs: Any) -> Any:
            before = dict(runner.stats)
            pending = True
            for result in fn(runner, specs):
                if pending:
                    pending = False
                    for key in ("batched", "fallback"):
                        counts[f"batched.{key}"] += \
                            runner.stats[key] - before[key]
                yield result
        return traced

    _patch(repro.batched.runner.BatchedRunner, "iter_results", routed)

    # Experiments: whole runs, cell expansion, row building, finalizers.
    def run_attrs(experiment: Any, *args: Any, **kwargs: Any
                  ) -> Dict[str, Any]:
        return {"experiment": experiment.name}

    _patch(repro.experiments.base.Experiment, "run",
           lambda fn: wrap(fn, "experiments.run", attrs=run_attrs))

    def traced_cell(cell: Any) -> None:
        build_row = cell.build_row

        def traced_row(results: Any) -> Any:
            counts["experiments.cells"] += 1
            counts["experiments.trials"] += len(cell.specs)
            return build_row(results)

        cell.build_row = wrap(traced_row, "experiments.build_row")

    def cells_builder(fn: Callable) -> Callable:
        def build(params: Any, rng: Any) -> Any:
            cells = fn(params, rng)
            for cell in cells:
                traced_cell(cell)
            return cells
        return wrap(build, "experiments.build_cells")

    for experiment in repro.experiments.registry.available_experiments():
        # Experiments are frozen dataclasses; the registry holds the
        # instances every caller sees.
        object.__setattr__(experiment, "build_cells",
                           cells_builder(experiment.build_cells))
        if experiment.finalize is not None:
            object.__setattr__(experiment, "finalize",
                               wrap(experiment.finalize,
                                    "experiments.finalize"))

    # Store and telemetry.
    store_cls = repro.results.store.RunStore
    _patch(store_cls, "open", lambda fn: wrap(fn, "store.open"))
    _patch(store_cls, "write_row",
           lambda fn: wrap(fn, "store.write_row", keep=False))
    _patch(store_cls, "finish", lambda fn: wrap(fn, "store.finish"))
    _patch(repro.telemetry.recorder.Telemetry, "flush",
           lambda fn: wrap(fn, "telemetry.flush"))

    # Campaigns: search (E9 and ``repro search``) and fuzz, plus the
    # invariant checker both call.
    for module in (repro.search, repro.search.campaign, repro.cli):
        _patch(module, "run_search_campaign",
               lambda fn: wrap(fn, "search.campaign"))
    for module in (repro.verification.fuzzer, repro.cli):
        _patch(module, "run_fuzz_campaign",
               lambda fn: wrap(fn, "fuzz.campaign"))
    _patch(repro.verification.invariants.InvariantChecker, "check",
           lambda fn: wrap(fn, "verification.check", keep=False))
