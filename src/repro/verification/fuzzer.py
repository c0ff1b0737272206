"""Fuzz campaigns: seed-deterministic adversarial schedule fuzzing at scale.

A *campaign* is ``trials`` independent executions of one protocol, each
under a freshly seeded schedule fuzzer
(:class:`~repro.adversaries.fuzzing.ScheduleFuzzer` on the window engine,
:class:`~repro.adversaries.fuzzing.StepFuzzer` on the step engine), each
recording a full trace, each trace re-checked by the independent
:class:`~repro.verification.invariants.InvariantChecker`.  Trials fan out
through :mod:`repro.runner` exactly like experiment cells, so worker count
affects wall-clock time only — ``repro fuzz --trials 200 --seed 0`` yields
bit-identical findings at ``--workers 0``, ``1`` and ``4``.

Campaigns persist through :class:`repro.results.RunStore` under the
pseudo-experiment name ``"fuzz"``: each trial is a one-spec cell of
:func:`repro.experiments.base.run_cells`, so rows stream as trials finish
and an interrupted campaign resumes where it stopped.  Violating
trials are (optionally) minimized by :mod:`repro.verification.shrink` and
written as self-contained counterexample JSON artifacts under
``<run_dir>/counterexamples/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversaries.fuzzing import ScheduleFuzzer, StepFuzzer
from repro.experiments.base import Cell, RowStore, run_cells
from repro.protocols.registry import get_protocol
from repro.results.store import RunStore
from repro.runner import (STEP_ENGINE, WINDOW_ENGINE, TrialSpec, derive_seed,
                          iter_trials)
from repro.simulation.trace import ExecutionResult
from repro.verification.invariants import InvariantChecker
from repro.verification.shrink import (ReplaySetup, save_counterexample,
                                       shrink_schedule)

FUZZ_EXPERIMENT = "fuzz"
"""Results-store experiment name fuzz campaigns are filed under."""

COUNTEREXAMPLE_DIR = "counterexamples"
"""Subdirectory of a fuzz run holding minimized schedule artifacts."""

ROW_SCHEMA: Tuple[str, ...] = (
    "trial", "protocol", "engine", "n", "t", "inputs", "engine_seed",
    "windows", "steps", "decided", "total_resets", "ok", "violations",
    "minimized_windows", "counterexample")
"""Column set of every fuzz-campaign row."""


def resolve_fuzz_params(protocol: str = "reset-tolerant",
                        trials: int = 100, seed: int = 0,
                        n: Optional[int] = None, t: Optional[int] = None,
                        max_windows: int = 60, max_steps: int = 6000,
                        engine: str = "auto") -> Dict[str, Any]:
    """Fill in campaign defaults, returning the canonical parameter dict.

    The dict is what the results store digests, so two invocations with
    the same resolved parameters share one run directory (and resume).

    The engine default follows the fault model: Byzantine protocols fuzz
    on the step engine (per-message corruption needs step granularity),
    everything else on the acceptable-window engine.  The fault placements
    follow the model too — resets for the strongly adaptive model, crashes
    for the crash model, equivocation for the Byzantine model.
    """
    info = get_protocol(protocol)
    if engine == "auto":
        engine = (STEP_ENGINE if "byzantine" in info.fault_model.lower()
                  else WINDOW_ENGINE)
    if engine not in (WINDOW_ENGINE, STEP_ENGINE):
        raise ValueError(f"engine must be 'auto', {WINDOW_ENGINE!r} or "
                         f"{STEP_ENGINE!r}, got {engine!r}")
    if n is None:
        n = 9 if engine == WINDOW_ENGINE else 7
    if n <= 1:
        raise ValueError(f"n must be at least 2, got {n}")
    if t is None:
        t = info.max_faults(n)
    if t <= 0:
        raise ValueError(
            f"protocol {protocol!r} tolerates no faults at n={n}; "
            f"choose a larger n")
    if t >= n:
        raise ValueError(f"fault bound t={t} must satisfy t < n={n}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    return {"protocol": protocol, "engine": engine, "n": n, "t": t,
            "trials": trials, "seed": seed, "max_windows": max_windows,
            "max_steps": max_steps}


def fuzz_trial_spec(params: Dict[str, Any], index: int) -> TrialSpec:
    """The (deterministic) specification of one campaign trial.

    Every draw comes from a per-trial stream seeded by
    :func:`repro.runner.derive_seed`, in a fixed order (inputs, adversary
    seed, engine seed), so trial ``index`` of a campaign is the same
    execution no matter which worker runs it, whether the campaign was
    resumed, or whether other trials were skipped.
    """
    rng = random.Random(derive_seed(params["seed"], index))
    n, t = params["n"], params["t"]
    inputs = tuple(rng.getrandbits(1) for _ in range(n))
    adversary_seed = rng.getrandbits(32)
    engine_seed = rng.getrandbits(32)
    if params["engine"] == WINDOW_ENGINE:
        crash_model = \
            "crash" in get_protocol(params["protocol"]).fault_model.lower()
        adversary_kwargs: Dict[str, Any] = {
            "seed": adversary_seed,
            # Fault placements follow the model under test: resets are the
            # strongly adaptive adversary's weapon, crashes the classical
            # crash adversary's.
            "reset_probability": 0.0 if crash_model else 0.35,
            "crash_probability": 0.25 if crash_model else 0.0,
        }
        return TrialSpec(
            protocol=params["protocol"], adversary="schedule-fuzzer",
            n=n, t=t, inputs=inputs, seed=engine_seed,
            adversary_kwargs=adversary_kwargs,
            max_windows=params["max_windows"], stop_when="all",
            record_trace=True, tag=(FUZZ_EXPERIMENT, index))
    corrupted = tuple(range(t))
    return TrialSpec(
        protocol=params["protocol"], adversary="step-fuzzer",
        n=n, t=t, inputs=inputs, seed=engine_seed,
        adversary_kwargs={"seed": adversary_seed, "corrupted": corrupted,
                          "strategy": "equivocate"},
        engine=STEP_ENGINE, max_steps=params["max_steps"], stop_when="all",
        record_trace=True, tag=(FUZZ_EXPERIMENT, index))


def _trial_checker(params: Dict[str, Any],
                   spec: TrialSpec) -> InvariantChecker:
    corrupted = spec.adversary_kwargs.get("corrupted", ())
    return InvariantChecker(corrupted=corrupted)


def _trial_row(params: Dict[str, Any], index: int, spec: TrialSpec,
               results: Sequence[ExecutionResult]) -> Dict[str, Any]:
    """The row of one trial: its one-spec cell's ``build_row``."""
    result, = results
    report = _trial_checker(params, spec).check_result(result)
    return {
        "trial": index,
        "protocol": params["protocol"],
        "engine": params["engine"],
        "n": params["n"],
        "t": params["t"],
        "inputs": "".join(str(bit) for bit in spec.inputs),
        "engine_seed": spec.seed,
        "windows": result.windows_elapsed,
        "steps": result.steps_elapsed,
        "decided": result.decided,
        "total_resets": result.total_resets,
        "ok": report.ok,
        "violations": report.summary(),
        "minimized_windows": None,
        "counterexample": None,
    }


@dataclass
class FuzzReport:
    """The outcome of one fuzz campaign.

    Attributes:
        params: the resolved campaign parameters.
        rows: one row dict per trial, in trial order.
        run_dir: the results-store directory (``None`` for unstored runs).
        computed_trials: trials actually executed this run (the rest came
            cached from the store).
        minimized_trials: findings minimized this run.
        failed_trials: trials that produced no row because execution kept
            failing through every recovery rung (recorded in the run's
            health ledger; a resumed campaign retries them).
    """

    params: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    run_dir: Optional[str] = None
    computed_trials: int = 0
    minimized_trials: int = 0
    failed_trials: int = 0

    @property
    def findings(self) -> List[Dict[str, Any]]:
        """The violating rows only."""
        return [row for row in self.rows if not row["ok"]]

    @property
    def clean(self) -> bool:
        """Whether every trial satisfied every invariant."""
        return not self.findings


def minimize_finding(params: Dict[str, Any], index: int,
                     artifact_path: Optional[str] = None
                     ) -> Tuple[int, List[str]]:
    """Re-run one violating trial, shrink its schedule, save the artifact.

    Works from the trial index alone (specs are derivable), so resumed
    campaigns can minimize findings whose executions happened in an
    earlier process.  Only window-engine trials carry a replayable window
    schedule; step-engine findings are reported unminimized.

    Returns:
        ``(minimized_window_count, violations)``.
    """
    if params["engine"] != WINDOW_ENGINE:
        raise ValueError("only window-engine findings can be minimized")
    from repro.runner import execute_trial

    spec = fuzz_trial_spec(params, index)
    result = execute_trial(spec)
    assert result.trace is not None
    setup = ReplaySetup(protocol=spec.protocol, n=spec.n, t=spec.t,
                        inputs=spec.inputs, seed=spec.seed,
                        protocol_kwargs=dict(spec.protocol_kwargs))
    shrunk = shrink_schedule(setup, result.trace.windows,
                             checker=_trial_checker(params, spec))
    if artifact_path is not None:
        save_counterexample(artifact_path, setup, shrunk.schedule,
                            shrunk.violations)
    return len(shrunk.schedule), shrunk.violations


def run_fuzz_campaign(params: Dict[str, Any],
                      workers: Optional[int] = None,
                      store: Optional[RunStore] = None,
                      minimize: bool = False,
                      policy: Optional[Any] = None,
                      health: Optional[Any] = None,
                      backend: Optional[str] = None,
                      telemetry: Optional[Any] = None) -> FuzzReport:
    """Run (or resume) a fuzz campaign.

    Args:
        params: resolved parameters from :func:`resolve_fuzz_params`.
        workers: worker processes for the trial fan-out (0 = serial).
        store: an open results store; trials whose rows it already holds
            are skipped, exactly like experiment cells.
        minimize: shrink every violating window-engine trial and persist
            the minimized schedule as a counterexample artifact (requires
            a store for the artifact files; unstored campaigns record the
            minimized size only).
        policy: execution policy for the supervising executor (retries,
            watchdog, chaos); default: retries on, no watchdog, no chaos.
        health: the run-health ledger recovery actions are recorded into.
        backend: execution backend (``trial`` / ``batched`` / ``auto``);
            ``batched`` vectorizes supported fuzz trials, with
            bit-identical results by contract.
        telemetry: an optional :class:`~repro.telemetry.Telemetry`
            recorder threaded through the trial fan-out; rows are
            bit-identical with or without it.
    """
    import os

    from repro.runner.health import RunHealth

    if health is None:
        health = RunHealth()
    cells = []
    for index in range(params["trials"]):
        spec = fuzz_trial_spec(params, index)
        cells.append((index, Cell(
            key=(FUZZ_EXPERIMENT, index), specs=(spec,),
            build_row=partial(_trial_row, params, index, spec))))
    execute = partial(iter_trials, workers=workers, policy=policy,
                      health=health, backend=backend, telemetry=telemetry)
    run = run_cells(cells, store if store is not None else RowStore(),
                    execute, telemetry=telemetry)
    if store is not None:
        store.record_health(health)
    report = FuzzReport(params=params,
                        rows=[row for row in run.rows if row is not None],
                        run_dir=store.path if store is not None else None,
                        computed_trials=run.computed,
                        failed_trials=run.failed)
    if minimize and params["engine"] == WINDOW_ENGINE:
        for row in report.findings:
            if row.get("minimized_windows") is not None:
                continue  # already minimized in a previous (resumed) run
            report.minimized_trials += 1
            artifact: Optional[str] = None
            if store is not None:
                artifact = os.path.join(
                    store.path, COUNTEREXAMPLE_DIR,
                    f"trial-{row['trial']}.json")
            minimized, _ = minimize_finding(params, row["trial"], artifact)
            row["minimized_windows"] = minimized
            if artifact is not None:
                row["counterexample"] = os.path.join(
                    COUNTEREXAMPLE_DIR, f"trial-{row['trial']}.json")
            if store is not None:
                # Rewriting the row appends a fresh line; the loader keeps
                # the last record per key, so the minimized row wins.
                store.write_row(row["trial"],
                                (FUZZ_EXPERIMENT, row["trial"]), row)
    return report


__all__ = [
    "FUZZ_EXPERIMENT",
    "COUNTEREXAMPLE_DIR",
    "ROW_SCHEMA",
    "ScheduleFuzzer",
    "StepFuzzer",
    "resolve_fuzz_params",
    "fuzz_trial_spec",
    "FuzzReport",
    "run_fuzz_campaign",
    "minimize_finding",
]
