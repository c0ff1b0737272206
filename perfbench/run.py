"""End-to-end benchmark of ``repro``: one command, two workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload quick-suite --seed 0 \
        --seconds 10 --trace 0

Each workload runs the unmodified ``src/repro`` through its CLI, exactly
as a user would (``python -m repro ...``), into a fresh results store
under ``.perfbench/``.  The benchmark then checks the store against the
reference outputs in ``perfbench/reference/`` and times a fixed read mix
over it.  See ``perfbench/README.md`` for the workloads, the metrics and
how they relate.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload once untraced and once with every layer
entry point wrapped from outside (``tracer.py``), and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is the JSON result.  Exit code 0 means the benchmark ran; whether
the program's outputs were correct is the ``correct`` field.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
#: The program's master seed in every workload: the paper tables' seed.
MASTER_SEED = 0

#: Cold ``python -m repro list`` runs per repetition, alternating with
#: as many bursts of reads; also the ``-X importtime`` samples.
SETUP_RUNS = 3
#: Timed SQL reads per repetition, at least.
MIN_READS = 100
#: Seconds each read burst lasts, at least, in an end-to-end run.
BURST_S = 1.0
#: No repetition starts once a run has used this many seconds.
RUN_BUDGET_S = 150.0
#: Wall-clock limit for one CLI process.
COMMAND_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    """One workload: the CLI commands it runs and the runs it stores.

    ``commands`` omit ``--out``, ``--seed`` and ``--no-progress``, which
    every command gets.  ``reference`` names the reference family, which
    is generated with the per-trial backend.  A run makes at least
    ``repetitions`` repetitions.
    """

    commands: Tuple[Tuple[str, ...], ...]
    runs: Tuple[str, ...]
    reference: str
    why: str
    repetitions: int = 1


QUICK_RUNS = tuple(f"E{i}" for i in range(1, 10)) + ("fuzz",)
PAPER_RUNS = ("E2", "E4", "E6")

WORKLOADS: Dict[str, Workload] = {
    "quick-suite": Workload(
        commands=(("run", "--all", "--quick", "--workers", "0"),
                  ("fuzz", "--trials", "200", "--workers", "0")),
        runs=QUICK_RUNS, reference="quick", repetitions=2,
        why="what a user or CI runs first: serial, cold start, E7/E8/E9, "
            "fuzz, store writes and reads on tiny stores"),
    "paper-batched": Workload(
        commands=(("run", *PAPER_RUNS, "--workers", "2",
                   "--backend", "batched"),),
        runs=PAPER_RUNS, reference="paper",
        why="paper-scale E2/E4/E6 on the batched backend and 2 workers: "
            "E2 vectorizes, E4 and most of E6 fall back to the per-trial "
            "engines; rows must equal the per-trial reference"),
}


# ----------------------------------------------------------------------
# Processes.
# ----------------------------------------------------------------------
class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout()


@dataclass
class Spawn:
    wall_s: float
    peak_rss_mb: float
    code: int


def spawn(argv: Sequence[str], env: Dict[str, str], log: str) -> Spawn:
    """Run one process to exit; wall time and the peak RSS of its tree.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it reaped, so pool workers are included.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=env, stdout=out,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except CommandTimeout:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted or terminated: leave no process behind.
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def child_env(root: str, tmp: str) -> Dict[str, str]:
    """The program's default settings, importing ``repro`` from ``src``."""
    env = dict(os.environ)
    for name in ("REPRO_WORKERS", "REPRO_CHAOS", "PYTHONSTARTUP"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = tmp
    return env


def machine() -> Dict[str, Any]:
    """What a result was measured on; results of different machines are
    never compared."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # numpy missing: repro itself will fail to import
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version}


# ----------------------------------------------------------------------
# One repetition of a workload.
# ----------------------------------------------------------------------
@dataclass
class Repetition:
    wall_s: float
    peak_rss_mb: float
    operations: int
    failed: int
    problems: List[str]
    check: Dict[str, Any]


def run_commands(workload: Workload, master_seed: int, store: str,
                 env: Dict[str, str], log: str,
                 trace_dir: Optional[str] = None) -> List[Spawn]:
    """The workload's CLI processes, one after another, into ``store``."""
    if trace_dir is None:
        launcher = [sys.executable, "-m", "repro"]
    else:
        launcher = [sys.executable, os.path.join(HERE, "traced.py"),
                    trace_dir]
    return [spawn(launcher + list(command) +
                  ["--out", store, "--seed", str(master_seed),
                   "--no-progress"], env, log)
            for command in workload.commands]


def check_store(workload: Workload, store: str, env: Dict[str, str],
                log: str, seed: int, reference: Optional[str],
                trace_dir: Optional[str] = None, record: bool = False,
                between: Optional[Callable[[], None]] = None
                ) -> Dict[str, Any]:
    """Verify ``store`` and time the read mix (``readmix.py``).

    With ``between``, the reads run in ``SETUP_RUNS`` bursts of at least
    ``BURST_S`` seconds and ``between`` is called before each: the setup
    samples and the reads then alternate over a longer stretch of the
    run, so a run is less likely to see only one phase of a machine whose
    speed drifts.
    """
    bursts, burst_s = (SETUP_RUNS, BURST_S) if between is not None \
        else (1, 0.0)
    argv = [sys.executable, os.path.join(HERE, "readmix.py"),
            "--root", store, "--names", ",".join(workload.runs),
            "--seed", str(seed), "--min-reads", str(MIN_READS),
            "--bursts", str(bursts), "--burst-seconds", str(burst_s)]
    if record:
        argv.append("--record")
    else:
        argv += ["--reference", reference]
    if trace_dir is not None:
        argv += ["--trace-dir", trace_dir]
    with open(log, "ab") as errors:
        with subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=errors,
                              text=True) as proc:
            line = ""
            for line in proc.stdout:
                if line.strip() != "ready":
                    break
                if between is not None:
                    between()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            output = line + proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"readmix.py failed (exit {proc.returncode}); "
                           f"see {log}")
    return json.loads(output)


def repetition(workload: Workload, master_seed: int, seed: int,
               work_dir: str, env: Dict[str, str], reference: str,
               trace_dir: Optional[str] = None,
               setup: Optional[List[float]] = None) -> Repetition:
    """Run the workload into a fresh store, then check and read it.

    With ``setup``, cold-start samples are taken between the read bursts
    and appended to it.
    """
    store = os.path.join(work_dir, "store")
    shutil.rmtree(store, ignore_errors=True)
    log = os.path.join(work_dir, "log.txt")
    spawns = run_commands(workload, master_seed, store, env, log, trace_dir)
    between = None
    if setup is not None:
        def between() -> None:
            setup.append(time_setup(env, log))
    check = check_store(workload, store, env, log, seed, reference,
                        trace_dir, between=between)
    problems = list(check["problems"])
    bad_exits = [s.code for s in spawns if s.code != 0]
    if bad_exits:
        problems.append(f"CLI exit codes {bad_exits}; see {log}")
    return Repetition(
        wall_s=sum(s.wall_s for s in spawns),
        peak_rss_mb=max(s.peak_rss_mb for s in spawns),
        operations=check["operations"] + len(spawns),
        failed=check["failed"] + len(bad_exits),
        problems=problems, check=check)


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def time_setup(env: Dict[str, str], log: str) -> float:
    """One cold ``python -m repro list``: interpreter start,
    ``import repro.cli`` and the registry."""
    result = spawn([sys.executable, "-m", "repro", "list"], env, log)
    if result.code != 0:
        raise RuntimeError(f"`repro list` failed; see {log}")
    return result.wall_s


def import_times(env: Dict[str, str]) -> Dict[str, float]:
    """Median cumulative import time of ``repro.cli`` and
    ``repro.core.analysis`` (which imports scipy.stats), from
    ``-X importtime``."""
    samples = defaultdict(list)
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=COMMAND_TIMEOUT_S, check=True)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in (
                    "repro.cli", "repro.core.analysis"):
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {"import.cli_s": statistics.median(samples["repro.cli"]),
            "import.core_analysis_s":
                statistics.median(samples["repro.core.analysis"])}


# ----------------------------------------------------------------------
# Trace aggregation.
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """Every process's spans merged: durations and self time per span
    name, full records of the coarse spans, counts, dispatch calls."""

    durations: Dict[str, array] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=Counter)
    records: List[Tuple[int, list]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    calls: Dict[Tuple[int, int], Dict[str, Any]] = field(
        default_factory=dict)
    roles: Dict[int, Tuple[str, int]] = field(default_factory=dict)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))


def load_trace(trace_dir: str) -> Trace:
    trace = Trace()
    for entry in sorted(os.listdir(trace_dir)):
        if not entry.endswith(".json"):
            continue
        stem = os.path.join(trace_dir, entry[:-5])
        with open(stem + ".json") as handle:
            dump = json.load(handle)
        with open(stem + ".bin", "rb") as handle:
            raw = array("d")
            raw.frombytes(handle.read())
        pid, owner = dump["pid"], dump["parent"]
        trace.roles[pid] = (dump["role"], owner)
        for name, offset, length, self_s in dump["durations"]:
            trace.durations.setdefault(name, array("d")).extend(
                raw[offset:offset + length])
            trace.self_s[name] += self_s
        trace.counts.update(dump["counts"])
        for record in dump["records"]:
            trace.records.append((pid, record))
        for call, info in dump["calls"].items():
            trace.calls[(pid, int(call))] = info
    return trace


def dispatch_metrics(trace: Trace) -> Dict[str, float]:
    """Runner dispatch time, its self part and pool utilisation.

    Each trial or batched group is attributed to the dispatch call it ran
    under (a worker inherits the call id of the dispatch that forked it).
    ``dispatch_self_s`` is the dispatch time a call's engine work does not
    explain: dispatch minus busy time divided by the call's workers.
    """
    busy: Counter = Counter()
    worker_busy: Counter = Counter()
    for pid, record in trace.records:
        _, _, name, _, duration, call, _ = record
        if name not in ("simulation.trial", "batched.group") or call is None:
            continue
        role, owner = trace.roles[pid]
        key = (owner if role == "worker" else pid, call)
        busy[key] += duration
        if role == "worker":
            worker_busy[key] += duration
    dispatch = self_s = pool_capacity = pool_busy = 0.0
    for key, call in trace.calls.items():
        dispatch += call["dispatch_s"]
        self_s += call["dispatch_s"] - busy[key] / max(1, call["workers"])
        if call["workers"] >= 1 and call["specs"] >= 2 and call["first"]:
            pool_capacity += (call["last"] - call["first"]) * call["workers"]
            pool_busy += worker_busy[key]
    return {"runner.dispatch_s": dispatch,
            "runner.dispatch_self_s": self_s,
            "runner.worker_busy_frac":
                pool_busy / pool_capacity if pool_capacity else 0.0}


def span_summary(trace: Trace) -> List[Dict[str, Any]]:
    """Per span name: count, total, self, p50, p90 and max seconds."""
    rows = []
    for name in sorted(trace.durations):
        values = trace.durations[name]
        rows.append({"span": name, "count": len(values),
                     "total_s": sum(values), "self_s": trace.self_s[name],
                     "p50_s": percentile(values, 50),
                     "p90_s": percentile(values, 90),
                     "max_s": max(values)})
    return rows


#: The base of every derived per-layer ratio, printed beside it.
BASES = {
    "experiments.cells_s": "self time of build_cells + build_row",
    "runner.dispatch_self_s":
        "dispatch - engine busy / workers, per dispatch call",
    "runner.worker_busy_frac":
        "worker trial time / (pool call span x workers)",
    "simulation.adversary_s": "WindowEngine.run - run_window",
    "simulation.network_s": "Network.submit + take_window_deliveries",
    "simulation.windows_per_s": "simulation.windows / window_busy_s",
    "simulation.messages_per_s":
        "simulation.messages_sent / (window_busy_s + step_busy_s)",
    "batched.coverage": "batched.trials / (batched + fallback trials)",
    "batched.trials_per_group": "trials in groups / batched.groups",
    "batched.trials_per_s": "batched.trials / batched.busy_s",
    "search.evals_per_s": "search.evals / search.campaign_s",
    "fuzz.trials_per_s": "fuzz trials / fuzz.campaign_s",
    "trace.overhead_frac": "traced wall / untraced wall - 1",
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: Trace, check: Dict[str, Any],
                  store_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    counts = trace.counts
    total = trace.total
    metrics: Dict[str, float] = {
        "experiments.cells_s": trace.self_s["experiments.build_cells"] +
        trace.self_s["experiments.build_row"],
        "experiments.finalize_s": total("experiments.finalize"),
    }
    per_experiment: Counter = Counter()
    for _, record in trace.records:
        if record[2] == "experiments.run":
            per_experiment[record[6]["experiment"]] += record[4]
    for name in QUICK_RUNS[:-1]:
        metrics[f"experiments.run_s.{name}"] = per_experiment[name]
    metrics["experiments.cells"] = counts["experiments.cells"]
    metrics["experiments.trials"] = counts["experiments.trials"]
    metrics.update(dispatch_metrics(trace))
    metrics["runner.retries"] = check["retries"]
    metrics["runner.quarantined"] = check["quarantined"]

    trials = trace.durations.get("simulation.trial", ())
    window_busy = total("simulation.window_run")
    step_busy = total("simulation.step_run")
    run_window = total("simulation.run_window")
    metrics.update({
        "simulation.trial_p50_s": percentile(trials, 50),
        "simulation.trial_p90_s": percentile(trials, 90),
        "simulation.trials": len(trials),
        "simulation.window_busy_s": window_busy,
        "simulation.step_busy_s": step_busy,
        "simulation.run_window_s": run_window,
        "simulation.adversary_s": window_busy - run_window,
        "simulation.network_s": total("simulation.network"),
    })
    for name in ("windows", "steps", "messages_sent", "messages_delivered"):
        metrics[f"simulation.{name}"] = counts[f"simulation.{name}"]
    metrics["simulation.windows_per_s"] = ratio(
        counts["simulation.windows"], window_busy)
    metrics["simulation.messages_per_s"] = ratio(
        counts["simulation.messages_sent"], window_busy + step_busy)

    groups = trace.count("batched.group")
    grouped = sum(record[6]["trials"] for _, record in trace.records
                  if record[2] == "batched.group")
    batched, fallback = counts["batched.batched"], counts["batched.fallback"]
    busy = total("batched.group")
    metrics.update({
        "batched.busy_s": busy,
        "batched.trials": batched,
        "batched.fallback_trials": fallback,
        "batched.coverage": ratio(batched, batched + fallback),
        "batched.groups": groups,
        "batched.trials_per_group": ratio(grouped, groups),
        "batched.trials_per_s": ratio(batched, busy),
        "store.open_s": total("store.open"),
        "store.write_row_s": total("store.write_row"),
        "store.rows": trace.count("store.write_row"),
        "store.finish_s": total("store.finish"),
        "store.bytes": store_bytes,
        "query.mount_s": total("query.mount"),
        "query.exec_s": total("query.exec"),
        "report.build_s": total("report.build"),
        "show.load_s": total("show.load"),
        "telemetry.events": check["telemetry_events"],
        "telemetry.flush_s": total("telemetry.flush"),
    })
    search_s = total("search.campaign")
    fuzz_s = total("fuzz.campaign")
    metrics.update({
        "search.campaign_s": search_s,
        "search.evals": counts["site.search.results"],
        "search.evals_per_s": ratio(counts["site.search.results"],
                                    search_s),
        "fuzz.campaign_s": fuzz_s,
        "fuzz.trials_per_s": ratio(counts["site.fuzz.results"], fuzz_s),
        "verification.check_s": total("verification.check"),
    })
    return metrics


def work_counts(trace: Trace) -> Dict[str, int]:
    """The work a traced repetition did, pinned per workload and seed.

    Counted from results at the runner boundary, so they are the same on
    every backend and worker count.
    """
    counts = trace.counts
    pinned = {name: counts[name] for name in (
        "experiments.cells", "experiments.trials", "work.trials",
        "work.windows", "work.steps", "work.messages_sent",
        "work.messages_delivered")}
    pinned["search.evals"] = counts["site.search.results"]
    pinned["fuzz.trials"] = counts["site.fuzz.results"]
    pinned["store.rows"] = trace.count("store.write_row")
    return pinned


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


# ----------------------------------------------------------------------
# The two kinds of run.
# ----------------------------------------------------------------------
def reference_path(workload: Workload, master_seed: int) -> str:
    return os.path.join(REFERENCE_DIR,
                        f"{workload.reference}-seed{master_seed}.json")


def fresh_dir(*parts: str) -> str:
    path = os.path.join(*parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def end_to_end(workload: Workload, args, env, work_dir: str,
               reference: str) -> Tuple[Dict[str, Any], List[Repetition]]:
    setup: List[float] = []
    reps: List[Repetition] = []
    started = time.perf_counter()
    while True:
        reps.append(repetition(workload, args.master_seed, args.seed,
                               work_dir, env, reference, setup=setup))
        elapsed = time.perf_counter() - started
        if len(reps) >= workload.repetitions and elapsed >= args.seconds \
                or elapsed + elapsed / len(reps) > RUN_BUDGET_S:
            break
    latencies = [value for rep in reps for value in rep.check["latencies"]]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in reps),
                        "MB"),
        "query_p50_s": (percentile(latencies, 50), "s"),
        "query_p90_s": (percentile(latencies, 90), "s"),
    }
    samples = {"wall_s": len(reps), "setup_s": len(setup),
               "peak_rss_mb": len(reps), "query_p50_s": len(latencies),
               "query_p90_s": len(latencies)}
    return {"metrics": metrics, "samples": samples}, reps


def traced(workload: Workload, args, env, work_dir: str, reference: str
           ) -> Tuple[Dict[str, Any], List[Repetition]]:
    with open(reference) as handle:
        pinned = json.load(handle)["work"]
    baseline = repetition(workload, args.master_seed, args.seed, work_dir,
                          env, reference)
    trace_dir = fresh_dir(work_dir, "trace")
    rep = repetition(workload, args.master_seed, args.seed, work_dir, env,
                     reference, trace_dir=trace_dir)
    trace = load_trace(trace_dir)
    layer = layer_metrics(trace, rep.check,
                          tree_bytes(os.path.join(work_dir, "store")))
    layer.update(import_times(env))
    layer["trace.overhead_frac"] = rep.wall_s / baseline.wall_s - 1.0
    # Pinned work: a run that does different work than the reference
    # fails, so a "speed-up" that simulates less cannot pass.
    counted = work_counts(trace)
    for name, expected in pinned.items():
        rep.operations += 1
        if counted.get(name) != expected:
            rep.failed += 1
            rep.problems.append(f"work count {name} = {counted.get(name)}, "
                                f"pinned {expected}")
    summary = span_summary(trace)
    with open(os.path.join(work_dir, "spans.json"), "w") as handle:
        json.dump({"spans": summary, "work": counted, "layer": layer},
                  handle, indent=1)
    print(f"{'span':<28}{'count':>9}{'total_s':>10}{'self_s':>10}"
          f"{'p50_s':>11}{'p90_s':>11}{'max_s':>10}")
    for row in summary:
        print(f"{row['span']:<28}{row['count']:>9}{row['total_s']:>10.3f}"
              f"{row['self_s']:>10.3f}{row['p50_s']:>11.2e}"
              f"{row['p90_s']:>11.2e}{row['max_s']:>10.3f}")
    print(f"trace.overhead_frac = {layer['trace.overhead_frac']:.4f} "
          f"(traced wall {rep.wall_s:.2f}s / untraced {baseline.wall_s:.2f}s"
          f" - 1)")
    units = {spec["name"]: spec["unit"]
             for spec in load_manifest()["per_layer"]}
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    return {"metrics": metrics, "samples": {}}, [baseline, rep]


def load_manifest() -> Dict[str, Any]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="benchmark seed: orders the read mix")
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the workload until this much time "
                             "has passed (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--master-seed", type=int, default=MASTER_SEED,
                        help="the program's master seed (default: "
                             f"{MASTER_SEED}); references exist for 0 and "
                             "the held-out seed 1")
    args = parser.parse_args()
    # Terminate like an interrupt, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workload = WORKLOADS[args.workload]

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    reference = reference_path(workload, args.master_seed)
    if not os.path.isfile(reference):
        print(f"perfbench: no reference outputs for master seed "
              f"{args.master_seed} ({reference})", file=sys.stderr)
        return 2
    work_dir = fresh_dir(root, ".perfbench", args.workload)
    env = child_env(root, fresh_dir(work_dir, "tmp"))
    host = machine()
    print(f"workload {args.workload} (seed {args.seed}, master seed "
          f"{args.master_seed}, trace {args.trace}): {workload.why}")
    print("machine: " + json.dumps(host, sort_keys=True))

    run = traced if args.trace else end_to_end
    result, reps = run(workload, args, env, work_dir, reference)
    attempted = sum(rep.operations for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for problem in sorted({p for rep in reps for p in rep.problems}):
        print(f"FAILED: {problem}")
    print(f"{'metric':<34}{'value':>14}  unit   samples")
    for name, (value, unit) in result["metrics"].items():
        note = "" if value else "  (no work)"
        count = result["samples"].get(name, "")
        print(f"{name:<34}{value:>14.6g}  {unit:<6} {count}{note}"
              + (f"  [{BASES[name]}]" if name in BASES else ""))
    print(f"{'failed_frac':<34}{failed / attempted:>14.6g}  frac   "
          f"{attempted}  (failed operations / attempted)")
    # The result carries exactly the metrics BENCHMARK.json lists for this
    # kind of run; query_p50_s is printed above but not gated (README.md).
    listed = [spec["name"] for spec in
              load_manifest()["per_layer" if args.trace else "end_to_end"]]
    payload = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": result["metrics"][name][0],
                           "unit": result["metrics"][name][1]}
                    for name in listed}}
    with open(os.path.join(work_dir, "result.json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "master_seed": args.master_seed, "machine": host,
                   "samples": result["samples"], **payload}, handle,
                  indent=1)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
