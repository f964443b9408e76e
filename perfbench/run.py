"""The repository benchmark: one command, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md``; ``BENCHMARK.json``
declares the last two):

* ``rwp-dissemination`` -- a random-waypoint world on the classic
  engine, where forwarding, store and delivery do real work;
* ``city-sharded`` -- a street-grid city world on two shards (spawned
  shard processes when two cores are usable);
* ``frontier-sweep`` -- the ``study-frontier`` CLI on a 2-worker pool,
  cold (empty result cache) and then warm (filled cache).

Every execution runs in its own process group under a deadline:
single-world repetitions share one worker process (the first is a
warm-up, untimed, so the timed ones run with lazy imports and
first-call set-up done), and each sweep repetition is a fresh cold CLI
process (the first one also re-run warm).  ``SETUP_PROBES`` set-up
probes, each in a fresh interpreter, come first; repetitions follow
until ``--seconds`` are spent (at least ``MIN_REPS`` timed).  The
host-speed probe (``hostspeed.py``) runs after every execution, and
each execution is paired with the mean of the probes on either side of
it.  A timing metric is the typical sample in reference seconds: the
mean of the middle half of the raw seconds times ``REFERENCE_PROBE_S``
over the mean of the middle half of their probes.  The raw seconds,
quartiles and probe times are printed beside it.
Every repetition's output is checked against the recorded reference for its
seed, or -- for a seed without one -- against the first repetition and a
set of sanity invariants.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
``MIN_REPS`` untraced repetitions (for the pool and shard figures), then
the workload in one worker process untraced and once more with the span
tracer installed (``tracer.py``), and prints the per-layer metrics.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

#: Minimum timed repetitions per run (two also prove same-seed
#: determinism).
MIN_REPS = 2
#: Set-up probes per run, the samples of ``setup_s``.
SETUP_PROBES = 5
#: No single execution may take longer than this, seconds.
REP_DEADLINE_S = 120.0
#: A run must end within 180 s; no work starts past this budget.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

PER_LAYER = {
    "scenario.build_world_s": "s", "scenario.run_s": "s",
    "parallel.cells_executed": "count", "parallel.cache_hits": "count",
    "parallel.utilisation": "ratio", "parallel.cell_s_p50": "s",
    "parallel.cell_s_p80": "s",
    "cache.gets": "count", "cache.puts": "count", "cache.get_s": "s",
    "cache.put_s": "s", "cache.digest_s": "s", "cache.hit_ratio": "ratio",
    "cache.bytes_written": "bytes",
    "sweep.warm_s": "s",
    "study.cells": "count", "study.expand_s": "s", "study.analysis_s": "s",
    "kernel.events": "count", "kernel.schedules": "count",
    "kernel.wheel_schedules": "count",
    "kernel.self_s": "s", "kernel.events_per_s": "1/s",
    "medium.broadcasts": "count", "medium.frames_sent": "count",
    "medium.broadcast_s": "s", "batch.audible_calls": "count",
    "batch.candidates": "count", "batch.audible_s": "s",
    "batch.corrupt_verdicts_s": "s", "batch.busy_calls": "count",
    "batch.busy_s": "s", "space.query_radius_calls": "count",
    "space.query_radius_s": "s", "medium.useful_ratio": "ratio",
    "node.receive_calls": "count", "node.receive_s": "s",
    "mobility.position_calls": "count", "mobility.position_s": "s",
    "protocol.on_message_calls": "count", "protocol.on_message_s": "s",
    "protocol.advertised_topics_calls": "count",
    "protocol.advertised_topics_s": "s",
    "membership.on_heartbeat_calls": "count",
    "membership.on_heartbeat_s": "s", "tables.valid_ids_for_s": "s",
    "topics.subscriptions_related_calls": "count",
    "topics.subscriptions_related_s": "s",
    "forwarding.send_batch_calls": "count",
    "forwarding.events_per_batch": "events/batch",
    "forwarding.compute_s": "s", "delivery.deliver_once_calls": "count",
    "delivery.useful_ratio": "ratio", "delivery.hand_off_calls": "count",
    "energy.note_tx_calls": "count", "energy.note_rx_calls": "count",
    "energy.self_s": "s",
    "faults.transitions": "count", "faults.self_s": "s",
    "metrics.summary_s": "s",
    "shard.barriers": "count", "shard.frames_exchanged": "count",
    "shard.drain_s": "s", "shard.merge_s": "s", "shard.ingest_s": "s",
    "shard.retime_s": "s", "shard.parent_cpu_s": "s",
    "shard.children_cpu_s": "s", "shard.events_ratio": "ratio",
    "shard.cpu_vs_classic": "ratio",
    "trace.cpu_overhead": "ratio",
}

_ENGINE_LINE = re.compile(
    r"engine: (\d+) scenario runs?: (\d+) from cache, (\d+) executed")


class Execution:
    """One child process: how it ended and what it cost."""

    def __init__(self, status: Optional[int], wall_s: float, usage,
                 timed_out: bool):
        self.status = status
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime if usage else 0.0
        # ru_maxrss of a reaped child covers it and every descendant it
        # reaped (KiB on Linux): the largest process of the tree.
        self.rss_mb = usage.ru_maxrss / 1024.0 if usage else 0.0
        self.timed_out = timed_out


def _stop_group(pgid: int) -> None:
    """SIGKILL what is left of a process group (its leader already
    reaped) and wait until none of it remains."""
    deadline = time.perf_counter() + 10.0
    while time.perf_counter() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(argv: List[str], log: pathlib.Path, deadline_s: float,
           env: Dict[str, str]) -> Execution:
    """Run ``argv`` in its own session with a deadline.

    The child and everything it starts (pool workers, shard processes)
    share one process group; on the deadline the whole group is killed,
    so a hung worker becomes a timed-out execution, not a hung run.
    """
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env, start_new_session=True)
    expired = threading.Event()

    def kill_on_deadline() -> None:
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:   # the whole group ended meanwhile
            pass

    # A blocking wait (no polling) keeps this process off the cores the
    # measured one uses; the timer thread only wakes at the deadline.
    timer = threading.Timer(deadline_s, kill_on_deadline)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - started
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        _stop_group(proc.pid)
        raise
    finally:
        timer.cancel()
        timer.join()
    timed_out = expired.is_set()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)   # strays a crashed or killed child left behind
    return Execution(None if timed_out else proc.returncode, wall_s, usage,
                     timed_out)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def best(values: List[float]) -> float:
    """A per-layer timing of repeated identical work: its fastest run."""
    return min(values) if values else 0.0


def quartiles(values: List[float]):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def middle_mean(values: List[float]) -> float:
    """The mean of the middle half of ``values`` (the interquartile
    mean): robust to the slow outliers a shared host adds, and steadier
    than the median over a handful of samples."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def scaled(values: List[float], probes: List[float]) -> float:
    """The typical ``values`` (seconds) in reference seconds, scaled by
    the typical probe beside them: each series is averaged on its own
    first, so the probe's own noise is not added to every sample."""
    return middle_mean(values) * hostspeed.factor(middle_mean(probes))


def run_probe() -> float:
    """The host-speed probe, in a child process (see ``hostspeed.py``)."""
    out = subprocess.run([sys.executable, str(HERE / "hostspeed.py")],
                         capture_output=True, text=True, check=True,
                         timeout=REP_DEADLINE_S)
    return float(out.stdout)


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.started = time.perf_counter()
        self.work = ROOT / ".bench_work" / \
            f"{self.workload}-seed{self.seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.references_path = pathlib.Path(args.references)
        self.references = json.loads(self.references_path.read_text())
        self.reference = self.references.get(self.size, {}) \
            .get(self.workload, {}).get(str(self.seed))
        self.attempted = 0
        self.failures: List[str] = []
        self.first_digest = None
        self._counter = 0
        self.probes: List[float] = []

    # -- plumbing ------------------------------------------------------------

    def remaining_s(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _worker(self, mode: str, *extra: str, env=None,
                deadline_s: float = REP_DEADLINE_S):
        """Run one worker execution; returns (Execution, result dict)."""
        self._counter += 1
        out = self.work / f"{mode}-{self._counter}.json"
        argv = [sys.executable, str(HERE / "worker.py"), mode,
                self.workload, "--seed", str(self.seed), "--size", self.size,
                "--out", str(out), *extra]
        execution = launch(argv, self.work / f"{mode}-{self._counter}.log",
                           min(deadline_s, self.remaining_s()),
                           env or self.env)
        result = json.loads(out.read_text()) if out.exists() else {}
        return execution, result

    def probe_beside(self) -> float:
        """Run the host-speed probe after an execution; the mean of the
        probes on either side of that execution."""
        self.probes.append(run_probe())
        return statistics.mean(self.probes[-2:])

    def fail(self, what: str) -> None:
        self.failures.append(f"{self.workload} seed {self.seed}: {what}")

    def _execution_ok(self, what: str, execution: Execution,
                      result: dict) -> bool:
        if execution.timed_out:
            self.fail(f"{what}: deadline of {execution.wall_s:.0f} s hit; "
                      f"process group killed")
            return False
        if result.get("error"):
            self.fail(f"{what}: {result['error']}")
            return False
        if execution.status != 0:
            self.fail(f"{what}: exited with status {execution.status}")
            return False
        return True

    def check(self, what: str, digest) -> None:
        """Compare one output digest with the reference (or, without
        one, with the first repetition plus the sanity invariants)."""
        if self.reference is not None:
            expected = self.reference
        else:
            if self.first_digest is None:
                self.first_digest = digest
                problems = (workloads.sweep_sanity(digest, self.cells())
                            if self.workload == "frontier-sweep"
                            else workloads.world_sanity(digest))
                for problem in problems:
                    self.fail(f"{what}: {problem}")
                return
            expected = self.first_digest
        for problem in workloads.compare(self.workload, expected, digest):
            self.fail(f"{what}: output differs from "
                      f"{'reference' if self.reference else 'rep 1'}: "
                      f"{problem}")

    def cells(self) -> int:
        return int(workloads.SIZES[self.size][self.workload]["cells"])

    # -- phases ----------------------------------------------------------------

    def setup_probe(self, setup: Dict[str, object]) -> None:
        """One set-up probe in a fresh interpreter, added to ``setup``."""
        self.attempted += 1
        execution, result = self._worker("setup")
        probe = self.probe_beside()
        if self._execution_ok(f"setup probe {len(setup['setup_s']) + 1}",
                              execution, result):
            setup["setup_s"].append(result["setup_s"])
            setup["probe_s"].append(probe)
            setup["host"] = result["host"]

    def world_reps(self, budget_s: float, mode: str = "run") -> List[dict]:
        """Single-world repetitions, all in one worker process (each one's
        output is checked against the reference, or rep 1); in ``run``
        mode the first is the warm-up, checked but not timed."""
        execution, result = self._worker(
            mode, "--budget-s", str(budget_s), "--min-reps",
            str(MIN_REPS + 1 if mode == "run" else 1),
            deadline_s=budget_s + REP_DEADLINE_S)
        reps = result.get("reps", [])
        ok = self._execution_ok(f"{mode} worker", execution, result)
        self.attempted += len(reps) + (0 if ok else 1)
        for k, rep in enumerate(reps, 1):
            if mode == "run":
                self.check(f"rep {k}", rep["digest"])
            else:
                # The classic engine has no cross-node latency, so its
                # outputs differ from the sharded reference by design.
                for problem in workloads.world_sanity(rep["digest"]):
                    self.fail(f"{mode} rep {k}: {problem}")
            rep["rss_mb"] = result.get("rss_mb", execution.rss_mb)
            rep["warmup"] = mode == "run" and k == 1
        return reps

    def _cli(self, rep_dir: pathlib.Path, phase: str):
        csv_path = rep_dir / f"{phase}.csv"
        argv = [sys.executable, "-m", "repro.harness.cli",
                *workloads.sweep_argv(self.seed, str(rep_dir / "cache"),
                                      str(csv_path), self.size)]
        log = rep_dir / f"{phase}.log"
        execution = launch(argv, log, min(REP_DEADLINE_S, self.remaining_s()),
                           self.env)
        engine = _ENGINE_LINE.search(log.read_text(errors="replace"))
        return execution, csv_path, engine

    def sweep_rep(self, k: int) -> Optional[dict]:
        """One cold CLI run against an empty cache; the first repetition
        also re-runs warm against the cache it filled."""
        rep_dir = self.work / f"rep{k}"
        rep_dir.mkdir()
        runs = {}
        for phase in ("cold", "warm") if k == 1 else ("cold",):
            execution, csv_path, engine = self._cli(rep_dir, phase)
            what = f"rep {k} {phase}"
            if not self._execution_ok(what, execution, {}):
                return None
            if engine is None or not csv_path.exists():
                self.fail(f"{what}: no engine line or CSV written")
                return None
            runs[phase] = (execution, workloads.csv_digest(
                csv_path.read_bytes()), [int(g) for g in engine.groups()])
        probe = self.probe_beside()
        cold, cold_digest, cold_engine = runs["cold"]
        total = cold_engine[0]
        if cold_engine != [total, 0, total]:
            self.fail(f"rep {k} cold: engine {cold_engine} is not "
                      f"all-executed")
        self.check(f"rep {k} cold", cold_digest)
        rep = {"wall_s": cold.wall_s, "cpu_s": cold.cpu_s,
               "rss_mb": cold.rss_mb, "probe_s": probe,
               "digest": cold_digest,
               "cache_dir": str(rep_dir / "cache")}
        if "warm" in runs:
            warm, warm_digest, warm_engine = runs["warm"]
            if warm_engine != [total, total, 0]:
                self.fail(f"rep {k} warm: {warm_engine[2]} cells executed "
                          f"with a filled cache (expected 0 of {total})")
            for problem in workloads.compare(self.workload, cold_digest,
                                             warm_digest):
                self.fail(f"rep {k} warm rows differ from cold: {problem}")
            rep.update(warm_s=warm.wall_s,
                       rss_mb=max(cold.rss_mb, warm.rss_mb))
        return rep

    def sweep_reps(self, budget_s: float) -> List[dict]:
        """Cold CLI runs until ``budget_s`` is spent (at least MIN_REPS)."""
        reps: List[dict] = []
        started = time.perf_counter()
        durations: List[float] = []
        while len(self.failures) <= 3:
            typical = median(durations)
            if len(durations) >= MIN_REPS and \
                    time.perf_counter() - started + typical > budget_s:
                break
            if durations and self.remaining_s() < 2 * typical + 10:
                break
            rep_started = time.perf_counter()
            self.attempted += 1
            rep = self.sweep_rep(len(durations) + 1)
            durations.append(time.perf_counter() - rep_started)
            if rep is not None:
                reps.append(rep)
        return reps

    def measure(self, budget_s: float, setup: Dict[str, object]
                ) -> List[dict]:
        """The SETUP_PROBES set-up probes, then repetitions of the
        workload until ``budget_s`` (probes included) is spent, at least
        MIN_REPS of them."""
        started = time.perf_counter()
        for _ in range(SETUP_PROBES):
            self.setup_probe(setup)
        budget_s = max(0.0, budget_s - (time.perf_counter() - started))
        if self.workload == "frontier-sweep":
            return self.sweep_reps(budget_s)
        return self.world_reps(budget_s)

    # -- tracing -----------------------------------------------------------------

    def traced(self, reps: List[dict]) -> Dict[str, float]:
        """Per-layer metrics: one traced execution, its untraced twin
        (same configuration, the tracing-overhead baseline) and the
        public results of the untraced repetitions."""
        cpu = best([r["cpu_s"] for r in reps if not r.get("warmup")])
        layers = {name: 0.0 for name in PER_LAYER}
        extra: List[str] = []
        env = self.env
        if self.workload == "frontier-sweep":
            extra = ["--work-dir", str(self.work),
                     "--untraced-cache", reps[-1]["cache_dir"]]
        elif self.workload == "city-sharded":
            # The tracer cannot see spawned shard processes: trace the
            # bit-identical in-process backend instead.
            env = dict(self.env, REPRO_SHARD_BACKEND="inproc")
        self.attempted += 1
        execution, baseline = self._worker("untraced", *extra, env=env)
        if not self._execution_ok("untraced twin of the traced run",
                                  execution, baseline):
            return layers
        self.attempted += 1
        execution, result = self._worker("trace", *extra, env=env)
        if not self._execution_ok("traced run", execution, result):
            return layers
        layers.update(result["layers"])
        if self.workload == "frontier-sweep":
            for phase in ("cold", "warm"):
                self.check(f"untraced {phase}", baseline[f"{phase}_digest"])
                self.check(f"traced {phase}", result[f"{phase}_digest"])
            # Cells of the last untraced pool run (its cache), over the
            # worker time that run had.
            cells = result["cell_wallclocks_s"]
            jobs = int(workloads.SIZES[self.size][self.workload]["jobs"])
            layers["parallel.utilisation"] = sum(cells) / (
                jobs * reps[-1]["wall_s"])
            layers["parallel.cell_s_p50"] = median(cells)
            layers["parallel.cell_s_p80"] = (
                statistics.quantiles(cells, n=5)[3] if len(cells) > 1
                else median(cells))
            layers["sweep.warm_s"] = best([r["warm_s"] for r in reps
                                           if "warm_s" in r])
        else:
            self.check("untraced twin", baseline["digest"])
            self.check("traced rep", result["digest"])
        if self.workload == "city-sharded":
            self._shard_layers(reps, layers, cpu)
        # Both against the untraced twin: same configuration, same
        # process, same timing boundaries.
        layers["kernel.events_per_s"] = (layers["kernel.events"]
                                         / baseline["wall_s"])
        layers["trace.cpu_overhead"] = result["cpu_s"] / baseline["cpu_s"]
        trace_file = ROOT / ".bench_work" / \
            f"trace-{self.workload}-seed{self.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": self.workload, "seed": self.seed,
             "note": "kernel.run self time includes the private dispatch "
                     "glue (_deliver_batch, Node._guarded) until spans "
                     "inside the program exist",
             "untraced_twin": {"wall_s": baseline["wall_s"],
                               "cpu_s": baseline["cpu_s"]},
             "layers": layers, **result["trace"]}))
        return layers

    def _shard_layers(self, reps: List[dict], layers: Dict[str, float],
                      cpu: float) -> None:
        stats = [r["barrier_stats"] for r in reps]
        for key in ("barriers", "frames_exchanged"):
            layers[f"shard.{key}"] = stats[0][key]
        for key in ("drain_s", "merge_s", "ingest_s", "retime_s"):
            layers[f"shard.{key}"] = best([s[key] for s in stats])
        layers["shard.parent_cpu_s"] = best([r["parent_cpu_s"]
                                             for r in reps])
        layers["shard.children_cpu_s"] = best([r["children_cpu_s"]
                                               for r in reps])
        classic = self.world_reps(0.0, mode="classic")
        if not classic:
            return
        layers["shard.events_ratio"] = (
            reps[0]["digest"]["kernel_events"]
            / classic[0]["digest"]["kernel_events"])
        layers["shard.cpu_vs_classic"] = cpu / classic[0]["cpu_s"]

    # -- the run ------------------------------------------------------------------

    def run(self, trace: bool, record: bool) -> dict:
        self.probes.append(run_probe())
        setup: Dict[str, object] = {"setup_s": [], "probe_s": [],
                                    "host": {}}
        # The traced run only needs a few untraced runs for the pool and
        # shard figures.
        reps = self.measure(0.0 if trace else self.seconds, setup)
        timed = [r for r in reps if not r.get("warmup")]
        if len(timed) < MIN_REPS:
            self.fail(f"only {len(timed)} successful timed repetitions")
        metrics: Dict[str, float] = {}
        probes = [r["probe_s"] for r in timed]
        if not trace and timed:
            metrics = {
                "wall_s": scaled([r["wall_s"] for r in timed], probes),
                "cpu_s": scaled([r["cpu_s"] for r in timed], probes),
                "setup_s": scaled(setup["setup_s"], setup["probe_s"]),
                "peak_rss_mb": median([r["rss_mb"] for r in reps]),
            }
        elif timed:
            metrics = self.traced(reps)
        if record and not self.failures and self.reference is None \
                and self.first_digest is not None:
            self.references.setdefault(self.size, {}).setdefault(
                self.workload, {})[str(self.seed)] = self.first_digest
            self.references_path.write_text(
                json.dumps(self.references, indent=1, sort_keys=True) + "\n")
        self.report(reps, timed, setup, metrics, trace)
        units = PER_LAYER if trace else END_TO_END
        failed = len(self.failures)
        return {
            "correct": failed == 0 and bool(metrics),
            "attempted": max(self.attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0.0),
                               "unit": unit}
                        for name, unit in units.items()},
        }

    def report(self, reps, timed, setup, metrics, trace) -> None:
        """Human-readable lines (everything before the final JSON)."""
        print(f"workload {self.workload} seed {self.seed} size {self.size}: "
              f"{len(timed)} timed repetitions of {len(reps)}, "
              f"{len(setup['setup_s'])} set-up probes, reference "
              f"{'recorded' if self.reference else 'absent (self-checked)'}")
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            if name in metrics:
                print(f"  {name:12s} {metrics[name]:10.4f} {END_TO_END[name]}"
                      + (" (reference seconds)" if name != "peak_rss_mb"
                         else ""))
        # Raw samples (seconds as measured) and the probes beside them.
        series = {
            "wall_s": [r["wall_s"] for r in timed],
            "cpu_s": [r["cpu_s"] for r in timed],
            "probe_s": [r["probe_s"] for r in timed],
            "setup_s": setup["setup_s"],
            "setup probe_s": setup["probe_s"],
            "peak_rss_mb": [r["rss_mb"] for r in reps],
        }
        if self.workload == "frontier-sweep":
            series["warm_s"] = [r["warm_s"] for r in reps if "warm_s" in r]
        for name, values in series.items():
            unit = "MiB" if name == "peak_rss_mb" else "s"
            q1, q3 = quartiles(values)
            print(f"  raw {name:13s} median {median(values):8.4f} {unit:3s} "
                  f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)}: "
                  + " ".join(f"{v:.4f}" for v in values))
        if reps:
            # The seed's amount of work, to tell it apart from host drift.
            digest = reps[0]["digest"]
            if self.workload == "frontier-sweep":
                rows = digest["rows"]
                work = (f"bandwidth_bytes "
                        f"{sum(float(r['bandwidth_bytes']) for r in rows):.0f}"
                        f" over {len(rows)} cells")
            else:
                work = f"kernel_events {digest['kernel_events']}"
            print(f"  {'work':12s} {work}")
        failed = len(self.failures)
        print(f"  {'fail_ratio':12s} {failed / max(self.attempted, 1):.4f} "
              f"ratio ({failed} of {self.attempted} runs)")
        for failure in self.failures:
            print(f"  FAILED: {failure}")
        if trace:
            for name, unit in PER_LAYER.items():
                print(f"  {name:36s} {metrics.get(name, 0.0):14.6g} {unit}")
        print("host: " + json.dumps({
            **setup["host"], "seed": self.seed,
            "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
            "probes_s": self.probes}))

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", default="full",
                        choices=sorted(workloads.SIZES),
                        help="workload size ('tiny' is for the self-check)")
    parser.add_argument("--references", default=str(HERE /
                                                    "references.json"),
                        help="reference outputs to check against")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output as its reference "
                             "when none exists yet")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        result = bench.run(bool(args.trace), args.record)
    finally:
        bench.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
