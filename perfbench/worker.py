"""One measured execution of a benchmark workload, in its own process.

Usage (from the checkout root; ``run.py`` is the only caller)::

    python perfbench/worker.py MODE WORKLOAD --seed N --out FILE
        [--size full|tiny] [--budget-s S] [--min-reps K]
        [--work-dir DIR] [--untraced-cache DIR]

Modes:

``setup``
    Time ``import repro`` + config/spec generation + one ``build_world``
    of the first config (+ ``compute_ownership`` for ``city-sharded``),
    and record the host context.
``run``
    Run a single-world workload untraced, repeatedly, until
    ``--budget-s`` is spent (at least ``--min-reps`` times).  Repeating
    in one process times the later repetitions with lazy imports and
    first-call set-up done (``setup`` times those).  Per repetition:
    wall time, CPU of this process and of every child it reaped (shard
    workers), the host-speed probe beside it (``hostspeed.py``), the
    output digest and the public ``barrier_stats``; per execution, the
    peak memory of the largest process.
``classic``
    ``run`` on the classic single-world engine (``shards=0``): the
    baseline of ``shard.events_ratio`` and ``shard.cpu_vs_classic``.
``trace``
    Install the tracer, run the workload in this process and write the
    per-layer metrics plus the recorded spans.
``untraced``
    ``trace`` without the tracer: the same configuration (in-process
    shard backend, or the sweep in this process with one job), timed the
    same way -- the baseline of ``trace.cpu_overhead``.

The result is one JSON object written to ``--out``.  A failure writes
``{"error": ...}`` naming the workload and seed, and exits with 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (no repro import at module level)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup(args) -> dict:
    """Time the set-up a user pays before the first simulated event."""
    started = time.perf_counter()
    from repro.harness.scenario import build_world
    if args.workload == "frontier-sweep":
        from repro.study.spec import expand
        from repro.study.studies import build_study
        spec = build_study(workloads.SWEEP_STUDY,
                           workloads.sweep_scale(args.seed, args.size))
        cells = expand(spec)
        build_world(cells[0].config.with_changes(seed=spec.seeds[0]))
    else:
        config = workloads.single_world_config(args.workload, args.seed,
                                               args.size)
        build_world(config)
        if config.shards:
            from repro.sim.shard import compute_ownership
            compute_ownership(config)
    setup_s = time.perf_counter() - started
    import numpy
    from repro.harness.parallel import available_cpu_count
    return {"setup_s": setup_s,
            "host": {"cpus": available_cpu_count(),
                     "python": platform.python_version(),
                     "numpy": numpy.__version__}}


def run_world(args, classic: bool = False) -> dict:
    """One untraced single-world run with its timings and digest."""
    from repro.harness.scenario import run_scenario
    config = workloads.single_world_config(args.workload, args.seed,
                                           args.size)
    if classic:
        config = config.with_changes(shards=0)
    children0 = _children_cpu_s()
    cpu0 = time.process_time()
    started = time.perf_counter()
    result = run_scenario(config)
    wall_s = time.perf_counter() - started
    parent_cpu_s = time.process_time() - cpu0
    children_cpu_s = _children_cpu_s() - children0
    return {"wall_s": wall_s,
            "cpu_s": parent_cpu_s + children_cpu_s,
            "parent_cpu_s": parent_cpu_s,
            "children_cpu_s": children_cpu_s,
            "barrier_stats": result.barrier_stats,
            "digest": workloads.world_digest(result)}


def _peak_rss_mb(who: int) -> float:
    """Peak resident memory (MiB) of this process, or of the largest
    child it reaped."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def repeat(args, reps: list) -> dict:
    """Repeat the untraced run into ``reps`` until ``--budget-s`` is
    spent (at least ``--min-reps`` times); a repetition starts only if a
    typical one still fits the budget.

    The host-speed probe runs after every repetition, and each
    repetition records the mean of the probes on either side of it (the
    first, which has none before it, the one after).  Peak memory is
    read after the first repetition, before the probe's objects can
    raise it."""
    import hostspeed
    started = time.perf_counter()
    durations: list = []
    before = None
    rss_mb = 0.0
    while len(reps) < args.min_reps or (
            time.perf_counter() - started
            + sorted(durations)[len(durations) // 2] <= args.budget_s):
        rep_started = time.perf_counter()
        try:
            rep = run_world(args, classic=args.mode == "classic")
        except Exception as exc:
            raise RuntimeError(f"rep {len(reps) + 1}: "
                               f"{type(exc).__name__}: {exc}") from exc
        # A world is a reference cycle: free it before the next one is
        # built, so peak memory is one world whatever the rep count.
        gc.collect()
        if before is None:
            # A spawned child starts from its parent's peak, so both are
            # read before the probe's objects could raise either.
            rss_mb = max(_peak_rss_mb(resource.RUSAGE_SELF),
                         _peak_rss_mb(resource.RUSAGE_CHILDREN))
        after = hostspeed.probe_s()
        rep["probe_s"] = after if before is None else (before + after) / 2
        before = after
        reps.append(rep)
        durations.append(time.perf_counter() - rep_started)
    return {"reps": reps, "rss_mb": rss_mb}


def trace(args, traced: bool = True) -> dict:
    """One run in this process, traced (per-layer metrics and spans) or
    not (the tracing-overhead baseline)."""
    import tracer as tracing
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracing.import_layers()
    cpu0 = time.process_time()
    started = time.perf_counter()
    out: dict = {}
    if args.workload == "frontier-sweep":
        from repro.harness import cli
        work = pathlib.Path(args.work_dir)
        for phase in ("cold", "warm"):
            csv_path = work / f"{args.mode}-{phase}.csv"
            argv = workloads.sweep_argv(args.seed,
                                        str(work / f"{args.mode}-cache"),
                                        str(csv_path), args.size, jobs=1)
            if cli.main(argv) != 0:
                raise RuntimeError(f"CLI exited non-zero ({phase})")
            out[f"{phase}_digest"] = workloads.csv_digest(
                csv_path.read_bytes())
    else:
        from repro.harness.scenario import run_scenario
        result = run_scenario(workloads.single_world_config(
            args.workload, args.seed, args.size))
        out["digest"] = workloads.world_digest(result)
    out["wall_s"] = time.perf_counter() - started
    out["cpu_s"] = time.process_time() - cpu0
    if tracer is None:
        return out
    out["layers"] = tracer.layer_metrics()
    out["trace"] = tracer.dump()
    if args.workload == "frontier-sweep" and args.untraced_cache:
        out["cell_wallclocks_s"] = _cell_wallclocks(args.untraced_cache)
    return out


def _cell_wallclocks(cache_dir: str) -> list:
    """``ScenarioResult.wallclock_s`` of every cell an untraced pool run
    left in its cache directory (this program's own pickles)."""
    import pickle
    values = []
    for path in sorted(pathlib.Path(cache_dir).glob("*.pkl")):
        with open(path, "rb") as f:
            values.append(pickle.load(f).wallclock_s)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["setup", "run", "classic", "trace",
                                         "untraced"])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full",
                        choices=sorted(workloads.SIZES))
    parser.add_argument("--budget-s", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--untraced-cache", default=None)
    args = parser.parse_args()
    reps: list = []
    try:
        if args.mode == "setup":
            out = setup(args)
        elif args.mode in ("trace", "untraced"):
            out = trace(args, traced=args.mode == "trace")
        else:
            out = repeat(args, reps)
        status = 0
    except Exception as exc:  # noqa: BLE001 - reported, named, counted
        traceback.print_exc()
        out = {"error": f"{args.workload} seed {args.seed} {args.mode}: "
                        f"{type(exc).__name__}: {exc}",
               "reps": reps}
        status = 1
    out["seed"] = args.seed
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(out, f)
    os.replace(tmp, args.out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
