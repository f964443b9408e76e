"""Workload definitions shared by the benchmark (``run.py``) and its workers.

Every workload is generated from a workload seed.  Nothing here imports
:mod:`repro` at module level: ``run.py`` stays a thin process that only
spawns workers and the CLI, so each measured execution starts from a
fresh interpreter.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from typing import Dict, List

WORKLOADS = ("rwp-dissemination", "city-sharded", "frontier-sweep")

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: backs the self-check (``selfcheck.py``) and takes seconds.  The full
#: sizes are small enough for five or more repetitions per run on a
#: noisy host (the median of many short repetitions is the steady
#: figure) and keep what each workload is for: the random-waypoint world
#: keeps the layer shares of N=500; the city world keeps the
#: sharded/classic kernel-event ratio of N=1000 (about 1.2), though its
#: CPU ratio is higher because the shard processes' start-up weighs
#: more; the smoke sweep has the same layer shares as the quick one,
#: with a larger start-up share.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "rwp-dissemination": {"n": 300, "window_s": 60.0,
                              "publications": 10},
        "city-sharded": {"n": 400, "validity_s": 20.0, "shards": 2},
        "frontier-sweep": {"scale": "smoke", "jobs": 2, "cells": 18},
    },
    "tiny": {
        "rwp-dissemination": {"n": 40, "window_s": 20.0,
                              "publications": 3},
        "city-sharded": {"n": 60, "validity_s": 10.0, "shards": 2},
        "frontier-sweep": {"scale": "smoke", "jobs": 2, "cells": 18},
    },
}

#: The registered study the sweep workload runs through the CLI.
SWEEP_STUDY = "study-frontier"


def rwp_config(seed: int, size: str = "full"):
    """``rwp-dissemination``: a classic-engine random-waypoint world at the
    paper's density of 6 processes/km^2, speeds U(5, 15) m/s, 1 s pause,
    the frugal protocol with its paper preset and interest 0.8.  After a
    10 s warm-up, publication ``i`` goes out at ``1 + 2i`` s from
    subscriber ``i``, valid until the window ends."""
    from repro.core.config import FrugalConfig
    from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                        ScenarioConfig)
    from repro.net import RadioConfig

    params = SIZES[size]["rwp-dissemination"]
    n = int(params["n"])
    side_m = math.sqrt(n / 6.0) * 1000.0
    window = float(params["window_s"])
    publications = tuple(
        Publication(at=1.0 + 2.0 * i, validity=window - (1.0 + 2.0 * i),
                    publisher=i)
        for i in range(int(params["publications"])))
    return ScenarioConfig(
        n_processes=n,
        mobility=RandomWaypointSpec(width=side_m, height=side_m,
                                    speed_min=5.0, speed_max=15.0,
                                    pause_time=1.0),
        duration=window, warmup=10.0, seed=seed, protocol="frugal",
        frugal=FrugalConfig.paper_random_waypoint(),
        radio=RadioConfig.paper_random_waypoint(),
        subscriber_fraction=0.8, publications=publications)


def city_config(seed: int, size: str = "full"):
    """``city-sharded``: ``city_scale_scenario`` on a 1x2 stripe plan."""
    from repro.harness.experiments import city_scale_scenario
    from repro.harness.presets import get_scale
    from repro.sim.shard import ShardConfig

    params = SIZES[size]["city-sharded"]
    config = city_scale_scenario(get_scale("quick"), int(params["n"]),
                                 validity=float(params["validity_s"]))
    return config.with_changes(
        seed=seed, shards=ShardConfig(shards=int(params["shards"])))


def single_world_config(workload: str, seed: int, size: str = "full"):
    """The scenario config of a single-world workload."""
    if workload == "rwp-dissemination":
        return rwp_config(seed, size)
    if workload == "city-sharded":
        return city_config(seed, size)
    raise ValueError(f"{workload!r} is not a single-world workload")


def sweep_argv(seed: int, cache_dir: str, csv_path: str,
               size: str = "full", jobs: int = 0) -> List[str]:
    """CLI arguments of ``frontier-sweep`` (after ``-m repro.harness.cli``);
    ``jobs=0`` keeps the workload's own worker count."""
    params = SIZES[size]["frontier-sweep"]
    return [SWEEP_STUDY, "--scale", str(params["scale"]),
            "--jobs", str(jobs or params["jobs"]), "--seed", str(seed),
            "--cache-dir", cache_dir, "--csv", csv_path]


def sweep_scale(seed: int, size: str = "full"):
    """The sweep's :class:`~repro.harness.presets.Scale`, re-based on
    the workload seed exactly as the CLI's ``--seed`` does."""
    from repro.harness.presets import get_scale
    return get_scale(str(SIZES[size]["frontier-sweep"]["scale"])
                     ).with_seed_base(seed)


# --------------------------------------------------------------------------
# Output digests and checks
# --------------------------------------------------------------------------

def _plain(value):
    """JSON round trip: exact for floats (repr), tuples become lists."""
    return json.loads(json.dumps(value))


def world_digest(result) -> Dict[str, object]:
    """What a single-world run must reproduce bit for bit."""
    return _plain({
        "summary": result.summary(),
        "counters": dataclasses.asdict(result.protocol_counters()),
        "kernel_events": result.sim_events_processed,
    })


def csv_digest(data: bytes) -> Dict[str, object]:
    """What a sweep run must reproduce: the CSV bytes and its rows."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return {"csv_sha256": hashlib.sha256(data).hexdigest(), "rows": rows}


def world_sanity(digest: Dict[str, object]) -> List[str]:
    """Invariants any seed must satisfy (used when no reference exists)."""
    problems = []
    summary = digest["summary"]
    if not 0.0 <= summary["reliability"] <= 1.0:
        problems.append(f"reliability {summary['reliability']} "
                        f"outside [0, 1]")
    if not summary["bandwidth_bytes"] > 0:
        problems.append("no frames sent (bandwidth_bytes is 0)")
    if not digest["kernel_events"] > 0:
        problems.append("kernel processed no events")
    return problems


def sweep_sanity(digest: Dict[str, object], cells: int) -> List[str]:
    """Invariants of any sweep output: one row per cell, reliabilities
    in [0, 1] and traffic on the air in every cell."""
    rows = digest["rows"]
    problems = []
    if len(rows) != cells:
        problems.append(f"{len(rows)} CSV rows for {cells} cells")
    for row in rows:
        label = cell_label(row)
        for key in ("reliability", "churn_reliability"):
            if not 0.0 <= float(row[key]) <= 1.0:
                problems.append(f"cell {label}: {key} {row[key]} "
                                f"outside [0, 1]")
        if not float(row["bandwidth_bytes"]) > 0:
            problems.append(f"cell {label}: no frames sent")
    return problems


def cell_label(row: Dict[str, str]) -> str:
    """The axis coordinates that name one sweep cell."""
    return ",".join(f"{k}={row[k]}" for k in
                    ("protocol", "churn_per_min", "awake_fraction"))


def compare(workload: str, expected: Dict[str, object],
            actual: Dict[str, object]) -> List[str]:
    """Named differences between two digests (empty when equal)."""
    if expected == actual:
        return []
    problems: List[str] = []
    if workload == "frontier-sweep":
        exp_rows, act_rows = expected["rows"], actual["rows"]
        if len(exp_rows) != len(act_rows):
            problems.append(f"{len(act_rows)} rows, expected "
                            f"{len(exp_rows)}")
        for exp, act in zip(exp_rows, act_rows):
            if exp != act:
                diff = sorted(k for k in set(exp) | set(act)
                              if exp.get(k) != act.get(k))
                problems.append(f"cell {cell_label(exp)}: "
                                f"{', '.join(diff)} differ")
        if not problems:
            problems.append("CSV bytes differ")
        return problems
    for section in sorted(set(expected) | set(actual)):
        exp, act = expected.get(section), actual.get(section)
        if exp == act:
            continue
        if isinstance(exp, dict) and isinstance(act, dict):
            keys = sorted(k for k in set(exp) | set(act)
                          if exp.get(k) != act.get(k))
            problems.append(
                f"{section}: " + ", ".join(
                    f"{k} {act.get(k)!r} != {exp.get(k)!r}" for k in keys))
        else:
            problems.append(f"{section}: {act!r} != {exp!r}")
    return problems
