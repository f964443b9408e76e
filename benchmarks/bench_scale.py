"""bench_scale — the frame engines at large populations.

Sweeps N ∈ {100, 300, 500, 1000} random-waypoint processes at the
paper's density (6 processes/km², 442 m radio range) and times the same
scenario on both frame engines:

* **vec** — the default stack: spatial grid + numpy batch engine +
  coalesced timer wheel;
* **flat** — ``with_flat_medium()``: the naive O(N) full scan with one
  kernel timer per periodic task, the reference oracle.

and asserts

* **exact equality**: per-seed summaries from both engines are equal
  with ``==`` on floats — on this sweep *and* (in
  ``test_equality_on_figure_families``) on representatives of the
  fig11/fig14/fig17/energy/faults scenario families (the sweep equality
  check is capped at N ≤ 300; above it the flat run is timed only);
* **speedup**: vec must beat flat by ≥ 10× at N = 1000 (measures ~13×
  here).

Every full sweep appends a rev-keyed entry to
``benchmarks/results/bench_scale.json`` via ``publish_bench_json`` (the
BENCH trajectory convention; ``benchmarks/check_trajectory.py`` fails CI
loudly when the append is skipped).

Scale knobs: ``REPRO_SCALE=paper`` lengthens the measurement window;
``REPRO_BENCH_SCALE_MAX_N`` caps the sweep (e.g. 300 in smoke CI).
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List

from common import publish_bench_json, publish_text, scale
from repro.harness.experiments import (city_scenario, energy_scenario,
                                       rwp_scenario)
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, run_scenario)
from repro.net import RadioConfig

#: Paper density: 150 processes over 25 km².
DENSITY_PER_KM2 = 6.0

POPULATIONS = [100, 300, 500, 1000]

#: Above this N the sweep times both engines but no longer asserts their
#: summaries equal (the figure families below keep covering equality).
EQUALITY_MAX_N = 300


def population_scenario(n: int, duration: float, seed: int = 0
                        ) -> ScenarioConfig:
    """An N-process random-waypoint trial at constant paper density."""
    side = math.sqrt(n / DENSITY_PER_KM2) * 1000.0
    return ScenarioConfig(
        n_processes=n,
        mobility=RandomWaypointSpec(width=side, height=side,
                                    speed_min=10.0, speed_max=10.0),
        duration=duration, warmup=10.0, seed=seed,
        radio=RadioConfig.paper_random_waypoint(),
        subscriber_fraction=0.8,
        publications=(Publication(at=2.0, validity=duration - 4.0),))


def _timed(config: ScenarioConfig) -> Dict[str, object]:
    started = time.perf_counter()
    result = run_scenario(config)
    wallclock = time.perf_counter() - started
    frames = result.collector.medium.frames_sent
    return {"wallclock": wallclock,
            "frames": frames,
            "us_per_frame": 1e6 * wallclock / max(1, frames),
            "summary": result.summary()}


def test_scaling_sweep(benchmark):
    s = scale()
    duration = 60.0 if s.name == "paper" else 25.0
    max_n = int(os.environ.get("REPRO_BENCH_SCALE_MAX_N", POPULATIONS[-1]))
    populations = [n for n in POPULATIONS if n <= max_n]

    rows: List[Dict[str, object]] = []

    def sweep():
        rows.clear()
        for n in populations:
            cfg = population_scenario(n, duration)
            vec = _timed(cfg)
            flat = _timed(cfg.with_flat_medium())
            if n <= EQUALITY_MAX_N:
                assert vec["summary"] == flat["summary"], \
                    f"vec and flat summaries diverged at N={n}"
            rows.append({
                "n": n, "frames": vec["frames"],
                "vec_s": vec["wallclock"], "flat_s": flat["wallclock"],
                "vec_us_per_frame": vec["us_per_frame"],
                "flat_us_per_frame": flat["us_per_frame"],
                "speedup_vec_vs_flat":
                    flat["wallclock"] / vec["wallclock"]})
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"bench_scale — vec vs flat engines, "
             f"{duration:.0f}s window, density {DENSITY_PER_KM2:.0f}/km²",
             f"{'N':>6} {'vec [s]':>9} {'flat [s]':>9} "
             f"{'vec µs/f':>9} {'v/flat':>7}"]
    for row in rows:
        lines.append(
            f"{row['n']:>6} {row['vec_s']:>9.2f} {row['flat_s']:>9.2f} "
            f"{row['vec_us_per_frame']:>9.1f} "
            f"{row['speedup_vec_vs_flat']:>6.1f}x")
    publish_text("\n".join(lines))
    publish_bench_json("bench_scale", rows, meta={
        "scale": s.name, "duration_s": duration,
        "density_per_km2": DENSITY_PER_KM2,
        "populations": populations})

    by_n = {row["n"]: row for row in rows}
    if 1000 in by_n:
        assert by_n[1000]["speedup_vec_vs_flat"] >= 10.0, \
            f"vec engine must be ≥10x over the flat scan at " \
            f"N=1000, got {by_n[1000]['speedup_vec_vs_flat']:.1f}x"


def test_equality_on_figure_families(benchmark):
    """vec == flat, exactly, on all five scenario families."""
    s = scale()
    families = {
        "fig11": rwp_scenario(s, 10.0, 10.0, validity=60.0, interest=0.8),
        "fig14": city_scenario(s, validity=100.0, interest=0.6),
        "fig17": rwp_scenario(s, 10.0, 10.0, validity=60.0, interest=0.8,
                              protocol="simple-flooding"),
        "energy": energy_scenario(s, "neighbor-flooding", battery_j=28.0,
                                  duration=60.0),
        "faults": churn_faults_scenario(s),
    }
    seeds = s.seed_list()[:2]

    def compare_all():
        mismatches = []
        for name, family_cfg in sorted(families.items()):
            for seed in seeds:
                cfg = family_cfg.with_changes(seed=seed)
                want = run_scenario(cfg).summary()
                if want != run_scenario(cfg.with_flat_medium()).summary():
                    mismatches.append((name, seed))
        return mismatches

    mismatches = benchmark.pedantic(compare_all, rounds=1, iterations=1)
    assert mismatches == []
    publish_text("bench_scale equality: vec == flat summaries on "
                 f"{sorted(families)} x seeds {seeds}")


def churn_faults_scenario(s) -> ScenarioConfig:
    """The rwp-churn-faults family: crash plan + churn + outage + loss."""
    from repro.faults import (ChurnConfig, FaultConfig, FaultEvent,
                              FaultPlan, LinkLossConfig, RegionalOutage)
    base = rwp_scenario(s, 10.0, 10.0, validity=60.0, interest=0.8)
    return base.with_changes(faults=FaultConfig(
        plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.25,
                                   duration=10.0),)),
        churn=ChurnConfig(mean_session_s=20.0, mean_rest_s=6.0,
                          fraction=0.5),
        outages=(RegionalOutage(at=8.0, duration=6.0,
                                center=(450.0, 450.0), radius_m=300.0),),
        loss=LinkLossConfig(link_loss_min=0.05, link_loss_max=0.15,
                            burst_rate_per_s=0.05,
                            burst_mean_duration_s=2.0,
                            burst_loss_probability=0.8)))
