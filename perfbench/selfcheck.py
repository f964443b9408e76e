"""Fast self-check of the benchmark, on the ``tiny`` workload sizes.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It asserts that

* every workload (``workloads.WORKLOADS``) prints, as its last line,
  one JSON object with exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and
  that the metrics are exactly the ``end_to_end`` (``--trace 0``) or
  ``per_layer`` (``--trace 1``) names of ``BENCHMARK.json``, each with
  its declared unit and a finite value;
* a deliberately altered reference output is reported as a failure that
  names the workload and the differing field;
* without the program next to it, the benchmark exits non-zero and
  prints no result;
* an execution that outlives its deadline is reported as timed out,
  and its whole process group is gone afterwards;
* a shard process that dies mid-run (the parent's bare ``EOFError``)
  becomes a worker failure naming the workload and seed.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from typing import List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import workloads  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT,
          references: str = "") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"),
            "--size", "tiny", "--seconds", "1", *args]
    if references:
        argv += ["--references", references]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_output(workload: str, trace: int, errors: List[str]) -> None:
    proc = bench("--workload", workload, "--seed", "0",
                 "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr}")
        return
    result = last_json(proc)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"]:
        errors.append(f"{where}: not correct:\n{proc.stdout}")
    declared = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))}"
                      f" missing or undeclared")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            errors.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                          f"declared {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")


def check_altered_reference(errors: List[str]) -> None:
    references = json.loads((HERE / "references.json").read_text())
    reference = references["tiny"]["city-sharded"]["0"]
    reference["summary"]["reliability"] += 0.125
    altered = ROOT / ".bench_work" / "selfcheck-references.json"
    altered.parent.mkdir(exist_ok=True)
    altered.write_text(json.dumps(references))
    proc = bench("--workload", "city-sharded", "--seed", "0",
                 "--trace", "0", references=str(altered))
    altered.unlink()
    result = last_json(proc)
    if result.get("correct") is not False or not result.get("failed"):
        errors.append(f"altered reference not reported: {result}")
    if "city-sharded seed 0" not in proc.stdout \
            or "reliability" not in proc.stdout:
        errors.append("altered reference: failure does not name the "
                      "workload and the differing field:\n" + proc.stdout)


def check_without_program(errors: List[str]) -> None:
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "city-sharded", "--seed", "0",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without the program: exit {proc.returncode}, "
                      f"stdout {proc.stdout!r}")


def check_deadline(errors: List[str]) -> None:
    import run
    log = ROOT / ".bench_work" / "selfcheck-deadline.log"
    log.parent.mkdir(exist_ok=True)
    sleeper = ("import subprocess, sys, time; subprocess.Popen([sys.executable,"
               " '-c', 'import time; time.sleep(60)']); time.sleep(60)")
    execution = run.launch([sys.executable, "-c", sleeper], log, 2.0,
                           dict(os.environ))
    log.unlink()
    if not execution.timed_out or execution.wall_s > 30:
        errors.append(f"deadline not enforced: timed_out="
                      f"{execution.timed_out} after {execution.wall_s:.1f} s")
    survivors = subprocess.run(["pgrep", "-f", "time.sleep\\(60\\)"],
                               capture_output=True, text=True).stdout.split()
    if survivors:
        errors.append(f"processes left after the deadline: {survivors}")


DEAD_SHARD = """
import os, sys
sys.path[:0] = [{src!r}, {here!r}]
from repro.sim.shard import engine


def die(conn, *args):
    os._exit(3)


# Runs in the parent and again in every spawned shard process, which
# re-imports this script as its main module.
engine._shard_worker_main = die

if __name__ == "__main__":
    import worker
    sys.argv = ["worker.py", "run", "city-sharded", "--seed", "0",
                "--size", "tiny", "--out", {out!r}]
    raise SystemExit(worker.main())
"""


def check_dead_shard_child(errors: List[str]) -> None:
    import run
    work = ROOT / ".bench_work"
    script = work / "selfcheck_dead_shard.py"
    out = work / "selfcheck-dead-shard.json"
    script.write_text(DEAD_SHARD.format(src=str(ROOT / "src"),
                                        here=str(HERE), out=str(out)))
    execution = run.launch([sys.executable, str(script)],
                           work / "selfcheck-dead-shard.log", 120.0,
                           dict(os.environ))
    result = json.loads(out.read_text()) if out.exists() else {}
    for path in (script, out, work / "selfcheck-dead-shard.log"):
        path.unlink(missing_ok=True)
    error = result.get("error", "")
    if execution.timed_out or execution.status != 1 \
            or "city-sharded seed 0" not in error or "EOFError" not in error:
        errors.append(f"dead shard child: status {execution.status}, "
                      f"timed out {execution.timed_out}, error {error!r}")


def main() -> int:
    errors: List[str] = []
    # Every workload the command runs, declared in BENCHMARK.json or not.
    for workload in workloads.WORKLOADS:
        check_output(workload, 0, errors)
    for workload in workloads.WORKLOADS:
        check_output(workload, 1, errors)
    check_altered_reference(errors)
    check_without_program(errors)
    check_deadline(errors)
    check_dead_shard_child(errors)
    for error in errors:
        print("FAIL:", error)
    print("selfcheck:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
