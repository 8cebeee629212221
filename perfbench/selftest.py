#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and asserts that the last line printed is the result object with exactly the
metrics BENCHMARK.json names (end-to-end untraced, per-layer traced), each a
finite number with the declared unit, and that no op failed. Then checks
that the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(res["metrics"]) == set(declared), (
        f"{where}: missing {set(declared) - set(res['metrics'])}, "
        f"undeclared {set(res['metrics']) - set(declared)}")
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{where}: {name} = {m['value']}"
        assert m["unit"] == declared[name], f"{where}: {name} unit {m['unit']}"
    assert res["attempted"] >= 1, where
    assert res["failed"] == 0 and res["correct"], f"{where}:\n{proc.stdout}"
    with open(os.path.join(HERE, "out", f"{workload}-s1-t{trace}.json")) as fh:
        assert json.load(fh)["report_only"]["fail_ratio"]["value"] == 0.0, where
    print(f"ok  {where}  ({res['attempted']} ops)")


def check_refuses_without_sources(spec: dict) -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "ran without the library's sources"
        assert '"metrics"' not in proc.stdout, "printed a result without sources"
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without src/barnesg")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
