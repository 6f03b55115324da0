"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_check.py

Runs every workload at its smallest size (``--seconds 1``), untraced and
traced, and checks that every metric BENCHMARK.json names is reported with
its unit and that no op failed. Then checks that the benchmark refuses to
run, without printing a result, where the library sources are missing.
Exits 0 when all of it holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _problems(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} ops failed")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: {got!r}, want unit {metric['unit']}")
    return problems


def _refuses_without_sources() -> list[str]:
    bare = HERE / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", ".trace", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "exact", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _problems(spec, workload, trace)
            failed |= bool(problems)
            print(f"{workload} --trace {trace}: {'; '.join(problems) or 'ok'}")
    problems = _refuses_without_sources()
    failed |= bool(problems)
    print(f"without sources: {'; '.join(problems) or 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
