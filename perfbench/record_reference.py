"""Record the default-seed outputs that the checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every op once at the default seed, requires its checks to pass, and
writes the outputs of the ops that have a ``record`` to reference.json.
Delete reference.json first when an output is meant to change.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import cqresolve.cli as cli

import workloads
from worker import run_op


def main() -> int:
    work = Path(__file__).resolve().parent / ".work" / "record"
    recorded: dict = {}
    try:
        work.mkdir(parents=True, exist_ok=True)
        for name, build in workloads.BUILDERS.items():
            same_pass = {}
            for op in build(workloads.DEFAULT_SEED, work):
                result, _ = run_op(cli, op)
                failures = op.check_in_pass(result, same_pass)
                same_pass[op.key] = result
                if failures:
                    print(f"{op.key}: {failures}", file=sys.stderr)
                    return 1
                if op.record is not None:
                    recorded.setdefault(name, {})[op.key] = op.record(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
