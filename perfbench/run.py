"""Benchmark of the cqresolve command line.

    python3 perfbench/run.py --workload {exact,softcover,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each workload is a closed loop with one
client: op after op, each an in-process call of ``cqresolve.cli.main``
whose output is checked (see workloads.py and checks.py). The ops run in a
fresh worker process, so set-up time and peak memory belong to the
workload. ``--seconds`` sets how many passes over the op list a run makes.
The worker sends back what each op printed and wrote, and this process
checks it, so the checks' time and memory stay out of the metrics.

With ``--trace 0`` the run reports the end-to-end metrics: setup_s,
wall_s, op_p50_s, op_tail_s and peak_rss_mib, plus failed ops against ops
attempted. With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of tracing.py and the tracing overhead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads
from checks import Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "softcover", "certify")
BLAS_THREADS = "1"
BLAS_PINS = {var: BLAS_THREADS
             for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_TRIALS = 7
# A run must end within 180 s; every worker is killed by this deadline.
DEADLINE_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description="cqresolve CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _read_first(path: str, default: str = "unknown") -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return default


def environment() -> list[str]:
    """Header lines: interpreter, NumPy, BLAS, CPUs and caches."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = "unknown"
    for line in _read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_first(str(index / "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read_first(str(index / "size"))
    return [
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name', 'unknown')} {blas.get('version', '')} "
        f"pinned to {BLAS_THREADS} thread",
        f"# nproc {os.cpu_count()}, cpu {model}, "
        f"L2 {caches.get('L2', 'unknown')}, L3 {caches.get('L3', 'unknown')}",
    ]


def _worker(args, work: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), *extra]
    probe_s = speed.probe()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          timeout=max(1.0, deadline - start), cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    report["setup_probe_s"] = (probe_s + report["ready_probe_s"]) / 2
    return report


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timings(ops: list[dict], setups: list[tuple[float, float]], key) -> dict:
    """setup_s, wall_s, op_p50_s and op_tail_s with each time mapped by key."""
    latencies = sorted(key(op["seconds"], op["probe_s"]) for op in ops)
    passes = {}
    for op in ops:
        passes[op["pass"]] = passes.get(op["pass"], 0.0) \
            + key(op["seconds"], op["probe_s"])
    return {
        "setup_s": statistics.median(key(*setup) for setup in setups),
        "wall_s": statistics.median(passes.values()),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[len(latencies) - workloads.TAIL_BEYOND - 1],
    }


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """setups holds (seconds, probe seconds) of each fresh process."""
    ops = report["ops"]
    count = len(ops)
    scaled = _timings(ops, setups, speed.scaled)
    raw = _timings(ops, setups, lambda seconds, probe_s: seconds)
    metrics = {name: _metric(value, "s") for name, value in scaled.items()}
    metrics["peak_rss_mib"] = _metric(report["peak_rss_kib"] / 1024.0, "MiB")
    tail_pct = 100.0 * (count - workloads.TAIL_BEYOND) / count
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len({op['pass'] for op in ops})} passes over the op list",
        "op_p50_s": f"median of {count} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {count} ops, "
                     f"{workloads.TAIL_BEYOND} beyond it",
    }
    lines = [f"{name} = {scaled[name]:.6g} s at the reference speed "
             f"({raw[name]:.6g} s as timed; {note})" for name, note in notes.items()]
    lines.append(f"peak_rss_mib = {metrics['peak_rss_mib']['value']:.6g} MiB "
                 "(ru_maxrss of the worker process)")
    return metrics, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    walls = {True: {}, False: {}}
    for op in report["ops"]:
        if op["pass"] > 0:  # pass 0 takes the first-call warm-up
            walls[op["traced"]][op["pass"]] = \
                walls[op["traced"]].get(op["pass"], 0.0) + op["seconds"]
    traced_passes = len(walls[True])
    metrics = {}
    lines = []
    for name, value in report["layers"].items():
        unit = "s" if name in tracing.TIMES else "count"
        metrics[name] = _metric(value / traced_passes, unit)
        why = "" if value else " (not called by this workload)"
        lines.append(f"{name} = {value / traced_passes:.6g} {unit} per pass{why}")
    spans = report["spans"] / traced_passes
    overhead = statistics.median(walls[True].values()) \
        - statistics.median(walls[False].values())
    spread = max(walls[False].values()) - min(walls[False].values())
    estimate = spans * report["span_cost_s"]
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_est_s"] = _metric(estimate, "s")
    metrics["trace.spans"] = _metric(spans, "count")
    resolved = "" if abs(overhead) > spread else (
        f"; within the untraced passes' spread of {spread:.3g} s, so it does "
        "not resolve the cost of tracing")
    lines.append(f"trace.overhead_s = {overhead:.6g} s (traced minus untraced "
                 f"median pass wall_s, {traced_passes} traced and "
                 f"{len(walls[False])} untraced passes after a warm-up pass{resolved})")
    lines.append(f"trace.overhead_est_s = {estimate:.6g} s per pass ({spans:.6g} spans "
                 f"at {report['span_cost_s'] * 1e6:.3g} us each, calibrated on a no-op)")
    lines.append(f"trace.spans = {spans:.6g} count per pass")
    return metrics, lines


def check(args, report: dict, work: Path) -> list[str]:
    """Check every op the worker ran; returns one line per failed op."""
    work.mkdir(parents=True, exist_ok=True)
    ops = {op.key: op for op in workloads.BUILDERS[args.workload](args.seed, work)}
    failed = []
    same_pass, current = {}, None
    for record in report["ops"]:
        if record["pass"] != current:
            same_pass, current = {}, record["pass"]
        result = Result(record["rc"], record["stdout"], record["stderr"],
                        record["artifact"])
        failures = ops[record["key"]].check_in_pass(result, same_pass)
        same_pass[record["key"]] = result
        if failures:
            failed.append(f"FAILED pass {record['pass']} {record['key']}: "
                          + "; ".join(failures))
    return failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cqresolve" / "cli.py").is_file():
        print(f"error: no cqresolve sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for line in environment():
        print(line)

    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + DEADLINE_S
    work = HERE / ".work" / f"run-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for trial in range(SETUP_TRIALS - 1):
                probe = _worker(args, work / f"probe-{trial}", deadline, "--setup-only")
                setups.append((probe["setup_s"], probe["setup_probe_s"]))
        report = _worker(args, work / "run", deadline)
        setups.append((report["setup_s"], report["setup_probe_s"]))
        failed = check(args, report, work / "check")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, lines = per_layer(report)
    else:
        metrics, lines = end_to_end(report, setups)
    attempted = len(report["ops"])
    for line in failed:
        print(line)
    for line in lines:
        print(f"{args.workload} {line}")
    print(f"{args.workload} failed_ops = {len(failed)} / {attempted} ops")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
