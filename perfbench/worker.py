"""One workload in one fresh process: set up, run the op list, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count pinned. Prints one JSON object on its last line:

* ``ready``: CLOCK_MONOTONIC time when imports and input generation ended;
* ``ops``: per op, its pass, key, latency, whether traced, and what it
  left: exit code, standard output and error, and the ``--out`` file.
  run.py checks them, so the checks' memory stays out of this process;
* ``peak_rss_kib``: ``ru_maxrss`` of this process;
* ``layers``, ``spans`` and ``span_cost_s`` (``--trace 1``): per-layer
  metrics summed over the traced passes, the span count, and the seconds
  one span adds to a call. The spans go to ``.trace/<workload>.json``
  beside this file.

With ``--setup-only`` it stops after set-up and prints only ``ready``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def run_op(cli, op, tracer=None, op_id=-1):
    """Call cli.main(op.argv) in-process; returns (Result, seconds)."""
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install(op_id)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            except Exception:  # a traceback is a failed op, not a failed run
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    artifact = None
    if op.out is not None and op.out.is_file():
        # surrogateescape keeps every byte, so equal text means equal bytes.
        artifact = op.out.read_bytes().decode("utf-8", "surrogateescape")
    return checks.Result(rc, out.getvalue(), err.getvalue(), artifact), seconds


def main(argv=None) -> int:
    args = _parse(argv)
    import cqresolve.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"cqresolve was imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.BUILDERS[args.workload](args.seed, work)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe_s = ready_probe_s = speed.probe()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_probe_s": ready_probe_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    records = []
    for pass_index in range(workloads.passes(args.workload, args.seconds, len(ops),
                                             bool(args.trace))):
        traced = tracer is not None and pass_index % 2 == 1
        for op in ops:
            result, seconds = run_op(cli, op, tracer if traced else None, len(records))
            before, probe_s = probe_s, speed.probe()
            records.append({"pass": pass_index, "key": op.key, "seconds": seconds,
                            "probe_s": (before + probe_s) / 2,
                            "traced": traced, "rc": result.rc,
                            "stdout": result.stdout, "stderr": result.stderr,
                            "artifact": result.artifact})
    report = {"ready": ready, "ready_probe_s": ready_probe_s, "ops": records,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.spans)
        report["span_cost_s"] = tracing.span_cost()
        trace_out = HERE / ".trace" / f"{args.workload}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
