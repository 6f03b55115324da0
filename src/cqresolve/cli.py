"""Command-line front end.

Every command is a thin wrapper over a library call: its handler parses the
inputs, runs the operation and returns a record (the output lines in order,
and a JSON payload or a CSV table) without printing anything. ``main`` alone
turns a record into output: it prints ``key = value`` lines (floats at 12
significant digits, booleans in lower case), prints a CSV table in its place
or writes it to ``--out``, and writes the JSON payload, tagged with the
command name, to ``--out``. An artifact is written before any line is
printed, so a failed write prints no result. Exit codes: 0 success, 1
standard output closed by its reader before every line was printed (the
``--out`` artifact is still written), 2 validation or usage error (an
unreadable input or unwritable ``--out`` file too), 3 resource-cap error.
Stochastic commands echo their effective seed. ``main`` builds its parser
on its first call and reuses it.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .channel import (CQChannel, Distribution, Word, channel_from_json,
                      distribution_from_json, format_label, output_state)
from .errors import (MAX_MATRIX_BYTES, ConvergenceError, ResourceLimitError,
                     ValidationError, check_budget, check_positive_int, check_real)
from .info import RenyiOrder
from .idcodes import bridge_counting_check, idcode_from_json, \
    pairwise_distance_check, verify_id_code
from .rates import capacity, fixed_input_rate
from .resolvability import (SmoothingParams, converse_trend, ll1b_bound,
                            ll2_bound, resolution_error_exact,
                            resolution_error_worst, soft_cover_simulate)
from .types_sanov import (Basis, all_empirical_states, bad_codeword_test,
                          commuting_types_bound_check, ee31_margin,
                          type_projector)


# Points of a separation-figure --eps-grid; each runs a capacity ascent and a
# vertex enumeration.
_MAX_EPS_GRID_POINTS = 10_000


def _fmt(value) -> str:
    """One printed value: floats at 12 significant digits, booleans in lower case."""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, float):
        return f"{float(value):.12g}"
    return str(value)


def _json_ready(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


class _Table(NamedTuple):
    """A CSV table; each cell is formatted by ``_fmt``."""

    header: tuple[str, ...]
    rows: list[tuple]


# What a command handler returns: the output lines in print order, each a
# (key, value) field, a verbatim str line or a _Table, and the JSON payload
# that --out writes (None for the commands whose artifact is their table).
_Record = tuple[list, dict | None]


def _write_table(fh: TextIO, table: _Table) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows([_fmt(cell) for cell in row] for row in table.rows)


def _write_out(path: str, command: str, lines: list, payload: dict | None) -> None:
    """Write the record's table, or else its JSON payload and command name, to ``path``."""
    table = next((line for line in lines if isinstance(line, _Table)), None)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if table is not None:
                _write_table(fh, table)
            else:
                json.dump(_json_ready({"command": command, **payload}), fh,
                          indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write the --out file: {exc}") from exc


def _builtin_example1(eps: float) -> CQChannel:
    check_real("--eps", eps, 0.0, 1.0)
    states = [np.diag([1.0 - eps, eps]).astype(complex),
              np.diag([eps, 1.0 - eps]).astype(complex),
              np.diag([0.5, 0.5]).astype(complex)]
    return CQChannel(("0", "1", "e"), states)


def _load_channel(args: argparse.Namespace) -> CQChannel:
    if args.builtin is not None:
        if args.eps is None:
            raise ValidationError("--builtin example1 requires --eps")
        return _builtin_example1(args.eps)
    if args.eps is not None:
        raise ValidationError("--eps is read only with --builtin example1")
    if args.channel_path is None:
        raise ValidationError("a channel is required: --channel PATH "
                              "or --builtin example1 --eps E")
    return channel_from_json(args.channel_path)


def _inline_or_path(value: str):
    """A value starting with ``{`` is inline JSON; anything else is a path."""
    text = value.strip()
    return json.loads(text) if text.startswith("{") else value


def _load_dist(args: argparse.Namespace, channel: CQChannel) -> Distribution:
    if args.dist_path is None:
        return Distribution.uniform(channel.labels)
    return distribution_from_json(_inline_or_path(args.dist_path),
                                  labels=channel.labels)


def _orders(args: argparse.Namespace) -> tuple[RenyiOrder, ...]:
    try:
        values = [float(tok) for tok in args.alpha.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--alpha must be a comma list of numbers: {exc}")
    if not values:
        raise ValidationError("--alpha must name at least one order")
    return tuple(RenyiOrder(val) for val in values)


def _dist_payload(dist: Distribution) -> dict:
    return {format_label(lbl): float(mass)
            for lbl, mass in zip(dist.labels, dist.masses)}


def _cmd_capacity(args: argparse.Namespace) -> _Record:
    result = capacity(_load_channel(args), tol=args.tol)
    fields = [("capacity_bits", result.value), ("certificate_gap", result.certificate),
              ("iterations", result.iterations)]
    return fields, {"value": result.value, "certificate_gap": result.certificate,
                    "iterations": result.iterations,
                    "argmax": _dist_payload(result.distribution)}


def _cmd_fixed_rate(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    result = fixed_input_rate(channel, _load_dist(args, channel))
    fields = [("fixed_input_rate_bits", result.value), ("vertices_examined", result.iterations)]
    return fields, {"value": result.value, "vertices_examined": result.iterations,
                    "argmin": _dist_payload(result.distribution)}


def _mtype_payload(res) -> dict:
    return {format_label(lbl): int(c)
            for lbl, c in zip(res.argmin.distribution.labels, res.argmin.counts) if c > 0}


def _cmd_resolve(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    result = resolution_error_exact(channel, dist, args.M, args.n)
    fields = [("exact_error", result.error), ("M", result.M), ("n", result.n)]
    return fields, {"error": result.error, "M": result.M, "n": result.n,
                    "argmin_counts": _mtype_payload(result)}


def _cmd_worst_resolve(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    result = resolution_error_worst(channel, args.M, args.n, grid=args.grid)
    fields = [("worst_error_lower_bound", result.error), ("approximate", result.approximate),
              ("M", result.M), ("n", result.n)]
    return fields, {"error_lower_bound": result.error, "approximate": result.approximate,
                    "M": result.M, "n": result.n,
                    "worst_input": _dist_payload(result.worst_input)}


def _cmd_softcover(args: argparse.Namespace) -> _Record:
    check_positive_int("--workers", args.workers)
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    report = soft_cover_simulate(channel, dist, args.M, args.n, args.samples,
                                 args.seed, orders=_orders(args))
    alphas = sorted(report.bounds)
    lines = [("seed", report.seed), ("samples", report.samples),
             ("mean_error", report.mean_error), ("std_error", report.std_error)]
    lines += [(f"bound_alpha_{_fmt(alpha)}", report.bounds[alpha]) for alpha in alphas]
    for alpha in alphas:
        lines += [(f"renyi_converged_alpha_{_fmt(alpha)}", report.renyi_converged[alpha]),
                  (f"renyi_iterations_alpha_{_fmt(alpha)}", report.renyi_iterations[alpha])]
    lines.append(_Table(("sample", "trace_distance"), list(enumerate(report.distances))))
    return lines, None


def _cmd_bound_ll2(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    value = ll2_bound(channel, dist, output_state(channel, dist), args.cthr, args.M)
    return [("ll2_bound", value), ("M", args.M)], {"bound": value, "Cthr": args.cthr, "M": args.M}


def _cmd_bound_ll1b(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    value = ll1b_bound(channel, dist, SmoothingParams(args.lam, args.v, args.L), args.M)
    payload = {"bound": value, "lambda": args.lam, "v": args.v, "L": args.L, "M": args.M}
    return [("ll1b_bound", value), ("M", args.M)], payload


def _cmd_sanov_sweep(args: argparse.Namespace) -> _Record:
    if args.dist_path is None:
        raise ValidationError("sanov-sweep requires --dist (the diagonal of the "
                              "reference state)")
    check_positive_int("--n", args.n)
    dist = distribution_from_json(_inline_or_path(args.dist_path))
    rho = np.diag(dist.masses).astype(complex)
    rows = []
    for n in range(1, args.n + 1):
        for t in all_empirical_states(n, len(dist.masses)):
            check = commuting_types_bound_check(rho, t)
            rows.append((n, "|".join(str(c) for c in t.counts), check.lhs, check.rhs,
                         check.ok))
    return [_Table(("n", "type_counts", "lhs", "rhs", "ok"), rows), ("rows", len(rows)),
            ("violations", sum(not row[4] for row in rows))], None


def _cmd_types_check(args: argparse.Namespace) -> _Record:
    has_channel = args.channel_path is not None or args.builtin is not None
    if has_channel != (args.delta is not None):
        raise ValidationError("types-check counts bad codewords only with both "
                              "--delta and a channel (--channel or --builtin)")
    if args.dist_path is not None and not has_channel:
        raise ValidationError("types-check reads --dist only with a channel")
    if args.eps is not None and args.builtin is None:
        raise ValidationError("--eps is read only with --builtin example1")
    d, n = args.alphabet_size, args.n
    check_positive_int("--alphabet-size", d)
    check_positive_int("--n", n)
    check_budget(f"the {d}^{n} x {d}^{n} type partition",
                 (np.dtype(complex).itemsize, d * d, n), MAX_MATRIX_BYTES)
    states = all_empirical_states(n, d)
    basis = Basis.standard(d)
    total = np.zeros((d ** n, d ** n), dtype=complex)
    rank_sum = 0
    for t in states:
        proj = type_projector(t, basis)
        total += proj.matrix
        rank_sum += proj.rank
        del proj  # so the next projector is built without this one held
    total[np.diag_indices_from(total)] -= 1
    partition_dev = float(np.max(np.abs(total)))
    # The margin depends on a word only through its type, so one word per
    # type gives the same minimum as every word.
    min_margin = min(
        ee31_margin(Word(tuple(j for j, c in enumerate(t.counts) for _ in range(c))), d)
        for t in states)
    ok = partition_dev <= 1e-9 and rank_sum == d ** n and min_margin >= -1e-9
    fields = [("type_count", len(states)),
              ("type_count_formula_ok", len(states) == math.comb(n + d - 1, d - 1)),
              ("partition_identity_max_dev", partition_dev), ("rank_sum", rank_sum),
              ("rank_sum_ok", rank_sum == d ** n),
              ("twirl_domination_min_margin", min_margin), ("all_ok", ok)]
    if has_channel:
        channel = _load_channel(args)
        dist = _load_dist(args, channel)
        count = sum(bad_codeword_test(channel, Word(w), dist, args.delta)
                    for w in itertools.product(channel.labels, repeat=n))
        fields.append(("bad_codewords", f"{count} / {channel.size ** n}"))
    return fields, None


def _cmd_id_verify(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    code = idcode_from_json(args.code_path, labels=channel.labels)
    report = verify_id_code(code, channel)
    pair = pairwise_distance_check(code, channel)
    lines = [("entries", code.size), ("valid", report.valid),
             ("worst_hit_margin", report.worst_hit_margin),
             ("worst_cross_margin", report.worst_cross_margin),
             *(f"failure: {line}" for line in report.failures),
             ("min_pairwise_distance", pair.min_distance),
             ("distance_threshold", pair.threshold), ("distance_ok", pair.ok)]
    return lines, {"valid": report.valid, "worst_hit_margin": report.worst_hit_margin,
                   "worst_cross_margin": report.worst_cross_margin,
                   "min_pairwise_distance": pair.min_distance,
                   "distance_threshold": pair.threshold, "distance_ok": pair.ok}


def _cmd_id_bridge(args: argparse.Namespace) -> _Record:
    check = bridge_counting_check(args.N, args.alphabet_size, args.M,
                                  args.lambda1, args.lambda2, args.eps)
    lines = [("applicable", check.applicable), ("count_ok", check.count_ok)]
    if check.applicable and not check.count_ok:
        bound = 1.0 - args.lambda1 - args.lambda2
        lines.append(f"implied_worst_error_at_M{args.M} >= {_fmt(bound)} (contradiction: "
                     f"no such code can exist with the supplied eps)")
    return lines, {"applicable": check.applicable, "count_ok": check.count_ok,
                   "N": args.N, "M": args.M, "alphabet_size": args.alphabet_size}


def _cmd_converse_trend(args: argparse.Namespace) -> _Record:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    rows = converse_trend(channel, dist, args.rate, args.n_max)
    return [_Table(("n", "M", "exact_error"), rows), ("rate_bits", args.rate),
            ("n_max", args.n_max)], None


def _parse_eps_grid(spec_text: str) -> list[float]:
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ValidationError("--eps-grid must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--eps-grid values must be numbers: {exc}")
    check_real("--eps-grid start", start)
    check_real("--eps-grid step", step, 0.0, open_lo=True)
    check_real("--eps-grid stop", stop, start)
    # The grid is every start + k·step <= stop + 1e-9.
    points = []
    while start + len(points) * step <= stop + 1e-9:
        if len(points) == _MAX_EPS_GRID_POINTS:
            raise ResourceLimitError(f"--eps-grid has more than {_MAX_EPS_GRID_POINTS} points")
        points.append(round(start + len(points) * step, 12))
    return points


def _cmd_separation_figure(args: argparse.Namespace) -> _Record:
    rows = []
    for eps in _parse_eps_grid(args.eps_grid):
        channel = _builtin_example1(eps)
        dist = Distribution(channel.labels, np.array([0.5, 0.5, 0.0]))
        rows.append((eps, capacity(channel, tol=args.tol).value,
                     fixed_input_rate(channel, dist).value))
    return [_Table(("epsilon", "capacity", "fixed_rate"), rows), ("points", len(rows))], None


_DISPATCH = {
    "capacity": _cmd_capacity,
    "fixed-rate": _cmd_fixed_rate,
    "resolve": _cmd_resolve,
    "worst-resolve": _cmd_worst_resolve,
    "softcover": _cmd_softcover,
    "bound-ll2": _cmd_bound_ll2,
    "bound-ll1b": _cmd_bound_ll1b,
    "sanov-sweep": _cmd_sanov_sweep,
    "types-check": _cmd_types_check,
    "id-verify": _cmd_id_verify,
    "id-bridge": _cmd_id_bridge,
    "converse-trend": _cmd_converse_trend,
    "separation-figure": _cmd_separation_figure,
}


def _add_channel_flags(sp: argparse.ArgumentParser) -> None:
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--channel", dest="channel_path", metavar="PATH",
                        help="channel JSON file")
    source.add_argument("--builtin", choices=["example1"],
                        help="use a built-in channel (requires --eps)")
    sp.add_argument("--eps", type=float,
                    help="flip probability for the builtin channel")


def _add_dist_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--dist", dest="dist_path", metavar="PATH_OR_JSON",
                    help="input distribution: JSON file path or inline "
                    "{\"label\": mass} object (default: uniform)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqresolve",
        description="Classical-quantum channel resolvability toolkit: exact "
                    "resolution errors, capacity and fixed-input rates, "
                    "soft-covering experiments, smoothing bounds, type-class "
                    "checks, and identification-code verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *, out: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        if out:
            sp.add_argument("--out", dest="out_path", metavar="PATH",
                            help="write CSV/JSON artifact here")
        return sp

    sp = command("capacity", "iterative maximization of the input-output "
                 "mutual information with a gap certificate")
    _add_channel_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = command("fixed-rate", "minimum mutual information over inputs with "
                 "the same output state (vertex enumeration)")
    _add_channel_flags(sp)
    _add_dist_flag(sp)

    sp = command("resolve", "exact minimum half trace distance over M-types "
                 "on the n-fold alphabet")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)

    sp = command("worst-resolve", "grid + refinement lower bound on the "
                 "worst-input resolution error")
    _add_channel_flags(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--grid", type=int, default=20,
                    help="simplex grid resolution (step = 1/grid)")

    sp = command("softcover", "Monte-Carlo codebook experiment vs the Renyi "
                 "soft-covering bound; CSV sample,trace_distance")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alpha", default="2",
                    help="comma list of Renyi orders in (1,2]")
    sp.add_argument("--workers", type=int, default=1,
                    help="accepted; has no effect")

    sp = command("bound-ll2", "pinching-based one-shot bound with reference "
                 "sigma = W(p) and threshold C")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--cthr", type=float, required=True,
                    help="threshold C in the projector {E(W_x) >= C sigma}")

    sp = command("bound-ll1b", "smoothing-based one-shot bound with "
                 "ceil(W(p)) as reference")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0,
                    help="geometric grid step of the smoothing")
    sp.add_argument("--v", type=int, default=1, help="grid depth")
    sp.add_argument("--L", type=float, default=1.0, help="threshold L")

    sp = command("sanov-sweep", "commuting types bound over all profiles for "
                 "n = 1..N; CSV n,type_counts,lhs,rhs,ok")
    _add_dist_flag(sp)
    sp.add_argument("--n", type=int, required=True, help="maximum block length")

    sp = command("types-check", "type partition identity, rank arithmetic, "
                 "and the twirling domination margin", out=False)
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--alphabet-size", type=int, default=2,
                    help="basis size d for the type checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=float,
                    help="also count bad codewords at this threshold "
                    "(needs a channel; --dist defaults to uniform)")

    sp = command("id-verify", "verify an identification code against a "
                 "channel and check pairwise output distances")
    _add_channel_flags(sp)
    sp.add_argument("--code", dest="code_path", metavar="PATH", required=True,
                    help="ID-code JSON file")

    sp = command("id-bridge", "counting check |X|^M >= N with the "
                 "resolvability applicability gate")
    sp.add_argument("--N", type=int, required=True, help="code size")
    sp.add_argument("--alphabet-size", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--lambda1", type=float, required=True)
    sp.add_argument("--lambda2", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True,
                    help="worst-input resolution error ε(W,M) to gate on")

    sp = command("converse-trend", "exact errors at M = floor(2^{nR}) for "
                 "n = 1..n_max; CSV n,M,exact_error")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--rate", type=float, required=True, help="rate R in bits")
    sp.add_argument("--n-max", dest="n_max", type=int, required=True)

    sp = command("separation-figure", "capacity vs fixed-input rate for the "
                 "builtin three-input channel over an eps grid; "
                 "CSV epsilon,capacity,fixed_rate")
    sp.add_argument("--eps-grid", dest="eps_grid", default="0.05:0.45:0.05",
                    help="start:stop:step")
    sp.add_argument("--tol", type=float, default=1e-9)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for the process."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        lines, payload = _DISPATCH[args.command](args)
        out_path = getattr(args, "out_path", None)
        if out_path:
            _write_out(out_path, args.command, lines, payload)
    except OSError as exc:
        print(f"error: cannot read input file: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConvergenceError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    try:
        for line in lines:
            if isinstance(line, _Table):
                if not out_path:
                    _write_table(sys.stdout, line)
            elif isinstance(line, str):
                print(line)
            else:
                print(f"{line[0]} = {_fmt(line[1])}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the interpreter's
        # own flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
