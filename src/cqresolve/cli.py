"""Command-line front end.

Every command is a thin wrapper over a library call: parse inputs, run the
operation, print ``key = value`` lines (floats at 12 significant digits),
and optionally write CSV/JSON artifacts. Exit codes: 0 success, 2
validation or usage error, 3 resource-cap error. Stochastic commands echo
their effective seed.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .channel import (DEFAULT_MAX_TYPES, CQChannel, Distribution, Word,
                      channel_from_json, distribution_from_json, format_label,
                      output_state)
from .errors import (ConvergenceError, ResourceLimitError, ValidationError,
                     check_positive_int, check_real)
from .info import RenyiOrder
from .idcodes import bridge_counting_check, idcode_from_json, \
    pairwise_distance_check, verify_id_code
from .linalg import DEFAULT_MAX_DIM
from .rates import capacity, fixed_input_rate
from .resolvability import (SmoothingParams, converse_trend, ll1b_bound,
                            ll2_bound, resolution_error_exact,
                            resolution_error_worst, soft_cover_simulate)
from .types_sanov import (Basis, all_empirical_states, bad_codeword_test,
                          commuting_types_bound_check, ee31_margin,
                          type_projector)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _json_ready(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str | None, header: Sequence[str],
               rows: Sequence[Sequence[str]]) -> None:
    if path is None:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def _cmd_capacity(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    result = capacity(channel, tol=args.tol)
    print(f"capacity_bits = {_fmt(result.value)}")
    print(f"certificate_gap = {_fmt(result.certificate)}")
    print(f"iterations = {result.iterations}")
    if args.out_path:
        _write_json(args.out_path, {
            "command": "capacity", "value": result.value,
            "certificate_gap": result.certificate,
            "iterations": result.iterations,
            "argmax": _dist_payload(result.distribution)})
    return 0


def _cmd_fixed_rate(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    result = fixed_input_rate(channel, dist)
    print(f"fixed_input_rate_bits = {_fmt(result.value)}")
    print(f"vertices_examined = {result.iterations}")
    if args.out_path:
        _write_json(args.out_path, {
            "command": "fixed-rate", "value": result.value,
            "vertices_examined": result.iterations,
            "argmin": _dist_payload(result.distribution)})
    return 0


def _mtype_payload(res) -> dict:
    return {format_label(lbl): int(round(mass * res.M))
            for lbl, mass in zip(res.argmin.distribution.labels,
                                 res.argmin.distribution.masses)
            if mass > 0}


def _cmd_resolve(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    result = resolution_error_exact(channel, dist, args.M, args.n,
                                    max_types=args.max_types, max_dim=args.max_dim)
    print(f"exact_error = {_fmt(result.error)}")
    print(f"M = {result.M}")
    print(f"n = {result.n}")
    if args.out_path:
        _write_json(args.out_path, {
            "command": "resolve", "error": result.error, "M": result.M,
            "n": result.n, "argmin_counts": _mtype_payload(result)})
    return 0


def _cmd_worst_resolve(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    result = resolution_error_worst(channel, args.M, args.n, grid=args.grid,
                                    max_types=args.max_types, max_dim=args.max_dim)
    print(f"worst_error_lower_bound = {_fmt(result.error)}")
    print(f"approximate = {result.approximate}")
    print(f"M = {result.M}")
    print(f"n = {result.n}")
    if args.out_path:
        _write_json(args.out_path, {
            "command": "worst-resolve", "error_lower_bound": result.error,
            "approximate": result.approximate, "M": result.M, "n": result.n,
            "worst_input": _dist_payload(result.worst_input)})
    return 0


def _cmd_softcover(args: argparse.Namespace) -> int:
    check_positive_int("--workers", args.workers)
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    report = soft_cover_simulate(channel, dist, args.M, args.n, args.samples,
                                 args.seed, orders=_orders(args),
                                 max_dim=args.max_dim)
    print(f"seed = {report.seed}")
    print(f"samples = {report.samples}")
    print(f"mean_error = {_fmt(report.mean_error)}")
    print(f"std_error = {_fmt(report.std_error)}")
    for alpha in sorted(report.bounds):
        print(f"bound_alpha_{_fmt(alpha)} = {_fmt(report.bounds[alpha])}")
    for alpha in sorted(report.bounds):
        print(f"renyi_converged_alpha_{_fmt(alpha)} = "
              f"{str(report.renyi_converged[alpha]).lower()}")
        print(f"renyi_iterations_alpha_{_fmt(alpha)} = {report.renyi_iterations[alpha]}")
    rows = [(str(i), _fmt(dval)) for i, dval in enumerate(report.distances)]
    _write_csv(args.out_path, ("sample", "trace_distance"), rows)
    return 0


def _cmd_bound_ll2(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    sigma = output_state(channel, dist)
    value = ll2_bound(channel, dist, sigma, args.cthr, args.M)
    print(f"ll2_bound = {_fmt(value)}")
    print(f"M = {args.M}")
    if args.out_path:
        _write_json(args.out_path, {"command": "bound-ll2", "bound": value,
                                   "Cthr": args.cthr, "M": args.M})
    return 0


def _cmd_bound_ll1b(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    params = SmoothingParams(args.lam, args.v, args.L)
    value = ll1b_bound(channel, dist, params, args.M)
    print(f"ll1b_bound = {_fmt(value)}")
    print(f"M = {args.M}")
    if args.out_path:
        _write_json(args.out_path, {"command": "bound-ll1b", "bound": value,
                                   "lambda": args.lam, "v": args.v, "L": args.L,
                                   "M": args.M})
    return 0


def _cmd_sanov_sweep(args: argparse.Namespace) -> int:
    if args.dist_path is None:
        raise ValidationError("sanov-sweep requires --dist (the diagonal of the "
                              "reference state)")
    check_positive_int("--n", args.n)
    dist = distribution_from_json(_inline_or_path(args.dist_path))
    rho = np.diag(dist.masses).astype(complex)
    rows = []
    for n in range(1, args.n + 1):
        for t in all_empirical_states(n, len(dist.masses)):
            check = commuting_types_bound_check(rho, t, n)
            rows.append((str(n), "|".join(str(c) for c in t.counts),
                         _fmt(check.lhs), _fmt(check.rhs),
                         "true" if check.ok else "false"))
    _write_csv(args.out_path, ("n", "type_counts", "lhs", "rhs", "ok"), rows)
    bad = sum(1 for row in rows if row[4] == "false")
    print(f"rows = {len(rows)}")
    print(f"violations = {bad}")
    return 0


def _cmd_types_check(args: argparse.Namespace) -> int:
    has_channel = args.channel_path is not None or args.builtin is not None
    if has_channel != (args.delta is not None):
        raise ValidationError("types-check counts bad codewords only with both "
                              "--delta and a channel (--channel or --builtin)")
    if args.dist_path is not None and not has_channel:
        raise ValidationError("types-check reads --dist only with a channel")
    if args.eps is not None and args.builtin is None:
        raise ValidationError("--eps is read only with --builtin example1")
    d, n = args.alphabet_size, args.n
    if d ** n > args.max_dim:
        raise ResourceLimitError(f"d^n = {d ** n} exceeds --max-dim {args.max_dim}")
    states = all_empirical_states(n, d)
    expected = math.comb(n + d - 1, d - 1)
    print(f"type_count = {len(states)}")
    print(f"type_count_formula_ok = {str(len(states) == expected).lower()}")
    basis = Basis.standard(d)
    total = np.zeros((d ** n, d ** n), dtype=complex)
    rank_sum = 0
    for t in states:
        proj = type_projector(t, basis, max_dim=args.max_dim)
        total += proj.matrix
        rank_sum += proj.rank
    partition_dev = float(np.max(np.abs(total - np.eye(d ** n))))
    print(f"partition_identity_max_dev = {_fmt(partition_dev)}")
    print(f"rank_sum = {rank_sum}")
    print(f"rank_sum_ok = {str(rank_sum == d ** n).lower()}")
    # The margin depends on a word only through its type, so one word per
    # type gives the same minimum as every word.
    min_margin = min(
        ee31_margin(Word(tuple(j for j, c in enumerate(t.counts) for _ in range(c))),
                    d, max_dim=args.max_dim)
        for t in states)
    print(f"twirl_domination_min_margin = {_fmt(min_margin)}")
    ok = partition_dev <= 1e-9 and rank_sum == d ** n and min_margin >= -1e-9
    print(f"all_ok = {str(ok).lower()}")
    if has_channel:
        channel = _load_channel(args)
        dist = _load_dist(args, channel)
        count = sum(bad_codeword_test(channel, Word(w), dist, args.delta)
                    for w in itertools.product(channel.labels, repeat=n))
        print(f"bad_codewords = {count} / {channel.size ** n}")
    return 0


def _cmd_id_verify(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    code = idcode_from_json(args.code_path, labels=channel.labels)
    report = verify_id_code(code, channel)
    print(f"entries = {code.size}")
    print(f"valid = {str(report.valid).lower()}")
    print(f"worst_hit_margin = {_fmt(report.worst_hit_margin)}")
    print(f"worst_cross_margin = {_fmt(report.worst_cross_margin)}")
    for line in report.failures:
        print(f"failure: {line}")
    pair = pairwise_distance_check(code, channel)
    print(f"min_pairwise_distance = {_fmt(pair.min_distance)}")
    print(f"distance_threshold = {_fmt(pair.threshold)}")
    print(f"distance_ok = {str(pair.ok).lower()}")
    if args.out_path:
        _write_json(args.out_path, {
            "command": "id-verify", "valid": report.valid,
            "worst_hit_margin": report.worst_hit_margin,
            "worst_cross_margin": report.worst_cross_margin,
            "min_pairwise_distance": pair.min_distance,
            "distance_threshold": pair.threshold,
            "distance_ok": pair.ok})
    return 0


def _cmd_id_bridge(args: argparse.Namespace) -> int:
    check = bridge_counting_check(args.N, args.alphabet_size, args.M,
                                  args.lambda1, args.lambda2, args.eps)
    print(f"applicable = {str(check.applicable).lower()}")
    print(f"count_ok = {str(check.count_ok).lower()}")
    if check.applicable and not check.count_ok:
        bound = 1.0 - args.lambda1 - args.lambda2
        print(f"implied_worst_error_at_M{args.M} >= {_fmt(bound)} (contradiction: "
              f"no such code can exist with the supplied eps)")
    if args.out_path:
        _write_json(args.out_path, {
            "command": "id-bridge", "applicable": check.applicable,
            "count_ok": check.count_ok, "N": args.N, "M": args.M,
            "alphabet_size": args.alphabet_size})
    return 0


def _cmd_converse_trend(args: argparse.Namespace) -> int:
    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    rows_raw = converse_trend(channel, dist, args.rate, args.n_max,
                              max_types=args.max_types, max_dim=args.max_dim)
    rows = [(str(n), str(m), _fmt(err)) for n, m, err in rows_raw]
    _write_csv(args.out_path, ("n", "M", "exact_error"), rows)
    print(f"rate_bits = {_fmt(args.rate)}")
    print(f"n_max = {args.n_max}")
    return 0


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
    values = []
    k = 0
    while start + k * step <= stop + 1e-9:
        values.append(round(start + k * step, 12))
        k += 1
    return values


def _cmd_separation_figure(args: argparse.Namespace) -> int:
    rows = []
    for eps in _parse_eps_grid(args.eps_grid):
        channel = _builtin_example1(eps)
        cap = capacity(channel, tol=args.tol)
        dist = Distribution(channel.labels, np.array([0.5, 0.5, 0.0]))
        fixed = fixed_input_rate(channel, dist)
        rows.append((_fmt(eps), _fmt(cap.value), _fmt(fixed.value)))
    _write_csv(args.out_path, ("epsilon", "capacity", "fixed_rate"), rows)
    print(f"points = {len(rows)}")
    return 0


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


def _add_caps(sp: argparse.ArgumentParser, *, max_types: bool = False) -> None:
    if max_types:
        sp.add_argument("--max-types", type=int, default=DEFAULT_MAX_TYPES,
                        help="enumeration cap on M-types / grid points")
    sp.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                    help="cap on product-space matrix dimension d^n")


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
    _add_caps(sp, max_types=True)

    sp = command("worst-resolve", "grid + refinement lower bound on the "
                 "worst-input resolution error")
    _add_channel_flags(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--grid", type=int, default=20,
                    help="simplex grid resolution (step = 1/grid)")
    _add_caps(sp, max_types=True)

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
    _add_caps(sp)

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
    _add_caps(sp)

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
    _add_caps(sp, max_types=True)

    sp = command("separation-figure", "capacity vs fixed-input rate for the "
                 "builtin three-input channel over an eps grid; "
                 "CSV epsilon,capacity,fixed_rate")
    sp.add_argument("--eps-grid", dest="eps_grid", default="0.05:0.45:0.05",
                    help="start:stop:step")
    sp.add_argument("--tol", type=float, default=1e-9)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"error: cannot read input file: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConvergenceError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
