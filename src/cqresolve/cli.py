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
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .channel import (CQChannel, Distribution, Word, channel_from_json,
                      distribution_from_json, format_label)
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .info import RenyiOrder, binary_entropy
from .idcodes import bridge_counting_check, idcode_from_json, \
    pairwise_distance_check, verify_id_code
from .linalg import DEFAULT_MAX_DIM
from .rates import capacity, fixed_input_rate
from .resolvability import (SmoothingParams, converse_trend, ll1b_bound,
                            ll2_bound, resolution_error_exact,
                            resolution_error_worst, soft_cover_simulate)
from .channel import DEFAULT_MAX_TYPES
from .types_sanov import (Basis, EmpiricalState, all_empirical_states,
                          bad_codeword_test, commuting_types_bound_check,
                          ee31_margin, empirical_state, type_projector)

COMMANDS = ("capacity", "fixed-rate", "resolve", "worst-resolve", "softcover",
            "bound-ll2", "bound-ll1b", "sanov-sweep", "types-check",
            "id-verify", "id-bridge", "converse-trend", "separation-figure")


@dataclass
class RunConfig:
    """Parsed invocation: one command plus every flag it may consume."""

    command: str
    channel_path: str | None = None
    builtin: str | None = None
    eps: float | None = None
    dist_path: str | None = None
    code_path: str | None = None
    M: int = 1
    n: int = 1
    alpha: str = "2"
    lam: float = 1.0
    v: int = 1
    L: float = 1.0
    delta: float | None = None
    r: float | None = None
    samples: int = 100
    seed: int = 0
    tol: float = 1e-9
    grid: int = 20
    out_path: str | None = None
    max_types: int = DEFAULT_MAX_TYPES
    max_dim: int = DEFAULT_MAX_DIM
    workers: int = 1
    cthr: float | None = None
    rate: float = 0.0
    n_max: int = 1
    eps_grid: str = "0.05:0.45:0.05"
    N: int = 2
    lambda1: float = 0.1
    lambda2: float = 0.1
    alphabet_size: int = 2


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
    if not (0.0 <= eps <= 1.0):
        raise ValidationError(f"--eps must lie in [0,1], got {eps}")
    states = [np.diag([1.0 - eps, eps]).astype(complex),
              np.diag([eps, 1.0 - eps]).astype(complex),
              np.diag([0.5, 0.5]).astype(complex)]
    return CQChannel(("0", "1", "e"), states)


def _load_channel(cfg: RunConfig) -> CQChannel:
    if cfg.builtin is not None:
        if cfg.builtin != "example1":
            raise ValidationError(f"unknown builtin channel '{cfg.builtin}'")
        if cfg.eps is None:
            raise ValidationError("--builtin example1 requires --eps")
        return _builtin_example1(cfg.eps)
    if cfg.channel_path is None:
        raise ValidationError("a channel is required: --channel PATH "
                              "or --builtin example1 --eps E")
    return channel_from_json(cfg.channel_path)


def _load_dist(cfg: RunConfig, channel: CQChannel) -> Distribution:
    if cfg.dist_path is None:
        return Distribution.uniform(channel.labels)
    text = cfg.dist_path.strip()
    source = json.loads(text) if text.startswith("{") else cfg.dist_path
    return distribution_from_json(source, labels=channel.labels)


def _orders(cfg: RunConfig) -> tuple[RenyiOrder, ...]:
    try:
        values = [float(tok) for tok in cfg.alpha.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--alpha must be a comma list of numbers: {exc}")
    if not values:
        raise ValidationError("--alpha must name at least one order")
    return tuple(RenyiOrder(val) for val in values)


def _dist_payload(dist: Distribution) -> dict:
    return {format_label(lbl): float(mass)
            for lbl, mass in zip(dist.labels, dist.masses)}


def _cmd_capacity(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    result = capacity(channel, tol=cfg.tol)
    print(f"capacity_bits = {_fmt(result.value)}")
    print(f"certificate_gap = {_fmt(result.certificate)}")
    print(f"iterations = {result.iterations}")
    if cfg.out_path:
        _write_json(cfg.out_path, {
            "command": "capacity", "value": result.value,
            "certificate_gap": result.certificate,
            "iterations": result.iterations,
            "argmax": _dist_payload(result.distribution)})
    return 0


def _cmd_fixed_rate(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    dist = _load_dist(cfg, channel)
    result = fixed_input_rate(channel, dist)
    print(f"fixed_input_rate_bits = {_fmt(result.value)}")
    print(f"vertices_examined = {result.iterations}")
    if cfg.out_path:
        _write_json(cfg.out_path, {
            "command": "fixed-rate", "value": result.value,
            "vertices_examined": result.iterations,
            "argmin": _dist_payload(result.distribution)})
    return 0


def _mtype_payload(res) -> dict:
    return {format_label(lbl): int(round(mass * res.M))
            for lbl, mass in zip(res.argmin.distribution.labels,
                                 res.argmin.distribution.masses)
            if mass > 0}


def _cmd_resolve(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    dist = _load_dist(cfg, channel)
    result = resolution_error_exact(channel, dist, cfg.M, cfg.n,
                                    max_types=cfg.max_types, max_dim=cfg.max_dim)
    print(f"exact_error = {_fmt(result.error)}")
    print(f"M = {result.M}")
    print(f"n = {result.n}")
    if cfg.out_path:
        _write_json(cfg.out_path, {
            "command": "resolve", "error": result.error, "M": result.M,
            "n": result.n, "argmin_counts": _mtype_payload(result)})
    return 0


def _cmd_worst_resolve(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    result = resolution_error_worst(channel, cfg.M, cfg.n, grid=cfg.grid,
                                    max_types=cfg.max_types, max_dim=cfg.max_dim)
    print(f"worst_error_lower_bound = {_fmt(result.error)}")
    print(f"approximate = {result.approximate}")
    print(f"M = {result.M}")
    print(f"n = {result.n}")
    if cfg.out_path:
        _write_json(cfg.out_path, {
            "command": "worst-resolve", "error_lower_bound": result.error,
            "approximate": result.approximate, "M": result.M, "n": result.n,
            "worst_input": _dist_payload(result.worst_input)})
    return 0


def _cmd_softcover(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    dist = _load_dist(cfg, channel)
    report = soft_cover_simulate(channel, dist, cfg.M, cfg.n, cfg.samples,
                                 cfg.seed, orders=_orders(cfg),
                                 workers=cfg.workers, max_dim=cfg.max_dim)
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
    _write_csv(cfg.out_path, ("sample", "trace_distance"), rows)
    return 0


def _cmd_bound_ll2(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    dist = _load_dist(cfg, channel)
    if cfg.cthr is None:
        raise ValidationError("bound-ll2 requires --cthr")
    from .channel import output_state
    sigma = output_state(channel, dist)
    value = ll2_bound(channel, dist, sigma, cfg.cthr, cfg.M)
    print(f"ll2_bound = {_fmt(value)}")
    print(f"M = {cfg.M}")
    if cfg.out_path:
        _write_json(cfg.out_path, {"command": "bound-ll2", "bound": value,
                                   "Cthr": cfg.cthr, "M": cfg.M})
    return 0


def _cmd_bound_ll1b(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    dist = _load_dist(cfg, channel)
    params = SmoothingParams(cfg.lam, cfg.v, cfg.L)
    value = ll1b_bound(channel, dist, params, cfg.M)
    print(f"ll1b_bound = {_fmt(value)}")
    print(f"M = {cfg.M}")
    if cfg.out_path:
        _write_json(cfg.out_path, {"command": "bound-ll1b", "bound": value,
                                   "lambda": cfg.lam, "v": cfg.v, "L": cfg.L,
                                   "M": cfg.M})
    return 0


def _cmd_sanov_sweep(cfg: RunConfig) -> int:
    if cfg.dist_path is None:
        raise ValidationError("sanov-sweep requires --dist (the diagonal of the "
                              "reference state)")
    text = cfg.dist_path.strip()
    source = json.loads(text) if text.startswith("{") else cfg.dist_path
    dist = distribution_from_json(source)
    rho = np.diag(dist.masses).astype(complex)
    rows = []
    for n in range(1, cfg.n + 1):
        for t in all_empirical_states(n, len(dist.masses)):
            check = commuting_types_bound_check(rho, t, n)
            rows.append((str(n), "|".join(str(c) for c in t.counts),
                         _fmt(check.lhs), _fmt(check.rhs),
                         "true" if check.ok else "false"))
    _write_csv(cfg.out_path, ("n", "type_counts", "lhs", "rhs", "ok"), rows)
    bad = sum(1 for row in rows if row[4] == "false")
    print(f"rows = {len(rows)}")
    print(f"violations = {bad}")
    return 0


def _cmd_types_check(cfg: RunConfig) -> int:
    d, n = cfg.alphabet_size, cfg.n
    if d ** n > cfg.max_dim:
        raise ResourceLimitError(f"d^n = {d ** n} exceeds --max-dim {cfg.max_dim}")
    states = all_empirical_states(n, d)
    expected = math.comb(n + d - 1, d - 1)
    print(f"type_count = {len(states)}")
    print(f"type_count_formula_ok = {str(len(states) == expected).lower()}")
    basis = Basis.standard(d)
    total = np.zeros((d ** n, d ** n), dtype=complex)
    rank_sum = 0
    for t in states:
        proj = type_projector(t, basis, max_dim=cfg.max_dim)
        total += proj.matrix
        rank_sum += proj.rank
    partition_dev = float(np.max(np.abs(total - np.eye(d ** n))))
    print(f"partition_identity_max_dev = {_fmt(partition_dev)}")
    print(f"rank_sum = {rank_sum}")
    print(f"rank_sum_ok = {str(rank_sum == d ** n).lower()}")
    min_margin = math.inf
    for flat in range(d ** n):
        digits = []
        rem = flat
        for _ in range(n):
            digits.append(rem % d)
            rem //= d
        word = Word(tuple(reversed(digits)))
        min_margin = min(min_margin, ee31_margin(word, d, max_dim=cfg.max_dim))
    print(f"twirl_domination_min_margin = {_fmt(min_margin)}")
    ok = partition_dev <= 1e-9 and rank_sum == d ** n and min_margin >= -1e-9
    print(f"all_ok = {str(ok).lower()}")
    if cfg.channel_path or cfg.builtin:
        channel = _load_channel(cfg)
        dist = _load_dist(cfg, channel)
        if cfg.delta is not None:
            count = 0
            totaln = channel.size ** n
            for flat in range(totaln):
                digits = []
                rem = flat
                for _ in range(n):
                    digits.append(rem % channel.size)
                    rem //= channel.size
                word = Word(tuple(channel.labels[i] for i in reversed(digits)))
                if bad_codeword_test(channel, word, dist, cfg.delta):
                    count += 1
            print(f"bad_codewords = {count} / {totaln}")
    return 0


def _cmd_id_verify(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    if cfg.code_path is None:
        raise ValidationError("id-verify requires --code PATH")
    code = idcode_from_json(cfg.code_path, labels=channel.labels)
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
    if cfg.out_path:
        _write_json(cfg.out_path, {
            "command": "id-verify", "valid": report.valid,
            "worst_hit_margin": report.worst_hit_margin,
            "worst_cross_margin": report.worst_cross_margin,
            "min_pairwise_distance": pair.min_distance,
            "distance_threshold": pair.threshold,
            "distance_ok": pair.ok})
    return 0


def _cmd_id_bridge(cfg: RunConfig) -> int:
    if cfg.eps is None:
        raise ValidationError("id-bridge requires --eps (the resolution error ε(W,M))")
    check = bridge_counting_check(cfg.N, cfg.alphabet_size, cfg.M,
                                  cfg.lambda1, cfg.lambda2, cfg.eps)
    print(f"applicable = {str(check.applicable).lower()}")
    print(f"count_ok = {str(check.count_ok).lower()}")
    if check.applicable and not check.count_ok:
        bound = 1.0 - cfg.lambda1 - cfg.lambda2
        print(f"implied_worst_error_at_M{cfg.M} >= {_fmt(bound)} (contradiction: "
              f"no such code can exist with the supplied eps)")
    if cfg.out_path:
        _write_json(cfg.out_path, {
            "command": "id-bridge", "applicable": check.applicable,
            "count_ok": check.count_ok, "N": cfg.N, "M": cfg.M,
            "alphabet_size": cfg.alphabet_size})
    return 0


def _cmd_converse_trend(cfg: RunConfig) -> int:
    channel = _load_channel(cfg)
    dist = _load_dist(cfg, channel)
    rows_raw = converse_trend(channel, dist, cfg.rate, cfg.n_max,
                              max_types=cfg.max_types, max_dim=cfg.max_dim)
    rows = [(str(n), str(m), _fmt(err)) for n, m, err in rows_raw]
    _write_csv(cfg.out_path, ("n", "M", "exact_error"), rows)
    print(f"rate_bits = {_fmt(cfg.rate)}")
    print(f"n_max = {cfg.n_max}")
    return 0


def _parse_eps_grid(spec_text: str) -> list[float]:
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ValidationError("--eps-grid must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--eps-grid values must be numbers: {exc}")
    if step <= 0 or stop < start:
        raise ValidationError("--eps-grid needs step > 0 and stop >= start")
    values = []
    k = 0
    while True:
        val = start + k * step
        if val > stop + 1e-9:
            break
        values.append(round(val, 12))
        k += 1
    return values


def _cmd_separation_figure(cfg: RunConfig) -> int:
    rows = []
    for eps in _parse_eps_grid(cfg.eps_grid):
        channel = _builtin_example1(eps)
        cap = capacity(channel, tol=cfg.tol)
        dist = Distribution(channel.labels, np.array([0.5, 0.5, 0.0]))
        fixed = fixed_input_rate(channel, dist)
        rows.append((_fmt(eps), _fmt(cap.value), _fmt(fixed.value)))
    _write_csv(cfg.out_path, ("epsilon", "capacity", "fixed_rate"), rows)
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


def run(config: RunConfig) -> int:
    """Execute one parsed command; returns the process exit code."""
    if config.command not in _DISPATCH:
        raise ValidationError(f"unknown command '{config.command}'")
    return _DISPATCH[config.command](config)


def _add_channel_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--channel", dest="channel_path", metavar="PATH",
                    help="channel JSON file")
    sp.add_argument("--builtin", choices=["example1"],
                    help="use a built-in channel (requires --eps)")
    sp.add_argument("--eps", type=float, help="flip probability for the builtin "
                    "channel, or the supplied resolution error for id-bridge")


def _add_dist_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--dist", dest="dist_path", metavar="PATH_OR_JSON",
                    help="input distribution: JSON file path or inline "
                    "{\"label\": mass} object (default: uniform)")


def _add_caps(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-types", type=int, default=DEFAULT_MAX_TYPES,
                    help="enumeration cap on M-types / grid points")
    sp.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                    help="cap on product-space matrix dimension d^n")
    sp.add_argument("--out", dest="out_path", metavar="PATH",
                    help="write CSV/JSON artifact here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqresolve",
        description="Classical-quantum channel resolvability toolkit: exact "
                    "resolution errors, capacity and fixed-input rates, "
                    "soft-covering experiments, smoothing bounds, type-class "
                    "checks, and identification-code verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("capacity", help="iterative maximization of the "
                        "input-output mutual information with a gap certificate")
    _add_channel_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9)
    _add_caps(sp)

    sp = sub.add_parser("fixed-rate", help="minimum mutual information over "
                        "inputs with the same output state (vertex enumeration)")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    _add_caps(sp)

    sp = sub.add_parser("resolve", help="exact minimum half trace distance "
                        "over M-types on the n-fold alphabet")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    _add_caps(sp)

    sp = sub.add_parser("worst-resolve", help="grid + refinement lower bound "
                        "on the worst-input resolution error")
    _add_channel_flags(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--grid", type=int, default=20,
                    help="simplex grid resolution (step = 1/grid)")
    _add_caps(sp)

    sp = sub.add_parser("softcover", help="Monte-Carlo codebook experiment vs "
                        "the Renyi soft-covering bound; CSV sample,trace_distance")
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

    sp = sub.add_parser("bound-ll2", help="pinching-based one-shot bound with "
                        "reference sigma = W(p) and threshold C")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--cthr", type=float, required=True,
                    help="threshold C in the projector {E(W_x) >= C sigma}")
    _add_caps(sp)

    sp = sub.add_parser("bound-ll1b", help="smoothing-based one-shot bound "
                        "with ceil(W(p)) as reference")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0,
                    help="geometric grid step of the smoothing")
    sp.add_argument("--v", type=int, default=1, help="grid depth")
    sp.add_argument("--L", type=float, default=1.0, help="threshold L")
    _add_caps(sp)

    sp = sub.add_parser("sanov-sweep", help="commuting types bound over all "
                        "profiles for n = 1..N; CSV n,type_counts,lhs,rhs,ok")
    _add_dist_flag(sp)
    sp.add_argument("--n", type=int, required=True, help="maximum block length")
    _add_caps(sp)

    sp = sub.add_parser("types-check", help="type partition identity, rank "
                        "arithmetic, and the twirling domination margin")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--alphabet-size", type=int, default=2,
                    help="basis size d for the type checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=float,
                    help="also count bad codewords at this threshold "
                    "(needs a channel and distribution)")
    _add_caps(sp)

    sp = sub.add_parser("id-verify", help="verify an identification code "
                        "against a channel and check pairwise output distances")
    _add_channel_flags(sp)
    sp.add_argument("--code", dest="code_path", metavar="PATH", required=True,
                    help="ID-code JSON file")
    _add_caps(sp)

    sp = sub.add_parser("id-bridge", help="counting check |X|^M >= N with the "
                        "resolvability applicability gate")
    sp.add_argument("--N", type=int, required=True, help="code size")
    sp.add_argument("--alphabet-size", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--lambda1", type=float, required=True)
    sp.add_argument("--lambda2", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True,
                    help="worst-input resolution error ε(W,M) to gate on")
    _add_caps(sp)

    sp = sub.add_parser("converse-trend", help="exact errors at M = floor(2^{nR}) "
                        "for n = 1..n_max; CSV n,M,exact_error")
    _add_channel_flags(sp)
    _add_dist_flag(sp)
    sp.add_argument("--rate", type=float, required=True, help="rate R in bits")
    sp.add_argument("--n-max", dest="n_max", type=int, required=True)
    _add_caps(sp)

    sp = sub.add_parser("separation-figure", help="capacity vs fixed-input rate "
                        "for the builtin three-input channel over an eps grid; "
                        "CSV epsilon,capacity,fixed_rate")
    sp.add_argument("--eps-grid", dest="eps_grid", default="0.05:0.45:0.05",
                    help="start:stop:step")
    sp.add_argument("--tol", type=float, default=1e-9)
    _add_caps(sp)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    valid = {f.name for f in fields(RunConfig)}
    for key, val in vars(args).items():
        if key in valid and val is not None and key != "command":
            setattr(cfg, key, val)
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    cfg = _config_from_args(args)
    try:
        return run(cfg)
    except OSError as exc:
        print(f"error: cannot read input file: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
