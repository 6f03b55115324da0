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
on its first call and reuses it. Importing this module loads only the
package's ``errors``; each handler imports the library names it calls when
it runs, so a command loads only the modules it reaches.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import (MAX_COUNT_BYTES, MAX_TYPES, ConvergenceError, ResourceLimitError,
                     ValidationError, check_budget, check_positive_int, check_real)

if TYPE_CHECKING:
    from .channel import CQChannel, Distribution
    from .info import RenyiOrder


# Points of a separation-figure --eps-grid. Its capacity ascents and linear
# programs run as one stack, whose arrays and run time grow with the count.
_MAX_EPS_GRID_POINTS = 10_000
EXAMPLE1_LABELS = ("0", "1", "e")


def _fmt(value) -> str:
    """One printed value: floats at 12 significant digits, booleans in lower case."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
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
    """A CSV table; each cell is formatted by ``_fmt``. The rows may be an
    iterator, consumed as the table is written."""

    header: tuple[str, ...]
    rows: Iterable[tuple]


# What a command handler returns: the output lines in print order, each a
# (key, value) field, a verbatim str line or a _Table, and the JSON payload
# that --out writes (None for the commands whose artifact is their table).
# A field's value may be a function, called once the lines before it are
# written: a count over a table whose rows are streamed.
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


def _example1_states(grid: Sequence[float]) -> np.ndarray:
    """The (r, 3, 2, 2) stack of example1's states at every ε of the grid, unchecked."""
    for eps in grid:
        check_real("--eps", eps, 0.0, 1.0)
    eps = np.array(grid, dtype=float)[:, None]
    diagonals = np.stack([np.hstack([1.0 - eps, eps]), np.hstack([eps, 1.0 - eps]),
                          np.full((len(grid), 2), 0.5)], axis=1)
    return diagonals[..., None] * np.eye(2, dtype=complex)


def _load_channel(args: argparse.Namespace) -> CQChannel:
    from .channel import CQChannel, channel_from_json

    if args.builtin is not None:
        if args.eps is None:
            raise ValidationError("--builtin example1 requires --eps")
        return CQChannel(EXAMPLE1_LABELS, _example1_states([args.eps])[0])
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
    from .channel import Distribution, distribution_from_json

    if args.dist_path is None:
        return Distribution.uniform(channel.labels)
    return distribution_from_json(_inline_or_path(args.dist_path),
                                  labels=channel.labels)


def _orders(args: argparse.Namespace) -> tuple[RenyiOrder, ...]:
    from .info import RenyiOrder

    try:
        values = [float(tok) for tok in args.alpha.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--alpha must be a comma list of numbers: {exc}")
    if not values:
        raise ValidationError("--alpha must name at least one order")
    return tuple(RenyiOrder(val) for val in values)


def _dist_payload(dist: Distribution) -> dict:
    from .channel import format_label

    return {format_label(lbl): float(mass)
            for lbl, mass in zip(dist.labels, dist.masses)}


def _cmd_capacity(args: argparse.Namespace) -> _Record:
    from .rates import capacity

    result = capacity(_load_channel(args), tol=args.tol)
    fields = [("capacity_bits", result.value), ("certificate_gap", result.certificate),
              ("iterations", result.iterations)]
    return fields, {"value": result.value, "certificate_gap": result.certificate,
                    "iterations": result.iterations,
                    "argmax": _dist_payload(result.distribution)}


def _cmd_fixed_rate(args: argparse.Namespace) -> _Record:
    from .rates import fixed_input_rate

    channel = _load_channel(args)
    result = fixed_input_rate(channel, _load_dist(args, channel))
    fields = [("fixed_input_rate_bits", result.value), ("certificate_gap", result.certificate),
              ("vertices_examined", result.iterations)]
    return fields, {"value": result.value, "certificate_gap": result.certificate,
                    "vertices_examined": result.iterations,
                    "argmin": _dist_payload(result.distribution)}


def _mtype_payload(res) -> dict:
    from .channel import format_label

    return {format_label(lbl): int(c)
            for lbl, c in zip(res.argmin.distribution.labels, res.argmin.counts) if c > 0}


def _cmd_resolve(args: argparse.Namespace) -> _Record:
    from .resolvability import resolution_error_exact

    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    result = resolution_error_exact(channel, dist, args.M, args.n)
    fields = [("exact_error", result.error), ("M", result.M), ("n", result.n)]
    return fields, {"error": result.error, "M": result.M, "n": result.n,
                    "argmin_counts": _mtype_payload(result)}


def _cmd_worst_resolve(args: argparse.Namespace) -> _Record:
    from .resolvability import resolution_error_worst

    channel = _load_channel(args)
    result = resolution_error_worst(channel, args.M, args.n, grid=args.grid)
    fields = [("worst_error_lower_bound", result.error), ("approximate", result.approximate),
              ("M", result.M), ("n", result.n)]
    return fields, {"error_lower_bound": result.error, "approximate": result.approximate,
                    "M": result.M, "n": result.n,
                    "worst_input": _dist_payload(result.worst_input)}


def _cmd_softcover(args: argparse.Namespace) -> _Record:
    from .resolvability import soft_cover_simulate

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
    from .channel import output_state
    from .resolvability import ll2_bound

    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    value = ll2_bound(channel, dist, output_state(channel, dist), args.cthr, args.M)
    return [("ll2_bound", value), ("M", args.M)], {"bound": value, "Cthr": args.cthr, "M": args.M}


def _cmd_bound_ll1b(args: argparse.Namespace) -> _Record:
    from .resolvability import SmoothingParams, ll1b_bound

    channel = _load_channel(args)
    dist = _load_dist(args, channel)
    value = ll1b_bound(channel, dist, SmoothingParams(args.lam, args.v, args.L), args.M)
    payload = {"bound": value, "lambda": args.lam, "v": args.v, "L": args.L, "M": args.M}
    return [("ll1b_bound", value), ("M", args.M)], payload


def _cmd_sanov_sweep(args: argparse.Namespace) -> _Record:
    from .channel import _m_type_blocks, distribution_from_json
    from .types_sanov import _types_bound_sweep

    if args.dist_path is None:
        raise ValidationError("sanov-sweep requires --dist (the diagonal of the "
                              "reference state)")
    check_positive_int("--n", args.n)
    # A law's checks make its diagonal a valid density, the one check of ρ.
    probs = distribution_from_json(_inline_or_path(args.dist_path)).masses
    d = probs.size
    # The rows are streamed, so every refusal comes before the first of
    # them: n = --n has the most types, and every n walks the same identity.
    _m_type_blocks(d, args.n, 1)
    violations = 0

    def rows():
        nonlocal violations
        for n, counts, check in _types_bound_sweep(probs, args.n):
            violations += not check.ok
            yield n, "|".join(map(str, counts)), check.lhs, check.rhs, check.ok

    # Σ_{n=1}^{N} C(n + d − 1, d − 1) = C(N + d, d) − 1 types
    return [_Table(("n", "type_counts", "lhs", "rhs", "ok"), rows()),
            ("rows", math.comb(args.n + d, d) - 1), ("violations", lambda: violations)], None


def _cmd_types_check(args: argparse.Namespace) -> _Record:
    """Type partition, ranks and twirl margin over the standard basis, from the word keys.

    No dⁿ×dⁿ matrix is built: `_standard_partition` matches the type rows to
    the dⁿ word keys and `_twirl_margins` takes every row at once. The keys'
    (dⁿ, n) int64 letter table is checked against MAX_COUNT_BYTES first,
    before the type rows and their multinomials (at d 2 only n + 1 rows).
    """
    from .channel import m_type_counts
    from .types_sanov import (_multinomial, _standard_partition, _twirl_margins,
                              bad_codeword_count)

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
    check_budget(f"the {d}^{n} x {n} letter table of the words",
                 (np.dtype(np.int64).itemsize * n, d, n), MAX_COUNT_BYTES)
    if has_channel:
        channel = _load_channel(args)
        dist = _load_dist(args, channel)
        check_budget(f"the bad-codeword count over {channel.size}^{n} words",
                     (1, channel.size, n), MAX_TYPES, "words")
        count = bad_codeword_count(channel, dist, n, args.delta)
    types = m_type_counts(d, n)
    ranks = [_multinomial(row) for row in types.tolist()]
    partition_dev, rank_sum = _standard_partition(types, ranks), sum(ranks)
    # A word's margin depends only on its type: one count row per type covers every word.
    min_margin = float(_twirl_margins(types, ranks).min())
    ok = partition_dev <= 1e-9 and rank_sum == d ** n and min_margin >= -1e-9
    fields = [("type_count", len(types)),
              ("type_count_formula_ok", len(types) == math.comb(n + d - 1, d - 1)),
              ("partition_identity_max_dev", partition_dev), ("rank_sum", rank_sum),
              ("rank_sum_ok", rank_sum == d ** n),
              ("twirl_domination_min_margin", min_margin), ("all_ok", ok)]
    if has_channel:
        fields.append(("bad_codewords", f"{count} / {channel.size ** n}"))
    return fields, None


def _cmd_id_verify(args: argparse.Namespace) -> _Record:
    from .idcodes import idcode_from_json, pairwise_distance_check, verify_id_code

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
    from .idcodes import bridge_counting_check

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
    from .resolvability import converse_trend

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
    from .linalg import _check_densities
    from .rates import _capacities, _fixed_input_rates

    grid = _parse_eps_grid(args.eps_grid)
    states = _check_densities(_example1_states(grid).reshape(-1, 2, 2)).reshape(-1, 3, 2, 2)
    capacities = _capacities(EXAMPLE1_LABELS, states, args.tol).values
    fixed = _fixed_input_rates(states, np.tile([0.5, 0.5, 0.0], (len(grid), 1))).values
    rows = list(zip(grid, capacities.tolist(), fixed.tolist()))
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
                 "the same output state (linear program)")
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
                key, value = line
                print(f"{key} = {_fmt(value() if callable(value) else value)}")
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
