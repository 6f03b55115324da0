"""The validation boundary: real arguments, integer sizes, resource budgets,
labels, float flags, JSON sources, and product channels built from checked
factors.

Every library entry point that takes a real argument rejects NaN, ±∞, a
bool and a just-out-of-range value with ValidationError, and still accepts
its boundary values; so do the references that left the library for the
oracles with their checks. Every size is a positive int, in the library
and on the command line (exit 2). Every resource budget is a constant: the
largest request within it is accepted, and one past it raises
ResourceLimitError before anything is allocated; no command takes a cap as
a flag. A label outside an alphabet is
named in a ValidationError. Every float flag of every command exits 2 on a
non-finite value. The three JSON loaders treat a str or path-like source
as a file and anything else as the parsed document. A product channel is
built from its checked factors and is not checked again, so a channel at
the edge of the trace tolerance has powers.
"""
from __future__ import annotations

import builtins
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
import cqresolve.channel as channel_module
import cqresolve.cli as cli
from cqresolve import ValidationError
from cqresolve.cli import main
from cqresolve.linalg import _kron_rows

import oracles as orc
from conftest import (BASE_ARGV, CODE_DOC, base_argv, build_flip_erase_channel,
                      command_parsers)

# ---------------------------------------------------------------------------
# real arguments of library entry points
# ---------------------------------------------------------------------------

CHANNEL, DIST = build_flip_erase_channel(0.1)
RHO = np.diag([0.75, 0.25]).astype(complex)
SIGMA = np.diag([0.5, 0.5]).astype(complex)
POINT_0 = cq.Distribution.point_mass(("0", "1"), "0")
POINT_1 = cq.Distribution.point_mass(("0", "1"), "1")
ORTHOGONAL = ((POINT_0, np.diag([1.0, 0.0])), (POINT_1, np.diag([0.0, 1.0])))
TINY = 5e-324

# entry point: (call with the real argument, just-out-of-range values,
# boundary or just-inside values that must still be accepted)
REAL_ARGUMENTS = {
    "RenyiOrder": (cq.RenyiOrder, (1.0, 2.0 + 1e-12), (1.0 + 1e-12, 2.0)),
    "binary_entropy": (orc.binary_entropy_ref, (-TINY, 1.0 + 1e-12), (0.0, 1.0)),
    "phi.s": (lambda v: cq.phi(v, RHO, SIGMA), (0.0, 1.0), (1e-12, 1.0 - 1e-12)),
    "spectral_cdf.a": (lambda v: orc.spectral_cdf(RHO, SIGMA, v), (1024.0,), (-1e300, 1023.0)),
    "capacity.tol": (lambda v: cq.capacity(CHANNEL, tol=v), (0.0,), (1e300,)),
    "SmoothingParams.lam": (lambda v: cq.SmoothingParams(v, 1), (0.0,), (TINY,)),
    "SmoothingParams.L": (lambda v: cq.SmoothingParams(1.0, 1, L=v), (0.0,), (TINY,)),
    "ll2_bound.Cthr": (lambda v: cq.ll2_bound(CHANNEL, DIST, SIGMA, v, 2), (0.0,), (1e-300,)),
    "converse_trend.R": (lambda v: cq.converse_trend(CHANNEL, DIST, v, 1), (-TINY,), (0.0,)),
    "SanovQuery.r": (lambda v: orc.SanovQuery(np.array([0.5, 0.5]), cq.EmpiricalState((1, 1), 2),
                                              SIGMA, v), (0.0,), (TINY,)),
    "bad_codeword_test.delta": (lambda v: orc.bad_codeword_test(CHANNEL, cq.Word(("0",)), DIST, v),
                                (0.0,), (TINY,)),
    "bad_codeword_count.delta": (lambda v: cq.bad_codeword_count(CHANNEL, DIST, 2, v),
                                 (0.0,), (TINY,)),
    "IDCode.lambda1": (lambda v: cq.IDCode(ORTHOGONAL, v, 0.1), (0.0, 1.0), (TINY, 1.0 - 1e-12)),
    "IDCode.lambda2": (lambda v: cq.IDCode(ORTHOGONAL, 0.1, v), (0.0, 1.0), (TINY, 1.0 - 1e-12)),
    "bridge_counting_check.lambda1": (lambda v: cq.bridge_counting_check(4, 2, 2, v, 0.1, 0.0),
                                      (0.0, 1.0), (TINY, 1.0 - 1e-12)),
    "bridge_counting_check.lambda2": (lambda v: cq.bridge_counting_check(4, 2, 2, 0.1, v, 0.0),
                                      (0.0, 1.0), (TINY, 1.0 - 1e-12)),
    "bridge_counting_check.eps": (lambda v: cq.bridge_counting_check(4, 2, 2, 0.1, 0.1, v),
                                  (-TINY,), (0.0, 1e300)),
}
# Ints beyond the float range: finite as ints, but no float can hold them.
# The second also has more digits than int-to-str conversion allows.
HUGE_INTS = {10 ** 400: "10**400", 10 ** 5000: "10**5000"}
NON_FINITE_OR_BOOL = (math.nan, math.inf, -math.inf, True, *HUGE_INTS)

REJECTED = [(entry, bad) for entry, (_, outside, _) in REAL_ARGUMENTS.items()
            for bad in NON_FINITE_OR_BOOL + outside]
ACCEPTED = [(entry, good) for entry, (_, _, inside) in REAL_ARGUMENTS.items()
            for good in inside]


@pytest.mark.parametrize("entry, bad", REJECTED, ids=[
    f"{e}={HUGE_INTS.get(b) or repr(b)}" for e, b in REJECTED])
def test_real_argument_is_rejected(entry, bad):
    with pytest.raises(ValidationError, match="must be"):
        REAL_ARGUMENTS[entry][0](bad)


@pytest.mark.parametrize("entry, good", ACCEPTED, ids=[f"{e}={g!r}" for e, g in ACCEPTED])
def test_boundary_real_argument_is_accepted(entry, good):
    REAL_ARGUMENTS[entry][0](good)


# ---------------------------------------------------------------------------
# integer arguments of the M-type enumeration
# ---------------------------------------------------------------------------

def compositions(total, parts):
    """The M-types of ``total`` over ``parts`` letters, asked for total first."""
    return cq.m_type_counts(parts, total)


ENUMERATION_CALLS = [
    (compositions, (-1, 2)), (compositions, (True, 2)), (compositions, (2.0, 2)),
    (compositions, (3, 0)), (compositions, (3, True)), (compositions, (3, 2.0)),
    (cq.m_type_counts, (3, True)), (cq.m_type_counts, (3, 0)), (cq.m_type_counts, (3, 2.0)),
    (cq.m_type_counts, (2.0, 3)), (cq.m_type_counts, (0, 3)), (cq.m_type_counts, (True, 3)),
]


@pytest.mark.parametrize("enumerate_, args", ENUMERATION_CALLS,
                         ids=[f"{f.__name__}{args}" for f, args in ENUMERATION_CALLS])
def test_enumeration_argument_is_rejected(enumerate_, args):
    with pytest.raises(ValidationError, match="must be a positive integer"):
        enumerate_(*args)


def test_enumeration_boundary_arguments_are_accepted():
    assert cq.m_type_counts(1, 1).tolist() == [[1]]
    assert cq.m_type_counts(3, 1).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


# ---------------------------------------------------------------------------
# sizes and resource budgets
# ---------------------------------------------------------------------------

# entry point: (call with the size, the least value it accepts)
SIZE_CALLS = {
    "ee31_margin.d": (lambda v: cq.ee31_margin(cq.Word((0, 1)), v), 2),
}
NOT_SIZES = (None, "5", 0, -1, 2.5, 2.0, True)
SIZE_CASES = [(entry, bad) for entry in SIZE_CALLS for bad in NOT_SIZES]


@pytest.mark.parametrize("entry, bad", SIZE_CASES, ids=[f"{e}={b!r}" for e, b in SIZE_CASES])
def test_size_or_cap_is_a_positive_int(entry, bad):
    with pytest.raises(ValidationError, match="must be a positive integer"):
        SIZE_CALLS[entry][0](bad)


@pytest.mark.parametrize("entry", sorted(SIZE_CALLS))
def test_least_fitting_size_or_cap_is_accepted(entry):
    call, least = SIZE_CALLS[entry]
    call(least)


PROFILE = cq.EmpiricalState((1, 1), 2)
PLUS_CHANNEL = cq.CQChannel(("0", "+"), (np.diag([1.0, 0.0]), np.full((2, 2), 0.5)))


def types_check(d: int, n: int) -> None:
    cli._cmd_types_check(cli.build_parser().parse_args(
        ["types-check", "--alphabet-size", str(d), "--n", str(n)]))


# budget site: (module that reads the budget, its name, a call, and what
# the call needs of it: bytes, or M-types for MAX_TYPES)
BUDGET_SITES = {
    "m_type_counts.MAX_TYPES": (channel_module, "MAX_TYPES", lambda: cq.m_type_counts(3, 2), 6),
    "CQChannel.power": (channel_module, "MAX_MATRIX_BYTES", lambda: CHANNEL.power(2),
                        9 * 4 * 4 * 16),
    # the 3^2 real diagonals of 2^2 entries of example1's 2-letter rows
    "_OutputRows": (cq.resolvability, "MAX_MATRIX_BYTES",
                    lambda: cq.resolvability._OutputRows(CHANNEL, 2), 9 * 4 * 8),
    # those rows plus the exact engine's copy of them scaled by 1/M
    "resolution_error_exact": (cq.resolvability, "MAX_MATRIX_BYTES",
                               lambda: cq.resolution_error_exact(CHANNEL, DIST, 1, 2),
                               2 * 9 * 4 * 8),
    "tensor_power": (cq.linalg, "MAX_MATRIX_BYTES", lambda: cq.tensor_power(np.eye(2), 2),
                     4 * 4 * 16),
    "type_projector": (cq.types_sanov, "MAX_MATRIX_BYTES",
                       lambda: cq.type_projector(PROFILE, cq.Basis.standard(2)), 4 * 4 * 16),
    # the int64 letters of the 2^2 words of length 2
    "types-check": (cli, "MAX_COUNT_BYTES", lambda: types_check(2, 2), 2 * 2 ** 2 * 8),
    # 6 M-types of 3 letters at M = 2, each output a real diagonal of 2 floats
    "resolution_error_worst": (cq.resolvability, "MAX_MATRIX_BYTES",
                               lambda: cq.resolution_error_worst(CHANNEL, 2, grid=2), 6 * 16),
}


@pytest.mark.parametrize("site", sorted(BUDGET_SITES))
def test_largest_request_within_a_budget_is_accepted(monkeypatch, site):
    # The count-matrix and soft-cover byte budgets have theirs in
    # test_channel and test_resolvability.
    module, name, call, need = BUDGET_SITES[site]
    monkeypatch.setattr(module, name, need)
    call()
    monkeypatch.setattr(module, name, need - 1)
    with pytest.raises(cq.ResourceLimitError, match=rf"\b{need} "):
        call()


# budget site at its constant: a request past it that would take gigabytes
PAST_BUDGET_CALLS = {
    "m_type_counts.MAX_TYPES": lambda: cq.m_type_counts(12, 100),
    "m_type_counts.MAX_COUNT_BYTES": lambda: cq.m_type_counts(10 ** 6, 1),
    "CQChannel.power": lambda: CHANNEL.power(13),
    "_OutputRows": lambda: cq.resolvability._OutputRows(CHANNEL, 13),
    "tensor_power": lambda: cq.tensor_power(np.eye(2), 13),
    "type_projector": lambda: cq.type_projector(cq.EmpiricalState((13, 0), 13),
                                                cq.Basis.standard(2)),
    "types-check": lambda: types_check(2, 24),
    "resolution_error_worst": lambda: cq.resolution_error_worst(PLUS_CHANNEL, 29, 3),
    "soft_cover_simulate": lambda: cq.soft_cover_simulate(CHANNEL, DIST, 10 ** 12, 1, 1, 0),
}


@pytest.mark.parametrize("site", sorted(PAST_BUDGET_CALLS))
def test_request_past_a_budget_raises_before_allocating(site):
    tracemalloc.start()
    try:
        with pytest.raises(cq.ResourceLimitError):
            PAST_BUDGET_CALLS[site]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=300, deadline=None)
@given(factor=st.integers(1, 2 ** 20), base=st.integers(1, 2 ** 20),
       exponent=st.integers(1, 200), budget=st.integers(1, 2 ** 40))
def test_power_need_is_refused_exactly_when_over_and_names_a_lower_bound(
        factor, base, exponent, budget):
    need = factor * base ** exponent
    try:
        cq.errors.check_budget("the request", (factor, base, exponent), budget)
    except cq.ResourceLimitError as exc:
        message = str(exc)
    else:
        assert need <= budget
        return
    assert need > budget
    stated = re.fullmatch(r"the request needs (more than 2\^)?(\d+) bytes, "
                          rf"over the budget of {budget} bytes", message)
    assert stated is not None, message
    if stated[1]:
        assert 2 ** int(stated[2]) < need
    else:
        assert int(stated[2]) == need


def test_absurd_power_need_is_refused_by_its_exponent_at_once():
    times = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(cq.ResourceLimitError, match=r"needs more than 2\^29 bytes"):
            cq.errors.check_budget("the request", (16, 12, 10 ** 4000), cq.errors.MAX_MATRIX_BYTES)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3


# A valid command line for every command
COMMAND_ARGV = {**BASE_ARGV, "sanov-sweep": ("--dist", '{"0": 0.5, "1": 0.5}', "--n", "1")}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_cap_flags_are_unrecognized(capsys, code_path, command):
    assert set(COMMAND_ARGV) == set(command_parsers())
    argv = [command] + [arg.replace("{code}", code_path) for arg in COMMAND_ARGV[command]]
    assert main(argv) == 0
    capsys.readouterr()
    for flag in ("--max-types", "--max-dim"):
        assert main(argv + [flag, "5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# labels outside an alphabet
# ---------------------------------------------------------------------------

LABEL_CALLS = {
    "CQChannel.state": lambda: CHANNEL.state("z"),
    "empirical_output": lambda: orc.empirical_output(CHANNEL, cq.Word(("0", "z"))),
    "bad_codeword_test": lambda: orc.bad_codeword_test(CHANNEL, cq.Word(("z",)), DIST, 0.5),
    "Distribution.point_mass": lambda: cq.Distribution.point_mass(("0", "1"), "z"),
}


@pytest.mark.parametrize("entry", sorted(LABEL_CALLS))
def test_unknown_label_is_named(entry):
    with pytest.raises(ValidationError, match="^unknown label 'z'$"):
        LABEL_CALLS[entry]()


@pytest.mark.parametrize("doc", [[1, 2], "0", None], ids=repr)
def test_distribution_from_a_non_map_is_rejected(doc):
    with pytest.raises(ValidationError, match=r"must be a \{label: mass\} map"):
        cq.Distribution.from_dict(doc)


# ---------------------------------------------------------------------------
# non-finite values of every float flag
# ---------------------------------------------------------------------------

# A NaN or infinite bound once made the grid loop run forever, so these run
# in child processes that a timeout can stop.
EPS_GRIDS = ("0.05:nan:0.05", "0.05:inf:0.05", "0.05:0.45:nan", "nan:0.45:0.05")
CHILD_TIMEOUT_S = 10


def float_flags() -> list[tuple[str, str]]:
    """(command, flag) for every option that build_parser parses as a float."""
    return [(name, action.option_strings[0]) for name, sp in command_parsers().items()
            for action in sp._actions if action.type is float]


# Each value is passed as --flag=value, so argparse does not read -inf as an option.
FLOAT_CASES = [(command, f"{flag}={value}") for command, flag in float_flags()
               for value in ("nan", "inf", "-inf")]


def assert_clean_usage_error(code: int, err: str) -> None:
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err


@pytest.fixture(scope="module")
def eps_grid_runs():
    """Each `--eps-grid` case, started two at a time in its own `python -m cqresolve.cli`.

    A case maps to its completed process, or to None if it ran past the timeout.
    """
    src = str(Path(cq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(grid):
        try:
            return subprocess.run(
                [sys.executable, "-m", "cqresolve.cli", "separation-figure",
                 f"--eps-grid={grid}"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired:
            return None

    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {grid: pool.submit(run, grid) for grid in EPS_GRIDS}


def test_sweep_covers_the_float_flags_of_every_command():
    flags = float_flags()
    assert {command for command, _ in flags} == set(BASE_ARGV)
    assert ("capacity", "--tol") in flags and ("bound-ll1b", "--lambda") in flags


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
def test_sweep_base_command_line_succeeds(capsys, code_path, command):
    assert main(base_argv(command, code_path)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, arg", FLOAT_CASES,
                         ids=[f"{c}{a[1:]}" for c, a in FLOAT_CASES])
def test_non_finite_flag_exits_two(capsys, code_path, command, arg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(base_argv(command, code_path) + [arg])
    assert_clean_usage_error(code, capsys.readouterr().err)


@pytest.mark.parametrize("grid", EPS_GRIDS)
def test_non_finite_eps_grid_exits_two(eps_grid_runs, grid):
    proc = eps_grid_runs[grid].result()
    assert proc is not None, f"no exit within {CHILD_TIMEOUT_S} s"
    assert_clean_usage_error(proc.returncode, proc.stderr)


# ---------------------------------------------------------------------------
# product channels of a channel at the edge of the trace tolerance
# ---------------------------------------------------------------------------

EDGE_STATES = [np.diag([0.9 + 0.9e-10, 0.1]), np.diag([0.1, 0.9]), np.diag([0.5, 0.5])]


def edge_channel() -> cq.CQChannel:
    """Example1 at ε = 0.1, but the first state has trace 1 + 0.9e-10 (tolerance 1e-10)."""
    return cq.CQChannel(("0", "1", "e"), EDGE_STATES)


@pytest.mark.parametrize("n", (2, 3))
def test_power_of_edge_channel_is_the_unchecked_kronecker_product(monkeypatch, n):
    ch = edge_channel()

    def refuse(*args):
        raise AssertionError("the product stack was checked")

    monkeypatch.setattr(channel_module, "_check_densities", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    product = ch.power(n)
    want = _kron_rows(ch.states, n)
    assert product.states.dtype == want.dtype
    assert np.array_equal(product.states, want)
    assert not product.states.flags.writeable
    assert product.labels == tuple(itertools.product(ch.labels, repeat=n))


@pytest.mark.parametrize("argv", [("resolve", "--n", "2", "--M", "3"),
                                  ("softcover", "--n", "3", "--M", "2", "--samples", "5")],
                         ids=lambda argv: argv[0])
def test_edge_channel_commands_succeed(capsys, tmp_path, argv):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"dim": 2, "inputs": [
        {"label": label, "state": [[[float(v), 0.0] for v in row] for row in state]}
        for label, state in zip(("0", "1", "e"), EDGE_STATES)]}))
    assert main([*argv, "--channel", str(path)]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# JSON sources
# ---------------------------------------------------------------------------

LOADERS = {"channel": cq.channel_from_json, "distribution": cq.distribution_from_json,
           "idcode": cq.idcode_from_json}


@pytest.mark.parametrize("source", [7, [1]], ids=["int", "list"])
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_takes_a_non_path_as_the_document_and_opens_nothing(monkeypatch, loader, source):
    def refuse(*args, **kwargs):
        raise AssertionError(f"open{args} was called")

    monkeypatch.setattr(builtins, "open", refuse)
    with pytest.raises(ValidationError):
        LOADERS[loader](source)


@pytest.mark.parametrize("as_path", [str, os.fsencode, Path], ids=["str", "bytes", "path"])
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_reads_a_str_or_path_like_source_as_a_file(tmp_path, loader, as_path):
    docs = {"channel": {"dim": 1, "inputs": [{"label": "0", "state": [[[1.0, 0.0]]]}]},
            "distribution": {"0": 1.0},
            "idcode": CODE_DOC}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(docs[loader]))
    assert type(LOADERS[loader](as_path(path))) is type(LOADERS[loader](docs[loader]))
