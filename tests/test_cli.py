"""Tests for the command-line front end: exit codes, CSV schemas, determinism."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cqresolve as cq
import cqresolve.cli as cli
from cqresolve import ResourceLimitError
from cqresolve.cli import _DISPATCH, _fmt, _parse_eps_grid, main

import oracles as orc
from conftest import EXAMPLE1, POINT_MASS_CHANNEL, base_argv, command_parsers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_command(*argv, module="cqresolve.cli"):
    """The command line and environment of `python -m <module>` importing this checkout."""
    src = str(Path(cq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return [sys.executable, "-m", module, *argv], env


def run_module(*argv, module="cqresolve.cli"):
    """Run `python -m <module>` in a child process that imports this checkout."""
    cmd, env = module_command(*argv, module=module)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            pairs[key.strip()] = val.strip()
    return pairs


@pytest.fixture
def channel_file(tmp_path):
    payload = {
        "dim": 2,
        "inputs": [
            {"label": "0",
             "state": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]},
            {"label": "1",
             "state": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]},
        ],
    }
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# exit codes and parsing
# ---------------------------------------------------------------------------


def start_module(*argv):
    """Start `python -m cqresolve.cli` like run_module, with stdout and stderr as pipes."""
    cmd, env = module_command(*argv)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)


SWEEP_ARGV = ("sanov-sweep", "--dist", '{"0": 0.5, "1": 0.5}')


class TestExitCodes:
    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_stdout_closed_after_one_line_exits_one(self):
        # As `| head -1`: the table (about 350 kB) outgrows the pipe, so the
        # child is still printing when the reader closes its end.
        with start_module(*SWEEP_ARGV, "--n", "120") as proc:
            assert proc.stdout.readline() == "n,type_counts,lhs,rhs,ok\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == ""

    def test_stdout_closed_at_once_still_writes_the_artifact(self, capsys, tmp_path):
        with start_module(*SWEEP_ARGV, "--n", "20", "--out", str(tmp_path / "closed.csv")) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == ""
        assert main([*SWEEP_ARGV, "--n", "20", "--out", str(tmp_path / "open.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "closed.csv").read_bytes() == (tmp_path / "open.csv").read_bytes()

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        main(["capacity", *EXAMPLE1])
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["capacity", *EXAMPLE1]) == 0
        assert main([]) == 2
        capsys.readouterr()

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_unknown_builtin_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--builtin", "example1",
                               "--eps", "1.5")
        assert code == 2
        assert "error" in err

    def test_missing_channel_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity")
        assert code == 2

    def test_resource_cap_is_exit_three(self, capsys):
        # 18,156,204 M-types of 27 product letters, past MAX_TYPES
        code, _, err = run_cli(capsys, "resolve", "--builtin", "example1",
                               "--eps", "0.1", "--n", "3", "--M", "8")
        assert code == 3
        assert err == ("resource limit: enumerating 27 letters at M = 8 needs 18156204 M-types, "
                       "over the budget of 10000000 M-types\n")

    def test_large_block_length_is_exit_three_not_oom(self, capsys,
                                                      channel_file):
        # 2**13 product diagonals of 8192 entries would need 512 MiB, twice
        # the byte budget; the cap must refuse cleanly before allocating.
        # (At n = 12 they fit, and its 8.4 M M-types would run for a minute.)
        code, _, err = run_cli(capsys, "resolve", "--channel",
                               str(channel_file), "--dist",
                               '{"0": 0.5, "1": 0.5}', "--M", "2", "--n", "13")
        assert code == 3
        assert "resource limit" in err

    def test_types_check_words_past_the_budget_are_refused_before_any_work(self, capsys,
                                                                           tmp_path):
        # The letter table of the 2^12 words fits its byte budget, but the
        # bad-codeword count would walk all 10^12 words of a 10-letter
        # channel; it is refused before the table and the type rows are built.
        path = tmp_path / "diag10.json"
        path.write_text(json.dumps({"dim": 10, "inputs": [
            {"label": str(i), "state": [[[float(r == c == i), 0.0] for c in range(10)]
                                        for r in range(10)]} for i in range(10)]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "types-check", "--alphabet-size", "2", "--n", "12",
                                 "--delta", "0.1", "--channel", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("resource limit: the bad-codeword count over 10^12 words needs "
                       "1000000000000 words, over the budget of 10000000 words\n")

    @pytest.mark.parametrize("argv", [
        ("resolve", "--builtin", "example1", "--eps", "0.1", "--M", "2", "--n", "100000"),
        ("types-check", "--alphabet-size", "3", "--n", "1000000"),
        ("resolve", "--builtin", "example1", "--eps", "0.1", "--n", "3", "--M", "1" + "0" * 200),
        ("worst-resolve", "--builtin", "example1", "--eps", "0.1", "--n", "3",
         "--M", "1" + "0" * 200),
        ("resolve", "--builtin", "example1", "--eps", "0.1", "--M", "2", "--n", "9" * 4300),
    ], ids=["resolve-n", "types-check", "resolve-M", "worst-resolve-M", "resolve-n-4300-digits"])
    def test_budget_request_past_the_digit_limit_is_exit_three(self, capsys, argv):
        # What these requests need has more digits than str() converts, so
        # the message names a power of two below it.
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "needs more than 2^" in err

    @pytest.mark.parametrize("argv", [
        ("resolve", "--builtin", "example1", "--eps", "0.1", "--M", "2", "--n", "10000000"),
        ("types-check", "--alphabet-size", "3", "--n", "10000000"),
        ("resolve", "--builtin", "example1", "--eps", "0.1", "--M", "2", "--n", "1" + "0" * 4000),
    ], ids=["resolve", "types-check", "resolve-4001-digits"])
    def test_absurd_block_length_is_refused_at_once(self, capsys, argv):
        # The budget check compares the need's exponent, not the power itself.
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "needs more than 2^" in err

    @pytest.mark.parametrize("n, need", [
        (29, "294765226294311143866368 bytes"),
        (30, "more than 2^29 bytes"),
    ])
    def test_block_length_past_the_budget_bit_length_is_named_by_it(self, capsys, n, need):
        # 8·6^n bytes of diagonals: exact up to n = 29, the bit length of the
        # 2^28 budget
        code, _, err = run_cli(capsys, "resolve", "--builtin", "example1", "--eps", "0.1",
                               "--M", "2", "--n", str(n))
        assert code == 3
        assert err == (f"resource limit: the {n}-letter channel of 3^{n} diagonals of "
                       f"2^{n} entries needs {need}, over the budget of 268435456 bytes\n")

    def test_count_matrix_past_the_byte_budget_is_not_built(self, tmp_path):
        # 100^3 one-dimensional product letters at M = 1: 10^6 M-types pass
        # the row cap, and their count matrix would take 8 TB; the exact
        # engine sums their outputs in blocks and never builds it.
        path = tmp_path / "c100.json"
        path.write_text(json.dumps({"dim": 1, "inputs": [
            {"label": str(i), "state": [[[1.0, 0.0]]]} for i in range(100)]}))
        proc = run_module("resolve", "--channel", str(path), "--n", "3", "--M", "1")
        assert (proc.returncode, proc.stderr) == (0, "")
        fields = kv(proc.stdout)
        assert (fields["M"], fields["n"]) == ("1", "3")
        # every output is the one state, and the target is s³ for the sum s
        # of the 100 float masses 1/100, so the exact error is ½|s³ − 1|
        s = 100 * Fraction(1 / 100)
        assert fields["exact_error"] == f"{float(abs(s ** 3 - 1) / 2):.12g}"

    def test_worst_input_candidates_past_the_matrix_budget_are_exit_three(self, tmp_path):
        # 8,347,680 candidates of 8 letters fit their count budget, but their
        # 8 x 8 complex outputs would take 8.5 GB; the timeout turns an
        # attempt to build them into a failure.
        path = tmp_path / "plus.json"
        path.write_text(json.dumps({"dim": 2, "inputs": [
            {"label": "0", "state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            {"label": "+", "state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}]}))
        cmd, env = module_command("worst-resolve", "--channel", str(path),
                                  "--n", "3", "--M", "29")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit: ")
        assert "8548024320 bytes" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_softcover_draws_past_the_byte_budget_are_exit_three(self):
        # 10^12 codewords of one letter would take 8 TB of draws.
        proc = run_module("softcover", "--builtin", "example1", "--eps", "0.1",
                          "--M", "1000000000000", "--n", "1", "--samples", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit: ")
        assert "bytes" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_id_bridge_with_a_huge_code_length_returns_at_once(self):
        # |X|^M with M = 10^11 never finishes as an exact power; the
        # timeout turns a hang into a failure.
        cmd, env = module_command("id-bridge", "--N", "4", "--alphabet-size", "3",
                                  "--M", "100000000000", "--lambda1", "0.1",
                                  "--lambda2", "0.1", "--eps", "0.1")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 0, proc.stderr
        assert kv(proc.stdout)["count_ok"] == "true"

    def test_missing_channel_file_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "capacity", "--channel",
                               str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err

    def test_bad_channel_file_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "inputs": [
            {"label": "0",
             "state": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]}]}))
        code, _, err = run_cli(capsys, "capacity", "--channel", str(path))
        assert code == 2

    def test_nan_state_rejected(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"dim": 2, "inputs": [
            {"label": "0",
             "state": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}]}))
        code, _, err = run_cli(capsys, "resolve", "--channel", str(path), "--M", "2")
        assert code == 2
        assert "NaN" in err

    def test_nan_mass_rejected(self, capsys, channel_file):
        code, _, err = run_cli(capsys, "resolve", "--channel", channel_file,
                               "--dist", '{"0": NaN, "1": 1.0}', "--M", "2")
        assert code == 2
        assert "finite" in err

    def test_converse_trend_huge_rate_is_exit_three(self):
        # 2.0 ** (n * R) overflows a float at n * R >= 1024.
        proc = run_module("converse-trend", "--builtin", "example1", "--eps", "0.2",
                          "--rate", "2000", "--n-max", "1")
        assert proc.returncode == 3
        assert "resource limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("capacity", "--builtin", "example1", "--eps", "0.1", "--max-types", "5"),
        ("separation-figure", "--max-dim", "64"),
        ("id-bridge", "--N", "9", "--alphabet-size", "3", "--M", "2",
         "--lambda1", "0.1", "--lambda2", "0.1", "--eps", "0.0", "--max-dim", "64"),
        ("types-check", "--n", "2", "--out", "f"),
    ], ids=lambda argv: argv[0])
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    def test_channel_and_builtin_exclude_each_other(self, capsys, tmp_path):
        # --builtin used to win without a word, and the file was never opened.
        missing = str(tmp_path / "nonexistent.json")
        code, out, err = run_cli(capsys, "capacity", "--channel", missing,
                                 "--builtin", "example1", "--eps", "0.1")
        assert code == 2
        assert "not allowed with argument" in err
        assert "capacity_bits" not in out

    @pytest.mark.parametrize("argv", [
        ("--delta", "0.3"),
        ("--builtin", "example1", "--eps", "0.1"),
        ("--dist", '{"0": 1.0}'),
    ], ids=["delta-without-channel", "channel-without-delta", "dist-without-channel"])
    def test_types_check_channel_flags_go_together(self, capsys, argv):
        code, out, err = run_cli(capsys, "types-check", "--n", "2", *argv)
        assert code == 2
        assert err.startswith("error: types-check")
        assert out == ""

    @pytest.mark.parametrize("command", sorted(_DISPATCH))
    def test_every_command_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert f"usage: cqresolve {command}" in out

    @pytest.mark.parametrize("argv", [
        ("capacity", "--builtin", "example1", "--eps", "0.1", "--tol", "nan"),
        ("separation-figure", "--tol", "nan"),
    ], ids=lambda argv: argv[0])
    def test_nan_tol_is_validation_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "tol must be positive" in err

    @pytest.mark.parametrize("labels, code, message", [
        ([[0], [1]], 2, "label must be a JSON string or number"),
        ([{"a": 1}, "b"], 2, "label must be a JSON string or number"),
        ([0, "0"], 2, "duplicate channel labels"),
        ([0, 1], 0, ""),
    ], ids=["array", "object", "number-string-collision", "numbers"])
    def test_channel_label_kinds(self, capsys, tmp_path, labels, code, message):
        state = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"dim": 2, "inputs": [
            {"label": lab, "state": state} for lab in labels]}))
        got, out, err = run_cli(capsys, "fixed-rate", "--channel", str(path),
                                "--dist", '{"0": 0.5, "1": 0.5}')
        assert got == code
        assert message in err
        if code == 0:
            assert "fixed_input_rate_bits" in kv(out)

    def test_single_letter_channel_fixed_rate(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 2, "inputs": [
            {"label": "a", "state": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]}]}))
        code, out, err = run_cli(capsys, "fixed-rate", "--channel", str(path))
        assert (code, err) == (0, "")
        assert kv(out)["vertices_examined"] == "1"

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fixed-rate", "--builtin", "example1",
                               "--eps", "0.1", "--dist", "{bad")
        assert code == 2
        assert err.startswith("error: ")
        path = tmp_path / "broken.json"
        path.write_text("{\"dim\": 2,")
        code, _, err = run_cli(capsys, "capacity", "--channel", str(path))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv, payload", [
        (("capacity", "--channel", "{file}"),
         {"dim": 2, "inputs": [{"label": "0", "state": 5}]}),
        (("capacity", "--channel", "{file}"),
         {"dim": 2, "inputs": [{"label": "0", "state": [[["x", 0], [0, 0]],
                                                        [[0, 0], [1, 0]]]}]}),
        (("capacity", "--channel", "{file}"), {"dim": 2, "inputs": 7}),
        (("id-verify", "--builtin", "example1", "--eps", "0.1", "--code", "{file}"),
         {"lambda1": "abc", "lambda2": 0.1, "entries": []}),
        (("resolve", "--builtin", "example1", "--eps", "0.1", "--M", "2",
          "--dist", '{"0": "x", "1": 1}'), None),
        (("softcover", "--builtin", "example1", "--eps", "0.1", "--M", "2",
          "--workers", "0"), None),
    ], ids=["state-number", "entry-string", "inputs-number", "lambda-string",
            "mass-string", "zero-workers"])
    def test_malformed_input_exits_two_without_traceback(self, tmp_path, argv, payload):
        path = tmp_path / "input.json"
        if payload is not None:
            path.write_text(json.dumps(payload))
        proc = run_module(*(arg.replace("{file}", str(path)) for arg in argv))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_eps_without_builtin_is_usage_error(self, capsys, channel_file):
        for argv in (("capacity", "--channel", channel_file, "--eps", "0.3"),
                     ("types-check", "--n", "2", "--eps", "0.3")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert "--eps is read only with --builtin" in err
            assert out == ""

    def test_non_psd_state_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"dim": 2, "inputs": [
            {"label": "0",
             "state": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]}]}))
        code, _, err = run_cli(capsys, "capacity", "--channel", str(path))
        assert code == 2


# ---------------------------------------------------------------------------
# capacity / fixed-rate
# ---------------------------------------------------------------------------


class TestRateCommands:
    def test_capacity_builtin_example1(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--builtin", "example1",
                               "--eps", "0.1")
        assert code == 0
        vals = kv(out)
        expected = 1.0 - orc.binary_entropy_ref(0.1)
        assert float(vals["capacity_bits"]) == pytest.approx(expected, abs=1e-6)

    def test_capacity_single_input_channel_zero(self, capsys, tmp_path):
        payload = {"dim": 2, "inputs": [
            {"label": "a",
             "state": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "capacity", "--channel", str(path))
        assert code == 0
        assert float(kv(out)["capacity_bits"]) == pytest.approx(0.0, abs=1e-9)

    def test_fixed_rate_at_a_point_mass_is_zero(self, capsys, tmp_path):
        path = tmp_path / "point-mass.json"
        path.write_text(json.dumps(POINT_MASS_CHANNEL))
        code, out, err = run_cli(capsys, "fixed-rate", "--channel", str(path),
                                 "--dist", '{"a": 0, "b": 1}')
        assert (code, err) == (0, "")
        assert kv(out)["fixed_input_rate_bits"] == "0"

    def test_fixed_rate_prints_its_duality_gap(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-rate", "--builtin", "example1", "--eps", "0.1",
                               "--dist", '{"0": 0.3, "1": 0.5, "e": 0.2}')
        assert code == 0
        fields = kv(out)
        assert list(fields) == ["fixed_input_rate_bits", "certificate_gap", "vertices_examined"]
        assert 0.0 <= float(fields["certificate_gap"]) <= 1e-12

    def test_fixed_rate_half_half_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-rate", "--builtin", "example1", "--eps", "0.1",
            "--dist", '{"0": 0.5, "1": 0.5, "e": 0.0}')
        assert code == 0
        assert float(kv(out)["fixed_input_rate_bits"]) == pytest.approx(
            0.0, abs=1e-9)

    def test_values_match_library_exactly(self, capsys, channel_file):
        code, out, _ = run_cli(capsys, "capacity", "--channel", channel_file)
        assert code == 0
        ch = cq.channel_from_json(channel_file)
        lib = cq.capacity(ch, tol=1e-9).value
        assert float(kv(out)["capacity_bits"]) == pytest.approx(lib, rel=1e-10)


# ---------------------------------------------------------------------------
# resolve / worst-resolve / converse-trend
# ---------------------------------------------------------------------------


class TestResolveCommands:
    def test_resolve_binary_flip(self, capsys, channel_file):
        code, out, _ = run_cli(capsys, "resolve", "--channel", channel_file,
                               "--M", "1")
        assert code == 0
        vals = kv(out)
        assert float(vals["exact_error"]) == pytest.approx(0.4, abs=1e-12)
        assert vals["M"] == "1" and vals["n"] == "1"

    def test_resolve_json_artifact(self, capsys, channel_file, tmp_path):
        outp = tmp_path / "res.json"
        code, _, _ = run_cli(capsys, "resolve", "--channel", channel_file,
                             "--M", "1", "--out", str(outp))
        assert code == 0
        payload = json.loads(outp.read_text())
        assert payload["error"] == pytest.approx(0.4, abs=1e-10)

    def test_resolve_argmin_counts_at_the_largest_int64_M(self, capsys, tmp_path):
        # The one letter holds all 2^63 - 1 counts, past the float's exact ints.
        chan = tmp_path / "one.json"
        chan.write_text(json.dumps({"dim": 1, "inputs": [{"label": "x", "state": [[[1, 0]]]}]}))
        outp = tmp_path / "res.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "resolve", "--channel", str(chan),
                                   "--M", str(2 ** 63 - 1), "--out", str(outp))
        assert code == 0
        assert err == "" and caught == []
        assert json.loads(outp.read_text())["argmin_counts"] == {"x": 2 ** 63 - 1}

    def test_worst_resolve_reports_flag(self, capsys):
        code, out, _ = run_cli(capsys, "worst-resolve", "--builtin", "example1",
                               "--eps", "0.1", "--M", "1", "--grid", "10")
        assert code == 0
        vals = kv(out)
        assert vals["approximate"] == "lower bound"
        assert float(vals["worst_error_lower_bound"]) == pytest.approx(
            0.2, abs=1e-2)

    def test_converse_trend_csv_schema(self, capsys, channel_file, tmp_path):
        outp = tmp_path / "trend.csv"
        code, _, _ = run_cli(capsys, "converse-trend", "--channel", channel_file,
                             "--rate", "0", "--n-max", "3", "--out", str(outp))
        assert code == 0
        lines = outp.read_text().strip().splitlines()
        assert lines[0] == "n,M,exact_error"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        goldens = [0.4, 0.56, 0.604]
        for row, gold in zip(rows, goldens):
            assert row[1] == "1"
            assert float(row[2]) == pytest.approx(gold, abs=1e-10)

    def test_negative_rate_exit_two(self, capsys, channel_file):
        code, _, _ = run_cli(capsys, "converse-trend", "--channel", channel_file,
                             "--rate", "-1", "--n-max", "2")
        assert code == 2


# ---------------------------------------------------------------------------
# softcover determinism
# ---------------------------------------------------------------------------


class TestSoftcover:
    def test_seed_echo_and_csv_schema(self, capsys, channel_file, tmp_path):
        outp = tmp_path / "sc.csv"
        code, out, _ = run_cli(capsys, "softcover", "--channel", channel_file,
                               "--M", "4", "--n", "1", "--samples", "20",
                               "--seed", "7", "--out", str(outp))
        assert code == 0
        vals = kv(out)
        assert vals["seed"] == "7"
        assert vals["samples"] == "20"
        assert "bound_alpha_2" in vals
        lines = outp.read_text().strip().splitlines()
        assert lines[0] == "sample,trace_distance"
        assert len(lines) == 21

    def test_same_seed_bitwise_identical_csv(self, capsys, channel_file,
                                             tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "softcover", "--channel", channel_file,
                                 "--M", "16", "--n", "2", "--samples", "50",
                                 "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_changes_nothing(self, capsys, channel_file, tmp_path):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w4.csv"
        run_cli(capsys, "softcover", "--channel", channel_file, "--M", "8",
                "--n", "1", "--samples", "40", "--seed", "3",
                "--workers", "1", "--out", str(a))
        run_cli(capsys, "softcover", "--channel", channel_file, "--M", "8",
                "--n", "1", "--samples", "40", "--seed", "3",
                "--workers", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_multiple_alpha_orders(self, capsys, channel_file):
        code, out, _ = run_cli(capsys, "softcover", "--channel", channel_file,
                               "--M", "4", "--samples", "10", "--seed", "1",
                               "--alpha", "1.25,1.5,2")
        assert code == 0
        vals = kv(out)
        assert "bound_alpha_1.25" in vals
        assert "bound_alpha_1.5" in vals
        assert "bound_alpha_2" in vals

    def test_bad_alpha_exit_two(self, capsys, channel_file):
        code, _, _ = run_cli(capsys, "softcover", "--channel", channel_file,
                             "--M", "4", "--samples", "5", "--alpha", "3.0")
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_seed_outside_key_range_exit_two(self, capsys, channel_file, seed):
        code, _, err = run_cli(capsys, "softcover", "--channel", channel_file,
                               "--M", "4", "--samples", "5", "--seed", seed)
        assert code == 2
        assert "seed" in err

    def test_renyi_convergence_lines(self, capsys, channel_file):
        code, out, _ = run_cli(capsys, "softcover", "--channel", channel_file,
                               "--M", "4", "--samples", "5", "--seed", "1",
                               "--alpha", "1.5,2")
        assert code == 0
        vals = kv(out)
        for alpha in ("1.5", "2"):
            assert vals[f"renyi_converged_alpha_{alpha}"] in ("true", "false")
            assert int(vals[f"renyi_iterations_alpha_{alpha}"]) >= 1


# ---------------------------------------------------------------------------
# bounds / sweeps / types
# ---------------------------------------------------------------------------


class TestBoundCommands:
    def test_ll2_matches_library(self, capsys, channel_file):
        code, out, _ = run_cli(capsys, "bound-ll2", "--channel", channel_file,
                               "--M", "8", "--cthr", "2.0")
        assert code == 0
        ch = cq.channel_from_json(channel_file)
        p = cq.Distribution.uniform(ch.labels)
        sigma = cq.output_state(ch, p)
        lib = cq.ll2_bound(ch, p, sigma, 2.0, 8)
        assert float(kv(out)["ll2_bound"]) == pytest.approx(lib, rel=1e-10)

    def test_ll1b_matches_library(self, capsys, channel_file):
        code, out, _ = run_cli(capsys, "bound-ll1b", "--channel", channel_file,
                               "--M", "8", "--lambda", "1.0", "--v", "2",
                               "--L", "2.0")
        assert code == 0
        ch = cq.channel_from_json(channel_file)
        p = cq.Distribution.uniform(ch.labels)
        lib = cq.ll1b_bound(ch, p, cq.SmoothingParams(1.0, 2, 2.0), 8)
        assert float(kv(out)["ll1b_bound"]) == pytest.approx(lib, rel=1e-10)

    def test_sanov_sweep_csv(self, capsys, tmp_path):
        outp = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sanov-sweep", "--dist",
                               '{"0": 0.5, "1": 0.5}', "--n", "4",
                               "--out", str(outp))
        assert code == 0
        lines = outp.read_text().strip().splitlines()
        assert lines[0] == "n,type_counts,lhs,rhs,ok"
        # 2 + 3 + 4 + 5 type rows for n = 1..4 over two letters
        assert len(lines) == 1 + 2 + 3 + 4 + 5
        assert all(line.endswith("true") for line in lines[1:])
        assert kv(out)["violations"] == "0"

    @pytest.mark.parametrize("law", ['{"0": 1}', '{"0": 0.5, "1": 0.5}',
                                     '{"0": 0.5, "1": 0.3, "2": 0.2}',
                                     '{"0": 0.4, "1": 0.3, "2": 0.2, "3": 0.1, "4": 0.0}'])
    def test_sanov_sweep_counts_the_rows_it_streams(self, capsys, law):
        code, out, _ = run_cli(capsys, "sanov-sweep", "--dist", law, "--n", "6")
        assert code == 0
        lines = out.splitlines()
        table = lines[1:lines.index(next(x for x in lines if x.startswith("rows = ")))]
        assert kv(out)["rows"] == str(len(table))
        assert kv(out)["violations"] == str(sum(not x.endswith(",true") for x in table))

    def test_sanov_sweep_refuses_before_the_first_row(self, capsys, tmp_path):
        # 10 letters have C(39, 9) = 211,915,132 types at n = 30, past
        # MAX_TYPES; every smaller n is within it
        outp = tmp_path / "sweep.csv"
        law = json.dumps({str(x): 0.1 for x in range(10)})
        code, out, err = run_cli(capsys, "sanov-sweep", "--dist", law, "--n", "30",
                                 "--out", str(outp))
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: enumerating 10 letters at M = 30 needs 211915132")
        assert not outp.exists()

    def test_sanov_sweep_holds_no_count_matrix(self, capsys, monkeypatch):
        # A budget below n 6's 28 x 3 count matrix (672 bytes) but above the
        # walk's 3 x 3 identity (72 bytes): the sweep writes the same bytes.
        argv = ("sanov-sweep", "--dist", '{"0": 0.5, "1": 0.3, "2": 0.2}', "--n", "6")
        _, want, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cq.channel, "MAX_COUNT_BYTES", 671)
        with pytest.raises(cq.ResourceLimitError, match="needs 672 bytes"):
            cq.m_type_counts(3, 6)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, want, "")

    def test_sanov_sweep_refuses_an_identity_past_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cq.channel, "MAX_COUNT_BYTES", 71)
        code, out, err = run_cli(capsys, "sanov-sweep", "--dist",
                                 '{"0": 0.5, "1": 0.3, "2": 0.2}', "--n", "1")
        assert (code, out) == (3, "")
        assert err == ("resource limit: the 3 x 3 identity of the type walk needs 72 bytes, "
                       "over the budget of 71 bytes\n")

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_sanov_sweep_n_must_be_positive(self, capsys, n):
        code, out, err = run_cli(capsys, "sanov-sweep", "--dist",
                                 '{"0": 0.5, "1": 0.5}', "--n", n)
        assert code == 2
        assert "--n must be a positive integer" in err
        assert out == ""

    def test_types_check_all_ok(self, capsys):
        code, out, _ = run_cli(capsys, "types-check", "--alphabet-size", "2",
                               "--n", "4")
        assert code == 0
        vals = kv(out)
        assert vals["all_ok"] == "true"
        assert vals["rank_sum"] == "16"
        assert vals["type_count"] == "5"

    @pytest.mark.parametrize("d, n", [(2, n) for n in range(1, 7)]
                             + [(3, n) for n in range(1, 5)]
                             + [(4, n) for n in range(1, 4)])
    def test_types_check_margin_matches_every_word(self, capsys, d, n):
        code, out, _ = run_cli(capsys, "types-check", "--alphabet-size", str(d),
                               "--n", str(n))
        assert code == 0
        every_word = min(cq.ee31_margin(cq.Word(w), d)
                         for w in itertools.product(range(d), repeat=n))
        assert kv(out)["twirl_domination_min_margin"] == _fmt(every_word)

    def test_types_check_counts_bad_codewords(self, capsys):
        code, out, _ = run_cli(capsys, "types-check", "--n", "3", "--builtin",
                               "example1", "--eps", "0.1", "--delta", "0.3")
        assert code == 0
        states = [np.diag([0.9, 0.1]), np.diag([0.1, 0.9]), np.diag([0.5, 0.5])]
        average = sum(states) / 3
        bad = sum(orc.trace_norm_svd(sum(states[i] for i in word) / 3 - average) >= 0.3
                  for word in itertools.product(range(3), repeat=3))
        assert kv(out)["bad_codewords"] == f"{bad} / 27"

    def test_types_check_counts_words_of_types_on_delta_exactly(self, capsys):
        # At n 8 six types lie exactly on δ 0.3 in the float inputs; a word's
        # float gap, summed in its own letter order, put some of their words
        # on either side (1,688 bad words).
        code, out, _ = run_cli(capsys, "types-check", "--n", "8", "--builtin",
                               "example1", "--eps", "0.1", "--delta", "0.3")
        assert code == 0
        diagonals = [[1.0 - 0.1, 0.1], [0.1, 1.0 - 0.1], [0.5, 0.5]]
        bad = orc.bad_codeword_count_exact(diagonals, np.full(3, 1.0 / 3), 8, 0.3)
        assert kv(out)["bad_codewords"] == f"{bad} / 6561" == "1854 / 6561"

    @pytest.mark.parametrize("edit", ["repeat", "drop", "swap"])
    def test_types_check_partition_sees_a_repeated_or_missing_type(self, capsys,
                                                                   monkeypatch, edit):
        # The type rows are matched to the words, not taken on trust: a
        # repeated row covers its words twice and a dropped one leaves its
        # words uncovered. "swap" puts (4, 0, 0) in place of (0, 4, 0), both of
        # rank 1, so the type count and the rank sum stay right and only the
        # partition check can fail.
        real = cq.channel.m_type_counts

        def edited(k, M):
            rows = real(k, M)
            at = {tuple(row): i for i, row in enumerate(rows.tolist())}
            if edit == "repeat":
                return np.concatenate([rows, rows[at[(1, 2, 1)], None]])
            if edit == "drop":
                return np.delete(rows, at[(1, 2, 1)], axis=0)
            rows = rows.copy()
            rows[at[(0, 4, 0)]] = (4, 0, 0)
            return rows

        monkeypatch.setattr(cq.channel, "m_type_counts", edited)
        code, out, _ = run_cli(capsys, "types-check", "--alphabet-size", "3", "--n", "4")
        assert code == 0
        vals = kv(out)
        assert vals["partition_identity_max_dev"] == "1"
        assert vals["rank_sum_ok"] == ("true" if edit == "swap" else "false")
        assert vals["all_ok"] == "false"

    def test_types_check_peak_is_near_its_letter_table(self, capsys):
        # At (2, 16) no dⁿ × dⁿ matrix is built (one would be 64 GiB): the
        # peak is held to twice the bytes of the int64 table of the 65,536
        # words' 16 letters, the table its budget charges. A first run builds
        # the parser outside the trace.
        run_cli(capsys, "types-check", "--alphabet-size", "2", "--n", "1")
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "types-check", "--alphabet-size", "2", "--n", "16")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert kv(out)["all_ok"] == "true"
        assert peak <= 2 * 2 ** 16 * 16 * 8

    @pytest.mark.parametrize("d, n, channel", [
        (2, 13, ()), (3, 8, ()), (2, 13, ("--builtin", "example1", "--eps", "0.1", "--delta", "0.3"))
    ], ids=["d2", "d3", "d2-delta"])
    def test_types_check_past_the_former_matrix_budget(self, capsys, d, n, channel):
        # dⁿ past 4096: a dⁿ × dⁿ complex matrix would pass MAX_MATRIX_BYTES, but none is built
        code, out, _ = run_cli(capsys, "types-check", "--alphabet-size", str(d), "--n", str(n),
                               *channel)
        assert code == 0
        vals = kv(out)
        assert (vals["all_ok"], vals["rank_sum"]) == ("true", str(d ** n))

    def test_types_check_cap(self, capsys):
        # 8·24·2^24 bytes of word letters, past MAX_COUNT_BYTES; n 23 fits
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "types-check", "--alphabet-size", "2", "--n", "24")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("resource limit: the 2^24 x 24 letter table of the words needs "
                       "3221225472 bytes, over the budget of 2147483648 bytes\n")

    @pytest.mark.parametrize("n", ["63", "64", "1000"])
    def test_types_check_one_letter_at_any_n(self, capsys, n):
        # the one word of one letter, past numpy's 64 array axes from n = 64
        code, out, err = run_cli(capsys, "types-check", "--alphabet-size", "1", "--n", n)
        assert (code, err) == (0, "")
        vals = kv(out)
        assert (vals["type_count"], vals["rank_sum"], vals["all_ok"]) == ("1", "1", "true")


# ---------------------------------------------------------------------------
# id-verify / id-bridge
# ---------------------------------------------------------------------------


class TestIDCommands:
    @pytest.fixture
    def ortho_channel_file(self, tmp_path):
        payload = {
            "dim": 2,
            "inputs": [
                {"label": "0",
                 "state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                {"label": "1",
                 "state": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            ],
        }
        path = tmp_path / "ortho.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.fixture
    def code_file(self, tmp_path):
        payload = {
            "lambda1": 0.1,
            "lambda2": 0.1,
            "entries": [
                {"dist": {"0": 1.0, "1": 0.0},
                 "test": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                {"dist": {"0": 0.0, "1": 1.0},
                 "test": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            ],
        }
        path = tmp_path / "code.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_id_verify_valid_code(self, capsys, ortho_channel_file, code_file):
        code, out, _ = run_cli(capsys, "id-verify", "--channel",
                               ortho_channel_file, "--code", code_file)
        assert code == 0
        vals = kv(out)
        assert vals["valid"] == "true"
        assert vals["distance_ok"] == "true"
        assert float(vals["min_pairwise_distance"]) == pytest.approx(
            2.0, abs=1e-10)

    def test_id_bridge_pass_and_fail(self, capsys):
        code, out, _ = run_cli(capsys, "id-bridge", "--N", "9",
                               "--alphabet-size", "3", "--M", "2",
                               "--lambda1", "0.1", "--lambda2", "0.1",
                               "--eps", "0.0")
        assert code == 0
        assert kv(out)["count_ok"] == "true"
        code, out, _ = run_cli(capsys, "id-bridge", "--N", "9",
                               "--alphabet-size", "2", "--M", "3",
                               "--lambda1", "0.1", "--lambda2", "0.1",
                               "--eps", "0.0")
        assert code == 0
        assert kv(out)["count_ok"] == "false"


# ---------------------------------------------------------------------------
# separation-figure
# ---------------------------------------------------------------------------


class TestSeparationFigure:
    def test_default_grid_values(self, capsys, tmp_path):
        outp = tmp_path / "sep.csv"
        code, _, _ = run_cli(capsys, "separation-figure",
                             "--eps-grid", "0.1:0.3:0.1", "--out", str(outp))
        assert code == 0
        lines = outp.read_text().strip().splitlines()
        assert lines[0] == "epsilon,capacity,fixed_rate"
        assert len(lines) == 4
        for line in lines[1:]:
            eps_s, cap_s, fixed_s = line.split(",")
            eps = float(eps_s)
            assert float(cap_s) == pytest.approx(
                1.0 - orc.binary_entropy_ref(eps), abs=1e-6)
            assert float(fixed_s) == pytest.approx(0.0, abs=1e-9)

    def test_eps_past_one_exits_two_before_any_ascent(self, capsys, monkeypatch):
        def no_ascent(*args):
            raise AssertionError("an ascent ran before the grid was checked")

        monkeypatch.setattr(cq.rates, "_capacities", no_ascent)
        code, out, err = run_cli(capsys, "separation-figure", "--eps-grid", "0.9:1.1:0.1")
        assert (code, out) == (2, "")
        assert err == "error: --eps must be in [0, 1] and finite, got 1.1\n"

    def test_capacity_failure_exits_two_with_the_first_failing_eps(self, capsys, monkeypatch):
        # ε 0.5 certifies at its first point, 0.55 is the first that fails
        channel = cq.CQChannel(cli.EXAMPLE1_LABELS, cli._example1_states([0.55])[0])
        monkeypatch.setattr(cq.rates, "CAPACITY_MAX_ITER", 3)
        with pytest.raises(cq.ConvergenceError) as want:
            cq.capacity(channel, tol=1e-9)
        code, out, err = run_cli(capsys, "separation-figure", "--eps-grid", "0.5:1:0.05")
        assert (code, out, err) == (2, "", f"error: {want.value}\n")

    def test_bad_grid_spec(self, capsys):
        code, _, _ = run_cli(capsys, "separation-figure",
                             "--eps-grid", "0.1:0.3")
        assert code == 2

    @pytest.mark.parametrize("spec", ["0.05:0.45:0.05", "0.1:0.3:0.1", "0:1:0.1",
                                      "0.3:0.3:0.1", "0.1:0.35:0.05", "0:0.45:0.0001",
                                      "0:9999:1"])
    def test_eps_grid_is_the_stepping_loop(self, spec):
        start, stop, step = (float(p) for p in spec.split(":"))
        loop, k = [], 0
        while start + k * step <= stop + 1e-9:
            loop.append(round(start + k * step, 12))
            k += 1
        assert _parse_eps_grid(spec) == loop

    @pytest.mark.parametrize("spec", ["0:10000:1", "0:0.45:1e-6"])
    def test_eps_grid_above_the_point_cap_is_a_resource_limit(self, spec):
        with pytest.raises(ResourceLimitError, match="--eps-grid has more than 10000 points"):
            _parse_eps_grid(spec)

    def test_eps_grid_point_cap_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_EPS_GRID_POINTS", 4)
        code, out, _ = run_cli(capsys, "separation-figure", "--eps-grid", "0.1:0.4:0.1")
        assert code == 0 and kv(out)["points"] == "4"
        code, out, err = run_cli(capsys, "separation-figure", "--eps-grid", "0.1:0.5:0.1")
        assert (code, out) == (3, "")
        assert err == "resource limit: --eps-grid has more than 4 points\n"


# ---------------------------------------------------------------------------
# formatting contracts and the installed entry point
# ---------------------------------------------------------------------------


class TestFormatting:
    def test_floats_use_12_significant_digits(self, capsys, channel_file):
        _, out, _ = run_cli(capsys, "resolve", "--channel", channel_file,
                            "--M", "3")
        val = kv(out)["exact_error"]
        mantissa = val.replace("-", "").replace(".", "").split("e")[0]
        assert len(mantissa.lstrip("0")) <= 12

    def test_csv_uses_dot_decimal_separator(self, capsys, channel_file,
                                            tmp_path):
        outp = tmp_path / "t.csv"
        run_cli(capsys, "converse-trend", "--channel", channel_file,
                "--rate", "0", "--n-max", "2", "--out", str(outp))
        text = outp.read_text()
        assert "," in text and ";" not in text

    def test_package_runs_as_a_module(self):
        proc = run_module("capacity", "--builtin", "example1", "--eps", "0.25",
                          module="cqresolve")
        assert proc.returncode == 0, proc.stderr
        expected = 1.0 - orc.binary_entropy_ref(0.25)
        assert float(kv(proc.stdout)["capacity_bits"]) == pytest.approx(expected, abs=1e-9)
        usage = run_module(module="cqresolve")
        assert usage.returncode == 2
        assert "usage: cqresolve" in usage.stderr

    def test_console_script_runs(self, tmp_path):
        proc = run_module("capacity", "--builtin", "example1", "--eps", "0.25")
        assert proc.returncode == 0
        line = [l for l in proc.stdout.splitlines()
                if l.startswith("capacity_bits")][0]
        expected = 1.0 - orc.binary_entropy_ref(0.25)
        assert float(line.split("=")[1]) == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# one result record per command: main alone prints it and writes --out
# ---------------------------------------------------------------------------

JSON_COMMANDS = ("capacity", "fixed-rate", "resolve", "worst-resolve", "bound-ll2",
                 "bound-ll1b", "id-verify", "id-bridge")
CSV_COMMANDS = ("softcover", "sanov-sweep", "converse-trend", "separation-figure")
# Small values and malformed tokens; no draw can ask for a large array.
FUZZ_TOKENS = ("0", "-1", "1", "2", "0.5", "nan", "inf", "1e400", "abc", "{", "",
               "example1")
FUZZ_DRAWS = 30
# The one command without a float flag, so without a line in BASE_ARGV.
SANOV_ARGV = ["sanov-sweep", "--dist", '{"0": 0.5, "1": 0.5}', "--n", "2"]


class TestRecord:
    def test_every_out_command_writes_json_or_csv(self):
        with_out = {name for name, sp in command_parsers().items()
                    if any(a.dest == "out_path" for a in sp._actions)}
        assert with_out == set(JSON_COMMANDS) | set(CSV_COMMANDS)

    @pytest.mark.parametrize("command", JSON_COMMANDS)
    def test_json_artifact_names_its_command_and_leaves_stdout_alone(
            self, capsys, tmp_path, code_path, command):
        argv = base_argv(command, code_path)
        code, plain, _ = run_cli(capsys, *argv)
        outp = tmp_path / "record.json"
        code_out, with_out, _ = run_cli(capsys, *argv, "--out", str(outp))
        assert code == code_out == 0
        assert with_out == plain
        assert json.loads(outp.read_text())["command"] == command

    @pytest.mark.parametrize("argv", [
        ("capacity", *EXAMPLE1),
        ("softcover", *EXAMPLE1, "--M", "2", "--samples", "3"),
    ], ids=["json", "csv"])
    def test_unwritable_out_is_a_write_error_with_no_result(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "artifact"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write the --out file: ")
        assert str(target) in err

    @pytest.mark.parametrize("command", sorted(_DISPATCH))
    def test_argv_fuzz_exits_cleanly(self, capsys, tmp_path, monkeypatch, code_path,
                                     command):
        """A valid command line with one or two of its flags set to a drawn token."""
        monkeypatch.chdir(tmp_path)  # a drawn --out names a file here
        valid = SANOV_ARGV if command == "sanov-sweep" else base_argv(command, code_path)
        flags = [a.option_strings[0] for a in command_parsers()[command]._actions
                 if a.option_strings and a.nargs != 0]
        rng = random.Random(command)
        for _ in range(FUZZ_DRAWS):
            argv = valid + [f"{flag}={rng.choice(FUZZ_TOKENS)}"
                            for flag in rng.sample(flags, rng.randint(1, 2))]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), argv
            assert "Traceback" not in err, argv
