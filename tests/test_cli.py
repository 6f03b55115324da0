"""Tests for the command-line front end: exit codes, CSV schemas, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqresolve as cq
from cqresolve.cli import main

import oracles as orc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """Run `python -m cqresolve.cli` in a child process that imports this checkout."""
    src = str(Path(cq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "cqresolve.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


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


class TestExitCodes:
    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_builtin_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--builtin", "example1",
                               "--eps", "1.5")
        assert code == 2
        assert "error" in err

    def test_missing_channel_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity")
        assert code == 2

    def test_resource_cap_is_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "resolve", "--builtin", "example1",
                               "--eps", "0.1", "--M", "50", "--max-types", "5")
        assert code == 3
        assert "resource limit" in err

    def test_large_block_length_is_exit_three_not_oom(self, capsys,
                                                      channel_file):
        # 2**12 product states of dimension 4096 would need terabytes; the
        # footprint cap must refuse cleanly before allocating.
        code, _, err = run_cli(capsys, "resolve", "--channel",
                               str(channel_file), "--dist",
                               '{"0": 0.5, "1": 0.5}', "--M", "2",
                               "--n", "12", "--max-types", "5")
        assert code == 3
        assert "resource limit" in err

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

    def test_types_check_all_ok(self, capsys):
        code, out, _ = run_cli(capsys, "types-check", "--alphabet-size", "2",
                               "--n", "4")
        assert code == 0
        vals = kv(out)
        assert vals["all_ok"] == "true"
        assert vals["rank_sum"] == "16"
        assert vals["type_count"] == "5"

    def test_types_check_cap(self, capsys):
        code, _, _ = run_cli(capsys, "types-check", "--alphabet-size", "2",
                             "--n", "13")
        assert code == 3


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

    def test_bad_grid_spec(self, capsys):
        code, _, _ = run_cli(capsys, "separation-figure",
                             "--eps-grid", "0.1:0.3")
        assert code == 2


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

    def test_console_script_runs(self, tmp_path):
        proc = run_module("capacity", "--builtin", "example1", "--eps", "0.25")
        assert proc.returncode == 0
        line = [l for l in proc.stdout.splitlines()
                if l.startswith("capacity_bits")][0]
        expected = 1.0 - orc.binary_entropy_ref(0.25)
        assert float(line.split("=")[1]) == pytest.approx(expected, abs=1e-6)
