"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import argparse
import json

import numpy as np
import pytest

import cqresolve as cq
from cqresolve.cli import build_parser


def build_flip_erase_channel(eps: float):
    """Three-input classical channel: bit-flip rows plus an erasure-like row.

    Inputs "0" and "1" emit diag(1−ε, ε) and diag(ε, 1−ε); input "e" emits
    the maximally mixed qubit. Returned with the (1/2, 1/2, 0) input law.
    """
    labels = ("0", "1", "e")
    states = [np.diag([1.0 - eps, eps]),
              np.diag([eps, 1.0 - eps]),
              np.diag([0.5, 0.5])]
    channel = cq.CQChannel(labels, states)
    dist = cq.Distribution.from_dict({"0": 0.5, "1": 0.5, "e": 0.0},
                                     labels=labels)
    return channel, dist


def assert_psd(matrix: np.ndarray, slack: float = 1e-9) -> None:
    low = float(np.min(np.linalg.eigvalsh(matrix)))
    assert low >= -slack, f"matrix not PSD within {slack}: min eig {low}"


def distinct_eigenvalue_count(eigenvalues: np.ndarray, tol: float = 1e-10) -> int:
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    if ev.size == 0:
        return 0
    return 1 + int(np.sum(np.diff(ev) > tol))


@pytest.fixture
def flip_erase_channel():
    return build_flip_erase_channel(0.1)


# A two-letter qutrit channel whose Σ_x p_x D(W_x‖W(p)) at the point mass on
# "b" rounds to −3.3e-16 where it is not forced to 0
POINT_MASS_CHANNEL = {"dim": 3, "inputs": [
    {"label": "a", "state": [
        [[0.28271728271728275, 0.0], [0.18581418581418585, 0.2767232767232768],
         [0.025974025974025976, 0.013986013986013988]],
        [[0.18581418581418585, -0.2767232767232768], [0.5594405594405596, 0.0],
         [0.09290709290709293, -0.08791208791208792]],
        [[0.025974025974025976, -0.013986013986013988],
         [0.09290709290709293, 0.08791208791208792], [0.15784215784215785, 0.0]]]},
    {"label": "b", "state": [
        [[0.331, 0.0], [-0.102, -0.073], [0.176, 0.043]],
        [[-0.102, 0.073], [0.2, 0.0], [-0.221, 0.203]],
        [[0.176, -0.043], [-0.221, -0.203], [0.469, 0.0]]]}]}


# ---------------------------------------------------------------------------
# valid command lines, shared by the CLI and validation sweeps

CODE_DOC = {"lambda1": 0.2, "lambda2": 0.2,
            "entries": [{"dist": {"0": 1.0}, "test": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                        {"dist": {"1": 1.0}, "test": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
EXAMPLE1 = ("--builtin", "example1", "--eps", "0.1")
# A valid command line for every command with a float flag; "{code}" is an
# ID-code file.
BASE_ARGV = {
    "capacity": EXAMPLE1,
    "fixed-rate": EXAMPLE1,
    "resolve": EXAMPLE1 + ("--M", "2"),
    "worst-resolve": EXAMPLE1 + ("--M", "2", "--grid", "4"),
    "softcover": EXAMPLE1 + ("--M", "2", "--samples", "3"),
    "bound-ll2": EXAMPLE1 + ("--M", "2", "--cthr", "1.0"),
    "bound-ll1b": EXAMPLE1 + ("--M", "2"),
    "types-check": EXAMPLE1 + ("--n", "1", "--delta", "0.5"),
    "id-verify": EXAMPLE1 + ("--code", "{code}"),
    "id-bridge": ("--N", "4", "--alphabet-size", "2", "--M", "2", "--lambda1", "0.1",
                  "--lambda2", "0.1", "--eps", "0.1"),
    "converse-trend": EXAMPLE1 + ("--rate", "0.5", "--n-max", "1"),
    "separation-figure": ("--eps-grid", "0.1:0.1:0.1"),
}


def command_parsers() -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of the CLI, by command name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def base_argv(command: str, code_path: str) -> list[str]:
    return [command] + [arg.replace("{code}", code_path) for arg in BASE_ARGV[command]]


@pytest.fixture(scope="module")
def code_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("code") / "code.json"
    path.write_text(json.dumps(CODE_DOC))
    return str(path)


# ---------------------------------------------------------------------------
# acceptance-criterion reporting: one PASS/FAIL line per criterion, printed
# in the terminal summary of every run that touched the acceptance module.

CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    CRITERION_LINES[number] = f"CRITERION {number:2d}: {verdict} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_LINES):
        terminalreporter.write_line(CRITERION_LINES[number])
