"""Byte-for-byte CLI output of the worked example, two selftest seeds and a
Greenberg script, against files recorded before the Cohen model replaced
the Witt route (the Greenberg script: before the symbolic expansion moved
into the model)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


@pytest.mark.parametrize(
    "args,name",
    [
        (["--script", os.path.join("docs", "worked_example.gk"), "--seed", "42"], "worked_example_seed42"),
        (["selftest", "--seed", "7"], "selftest_seed7"),
        (["selftest", "--seed", "3"], "selftest_seed3"),
    ],
)
def test_cli_output_is_byte_identical(args, name):
    _check_output(args, name, 0)


def test_greenberg_output_is_byte_identical():
    """C_3(F_2(t)), the Eisenstein base at p = 3 (stages 0 and 1), two
    p-basis names at stage 2 and a two-variable quadratic, with point
    transfer; every push succeeds, stage 1 included, so the run exits 0.
    The stage >= 1 equations and the last push were re-recorded when the
    tower became Res_F(Y) instead of Res_F(Y^(p))."""
    script = os.path.join("tests", "golden", "greenberg.gk")
    _check_output(["--script", script], "greenberg", 0)


def test_expression_error_records_are_byte_identical():
    """Every error of E, of ring-context and of int- and k-context
    expressions, one record per failing statement, and one witt add over
    fractions; recorded before the expression evaluators became one fold."""
    script = os.path.join("tests", "golden", "errors.gk")
    _check_output(["--script", script], "errors", 1)


def _check_output(args, name, status):
    proc = subprocess.run(
        [sys.executable, "-m", "gkit.cli"] + args, capture_output=True, cwd=ROOT
    )
    assert proc.returncode == status, proc.stderr.decode()
    with open(os.path.join(GOLDEN, f"{name}.jsonl"), "rb") as fh:
        assert proc.stdout == fh.read()
