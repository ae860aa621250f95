"""Byte-for-byte CLI output of the worked example and two selftest seeds,
against files recorded before the Cohen model replaced the Witt route."""

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
    proc = subprocess.run(
        [sys.executable, "-m", "gkit.cli"] + args, capture_output=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(GOLDEN, f"{name}.jsonl"), "rb") as fh:
        assert proc.stdout == fh.read()
