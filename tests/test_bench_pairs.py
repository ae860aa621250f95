"""tools/bench_pairs.py rejects a seed list it could not run before it
checks anything out."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(bench_pairs):
    assert bench_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert bench_pairs.parse_seeds("1,3,7-8") == [1, 3, 7, 8]
    assert bench_pairs.parse_seeds("5-5") == [5]


@pytest.mark.parametrize("seeds", ["4-1", "", "1,", "a"])
def test_bad_seeds_are_a_usage_error_before_any_checkout(bench_pairs, monkeypatch, seeds):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("subprocess started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--workload", "field_k", "--seeds", seeds])
    assert exc.value.code == 2
