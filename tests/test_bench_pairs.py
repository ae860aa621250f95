"""tools/bench_pairs.py rejects a seed list it could not run before it
checks anything out, and gives each gated metric one verdict."""

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


REF = [100.0 + i for i in range(10)]  # median 104.5, quartiles 101.75-107.25
WIDE = [10.0 * i for i in range(1, 11)]  # median 55, quartiles 27.5-82.5


@pytest.mark.parametrize("better, ref, work, want", [
    # 10 of 10 won, medians 20 apart against an interquartile distance of 5.5
    ("higher", REF, [x + 20 for x in REF], "gain"),
    ("lower", REF, [x - 20 for x in REF], "gain"),
    # 9 of 10 won is still a gain; the medians are 9 apart
    ("higher", REF, [x + 10 for x in REF[:9]] + [REF[9]], "gain"),
    # 8 of 10 is not, however far apart the medians
    ("higher", REF, [x + 20 for x in REF[:8]] + REF[8:], "within bound"),
    # won every pair, but by less than the interquartile distance
    ("higher", REF, [x + 1 for x in REF], "within bound"),
    # lost every pair, by less than the bound
    ("higher", REF, [x - 20 for x in REF], "within bound"),
    # the median 30% worse, against a bound of 25%
    ("higher", REF, [x * 0.7 for x in REF], "worse"),
    ("lower", REF, [x * 1.3 for x in REF], "worse"),
    # the parent spreads wider than the bound: a small loss cannot be told
    ("higher", WIDE, [x - 1 for x in WIDE], "unresolved"),
    # and neither can a win that overlaps the parent's runs
    ("higher", WIDE, [x + 1 for x in WIDE], "unresolved"),
    # unless every work run beats every ref run
    ("higher", WIDE, [101.0] * 10, "within bound"),
])
def test_verdict(bench_pairs, better, ref, work, want):
    assert bench_pairs.verdict(better, 0.25, ref, work) == want


def test_child_env_gives_each_side_a_bytecode_cache_of_its_own(bench_pairs):
    env = {"PATH": "/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    ref, work = (bench_pairs.child_env(env, "tmp", side) for side in ("ref", "work"))
    assert ref == {**env, "PYTHONPYCACHEPREFIX": os.path.join("tmp", "pycache_ref")}
    assert work == {**env, "PYTHONPYCACHEPREFIX": os.path.join("tmp", "pycache_work")}
    assert env == {"PATH": "/bin", "PYTHONDONTWRITEBYTECODE": "1"}


def test_every_run_of_a_side_takes_its_environment(bench_pairs, monkeypatch):
    """Each benchmark child of one side, traced or not, runs under that
    side's cache directory, inside the temporary directory of the worktree."""
    seen = []

    class Done:
        stdout = '{"correct": true, "metrics": {}}\n'

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":
            if "add" in cmd:
                seen.append(("ref tree", cmd[-2]))
            return Done()
        seen.append((cwd, env["PYTHONPYCACHEPREFIX"]))
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "report", lambda *args: None)
    bench_pairs.main(["HEAD", "--workload", "field_k", "--seeds", "1-2", "--trace"])
    (_, ref_tree), *runs = seen
    tmp = os.path.dirname(ref_tree)
    side = {ref_tree: "ref", bench_pairs.ROOT: "work"}
    assert len(runs) == 8
    for cwd, prefix in runs:
        assert prefix == os.path.join(tmp, f"pycache_{side[cwd]}")
