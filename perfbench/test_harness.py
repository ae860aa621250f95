"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/test_harness.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gkit.errors import GkitError, NotAUnit  # noqa: E402


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.5) == (50, 50)
    assert harness.percentile(samples, 0.9) == (90, 10)
    assert harness.percentile(list(reversed(samples)), 0.9) == (90, 10)


def test_percentile_needs_ten_beyond():
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    # 99 samples leave 9 beyond the 90% rank, 110 leave 11
    assert harness.percentile(list(range(110)), 0.9) == (98, 11)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def spend(self, dt):
        self.t += dt


def test_self_time_from_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.spend(2)

    def middle():
        clock.spend(1)
        tracer.call("polys.mul", leaf, (), {})
        clock.spend(3)

    def outer():
        clock.spend(5)
        tracer.call("witt.add", middle, (), {})
        tracer.call("witt.add", middle, (), {})

    tracer.span("op.test", outer)
    assert tracer.totals["op.test"] == [1, 5.0]
    assert tracer.totals["witt.add"] == [2, 8.0]
    assert tracer.totals["polys.mul"] == [2, 4.0]
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = {name: names.get(parent) for _, name, _, _, parent in tracer.spans}
    assert parents == {"witt.add": "op.test", "op.test": None}
    # aggregated layers keep a count and self time per enclosing span
    per_parent = sorted((names[sid], name, v) for (sid, name), v in tracer.by_parent.items())
    assert per_parent == [("witt.add", "polys.mul", [1, 2.0])] * 2


def test_calls_inside_their_own_layer_fold_into_the_outer_call():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner_mul():
        clock.spend(1)

    def gcd():
        clock.spend(1)
        tracer.call("polys.mul", inner_mul, (), {})
        tracer.call("polys.gcd", lambda: clock.spend(1), (), {})

    tracer.span("op.test", lambda: tracer.call("polys.gcd", gcd, (), {}))
    assert tracer.totals["polys.gcd"] == [1, 3.0]
    assert "polys.mul" not in tracer.totals


def test_raised_error_counts_as_failed_and_ends_its_group():
    def raising(ctx):
        raise NotAUnit("boom")

    ran = []
    group = harness.Group(
        [
            harness.Op("first", {"p3": True}, lambda ctx: 1),
            harness.Op("raises", {"p3": False}, raising),
            harness.Op("never", {"p3": True}, lambda ctx: ran.append(1)),
        ],
        lambda ctx, outs: [True] * len(outs),
    )
    outcome = harness.Outcome()
    harness.run_group(group, outcome)
    assert outcome.attempted == 2 and outcome.failed == 1 and not ran
    assert outcome.failed_kinds == {"raises": 1}
    assert outcome.shares(["p3"]) == {"p3": 0.5}


def test_known_defect_excuses_only_its_own_failure():
    def raising(ctx):
        raise NotAUnit("boom")

    def returned(out):
        return not isinstance(out, GkitError)

    outcome = harness.Outcome()
    for fn in (lambda ctx: 2, raising):
        group = harness.Group([harness.Op("big_mul", {}, fn, returned)],
                              lambda ctx, outs: [out == 1 for out in outs])
        harness.run_group(group, outcome)
    assert (outcome.attempted, outcome.failed, outcome.known_defects) == (2, 1, 1)

    push = workloads.StatementFailed("point.push", dict(workloads.PUSH_DEFECT))
    other = workloads.StatementFailed(
        "point.push", {"type": "NotASolution", "message": "equation 0 does not vanish at the point"})
    assert workloads._push_defect(push) and not workloads._push_defect(other)
    assert not workloads._push_defect(NotAUnit("transported coordinates fail the emitted system"))


def test_failed_check_counts_and_other_errors_propagate():
    group = harness.Group(
        [harness.Op("a", {}, lambda ctx: 1), harness.Op("b", {}, lambda ctx: 2)],
        lambda ctx, outs: [out == 1 for out in outs],
    )
    outcome = harness.Outcome()
    harness.run_group(group, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    bad = harness.Group([harness.Op("bug", {}, lambda ctx: 1 / 0)], lambda ctx, outs: [True])
    with pytest.raises(ZeroDivisionError):
        harness.run_group(bad, harness.Outcome())
    assert issubclass(NotAUnit, GkitError)


def test_wrappers_record_real_calls_and_come_off_cleanly():
    import gkit.cohen as cohen
    from gkit.basefield import PrimeParams
    from gkit.rings import FieldRing

    original = cohen.cohen_add
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, spans.gkit_modules())
    try:
        ring = FieldRing(PrimeParams(2, 1))
        one = cohen.teich_lift(ring, 2, ring.one())
        tracer.span("op.add", cohen.cohen_add, one, one)
    finally:
        installed.remove()
    assert cohen.cohen_add is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["cohen.arith.calls"] == (1, "count")
    assert metrics["cohen.to_witt.calls"][0] >= 2
    assert metrics["witt.add.calls"][0] > 0
    assert metrics["witt.structure_polys.hit_ratio"][0] > 0


def test_field_oracle_is_independent_of_gkit_multiplication():
    p = 5
    a, b = {(1,): 1, (0,): 2}, {(1,): 3}
    assert workloads.naive_mul(a, b, p) == {(2,): 3, (1,): 1}
    assert workloads.same_fraction({(1,): 2}, {(0,): 1}, {(2,): 2}, {(1,): 1}, p)
    assert workloads.frob({(1, 2): 4}, 3) == {(3, 6): 4}
    assert workloads.same_at_points({(1,): 1}, {(0,): 1}, {(1,): 1}, {(0,): 1}, p, [(2,)])
    assert not workloads.same_at_points({(1,): 1}, {(0,): 1}, {(0,): 1}, {(0,): 1}, p, [(2,)])


def test_digit_check_catches_a_wrong_digit():
    import random

    from gkit.basefield import PrimeParams, pbasis_expand

    k = PrimeParams(3, 2)
    a = workloads.rand_fraction(random.Random(7), k, 5, 4, 2, 2)
    expansion = pbasis_expand(a)
    assert workloads._digits_ok(expansion, a, 3)
    i = (1, 2)
    expansion.digits[i] = expansion.digits[i] + k.one()
    assert not workloads._digits_ok(expansion, a, 3)


def test_inputs_come_from_the_seed():
    import random

    def texts(seed):
        rng, shapes = random.Random(seed), random.Random("shapes")
        return [src for config in workloads.SCRIPTS
                for _, src in workloads.script_statements(rng, shapes, config)
                if isinstance(src, str)]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)
