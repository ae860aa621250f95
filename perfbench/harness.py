"""Closed-loop runner shared by the workloads: one client, no threads.

A workload is a list of rounds; a round is a list of groups; a group is a
list of ops that share a context (a script's statements share a session)
plus a check over their outputs.  The loop runs whole rounds until the
timed phase has lasted the requested seconds and at least ``MIN_OPS`` ops
have run.  Each group's check runs right after the group with the clock
stopped, so checking costs nothing in the metrics and no output is kept.
"""

import math
import time

from gkit.errors import GkitError

# ten samples must lie beyond the 90th percentile
MIN_OPS = 100
MIN_BEYOND = 10


class Op:
    """One timed call.  ``fn(ctx)`` returns the op's output; ``props`` are
    the input properties counted in the shares; ``known_defect(out)`` is
    true when a failure whose output ``out`` (the returned value or the
    GkitError raised) is the observed failure of a reported program defect
    at this commit: such failures count in ``known_defects``, not in
    ``failed``, and do not make the run incorrect.  Every other failure
    counts in ``failed`` and does."""

    __slots__ = ("kind", "props", "fn", "known_defect")

    def __init__(self, kind, props, fn, known_defect=None):
        self.kind = kind
        self.props = props
        self.fn = fn
        self.known_defect = known_defect


class Group:
    """Ops run back to back; ``check(ctx, outputs)`` returns one bool per op,
    where an output is the op's return value or the GkitError it raised."""

    __slots__ = ("ops", "check")

    def __init__(self, ops, check):
        self.ops = ops
        self.check = check


def percentile(samples, q):
    """Nearest-rank ``q``-quantile of ``samples`` and the number of samples
    strictly above its rank.  Raises ValueError when fewer than
    ``MIN_BEYOND`` samples lie beyond it, so a tail figure always rests on
    at least that many observations."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"{beyond} samples beyond the {q:.0%} rank of {len(ordered)}; need {MIN_BEYOND}"
        )
    return ordered[rank - 1], beyond


class Outcome:
    """Everything one pass over the ops measured."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.failed = 0
        self.known_defects = 0
        self.timed_s = 0.0
        self.prop_counts = {}
        self.failed_kinds = {}

    @property
    def attempted(self):
        return len(self.latencies)

    def count(self, op, ok, out):
        for prop, on in op.props.items():
            if on:
                self.prop_counts[prop] = self.prop_counts.get(prop, 0) + 1
        if not ok:
            if op.known_defect and op.known_defect(out):
                self.known_defects += 1
            else:
                self.failed += 1
            self.failed_kinds[op.kind] = self.failed_kinds.get(op.kind, 0) + 1

    def shares(self, names):
        n = self.attempted
        return {name: self.prop_counts.get(name, 0) / n for name in names}


def run_group(group, outcome, tracer=None):
    """Run one group's ops, timing each, then check them untimed."""
    ctx = {}
    outputs = []
    for op in group.ops:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = op.fn(ctx)
            else:
                out = tracer.span("op." + op.kind, op.fn, ctx)
        except GkitError as exc:
            out = exc
        end = time.perf_counter()
        outcome.latencies.append(end - start)
        outcome.kinds.append(op.kind)
        outcome.timed_s += end - start
        outputs.append(out)
        if isinstance(out, GkitError):
            # later ops of the group depend on this one and are not attempted
            break
    if len(outputs) < len(group.ops):
        oks = [not isinstance(out, GkitError) for out in outputs]
    else:
        if tracer is not None:
            tracer.enabled = False
        try:
            oks = group.check(ctx, outputs)
        finally:
            if tracer is not None:
                tracer.enabled = True
    for op, out, ok in zip(group.ops, outputs, oks):
        outcome.count(op, ok and not isinstance(out, GkitError), out)


def run_for(rounds, seconds):
    """Cycle through whole rounds until ``seconds`` of timed work and
    ``MIN_OPS`` ops are done."""
    outcome = Outcome()
    i = 0
    while outcome.timed_s < seconds or outcome.attempted < MIN_OPS:
        for group in rounds[i % len(rounds)]:
            run_group(group, outcome)
        i += 1
    return outcome


def run_rounds(rounds, count, tracer=None):
    """Exactly ``count`` rounds: the traced run repeats its calls exactly."""
    outcome = Outcome()
    for i in range(count):
        for group in rounds[i % len(rounds)]:
            run_group(group, outcome, tracer)
    return outcome


def end_to_end(outcome):
    """ops_per_s, op_ms_p50, op_ms_p90 (with its tail sample count) and
    fail_ratio of one pass; fail_ratio counts known defects too."""
    p50, _ = percentile(outcome.latencies, 0.5)
    p90, beyond = percentile(outcome.latencies, 0.9)
    return {
        "ops_per_s": outcome.attempted / outcome.timed_s,
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "op_ms_p90_beyond": beyond,
        "fail_ratio": (outcome.failed + outcome.known_defects) / outcome.attempted,
    }
