"""gkit benchmark: three seeded closed-loop workloads, one client, no threads.

    python3 perfbench/run.py --workload cohen_k --seed 1 --seconds 20 --trace 0

Run from the repository root; gkit is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics with no wrappers
installed.  With ``--trace 1`` it installs the wrappers of ``spans.py``
before set-up, runs a fixed number of rounds traced (so call counts repeat
exactly for a seed), then the same rounds untraced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the gated metrics; the lines before it
print every metric with its unit (the gated ones, op_ms_p50, op_ms_p90,
the p90 tail sample count, the failure ratio), the failed ops and the ops
that hit a known program defect, failures by op kind and the input
property shares.  ``failed`` in the result line counts only failures other
than the known defects of ``workloads.py``; those are printed apart and
counted in the failure ratio.  A traced run also writes its spans to
``.perfbench_out/``.

``setup_s`` is the median over ``SETUP_SAMPLES`` fresh interpreter
processes of the time from process start to the end of set-up (importing
gkit, building the bases and one warm-up op per (p, N)); input generation
is not part of it.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9
# rounds in a traced run, sized to take about as long as an untraced run
TRACE_ROUNDS = {"cohen_k": 2, "greenberg_sym": 2, "field_k": 400}

# The metrics of the result line, which BENCHMARK.json gates.  op_ms_p50
# and op_ms_p90 are printed above it but not gated: the host's speed drift
# spread them across ten seeds by up to 0.18 of their median, too close to
# the largest bound a gated metric may have.
GATED = ("ops_per_s", "setup_s", "peak_rss_mb")


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def setup_seconds(workload_name):
    """Median over fresh processes of the time from spawning one to the end
    of its set-up.  The child prints the system-wide monotonic clock when
    set-up ends, so interpreter teardown and the parent's wait are not
    counted."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--setup-probe"],
            check=True, stdout=subprocess.PIPE, text=True, timeout=120,
        )
        samples.append(float(done.stdout) - start)
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(workload, seed, seconds):
    import harness
    import workloads

    setup_s = setup_seconds(workload.name)
    state = workload.setup()
    rounds = workloads.make_rounds(workload, state, seed)
    outcome = harness.run_for(rounds, seconds)
    e2e = harness.end_to_end(outcome)
    measured = {
        "ops_per_s": (e2e["ops_per_s"], "ops/s"),
        "op_ms_p50": (e2e["op_ms_p50"], "ms"),
        "op_ms_p90": (e2e["op_ms_p90"], "ms"),
        "op_ms_p90_beyond": (e2e["op_ms_p90_beyond"], "count"),
        "fail_ratio": (e2e["fail_ratio"], "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return outcome, measured, GATED


def traced_run(workload, seed, out_dir):
    import harness
    import spans
    import workloads

    tracer = spans.Tracer()
    installed = spans.Installed(tracer, spans.gkit_modules())
    try:
        state = workload.setup()
        tracer.enabled = False
        rounds = workloads.make_rounds(workload, state, seed)
        tracer.enabled = True
        outcome = harness.run_rounds(rounds, TRACE_ROUNDS[workload.name], tracer)
    finally:
        installed.remove()
    plain = harness.run_rounds(rounds, TRACE_ROUNDS[workload.name])
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead"] = (
        (outcome.attempted / outcome.timed_s) / (plain.attempted / plain.timed_s), "1")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{workload.name}_{seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh, separators=(",", ":"))
    gated = tuple(metrics)
    for text, holds, value in spans.predictions(workload.name, tracer, outcome):
        metrics[f"prediction {'holds' if holds else 'FAILS'}: {text}"] = (value, "")
    return outcome, metrics, gated


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gkit", "__init__.py")):
        print(f"perfbench: no gkit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup()
        print(time.perf_counter())
        return 0

    if args.trace:
        outcome, measured, gated = traced_run(
            workload, args.seed, os.path.join(ROOT, ".perfbench_out"))
    else:
        outcome, measured, gated = untraced_run(workload, args.seed, args.seconds)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"machine {json.dumps(machine(), sort_keys=True)}")
    for name, (value, unit) in measured.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:40s} {shown} {unit}")
    print(f"  attempted {outcome.attempted} failed {outcome.failed} "
          f"known_defects {outcome.known_defects} "
          f"(failures by kind {json.dumps(outcome.failed_kinds, sort_keys=True)})")
    shares = outcome.shares(workloads.PROPS)
    print("  shares " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": measured[name][0], "unit": measured[name][1]}
                    for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
