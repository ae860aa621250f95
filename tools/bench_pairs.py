"""Alternated benchmark pairs: a git ref against the working tree.

    python3 tools/bench_pairs.py REF --workload cohen_k --seeds 1-4 --seconds 10 [--trace]

Checks REF out into a temporary git worktree and runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once there
and once in the working tree for each seed, alternating which side runs
first (seed by seed: REF first, then the working tree first).  Each side
runs its own checkout's ``perfbench/`` and ``src/``, and caches its bytecode
in a fresh directory of its own (``child_env``).  For every gated
metric of ``BENCHMARK.json`` it prints each pair, then per side the median,
the quartiles and the min-max, how many pairs the working tree won (ties
count for neither side), and one verdict (see ``verdict``).  With
``--trace`` each side also runs
``perfbench/run.py --workload W --seed S --trace 1`` once per seed, and
every per-layer metric is printed per seed as ref, work and work/ref.  The
worktree is removed at the end, also when a run fails.  Standard library
only; run from anywhere inside the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """'1-4' or '1,3,7' (or a mix) as a list of ints; an empty list, a
    descending range or a part that is no int is an argparse error."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not a seed or a range A-B") from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"descending seed range {part!r}")
        seeds += range(lo, hi + 1)
    return seeds


def child_env(env, tmp, side):
    """The environment of every run of one side: ``env`` with
    PYTHONPYCACHEPREFIX set to a directory of that side's own under ``tmp``,
    so both sides compile gkit afresh, whatever ``__pycache__`` either
    checkout holds."""
    return {**env, "PYTHONPYCACHEPREFIX": os.path.join(tmp, f"pycache_{side}")}


def run_once(tree, env, workload, seed, seconds, trace=0):
    """The metrics of one benchmark run in ``tree`` under ``env`` (the gated
    ones, or with ``trace`` the per-layer ones): the last line of its
    standard output is the result JSON."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  warning: {result['failed']} failed ops in {tree} seed {seed}", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """median, (q1, q3), (min, max)."""
    quart = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), (quart[0], quart[2]), (min(values), max(values))


def verdict(better, bound, ref, work):
    """The verdict on one gated metric from paired runs, ref[i] against
    work[i], ``better`` "higher" or "lower":

    - "gain": work won at least 9 in 10 of the pairs (ties count for
      neither side) and its median beats ref's by more than ref's
      interquartile distance;
    - "worse": work's median is worse than ref's by more than
      bound * ref's median;
    - "unresolved": ref's interquartile distance exceeds bound * ref's
      median, and not every work run beats every ref run;
    - "within bound" otherwise.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(ref, work))
    ref_med, (q1, q3), _ = spread(ref)
    gap = sign * (statistics.median(work) - ref_med)
    if 10 * wins >= 9 * len(ref) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(ref_med):
        return "worse"
    if q3 - q1 > bound * abs(ref_med) and not all(sign * (b - a) > 0 for a in ref for b in work):
        return "unresolved"
    return "within bound"


def report(gated, seeds, runs):
    ref, work = runs["ref"], runs["work"]
    for name, better, bound in gated:
        print(f"{name} ({better} is better)")
        for seed, a, b in zip(seeds, ref, work):
            print(f"  seed {seed}: ref {a[name]:.6g}  work {b[name]:.6g}")
        for side, rows in (("ref ", ref), ("work", work)):
            med, (q1, q3), (lo, hi) = spread([r[name] for r in rows])
            print(f"  {side} median {med:.6g}  quartiles {q1:.6g}-{q3:.6g}  "
                  f"min-max {lo:.6g}-{hi:.6g}")
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b[name] - a[name]) > 0 for a, b in zip(ref, work))
        ratio = statistics.median(r[name] for r in work) / statistics.median(r[name] for r in ref)
        print(f"  work won {wins} of {len(ref)} pairs; median work/ref = {ratio:.3f}")
        judged = verdict(better, bound, [r[name] for r in ref], [r[name] for r in work])
        print(f"  verdict (bound {bound:g}): {judged}")


def report_trace(seeds, traces):
    ref, work = traces["ref"], traces["work"]
    names = list(dict.fromkeys(name for rows in (ref, work) for row in rows for name in row))
    print("per-layer metrics of the traced runs")
    for name in names:
        print(name)
        for seed, a, b in zip(seeds, ref, work):
            x, y = a.get(name), b.get(name)
            ratio = f"{y / x:.3f}" if x and y is not None else "-"
            print(f"  seed {seed}: ref {_show(x)}  work {_show(y)}  work/ref {ratio}")


def _show(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("ref", help="the git ref to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-4", type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", action="store_true",
                    help="also compare the per-layer metrics of one traced run per side and seed")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        gated = [(m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        ref_tree = os.path.join(tmp, "ref")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
                        ref_tree, args.ref], check=True)
        try:
            runs = {"ref": [], "work": []}
            traces = {"ref": [], "work": []}
            for n, seed in enumerate(args.seeds):
                order = [("ref", ref_tree), ("work", ROOT)]
                for side, tree in order if n % 2 == 0 else order[::-1]:
                    env = child_env(os.environ, tmp, side)
                    runs[side].append(run_once(tree, env, args.workload, seed, args.seconds))
                    print(f"seed {seed} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
                    if args.trace:
                        traces[side].append(
                            run_once(tree, env, args.workload, seed, args.seconds, 1))
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", ref_tree],
                           check=False)
    print(f"workload {args.workload}, seeds {args.seeds}, {args.seconds:g} s per run, "
          f"ref {args.ref} against the working tree")
    report(gated, args.seeds, runs)
    if args.trace:
        report_trace(args.seeds, traces)
    return 0


if __name__ == "__main__":
    sys.exit(main())
