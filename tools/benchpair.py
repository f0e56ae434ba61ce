"""Alternating benchmark pairs on two checkouts, with a BENCH_*.json summary.

    python3 tools/benchpair.py <parent> <change> --workload fixed-exact:4-13 \\
        [--workload verify-rnf8:1-3 ...] --out BENCH_<n>.json

Each ``--workload NAME:FIRST-LAST`` (or ``NAME:SEED``) runs one pair per
seed: each checkout's own ``perfbench/run.py --workload NAME --seed SEED
--seconds S --trace 0``, one run at a time, with S the ``run_seconds`` of
the change's ``BENCHMARK.json``.  Pair 0 of each workload runs
the parent first, pair 1 the change first, and so on.  The output file is
rewritten after every pair, so an interrupted command keeps the pairs it
ran.  It holds ``command``, ``machine``, ``order``, ``runs`` (each run's
tree, workload, seed, pair, order, exit code, digest line and result
line), ``digests`` (both trees' digest per workload and seed) and
``summary``: one row per workload and end-to-end metric of the change's
``BENCHMARK.json``, with both trees' medians and quartiles, the change's
wins and losses over the pairs, its relative worsening against the
metric's bound, and whether the median gap in the change's favour exceeds
the parent's interquartile range.  The quartiles and the CPU model are
``perfbench/spread.py``'s.  Stdlib only; nothing in either checkout is
written but what the benchmark itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TREES = ("parent", "change")
RUN_TIMEOUT_S = 600


def parse_workload(text: str) -> tuple[str, list[int]]:
    """``NAME:FIRST-LAST`` or ``NAME:SEED`` as the name and its seeds."""
    name, sep, seeds = text.partition(":")
    first, dash, last = seeds.partition("-")
    last = last if dash else first
    if not (sep and name and first.isdigit() and last.isdigit()):
        raise argparse.ArgumentTypeError(f"expected NAME:FIRST-LAST, got {text!r}")
    return name, list(range(int(first), int(last) + 1))


def bounds_of(benchmark: dict) -> dict[str, tuple[str, float]]:
    """Each end-to-end metric's better direction and relative bound."""
    return {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float]:
    """Q1 and Q3 as ``perfbench/spread.py`` takes them; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list[dict], bounds: dict[str, tuple[str, float]]) -> list[dict]:
    """One row per workload and metric, over the pairs in which both trees
    gave a result line."""
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["tree"]] = run
    rows = []
    for workload, by_pair in pairs.items():
        done = [p for _, p in sorted(by_pair.items()) if all(p.get(t, {}).get("result") for t in TREES)]
        if not done:
            continue
        failed = [sum(p[t]["result"]["failed"] for p in done) for t in TREES]
        for metric, (better, bound) in bounds.items():
            parent, change = ([p[t]["result"]["metrics"][metric]["value"] for p in done] for t in TREES)
            sign = 1 if better == "higher" else -1  # sign * (change - parent) > 0: the change is better
            gains = [sign * (c - p) for p, c in zip(parent, change)]
            pm, cm = statistics.median(parent), statistics.median(change)
            (pq1, pq3), (cq1, cq3) = _quartiles(parent), _quartiles(change)
            rows.append({
                "workload": workload, "metric": metric, "better": better, "pairs": len(done),
                "change_wins": sum(g > 0 for g in gains), "change_losses": sum(g < 0 for g in gains),
                "parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
                "change_median": cm, "change_q1": cq1, "change_q3": cq3,
                "ratio_change_over_parent": cm / pm,
                "relative_worsening": -sign * (cm - pm) / pm,
                "bound": bound,
                "within_bound": -sign * (cm - pm) / pm <= bound,
                "median_gap_beats_parent_iqr": sign * (cm - pm) > pq3 - pq1,
                "failed": failed,
            })
    return rows


def digests(runs: list[dict]) -> dict[str, dict[str, str | None]]:
    out: dict[str, dict[str, str | None]] = {}
    for run in runs:
        out.setdefault(f"{run['workload']} seed {run['seed']}", {})[run["tree"]] = run["digest"]
    return out


def parse_output(stdout: str) -> tuple[str | None, dict | None]:
    """The ``digest:`` line and the last line's JSON result of one run."""
    lines = stdout.strip().splitlines()
    digest = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("digest:")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return digest, result


def run_one(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "digest": None, "result": None, "error": "timed out"}
    digest, result = parse_output(proc.stdout)
    run = {"exit": proc.returncode, "digest": digest, "result": result if proc.returncode == 0 else None}
    if proc.returncode != 0:
        run["error"] = proc.stderr.strip()[-2000:]
    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", type=parse_workload, action="append", required=True,
                    help="NAME:FIRST-LAST seeds, one pair per seed; repeatable")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    sys.path.insert(0, PERFBENCH)  # only here, so a test that loads this file imports no perfbench module
    from spread import cpu_model
    checkouts = dict(zip(TREES, (args.parent, args.change)))
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds, seconds = bounds_of(benchmark), benchmark["run_seconds"]
    plan = "; ".join(f"{name} seeds {seeds[0]}-{seeds[-1]} ({len(seeds)} pairs)" for name, seeds in args.workload)
    doc = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "python": platform.python_version()},
        "order": f"pairs alternate which tree runs first (pair 0 parent first); {plan}; one run at a time; "
                 "quartiles are statistics.quantiles(n=4), as in perfbench/spread.py; timings are perfbench's "
                 "speed-scaled figures; failed is [parent, change] operations failed over all pairs",
        "summary": [],
        "digests": {},
        "runs": [],
    }
    for name, seeds in args.workload:
        for pair, seed in enumerate(seeds):
            order = TREES if pair % 2 == 0 else TREES[::-1]
            for i, tree in enumerate(order):
                run = run_one(checkouts[tree], name, seed, seconds)
                doc["runs"].append({"tree": tree, "workload": name, "seed": seed, "pair": pair,
                                    "ran_first": i == 0, **run})
                ops = run["result"]["metrics"]["ops_per_s"]["value"] if run["result"] else None
                print(f"{name} seed {seed} {tree}: exit {run['exit']} ops_per_s {ops}", file=sys.stderr)
            doc["summary"], doc["digests"] = summarize(doc["runs"], bounds), digests(doc["runs"])
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
    return 0 if all(run["exit"] == 0 for run in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
