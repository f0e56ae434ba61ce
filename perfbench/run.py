"""Benchmark for rnarith: seeded workloads, output checks, per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload float-ops-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own fresh interpreter, one process with no
threads, as a closed loop: the next call starts when the previous one has
returned.  The package is imported from ``src/`` next to this directory;
without it the benchmark exits 2 and prints no result.

With ``--trace 0`` it prints the end-to-end metrics: ``ops_per_s`` (median
over timed passes), ``latency_p50_us``/``latency_p99_us`` (per call; on the
sweep workloads a sample is one sweep call's time per case, weighted by its
cases), ``setup_s`` (median over several fresh interpreters of import plus
input generation) and ``peak_rss_mb``.  Timings are scaled to a reference
interpreter speed sampled during the run (see ``speed.py``); the figures as
measured are printed next to them.  ``fail_ratio`` is printed with its
base; it is also the ``failed``/``attempted`` pair of the result line.

With ``--trace 1`` a separate run wraps the public functions of every
``rnarith`` module and prints per-layer calls and self time per op, the
useful-work ratios and the tracing overhead, and writes the spans under
``.bench_out/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("float-ops-wide", "verify-rnf8", "fixed-exact", "cli-eval")
SETUP_PROBES = 4  # fresh interpreters that only set up; the measured run adds one more
RUN_LIMIT_S = 170  # a run must end well inside three minutes

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    # no user site or PYTHON* settings from outside; a fixed hash seed, so
    # dict layouts (and their speed) repeat from run to run
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, small: bool = False,
                 plant: bool = False) -> dict:
    """Set-up probes, then the measured (or traced) run; returns the result
    line and prints the human-readable report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if small:
        common.append("--small")
    probes = [_child([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    extra = ["--trace", str(trace)]
    if plant:
        extra.append("--plant")
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        extra += ["--trace-out", os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")]
    res = _child([*common, *extra], deadline)
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    raw_setups = [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]]
    attempted, failed = res["ops"], res["failed"]

    print(f"== {name} seed={seed} trace={trace} ==")
    if trace:
        layers = res["layers"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        rows = sorted((k[: -len(".self_us_per_op")] for k in layers if k.endswith(".self_us_per_op")),
                      key=lambda b: -layers[f"{b}.self_us_per_op"])
        print(f"{'boundary':34} {'calls/op':>12} {'self us/op':>12}")
        for b in rows:
            calls = layers[f"{b}.calls_per_op"]
            if calls:
                print(f"{b:34} {calls:12.6g} {layers[f'{b}.self_us_per_op']:12.4f}")
        for k in sorted(layers):
            if not k.endswith("_per_op"):
                print(f"{k} = {layers[k]:.6g} {_layer_unit(k)}")
        print(f"traced ops={res['traced_ops']} spans={res['spans']}")
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": unit} for k, unit in END_TO_END}
        samples = f"samples={res['latency_samples']}"
        if res["latency_cases"] != res["latency_samples"]:
            samples += f" sweep calls weighted by their {res['latency_cases']} cases"
        notes = {
            "ops_per_s": f"median of {res['passes']} passes, {attempted} ops; "
                         f"{res['raw_ops_per_s']:.6g} as measured",
            "latency_p50_us": samples,
            "latency_p99_us": samples,
            "setup_s": f"median of {len(setups)} fresh interpreters; "
                       f"{statistics.median(raw_setups):.6g} as measured",
            "peak_rss_mb": "workload process",
        }
        for k, unit in END_TO_END:
            print(f"{name} {k} = {res[k]:.6g} {unit} ({notes[k]})")
    print(f"{name} fail_ratio = {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    for reason in res["reasons"]:
        print(f"  FAIL {reason}")
    print("mix: " + " ".join(f"{k}={v}" for k, v in sorted(res["mix"].items())))
    print(f"digest: {res['digest']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls_per_op"):
        return "count"
    if name.endswith(".self_us_per_op"):
        return "us"
    return "1/s" if name.endswith("ops_per_s") else "ratio"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rnarith", "__init__.py")):
        print(f"error: no rnarith package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
