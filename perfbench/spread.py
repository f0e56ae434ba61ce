"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads float-ops-wide cli-eval --seeds 10
    python3 perfbench/spread.py --seeds 10 --baseline perfbench/BASELINE.json

Runs ``run.py`` once per (workload, seed), one run at a time, and prints each
metric's median and its quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the bound
in ``BENCHMARK.json``.  With ``--baseline`` it also writes the medians,
quartiles and the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--baseline", default=None, help="write medians and machine to this file")
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    summary = {}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=run.ROOT, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed={seed} " + " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                  flush=True)
        rows = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if spread < bounds[k] / 3 else "  <-- above a third of the bound"
            print(f"{name} {k}: median={med:.6g} spread={spread:.4f} bound={bounds[k]}{flag}")
        summary[name] = {"why": whys[name], "failed": failed, "metrics": rows}

    if args.baseline:
        units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        doc = {
            "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                        "python": platform.python_version()},
            "run_seconds": spec["run_seconds"],
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "units": {k: {"unit": u, "better": b} for k, (u, b) in units.items()},
            "workloads": summary,
        }
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
