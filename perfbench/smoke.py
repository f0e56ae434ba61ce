"""Smoke test of the benchmark itself, at minimal input sizes.

    python3 perfbench/smoke.py

Checks that every workload prints every end-to-end metric with its unit and,
traced, every per-layer metric; that a planted wrong result (one flipped
round bit) is counted in ``fail_ratio``; that the class mix, the output
digest and ``calls_per_op`` repeat exactly for a seed; and that
``BENCHMARK.json`` lists the metrics the runs report.  Exits 1 on any
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import tracing

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def small_run(name: str, trace: int, seed: int = 7, plant: bool = False) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        res = run.run_workload(name, seed, 0.2, trace, small=True, plant=plant)
    return res, buf.getvalue()


def stable_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith(("mix:", "digest:"))]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == dict(run.END_TO_END), "BENCHMARK.json end_to_end matches the reported metrics")
    expect(layers == {m["name"]: m["unit"] for m in tracing.per_layer_spec()},
           "BENCHMARK.json per_layer matches the traced metrics")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload list")

    for name in run.WORKLOADS:
        res, text = small_run(name, 0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, f"{name}: result line has every end-to-end metric and unit")
        expect(all(f"{name} {k} = " in text and f" {u} (" in text for k, u in e2e.items()),
               f"{name}: every end-to-end metric printed with its unit")
        expect(f"{name} fail_ratio = 0 ratio" in text and res["failed"] == 0 and res["correct"],
               f"{name}: outputs pass their checks")
        again, text2 = small_run(name, 0)
        expect(stable_lines(text) == stable_lines(text2) and len(stable_lines(text)) == 2,
               f"{name}: class mix and output digest repeat for a seed")

        traced, _ = small_run(name, 1)
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        expect(got == layers, f"{name}: traced result line has every per-layer metric and unit")
        expect(traced["failed"] == 0, f"{name}: traced outputs equal untraced outputs")
        traced2, _ = small_run(name, 1)
        calls = {k: v["value"] for k, v in traced["metrics"].items() if k.endswith(".calls_per_op")}
        calls2 = {k: v["value"] for k, v in traced2["metrics"].items() if k.endswith(".calls_per_op")}
        expect(calls == calls2 and any(calls.values()), f"{name}: calls_per_op repeats for a seed")

    planted, text = small_run("float-ops-wide", 0, plant=True)
    expect(planted["failed"] >= 1 and not planted["correct"] and "fail_ratio = 0 " not in text,
           "a flipped round bit is counted in fail_ratio")

    print(f"{len(FAILURES)} smoke failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
