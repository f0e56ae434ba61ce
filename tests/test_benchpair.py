"""``tools/benchpair.py``'s summary math, on canned result lines.

The tool is loaded from its file; nothing here starts a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)

BOUNDS = {"ops_per_s": ("higher", 0.25), "latency_p50_us": ("lower", 0.2)}


def _run(tree, pair, ops, p50, failed=0, workload="fixed-exact"):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "latency_p50_us": {"value": p50, "unit": "us"}}
    result = {"correct": not failed, "attempted": 1000, "failed": failed, "metrics": metrics}
    return {"tree": tree, "workload": workload, "seed": pair + 1, "pair": pair, "ran_first": True,
            "exit": 0, "digest": "d", "result": result}


def _rows(runs):
    return {(r["workload"], r["metric"]): r for r in benchpair.summarize(runs, BOUNDS)}


def test_summary_of_five_pairs():
    parent = [100, 104, 102, 98, 110]  # sorted 98 100 102 104 110: q1 99, q3 107 (exclusive method)
    change = [120, 103, 125, 130, 118]  # pair 1 loses
    runs = [_run("parent", i, v, 2.0) for i, v in enumerate(parent)]
    runs += [_run("change", i, v, 1.5, failed=i == 4) for i, v in enumerate(change)]
    ops = _rows(runs)["fixed-exact", "ops_per_s"]
    assert (ops["pairs"], ops["change_wins"], ops["change_losses"]) == (5, 4, 1)
    assert (ops["parent_median"], ops["parent_q1"], ops["parent_q3"]) == (102, 99, 107)
    assert (ops["change_median"], ops["change_q1"], ops["change_q3"]) == (120, 110.5, 127.5)
    assert ops["ratio_change_over_parent"] == pytest.approx(120 / 102)
    assert ops["relative_worsening"] == pytest.approx(-18 / 102)
    assert ops["within_bound"] and ops["median_gap_beats_parent_iqr"]  # 18 > 107 - 99
    assert ops["failed"] == [0, 1]
    p50 = _rows(runs)["fixed-exact", "latency_p50_us"]
    assert (p50["change_wins"], p50["change_losses"], p50["relative_worsening"]) == (5, 0, -0.25)
    assert p50["median_gap_beats_parent_iqr"]  # a gap of 0.5 in the change's favour, an IQR of 0


def test_a_gap_equal_to_the_iqr_does_not_beat_it():
    runs = [_run("parent", i, v, 1.0) for i, v in enumerate([98, 100, 102, 104, 110])]
    runs += [_run("change", i, 110, 1.0) for i in range(5)]  # a gap of 8, the parent's IQR
    assert not _rows(runs)["fixed-exact", "ops_per_s"]["median_gap_beats_parent_iqr"]


def test_worsening_past_the_bound_and_the_gap_direction():
    # ops_per_s 30% lower: past its 25% bound, and a wide gap the wrong way
    # does not count as beating the IQR
    runs = [_run("parent", i, 100 + i, 1.0) for i in range(3)] + [_run("change", i, 70 + i, 1.1) for i in range(3)]
    ops = _rows(runs)["fixed-exact", "ops_per_s"]
    assert ops["relative_worsening"] == pytest.approx(0.3 / 1.01, rel=1e-3)
    assert not ops["within_bound"] and not ops["median_gap_beats_parent_iqr"]
    assert (ops["change_wins"], ops["change_losses"]) == (0, 3)
    p50 = _rows(runs)["fixed-exact", "latency_p50_us"]
    assert p50["relative_worsening"] == pytest.approx(0.1) and p50["within_bound"]


def test_pairs_without_both_results_are_left_out():
    runs = [_run("parent", 0, 100, 1.0), _run("change", 0, 110, 1.0),
            _run("parent", 1, 100, 1.0), {**_run("change", 1, 0, 1.0), "exit": 1, "result": None},
            _run("parent", 0, 50, 1.0, workload="cli-eval")]  # a workload with no whole pair
    rows = _rows(runs)
    assert rows["fixed-exact", "ops_per_s"]["pairs"] == 1
    assert rows["fixed-exact", "ops_per_s"]["parent_q1"] == rows["fixed-exact", "ops_per_s"]["parent_q3"] == 100
    assert not any(workload == "cli-eval" for workload, _ in rows)


def test_digests_by_workload_and_seed():
    runs = [_run("parent", 0, 1, 1), {**_run("change", 0, 1, 1), "digest": "e"}]
    assert benchpair.digests(runs) == {"fixed-exact seed 1": {"parent": "d", "change": "e"}}


def test_output_lines_read():
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}})
    stdout = f"== fixed-exact seed=1 trace=0 ==\nmix: add=1\ndigest: 46e21afcfde2d239\n{line}\n"
    assert benchpair.parse_output(stdout) == ("46e21afcfde2d239", json.loads(line))
    assert benchpair.parse_output("") == (None, None)
    assert benchpair.parse_output("error: worker exited 1\n") == (None, None)


@pytest.mark.parametrize("text, parsed", [
    ("fixed-exact:4-13", ("fixed-exact", list(range(4, 14)))),
    ("cli-eval:2", ("cli-eval", [2])),
])
def test_workload_argument(text, parsed):
    assert benchpair.parse_workload(text) == parsed


@pytest.mark.parametrize("text", ["fixed-exact", "fixed-exact:", ":1-3", "fixed-exact:a-b", "fixed-exact:1-"])
def test_workload_argument_refused(text):
    with pytest.raises(benchpair.argparse.ArgumentTypeError, match="NAME:FIRST-LAST"):
        benchpair.parse_workload(text)


def test_bounds_read_from_the_benchmark_file():
    bounds = benchpair.bounds_of(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert bounds["ops_per_s"] == ("higher", 0.25) and bounds["latency_p50_us"] == ("lower", 0.2)
