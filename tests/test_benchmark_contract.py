"""The names the benchmark under ``perfbench/`` relies on still exist.

The benchmark wraps each ``(module, name)`` in ``tracing.BOUNDARIES`` and
imports its value helpers from ``rnarith.verify`` in ``checks.py``; deleting
or renaming one of them breaks every benchmark run.  The modules are loaded
from their files, so nothing under ``perfbench/`` is changed or put on the
import path.  The benchmark's own smoke run (``perfbench/smoke.py``) runs
here too, in a subprocess.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_exist():
    boundaries = _load("tracing").BOUNDARIES
    assert boundaries
    missing = [
        f"rnarith.{mod}.{name}"
        for mod, name, _ in boundaries
        if not hasattr(importlib.import_module(f"rnarith.{mod}"), name)
    ]
    assert not missing


def test_traced_generators_return_iterators():
    # the tracer calls ``next()`` on what a "gen" boundary returns; a list
    # would break only traced runs
    from rnarith.floatfmt import FloatFormat

    tiny = {"enumerate_fixed": (2,), "enumerate_format": (FloatFormat(2, 2),), "enumerate_div_operands": (1,)}
    gens = [(mod, name) for mod, name, kind in _load("tracing").BOUNDARIES if kind == "gen"]
    assert gens
    for mod, name in gens:
        out = getattr(importlib.import_module(f"rnarith.{mod}"), name)(*tiny[name])
        assert iter(out) is out
        next(out)


def test_sticky_flag_is_a_bool_attribute():
    # the float-ops-wide workload stores ``(out.word, sticky.nonzero)``
    from rnarith.floatarith import fadd_with_sticky, fdiv_with_sticky, fmul_with_sticky
    from rnarith.floatfmt import RNF8, RnFloat

    one, three, x = RnFloat(RNF8, 0x30), RnFloat(RNF8, 0x48), RnFloat(RNF8, 0x3E)  # 1, 3, 15/8
    inexact_pairs = {
        fadd_with_sticky: (x, three),
        fmul_with_sticky: (x, three),
        fdiv_with_sticky: (one, three),
    }
    for op, pair in inexact_pairs.items():
        for (a, b), inexact in (((one, one), False), (pair, True)):
            out, sticky = op(a, b)
            assert isinstance(out, RnFloat)
            assert sticky.nonzero is inexact


def test_checks_import_cleanly():
    checks = _load("checks")
    assert callable(checks.check_float_op)


def test_benchmark_smoke_run_passes():
    # every workload at minimal size: metrics printed, checks passed, mix and
    # digest repeated for a seed, and a planted wrong result counted
    proc = subprocess.run([sys.executable, str(PERFBENCH / "smoke.py")], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "0 smoke failures"
