"""Acceptance suite: one test per criterion, each printing a PASS line.

Every sweep compares the library against independent integer arithmetic on
raw fields; a criterion passes only with zero failures inside its stated
runtime budget.
"""

import time

import rnarith.verify as verify
from rnarith.floatfmt import RNF8, RNF16


def _finish(name: str, reports, budget: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    failures = [f for rep in reports for f in rep.failures]
    cases = sum(rep.cases for rep in reports)
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({cases} cases, {elapsed:.2f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_pinned_vectors():
    t0 = time.perf_counter()
    reports = [verify.pinned_examples()]
    _finish("1 pinned-vectors", reports, 1.0, t0)


def test_criterion_2_fixed_exactness_exhaustive():
    t0 = time.perf_counter()
    reports = [
        verify.fixed_add_sweep(8, "add"),
        verify.fixed_add_sweep(8, "add_alt"),
        verify.fixed_add_sweep(8, "sub"),
        verify.fixed_mul_sweep(6),
        verify.fixed_mul_sign_sweep(6),
    ]
    _finish("2 fixed-exactness", reports, 10.0, t0)


def test_criterion_3_division_bounds():
    t0 = time.perf_counter()
    reports = [verify.fixed_div_sweep(p) for p in (3, 4, 5)]
    _finish("3 division-bounds", reports, 30.0, t0)


def test_criterion_4_double_rounding():
    t0 = time.perf_counter()
    reports = [verify.double_rounding_sweep(12)]
    _finish("4 double-rounding", reports, 5.0, t0)


def test_criterion_5_negation():
    t0 = time.perf_counter()
    reports = [
        verify.negation_sweep(12),
        verify.float_negate_sweep(RNF8),
        verify.float_negate_sweep(RNF16),
    ]
    _finish("5 negation", reports, 5.0, t0)


def test_criterion_6_float_correct_rounding():
    t0 = time.perf_counter()
    reports = [
        verify.float_nearest_sweep(RNF8, "add"),
        verify.float_nearest_sweep(RNF8, "mul"),
        verify.float_nearest_sweep(RNF8, "div"),
        verify.far_shortcut_sweep(RNF8),
    ]
    _finish("6 float-correct-rounding", reports, 60.0, t0)


def test_criterion_7_directed_roundings():
    t0 = time.perf_counter()
    reports = [verify.float_directed_sweep(RNF8, op) for op in ("add", "mul", "div")]
    _finish("7 directed-roundings", reports, 120.0, t0)


def test_criterion_8_round_bit_direction():
    """Every inexact nearest-mode nonzero result reports its rounding
    direction in the round bit: set means the result is above the exact
    value, clear means below."""
    from rnarith.floatarith import RoundingMode
    from rnarith.oracle import VerifyReport

    t0 = time.perf_counter()
    rep = VerifyReport("round-bit-direction", "format=rnf8")
    for op, (func, _) in verify._FLOAT_OPS.items():
        for a, b, va, vb in verify._operand_pairs(RNF8):
            exact = verify._float_exact(RNF8, op, a, b, va, vb)
            if exact is None:
                continue
            rep.cases += 1
            out, inexact = func(RNF8, a, b)
            fault = verify.rounding_fault(RNF8, exact, RoundingMode.NEAREST, out, inexact)
            if fault == "round-bit direction":
                rep.record(f"{op} {a:#x},{b:#x}", "direction", str(out & 1))
    rep.done()
    _finish("8 round-bit-direction", [rep], 120.0, t0)


def test_criterion_9_format_bijection():
    t0 = time.perf_counter()
    reports = [verify.pack_unpack_sweep(RNF16)]
    _finish("9 format-bijection", reports, 5.0, t0)
