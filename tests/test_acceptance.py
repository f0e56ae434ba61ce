"""Acceptance suite: one test per criterion, each printing a PASS line.

Every sweep compares the library against independent integer arithmetic on
raw fields; a criterion passes only with zero failures inside its stated
runtime budget.
"""

import functools
import time

import rnarith.verify as verify
from rnarith.floatfmt import RNF8, RNF16
from rnarith.oracle import VerifyReport, enumerate_div_operands


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
    _finish("2 fixed-exactness", reports, 1.0, t0)


def _two_extra_bit_claim(p: int) -> VerifyReport:
    """The paper's two-extra-bit claim, on integers alone (no library call).

    Over every scaled operand pair, n and d half-ulps: the nearest value to
    q = n/d on the grid of u/4 (u = 2**-p, so |error| <= u/8) lies strictly
    inside the quotient bounds of the operand intervals, n/(d+1) and
    (n+1)/d, and within u/4 of q; and q truncated to p+2 bits lies on the
    side its round bit names (this holds for either round bit once the
    word is the floor of q on its grid, so it checks the word)."""
    rep = VerifyReport("div-approx", f"p={p}")
    g = 1 << (p + 2)  # steps of 1/g = u/4
    for n, d in enumerate_div_operands(p):
        rep.cases += 1
        t_approx = (2 * n * g + d) // (2 * d)  # q_approx = t_approx / g
        t_ref = n * g // d
        s = int(n >= d)  # a quotient of at least one keeps one fractional bit fewer
        # the encoding 2*bits + round of q truncated at lsb exponent s - p - 1
        trunc = t_ref >> s
        # (value - q) * d * 2**(p + 1 - s): >= 0 for round bit 1, <= 0 for 0
        above = ((trunc + 1) >> 1) * d - (n << (p + 1 - s))
        ok = (
            n * g < t_approx * (d + 1)
            and t_approx * d < (n + 1) * g
            and abs(t_approx * d - n * g) < d
            and (above >= 0 if trunc & 1 else above <= 0)
        )
        if not ok:
            rep.record(f"n={n},d={d}", "two-extra-bit claim", f"{t_approx}/{g}")
    return rep.done()


def test_criterion_3_division_bounds():
    t0 = time.perf_counter()
    reports = [sweep(p) for sweep in (verify.fixed_div_sweep, _two_extra_bit_claim) for p in (3, 4, 5)]
    _finish("3 division-bounds", reports, 1.0, t0)


def test_criterion_4_double_rounding():
    t0 = time.perf_counter()
    reports = [verify.double_rounding_sweep(12)]
    assert reports[0].cases == 638976  # 2**13 encodings x 78 pairs of grids
    _finish("4 double-rounding", reports, 0.6, t0)


def test_criterion_5_negation():
    t0 = time.perf_counter()
    reports = [
        verify.negation_sweep(12),
        verify.float_negate_sweep(RNF8),
        verify.float_negate_sweep(RNF16),
    ]
    _finish("5 negation", reports, 1.0, t0)


@functools.cache
def _rnf8_nearest_reports() -> tuple[VerifyReport, ...]:
    """The rnf8 nearest add, mul and div sweeps, run once for criteria 6
    and 8."""
    return tuple(verify.float_nearest_sweep(RNF8, op) for op in ("add", "mul", "div"))


def test_criterion_6_float_correct_rounding():
    t0 = time.perf_counter()
    reports = [*_rnf8_nearest_reports(), verify.far_shortcut_sweep(RNF8)]
    _finish("6 float-correct-rounding", reports, 0.6, t0)


def test_criterion_7_directed_roundings():
    t0 = time.perf_counter()
    reports = [verify.float_directed_sweep(RNF8, op) for op in ("add", "mul", "div")]
    _finish("7 directed-roundings", reports, 2.5, t0)


def test_criterion_8_round_bit_direction():
    """Every inexact nearest-mode nonzero result reports its rounding
    direction in the round bit: set means the result is above the exact
    value, clear means below.

    Read from criterion 6's rnf8 nearest reports, whose sweeps judge every
    pair with a finite exact value by ``rounding_fault``: each such case
    that breaks the direction clause is one recorded
    ``round-bit direction`` failure."""
    t0 = time.perf_counter()
    rep = VerifyReport("round-bit-direction", "format=rnf8")
    values, _ = verify._word_table(RNF8)
    finite = sum(v is not None for v in values)
    nonzero = sum(v not in (None, 0) for v in values)
    rep.cases = 2 * finite * finite + finite * nonzero  # add and mul pairs, div by a nonzero
    for nearest in _rnf8_nearest_reports():
        for inputs, want, got in nearest.failures:
            if want.split(" (")[0] == "round-bit direction":
                rep.record(f"{nearest.op} {inputs}", want, got)
    rep.done()
    _finish("8 round-bit-direction", [rep], 0.5, t0)


def test_criterion_9_format_bijection():
    t0 = time.perf_counter()
    reports = [verify.decode_sweep(RNF16)]
    _finish("9 format-bijection", reports, 3.0, t0)
