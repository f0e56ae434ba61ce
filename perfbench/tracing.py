"""Span recorder for the traced run, installed from the benchmark's side.

Each boundary is a public function (or a class constructor, through its
``__init__``) of an ``rnarith`` module.  ``install`` wraps it in every
``rnarith`` module namespace that binds it, and in module-level dicts that
hold it (``verify``'s op table), so calls between modules are seen.  A span
is (boundary, start, end, parent).  Self time is a span's duration minus the
time its direct children cover; it is accumulated as spans close, so the
aggregates cover every span while only the first ``keep`` spans are stored
to be written out.
"""

from __future__ import annotations

import json
import sys
import time

BOUNDARIES = (
    ("core", "RnFixed", "init"),
    ("core", "DyadicRational", "init"),
    ("core", "truncate_at", "call"),
    ("core", "negate", "call"),
    ("core", "parse_literal", "call"),
    ("core", "format_literal", "call"),
    ("fixed", "add", "call"),
    ("fixed", "add_alt", "call"),
    ("fixed", "sub", "call"),
    ("fixed", "mul", "call"),
    ("fixed", "div", "call"),
    ("fixed", "shift_left", "call"),
    ("floatfmt", "RnFloat", "init"),
    ("floatfmt", "unpack", "call"),
    ("floatfmt", "pack", "call"),
    ("floatfmt", "value_of_float", "call"),
    ("floatfmt", "float_negate", "call"),
    ("floatfmt", "parse_float_literal", "call"),
    ("floatfmt", "format_hex_literal", "call"),
    ("floatarith", "fadd_with_sticky", "floatop"),
    ("floatarith", "fmul_with_sticky", "floatop"),
    ("floatarith", "fdiv_with_sticky", "floatop"),
    ("floatarith", "round_to_format", "call"),
    ("verify", "float_value", "call"),
    ("verify", "float_ulp", "call"),
    ("verify", "representable", "call"),
    ("verify", "_div_reference", "call"),
    ("verify", "float_nearest_sweep", "call"),
    ("verify", "float_directed_sweep", "call"),
    ("verify", "fixed_add_sweep", "call"),
    ("verify", "fixed_mul_sweep", "call"),
    ("verify", "fixed_mul_sign_sweep", "call"),
    ("verify", "fixed_div_sweep", "call"),
    ("verify", "double_rounding_sweep", "call"),
    ("verify", "negation_sweep", "call"),
    ("oracle", "enumerate_fixed", "gen"),
    ("oracle", "enumerate_format", "gen"),
    ("oracle", "enumerate_div_operands", "gen"),
    ("oracle", "check_inclusion", "call"),
    ("cli", "main", "main"),
)

NAMES = tuple(f"{mod}.{name}" for mod, name, _ in BOUNDARIES)
RATIOS = (
    ("floatarith.arith_path_ratio", "ratio", "higher"),
    ("floatarith.inexact_ratio", "ratio", "lower"),
    ("cli.main.exit2_ratio", "ratio", "lower"),
)
OVERHEAD = (
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run reports, in order."""
    out = []
    for name in NAMES:
        out.append({"name": f"{name}.calls_per_op", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_us_per_op", "unit": "us", "better": "lower"})
    for name, unit, better in RATIOS + OVERHEAD:
        out.append({"name": name, "unit": unit, "better": better})
    return out


class SpanRecorder:
    def __init__(self, keep: int = 100_000) -> None:
        n = len(BOUNDARIES)
        self.keep = keep
        self.spans: list = []  # (boundary, start_ns, end_ns, parent index)
        self.total = 0
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.stack: list = []  # frames: [boundary, start, child_ns, span index, fixed child]
        self.fixed_ids = frozenset(i for i, b in enumerate(BOUNDARIES) if b[0] == "fixed")
        self.float_ops = 0
        self.float_ops_fixed = 0
        self.inexact = 0
        self.main_calls = 0
        self.exit2 = 0

    def enter(self, bid: int, count: bool = True) -> list:
        stack = self.stack
        if count:
            self.calls[bid] += 1
        parent = stack[-1] if stack else None
        if parent is not None and bid in self.fixed_ids:
            parent[4] = True
        idx = -1
        if len(self.spans) < self.keep:
            idx = len(self.spans)
            self.spans.append(None)
        frame = [bid, 0, 0, idx, False]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def exit(self) -> None:
        end = time.perf_counter_ns()
        frame = self.stack.pop()
        bid, start, child, idx, _ = frame
        dur = end - start
        self.self_ns[bid] += dur - child
        self.total += 1
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            parent = self.stack[-1][3] if self.stack else -1
            self.spans[idx] = (bid, start, end, parent)

    def wrap(self, fn, bid: int, kind: str):
        enter, exit_ = self.enter, self.exit
        rec = self

        if kind == "gen":
            def spans_per_item(gen):
                while True:
                    enter(bid, False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item

            def traced(*args, **kwargs):
                enter(bid)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    exit_()
                return spans_per_item(gen)
        elif kind == "floatop":
            def traced(*args, **kwargs):
                frame = enter(bid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_()
                rec.float_ops += 1
                rec.float_ops_fixed += frame[4]
                rec.inexact += out[1].nonzero
                return out
        elif kind == "main":
            def traced(*args, **kwargs):
                enter(bid)
                code = None
                try:
                    code = fn(*args, **kwargs)
                    return code
                except SystemExit as exc:
                    code = exc.code
                    raise
                finally:
                    exit_()
                    rec.main_calls += 1
                    rec.exit2 += code == 2
        else:
            def traced(*args, **kwargs):
                enter(bid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        traced.__wrapped__ = fn
        return traced

    def metrics(self, ops: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for bid, name in enumerate(NAMES):
            out[f"{name}.calls_per_op"] = self.calls[bid] / ops
            out[f"{name}.self_us_per_op"] = self.self_ns[bid] / ops / 1e3
        out["floatarith.arith_path_ratio"] = self.float_ops_fixed / self.float_ops if self.float_ops else 0.0
        out["floatarith.inexact_ratio"] = self.inexact / self.float_ops if self.float_ops else 0.0
        out["cli.main.exit2_ratio"] = self.exit2 / self.main_calls if self.main_calls else 0.0
        return out

    def write(self, path) -> None:
        """Boundary names on the first line, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": NAMES, "spans": self.total, "stored": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(rec: SpanRecorder):
    """Wrap every boundary; returns a function that restores the originals."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rnarith" or name.startswith("rnarith."))]
    undo = []
    for bid, (mod, name, kind) in enumerate(BOUNDARIES):
        orig = getattr(sys.modules[f"rnarith.{mod}"], name)
        if kind == "init":
            init = orig.__init__
            orig.__init__ = rec.wrap(init, bid, "call")
            undo.append((orig, "__init__", init))
            continue
        traced = rec.wrap(orig, bid, kind)
        for m in mods:
            ns = vars(m)
            for key, val in list(ns.items()):
                if val is orig:
                    ns[key] = traced
                    undo.append((ns, key, orig))
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = traced
                            undo.append((val, k2, v2))
                        elif isinstance(v2, tuple) and orig in v2:
                            val[k2] = tuple(traced if x is orig else x for x in v2)
                            undo.append((val, k2, v2))

    def restore() -> None:
        for target, key, val in reversed(undo):
            if isinstance(target, dict):
                target[key] = val
            else:
                setattr(target, key, val)

    return restore
