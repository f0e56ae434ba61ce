"""One workload in one fresh interpreter; prints one JSON object.

Run by ``run.py``; not meant to be called by hand.  Set-up time starts
before ``rnarith`` is imported and stops at the first timed op; the
benchmark's own modules are imported outside it.  The speed sampler runs
during set-up and timing, and never during the traced pass.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import speed  # noqa: E402

SAMPLER = speed.SpeedSampler()
T0 = time.perf_counter_ns()
SAMPLER.start()

import rnarith  # noqa: E402
import rnarith.cli  # noqa: E402

T_IMPORT = time.perf_counter_ns()
SPENT_IMPORT = SAMPLER.spent_ns

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

LATENCY_CAP = 1 << 20  # samples kept; a fixed buffer so memory does not grow with speed
STRETCH_NS = 50_000_000  # latency samples are rescaled by the speed over this much time


class Latencies:
    """Per-call latency samples (ns) in a buffer allocated before timing.

    ``clock`` reads perf_counter_ns minus the time spent sampling speed, so
    a sample taken inside a call is not charged to it.
    """

    def __init__(self, cap: int, sampler, scaled: bool) -> None:
        self.buf = array.array("d", bytes(8 * cap))
        self.weights: list[int] = []  # cases per sample, on the sweep workloads only
        self.cap = cap
        self.n = 0
        self.done = 0  # samples before this index are at reference speed
        self.marks: list[tuple[int, int]] = []  # (sample index, perf_counter_ns)
        self.clock = sampler.work_clock
        self.scale = sampler.scale if scaled else (lambda t_from, t_to, default=1.0: default)

    def add_weighted(self, ns: float, weight: int, t_from: int, t_to: int) -> None:
        """A sample standing for ``weight`` cases of the same mean latency,
        scaled by the speed over its own interval (perf_counter_ns)."""
        if self.n < self.cap:
            self.weights.append(weight)
            self.add(ns * self.scale(t_from, t_to))
            self.done = self.n

    def rescale(self, t_end: int, factor: float) -> None:
        """Scale the samples added since the last rescale, each stretch
        between marks by the speed over its own interval (``factor`` where
        no speed sample fell inside it)."""
        buf = self.buf
        marks = self.marks + [(self.n, t_end)]
        for (i0, t0), (i1, t1) in zip(marks, marks[1:]):
            mid = (t0 + t1) // 2  # at least STRETCH_NS around it, so it holds samples
            f = self.scale(min(t0, mid - STRETCH_NS // 2), max(t1, mid + STRETCH_NS // 2), factor)
            for i in range(max(i0, self.done), i1):
                buf[i] *= f
        self.done = self.n
        self.marks = [(self.n, t_end)]

    def add(self, ns: float) -> None:
        n = self.n
        if n < self.cap:
            self.buf[n] = ns
            self.n = n + 1
            if not n & 63:
                self.marks.append((n, time.perf_counter_ns()))

    def percentile(self, q: float) -> float:
        if self.weights:
            pairs = sorted(zip(self.buf[: self.n], self.weights))
            target, acc = q * sum(self.weights), 0
            for value, weight in pairs:
                acc += weight
                if acc >= target:
                    return value
        data = sorted(self.buf[: self.n])
        pos = q * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def timed_passes(wl, seconds: float, lat) -> tuple[int, list[float], list[float]]:
    """Closed loop of whole passes until ``seconds`` of pass time have run.

    Returns ops, each pass's ops per second as measured, and the same at
    reference interpreter speed; latency samples are rescaled to match.
    """
    wl.start()
    ops, busy, raw, rates = 0, 0.0, [], []
    while True:
        t_real = time.perf_counter_ns()
        lat.marks = [(lat.n, t_real)]
        t = lat.clock()
        n = wl.run_pass(lat)
        dt = (lat.clock() - t) / 1e9
        t_end = time.perf_counter_ns()
        factor = lat.scale(t_real, t_end)
        lat.rescale(t_end, factor)
        wl.after_pass()
        ops += n
        busy += dt
        raw.append(n / dt)
        rates.append(n / (dt * factor))
        if busy >= seconds:
            return ops, raw, rates


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true", help="minimal input size (smoke test)")
    ap.add_argument("--plant", action="store_true", help="flip one result's round bit before checking")
    ap.add_argument("--trace-out", default=None, help="file for the recorded spans")
    args = ap.parse_args()

    if os.path.dirname(os.path.abspath(rnarith.__file__)) != os.path.join(SRC, "rnarith"):
        print(f"rnarith was imported from {rnarith.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    spent_gen = SAMPLER.spent_ns
    t_gen = time.perf_counter_ns()
    wl = cls(args.seed, small=args.small)
    if args.trace:
        wl.restrict(wl.trace_items)
    wl.bind()
    t_end = time.perf_counter_ns()
    SAMPLER.stop()
    # import plus generation, without the benchmark's own imports in between
    setup_raw = (T_IMPORT - T0 - SPENT_IMPORT + t_end - t_gen - (SAMPLER.spent_ns - spent_gen)) / 1e9
    setup_s = setup_raw * SAMPLER.scale(T0, t_end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    lat = Latencies(LATENCY_CAP, SAMPLER, scaled=not args.trace)
    result = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s, "setup_raw_s": setup_raw}
    if not args.trace:
        SAMPLER.start()
        try:
            ops, raw, rates = timed_passes(wl, args.seconds, lat)
        finally:
            SAMPLER.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(
            ops=ops,
            passes=wl.passes,
            raw_ops_per_s=statistics.median(raw),
            ops_per_s=statistics.median(rates),
            latency_p50_us=lat.percentile(0.50) / 1e3,
            latency_p99_us=lat.percentile(0.99) / 1e3,
            latency_samples=lat.n,
            latency_cases=sum(lat.weights) if lat.weights else lat.n,
            peak_rss_mb=rss_mb,
        )
    else:
        # a warm-up pass gives the outputs every later pass must reproduce;
        # then untraced and traced passes alternate, so the overhead compares
        # passes run under the same conditions
        wl.start()
        ops = wl.run_pass(lat)
        wl.after_pass()
        rec = tracing.SpanRecorder()
        untraced, traced, traced_ops = [], [], 0
        t_stop = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < t_stop:
            t = time.perf_counter()
            n = wl.run_pass(lat)
            untraced.append(n / (time.perf_counter() - t))
            wl.after_pass()
            restore = tracing.install(rec)
            try:
                wl.bind()
                t = time.perf_counter()
                n = wl.run_pass(lat)
                traced.append(n / (time.perf_counter() - t))
            finally:
                restore()
                wl.bind()
            wl.after_pass()
            ops += 2 * n
            traced_ops += n
        layers = rec.metrics(traced_ops)
        layers["trace.untraced_ops_per_s"] = statistics.median(untraced)
        layers["trace.traced_ops_per_s"] = statistics.median(traced)
        layers["trace.overhead_ratio"] = 1 - layers["trace.traced_ops_per_s"] / layers["trace.untraced_ops_per_s"]
        result.update(ops=ops, passes=wl.passes, traced_ops=traced_ops,
                      spans=rec.total, layers=layers)
        if args.trace_out:
            rec.write(args.trace_out)

    if args.plant:
        wl.plant_fault()
    failed, reasons = wl.check()
    result.update(failed=failed, reasons=reasons, mix=wl.class_mix(), digest=wl.digest())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
