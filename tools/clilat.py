"""Per-kind latency of ``rnarith.cli.main`` on the cli-eval argvs.

    python3 tools/clilat.py <checkout> [<checkout>]

Reads ``rnarith`` and the cli-eval argvs (``CliEval(seed).items``, seeds
1-3) from each checkout, as ``tools/bitdump.py`` does. Every argv runs once
untimed, so lazy imports are ready, then ``ROUNDS`` timed times, the
checkouts taking turns. Prints the median per argv kind (a malformed argv's
kind is its text, hex masked) and which kinds make up each checkout's
slowest 1% of calls: the layer view of cli-eval's p99. Stdlib only; nothing
in a checkout is written.
"""

import importlib
import io
import re
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROUNDS = 15


def _call(main, argv) -> float:
    """Seconds that ``main(argv)`` takes, its output captured."""
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        main(list(argv))
    finally:
        t = time.perf_counter() - t
        sys.stdout, sys.stderr = saved
    return t


def _load(root: Path):
    """``cli.main``, the ``(kind, argv)`` pairs and the checkout's ``rnarith`` modules."""
    for name in [n for n in sys.modules if n.partition(".")[0] in ("rnarith", "workloads", "checks")]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    items = [(spec[0] if spec[0] != "malformed" else re.sub(r"0x[0-9a-f]+", "0x*", " ".join(argv)), argv)
             for seed in (1, 2, 3) for argv, spec in importlib.import_module("workloads").CliEval(seed).items]
    main = importlib.import_module("rnarith.cli").main
    del sys.path[:2]  # later imports come from the package's own path
    for _, argv in items:
        _call(main, argv)
    return main, items, {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "rnarith"}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/clilat.py <checkout> [<checkout>]", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    loaded = [_load(Path(a).resolve()) for a in argv]
    times = [[] for _ in loaded]  # (seconds, kind) per call, per checkout
    for r in range(ROUNDS):
        for k in sorted(range(len(loaded)), reverse=r % 2 == 1):
            cli_main, items, modules = loaded[k]
            sys.modules.update(modules)  # a lazy relative import finds this checkout's modules
            times[k] += [(_call(cli_main, args), kind) for kind, args in items]
    print(f"{'kind':<52}{'argvs':>6}" + "".join(f"{f'us[{k}]':>9}" for k in range(len(loaded))))
    for kind, n in sorted(Counter(kind for kind, _ in loaded[0][1]).items()):
        meds = (statistics.median(t for t, c in ts if c == kind) * 1e6 for ts in times)
        print(f"{kind[:51]:<52}{n:>6}" + "".join(f"{m:>9.1f}" for m in meds))
    for k, ts in enumerate(times):
        tail = sorted(ts)[-max(1, len(ts) // 100):]
        top = ", ".join(f"{kind} {n}" for kind, n in Counter(c for _, c in tail).most_common())
        print(f"[{k}] {argv[k]}: p99 {tail[0][0] * 1e6:.1f} us; slowest 1% ({len(tail)} calls): {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
