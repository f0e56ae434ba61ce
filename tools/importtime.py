"""Import cost and CLI start-up of one or more checkouts.

    python3 tools/importtime.py [--runs N] <checkout> [<checkout> ...]

Runs ``N`` (default 15) fresh interpreters of each kind per checkout, with
``<checkout>/src`` on ``PYTHONPATH``, no user site (``-s``) and no other
``PYTHON*`` settings from outside.  Several checkouts take turns run by
run, so a host whose speed drifts slows them alike.  For each checkout it
prints the path and three lines:

- ``import_ms``: the median, over ``python -s -X importtime -c "import
  rnarith, rnarith.cli"``, of the self times summed over every module
  imported after ``site``, that is, what the package's import adds to
  start-up;
- ``loads``: those modules, in the order they finish importing;
- ``eval_ms``: the median wall time of a whole ``python -s -m rnarith eval
  "rnf8:0x30 + rnf8:0x01"`` process, start-up included.

Bytecode is cached under a temporary directory (``PYTHONPYCACHEPREFIX``),
filled by one uncounted run of each kind, so the figures time imports,
not compilation, and nothing in a checkout is written.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT = "import rnarith, rnarith.cli"
EVAL = ["eval", "rnf8:0x30 + rnf8:0x01"]


def _after_site(stderr: str) -> list[tuple[str, int]]:
    """``(module, self us)`` of each ``-X importtime`` line after the
    top-level ``site`` line."""
    rows, seen_site = [], False
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():  # the header
            continue
        if seen_site:
            rows.append((name.strip(), int(self_us)))
        elif name.rstrip() == " site":
            seen_site = True
    return rows


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="tools/importtime.py")
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("checkouts", nargs="+")
    args = ap.parse_args(argv)
    base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    with tempfile.TemporaryDirectory() as cache:
        envs = [{**base, "PYTHONPATH": str(Path(c).resolve() / "src"), "PYTHONHASHSEED": "0",
                 "PYTHONPYCACHEPREFIX": os.path.join(cache, str(i))} for i, c in enumerate(args.checkouts)]

        def run(env: dict, cmd: list[str]) -> subprocess.CompletedProcess:
            proc = subprocess.run([sys.executable, "-s", *cmd], capture_output=True, text=True, env=env, timeout=60)
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return proc

        for env in envs:
            run(env, ["-c", IMPORT])
            run(env, ["-m", "rnarith", *EVAL])
        imports = [[] for _ in envs]
        evals = [[] for _ in envs]
        for _ in range(max(args.runs, 1)):
            for env, rows, secs in zip(envs, imports, evals):
                rows.append(_after_site(run(env, ["-X", "importtime", "-c", IMPORT]).stderr))
                t0 = time.perf_counter()
                run(env, ["-m", "rnarith", *EVAL])
                secs.append(time.perf_counter() - t0)
    for checkout, rows, secs in zip(args.checkouts, imports, evals):
        print(checkout)
        print(f"import_ms {statistics.median(sum(us for _, us in r) for r in rows) / 1e3:.2f}"
              f" (median of {len(rows)}: {IMPORT})")
        print(f"loads {len(rows[-1])}: {' '.join(name for name, _ in rows[-1])}")
        print(f"eval_ms {statistics.median(secs) * 1e3:.1f}"
              f" (median of {len(secs)}: python -s -m rnarith {EVAL[0]} {EVAL[1]!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
