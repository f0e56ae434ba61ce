"""Bit-identity dump of the float layer of one checkout.

    python3 tools/bitdump.py <checkout>

Imports ``rnarith`` from ``<checkout>/src`` and the benchmark's operand
generator ``gen_pair`` and ``cli-eval`` workload ``CliEval`` from
``<checkout>/perfbench/workloads.py`` (read as it is), then prints three pairs of lines, a count of results and a sha256
over them.  The float layer (``results``, ``sha256``):

- the word and inexact flag of ``fadd_words``, ``fmul_words`` and
  ``fdiv_words`` in all five rounding modes, on every rnf8 pair and on
  20,000 seed-1 ``gen_pair`` pairs per rnf16, rnf32 and rnf64;
- the ``repr`` of the ``decode`` tuple ``(cls, sign, x, scale)`` and of
  ``value_of_float`` (the ``(n, 1, k)`` triple of a finite word, the
  ``FloatClass`` of another) and the ``float_negate`` word of every rnf8
  and rnf16 word.

The printers and the narrowing (``printed``, ``sha256``):

- the exit code, stdout and stderr of ``rnarith inspect`` on every rnf8
  and rnf16 word;
- the word and inexact flag of ``round_to_format`` of every finite rnf16
  value into rnf8, in all five rounding modes.

The command line (``cli``, ``sha256``): the exit code, stdout and stderr of
``rnarith.cli.main`` on every argv of the benchmark's ``cli-eval`` workload,
``workloads.CliEval(seed).items`` for seeds 1-3.

A change that keeps behaviour prints the same six lines on its parent's
checkout and on its own, each checkout run by its own copy of this tool,
since the tool calls the library's API and a change may reshape it.
Stdlib only; nothing in the checkout is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

PAIRS_PER_FORMAT = 20_000


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/bitdump.py <checkout>", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from rnarith import floatarith as fa
    from rnarith.cli import main as cli_main
    from rnarith.floatfmt import RNF8, RNF16, RNF32, RNF64, FloatClass, decode, float_negate, value_of_float

    ops = (fa.fadd_words, fa.fmul_words, fa.fdiv_words)
    modes = tuple(fa.RoundingMode)
    digest = hashlib.sha256()
    results = 0

    def dump(fmt, pairs):
        nonlocal results
        lines = []
        for a, b in pairs:
            for op in ops:
                for mode in modes:
                    word, inexact = op(fmt, a, b, mode)
                    lines.append(f"{word:x} {inexact:d}\n")
        results += len(lines)
        digest.update("".join(lines).encode())

    n8 = 1 << RNF8.total_bits
    dump(RNF8, ((a, b) for a in range(n8) for b in range(n8)))
    for fmt in (RNF16, RNF32, RNF64):
        rng = random.Random(1)
        dump(fmt, [workloads.gen_pair(rng, fmt) for _ in range(PAIRS_PER_FORMAT)])
    for fmt in (RNF8, RNF16):
        for w in range(1 << fmt.total_bits):
            line = f"{decode(fmt, w)!r} {value_of_float(fmt, w)!r} {float_negate(fmt, w):x}\n"
            digest.update(line.encode())
    print(f"results {results}")
    print(f"sha256 {digest.hexdigest()}")

    digest = hashlib.sha256()
    printed = 0
    for fmt in (RNF8, RNF16):
        for w in range(1 << fmt.total_bits):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["inspect", f"{fmt.name}:{w:#x}"])
            digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}\0".encode())
            printed += 1
    for w in range(1 << RNF16.total_bits):
        v = value_of_float(RNF16, w)
        if isinstance(v, FloatClass):
            continue
        for mode in modes:
            word, inexact = fa.round_to_format(v, RNF8, mode)
            digest.update(f"{word:x} {inexact:d}\n".encode())
            printed += 1
    print(f"printed {printed}")
    print(f"sha256 {digest.hexdigest()}")

    digest = hashlib.sha256()
    argvs = [argv for seed in (1, 2, 3) for argv, _ in workloads.CliEval(seed).items]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}\0".encode())
    print(f"cli {len(argvs)}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
