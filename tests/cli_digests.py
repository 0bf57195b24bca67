"""Print a digest of every CLI call that the benchmark workloads make.

Runs one round of the operations of both workloads of ``perfbench/run.py``
at seeds 1-3, with the benchmark's inputs written to a temporary directory,
and prints one line per ``hamweyl.cli.main`` call: the workload, the seed,
the exit code, the SHA-256 of standard output and the argv, with input
paths relative to the temporary directory in both. Two checkouts that
print the same lines give every benchmarked CLI call the same bytes and
exit code.

Usage, from the repository root::

    python tests/cli_digests.py > digests.txt

Needs nothing beyond the package's own dependencies and leaves
``perfbench`` as it is; pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import warnings

    import run as bench  # perfbench/run.py; pins BLAS to one thread on import
    import tracing
    import workloads as wl

    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in bench.WORKLOADS:
            for seed in SEEDS:
                work = os.path.join(tmp, f"seed{seed}")
                stems = bench.files_for(workload)
                inputs = bench.gi.write_inputs(seed, work, stems)
                hw, cli, systems, extra, _ = bench.setup(
                    stems, work, tracing.Tracer(False), workload, seed)
                ctx = wl.Ctx(hw, cli, inputs, work, systems, tracing.Tracer(False), seed)
                calls = []

                def record(argv, ctx=ctx, calls=calls):
                    rc, text = wl.Ctx.cli_call(ctx, argv)
                    # validate names its input: digest the path as given
                    digest = hashlib.sha256(text.replace(tmp + os.sep, "").encode())
                    calls.append((rc, digest.hexdigest(),
                                  [a.replace(tmp + os.sep, "") for a in argv]))
                    return rc, text

                ctx.cli_call = record
                for op in bench.build_ops(workload, ctx, extra):
                    try:
                        op.run()
                    except Exception as e:  # a library operation's failure is no CLI call
                        print(f"{workload} {seed} {op.name}: {type(e).__name__}: {e}",
                              file=sys.stderr)
                for rc, digest, argv in calls:
                    print(workload, seed, rc, digest, " ".join(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
