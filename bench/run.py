#!/usr/bin/env python3
"""Run one balancekit benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 0 --seconds 55 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  See ``bench/README.md``.
"""

import os

# One BLAS thread, fixed before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# The CLI would let this variable override the seeds the workload chose.
os.environ.pop("BALANCEKIT_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    if not (SRC / "balancekit" / "__init__.py").is_file():
        print(f"error: no balancekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy as np

    import balancekit

    if not Path(balancekit.__file__).resolve().is_relative_to(SRC):
        print(f"error: balancekit was imported from {balancekit.__file__}", file=sys.stderr)
        return 2

    import harness
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}.jsonl"
            values, plain, phase = harness.traced(workload_cls, args.seed, workdir, args.seconds, spans_path)
            phases = (plain, phase)
            metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in layers.PER_LAYER}
            notes = [f"tracing overhead {values['trace.overhead']:+.3f} (untraced/traced ops per second - 1)",
                     f"spans written to {spans_path}"]
        else:
            setup_s, phase = harness.timed_run(workload_cls, args.seed, workdir, args.seconds)
            phases = (phase,)
            values, notes = harness.end_to_end(setup_s, phase)
            metrics = {name: {"value": v, "unit": harness.END_TO_END_UNITS[name]} for name, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {sys.version.split()[0]}  numpy {np.__version__}  nproc {os.cpu_count()}  "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    for note in notes:
        print(note)
    for reason, count in sorted(sum((p.reasons for p in phases), Counter()).items()):
        print(f"failed x{count}: {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
