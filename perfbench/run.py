"""faultgan benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports faultgan from ``src/`` next to
this directory. ``--trace 0`` prints the end-to-end metrics of an untraced
pass. ``--trace 1`` runs the pass untraced and then traced, prints the
per-layer metrics, and writes the spans to ``perfbench/out/``. Both print a
readable table first and, as the last line, ``{"correct", "attempted",
"failed", "metrics"}``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

# One BLAS thread: on the 2-core reference machine two threads made the first
# epoch 2-7x slower and epoch times spread by +-12%, one thread by +-4%.
# Must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": threads,  # as OpenBLAS reports it; None if it cannot be asked
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "faultgan" / "__init__.py").is_file():
        print(f"faultgan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import tracing
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        untraced = run_pass(workload, args.seed, args.seconds, work_dir, tracing.NullTracer())
        passes = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = run_pass(workload, args.seed, args.seconds, work_dir, tracer)
            finally:
                tracer.restore()
            passes.append(traced)
            tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    if any(not p.eval_s for p in passes):
        print("no pass completed training; nothing to measure", file=sys.stderr)
        for msg in problems:
            print("  " + msg, file=sys.stderr)
        return 1

    if args.trace:
        metrics = layers.per_layer(tracer.spans, workload, traced, untraced)
        coverage = metrics["trace.coverage"][0]
        attempted += 1
        if coverage < layers.COVERAGE_FLOOR:
            failed += 1
            problems.append(f"spans cover {coverage:.3f} of each {workload.unit}, below {layers.COVERAGE_FLOOR}")
    else:
        metrics = untraced.end_to_end()

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_share':32s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} operations)")
        print(f"  samples: setup {len(untraced.setup_s)}, steps {len(untraced.step_ms)}, "
              f"requests {len(untraced.request_ms)}, evaluate {len(untraced.eval_s)}")
    for msg in problems:
        print("  FAILED: " + msg)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
