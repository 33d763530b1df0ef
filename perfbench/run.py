"""tailcast benchmark: one workload in one process.

    python3 perfbench/run.py --workload ingest-cycles --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; tailcast is imported from its ``src``. The
workload's inputs are generated from ``--seed``. Set-up (data generation
and a saved model) runs three times and ``setup_s`` is the median plus the
import time. Then passes over every stage (simulate, ingest, train, predict,
CLI predict, export) repeat for ``--seconds``; each end-to-end metric is the
median over passes of that pass's value (for single-snapshot latency, the
pass's percentile over its calls). End-to-end timings are scaled to the
host's reference speed (see ``stages.REFERENCE_S``); the unscaled medians
are printed on the ``#`` detail line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` passes alternate between tracing off and
on (a traced pass also wraps the layer modules' public functions, for
per-layer self time), and the last line holds the per-layer metrics; the
spans go to ``.perfbench-out/`` when the run ends. Scratch files live in a temporary
directory inside the checkout, removed at exit. Lines starting with ``#``
carry the run details: operations attempted and failed, pass count, and
the commit, Python, numpy and BLAS versions and CPU count.
"""

from __future__ import annotations

import os

# Fixed measurement conditions: one BLAS thread, set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MIN_PASSES = 3


def import_tailcast() -> float:
    """Import tailcast from this checkout's sources; returns the import time."""
    if not (SRC / "tailcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no tailcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tailcast

    elapsed = time.perf_counter() - t0
    if Path(tailcast.__file__).resolve().parent != (SRC / "tailcast").resolve():
        raise SystemExit(f"error: imported tailcast from {tailcast.__file__}, not {SRC}")
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailcast").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],  # identifies the code outside git
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_tailcast()
    import stages

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = stages.Tracer(run_id)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        bench = stages.Bench(stages.WORKLOADS[args.workload], args.seed, Path(tmp), tracer)
        setups, scaled = [], []
        before = stages.setup_reference_s()
        import_scaled = import_s * stages.REFERENCE_S / before
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            bench.setup()
            setups.append(time.perf_counter() - t0)
            after = stages.setup_reference_s()
            scaled.append(setups[-1] * stages.REFERENCE_S * 2.0 / (before + after))
            before = after

        deadline = time.perf_counter() + args.seconds
        passes = 0
        # A failed operation ends the run at the deadline even if fewer
        # single calls than needed for the p99 were made.
        while (passes < MIN_PASSES + args.trace or time.perf_counter() < deadline
               or (bench.single_attempted < stages.SINGLE_MIN_CALLS and not bench.ledger.failed)):
            # traced runs alternate off and on, so the two pass times compare
            if args.trace and passes % 2 == 1:
                tracer.enabled = True
                tracer.wrap_layers()
                try:
                    bench.run_pass()
                finally:
                    tracer.unwrap_layers()
                bench.probe_layers()
                tracer.enabled = False
            else:
                bench.run_pass()
            passes += 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = bench.per_layer() if args.trace else bench.end_to_end(
        import_scaled + statistics.median(scaled))
    ledger = bench.ledger
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"operation failed: no measurement of {missing}", file=sys.stderr)
        ledger.attempted += 1
        ledger.failed += 1

    single = sorted(bench.single_ms)
    p99 = stages.nearest_rank(single, 0.99)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "import_s": import_s, "setup_runs_s": setups,
        "unscaled_medians": {k: statistics.median(v) for k, v in bench.raw.items()},
        "single_calls": len(single),
        "single_calls_beyond_p99": sum(v > p99 for v in single),
        "ops_attempted": ledger.attempted, "ops_failed": ledger.failed,
        "failed_ops_ratio": ledger.failed / ledger.attempted,
        "env": environment(),
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{run_id}.json"
        trace_path.write_text(json.dumps({"detail": detail, "metrics": values,
                                          "spans": tracer.spans}) + "\n", encoding="utf-8")
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    print("# " + json.dumps(detail))
    for name, unit in units.items():
        print(f"# {name:40s} {values.get(name)!r:>24} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
