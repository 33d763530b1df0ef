"""Run benchmark workloads, one process each, and summarise the results.

    python3 perfbench/all.py                          # every workload, seed 1
    python3 perfbench/all.py --seeds 1-10 --workloads serve-sockshop
    python3 perfbench/all.py --trace 1                # per-layer metrics

For each workload it prints every metric by name with its unit, the
operations attempted and failed, and, over several seeds, the median,
quartiles and spread (quartile distance as a share of the median) next to
the metric's bound from BENCHMARK.json; a spread above a third of the bound
is flagged with ``!``. ``--json`` also writes the summary and every run's
values to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        error = None if proc.returncode == 0 and lines else f"exit code {proc.returncode}"
        if error:
            sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired:
        error = f"no result within {RUN_TIMEOUT_S} s"
    if error:
        # a run without a result is one failed operation with no metrics
        print(f"{workload} seed {seed}: {error}", file=sys.stderr)
        return {"seed": seed, "detail": {"passes": 0, "single_calls": 0, "env": None},
                "result": {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}}
    result = json.loads(lines[-1])
    detail = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return {"seed": seed, "result": result, "detail": detail}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write the summary and run values here")
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for workload in args.workloads.split(","):
        mine = []
        for seed in parse_seeds(args.seeds):
            run = run_one(workload, seed, args.seconds, args.trace)
            res, det = run["result"], run["detail"]
            mine.append(run)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"ops_attempted={res['attempted']} ops_failed={res['failed']} "
                  f"failed_ops_ratio={res['failed'] / res['attempted']:.4g} "
                  f"passes={det['passes']} single_calls={det['single_calls']}", flush=True)

        print(f"\n== {workload}: {len(mine)} run(s)")
        print(f"  {'metric':40s} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  unit")
        summary[workload] = {"env": mine[0]["detail"]["env"], "runs": [
            {"seed": r["seed"], "correct": r["result"]["correct"],
             "ops_attempted": r["result"]["attempted"], "ops_failed": r["result"]["failed"],
             "passes": r["detail"]["passes"]} for r in mine], "metrics": {}}
        for m in metrics:
            values = [r["result"]["metrics"].get(m["name"], {}).get("value") for r in mine]
            measured = [v for v in values if v is not None]
            if not measured:
                print(f"  {m['name']:40s} {'not measured':>14}")
                continue
            med, q1, q3, rel = spread(measured)
            bound = m.get("bound")
            flag = " !" if bound is not None and rel > bound / 3 else ""
            print(f"  {m['name']:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.3f} "
                  f"{'' if bound is None else bound:>6}  {m['unit']}{flag}")
            summary[workload]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": rel,
                "values": values}
        print(flush=True)

    if args.json:
        Path(args.json).write_text(json.dumps({
            "seconds": args.seconds, "trace": args.trace, "seeds": parse_seeds(args.seeds),
            "workloads": summary}, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for w in summary.values() for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
