"""Operator-facing command line: simulate -> ingest -> train -> eval.

Every subcommand is deterministic given identical inputs and seed, and all
machine-readable artifacts go to files; stdout carries human summaries only.

Exit codes: 0 success, 2 input error, 3 empty result, 4 numerical failure,
5 artifact mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ParseError, SchemaError, TrainingError
from .fusion import (
    VARIANTS,
    export_embeddings,
    load_model,
    save_model,
    write_embeddings_csv,
)
from .simulator import load_scenario, run_scenario
from .statgraph import Topology, chronological_split, load_dataset, normalize_dataset, save_dataset
from .telemetry import (
    SeriesColumns,
    WindowSpec,
    build_snapshots,
    parse_exposition,
    read_latency_csv,
    write_latency_csv,
)
from .training import (
    TrainConfig,
    linear_regression,
    metrics,
    mlp_baseline,
    tail_metrics,
    train,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_NUMERIC = 4
EXIT_MISMATCH = 5


class EmptyResult(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcast",
        description="Window-level P95 latency prediction pipeline for microservice clusters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a cluster scenario and write telemetry")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("ingest", help="aggregate telemetry into a dataset file")
    p.add_argument("--telemetry", required=True,
                   help="directory holding *.prom scrape files and latency.csv")
    p.add_argument("--topology", required=True, help="topology JSON file")
    p.add_argument("--dataset", required=True, help="output dataset path")
    p.add_argument("--window-length", type=float, default=30.0)
    p.add_argument("--window-stride", type=float, default=5.0)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--report", default=None, help="optional ingestion report JSON path")

    p = sub.add_parser("train", help="train a model variant on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=32)

    p = sub.add_parser("baseline", help="fit a flat-feature baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kind", choices=("linear", "mlp"), default="linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")

    p = sub.add_parser("predict", help="predict P95 latency for snapshots")
    p.add_argument("--snapshots", required=True, help="dataset-format file (labels optional)")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("export-embedding", help="export fused system embeddings")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        if args.seed < 0:
            raise SchemaError(f"--seed must be >= 0, got {args.seed}")
        scenario.seed = args.seed
    result = run_scenario(scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "telemetry.prom").write_text(result.exposition_text, encoding="utf-8")
    write_latency_csv(out / "latency.csv", result.latency_records)
    (out / "topology.json").write_text(
        json.dumps(result.topology.to_dict()) + "\n", encoding="utf-8")
    print(f"simulated {scenario.duration_s:.0f}s of cluster time "
          f"({len(scenario.cluster.topology.services)} services, seed {scenario.seed})")
    print(f"requests: {result.arrivals_total} arrived, {result.completed_total} completed")
    print(f"saturated scrapes: {len(result.saturated_scrape_times)}")
    print(f"wrote telemetry.prom, latency.csv, topology.json to {out}")
    return EXIT_OK


def _label_stats_ms(labels: np.ndarray) -> dict:
    ms = labels * 1000.0
    q1, q2, q3 = np.percentile(ms, [25, 50, 75])
    return {
        "count": int(ms.size),
        "min_ms": float(ms.min()),
        "max_ms": float(ms.max()),
        "mean_ms": float(ms.mean()),
        "std_ms": float(ms.std()),
        "q1_ms": float(q1),
        "median_ms": float(q2),
        "q3_ms": float(q3),
    }


def cmd_ingest(args) -> int:
    tel_dir = Path(args.telemetry)
    prom_files = sorted(tel_dir.glob("*.prom"))
    if not prom_files:
        raise SchemaError(f"no *.prom files under {tel_dir}")
    latency_path = tel_dir / "latency.csv"
    if not latency_path.exists():
        raise SchemaError(f"missing latency sidecar {latency_path}")
    topology_path = Path(args.topology)
    try:  # a ValueError: the file is not UTF-8 or not JSON
        topology = Topology.from_dict(json.loads(topology_path.read_text(encoding="utf-8")))
    except (ValueError, SchemaError) as exc:
        raise SchemaError(f"{topology_path}: {exc}") from exc

    samples = SeriesColumns()  # series in order of first appearance across the files
    skipped = 0
    for path in prom_files:
        try:
            result = parse_exposition(path.read_text(encoding="utf-8"), strict=args.strict)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        samples.extend(result.samples)
        skipped += len(result.skipped)
    try:
        latency = read_latency_csv(latency_path)
    except ParseError as exc:
        raise ParseError(f"{latency_path}: {exc}") from exc

    spec = WindowSpec(length=args.window_length, stride=args.window_stride)
    dataset, stats = build_snapshots(samples, topology, spec, latency, strict=args.strict)
    stats.parse_skipped = skipped
    label_stats = _label_stats_ms(dataset.labels()) if dataset.snapshots else {"count": 0}
    # the report comes first: when nothing is built, its drop reasons say why
    if args.report:
        report = {**dataclasses.asdict(stats), "labels": label_stats}
        report["dropped_missing_by_series"] = dict(sorted(stats.dropped_missing_by_series.items()))
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if not dataset.snapshots:
        raise EmptyResult("no complete window could be built from the telemetry")
    save_dataset(dataset, args.dataset)

    print(f"windows: {stats.windows_total} total, {stats.windows_built} built, "
          f"{stats.dropped_no_label} without labels, {stats.dropped_missing_data} under-covered")
    if stats.parse_skipped:
        print(f"lenient parse skipped {stats.parse_skipped} malformed lines")
    print("label statistics (P95 latency, ms):")
    for key, value in label_stats.items():
        print(f"  {key:>10}: {value:.2f}" if isinstance(value, float) else f"  {key:>10}: {value}")
    print(f"wrote dataset with {len(dataset.snapshots)} snapshots to {args.dataset}")
    return EXIT_OK


def _write_report(out_dir: Path, report) -> None:
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    with open(out_dir / "epochs.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss,grad_norm_max\n")
        for rec in report.epochs:
            fh.write(f"{rec.epoch},{rec.train_loss!r},{rec.val_loss!r},{rec.grad_norm_max!r}\n")


def cmd_train(args) -> int:
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    dataset = load_dataset(args.dataset)
    report, trained = train(dataset, variant=args.variant, config=config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = out / "checkpoint.json"
    save_model(checkpoint, trained.model, trained.norm_stats)
    report.checkpoint_path = checkpoint.name
    _write_report(out, report)
    print(f"trained variant={args.variant} for {args.epochs} epochs "
          f"(best epoch {report.best_epoch}, wall clock {report.wall_clock_s:.1f}s)")
    print(f"test MAE {report.test_mae:.4f}s  RMSE {report.test_rmse:.4f}s  "
          f"MAPE {report.test_mape:.2f}%")
    print(f"wrote checkpoint.json, report.json, epochs.csv to {out}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    dataset = load_dataset(args.dataset)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "linear":
        report, _ = linear_regression(dataset)
    else:
        report, _ = mlp_baseline(
            dataset, config=TrainConfig(epochs=args.epochs, seed=args.seed))
    _write_report(out, report)
    print(f"baseline={args.kind}  test MAE {report.test_mae:.4f}s  "
          f"RMSE {report.test_rmse:.4f}s  MAPE {report.test_mape:.2f}%")
    return EXIT_OK


def _select_split(dataset, split: str):
    if split == "all":
        return dataset
    train_ds, val_ds, test_ds = chronological_split(dataset)
    return {"train": train_ds, "val": val_ds, "test": test_ds}[split]


def _load_for_inference(dataset_path, checkpoint_path):
    """The checkpoint's model and the dataset normalised with its stats.

    The dataset must be raw, nonempty and on the checkpoint's topology.
    """
    dataset = load_dataset(dataset_path)
    model, stats = load_model(checkpoint_path)
    if dataset.topology != model.topology:
        raise CheckpointError("dataset topology differs from the checkpoint's topology")
    if dataset.norm_stats is not None:
        raise CheckpointError("expected a raw dataset; this one is already normalized")
    if not dataset.snapshots:
        raise EmptyResult("the dataset has no snapshots")
    return model, normalize_dataset(dataset, stats)


def _finite(outputs: np.ndarray) -> np.ndarray:
    """The model's outputs, refused when one is not finite: parameters that
    are each finite can still overflow on the data (a weight of 1e308)."""
    if not np.isfinite(outputs).all():
        raise CheckpointError("the checkpoint's model gives non-finite outputs on this dataset")
    return outputs


def cmd_eval(args) -> int:
    model, normalized = _load_for_inference(args.dataset, args.checkpoint)
    snaps = list(_select_split(normalized, args.split).snapshots)
    preds = _finite(model.predict(snaps))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("window_start,y,y_hat\n")
        for snap, pred in zip(snaps, preds):
            y = "" if snap.label is None else repr(snap.label)
            fh.write(f"{snap.window_start!r},{y},{float(pred)!r}\n")
    labeled = [i for i, s in enumerate(snaps) if s.label is not None]
    if labeled:
        labels = np.asarray([snaps[i].label for i in labeled])
        m = metrics(preds[labeled], labels)
        (out / "metrics.json").write_text(json.dumps({
            "split": args.split, "count": len(labeled),
            "mae_s": m.mae, "rmse_s": m.rmse, "mape_pct": m.mape,
            **tail_metrics(preds[labeled], labels),
        }, indent=2) + "\n", encoding="utf-8")
        print(f"split={args.split} n={len(labeled)}  MAE {m.mae:.4f}s  "
              f"RMSE {m.rmse:.4f}s  MAPE {m.mape:.2f}%")
    print(f"wrote predictions.csv to {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, normalized = _load_for_inference(args.snapshots, args.checkpoint)
    for pred in _finite(model.predict(list(normalized.snapshots))):
        print(repr(float(pred)))
    return EXIT_OK


def cmd_export_embedding(args) -> int:
    model, normalized = _load_for_inference(args.dataset, args.checkpoint)
    embeddings = export_embeddings(list(normalized.snapshots), model)
    _finite(np.array([embedding.fused for embedding in embeddings]))
    write_embeddings_csv(args.out, embeddings)
    print(f"wrote {len(embeddings)} embeddings to {args.out}")
    return EXIT_OK


_HANDLERS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "export-embedding": cmd_export_embedding,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, SchemaError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EmptyResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
