"""Window-level P95 latency prediction for microservice clusters.

The pipeline: a seeded queueing simulator emits telemetry, the ingestion
layer aggregates it into 30-second windowed snapshots, and a dual-stream
model (graph-attention traffic encoder + gated-MLP resource encoder, fused
multiplicatively) predicts each window's P95 end-to-end latency.
"""

__version__ = "0.1.0"

from .errors import (
    CheckpointError,
    ParseError,
    SchemaError,
    ShapeError,
    TailcastError,
    TrainingError,
)
from .fusion import LatencyModel, ModelConfig, predict_latency
from .simulator import ClusterSpec, IntensityProfile, preset_topologies, run_scenario
from .statgraph import Dataset, Snapshot, Topology, chronological_split, load_dataset, save_dataset
from .telemetry import WindowSpec, build_snapshots, parse_exposition, window_p95
from .tensor import Adam, Tape, Tensor
from .training import LossParams, TrainConfig, TrainReport, metrics, train

__all__ = [
    "Adam",
    "CheckpointError",
    "ClusterSpec",
    "Dataset",
    "IntensityProfile",
    "LatencyModel",
    "LossParams",
    "ModelConfig",
    "ParseError",
    "SchemaError",
    "ShapeError",
    "Snapshot",
    "TailcastError",
    "Tape",
    "Tensor",
    "Topology",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "WindowSpec",
    "build_snapshots",
    "chronological_split",
    "load_dataset",
    "metrics",
    "parse_exposition",
    "predict_latency",
    "preset_topologies",
    "run_scenario",
    "save_dataset",
    "train",
    "window_p95",
]
