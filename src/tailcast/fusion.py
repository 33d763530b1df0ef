"""Embedding fusion and the end-to-end latency predictor.

The two stream embeddings are first enhanced with cross-attention context
from each other (with residual connections preserving the pure signals),
then projected into a shared rank-k space and combined multiplicatively.
Demand/capacity interactions are multiplicative, not additive: when
capacity is scarce, small demand increases blow up latency, and the
element-wise product lets the head see exactly that interaction.

Both rank-k factors start at unit bias, as ``GmlpBlock``'s spatial gate
does, so a fresh fused model starts as additive fusion plus the interaction.

Also hosts the ablation variants: single-stream routings, additive fusion,
and a graph-encoded resource stream.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import jsonfields
from . import tensor as T
from .encoders import (
    DROPOUT,
    MessageRouting,
    ResourceEncoder,
    SnapshotBatch,
    TrafficEncoder,
    collate_snapshots,
)
from .errors import CheckpointError, SchemaError
from .nn import MLP, Linear, Module, Predictor
from .statgraph import FEATURE_WIDTHS, NormStats, Snapshot, Topology
from .tensor import Tensor, load_checkpoint, load_params_into, save_checkpoint


class VariantSpec(NamedTuple):
    """How one model variant builds and combines its two streams."""

    demand: str | None    # "traffic" encoder, "merged" (traffic + resources), or none
    capacity: str | None  # "gmlp" resource encoder, "graph" encoder, or none
    combine: str          # "fusion", "sum", or the one stream it passes on


VARIANT_TABLE = {
    "full": VariantSpec("traffic", "gmlp", "fusion"),
    "traffic_only": VariantSpec("traffic", None, "demand"),
    "resource_only": VariantSpec(None, "gmlp", "capacity"),
    "simple_fused": VariantSpec("traffic", "gmlp", "sum"),
    "gnn_fused": VariantSpec("traffic", "graph", "fusion"),
    "single_stream": VariantSpec("merged", None, "demand"),
}
VARIANTS = tuple(VARIANT_TABLE)

# The fixed shape of the architecture. The input widths are the feature
# schema's.
D_NODE = FEATURE_WIDTHS["node"]
D_EDGE = FEATURE_WIDTHS["edge"]
D_RESOURCE = FEATURE_WIDTHS["resource"]
D_EMB = 16  # width of each stream embedding
NUM_HEADS = 4  # attention heads of each graph-attention layer
GMLP_EXPANSION = 4  # a gMLP block's hidden width over D_EMB
FUSION_TOKENS = 4  # tokens each embedding is cut into for cross-attention
FUSION_RANK = 4  # width of the two multiplied factors
FUSED_WIDTH = 16  # width of the fused embedding
HEAD_HIDDEN = 16  # hidden width of the prediction head
TRAFFIC_LAYERS = 4  # graph-transformer layers of each graph encoder
RESOURCE_BLOCKS = 4  # gMLP blocks of the resource encoder

# Fields older checkpoints carry in model_config, each with the one value it
# may hold there (reverse_messages is false: messages follow call direction;
# both streams drop out at the one encoder rate)
RETIRED_KEYS = {
    "d_node": D_NODE, "d_edge": D_EDGE, "d_resource": D_RESOURCE, "d_emb": D_EMB,
    "num_heads": NUM_HEADS, "gmlp_expansion": GMLP_EXPANSION, "fusion_tokens": FUSION_TOKENS,
    "fused_width": FUSED_WIDTH, "head_hidden": HEAD_HIDDEN, "dropout_traffic": DROPOUT,
    "dropout_resource": DROPOUT, "reverse_messages": False, "traffic_layers": TRAFFIC_LAYERS,
    "resource_blocks": RESOURCE_BLOCKS, "fusion_rank": FUSION_RANK,
}


@dataclass(frozen=True)
class ModelConfig:
    """What a caller sets: the variant. The shape is the constants above."""

    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config from its JSON form. A key of :data:`RETIRED_KEYS`,
        which older checkpoints carry, is accepted only as its value there,
        of the same JSON type."""
        d = dict(jsonfields.fields(d, RETIRED_KEYS.keys() | asdict(cls()), "model_config"))
        for key, constant in RETIRED_KEYS.items():
            jsonfields.fixed(d.pop(key, constant), constant, f"model_config.{key}")
        return cls(**d)


@dataclass
class SystemEmbedding:
    """The unified system embedding of one window: the head input."""

    window_start: float
    fused: np.ndarray


class CrossTokenAttention(Module):
    """Scaled dot-product attention between two tokenized embeddings.

    A pooled vector is reshaped into ``num_tokens`` tokens so the attention
    pattern is non-degenerate; with one token this collapses to returning
    the value projection of the context (kept reachable on purpose). The
    residual connection is the caller's responsibility.
    """

    def __init__(self, d_emb: int, num_tokens: int, rng: np.random.Generator):
        self.num_tokens = num_tokens
        self.d_token = d_emb // num_tokens
        self.d_emb = d_emb
        self.wq = Linear(self.d_token, self.d_token, rng)
        self.wk = Linear(self.d_token, self.d_token, rng)
        self.wv = Linear(self.d_token, self.d_token, rng)

    def __call__(self, q_emb: Tensor, kv_emb: Tensor) -> Tensor:
        """The attended values ``(B, d_emb)``; each query token weighs the
        context tokens by a softmax over them."""
        b = q_emb.shape[0]
        shape = (b, self.num_tokens, self.d_token)
        q = self.wq(T.reshape(q_emb, shape))
        k = self.wk(T.reshape(kv_emb, shape))
        v = self.wv(T.reshape(kv_emb, shape))
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(self.d_token))
        attn = T.softmax(scores, axis=-1)
        return T.reshape(T.matmul(attn, v), (b, self.d_emb))


class DemandCapacityFusion(Module):
    """Cross-attention enhancement followed by rank-k multiplicative fusion.

    The last layer of each factor projection starts with bias 1 instead of
    0, so each factor starts as ``1 + a`` and the product as
    ``1 + a_t + a_r + a_t * a_r``: the additive paths of ``simple_fused``
    are there from the first step, and the interaction rides on top. With
    zero-mean factors the product would hold the interaction alone and
    start at a multiplicative saddle. This is the unit-bias rule of the
    ``GmlpBlock`` spatial gate, and the constant 1 that low-rank
    multimodal fusion appends to each modality.
    """

    def __init__(self, d_emb: int, num_tokens: int, rank: int, fused_width: int,
                 rng: np.random.Generator):
        self.attend_demand = CrossTokenAttention(d_emb, num_tokens, rng)
        self.attend_capacity = CrossTokenAttention(d_emb, num_tokens, rng)
        self.project_demand = MLP([d_emb, d_emb, rank], rng)
        self.project_capacity = MLP([d_emb, d_emb, rank], rng)
        for project in (self.project_demand, self.project_capacity):
            project.layers[-1].b.data[:] = 1.0
        self.mix = MLP([rank, fused_width, fused_width], rng)

    def enhance(self, z_t: Tensor, z_r: Tensor) -> tuple[Tensor, Tensor]:
        zt_e = T.add(z_t, self.attend_demand(z_t, z_r))
        zr_e = T.add(z_r, self.attend_capacity(z_r, z_t))
        return zt_e, zr_e

    def factors(self, zt_e: Tensor, zr_e: Tensor) -> tuple[Tensor, Tensor]:
        return self.project_demand(zt_e), self.project_capacity(zr_e)

    def __call__(self, z_t: Tensor, z_r: Tensor) -> Tensor:
        """The fused embedding ``(B, fused_width)``."""
        f_t, f_r = self.factors(*self.enhance(z_t, z_r))
        return self.mix(T.mul(f_t, f_r))


class LatencyModel(Predictor):
    """End-to-end window-level P95 predictor over one topology.

    The head output passes through softplus, so predictions are strictly
    positive seconds and relative errors stay well-defined.
    """

    def __init__(self, config: ModelConfig, topology: Topology, seed=0):
        self.config = config
        self.topology = topology
        self.routing = MessageRouting.from_edges(topology.num_services, topology.edges)
        entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        streams = entropy.spawn(2)
        rng = np.random.default_rng(streams[0])
        self._dropout_rng = np.random.default_rng(streams[1])

        # one generator feeds every module in this fixed order: seeded runs
        # and checkpoints depend on it
        spec = VARIANT_TABLE[config.variant]
        d_node = D_NODE + (D_RESOURCE if spec.demand == "merged" else 0)
        self.traffic = None
        self.resource = None
        self.resource_graph = None
        self.fusion = None

        if spec.demand is not None:
            self.traffic = TrafficEncoder(
                num_layers=TRAFFIC_LAYERS, d_node=d_node, d_edge=D_EDGE, d_emb=D_EMB,
                num_heads=NUM_HEADS, rng=rng)
        if spec.capacity == "gmlp":
            self.resource = ResourceEncoder(
                num_blocks=RESOURCE_BLOCKS, d_resource=D_RESOURCE, d_emb=D_EMB,
                expansion=GMLP_EXPANSION, num_positions=topology.num_services, rng=rng)
        if spec.capacity == "graph":
            # the ablation that imposes the call graph on resource state
            self.resource_graph = TrafficEncoder(
                num_layers=TRAFFIC_LAYERS, d_node=D_RESOURCE, d_edge=D_EDGE, d_emb=D_EMB,
                num_heads=NUM_HEADS, rng=rng)
        if spec.combine == "fusion":
            self.fusion = DemandCapacityFusion(D_EMB, FUSION_TOKENS, FUSION_RANK, FUSED_WIDTH, rng)
            head_in = FUSED_WIDTH
        else:
            head_in = D_EMB
        self.head = MLP([head_in, HEAD_HIDDEN, 1], rng)

    # -- forward -----------------------------------------------------------

    def embed(self, batch: SnapshotBatch) -> Tensor:
        """The head input: the fused embedding, the sum of the two streams,
        or the one stream the variant passes on."""
        rng = self._dropout_rng if self.training else None
        spec = VARIANT_TABLE[self.config.variant]
        z_t = None
        z_r = None
        if spec.demand == "merged":
            merged = T.concat([batch.node_features, batch.resources], axis=2)
            z_t = self.traffic(replace(batch, node_features=merged), rng)
        elif spec.demand == "traffic":
            z_t = self.traffic(batch, rng)
        if spec.capacity == "gmlp":
            z_r = self.resource(batch.resources, rng)
        elif spec.capacity == "graph":
            zero_edges = Tensor(np.zeros_like(batch.edge_features.data))
            z_r = self.resource_graph(
                replace(batch, node_features=batch.resources, edge_features=zero_edges), rng)
        if spec.combine == "fusion":
            return self.fusion(z_t, z_r)
        if spec.combine == "sum":
            return T.add(z_t, z_r)
        return z_t if spec.combine == "demand" else z_r

    def forward(self, batch: SnapshotBatch) -> Tensor:
        """Predicted P95 latency in seconds, shape (B, 1)."""
        return T.softplus(self.head(self.embed(batch)))

    def forward_snapshots(self, snapshots: list[Snapshot]) -> Tensor:
        return self.forward(self.collate(snapshots))

    def collate(self, snapshots: list[Snapshot]) -> SnapshotBatch:
        return collate_snapshots(snapshots, self.routing)


def predict_latency(snapshot: Snapshot, model: LatencyModel) -> float:
    """Single-snapshot convenience wrapper; returns seconds (> 0)."""
    return float(model.predict([snapshot])[0])


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------


def save_model(path, model: LatencyModel, norm_stats: NormStats) -> None:
    """Persist parameters plus everything needed to rebuild the model:
    architecture config, topology, and the feature normalization stats."""
    meta = {
        "model_config": model.config.to_dict(),
        "topology": model.topology.to_dict(),
        "normalization": norm_stats.to_dict(),
    }
    save_checkpoint(path, model.parameters(), meta)


def load_model(path) -> tuple[LatencyModel, NormStats]:
    """Rebuild a saved model; every defect of the file is a :class:`CheckpointError`."""
    arrays, meta = load_checkpoint(path)
    try:
        config = ModelConfig.from_dict(meta["model_config"])
        topology = Topology.from_dict(meta["topology"])
        stats = NormStats.from_dict(meta["normalization"])
        model = LatencyModel(config, topology)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint meta missing {exc}") from exc
    except (SchemaError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint meta: {exc}") from exc
    load_params_into(model.parameters(), arrays)
    model.eval()
    return model, stats


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------


def export_embeddings(snapshots: list[Snapshot], model: LatencyModel) -> list[SystemEmbedding]:
    slices = model.infer(snapshots, lambda chunk: model.embed(model.collate(chunk)).data)
    rows = (row.copy() for fused in slices for row in fused)
    return [SystemEmbedding(snap.window_start, row) for snap, row in zip(snapshots, rows)]


def write_embeddings_csv(path, embeddings: list[SystemEmbedding]) -> None:
    """CSV export: window_start plus the fused embedding components."""
    if not embeddings:
        raise ValueError("nothing to export")
    width = len(embeddings[0].fused)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start"] + [f"z_f_{i:02d}" for i in range(width)])
        for emb in embeddings:
            writer.writerow([repr(float(emb.window_start))] + [repr(float(x)) for x in emb.fused])
