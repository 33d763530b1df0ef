"""The two stream encoders.

Traffic side: a stack of transformer-style graph convolution layers whose
attention keys/values are augmented with projected edge features, followed
by attention pooling into a single embedding. Resource side: a stack of
gated-MLP blocks whose spatial gate mixes information across service
positions, followed by mean pooling. Both emit a ``d_emb`` vector per
snapshot and work batch-major: node tensors are ``(B, |V|, d)`` and edge
tensors ``(B, |E|, d_e)``, and since every snapshot shares one static
topology, the message routing is built once per model.

The modules own the parameters, under stable checkpoint names; each graph
layer and each gMLP block runs as the one fused op
:func:`~tailcast.tensor.graph_attention_layer` or
:func:`~tailcast.tensor.gmlp_block`. A block handed a dropout generator
draws one mask at rate :data:`DROPOUT` first; one handed none draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .nn import LayerNorm, Linear, Module, parameter
from .statgraph import Snapshot
from .tensor import Tensor

DROPOUT = 0.1  # dropout rate of every graph-attention layer and gMLP block


class MessageRouting:
    """Where messages flow over one static topology; built once per model.

    Message ``m`` goes from node ``src[m]`` to node ``dst[m]``. The one-hot
    ``(|V|, M)`` incidence matrices turn a sum of message rows into their
    source or destination node into one matmul. ``in_messages`` lists each
    node's in-messages, padded with ``M``.
    """

    def __init__(self, num_nodes: int, src, dst, num_self_loops: int):
        self.src = np.asarray(src, dtype=np.intp)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.num_self_loops = num_self_loops
        nodes = np.arange(num_nodes)[:, None]
        self.src_incidence = (nodes == self.src).astype(np.float64)
        self.dst_incidence = (nodes == self.dst).astype(np.float64)
        in_degree = np.bincount(self.dst, minlength=num_nodes)
        self.in_messages = np.full((num_nodes, in_degree.max(initial=0)), len(self.dst))
        for node in range(num_nodes):
            self.in_messages[node, :in_degree[node]] = np.flatnonzero(self.dst == node)

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "MessageRouting":
        """The edges, in edge order, then one self loop for each node without
        in-edges, so every node receives an update. Messages follow call
        direction (caller -> callee)."""
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        loops = np.setdiff1d(np.arange(num_nodes), dst)
        return cls(num_nodes, np.concatenate([src, loops]), np.concatenate([dst, loops]),
                   len(loops))


@dataclass
class SnapshotBatch:
    """A batch of snapshots over one topology, stacked batch-major."""

    node_features: Tensor        # (B, |V|, d_n)
    edge_features: Tensor        # (B, |E|, d_e)
    routing: MessageRouting
    resources: Tensor            # (B, |V|, d_r)


def collate_snapshots(snapshots: list[Snapshot], routing: MessageRouting) -> SnapshotBatch:
    """Stack snapshots along a new leading batch axis."""
    if not snapshots:
        raise ValueError("cannot collate an empty snapshot list")
    return SnapshotBatch(
        node_features=Tensor(np.stack([s.node_features for s in snapshots])),
        edge_features=Tensor(np.stack([s.edge_features for s in snapshots])),
        routing=routing,
        resources=Tensor(np.stack([s.resource_features for s in snapshots])),
    )


class GraphTransformerLayer(Module):
    """Multi-head attention over in-neighbors with additive edge features.

    Per head: alpha_ij = softmax_j <W_q h_i, W_k h_j + W_e e_ji> / sqrt(d_head)
    over incoming messages j -> i, output sum_j alpha_ij (W_v h_j + W_e' e_ji);
    heads are concatenated, then residual + layer norm. Nodes with no
    incoming messages attend to themselves through a learned virtual edge
    feature so every node receives an update.
    """

    def __init__(self, d_emb: int, d_edge: int, num_heads: int, rng: np.random.Generator):
        self.num_heads = num_heads
        self.d_emb = d_emb
        self.wq = Linear(d_emb, d_emb, rng)
        self.wk = Linear(d_emb, d_emb, rng)
        self.wv = Linear(d_emb, d_emb, rng)
        self.we_key = Linear(d_edge, d_emb, rng)
        self.we_val = Linear(d_edge, d_emb, rng)
        self.self_edge = parameter(rng.normal(0.0, 0.1, size=(1, d_edge)))
        self.norm = LayerNorm(d_emb)

    def __call__(self, h: Tensor, edge_features: Tensor, routing: MessageRouting,
                 rng: np.random.Generator | None = None) -> Tensor:
        """``h`` is ``(B, |V|, d_emb)``, ``edge_features`` ``(B, |E|, d_edge)``."""
        if h.shape[-1] != self.d_emb:
            raise ShapeError(f"node embedding width {h.shape[-1]} != layer width {self.d_emb}")
        mask = T.dropout_mask(DROPOUT, rng, h.shape)
        params = (self.wq.w, self.wq.b, self.wk.w, self.wk.b, self.wv.w, self.wv.b,
                  self.we_key.w, self.we_key.b, self.we_val.w, self.we_val.b,
                  self.self_edge, self.norm.gain, self.norm.bias)
        return T.graph_attention_layer(h, edge_features, params, routing, self.num_heads, mask)


class AttentionPool(Module):
    """Score-weighted graph readout: a = softmax over nodes of w2 . tanh(W1 h_i)."""

    def __init__(self, d_emb: int, rng: np.random.Generator):
        self.w1 = Linear(d_emb, d_emb, rng)
        self.w2 = Linear(d_emb, 1, rng, bias=False)

    def __call__(self, h: Tensor) -> Tensor:
        """``(B, |V|, d)`` node embeddings to ``(B, d)``."""
        return T.tsum(T.mul(h, self.weights(h)), axis=1)

    def weights(self, h: Tensor) -> Tensor:
        return T.softmax(self.w2(T.tanh(self.w1(h))), axis=1)     # (B, |V|, 1)


class TrafficEncoder(Module):
    """Input projection, stacked graph attention layers, attention pooling."""

    def __init__(self, *, num_layers: int, d_node: int, d_edge: int, d_emb: int,
                 num_heads: int, rng: np.random.Generator):
        if d_emb % num_heads != 0:
            raise ValueError(f"d_emb={d_emb} not divisible by num_heads={num_heads}")
        self.input_proj = Linear(d_node, d_emb, rng)
        self.layers = [
            GraphTransformerLayer(d_emb, d_edge, num_heads, rng)
            for _ in range(num_layers)
        ]
        self.pool = AttentionPool(d_emb, rng)

    def __call__(self, batch: SnapshotBatch, rng: np.random.Generator | None = None) -> Tensor:
        h = self.input_proj(batch.node_features)
        for layer in self.layers:
            h = layer(h, batch.edge_features, batch.routing, rng)
        return self.pool(h)


class GmlpBlock(Module):
    """Gated MLP block with a spatial gating unit across service positions.

    The channel projection is split in half; the second half is normalized
    and mixed across positions by a learned (|V| x |V|) map initialized near
    zero with unit bias, so a fresh block starts as a plain residual MLP.
    """

    def __init__(self, d_model: int, d_ffn: int, num_positions: int, rng: np.random.Generator):
        if d_ffn % 2 != 0:
            raise ValueError(f"d_ffn must be even, got {d_ffn}")
        self.norm_in = LayerNorm(d_model)
        self.proj_in = Linear(d_model, d_ffn, rng)
        self.gate_norm = LayerNorm(d_ffn // 2)
        self.w_spatial = parameter(np.zeros((num_positions, num_positions)))
        self.b_spatial = parameter(np.ones(num_positions))
        self.proj_out = Linear(d_ffn // 2, d_model, rng)

    def __call__(self, z: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        mask = T.dropout_mask(DROPOUT, rng, z.shape)
        params = (self.norm_in.gain, self.norm_in.bias, self.proj_in.w, self.proj_in.b,
                  self.gate_norm.gain, self.gate_norm.bias, self.w_spatial, self.b_spatial,
                  self.proj_out.w, self.proj_out.b)
        return T.gmlp_block(z, params, mask)


class ResourceEncoder(Module):
    """Position-sensitive encoder of per-service resource state.

    Deliberately not graph-aware: any cross-service coupling is learned by
    the spatial gates, not imposed by the call topology. Output is the mean
    over service positions projected to the embedding width.
    """

    def __init__(self, *, num_blocks: int, d_resource: int, d_emb: int, expansion: int,
                 num_positions: int, rng: np.random.Generator):
        """``num_positions`` is the number of service positions |V|; it is
        part of the data contract."""
        if num_positions < 1:
            raise ValueError("num_positions must be >= 1")
        self.num_positions = num_positions
        self.input_proj = Linear(d_resource, d_emb, rng)
        self.blocks = [
            GmlpBlock(d_emb, expansion * d_emb, num_positions, rng)
            for _ in range(num_blocks)
        ]
        self.output_proj = Linear(d_emb, d_emb, rng)

    def __call__(self, resources: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        if resources.shape[1] != self.num_positions:
            raise ShapeError(
                f"got {resources.shape[1]} service positions, encoder expects {self.num_positions}")
        z = self.input_proj(resources)
        for block in self.blocks:
            z = block(z, rng)
        return self.output_proj(T.tmean(z, axis=1))
