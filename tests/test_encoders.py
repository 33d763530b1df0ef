"""Graph attention vs dense oracle, pooling, gMLP behavior, gradient checks."""

import numpy as np
import pytest

from oracles import (
    assert_gradients_match,
    composed_gmlp_block,
    composed_graph_layer,
    dense_graph_attention,
    edge_attention,
    slice_axis,
)

from tailcast import tensor as T
from tailcast.encoders import (
    AttentionPool,
    GmlpBlock,
    GraphTransformerLayer,
    MessageRouting,
    ResourceEncoder,
    TrafficEncoder,
    collate_snapshots,
)
from tailcast.fusion import ModelConfig
from tailcast.simulator import preset_topologies
from tailcast.statgraph import Snapshot, Topology
from tailcast.tensor import Tensor


def random_graph(rng, max_nodes=6):
    n = int(rng.integers(2, max_nodes + 1))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    m = int(rng.integers(0, len(pairs) + 1))
    return n, pairs[:m]


def layer_weights(layer):
    return {
        "wq": layer.wq.w.data, "wq_b": layer.wq.b.data,
        "wk": layer.wk.w.data, "wk_b": layer.wk.b.data,
        "wv": layer.wv.w.data, "wv_b": layer.wv.b.data,
        "we_k": layer.we_key.w.data, "we_k_b": layer.we_key.b.data,
        "we_v": layer.we_val.w.data, "we_v_b": layer.we_val.b.data,
        "norm_gain": layer.norm.gain.data, "norm_bias": layer.norm.bias.data,
    }


def run_layer(layer, h, edge_feats, edges, n):
    """One graph through the batch-major layer: returns (|V|, d) output, iso."""
    dst = np.asarray([e[1] for e in edges], dtype=np.intp)
    in_deg = np.zeros(n, dtype=np.intp)
    np.add.at(in_deg, dst, 1)
    iso = np.flatnonzero(in_deg == 0)
    routing = MessageRouting.from_edges(n, edges)
    return layer(Tensor(h[None]), Tensor(edge_feats[None]), routing).data[0], iso


def routing_for(topo):
    return MessageRouting.from_edges(topo.num_services, topo.edges)


def traffic_encoder(rng, **sizes):
    """A traffic encoder with ``ModelConfig``'s default sizes unless overridden."""
    c = ModelConfig()
    return TrafficEncoder(**{"num_layers": c.traffic_layers, "d_node": c.d_node,
                             "d_edge": c.d_edge, "d_emb": c.d_emb, "num_heads": c.num_heads,
                             "dropout": c.dropout_traffic, **sizes}, rng=rng)


def resource_encoder(rng, num_positions, **sizes):
    """A resource encoder with ``ModelConfig``'s default sizes unless overridden."""
    c = ModelConfig()
    return ResourceEncoder(**{"num_blocks": c.resource_blocks, "d_resource": c.d_resource,
                              "d_emb": c.d_emb, "expansion": c.gmlp_expansion,
                              "dropout": c.dropout_resource, **sizes},
                           num_positions=num_positions, rng=rng)


class TestSegmentSoftmax:
    """The softmax over each node's in-messages inside ``edge_attention``."""

    @staticmethod
    def weights(scores, dst, n):
        # one head of width m: all-ones queries, keys scaled so message j
        # scores scores[j], and one-hot values, so row i of the output is
        # the weight node i puts on each message
        m = len(dst)
        routing = MessageRouting(n, np.zeros(m, dtype=np.intp), dst)
        key = np.tile(np.asarray(scores, dtype=float)[:, None] / np.sqrt(m), (1, m))
        out = edge_attention(Tensor(np.ones((1, n, m))), Tensor(key[None]),
                               Tensor(np.eye(m)[None]), routing, 1)
        return out.data[0]

    def test_singleton_segment_weight_one(self):
        out = self.weights([3.7], np.array([0]), 1)
        assert out.tolist() == [[1.0]]

    def test_equal_scores_split_evenly(self):
        out = self.weights([1.0, 1.0], np.array([0, 0]), 1)
        assert np.allclose(out, 0.5, atol=0)

    def test_large_scores_do_not_overflow(self):
        out = self.weights([1000.0, 0.0, -1000.0, -1001.0], np.array([0, 0, 1, 1]), 2)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1 / (1 + np.exp(-1.0)),
                                                       1 / (1 + np.exp(1.0))]], atol=1e-12)

    def test_probability_vector_per_segment(self):
        rng = np.random.default_rng(0)
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = self.weights(rng.normal(size=6) * 5.0, seg, 3)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(out > 0, (seg[None, :] == np.arange(3)[:, None]))


class TestGraphTransformerLayer:
    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            n, edges = random_graph(rng)
            d_emb, d_edge, heads = 8, 3, 2
            layer = GraphTransformerLayer(d_emb, d_edge, heads, 0.0, rng)
            layer.eval()
            h = rng.normal(size=(n, d_emb))
            efeat = rng.normal(size=(len(edges), d_edge))
            out, iso = run_layer(layer, h, efeat, edges, n)
            expected = dense_graph_attention(
                h, efeat, edges, iso, layer.self_edge.data,
                layer_weights(layer), heads)
            assert np.max(np.abs(out - expected)) < 1e-10, f"trial {trial}"

    def test_single_in_neighbor_attention_weight_one(self):
        # with one incoming message, the update must equal the case where the
        # node's attention puts weight 1 on that message
        rng = np.random.default_rng(5)
        layer = GraphTransformerLayer(8, 3, 2, 0.0, rng)
        layer.eval()
        h = rng.normal(size=(2, 8))
        e = rng.normal(size=(1, 3))
        out, _ = run_layer(layer, h, e, [(0, 1)], 2)
        w = layer_weights(layer)
        val = h[0] @ w["wv"] + w["wv_b"] + (e[0] @ w["we_v"] + w["we_v_b"])
        pre = h[1] + val
        mu, var = pre.mean(), ((pre - pre.mean()) ** 2).mean()
        expected = (pre - mu) / np.sqrt(var + 1e-5) * w["norm_gain"] + w["norm_bias"]
        assert np.allclose(out[1], expected, atol=1e-12)

    def test_identical_keys_split_half_half(self):
        # two in-neighbors with identical keys and edge features -> 0.5/0.5
        rng = np.random.default_rng(6)
        layer = GraphTransformerLayer(8, 3, 2, 0.0, rng)
        layer.eval()
        h = rng.normal(size=(3, 8))
        h[1] = h[0]  # same source embedding -> same keys and values
        e = np.tile(rng.normal(size=(1, 3)), (2, 1))
        out, _ = run_layer(layer, h, e, [(0, 2), (1, 2)], 3)
        w = layer_weights(layer)
        val = h[0] @ w["wv"] + w["wv_b"] + (e[0] @ w["we_v"] + w["we_v_b"])
        pre = h[2] + val  # 0.5 * v + 0.5 * v = v
        mu, var = pre.mean(), ((pre - pre.mean()) ** 2).mean()
        expected = (pre - mu) / np.sqrt(var + 1e-5) * w["norm_gain"] + w["norm_bias"]
        assert np.allclose(out[2], expected, atol=1e-12)

    def test_isolated_node_gets_updated(self):
        rng = np.random.default_rng(7)
        layer = GraphTransformerLayer(8, 3, 2, 0.0, rng)
        layer.eval()
        h = rng.normal(size=(2, 8))
        out, iso = run_layer(layer, h, np.zeros((1, 3)), [(1, 0)], 2)
        assert 1 in iso.tolist()
        assert np.all(np.isfinite(out))
        assert not np.allclose(out[1], h[1])


class TestAttentionPool:
    def test_identical_embeddings_pool_to_same(self):
        rng = np.random.default_rng(8)
        pool = AttentionPool(8, rng)
        row = rng.normal(size=8)
        h = Tensor(np.tile(row, (1, 5, 1)))
        out = pool(h)
        assert np.allclose(out.data[0], row, atol=1e-12)

    def test_single_node_identity(self):
        rng = np.random.default_rng(9)
        pool = AttentionPool(8, rng)
        row = rng.normal(size=(1, 8))
        out = pool(Tensor(row[None]))
        assert np.array_equal(out.data, row)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(10)
        pool = AttentionPool(8, rng)
        h = Tensor(rng.normal(size=(2, 4, 8)))
        alpha = pool.weights(h)
        assert alpha.shape == (2, 4, 1)
        assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)


class TestGmlpBlock:
    def test_near_identity_gate_at_init(self):
        # W_s = 0, b_s = 1: the gate passes u1 through unchanged, so the
        # block is exactly z + proj_out(u1)
        rng = np.random.default_rng(11)
        block = GmlpBlock(8, 32, 4, 0.0, rng)
        block.eval()
        z = rng.normal(size=(2, 4, 8))
        out = block(Tensor(z))
        zt = Tensor(z)
        u = T.gelu(block.proj_in(block.norm_in(zt)))
        u1 = slice_axis(u, 2, 0, 16)
        manual = T.add(zt, block.proj_out(u1))
        assert np.allclose(out.data, manual.data, atol=1e-12)

    def test_zero_input_zero_delta(self):
        rng = np.random.default_rng(12)
        block = GmlpBlock(8, 32, 4, 0.0, rng)
        block.eval()
        block.proj_in.b.data[:] = 0.0
        block.proj_out.b.data[:] = 0.0
        block.norm_in.bias.data[:] = 0.0
        out = block(Tensor(np.zeros((1, 4, 8))))
        # LN of a constant row is 0; gelu(0) = 0; so the residual dominates
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_position_sensitivity_with_generic_weights(self):
        rng = np.random.default_rng(13)
        block = GmlpBlock(8, 32, 5, 0.0, rng)
        block.eval()
        block.w_spatial.data[:] = rng.normal(size=(5, 5))  # a trained-looking gate
        z = rng.normal(size=(1, 5, 8))
        out = block(Tensor(z)).data
        perm = rng.permutation(5)
        out_perm = block(Tensor(z[:, perm, :])).data
        assert not np.allclose(out_perm, out[:, perm, :], atol=1e-8)


def _topology_edges(name):
    if name == "ring":  # every node has an in-edge: no self loops
        return 5, [(i, (i + 1) % 5) for i in range(5)]
    topo = preset_topologies()[name].topology
    return topo.num_services, topo.edges


def _forward_and_grads(build, leaves, probe):
    for leaf in leaves:
        leaf.grad = None
    out = build()
    T.tsum(T.mul(out, Tensor(probe))).backward()
    return out.data, [leaf.grad_array() for leaf in leaves]


def _assert_same(fused, composed):
    (out_f, grads_f), (out_c, grads_c) = fused, composed
    assert np.array_equal(out_f, out_c)
    assert len(grads_f) == len(grads_c)
    for i, (g_f, g_c) in enumerate(zip(grads_f, grads_c)):
        assert np.array_equal(g_f, g_c), f"gradient {i} differs"


class TestFusedBlocksEqualTheirComposition:
    """Each encoder block is one op; its output and every input and parameter
    gradient equal, with ``==``, those of the plain ops it replaced
    (``oracles.composed_*``), with dropout on (a fixed-seed mask) and off."""

    @staticmethod
    def _randomize(module, rng):
        # trained-looking parameters: a non-zero spatial gate, non-unit norms
        for p in module.parameters().values():
            p.data[...] = rng.normal(size=p.data.shape) * 0.5

    @pytest.mark.parametrize("topology", ["online_boutique_like", "sockshop_like", "ring"])
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_graph_attention_layer(self, topology, batch, training):
        n, edges = _topology_edges(topology)
        routing = MessageRouting.from_edges(n, edges)
        rng = np.random.default_rng(batch)
        c = ModelConfig()
        layer = GraphTransformerLayer(c.d_emb, c.d_edge, c.num_heads, 0.1, rng)
        self._randomize(layer, rng)
        layer.train(training)
        h = Tensor(rng.normal(size=(batch, n, c.d_emb)), requires_grad=True)
        ef = Tensor(rng.normal(size=(batch, len(edges), c.d_edge)), requires_grad=True)
        probe = rng.normal(size=(batch, n, c.d_emb))
        leaves = [h, ef] + list(layer.parameters().values())
        fused = _forward_and_grads(
            lambda: layer(h, ef, routing, np.random.default_rng(5)), leaves, probe)
        composed = _forward_and_grads(
            lambda: composed_graph_layer(layer, h, ef, routing, np.random.default_rng(5)),
            leaves, probe)
        _assert_same(fused, composed)
        assert np.any(fused[1][1] != 0.0)  # the edge features are differentiated
        self_edge_grad = fused[1][2 + list(layer.parameters()).index("self_edge")]
        assert np.any(self_edge_grad != 0.0) == (topology != "ring")

    @pytest.mark.parametrize("topology", ["online_boutique_like", "sockshop_like"])
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_gmlp_block(self, topology, batch, training):
        n, _ = _topology_edges(topology)
        rng = np.random.default_rng(batch + 1)
        c = ModelConfig()
        block = GmlpBlock(c.d_emb, c.gmlp_expansion * c.d_emb, n, 0.1, rng)
        self._randomize(block, rng)
        block.train(training)
        z = Tensor(rng.normal(size=(batch, n, c.d_emb)), requires_grad=True)
        probe = rng.normal(size=(batch, n, c.d_emb))
        leaves = [z] + list(block.parameters().values())
        fused = _forward_and_grads(lambda: block(z, np.random.default_rng(6)), leaves, probe)
        composed = _forward_and_grads(
            lambda: composed_gmlp_block(block, z, np.random.default_rng(6)), leaves, probe)
        _assert_same(fused, composed)

    def test_dropout_draws_one_mask_per_block_in_training_only(self):
        rng = np.random.default_rng(7)
        block = GmlpBlock(8, 16, 3, 0.5, rng)
        z = Tensor(rng.normal(size=(2, 3, 8)))
        draws = np.random.default_rng(8)
        block.eval()
        eval_out = block(z, draws).data
        assert draws.bit_generator.state == np.random.default_rng(8).bit_generator.state
        block.train()
        assert not np.array_equal(block(z, draws).data, eval_out)
        expected = np.random.default_rng(8)
        expected.random((2, 3, 8))
        assert draws.bit_generator.state == expected.bit_generator.state


def snapshots_for(topo, rng, count=2):
    return [
        Snapshot(
            window_start=float(5 * i),
            node_features=rng.random((topo.num_services, 3)),
            edge_features=rng.random((topo.num_edges, 3)),
            resource_features=rng.random((topo.num_services, 5)),
            label=0.2,
        )
        for i in range(count)
    ]


class TestTrafficEncoder:
    def test_output_shape_is_d_emb(self):
        topo = Topology.create(["a", "b", "c"], [("a", "b"), ("b", "c")])
        rng = np.random.default_rng(14)
        enc = traffic_encoder(rng, num_layers=2, d_emb=16)
        enc.eval()
        batch = collate_snapshots(snapshots_for(topo, rng), routing_for(topo))
        out = enc(batch)
        assert out.shape == (2, 16)

    def test_zero_features_finite_output(self):
        topo = Topology.create(["a", "b"], [("a", "b")])
        rng = np.random.default_rng(15)
        enc = traffic_encoder(rng, num_layers=2)
        enc.eval()
        snap = Snapshot(0.0, np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((2, 5)), 0.1)
        out = enc(collate_snapshots([snap], routing_for(topo)))
        assert np.all(np.isfinite(out.data))

    def test_edge_order_invariance(self):
        names = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")]
        topo1 = Topology.create(names, edges)
        perm = [4, 2, 0, 3, 1]
        topo2 = Topology.create(names, [edges[i] for i in perm])
        rng = np.random.default_rng(16)
        enc = traffic_encoder(rng, num_layers=2)
        enc.eval()
        feats = np.random.default_rng(17).random((5, 3))
        x = np.random.default_rng(18).random((4, 3))
        r = np.zeros((4, 5))
        s1 = Snapshot(0.0, x, feats, r, 0.1)
        s2 = Snapshot(0.0, x, feats[perm], r, 0.1)
        out1 = enc(collate_snapshots([s1], routing_for(topo1)))
        out2 = enc(collate_snapshots([s2], routing_for(topo2)))
        assert np.max(np.abs(out1.data - out2.data)) < 1e-12

    def test_batched_equals_per_snapshot(self):
        topo = Topology.create(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        rng = np.random.default_rng(19)
        enc = traffic_encoder(rng, num_layers=2)
        enc.eval()
        snaps = snapshots_for(topo, rng, count=3)
        batched = enc(collate_snapshots(snaps, routing_for(topo))).data
        singles = np.vstack([enc(collate_snapshots([s], routing_for(topo))).data for s in snaps])
        assert np.allclose(batched, singles, atol=1e-12)



class TestResourceEncoder:
    def test_single_service_pooling_is_identity_path(self):
        rng = np.random.default_rng(21)
        enc = resource_encoder(rng, 1, num_blocks=1)
        enc.eval()
        out = enc(Tensor(rng.random((1, 1, 5))))
        assert out.shape == (1, 16)

    def test_zero_input_finite(self):
        rng = np.random.default_rng(22)
        enc = resource_encoder(rng, 3, num_blocks=2)
        enc.eval()
        out = enc(Tensor(np.zeros((2, 3, 5))))
        assert np.all(np.isfinite(out.data))

    def test_not_permutation_invariant_with_generic_weights(self):
        rng = np.random.default_rng(23)
        enc = resource_encoder(rng, 5, num_blocks=2)
        enc.eval()
        for block in enc.blocks:
            block.w_spatial.data[:] = rng.normal(size=(5, 5))
        r = rng.random((1, 5, 5))
        perm = np.array([3, 0, 4, 2, 1])
        out = enc(Tensor(r)).data
        out_perm = enc(Tensor(r[:, perm, :])).data
        assert not np.allclose(out, out_perm, atol=1e-8)

    def test_wrong_position_count_rejected(self):
        rng = np.random.default_rng(24)
        enc = resource_encoder(rng, 4)
        from tailcast.errors import ShapeError
        with pytest.raises(ShapeError):
            enc(Tensor(np.zeros((1, 3, 5))))


check_tensor_gradients = assert_gradients_match


class TestEncoderGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_layer_gradients(self, seed):
        rng = np.random.default_rng(seed)
        n, edges = 4, [(0, 1), (1, 2), (0, 2)]  # node 3 isolated, node 0 too
        layer = GraphTransformerLayer(8, 3, 2, 0.0, rng)
        layer.eval()
        h = Tensor(rng.normal(size=(n, 8))[None], requires_grad=True)
        ef = Tensor(rng.normal(size=(3, 3))[None], requires_grad=True)
        probe = Tensor(rng.normal(size=(n, 8))[None])
        routing = MessageRouting.from_edges(n, edges)
        assert routing.src[len(edges):].tolist() == [0, 3]

        def build():
            return T.tsum(T.mul(layer(h, ef, routing), probe))

        leaves = [h, ef] + list(layer.parameters().values())
        check_tensor_gradients(build, leaves)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_attention_pool_gradients(self, seed):
        rng = np.random.default_rng(seed)
        pool = AttentionPool(6, rng)
        h = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 6)))

        def build():
            return T.tsum(T.mul(pool(h), probe))

        check_tensor_gradients(build, [h] + list(pool.parameters().values()))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gmlp_block_gradients(self, seed):
        rng = np.random.default_rng(seed)
        block = GmlpBlock(6, 12, 3, 0.0, rng)
        block.eval()
        block.w_spatial.data[:] = rng.normal(size=(3, 3)) * 0.3
        z = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 3, 6)))

        def build():
            return T.tsum(T.mul(block(z), probe))

        check_tensor_gradients(build, [z] + list(block.parameters().values()))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_traffic_encoder_end_to_end_gradients(self, seed):
        topo = Topology.create(["a", "b", "c"], [("a", "b"), ("b", "c")])
        rng = np.random.default_rng(seed)
        enc = traffic_encoder(rng, num_layers=1, d_emb=8, num_heads=2)
        enc.eval()
        snaps = snapshots_for(topo, rng, count=1)
        batch = collate_snapshots(snaps, routing_for(topo))
        batch.node_features.requires_grad = True
        batch.edge_features.requires_grad = True
        probe = Tensor(rng.normal(size=(1, 8)))

        def build():
            return T.tsum(T.mul(enc(batch), probe))

        check_tensor_gradients(build, [batch.node_features, batch.edge_features])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_resource_encoder_end_to_end_gradients(self, seed):
        rng = np.random.default_rng(seed)
        enc = resource_encoder(rng, 3, num_blocks=1, d_emb=8, expansion=2)
        enc.eval()
        r = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 8)))

        def build():
            return T.tsum(T.mul(enc(r), probe))

        check_tensor_gradients(build, [r])
