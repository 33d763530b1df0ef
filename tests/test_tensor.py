"""Tensor op semantics, gradient checks against finite differences, Adam."""

import numpy as np
import pytest

from oracles import (
    assert_gradients_match,
    dropout,
    edge_attention,
    fd_gradient,
    gather,
    max_rel_error,
    naive_matmul,
    slice_axis,
    spatial_mix,
)

from tailcast import tensor as T
from tailcast.encoders import MessageRouting
from tailcast.errors import ShapeError, TrainingError
from tailcast.tensor import Adam, Tape, Tensor, load_checkpoint, load_params_into, save_checkpoint


class TestForwardSemantics:
    def test_matmul_identity(self):
        eye = Tensor(np.eye(2))
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(eye, x).data, x.data)

    def test_matmul_basic(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        assert out.data.tolist() == [[0.0]]

    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(out - naive_matmul(a, b))) < 1e-12

    def test_matmul_shape_error_mentions_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=-1)
        assert np.allclose(out.data, [0.5, 0.5], atol=0)

    def test_softmax_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]), axis=-1)
        assert abs(out.data[0] - 1.0) < 1e-12
        assert abs(out.data[1]) < 1e-12

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(3)
        out = T.softmax(Tensor(rng.normal(size=5)), axis=-1)
        assert abs(sum(float(v) for v in out.data) - 1.0) < 1e-12
        assert np.all(out.data >= 0)

    def test_layer_norm_constant_vector(self):
        out = T.layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_layer_norm_two_points(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_layer_norm_mean_is_bias(self):
        rng = np.random.default_rng(11)
        bias = rng.normal(size=6)
        out = T.layer_norm(Tensor(rng.normal(size=(4, 6))), Tensor(np.ones(6)), Tensor(bias))
        assert np.allclose(out.data.mean(axis=-1), bias.mean(), atol=1e-9)

    def test_hadamard(self):
        out = T.mul(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0]))
        assert out.data.tolist() == [4.0, 10.0, 18.0]

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_dropout_p_zero_is_identity(self):
        x = Tensor(np.arange(5.0))
        out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.arange(5.0))
        assert dropout(x, 0.5, training=False) is x

    def test_dropout_preserves_mean(self):
        rng = np.random.default_rng(42)
        out = dropout(Tensor(np.ones(10000)), 0.1, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_linear_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == (2, 3, 5)
        assert np.max(np.abs(out - (x @ w + b))) < 1e-12

    def test_edge_attention_node_without_messages_gets_zeros(self):
        rng = np.random.default_rng(9)
        routing = MessageRouting(3, [0, 2], [1, 1])
        key, val = Tensor(rng.normal(size=(2, 2, 4))), Tensor(rng.normal(size=(2, 2, 4)))
        out = edge_attention(Tensor(rng.normal(size=(2, 3, 4))), key, val, routing, 2).data
        assert np.array_equal(out[:, [0, 2]], np.zeros((2, 2, 4)))
        assert np.all(np.isfinite(out))
        empty = Tensor(np.zeros((2, 0, 4)))
        out = edge_attention(Tensor(np.ones((2, 3, 4))), empty, empty, MessageRouting(3, [], []), 2)
        assert np.array_equal(out.data, np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spatial_mix_matches_transposed_linear(self, seed):
        # the composition the gMLP spatial gate used before spatial_mix
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(64, 11, 32)), rng.normal(size=(11, 11)), rng.normal(size=11)
        out = spatial_mix(Tensor(x), Tensor(w), Tensor(b)).data
        composed = T.transpose(T.linear(T.transpose(Tensor(x), (0, 2, 1)), Tensor(w), Tensor(b)),
                               (0, 2, 1)).data
        assert out.shape == (64, 11, 32)
        assert max_rel_error(out, composed, floor=1e-300) <= 1e-15

    def test_spatial_mix_shape_error(self):
        with pytest.raises(ShapeError):
            spatial_mix(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 4))), Tensor(np.ones(4)))

    def test_concat_and_slice_roundtrip(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(4.0).reshape(2, 2)
        cat = T.concat([Tensor(a), Tensor(b)], axis=1)
        back = slice_axis(cat, 1, 0, 3)
        assert np.array_equal(back.data, a)


class TestBackward:
    def test_sum_of_squares(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(T.mul(w, w)).backward()
        assert w.grad.tolist() == [2.0, 4.0]

    def test_detached_tensor_gets_zero_gradient(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        x = Tensor([3.0, 4.0], requires_grad=True)
        T.tsum(T.mul(w, Tensor(x.data))).backward()
        assert w.grad is not None
        assert x.grad is None
        assert np.array_equal(x.grad_array(), np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_backward_from_constants_raises(self):
        # nothing records a graph, so a backward pass would leave every
        # gradient None and Adam would step on zeros
        with pytest.raises(TrainingError):
            T.tsum(T.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))).backward()

    def test_fanout_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        y = T.add(T.mul(w, w), w)  # w^2 + w -> grad 2w + 1
        T.tsum(y).backward()
        assert np.allclose(w.grad, [7.0])

    def test_tape_topological_order(self):
        w = Tensor([1.0], requires_grad=True)
        out = w
        for _ in range(5):
            out = T.mul(out, w)
        tape = Tape(out)
        positions = {id(node): i for i, node in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                assert positions[id(parent)] < positions[id(node)]

    def test_matmul_chain_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 3))
        probe = rng.normal(size=(3, 4))

        def forward(a_data):
            a = Tensor(a_data)
            b = Tensor(b0)
            return float(T.tsum(T.mul(T.matmul(T.matmul(a, b), a), Tensor(probe))).data)

        a = Tensor(a0.copy(), requires_grad=True)
        out = T.tsum(T.mul(T.matmul(T.matmul(a, Tensor(b0)), a), Tensor(probe)))
        out.backward()
        fd = fd_gradient(forward, a0.copy())
        assert max_rel_error(a.grad, fd, floor=1e-4) < 1e-6


class TestNoGrad:
    def test_ops_record_nothing(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            out = T.tsum(T.mul(w, w))
        assert out.item() == 5.0
        assert out.requires_grad is False
        assert out._parents == () and out._backward_fn is None

    def test_backward_under_no_grad_raises(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            loss = T.tsum(T.mul(w, w))
        with pytest.raises(TrainingError):
            loss.backward()
        assert w.grad is None

    def test_flag_restored_after_nesting_and_exception(self):
        w = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.mul(w, w).requires_grad
        assert T.mul(w, w)._parents == (w, w)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        out = T.mul(w, w)
        assert out.requires_grad and out._parents == (w, w)


def _check_op_gradient(build, shapes, seed, floor=1e-4, tol=1e-4):
    """Gradient-check an op: ``build(tensors) -> scalar Tensor``."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(tensors).backward()
    for i, (arr, t) in enumerate(zip(arrays, tensors)):
        def f(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return float(build(args).data)
        fd = fd_gradient(f, arr.copy())
        err = max_rel_error(t.grad_array(), fd, floor=floor)
        assert err < tol, f"input {i}: relative error {err}"


def _probe(shape, seed):
    return Tensor(np.random.default_rng(seed + 1000).normal(size=shape))


UNARY_OPS = {
    "gelu": T.gelu,
    "tanh": T.tanh,
    "softplus": T.softplus,
    "square": T.square,
}


class TestGradientChecks:
    """Reverse-mode gradients vs central differences for every op family."""

    @pytest.mark.parametrize("name", sorted(UNARY_OPS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unary(self, name, seed):
        op = UNARY_OPS[name]
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(op(ts[0]), _probe((4, 5), seed))),
            [(4, 5)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binary_broadcast(self, seed):
        for op in (T.add, T.sub, T.mul):
            _check_op_gradient(
                lambda ts, op=op: T.tsum(T.mul(op(ts[0], ts[1]), _probe((3, 4), seed))),
                [(3, 4), (3, 4)], seed)
            _check_op_gradient(
                lambda ts, op=op: T.tsum(T.mul(op(ts[0], ts[1]), _probe((3, 4), seed))),
                [(3, 4), (4,)], seed + 10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matmul(self, seed):
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.matmul(ts[0], ts[1]), _probe((4, 3), seed))),
            [(4, 5), (5, 3)], seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_matmul(self, seed):
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.matmul(ts[0], ts[1]), _probe((2, 3, 4), seed))),
            [(2, 3, 5), (5, 4)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reductions(self, seed):
        _check_op_gradient(lambda ts: T.tsum(T.mul(T.tsum(ts[0], axis=1), _probe((3,), seed))),
                           [(3, 4)], seed)
        _check_op_gradient(lambda ts: T.tsum(T.mul(T.tmean(ts[0], axis=0), _probe((4,), seed))),
                           [(3, 4)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shape_ops(self, seed):
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.reshape(ts[0], (6, 2)), _probe((6, 2), seed))),
            [(3, 4)], seed)
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.transpose(ts[0], (1, 0, 2)), _probe((3, 2, 4), seed))),
            [(2, 3, 4)], seed)
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.concat([ts[0], ts[1]], axis=1), _probe((2, 7), seed))),
            [(2, 3), (2, 4)], seed)
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(slice_axis(ts[0], 1, 1, 3), _probe((3, 2), seed))),
            [(3, 4)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear(self, seed):
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.linear(ts[0], ts[1], ts[2]), _probe((4, 3), seed))),
            [(4, 5), (5, 3), (3,)], seed)
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.linear(ts[0], ts[1], ts[2]), _probe((2, 4, 3), seed))),
            [(2, 4, 5), (5, 3), (3,)], seed)
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.linear(ts[0], ts[1]), _probe((2, 4, 3), seed))),
            [(2, 4, 5), (5, 3)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spatial_mix(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in ((2, 4, 3), (4, 5), (5,)))
        probe = _probe((2, 5, 3), seed)
        assert_gradients_match(lambda: T.tsum(T.mul(spatial_mix(x, w, b), probe)), [x, w, b])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gather_scatter(self, seed):
        # repeated and missing indices: the backward pass scatter-adds
        # through the incidence matmul
        idx = np.array([0, 2, 2, 1, 2])
        incidence = (np.arange(4)[:, None] == idx).astype(float)
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(gather(ts[0], idx, incidence), _probe((2, 5, 3), seed))),
            [(2, 4, 3)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_attention(self, seed):
        # nodes 0 and 4 have no in-messages; node 2 has three
        routing = MessageRouting(5, [0, 0, 1, 3, 2], [1, 2, 2, 2, 3])
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(edge_attention(ts[0], ts[1], ts[2], routing, 2),
                                    _probe((2, 5, 4), seed))),
            [(2, 5, 4), (2, 5, 4), (2, 5, 4)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_attention_zero_edges(self, seed):
        routing = MessageRouting(3, [], [])
        empty = Tensor(np.zeros((2, 0, 4)))
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(edge_attention(ts[0], empty, empty, routing, 2),
                                    _probe((2, 3, 4), seed))),
            [(2, 3, 4)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gmlp_block(self, seed, masked):
        # z (B, V, d) = (2, 3, 4), d_ffn = 6, then the ten parameters in order
        shapes = [(2, 3, 4), (4,), (4,), (4, 6), (6,), (3,), (3,), (3, 3), (3,), (3, 4), (4,)]
        mask = (np.random.default_rng(seed + 50).random((2, 3, 4)) >= 0.3) / 0.7 if masked else None
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.gmlp_block(ts[0], ts[1:], mask), _probe((2, 3, 4), seed))),
            shapes, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (2, 3), (3, 0)]],
                             ids=["self_loops", "no_self_loops"])
    def test_graph_attention_layer(self, seed, edges):
        # h (B, |V|, d) = (2, 4, 4), edge features (2, |E|, 2), two heads; the
        # gradient reaches the edge features and, through the self loops, the
        # self-loop feature
        routing = MessageRouting.from_edges(4, edges)
        proj, edge_proj = [(4, 4), (4,)], [(2, 4), (4,)]
        shapes = [(2, 4, 4), (2, len(edges), 2)] + proj * 3 + edge_proj * 2 + [(1, 2), (4,), (4,)]
        mask = (np.random.default_rng(seed + 60).random((2, 4, 4)) >= 0.3) / 0.7
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.graph_attention_layer(ts[0], ts[1], ts[2:], routing, 2, mask),
                                    _probe((2, 4, 4), seed))),
            shapes, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax(self, seed):
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(T.softmax(ts[0], axis=-1), _probe((3, 5), seed))),
            [(3, 5)], seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layer_norm(self, seed):
        _check_op_gradient(
            lambda ts: T.tsum(T.mul(
                T.layer_norm(ts[0], ts[1], ts[2]), _probe((4, 6), seed))),
            [(4, 6), (6,), (6,)], seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dropout_fixed_mask(self, seed):
        # fixing the rng fixes the mask, so the op is differentiable
        mask_rng_state = np.random.default_rng(seed)
        mask = (mask_rng_state.random((4, 4)) >= 0.3) / 0.7

        def build(ts):
            class FixedRng:
                def random(self, shape):
                    return np.where(mask > 0, 0.9, 0.0)
            return T.tsum(T.mul(dropout(ts[0], 0.3, True, FixedRng()), _probe((4, 4), seed)))

        _check_op_gradient(build, [(4, 4)], seed)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        opt = Adam({"p": p})
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)
        # moments decayed but remain zero with zero grads
        assert np.array_equal(opt._m, np.zeros(2))

    def test_first_step_magnitude_is_learning_rate(self):
        # one step with any gradient g: m_hat = g, v_hat = g^2, so the
        # update is lr * g / (|g| + eps) ~ lr * sign(g)
        p = Tensor([0.5], requires_grad=True)
        p.grad = np.array([0.3])
        opt = Adam({"p": p}, learning_rate=1e-3)
        opt.step()
        assert abs((0.5 - p.data[0]) - 1e-3) < 1e-9

    def test_hand_computed_two_steps(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        g1, g2 = 0.3, -0.1
        theta = 0.5
        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        theta -= lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        theta -= lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)

        p = Tensor([0.5], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=lr)
        p.grad = np.array([g1])
        opt.step()
        p.grad = np.array([g2])
        opt.step()
        assert abs(p.data[0] - theta) < 1e-15

    def test_nan_gradient_raises(self):
        # the flat check fails as a whole; the message names the parameter
        for bad in (np.nan, np.inf, -np.inf):
            params = {name: Tensor(np.ones((2, 2)), requires_grad=True) for name in "abcd"}
            params["a"].grad = np.full((2, 2), 0.5)
            params["c"].grad = np.array([[0.1, 0.2], [bad, 0.3]])
            params["d"].grad = np.zeros((2, 2))  # "b" has no gradient at all
            with pytest.raises(TrainingError) as err:
                Adam(params).step()
            assert "'c'" in str(err.value) and "step 1" in str(err.value)
            for name in "abd":
                assert f"'{name}'" not in str(err.value)

    def test_bit_identical_runs(self):
        def run():
            rng = np.random.default_rng(123)
            p = Tensor(rng.normal(size=8), requires_grad=True)
            opt = Adam({"p": p})
            for _ in range(25):
                loss = T.tsum(T.square(T.sub(p, Tensor(np.arange(8.0)))))
                loss.backward()
                opt.step()
                opt.zero_grad()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_grad_norm_is_the_global_norm(self):
        rng = np.random.default_rng(5)
        params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=4), requires_grad=True),
                  "unused": Tensor(rng.normal(size=2), requires_grad=True)}
        params["w"].grad = rng.normal(size=(3, 4)) * 10.0
        params["b"].grad = rng.normal(size=4)
        opt = Adam(params)
        opt.step()
        expected = np.sqrt(sum(float((p.grad_array() ** 2).sum()) for p in params.values()))
        assert abs(opt.grad_norm - expected) <= 1e-12 * expected

    def test_parameters_are_views_of_one_flat_buffer(self):
        rng = np.random.default_rng(6)
        shapes = {"w": (3, 4), "b": (4,), "s": ()}
        values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = {name: Tensor(v, requires_grad=True) for name, v in values.items()}
        opt = Adam(params)
        assert opt.flat.size == 17
        for name, p in params.items():
            assert p.data.shape == shapes[name]
            assert np.array_equal(p.data, values[name])
            assert np.shares_memory(p.data, opt.flat)
        assert opt._m.shape == opt._v.shape == (17,)
        opt.flat[...] = 2.0
        assert all(np.all(p.data == 2.0) for p in params.values())

    def test_load_params_into_writes_in_place(self):
        rng = np.random.default_rng(7)
        params = {"w": Tensor(rng.normal(size=(2, 3)), requires_grad=True),
                  "b": Tensor(rng.normal(size=3), requires_grad=True)}
        opt = Adam(params)
        arrays = {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3)}
        load_params_into(params, arrays)
        for name, p in params.items():
            assert np.shares_memory(p.data, opt.flat)
            assert np.array_equal(p.data, arrays[name])
            assert not np.shares_memory(p.data, arrays[name])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "layer.w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "layer.b": Tensor(rng.normal(size=4) * 1e-30, requires_grad=True),
        }
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, meta={"note": "x"})
        arrays, meta = load_checkpoint(path)
        assert meta == {"note": "x"}
        for name, p in params.items():
            assert np.array_equal(arrays[name], p.data)

    def test_name_mismatch_rejected(self, tmp_path):
        p = {"a": Tensor([1.0], requires_grad=True)}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, p)
        arrays, _ = load_checkpoint(path)
        from tailcast.errors import CheckpointError
        with pytest.raises(CheckpointError):
            load_params_into({"b": Tensor([1.0], requires_grad=True)}, arrays)
