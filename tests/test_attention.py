"""Attention stack behavior against loop-based reference implementations."""

import math

import numpy as np
import pytest

from seqstack import attention
from seqstack import tensor as T
from seqstack.attention import (
    FeedForward,
    MultiHeadAttention,
    SanEncoder,
    SanLayer,
    scaled_dot_attention,
    sinusoidal_positions,
)
from seqstack.errors import ConfigError, ShapeError
from seqstack.gradcheck import finite_difference_check, to_float64
from seqstack.rng import SeedStreams

from tape_helpers import (
    mul, pack, reference_attention, reference_feed_forward, sum_all, unpack,
)


def ref_attention(q, k, v):
    """Loop-and-scalar attention: softmax(q k^T / sqrt(d_k)) v."""
    nq, dk = q.shape
    n, dv = v.shape
    out = np.zeros((nq, dv))
    for i in range(nq):
        scores = [
            sum(q[i][t] * k[j][t] for t in range(dk)) / math.sqrt(dk) for j in range(n)
        ]
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        for j in range(n):
            w = exps[j] / total
            for t in range(dv):
                out[i][t] += w * v[j][t]
    return out


def ref_mha(x, mha):
    """Per-head reference: explicit weight slices, loop attention, re-projection."""
    dk = mha.d_head
    head_outs = []
    for h in range(mha.heads):
        cols = slice(h * dk, (h + 1) * dk)
        q = x @ mha.w_q.data[:, cols] + mha.b_q.data[cols]
        k = x @ mha.w_k.data[:, cols]
        v = x @ mha.w_v.data[:, cols]
        head_outs.append(ref_attention(q, k, v))
    mixed = np.concatenate(head_outs, axis=-1)
    return mixed @ mha.w_o.data + mha.b_o.data


def streams(seed=0):
    return SeedStreams(seed).stream("init", "san")


def on_grid(module, x, mask=None, *args, **kwargs):
    """Run a packed-row module on a padded (B, N, d) array: pack its real rows,
    call `module(rows, packing, *args, **kwargs)`, return the output padded (0 at padding)."""
    rows, packing = pack(np.asarray(x), mask)
    return unpack(module(rows, packing, *args, **kwargs), packing)


class TestSinusoidalPositions:
    def test_position_zero_alternates_zero_one(self):
        pe = sinusoidal_positions(4, 8)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-7)

    def test_columns_match_analytic_waves(self):
        d = 8
        pe = sinusoidal_positions(50, d)
        for pair in range(d // 2):
            omega = 1.0 / (10000.0 ** (2.0 * pair / d))
            positions = np.arange(50)
            np.testing.assert_allclose(pe[:, 2 * pair], np.sin(positions * omega), atol=1e-6)
            np.testing.assert_allclose(pe[:, 2 * pair + 1], np.cos(positions * omega), atol=1e-6)

    def test_rows_pairwise_distinct(self):
        pe = sinusoidal_positions(32, 16)
        for i in range(32):
            for j in range(i + 1, 32):
                assert np.abs(pe[i] - pe[j]).max() > 1e-4

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            sinusoidal_positions(4, 7)


class TestScaledDotAttention:
    def test_single_key_returns_value(self, rng):
        q = T.constant(rng.standard_normal((1, 3, 4)))
        k = T.constant(rng.standard_normal((1, 1, 4)))
        v = T.constant(rng.standard_normal((1, 1, 5)))
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=1), atol=1e-6)

    def test_identical_keys_average_values(self, rng):
        q = T.constant(rng.standard_normal((1, 2, 4)))
        k = T.constant(np.tile(rng.standard_normal((1, 1, 4)), (1, 5, 1)))
        v = T.constant(rng.standard_normal((1, 5, 3)))
        out = scaled_dot_attention(q, k, v)
        expected = np.tile(v.data[0].mean(axis=0), (2, 1))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 5))
        got = scaled_dot_attention(
            T.constant(q[None]), T.constant(k[None]), T.constant(v[None])
        )
        np.testing.assert_allclose(got.data[0], ref_attention(q, k, v), atol=1e-6)

    def test_batched_matches_per_slice(self, rng):
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 3))
        got = scaled_dot_attention(T.constant(q), T.constant(k), T.constant(v))
        for b in range(2):
            solo = scaled_dot_attention(
                T.constant(q[b : b + 1].copy()),
                T.constant(k[b : b + 1].copy()),
                T.constant(v[b : b + 1].copy()),
            )
            np.testing.assert_allclose(got.data[b], solo.data[0], atol=1e-6)

    def test_key_mask_removes_padded_positions(self, rng):
        q = rng.standard_normal((1, 2, 4))
        k = rng.standard_normal((1, 3, 4))
        v = rng.standard_normal((1, 3, 3))
        mask_bias = T.Packing(np.array([[1.0, 1.0, 0.0]])).key_bias(q.dtype)
        got = scaled_dot_attention(
            T.constant(q), T.constant(k), T.constant(v), mask_bias=mask_bias
        )
        solo = scaled_dot_attention(
            T.constant(q), T.constant(k[:, :2].copy()), T.constant(v[:, :2].copy())
        )
        np.testing.assert_allclose(got.data, solo.data, atol=1e-6)

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            scaled_dot_attention(
                T.constant(rng.standard_normal((1, 2, 4))),
                T.constant(rng.standard_normal((1, 3, 5))),
                T.constant(rng.standard_normal((1, 3, 2))),
            )


class TestMultiHeadAttention:
    def test_one_head_equals_plain_attention_with_same_projections(self):
        mha = MultiHeadAttention(6, 1, streams(1))
        to_float64(mha.parameters())
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 6))
        got = on_grid(mha, x)
        q = x[0] @ mha.w_q.data + mha.b_q.data
        k = x[0] @ mha.w_k.data
        v = x[0] @ mha.w_v.data
        core = scaled_dot_attention(
            T.constant(q[None]), T.constant(k[None]), T.constant(v[None])
        )
        expected = core.data[0] @ mha.w_o.data + mha.b_o.data
        np.testing.assert_allclose(got[0], expected, atol=1e-9)

    def test_zero_value_path_yields_output_bias(self, rng):
        mha = MultiHeadAttention(8, 2, streams(2))
        mha.w_v.data[...] = 0.0
        mha.b_o.data[...] = rng.standard_normal(8)
        out = on_grid(mha, rng.standard_normal((2, 3, 8)))
        np.testing.assert_allclose(out, np.broadcast_to(mha.b_o.data, (2, 3, 8)), atol=1e-6)

    def test_two_heads_match_reference(self):
        mha = MultiHeadAttention(8, 2, streams(3))
        to_float64(mha.parameters())
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3, 8))
        got = on_grid(mha, x)
        np.testing.assert_allclose(got[0], ref_mha(x[0], mha), atol=1e-6)

    def test_attention_rows_are_distributions(self, rng, monkeypatch):
        mha = MultiHeadAttention(8, 4, streams(4))
        calls = []

        def spy(q, k, v, mask_bias):
            calls.append((q, k, mask_bias))
            return scaled_dot_attention(q, k, v, mask_bias)

        monkeypatch.setattr(attention, "scaled_dot_attention", spy)
        on_grid(mha, rng.standard_normal((2, 5, 8)))
        ((q, k, mask_bias),) = calls
        # the core's weights P, read exactly as P @ I
        eye = T.constant(np.broadcast_to(np.eye(5, dtype=q.dtype), (2, 4, 5, 5)).copy())
        weights = scaled_dot_attention(q, k, eye, mask_bias).data
        assert weights.shape == (2, 4, 5, 5)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_masked_call_records_one_linear_per_projection(self, rng):
        mha = MultiHeadAttention(8, 4, streams(4))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        rows, packing = pack(rng.standard_normal((2, 5, 8)).astype(np.float32), mask)
        with T.tape_scope() as tape:
            mha(rows, packing)
        ops = [e.op for e in tape.entries]
        assert ops.count("linear") == 4 and "add" not in ops
        # the projections run on the 8 real rows; only q, k and v are scattered
        assert [e.output.shape for e in tape.entries if e.op == "linear"] == [(8, 8)] * 4
        assert ops.count("unpack_rows") == 3 and ops.count("pack_rows") == 1
        assert all(e.output.shape != (2 * 4, 5, 5) for e in tape.entries)


class TestFusedOps:
    """The attention core and the feed-forward sublayer are one tape entry each,
    and their forward and every gradient equal the tape-op chains of
    `tape_helpers` bit for bit."""

    @staticmethod
    def _run(fn, leaves, coeff, record):
        """fn's output, and the leaves' gradients of sum(output * coeff) when recording."""
        for leaf in leaves:
            leaf.zero_grad()
        with T.tape_scope() as tape:
            if not record:
                with T.no_grad():
                    out = fn()
                assert not out.requires_grad and not tape.entries
                return out.data, []
            out = fn()
            T.backward(sum_all(mul(out, T.constant(coeff))))
        return out.data, [leaf.grad for leaf in leaves]

    @staticmethod
    def _assert_same_bits(got, ref, dtype):
        out, grads = got
        ref_out, ref_grads = ref
        assert out.dtype == dtype and out.tobytes() == ref_out.tobytes()
        assert len(grads) == len(ref_grads)
        for g, r in zip(grads, ref_grads):
            assert g.dtype == dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("record", [True, False], ids=["record", "no_grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heads_with_a_key_bias_match_the_reference_chain(self, rng, dtype, record):
        # q, k and v as MultiHeadAttention makes them: (B, H, N, d_head) views
        # of (B, N, H, d_head) arrays, with a ragged batch's key bias
        packing = T.Packing(np.arange(6) < np.array([[4], [6], [1]]))
        leaves = [T.parameter(rng.standard_normal((3, 6, 2, 4)).astype(dtype)) for _ in range(3)]
        bias = packing.key_bias(dtype)[:, None]
        coeff = rng.standard_normal((3, 2, 6, 4)).astype(dtype)

        def heads(core):
            return lambda: core(*(T.permute(leaf, (0, 2, 1, 3)) for leaf in leaves), bias)

        got = self._run(heads(scaled_dot_attention), leaves, coeff, record)
        ref = self._run(heads(reference_attention), leaves, coeff, record)
        self._assert_same_bits(got, ref, dtype)

    @pytest.mark.parametrize("record", [True, False], ids=["record", "no_grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooling_queries_match_the_reference_chain(self, rng, dtype, record):
        # one rank-2 set of queries for every batch, keys and values one tensor
        packing = T.Packing(np.arange(5) < np.array([[5], [2], [3], [5]]))
        queries = T.parameter(rng.standard_normal((2, 8)).astype(dtype))
        rows = T.parameter(rng.standard_normal((len(packing.steps), 8)).astype(dtype))
        coeff = rng.standard_normal((4, 2, 8)).astype(dtype)

        def pooled(core):
            def fn():
                seq = T.unpack_rows(rows, packing)
                return core(queries, seq, seq, packing.key_bias(dtype))
            return fn

        got = self._run(pooled(scaled_dot_attention), [queries, rows], coeff, record)
        ref = self._run(pooled(reference_attention), [queries, rows], coeff, record)
        self._assert_same_bits(got, ref, dtype)

    @pytest.mark.parametrize("record", [True, False], ids=["record", "no_grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(11, 8), (3, 4, 8)], ids=["packed", "padded"])
    def test_feed_forward_matches_the_reference_chain(self, rng, dtype, shape, record):
        ffn = FeedForward(8, 16, streams(30))
        if dtype == np.float64:
            to_float64(ffn.parameters())
        x = T.parameter(rng.standard_normal(shape).astype(dtype))
        leaves = [x, *ffn.parameters().values()]
        coeff = rng.standard_normal(shape).astype(dtype)
        got = self._run(lambda: ffn(x), leaves, coeff, record)
        ref = self._run(lambda: reference_feed_forward(ffn, x), leaves, coeff, record)
        self._assert_same_bits(got, ref, dtype)
        hidden = T.linear(x, ffn.w1, ffn.b1).data
        assert (hidden > 0).any() and (hidden < 0).any(), "both sides of the rectifier"

    def test_a_layer_records_one_entry_per_core_and_feed_forward(self, rng):
        layer = SanLayer(8, 2, 16, streams(31))
        rows, packing = pack(rng.standard_normal((2, 5, 8)).astype(np.float32),
                             np.arange(5) < np.array([[3], [5]]))
        rows.requires_grad = True
        with T.tape_scope() as tape:
            layer(rows, packing)
        ops = [e.op for e in tape.entries]
        assert ops.count("scaled_dot_attention") == 1 and ops.count("feed_forward") == 1
        assert not {"matmul", "softmax_rows", "scale", "relu"} & set(ops)

    def test_shapes_and_bias_are_checked(self, rng):
        q = T.constant(rng.standard_normal((2, 3, 4)))
        k = T.constant(rng.standard_normal((2, 5, 4)))
        with pytest.raises(ShapeError):
            scaled_dot_attention(q, k, T.constant(rng.standard_normal((2, 4, 3))))
        with pytest.raises(ShapeError):
            scaled_dot_attention(q, k, k, np.zeros((2, 1, 1, 5)))
        with pytest.raises(ShapeError):
            FeedForward(4, 8, streams(32))(T.constant(np.zeros((3, 5))))


class TestSanLayer:
    def test_zero_sublayers_are_identity(self, rng):
        layer = SanLayer(8, 2, 16, streams(6))
        for name, p in layer.parameters().items():
            if "ln" not in name:
                p.data[...] = 0.0
        x = rng.standard_normal((2, 3, 8)).astype(np.float32)
        out = on_grid(layer, x)
        np.testing.assert_allclose(out, x, atol=0)

    def test_permutation_equivariance_without_positions(self, rng):
        layer = SanLayer(8, 2, 16, streams(7))
        x = rng.standard_normal((1, 6, 8))
        base = on_grid(layer, x)[0]
        for _ in range(5):
            perm = rng.permutation(6)
            permuted = on_grid(layer, x[:, perm])[0]
            np.testing.assert_allclose(permuted, base[perm], atol=1e-5)


class TestSanEncoder:
    def _encoder(self, **kw):
        defaults = dict(
            layers=2, d=8, heads=2, d_ff=16, rng=streams(20)
        )
        defaults.update(kw)
        return SanEncoder(**defaults)

    def test_single_layer_composes_layer_and_final_norm(self, rng):
        enc = self._encoder(layers=1)
        rows, packing = pack(rng.standard_normal((1, 4, 8)))
        got = enc(rows, packing)
        manual = T.layer_norm(enc.layers[0](rows, packing), enc.final)
        np.testing.assert_allclose(got.data, manual.data, atol=0)

    def test_permutation_equivariance_sweep(self):
        rng = np.random.default_rng(55)
        enc = self._encoder()
        x = rng.standard_normal((1, 7, 8))
        base = on_grid(enc, x)[0]
        for _ in range(20):
            perm = rng.permutation(7)
            permuted = on_grid(enc, x[:, perm])[0]
            np.testing.assert_allclose(permuted, base[perm], atol=1e-5)

    def test_padding_with_mask_matches_unpadded(self):
        enc = self._encoder()
        to_float64(enc.parameters())
        rng = np.random.default_rng(56)
        x = rng.standard_normal((2, 5, 8))
        x[0, 3:] = 0.0
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        out = on_grid(enc, x, mask)
        solo = on_grid(enc, x[0:1, :3].copy())
        np.testing.assert_allclose(out[0, :3], solo[0], atol=1e-9)
        assert np.all(out[0, 3:] == 0.0), "padding holds no output rows"

    def test_same_dropout_stream_reproduces(self, rng):
        x = rng.standard_normal((2, 4, 8))
        outs = []
        for _ in range(2):
            enc = self._encoder(dropout_rate=0.3)
            out = on_grid(enc, x.copy(), None, rng=SeedStreams(9).stream("dropout"))
            outs.append(out)
        assert np.array_equal(outs[0], outs[1])

    def test_gradients_pass_finite_difference_check(self):
        enc = self._encoder(layers=2)
        rng = np.random.default_rng(57)
        rows, packing = pack(rng.standard_normal((1, 3, 8)))
        coeff = T.constant(rng.standard_normal((3, 8)))

        def build():
            return sum_all(mul(enc(rows, packing), coeff))

        report = finite_difference_check(build, to_float64(enc.parameters()))
        assert max(report.values()) < 1e-3

