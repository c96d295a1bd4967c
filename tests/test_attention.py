"""Attention stack behavior against loop-based reference implementations."""

import math

import numpy as np
import pytest

from seqstack import tensor as T
from seqstack.attention import (
    MultiHeadAttention,
    SanEncoder,
    SanLayer,
    key_mask_bias,
    scaled_dot_attention,
    sinusoidal_positions,
)
from seqstack.errors import ConfigError, ShapeError
from seqstack.gradcheck import finite_difference_check
from seqstack.rng import SeedStreams


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
        v = x @ mha.w_v.data[:, cols] + mha.b_v.data[cols]
        head_outs.append(ref_attention(q, k, v))
    mixed = np.concatenate(head_outs, axis=-1)
    return mixed @ mha.w_o.data + mha.b_o.data


def streams(seed=0):
    return SeedStreams(seed).stream("init", "san")


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
        with T.dtype_scope("float64"):
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
        mask_bias = key_mask_bias(np.array([[1.0, 1.0, 0.0]]), q.dtype)
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
        with T.dtype_scope("float64"):
            mha = MultiHeadAttention(6, 1, streams(1))
            rng = np.random.default_rng(9)
            x = rng.standard_normal((1, 4, 6))
            got = mha(T.constant(x))
            q = x[0] @ mha.w_q.data + mha.b_q.data
            k = x[0] @ mha.w_k.data
            v = x[0] @ mha.w_v.data + mha.b_v.data
            core = scaled_dot_attention(
                T.constant(q[None]), T.constant(k[None]), T.constant(v[None])
            )
            expected = core.data[0] @ mha.w_o.data + mha.b_o.data
            np.testing.assert_allclose(got.data[0], expected, atol=1e-9)

    def test_zero_value_path_yields_output_bias(self, rng):
        mha = MultiHeadAttention(8, 2, streams(2))
        mha.w_v.data[...] = 0.0
        mha.b_v.data[...] = 0.0
        mha.b_o.data[...] = rng.standard_normal(8)
        x = T.constant(rng.standard_normal((2, 3, 8)))
        out = mha(x)
        np.testing.assert_allclose(out.data, np.broadcast_to(mha.b_o.data, (2, 3, 8)), atol=1e-6)

    def test_two_heads_match_reference(self):
        with T.dtype_scope("float64"):
            mha = MultiHeadAttention(8, 2, streams(3))
            rng = np.random.default_rng(10)
            x = rng.standard_normal((1, 3, 8))
            got = mha(T.constant(x))
            np.testing.assert_allclose(got.data[0], ref_mha(x[0], mha), atol=1e-6)

    def test_attention_rows_are_distributions(self, rng):
        mha = MultiHeadAttention(8, 4, streams(4))
        with T.tape_scope() as tape:
            mha(T.constant(rng.standard_normal((2, 5, 8))))
        (entry,) = [e for e in tape.entries if e.op == "softmax_rows"]
        weights = entry.output.data.reshape(2, 4, 5, 5)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(8, 3, streams(5))


class TestSanLayer:
    def test_zero_sublayers_are_identity(self, rng):
        layer = SanLayer(8, 2, 16, streams(6))
        for name, p in layer.parameters().items():
            if "ln" not in name:
                p.data[...] = 0.0
        x = rng.standard_normal((2, 3, 8)).astype(np.float32)
        out = layer(T.constant(x))
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_permutation_equivariance_without_positions(self, rng):
        layer = SanLayer(8, 2, 16, streams(7))
        x = rng.standard_normal((1, 6, 8))
        base = layer(T.constant(x)).data[0]
        for _ in range(5):
            perm = rng.permutation(6)
            permuted = layer(T.constant(x[:, perm])).data[0]
            np.testing.assert_allclose(permuted, base[perm], atol=1e-5)


class TestSanEncoder:
    def _encoder(self, **kw):
        defaults = dict(
            layers=2, d=8, heads=2, d_ff=16, rng=streams(20), use_positional=False
        )
        defaults.update(kw)
        return SanEncoder(**defaults)

    def test_single_layer_composes_layer_and_final_norm(self, rng):
        enc = self._encoder(layers=1)
        x = rng.standard_normal((1, 4, 8))
        got = enc(T.constant(x))
        manual = enc.final(enc.layers[0](T.constant(x)))
        np.testing.assert_allclose(got.data, manual.data, atol=0)

    def test_positions_injected_only_when_enabled(self, rng):
        x = rng.standard_normal((1, 5, 8))
        enc_off = self._encoder(layers=1, use_positional=False)
        enc_on = self._encoder(layers=1, use_positional=True)
        enc_on.layers = enc_off.layers
        enc_on.final = enc_off.final
        assert np.abs(enc_on(T.constant(x)).data - enc_off(T.constant(x)).data).max() > 1e-3

    def test_permutation_equivariance_sweep(self):
        rng = np.random.default_rng(55)
        enc = self._encoder()
        x = rng.standard_normal((1, 7, 8))
        base = enc(T.constant(x)).data[0]
        for _ in range(20):
            perm = rng.permutation(7)
            permuted = enc(T.constant(x[:, perm])).data[0]
            np.testing.assert_allclose(permuted, base[perm], atol=1e-5)

    def test_padding_with_mask_matches_unpadded(self):
        with T.dtype_scope("float64"):
            enc = self._encoder()
            rng = np.random.default_rng(56)
            x = rng.standard_normal((2, 5, 8))
            x[0, 3:] = 0.0
            mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
            out = enc(T.constant(x), mask=mask)
            solo = enc(T.constant(x[0:1, :3].copy()))
            np.testing.assert_allclose(out.data[0, :3], solo.data[0], atol=1e-9)

    def test_same_dropout_stream_reproduces(self, rng):
        x = rng.standard_normal((2, 4, 8))
        outs = []
        for _ in range(2):
            enc = self._encoder(dropout_rate=0.3)
            out = enc(
                T.constant(x.copy()),
                training=True,
                rng=SeedStreams(9).stream("dropout"),
            )
            outs.append(out.data)
        assert np.array_equal(outs[0], outs[1])

    def test_gradients_pass_finite_difference_check(self):
        with T.dtype_scope("float64"):
            enc = self._encoder(layers=2)
            rng = np.random.default_rng(57)
            x = rng.standard_normal((1, 3, 8))
            coeff = T.constant(rng.standard_normal((1, 3, 8)))

            def build():
                return T.sum_all(T.mul(enc(T.constant(x.copy())), coeff))

            report = finite_difference_check(build, enc.parameters())
            assert max(report.values()) < 1e-3
