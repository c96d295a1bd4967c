"""Encoder factory, cascade wiring, and the short-cut combination."""

import numpy as np
import pytest

from seqstack import tensor as T
from seqstack.encoder import (
    Encoder,
    EncoderConfig,
    parameter_count,
    short_cut_combine,
)
from seqstack.errors import ConfigError, DataError
from seqstack.gradcheck import finite_difference_check
from seqstack.rng import SeedStreams


def config(kind="hybrid", **kw):
    base = dict(
        kind=kind, vocab_size=5, d=8, heads=2, d_ff=16, chunk=2, dropout=0.0
    )
    if kind == "san":
        base.update(attention_layers=2, use_positional=True)
    elif kind in ("lstm", "onlstm"):
        base.update(recurrent_layers=2)
    else:
        base.update(recurrent_layers=1, attention_layers=1)
    base.update(kw)
    return EncoderConfig(**base)


def build(kind="hybrid", seed=0, **kw):
    return Encoder(config(kind, **kw), SeedStreams(seed))


def token_ids(rng, batch=2, n=4, vocab=5):
    return rng.integers(0, vocab, size=(batch, n))


class TestConfigValidation:
    def test_kind_layer_constraints(self):
        with pytest.raises(ConfigError, match="kind=san"):
            config("san", recurrent_layers=1).validate()
        with pytest.raises(ConfigError, match="kind=lstm"):
            config("lstm", attention_layers=1).validate()
        with pytest.raises(ConfigError, match="kind=hybrid"):
            config("hybrid", recurrent_layers=0).validate()
        with pytest.raises(ConfigError, match="one of"):
            config("gru").validate()

    def test_hybrid_only_flags(self):
        with pytest.raises(ConfigError, match="short_cut"):
            config("san", use_short_cut=True).validate()
        with pytest.raises(ConfigError, match="positional"):
            config("onlstm", use_positional=True).validate()

    def test_dimension_constraints(self):
        with pytest.raises(ConfigError, match="heads"):
            config("san", heads=3).validate()
        with pytest.raises(ConfigError, match="chunk"):
            config("onlstm", chunk=3).validate()
        with pytest.raises(ConfigError, match="d_ff"):
            config("san", d_ff=4).validate()
        with pytest.raises(ConfigError, match="dropout"):
            config("hybrid", dropout=1.0).validate()

    def test_valid_configs_pass(self):
        for kind in ("san", "lstm", "onlstm", "hybrid"):
            config(kind).validate()


class TestShortCutCombine:
    def test_additive_identity(self, rng):
        a = T.constant(rng.standard_normal((2, 3, 4)))
        zero = T.constant(np.zeros((2, 3, 4)))
        np.testing.assert_allclose(short_cut_combine(a, zero).data, a.data, atol=0)

    def test_subtracting_one_side_recovers_the_other(self, rng):
        a = T.constant(rng.standard_normal((2, 3, 4)))
        b = T.constant(rng.standard_normal((2, 3, 4)))
        combined = short_cut_combine(a, b)
        np.testing.assert_allclose(combined.data - b.data, a.data, atol=1e-6)

    def test_gradient_splits_equally(self, rng):
        a = T.parameter(rng.standard_normal((2, 4)))
        b = T.parameter(rng.standard_normal((2, 4)))
        with T.tape_scope():
            combined = short_cut_combine(a, b)
            coeff = T.constant(rng.standard_normal((2, 4)))
            T.backward(T.sum_all(T.mul(combined, coeff)))
        np.testing.assert_array_equal(a.grad, b.grad)


class TestFactoryWiring:
    def test_san_kind_is_positions_over_scaled_embeddings(self, rng):
        enc = build("san")
        ids = token_ids(rng)
        got = enc(ids)
        emb = T.scale(T.gather_rows(enc.embedding, ids), np.sqrt(8.0))
        manual = enc.san(emb)
        np.testing.assert_allclose(got.seq.data, manual.data, atol=0)
        assert got.h_rnn is None and got.last_hidden is None

    def test_recurrent_kind_returns_last_hidden(self, rng):
        ids = token_ids(rng)
        enc = build("onlstm", recurrent_layers=1)
        out = enc(ids)
        assert out.h_san is None
        np.testing.assert_allclose(out.seq.data[:, -1, :], out.last_hidden.data, atol=0)
        with_residual = build("onlstm")(ids)
        assert np.abs(
            with_residual.seq.data[:, -1, :] - with_residual.last_hidden.data
        ).max() > 1e-4

    def test_embedding_rows_scaled_by_sqrt_d(self, rng):
        enc = build("lstm")
        ids = np.array([[3]])
        out_step = enc._embed_step(ids, 0)
        np.testing.assert_allclose(
            out_step.data[0], enc.embedding.data[3] * np.sqrt(8.0), atol=1e-6
        )

    def test_hybrid_composes_the_two_stacks_exactly(self, rng):
        enc = build("hybrid", use_short_cut=True)
        ids = token_ids(rng)
        out = enc(ids)
        emb_steps = [enc._embed_step(ids, t) for t in range(ids.shape[1])]
        rnn_steps, _ = enc.rnn(emb_steps)
        h_rnn = T.stack_steps(rnn_steps)
        h_san = enc.san(h_rnn)
        np.testing.assert_allclose(out.h_rnn.data, h_rnn.data, atol=0)
        np.testing.assert_allclose(out.h_san.data, h_san.data, atol=0)
        np.testing.assert_allclose(out.seq.data, h_rnn.data + h_san.data, atol=0)

    def test_hybrid_without_short_cut_returns_attention_output(self, rng):
        enc = build("hybrid", use_short_cut=False)
        out = enc(token_ids(rng))
        assert out.seq is out.h_san

    def test_short_cut_difference_identity(self, rng):
        enc = build("hybrid", use_short_cut=True)
        out = enc(token_ids(rng))
        np.testing.assert_allclose(
            out.seq.data - out.h_san.data, out.h_rnn.data, atol=1e-6
        )

    def test_zeroed_attention_sublayers_collapse_to_recurrent_output(self, rng):
        enc = build("hybrid")
        for name, p in enc.san.parameters().items():
            if "ln" not in name and "final" not in name:
                p.data[...] = 0.0
        out = enc(token_ids(rng))
        np.testing.assert_allclose(out.h_san.data, enc.san.final(out.h_rnn).data, atol=0)

    def test_information_flows_forward_only(self, rng):
        ids = token_ids(rng)
        enc = build("hybrid", seed=3)
        base = enc(ids)
        for p in enc.san.parameters().values():
            p.data[...] += 0.05
        after_san = enc(ids)
        np.testing.assert_allclose(after_san.h_rnn.data, base.h_rnn.data, atol=0)
        assert np.abs(after_san.h_san.data - base.h_san.data).max() > 1e-5
        enc2 = build("hybrid", seed=3)
        for p in enc2.rnn.parameters().values():
            p.data[...] += 0.05
        after_rnn = enc2(ids)
        assert np.abs(after_rnn.h_san.data - base.h_san.data).max() > 1e-5

    def test_same_seed_reproduces_bitwise(self, rng):
        ids = token_ids(rng)
        a = build("hybrid", seed=9)(ids)
        b = build("hybrid", seed=9)(ids)
        assert np.array_equal(a.seq.data, b.seq.data)

    def test_zero_length_rejected(self):
        enc = build("san")
        with pytest.raises(DataError):
            enc(np.zeros((2, 0), dtype=int))

    def test_padding_mask_end_to_end(self):
        with T.dtype_scope("float64"):
            enc = build("hybrid", use_short_cut=True, seed=11)
            rng = np.random.default_rng(0)
            ids = rng.integers(1, 5, size=(2, 5))
            mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
            out = enc(ids, mask=mask)
            solo = enc(ids[0:1, :3], mask=np.ones((1, 3)))
            np.testing.assert_allclose(
                out.last_hidden.data[0], solo.last_hidden.data[0], atol=1e-9
            )
            np.testing.assert_allclose(
                out.seq.data[0, :3], solo.seq.data[0], atol=1e-9
            )


class TestParameterCounts:
    def test_hand_counts_per_kind(self):
        v, d, dff, chunk = 5, 8, 16, 2
        m = d // chunk
        emb = v * d
        lstm_layer = d * 4 * d + d * 4 * d + 4 * d
        master = d * 2 * m + d * 2 * m + 2 * m
        san_layer = (
            4 * d * d + 3 * d            # attention projections, q/v/o biases
            + d * dff + dff + dff * d + d  # feed-forward
            + 4 * d                      # two layer norms
        )
        final_ln = 2 * d
        expected = {
            "san": emb + 2 * san_layer + final_ln,
            "lstm": emb + 2 * lstm_layer,
            "onlstm": emb + 2 * (lstm_layer + master),
            "hybrid": emb + (lstm_layer + master) + san_layer + final_ln,
        }
        for kind, want in expected.items():
            got = parameter_count(build(kind).parameters())
            assert got == want, f"{kind}: {got} != {want}"

    def test_parameter_names_unique_and_prefixed(self):
        params = build("hybrid").parameters("enc.")
        assert all(name.startswith("enc.") for name in params)
        assert len(params) == len(set(params))


class TestGradientFlow:
    def test_hybrid_gradcheck_through_the_seam(self):
        with T.dtype_scope("float64"):
            enc = build("hybrid", use_short_cut=True, seed=21)
            rng = np.random.default_rng(1)
            ids = rng.integers(0, 5, size=(1, 3))
            coeff = T.constant(rng.standard_normal((1, 3, 8)))

            def loss():
                out = enc(ids)
                both = T.add(
                    T.sum_all(T.mul(out.seq, coeff)), T.mean_all(out.last_hidden)
                )
                return both

            report = finite_difference_check(
                loss, enc.parameters(), max_entries=6, rng=np.random.default_rng(2)
            )
            assert max(report.values()) < 1e-3
