"""Encoder factory, cascade wiring, and the short-cut combination."""

import numpy as np
import pytest

from seqstack import encoder
from seqstack import tensor as T
from seqstack.attention import sinusoidal_positions
from seqstack.encoder import Encoder, EncoderConfig
from seqstack.errors import ConfigError, DataError
from seqstack.gradcheck import finite_difference_check, to_float64
from seqstack.logic import VOCAB
from seqstack.pipeline import PairClassifier, PreparedExample, TrainConfig, _batch_arrays
from seqstack.rng import SeedStreams

from tape_helpers import (
    mean_all, mul, on_lstm_cell_step, pack, padded_encode, padded_logits, parameter_count,
    sum_all, tape_scan, unpack,
)


def config(kind="hybrid", **kw):
    base = dict(kind=kind, d=8, heads=2, d_ff=16, chunk=2, dropout=0.0)
    if kind == "san":
        base.update(attention_layers=2)
    elif kind in ("lstm", "onlstm"):
        base.update(recurrent_layers=2)
    else:
        base.update(recurrent_layers=1, attention_layers=1)
    base.update(kw)
    return EncoderConfig(**base)


def build(kind="hybrid", seed=0, **kw):
    return Encoder(config(kind, **kw), SeedStreams(seed))


def encode(enc, ids, mask=None, **kwargs):
    """`enc(ids)` as a padded (batch, N, d) array, 0 at padding."""
    packing = T.Packing(np.ones(ids.shape) if mask is None else mask)
    return unpack(enc(ids, packing, **kwargs), packing)


def stacks(enc, ids, mask=None):
    """The recurrent and attention stack outputs of a hybrid, recomputed, as
    padded (batch, N, d) arrays."""
    packing = T.Packing(np.ones(ids.shape) if mask is None else mask)
    h_rnn = enc.rnn(enc._embed_seq(ids.reshape(-1)[packing.index]), packing)
    return unpack(h_rnn, packing), unpack(enc.san(h_rnn, packing), packing)


def token_ids(rng, batch=2, n=4, vocab=5):
    return rng.integers(0, vocab, size=(batch, n))


class TestConfigValidation:
    def test_kind_layer_constraints(self):
        with pytest.raises(ConfigError, match="kind=san"):
            config("san", recurrent_layers=1)
        with pytest.raises(ConfigError, match="kind=lstm"):
            config("lstm", attention_layers=1)
        with pytest.raises(ConfigError, match="kind=hybrid"):
            config("hybrid", recurrent_layers=0)
        with pytest.raises(ConfigError, match="one of"):
            config("gru")

    def test_hybrid_only_flags(self):
        with pytest.raises(ConfigError, match="short_cut"):
            config("san", use_short_cut=True)

    def test_san_needs_an_even_model_dim(self):
        # sinusoidal positions pair a sine and a cosine column per frequency
        with pytest.raises(ConfigError, match="even model dim"):
            config("san", d=9, heads=3, d_ff=18)
        # the cascade adds no positions, so an odd width is fine there
        config("hybrid", d=9, heads=3, d_ff=18, chunk=3)

    def test_dimension_constraints(self):
        with pytest.raises(ConfigError, match="heads"):
            config("san", heads=3)
        with pytest.raises(ConfigError, match="chunk"):
            config("onlstm", chunk=3)
        with pytest.raises(ConfigError, match="d_ff"):
            config("san", d_ff=4)
        with pytest.raises(ConfigError, match="dropout"):
            config("hybrid", dropout=1.0)

    def test_valid_configs_pass(self):
        for kind in ("san", "lstm", "onlstm", "hybrid"):
            config(kind)


class TestShortCutCombine:
    """The short-cut combination is a plain `add` of the two stack outputs."""

    def test_additive_identity(self, rng):
        a = T.constant(rng.standard_normal((2, 3, 4)))
        zero = T.constant(np.zeros((2, 3, 4)))
        np.testing.assert_allclose(T.add(a, zero).data, a.data, atol=0)

    def test_subtracting_one_side_recovers_the_other(self, rng):
        a = T.constant(rng.standard_normal((2, 3, 4)))
        b = T.constant(rng.standard_normal((2, 3, 4)))
        combined = T.add(a, b)
        np.testing.assert_allclose(combined.data - b.data, a.data, atol=1e-6)

    def test_gradient_splits_equally(self, rng):
        a = T.parameter(rng.standard_normal((2, 4)))
        b = T.parameter(rng.standard_normal((2, 4)))
        with T.tape_scope():
            combined = T.add(a, b)
            coeff = T.constant(rng.standard_normal((2, 4)))
            T.backward(sum_all(mul(combined, coeff)))
        np.testing.assert_array_equal(a.grad, b.grad)


class TestFactoryWiring:
    def test_san_kind_is_positions_over_scaled_embeddings(self, rng):
        enc = build("san")
        ids = token_ids(rng)
        got = encode(enc, ids)
        emb = T.scale(T.gather_rows(enc.embedding, ids), np.sqrt(8.0)).data
        rows, packing = pack(emb + sinusoidal_positions(ids.shape[1], 8).astype(emb.dtype))
        manual = unpack(enc.san(rows, packing), packing)
        np.testing.assert_allclose(got, manual, atol=0)
        assert enc.rnn is None

    def test_recurrent_kind_returns_the_cell_states(self, rng):
        ids = token_ids(rng)
        enc = build("onlstm", recurrent_layers=1)
        out = encode(enc, ids)
        assert enc.san is None
        h = c = T.constant(np.zeros((ids.shape[0], 8), np.float32))
        for t in range(ids.shape[1]):
            h, c = on_lstm_cell_step(enc.rnn.layers[0], enc._embed_seq(ids[:, t]), (h, c))
            np.testing.assert_allclose(out[:, t], h.data, atol=0)

    def test_embedding_rows_scaled_by_sqrt_d(self, rng):
        enc = build("lstm")
        ids = np.array([[3]])
        out_step = enc._embed_seq(ids)
        np.testing.assert_allclose(
            out_step.data[0, 0], enc.embedding.data[3] * np.sqrt(8.0), atol=1e-6
        )

    def test_hybrid_composes_the_two_stacks_exactly(self, rng):
        enc = build("hybrid", use_short_cut=True)
        ids = token_ids(rng)
        out = encode(enc, ids)
        h_rnn, h_san = stacks(enc, ids)
        np.testing.assert_allclose(out, h_rnn + h_san, atol=0)

    def test_dropout_stream_matches_time_major_draws(self, rng):
        enc = build("lstm", dropout=0.3)
        ids = token_ids(rng, n=5)
        got = encode(enc, ids, rng=np.random.default_rng(8))
        # equal lengths: the packed rows are the time-major (N, batch) grid, so
        # one time-major draw per site, through the tape cell, is the same stream
        stream = np.random.default_rng(8)
        emb = T.dropout(enc._embed_seq(ids.T), 0.3, stream)
        ref = tape_scan(enc.rnn, emb, T.Packing(np.ones(ids.shape)), rng=stream)
        assert np.array_equal(got, ref.data)

    def test_hybrid_without_short_cut_returns_attention_output(self, rng):
        enc = build("hybrid", use_short_cut=False)
        ids = token_ids(rng)
        _, h_san = stacks(enc, ids)
        np.testing.assert_allclose(encode(enc, ids), h_san, atol=0)

    def test_short_cut_difference_identity(self, rng):
        enc = build("hybrid", use_short_cut=True)
        ids = token_ids(rng)
        h_rnn, h_san = stacks(enc, ids)
        np.testing.assert_allclose(encode(enc, ids) - h_san, h_rnn, atol=1e-6)

    def test_zeroed_attention_sublayers_collapse_to_recurrent_output(self, rng):
        enc = build("hybrid")
        for name, p in enc.san.parameters().items():
            if "ln" not in name and "final" not in name:
                p.data[...] = 0.0
        h_rnn, h_san = stacks(enc, token_ids(rng))
        np.testing.assert_allclose(h_san, T.layer_norm(T.constant(h_rnn), enc.san.final).data, atol=0)

    def test_information_flows_forward_only(self, rng):
        ids = token_ids(rng)
        enc = build("hybrid", seed=3)
        base_rnn, base_san = stacks(enc, ids)
        for p in enc.san.parameters().values():
            p.data[...] += 0.05
        after_rnn, after_san = stacks(enc, ids)
        np.testing.assert_allclose(after_rnn, base_rnn, atol=0)
        assert np.abs(after_san - base_san).max() > 1e-5
        enc2 = build("hybrid", seed=3)
        for p in enc2.rnn.parameters().values():
            p.data[...] += 0.05
        assert np.abs(stacks(enc2, ids)[1] - base_san).max() > 1e-5

    def test_same_seed_reproduces_bitwise(self, rng):
        ids = token_ids(rng)
        a = build("hybrid", seed=9)(ids)
        b = build("hybrid", seed=9)(ids)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("kind", ["san", "lstm", "onlstm", "hybrid"])
    def test_positions_added_exactly_without_a_recurrent_stack(self, kind, monkeypatch):
        made = []

        def spy_constant(data):
            made.append(np.shape(data))
            return T.constant(data)

        monkeypatch.setattr(encoder, "constant", spy_constant)
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        build(kind)(np.ones(mask.shape, dtype=np.int64), T.Packing(mask))
        # one position row per real token, added to the packed rows
        assert made == ([(8, 8)] if kind == "san" else [])

    def test_zero_length_rejected(self):
        enc = build("san")
        with pytest.raises(DataError):
            enc(np.zeros((2, 0), dtype=int))


PADDING_CASES = {
    "lstm": dict(kind="lstm"),
    "onlstm": dict(kind="onlstm"),
    "san": dict(kind="san"),
    "hybrid": dict(kind="hybrid"),
    "hybrid-shortcut": dict(kind="hybrid", use_short_cut=True),
}


class TestPaddingContract:
    """Batches are right-padded; real rows must not see the padding."""

    @pytest.mark.parametrize("case", sorted(PADDING_CASES))
    def test_padded_batch_matches_one_pair_runs(self, case):
        enc_cfg = config(**PADDING_CASES[case])
        model = PairClassifier(
            TrainConfig(encoder=enc_cfg, classifier_hidden=16),
            SeedStreams(11),
        )
        to_float64(model.parameters())
        rng = np.random.default_rng(0)
        examples = [
            PreparedExample(rng.integers(1, 5, size=lp), rng.integers(1, 5, size=lh), 0, 0)
            for lp, lh in [(3, 6), (7, 2), (5, 7)]
        ]
        ids, mask, _ = _batch_arrays(examples, range(len(examples)))
        seq = encode(model.encoder, ids, mask)
        for row, length in enumerate(mask.sum(axis=1).astype(int)):
            solo = encode(model.encoder, ids[row : row + 1, :length])
            np.testing.assert_allclose(seq[row, :length], solo[0], atol=1e-9)
        logits = model.forward_joint(ids, mask).data
        for i in range(len(examples)):
            one_ids, one_mask, _ = _batch_arrays(examples, [i])
            one = model.forward_joint(one_ids, one_mask).data
            np.testing.assert_allclose(logits[i], one[0], atol=1e-9)

    @pytest.mark.parametrize("kind", ["lstm", "onlstm", "san", "hybrid"])
    def test_non_prefix_masks_rejected(self, kind):
        enc = build(kind)
        ids = np.ones((1, 3), dtype=np.int64)
        for bad in ([[1, 0, 1]], [[0, 1, 1]], [[1, 1, 0.5]]):
            with pytest.raises(DataError, match="right padding"):
                enc(ids, T.Packing(np.array(bad, dtype=float)))
        for other_shape in ([[1, 1]], [[1, 1, 1], [1, 1, 1]]):
            with pytest.raises(DataError, match="do not match"):
                enc(ids, T.Packing(np.array(other_shape, dtype=float)))
        enc(ids, T.Packing(np.array([[1, 1, 0]], dtype=float)))


# A unique longest sequence: the scan's last steps run one sequence alone.
ORACLE_LENGTHS = (7, 3, 5, 1, 4, 6)


class TestPackedMatchesPaddedOracle:
    """The packed encoder against its padded formulation, bit for bit.

    `tape_helpers.padded_encode` runs every op on the whole (B, N) grid,
    padding included, with the per-step tape cell for the recurrent stack.
    At d=64 numpy would sum a one-row product differently from the batch's
    (gemv, not gemm), so the single-sequence tail steps are checked too.
    """

    def _model(self, case, dropout=0.0):
        extra = dict(recurrent_layers=2) if case.startswith("hybrid") else {}
        enc_cfg = config(**PADDING_CASES[case], d=64, heads=4, d_ff=128, chunk=8,
                         dropout=dropout, **extra)
        return PairClassifier(TrainConfig(encoder=enc_cfg, classifier_hidden=32), SeedStreams(5))

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("case", sorted(PADDING_CASES))
    def test_real_rows_and_gates_are_bit_identical(self, case, training):
        enc = self._model(case, dropout=0.2).encoder
        mask = (np.arange(max(ORACLE_LENGTHS)) < np.array(ORACLE_LENGTHS)[:, None]).astype(float)
        ids = np.random.default_rng(3).integers(1, len(VOCAB), size=mask.shape) * (mask > 0)
        packing = T.Packing(mask)
        trace, ref_trace = {}, {}
        out = enc(ids, packing, rng=np.random.default_rng(8) if training else None, trace=trace)
        ref = padded_encode(enc, ids, mask, rng=np.random.default_rng(8) if training else None,
                            trace=ref_trace)
        assert out.dtype == ref.dtype == np.float32
        assert np.array_equal(out.data, ref.data.reshape(-1, 64)[packing.index])
        assert sorted(trace) == sorted(ref_trace) == ([] if case in ("lstm", "san") else [0, 1])
        n = mask.shape[1]
        for li, gates in ref_trace.items():
            assert len(trace[li]) == len(gates) == n
            for t, ((f, i), (ref_f, ref_i)) in enumerate(zip(trace[li], gates)):
                running = packing.index[packing.offsets[t] : packing.offsets[t + 1]] // n
                assert np.array_equal(f, ref_f[running]) and np.array_equal(i, ref_i[running])

    @pytest.mark.parametrize("case", sorted(PADDING_CASES))
    def test_logits_are_bit_identical(self, case):
        model = self._model(case)
        rng = np.random.default_rng(4)
        examples = [
            PreparedExample(rng.integers(1, len(VOCAB), size=lp), rng.integers(1, len(VOCAB), size=lh), 0, 0)
            for lp, lh in [(3, 9), (7, 2), (5, 5), (1, 4)]
        ]
        ids, mask, _ = _batch_arrays(examples, range(len(examples)))
        with T.no_grad():
            assert np.array_equal(model.forward_joint(ids, mask).data, padded_logits(model, ids, mask).data)


class TestParameterCounts:
    def test_hand_counts_per_kind(self):
        v, d, dff, chunk = len(VOCAB), 8, 16, 2
        m = d // chunk
        emb = v * d
        lstm_layer = d * 4 * d + d * 4 * d + 4 * d
        master = d * 2 * m + d * 2 * m + 2 * m
        san_layer = (
            4 * d * d + 2 * d            # attention projections, q/o biases
            + d * dff + dff + dff * d + d  # feed-forward
            + 2 * d                      # two gain-only layer norms
        )
        final_ln = d
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
        enc = build("hybrid", use_short_cut=True, seed=21)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 5, size=(1, 3))
        coeff = T.constant(rng.standard_normal((3, 8)))
        packing = T.Packing(np.ones(ids.shape))

        def loss():
            h_rnn = enc.rnn(enc._embed_seq(ids.reshape(-1)[packing.index]), packing)
            last = T.pack_rows(h_rnn, packing.last)
            return T.add(sum_all(mul(enc(ids, packing), coeff)), mean_all(last))

        report = finite_difference_check(
            loss, to_float64(enc.parameters()), max_entries=6, rng=np.random.default_rng(2)
        )
        assert max(report.values()) < 1e-3
