"""Pipeline tests: pooling, classification head, training loop, length report.

The evaluation tests drive the report through stub models whose predictions
are known exactly (an oracle that reads the true labels, a seeded random
guesser), so accuracy values can be checked against independent arithmetic
rather than against the pipeline's own bookkeeping.
"""

import argparse
import contextlib
import dataclasses
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import seqstack.attention as A
import seqstack.pipeline as P
import seqstack.tensor as T
from seqstack.cli import PRESETS, resolve_train_config
from seqstack.encoder import EncoderConfig
from seqstack.errors import ConfigError, ContractError, DataError, NumericsError
from seqstack.gradcheck import finite_difference_check, to_float64
from seqstack.logic import make_pair, sample_expression, serialize
from seqstack.rng import NoDraws, SeedStreams

from tape_helpers import all_rows_logits, pack, reference_attention, reference_feed_forward


def pairs_with_ops(seed, per_bin, max_ops=8):
    out = []
    rng = np.random.default_rng(seed)
    for ops in range(0, max_ops + 1):
        for _ in range(per_bin):
            left = sample_expression(rng, ops)
            right_ops = int(rng.integers(0, ops + 1))
            out.append(make_pair(left, sample_expression(rng, right_ops)))
    return out


def tiny_config(kind, encoder_overrides=None, **overrides):
    enc = dict(kind=kind, d=8, heads=2, d_ff=16, chunk=2)
    if kind == "san":
        enc.update(attention_layers=2)
    elif kind == "hybrid":
        enc.update(recurrent_layers=1, attention_layers=1, use_short_cut=True)
    else:
        enc.update(recurrent_layers=2)
    enc.update(encoder_overrides or {})
    train = dict(
        epochs=2, batch_size=16, classifier_hidden=16,
        eval_bins=tuple(range(1, 9)), train_cap=6,
    )
    train.update(overrides)
    return P.TrainConfig(encoder=EncoderConfig(**enc), **train)


def _pair_key(premise_ids, hyp_ids):
    return np.asarray(premise_ids).tobytes(), np.asarray(hyp_ids).tobytes()


def _batch_rows(ids, mask):
    """The unpadded (premise ids, hypothesis ids) of each pair in a joint batch."""
    b = ids.shape[0] // 2
    n = np.asarray(mask).sum(axis=1).astype(int)
    return [(ids[i, : n[i]], ids[b + i, : n[b + i]]) for i in range(b)]


class _OracleStub:
    """Predicts the true label by looking each pair up by its token ids, so it
    is right whatever order and batches the evaluation visits the pairs in."""

    def __init__(self, examples):
        self.labels = {_pair_key(e.premise_ids, e.hyp_ids): e.label for e in examples}

    def forward_joint(self, ids, mask, rng=None, worker=None):
        rows = _batch_rows(ids, mask)
        logits = np.zeros((len(rows), P.N_RELATIONS))
        for i, row in enumerate(rows):
            logits[i, self.labels[_pair_key(*row)]] = 10.0
        return T.constant(logits)


class _BatchRecorder:
    """Records each batch's pair keys and pair widths; predicts label 0."""

    def __init__(self):
        self.batches = []

    def forward_joint(self, ids, mask, rng=None, worker=None):
        rows = _batch_rows(ids, mask)
        widths = [max(len(p), len(h)) for p, h in rows]
        assert ids.shape[1] == max(widths)
        self.batches.append(([_pair_key(*row) for row in rows], widths))
        return T.constant(np.zeros((len(rows), P.N_RELATIONS)))


class _RandomStub:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def forward_joint(self, ids, mask, rng=None, worker=None):
        return T.constant(self.rng.standard_normal((ids.shape[0] // 2, P.N_RELATIONS)))


class TestTokens:
    def test_serialized_expressions_round_trip(self, rng):
        for _ in range(50):
            text = serialize(sample_expression(rng, int(rng.integers(0, 7))))
            ids = P.encode_tokens(text)
            assert " ".join(P.VOCAB[i] for i in ids) == text
            assert P.PAD_ID not in ids

    def test_unknown_token_rejected(self):
        with pytest.raises(DataError, match="unknown token"):
            P.encode_tokens("( a ( xor b ) )")
        with pytest.raises(DataError, match="empty"):
            P.encode_tokens("   ")

    def test_prepare_encodes_each_tree_once(self):
        pairs = pairs_with_ops(41, 2, max_ops=3)
        first, other = pairs[4], pairs[6]
        # The same tree objects again, as load_dataset shares a repeated text's tree.
        chosen = [first, make_pair(first.hypothesis, other.premise), first]
        ex = P.prepare_examples(chosen)
        assert ex[0].premise_ids is ex[2].premise_ids
        assert ex[0].hyp_ids is ex[1].premise_ids is ex[2].hyp_ids
        for e, pair in zip(ex, chosen):
            for ids, tree in ((e.premise_ids, pair.premise), (e.hyp_ids, pair.hypothesis)):
                np.testing.assert_array_equal(ids, P.encode_tokens(serialize(tree)))
                assert not ids.flags.writeable
            assert (e.label, e.op_count) == (int(pair.label), pair.op_count)
        # Each call encodes afresh (no cache outlives it), and batches copy.
        assert P.prepare_examples(chosen)[0].premise_ids is not ex[0].premise_ids
        ids, _, _ = P._batch_arrays(ex, range(3))
        ids[0, 0] = P.PAD_ID
        assert ex[0].premise_ids[0] != P.PAD_ID

    def test_padding_token_rejected(self):
        # Equal id rows must mean equal sequences, so no real row holds PAD_ID.
        with pytest.raises(DataError, match="padding token '<pad>'"):
            P.encode_tokens("<pad> a")
        with pytest.raises(DataError, match="padding token '<pad>'"):
            P.encode_tokens("( a ( and <pad> ) )")


class TestPooling:
    def test_last_hidden_matches_manual_indexing(self, rng):
        x = rng.standard_normal((1, 5, 8))
        pooled = P.pool_last_hidden(*pack(x))
        np.testing.assert_array_equal(pooled.data[0], x[0, 4])

    def test_last_hidden_uses_per_example_lengths(self, rng):
        x = rng.standard_normal((3, 6, 4))
        lengths = np.array([6, 2, 4])
        pooled = P.pool_last_hidden(*pack(x, np.arange(6) < lengths[:, None]))
        for i, n in enumerate(lengths):
            np.testing.assert_array_equal(pooled.data[i], x[i, n - 1])

    def test_trainable_queries_single_row_duplicates_it(self, rng):
        q = T.constant(rng.standard_normal((2, 4)))
        row = rng.standard_normal((1, 1, 4))
        pooled = P.pool_trainable_queries(q, *pack(row))
        np.testing.assert_allclose(
            pooled.data[0], np.concatenate([row[0, 0], row[0, 0]]), atol=1e-12
        )

    def test_trainable_queries_ignore_masked_rows(self, rng):
        q = T.constant(rng.standard_normal((2, 4)))
        seq = rng.standard_normal((2, 5, 4))
        seq[1, 3:] = 77.0
        mask = np.ones((2, 5))
        mask[1, 3:] = 0.0
        pooled = P.pool_trainable_queries(q, *pack(seq, mask))
        solo = P.pool_trainable_queries(q, *pack(seq[1:, :3].copy()))
        np.testing.assert_allclose(pooled.data[1], solo.data[0], atol=1e-9)

    def test_queries_receive_gradient(self):
        model = P.PairClassifier(tiny_config("san"))
        pairs = pairs_with_ops(0, 2, max_ops=3)
        ex = P.prepare_examples(pairs)
        ids, mask, labels = P._batch_arrays(ex, range(8))
        with T.tape_scope():
            loss = T.cross_entropy(model.forward_joint(ids, mask), labels)
            T.backward(loss)
        assert model.queries.grad is not None
        assert np.abs(model.queries.grad).max() > 0

    def test_default_pooling_follows_kind(self):
        # trainable queries exactly when an attention stack ends the encoder
        for kind in ("lstm", "onlstm", "san", "hybrid"):
            model = P.PairClassifier(tiny_config(kind))
            assert (model.queries is not None) == (model.encoder.san is not None) == (kind in ("san", "hybrid"))
            assert ("pooling.queries" in model.parameters()) == (model.queries is not None)


_CELL = ("w_x", "w_h", "bias")
_MASTER = ("w_x_master", "w_h_master", "bias_master")
_SAN_LAYER = ("mha.w_q", "mha.b_q", "mha.w_k", "mha.w_v", "mha.w_o", "mha.b_o",
              "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln1", "ln2")
_HEAD = ("head.w1", "head.b1", "head.w2", "head.b2", "head.w3", "head.b3")


def _rnn_names(layers, cell):
    return [f"encoder.rnn.layer{i}.{n}" for i in range(layers) for n in cell]


def _san_names(layers):
    return ([f"encoder.san.layer{i}.{n}" for i in range(layers) for n in _SAN_LAYER]
            + ["encoder.san.final", "pooling.queries"])


class TestParameterOrder:
    # The order of parameters() is the order of the clip-norm sum and of the
    # optimizer's moments, and the names are the checkpoint's keys.
    @pytest.mark.parametrize("kind, names", [
        ("lstm", ["encoder.embedding", *_rnn_names(2, _CELL), *_HEAD]),
        ("onlstm", ["encoder.embedding", *_rnn_names(2, _CELL + _MASTER), *_HEAD]),
        ("san", ["encoder.embedding", *_san_names(2), *_HEAD]),
        ("hybrid", ["encoder.embedding", *_rnn_names(1, _CELL + _MASTER), *_san_names(1), *_HEAD]),
    ])
    def test_names_in_declaration_order(self, kind, names):
        assert list(P.PairClassifier(tiny_config(kind)).parameters()) == names
        assert len(names) == {"lstm": 13, "onlstm": 19, "san": 33, "hybrid": 27}[kind]


class TestLoadModelDrawsNothing:
    """load_model builds the model's structure without a random draw, then restores it."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_restores_every_bit_without_a_draw(self, preset, tmp_path, monkeypatch):
        saved = _tiny_preset_model(preset)
        path = tmp_path / "model.ckpt"
        P.save_model(path, saved)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_model asked for a random generator")

        # numpy's Generator type is immutable, so its `uniform` cannot be
        # patched; every generator seqstack makes comes from these two.
        monkeypatch.setattr(SeedStreams, "stream", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded, _ = P.load_model(path)
        monkeypatch.undo()
        params = loaded.parameters()
        assert list(params) == list(saved.parameters())
        for name, p in saved.parameters().items():
            assert params[name].data.dtype == p.data.dtype
            assert params[name].data.tobytes() == p.data.tobytes(), name
            assert params[name].data.flags.writeable

    @pytest.mark.parametrize("kind", ["lstm", "onlstm", "san", "hybrid"])
    def test_a_built_model_still_draws_its_init(self, kind):
        config = tiny_config(kind)
        drawn = P.PairClassifier(config).parameters()
        bound = 1.0 / np.sqrt(config.encoder.d)
        embedding = SeedStreams(config.seed).stream("init", "embedding").uniform(
            -bound, bound, (len(P.VOCAB), config.encoder.d)).astype(np.float32)
        assert drawn["encoder.embedding"].data.tobytes() == embedding.tobytes()
        again = P.PairClassifier(config, SeedStreams(config.seed)).parameters()
        empty = P.PairClassifier(config, NoDraws()).parameters()
        assert list(again) == list(empty) == list(drawn)
        for name, p in drawn.items():
            assert again[name].data.tobytes() == p.data.tobytes()
            assert empty[name].shape == p.shape and empty[name].dtype == p.dtype
        # Every drawn weight is zero without a draw, and the head's init is
        # shaped only when drawn: its hidden biases stay zero, not 0.01.
        assert not np.any(empty["encoder.embedding"].data)
        assert not np.any(empty["head.w2"].data)
        assert not np.any(empty["head.b1"].data) and not np.any(empty["head.b2"].data)
        assert np.all(drawn["head.b1"].data == np.float32(0.01))
        half = drawn["head.w1"].shape[0] // 2
        assert np.array_equal(drawn["head.w1"].data[half:], -drawn["head.w1"].data[:half])


class TestClassifierHead:
    def test_zero_weights_give_constant_bias_logits(self, rng):
        head = P.ClassifierHead(12, 16, 0.0, rng)
        for name, p in head.parameters().items():
            if name.startswith("w"):
                p.data[:] = 0.0
        head.b3.data[:] = np.arange(7.0)
        pair = T.constant(rng.standard_normal((5, 12)))
        logits = head(pair)
        np.testing.assert_allclose(logits.data, np.tile(np.arange(7.0), (5, 1)), atol=1e-12)

    def test_swapping_sides_changes_logits(self, rng):
        head = P.ClassifierHead(12, 16, 0.0, np.random.default_rng(7))
        u = rng.standard_normal((4, 6))
        v = rng.standard_normal((4, 6))
        fwd = head(T.constant(np.concatenate([u, v], axis=1)))
        rev = head(T.constant(np.concatenate([v, u], axis=1)))
        assert np.abs(fwd.data - rev.data).max() > 1e-4

    @pytest.mark.parametrize("kind", ["lstm", "hybrid"])
    def test_pair_rows_join_premise_and_hypothesis(self, kind, monkeypatch):
        model = P.PairClassifier(tiny_config(kind))
        ex = P.prepare_examples(pairs_with_ops(2, 1, max_ops=4))
        ids, mask, _ = P._batch_arrays(ex, range(len(ex)))
        seen = {}
        pool_name = "pool_last_hidden" if kind == "lstm" else "pool_trainable_queries"
        pool = getattr(P, pool_name)

        def spy_pool(*args):
            seen["pooled"] = pool(*args)
            return seen["pooled"]

        monkeypatch.setattr(P, pool_name, spy_pool)
        monkeypatch.setattr(model, "head", lambda pair, **kw: seen.setdefault("pair", pair))
        model.forward_joint(ids, mask)
        pooled = seen["pooled"].data
        b = len(ex)
        expected = np.concatenate([pooled[:b], pooled[b:]], axis=1)
        assert seen["pair"].shape == (b, 2 * model.d_sent)
        np.testing.assert_array_equal(seen["pair"].data, expected)

    def test_full_model_gradcheck_at_small_width(self):
        pairs = pairs_with_ops(3, 1, max_ops=4)
        model = P.PairClassifier(tiny_config("hybrid"))
        ex = P.prepare_examples(pairs[:4])
        ids, mask, labels = P._batch_arrays(ex, range(4))

        def build_loss():
            return T.cross_entropy(model.forward_joint(ids, mask), labels)

        worst = finite_difference_check(
            build_loss, to_float64(model.parameters()), max_entries=4,
            rng=np.random.default_rng(11),
        )
        assert max(worst.values()) < 1e-3, worst

    @pytest.mark.parametrize("kind, short_cut", [
        ("lstm", False), ("san", False), ("hybrid", False), ("hybrid", True),
    ])
    def test_full_model_gradcheck_off_init_on_a_ragged_batch(self, kind, short_cut):
        # At init the u - v head cancels whatever premise and hypothesis share,
        # so common-mode gradients (the pooling's value path) are about 1e-17
        # there: a seeded step off init gives them a size the check can resolve.
        pairs = pairs_with_ops(24, 1, max_ops=4)[1:]  # one pair each of 1-4 operators
        model = P.PairClassifier(tiny_config(kind, encoder_overrides=dict(use_short_cut=short_cut)))
        params = to_float64(model.parameters())
        shift = np.random.default_rng(25)
        for p in params.values():
            p.data += shift.uniform(-0.1, 0.1, p.shape)
        ids, mask, labels = P._batch_arrays(P.prepare_examples(pairs), range(4))
        assert len(set(mask.sum(axis=1))) > 2, "a ragged batch"

        def build_loss():
            return T.cross_entropy(model.forward_joint(ids, mask), labels)

        worst = finite_difference_check(
            build_loss, params, max_entries=4, rng=np.random.default_rng(26),
        )
        assert max(worst.values()) < 1e-3, worst
        # the check can resolve every probed entry of the paths the init hides
        hidden = ("encoder.rnn.layer1.",) if kind == "lstm" else ("encoder.san.final", "pooling.")
        blind = {n: g.bounds.max() for n, g in worst.items() if n.startswith(hidden)}
        assert blind and max(blind.values()) < 1e-3, blind


class TestBuildPrecision:
    """A model computes in its parameters' precision: no op may promote or demote."""

    @pytest.mark.parametrize("split", [False, True], ids=["joint", "split"])
    @pytest.mark.parametrize("build", ["float32", "float64"])
    @pytest.mark.parametrize(
        "kind, short_cut",
        [("lstm", False), ("onlstm", False), ("san", False),
         ("hybrid", True), ("hybrid", False)],
    )
    def test_training_step_stays_in_build_dtype(self, build, kind, short_cut, split, monkeypatch):
        dt = np.dtype(build)
        pairs = pairs_with_ops(4, 2, max_ops=4)
        cfg = tiny_config(kind, encoder_overrides=dict(dropout=0.2, use_short_cut=short_cut))
        model = P.PairClassifier(cfg)
        if build == "float64":
            to_float64(model.parameters())
        ids, mask, labels = P._batch_arrays(P.prepare_examples(pairs), range(8))
        assert (mask == 0).any(), "the batch must carry padding"
        off = []

        def checked(op, back):
            def run(g):
                contribs = back(g)
                off.extend(f"{op} grad {c.dtype}" for _, c in contribs if c.dtype != dt)
                return contribs
            return run

        # numpy promotes float32 + float64 to float64, and an in-place op
        # rounds a float64 operand to float32, so the constants an op reads
        # are checked too: every key bias, and every float array or tensor a
        # backward holds (positions, dropout masks, saved intermediates)
        biases = []
        real_key_bias = T.Packing.key_bias

        def key_bias(packing, dtype):
            biases.append(real_key_bias(packing, dtype))
            return biases[-1]

        monkeypatch.setattr(T.Packing, "key_bias", key_bias)
        side_tapes = _record_tapes(monkeypatch)
        with T.tape_scope() as tape, ThreadPoolExecutor(max_workers=1) as worker:
            logits = model.forward_joint(ids, mask, rng=np.random.default_rng(0),
                                         worker=worker if split else None,
                                         hyp_rng=np.random.default_rng(1))
            loss = T.cross_entropy(logits, labels)
            assert len(side_tapes) == (2 if split else 0)
            for entry in [e for t in (tape, *side_tapes) for e in t.entries]:
                if entry.output.dtype != dt:
                    off.append(f"{entry.op} out {entry.output.dtype}")
                off.extend(f"{entry.op} holds {d}" for d in _held_float_dtypes(entry.backward) if d != dt)
                entry.backward = checked(entry.op, entry.backward)
            T.backward(loss)
        assert bool(biases) == (model.encoder.san is not None)
        off.extend(f"key bias {b.dtype}" for b in biases if b.dtype != dt)
        if loss.dtype != dt:
            off.append(f"loss {loss.dtype}")
        for name, p in model.parameters().items():
            if p.dtype != dt:
                off.append(f"{name} data {p.dtype}")
            if p.grad is None or p.grad.dtype != dt:
                off.append(f"{name} .grad {None if p.grad is None else p.grad.dtype}")
        assert not off, f"{len(off)} off-dtype values, first: {off[:5]}"


class TestFusedSublayers:
    """A training pass through the fused attention core and feed-forward
    sublayer gives the logits, loss and gradients of one through their
    tape-op chains (`tape_helpers`), bit for bit."""

    @pytest.mark.parametrize("split", [False, True], ids=["joint", "split"])
    @pytest.mark.parametrize("build", ["float32", "float64"])
    @pytest.mark.parametrize("kind", ["san", "hybrid"])
    def test_training_pass_matches_the_reference_chains(self, kind, build, split, monkeypatch):
        cfg = tiny_config(kind, encoder_overrides=dict(dropout=0.2))
        ids, mask, labels = P._batch_arrays(
            P.prepare_examples(pairs_with_ops(5, 2, max_ops=4)), range(8))
        assert (mask == 0).any(), "the batch must carry padding"

        def run():
            model = P.PairClassifier(cfg)
            if build == "float64":
                to_float64(model.parameters())
            with T.tape_scope(), ThreadPoolExecutor(max_workers=1) as worker:
                logits = model.forward_joint(ids, mask, rng=np.random.default_rng(0),
                                             worker=worker if split else None,
                                             hyp_rng=np.random.default_rng(1))
                loss = T.cross_entropy(logits, labels)
                T.backward(loss)
            return [logits.data, loss.data] + [p.grad for p in model.parameters().values()]

        fused = run()
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(A, "scaled_dot_attention", counted("core", reference_attention))
        monkeypatch.setattr(P, "scaled_dot_attention", counted("pool", reference_attention))
        monkeypatch.setattr(A.FeedForward, "__call__", counted("ffn", reference_feed_forward))
        reference = run()
        layers, sides = cfg.encoder.attention_layers, 2 if split else 1
        assert calls == {"core": layers * sides, "pool": sides, "ffn": layers * sides}
        assert len(fused) == len(reference)
        for got, ref in zip(fused, reference):
            assert got.dtype == np.dtype(build) and got.tobytes() == ref.tobytes()


def _held_float_dtypes(backward):
    """The dtypes of the float arrays and tensors a backward closure holds,
    looking inside lists and tuples."""
    held = [cell.cell_contents for cell in backward.__closure__ or ()]
    dtypes = []
    while held:
        value = held.pop()
        if isinstance(value, (list, tuple)):
            held.extend(value)
        elif isinstance(value, T.Tensor) or (
                isinstance(value, np.ndarray) and value.dtype.kind == "f"):
            dtypes.append(value.dtype)
    return dtypes


def _record_tapes(monkeypatch):
    """Collect every tape that pipeline opens, on any thread, in opening order."""
    tapes = []
    real_scope = P.tape_scope

    @contextlib.contextmanager
    def recorded():
        with real_scope() as tape:
            tapes.append(tape)
            yield tape

    monkeypatch.setattr(P, "tape_scope", recorded)
    return tapes


class TestTraining:
    @pytest.mark.parametrize("seed", range(42, 50))
    def test_first_batch_loss_near_uniform(self, seed):
        # checked at realistic widths: the small-variance logit layer only
        # keeps the initial logits near zero once fan-in is large enough
        # (at toy hidden=16 the per-entry init noise is a visible fraction
        # of ln 7, so narrow widths would test noise, not the contract)
        pairs = pairs_with_ops(5, 4, max_ops=5)
        for kind in ("lstm", "onlstm", "san", "hybrid"):
            cfg = tiny_config(
                kind, classifier_hidden=256, seed=seed,
                encoder_overrides=dict(d=64, heads=4, d_ff=256, chunk=4),
            )
            model = P.PairClassifier(cfg)
            ex = P.prepare_examples(pairs)
            ids, mask, labels = P._batch_arrays(ex, range(16))
            loss = T.cross_entropy(model.forward_joint(ids, mask), labels)
            assert abs(loss.item() - np.log(7.0)) < 0.2, kind

    def test_train_step_leaves_grad_on_parameters_only(self, monkeypatch):
        pairs = pairs_with_ops(21, 2, max_ops=3)
        model = P.PairClassifier(tiny_config(
            "hybrid", epochs=1, batch_size=len(pairs), encoder_overrides=dict(dropout=0.2),
        ))
        tapes = _record_tapes(monkeypatch)
        seen = []
        real_backward = P.backward

        def checked(loss):
            real_backward(loss)
            outputs = [e.output for tape in tapes for e in tape.entries]
            seen.append((len(tapes), outputs, {n: p.grad for n, p in model.parameters().items()}))

        monkeypatch.setattr(P, "backward", checked)
        P.train(model, pairs, pairs[:4])
        assert len(seen) == 1, "one batch, one step"
        n_tapes, outputs, grads = seen[0]
        assert n_tapes == 3, "the step's tape and one tape per side"
        assert outputs and all(t.grad is None for t in outputs)
        assert all(g is not None for g in grads.values())

    # Dropout sites per side: the embedding (recurrent-first kinds) or the
    # attention input, each recurrent layer above the first, the attention
    # input and two per attention layer. The head adds two more.
    @pytest.mark.parametrize("kind, sites", [("lstm", 2), ("onlstm", 2), ("san", 5), ("hybrid", 4)])
    def test_train_applies_dropout_at_every_site(self, kind, sites, monkeypatch):
        # the rng is the only training switch: a step that lost it would run
        # as evaluation, with no dropout entry on its tapes
        pairs = pairs_with_ops(22, 2, max_ops=3)
        model = P.PairClassifier(tiny_config(
            kind, epochs=1, batch_size=len(pairs), encoder_overrides=dict(dropout=0.2),
        ))
        tapes = _record_tapes(monkeypatch)
        seen = []
        real_backward = P.backward

        def counted(loss):
            step, *sides = tapes
            assert step is T.active_tape()
            seen.append([[e.op for e in t.entries].count("dropout") for t in [step] + sides])
            real_backward(loss)

        monkeypatch.setattr(P, "backward", counted)
        P.train(model, pairs, pairs[:4])
        assert seen == [[2, sites, sites]], "one batch, one step, every dropout site drawn"

    def test_zero_learning_rate_leaves_parameters_untouched(self):
        pairs = pairs_with_ops(6, 3, max_ops=4)
        model = P.PairClassifier(tiny_config("lstm", lr=0.0))
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        P.train(model, pairs, pairs[:8])
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_same_seed_reproduces_run_metrics_exactly(self):
        pairs = pairs_with_ops(7, 3, max_ops=4)
        runs = []
        for _ in range(2):
            model = P.PairClassifier(tiny_config("hybrid", epochs=2))
            to_float64(model.parameters())
            runs.append(P.train(model, pairs, pairs[:10]))
        assert runs[0] == runs[1]
        assert runs[0].epochs == runs[1].epochs

    def test_different_seed_changes_the_run(self):
        pairs = pairs_with_ops(8, 3, max_ops=4)
        a = P.train(P.PairClassifier(tiny_config("lstm", seed=1)), pairs, pairs[:8])
        b = P.train(P.PairClassifier(tiny_config("lstm", seed=2)), pairs, pairs[:8])
        assert a.epochs[0].train_loss != b.epochs[0].train_loss

    def test_training_cap_filters_long_examples(self):
        pairs = pairs_with_ops(9, 2, max_ops=8)
        only_long = [p for p in pairs if p.op_count >= 7]
        model = P.PairClassifier(tiny_config("lstm"))
        with pytest.raises(DataError, match="op_count"):
            P.train(model, only_long, pairs[:4])

    def test_small_subset_is_learnable(self):
        pairs = [p for p in pairs_with_ops(10, 3, max_ops=4) if p.op_count <= 4][:16]
        cfg = tiny_config("lstm", epochs=80, batch_size=8, lr=1e-2)
        cfg = dataclasses.replace(cfg, encoder=dataclasses.replace(cfg.encoder, d=16))
        model = P.PairClassifier(cfg)
        metrics = P.train(model, pairs, pairs)
        assert metrics.epochs[-1].dev_accuracy == 1.0

    def test_non_finite_loss_aborts_with_step_identity(self, monkeypatch):
        pairs = pairs_with_ops(11, 2, max_ops=3)
        model = P.PairClassifier(tiny_config("lstm"))

        def poisoned(logits, labels):
            return T.Tensor(np.asarray(np.nan))

        monkeypatch.setattr(P, "cross_entropy", poisoned)
        with pytest.raises(NumericsError, match="epoch 1, batch 0"):
            P.train(model, pairs, pairs[:4])

    def test_checkpoint_holds_best_epoch_and_reproduces_dev_accuracy(self, tmp_path):
        pairs = pairs_with_ops(12, 3, max_ops=4)
        dev = pairs[: len(pairs) // 3]
        model = P.PairClassifier(tiny_config("onlstm", epochs=3, lr=1e-3))
        path = tmp_path / "best.ckpt"
        metrics = P.train(model, pairs, dev, checkpoint_path=path)
        loaded, config = P.load_model(path)
        dev_capped = [p for p in dev if p.op_count <= model.config.train_cap]
        assert P.evaluate(loaded, dev_capped).accuracy == metrics.best_dev_accuracy
        assert config["train"]["seed"] == model.config.seed

    def test_progress_callback_sees_every_epoch(self):
        pairs = pairs_with_ops(13, 2, max_ops=3)
        seen = []
        P.train(
            P.PairClassifier(tiny_config("lstm", epochs=3)),
            pairs, pairs[:6], progress=seen.append,
        )
        assert [row.epoch for row in seen] == [1, 2, 3]


class TestEvaluation:
    def test_oracle_stub_scores_one_everywhere(self):
        pairs = pairs_with_ops(14, 4, max_ops=8)
        ex = P.prepare_examples(pairs)
        stub = _OracleStub(ex)
        report = P.evaluate_by_length(stub, ex, P.LENGTH_BINS, 6)
        assert report.bins, "expected populated bins"
        for stats in report.bins.values():
            assert stats.accuracy == 1.0
        for stats in report.aggregates.values():
            assert stats.accuracy == 1.0

    def test_random_stub_sits_near_one_seventh(self):
        pairs = pairs_with_ops(15, 40, max_ops=6)
        result = P.evaluate(_RandomStub(3), P.prepare_examples(pairs))
        assert abs(result.accuracy - 1.0 / 7.0) < 0.03

    def test_majority_column_matches_independent_histogram(self):
        pairs = pairs_with_ops(16, 6, max_ops=8)
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_RandomStub(5), ex, P.LENGTH_BINS, 6)
        for b, stats in report.bins.items():
            labels = [e.label for e in ex if e.op_count == b]
            top = Counter(labels).most_common(1)[0][1]
            assert stats.majority_baseline == pytest.approx(top / len(labels))
            assert stats.n == len(labels)

    def test_empty_bins_and_aggregates_are_absent(self):
        pairs = [p for p in pairs_with_ops(17, 3, max_ops=3)]
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_OracleStub(ex), ex, P.LENGTH_BINS, 6)
        assert set(report.bins) <= {1, 2, 3}
        assert "ge7" not in report.aggregates
        assert "le6" in report.aggregates

    def test_aggregates_split_at_boundary(self):
        pairs = pairs_with_ops(18, 5, max_ops=8)
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_OracleStub(ex), ex, P.LENGTH_BINS, 6)
        n_low = sum(1 for e in ex if e.op_count <= 6)
        n_high = sum(1 for e in ex if e.op_count >= 7)
        assert report.aggregates["le6"].n == n_low
        assert report.aggregates["ge7"].n == n_high

    # The shipped limits, and limits small enough that pairs over the token
    # limit occur and must run alone.
    @pytest.mark.parametrize("max_pairs, max_tokens", [(P.EVAL_MAX_PAIRS, P.EVAL_MAX_TOKENS), (7, 30)])
    def test_batches_sort_by_width_within_both_limits(self, max_pairs, max_tokens, monkeypatch):
        monkeypatch.setattr(P, "EVAL_MAX_PAIRS", max_pairs)
        monkeypatch.setattr(P, "EVAL_MAX_TOKENS", max_tokens)
        pairs = [p for p in pairs_with_ops(21, 40, max_ops=8) if p.op_count >= 1]
        ex = P.prepare_examples([pairs[i] for i in np.random.default_rng(3).permutation(len(pairs))])
        recorder = _BatchRecorder()
        P.evaluate(recorder, ex)
        seen = Counter(key for keys, _ in recorder.batches for key in keys)
        assert seen == Counter(_pair_key(e.premise_ids, e.hyp_ids) for e in ex)
        widths = [w for _, batch_widths in recorder.batches for w in batch_widths]
        assert widths == sorted(widths)
        assert len(recorder.batches) > 2
        for i, (keys, batch_widths) in enumerate(recorder.batches):
            n, width = len(keys), max(batch_widths)
            assert n == 1 or (n <= max_pairs and n * width <= max_tokens)
            if i + 1 < len(recorder.batches):  # greedy: the next pair did not fit
                assert n == max_pairs or (n + 1) * recorder.batches[i + 1][1][0] > max_tokens
        if max_tokens < P.EVAL_MAX_TOKENS:
            assert any(w > max_tokens for w in widths)

    def test_predictions_match_single_pair_argmax_in_input_order(self):
        pairs = [p for p in pairs_with_ops(22, 36, max_ops=8) if p.op_count >= 1]
        ex = P.prepare_examples([pairs[i] for i in np.random.default_rng(4).permutation(len(pairs))])
        model = P.PairClassifier(tiny_config("hybrid"))
        preds = P.evaluate(model, ex).predictions
        with T.no_grad():
            singles = np.concatenate([
                model.forward_joint(*P._batch_arrays(ex, [i])[:2]).data for i in range(len(ex))
            ])
        # Padding moves logits at rounding level; near-ties may flip.
        top2 = np.sort(singles, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-4
        assert len(ex) > P.EVAL_MAX_PAIRS and clear.sum() > len(ex) // 2
        np.testing.assert_array_equal(preds[clear], np.argmax(singles, axis=1)[clear])

    def test_length_report_does_not_go_through_evaluate(self, monkeypatch):
        # perfbench's tracer wraps `evaluate` to time train()'s dev pass alone.
        ex = P.prepare_examples(pairs_with_ops(23, 2, max_ops=3))
        monkeypatch.setattr(P, "evaluate", None)
        assert P.evaluate_by_length(_OracleStub(ex), ex, P.LENGTH_BINS, 6).aggregates["le6"].accuracy == 1.0

    def test_empty_evaluation_is_an_error(self):
        with pytest.raises(DataError, match="no examples"):
            P.evaluate(_RandomStub(0), [])
        with pytest.raises(DataError, match="no examples"):
            P.evaluate_by_length(_RandomStub(0), [], P.LENGTH_BINS, 6)


class _CountingWorker(ThreadPoolExecutor):
    """A one-thread executor that counts the jobs it is given."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.jobs = 0

    def submit(self, *args, **kwargs):
        self.jobs += 1
        return super().submit(*args, **kwargs)


def _tiny_preset_model(preset):
    args = argparse.Namespace(preset=preset, config=None, tiny=True, seed=None)
    model = P.PairClassifier(resolve_train_config(args)[0])
    # Off init, where the u - v head no longer cancels what the sides share.
    shift = np.random.default_rng(31)
    for p in model.parameters().values():
        p.data += shift.uniform(-0.1, 0.1, p.shape).astype(p.dtype)
    return model


class TestTwoThreadEvaluation:
    """With a worker, forward_joint encodes the two sides on two threads."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("n_pairs", [2, 9])
    def test_split_logits_equal_the_joint_path(self, preset, n_pairs):
        pairs = [p for p in pairs_with_ops(32, 2, max_ops=8) if p.op_count >= 1]
        ex = P.prepare_examples(pairs)
        idx = np.random.default_rng(33).permutation(len(ex))[:n_pairs]
        ids, mask, _ = P._batch_arrays(ex, idx)
        assert len(set(mask.sum(axis=1))) > 2, "a ragged batch"
        model = _tiny_preset_model(preset)
        with T.no_grad(), _CountingWorker() as worker:
            joint = model.forward_joint(ids, mask).data
            split = model.forward_joint(ids, mask, worker=worker).data
        assert worker.jobs == 1
        assert np.array_equal(split, joint)

    def test_one_pair_batch_stays_joint(self):
        ex = P.prepare_examples(pairs_with_ops(34, 1, max_ops=4)[3:4])
        ids, mask, _ = P._batch_arrays(ex, [0])
        model = _tiny_preset_model("hybrid-shortcut")
        with T.no_grad(), _CountingWorker() as worker:
            joint = model.forward_joint(ids, mask).data
            split = model.forward_joint(ids, mask, worker=worker).data
        assert worker.jobs == 0
        assert np.array_equal(split, joint)

    def test_evaluate_inside_a_tape_scope_records_nothing(self):
        ex = P.prepare_examples(pairs_with_ops(35, 3, max_ops=4))
        model = P.PairClassifier(tiny_config("hybrid"))
        with T.tape_scope() as tape:
            P.evaluate(model, ex)
        assert tape.entries == []


def _gradients(model, ids, mask, labels, **kwargs):
    """Every parameter's gradient after one recorded pass; the grads are reset."""
    params = model.parameters()
    with T.tape_scope():
        T.backward(T.cross_entropy(model.forward_joint(ids, mask, **kwargs), labels))
    grads = {n: p.grad for n, p in params.items()}
    for p in params.values():
        p.zero_grad()
    return grads


class TestTwoThreadTraining:
    """A recorded split pass: two side tapes, backpropagated on two threads."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_split_gradients_match_the_joint_path(self, preset):
        pairs = [p for p in pairs_with_ops(32, 2, max_ops=8) if p.op_count >= 1]
        ex = P.prepare_examples(pairs)
        idx = np.random.default_rng(36).permutation(len(ex))[:9]
        ids, mask, labels = P._batch_arrays(ex, idx)
        assert len(set(mask.sum(axis=1))) > 2, "a ragged batch"
        model = _tiny_preset_model(preset)
        to_float64(model.parameters())
        joint = _gradients(model, ids, mask, labels)
        with _CountingWorker() as worker:
            split = _gradients(model, ids, mask, labels, worker=worker)
        assert worker.jobs == 2, "one side's forward and its backward"
        assert joint.keys() == split.keys()
        for name, g in joint.items():
            assert np.abs(g).max() > 0, name
            rel = np.abs(split[name] - g).max() / np.abs(g).max()
            assert rel <= 1e-12, (name, rel)

    def test_dropout_runs_reproduce_bit_for_bit(self):
        pairs = pairs_with_ops(37, 3, max_ops=4)
        runs = []
        for _ in range(2):
            model = P.PairClassifier(tiny_config(
                "hybrid", epochs=3, batch_size=4, encoder_overrides=dict(dropout=0.2),
            ))
            P.train(model, pairs, pairs[:8])
            runs.append({n: p.data for n, p in model.parameters().items()})
        for name, data in runs[0].items():
            assert np.array_equal(data, runs[1][name]), name

    def test_split_dropout_needs_a_stream_per_side(self):
        ex = P.prepare_examples(pairs_with_ops(39, 1, max_ops=4))
        ids, mask, _ = P._batch_arrays(ex, range(4))
        model = P.PairClassifier(tiny_config("lstm", encoder_overrides=dict(dropout=0.2)))
        with _CountingWorker() as worker, pytest.raises(ContractError, match="hypothesis"):
            model.forward_joint(ids, mask, rng=np.random.default_rng(0), worker=worker)
        assert worker.jobs == 0

    def test_one_pair_training_batches_give_the_worker_no_job(self, monkeypatch):
        executors = []

        def counting(max_workers):
            assert max_workers == 1
            executors.append(_CountingWorker())
            return executors[-1]

        monkeypatch.setattr(P, "ThreadPoolExecutor", counting)
        pairs = pairs_with_ops(38, 1, max_ops=4)
        dev_ids, _, _ = P._batch_arrays(P.prepare_examples(pairs[:4]), range(4))
        assert len(np.unique(dev_ids, axis=0)) >= 4, "both halves of the dev batch hold 2 rows"
        model = P.PairClassifier(tiny_config("hybrid", epochs=1, batch_size=1))
        P.train(model, pairs, pairs[:4])
        train_worker, dev_worker = executors
        assert train_worker.jobs == 0
        assert dev_worker.jobs == 1, "the dev pass still splits its 4-pair batch"


def _repeating_batch():
    """A ragged 10-pair batch with many repeated rows, one pair with premise = hypothesis."""
    ex = P.prepare_examples([p for p in pairs_with_ops(40, 2, max_ops=5) if p.op_count <= 3])
    same = ex[5].premise_ids
    ex.append(P.PreparedExample(same, same, 0, 1))
    return P._batch_arrays(ex, [0, 1, 2, 0, 3, 1, 6, len(ex) - 1, 0, 4])


def _count_encoded_rows(model, monkeypatch):
    """Patch `model._pooled` to record the row count of every batch it encodes."""
    rows = []
    pooled = model._pooled

    def counting(ids, mask, rng=None):
        rows.append(len(ids))
        return pooled(ids, mask, rng)

    monkeypatch.setattr(model, "_pooled", counting)
    return rows


class TestDistinctRows:
    """Without dropout, forward_joint encodes each distinct row of a batch once."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_logits_equal_the_all_rows_pass(self, preset, monkeypatch):
        ids, mask, _ = _repeating_batch()
        distinct = len(np.unique(ids, axis=0))
        assert 4 <= distinct <= len(ids) - 6, "a batch with many repeats"
        assert len(set(mask.sum(axis=1))) > 2, "a ragged batch"
        model = _tiny_preset_model(preset)
        with T.no_grad():
            reference = all_rows_logits(model, ids, mask).data
            rows = _count_encoded_rows(model, monkeypatch)
            joint = model.forward_joint(ids, mask).data
            assert rows == [distinct]
            rows.clear()
            with _CountingWorker() as worker:
                split = model.forward_joint(ids, mask, worker=worker).data
        assert worker.jobs == 1
        assert sorted(rows) == sorted([distinct // 2, distinct - distinct // 2])
        assert np.array_equal(joint, reference)
        assert np.array_equal(split, reference)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_gradients_match_the_all_rows_pass(self, preset):
        ids, mask, labels = _repeating_batch()
        model = _tiny_preset_model(preset)
        to_float64(model.parameters())
        with T.tape_scope():
            T.backward(T.cross_entropy(all_rows_logits(model, ids, mask), labels))
        reference = {n: p.grad for n, p in model.parameters().items()}
        for p in model.parameters().values():
            p.zero_grad()
        joint = _gradients(model, ids, mask, labels)
        with _CountingWorker() as worker:
            split = _gradients(model, ids, mask, labels, worker=worker)
        assert worker.jobs == 2, "one half's forward and its backward"
        for name, g in reference.items():
            assert np.abs(g).max() > 0, name
            for grads in (joint, split):
                rel = np.abs(grads[name] - g).max() / np.abs(g).max()
                assert rel <= 1e-12, (name, rel)

    def test_one_pair_with_equal_sides_keeps_both_rows(self, monkeypatch):
        same = P.encode_tokens("( a ( and ( not b ) ) )")
        ids, mask, _ = P._batch_arrays([P.PreparedExample(same, same, 0, 2)], [0])
        model = _tiny_preset_model("hybrid-shortcut")
        with T.no_grad():
            reference = all_rows_logits(model, ids, mask).data
            rows = _count_encoded_rows(model, monkeypatch)
            with _CountingWorker() as worker:
                logits = model.forward_joint(ids, mask, worker=worker).data
        assert rows == [2]
        assert worker.jobs == 0
        assert np.array_equal(logits, reference)

    def test_training_encodes_every_row(self, monkeypatch):
        ids, mask, _ = _repeating_batch()
        model = _tiny_preset_model("lstm")
        rows = _count_encoded_rows(model, monkeypatch)
        with T.no_grad(), _CountingWorker() as worker:
            model.forward_joint(ids, mask, rng=np.random.default_rng(0), worker=worker,
                                hyp_rng=np.random.default_rng(1))
        assert sorted(rows) == [len(ids) // 2, len(ids) // 2]


class TestConfigAndCsv:
    def test_cap_must_sit_below_largest_bin(self):
        with pytest.raises(ConfigError, match="largest eval bin"):
            tiny_config("lstm", train_cap=8)

    def test_built_config_is_frozen_and_replace_revalidates(self):
        cfg = tiny_config("lstm")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = 1e-3
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.encoder.d = 16
        with pytest.raises(ConfigError, match="lr must be finite"):
            dataclasses.replace(cfg, lr=-1.0)

    def test_from_dict_rejects_unknown_keys(self):
        base = tiny_config("lstm").to_dict()
        base["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="unknown train config"):
            P.TrainConfig.from_dict(base)
        base = tiny_config("lstm").to_dict()
        base["encoder"]["n_heads"] = 2
        with pytest.raises(ConfigError, match="unknown encoder config"):
            P.TrainConfig.from_dict(base)

    def test_config_round_trip(self):
        cfg = tiny_config("hybrid", epochs=5, lr=3e-4)
        again = P.TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_metrics_csv_layout(self, tmp_path):
        pairs = pairs_with_ops(19, 3, max_ops=8)
        model = P.PairClassifier(tiny_config("lstm", epochs=2))
        metrics = P.train(model, pairs, pairs[:10])
        out = tmp_path / "metrics.csv"
        with open(out, "w") as fh:
            P.write_metrics_csv(metrics, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,split,metric,value"
        assert lines[1].startswith("1,train,loss,")
        assert any(",run,seed," in ln for ln in lines)
        for ln in lines[1:]:
            assert len(ln.split(",")) == 4

    def test_length_csv_layout(self):
        pairs = pairs_with_ops(20, 3, max_ops=8)
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_OracleStub(ex), ex, P.LENGTH_BINS, 6)
        import io

        buf = io.StringIO()
        P.write_length_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "bin,n,accuracy,majority_baseline"
        assert lines[-2].startswith("le6,")
        assert lines[-1].startswith("ge7,")
        assert len(lines) == 1 + len(report.bins) + len(report.aggregates)
