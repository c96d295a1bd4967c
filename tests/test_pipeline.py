"""Pipeline tests: pooling, classification head, training loop, length report.

The evaluation tests drive the report through stub models whose predictions
are known exactly (an oracle that reads the true labels, a seeded random
guesser), so accuracy values can be checked against independent arithmetic
rather than against the pipeline's own bookkeeping.
"""

from collections import Counter

import numpy as np
import pytest

import seqstack.pipeline as P
import seqstack.tensor as T
from seqstack import ConfigError, DataError, NumericsError
from seqstack.encoder import EncoderConfig
from seqstack.gradcheck import finite_difference_check
from seqstack.logic import make_pair, sample_expression, serialize


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
    enc = dict(kind=kind, vocab_size=len(P.VOCAB), d=8, heads=2, d_ff=16, chunk=2)
    if kind == "san":
        enc.update(attention_layers=2, use_positional=True)
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


class _OracleStub:
    """Predicts the true label by reading the evaluation stream in order."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.cursor = 0

    def forward_joint(self, ids, mask, training=False, rng=None):
        b = ids.shape[0] // 2
        logits = np.zeros((b, P.N_RELATIONS))
        for i in range(b):
            logits[i, self.labels[self.cursor + i]] = 10.0
        self.cursor += b
        return T.constant(logits)


class _RandomStub:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def forward_joint(self, ids, mask, training=False, rng=None):
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


class TestPooling:
    def test_last_hidden_matches_manual_indexing(self, rng):
        x = rng.standard_normal((1, 5, 8))
        pooled = P.pool_last_hidden(T.constant(x), np.array([5]))
        np.testing.assert_array_equal(pooled.data[0], x[0, 4])

    def test_last_hidden_uses_per_example_lengths(self, rng):
        x = rng.standard_normal((3, 6, 4))
        lengths = np.array([6, 2, 4])
        pooled = P.pool_last_hidden(T.constant(x), lengths)
        for i, n in enumerate(lengths):
            np.testing.assert_array_equal(pooled.data[i], x[i, n - 1])

    def test_trainable_queries_single_row_duplicates_it(self, rng):
        q = T.constant(rng.standard_normal((2, 4)))
        row = rng.standard_normal((1, 1, 4))
        pooled = P.pool_trainable_queries(q, T.constant(row), np.ones((1, 1)))
        np.testing.assert_allclose(
            pooled.data[0], np.concatenate([row[0, 0], row[0, 0]]), atol=1e-12
        )

    def test_trainable_queries_ignore_masked_rows(self, rng):
        q = T.constant(rng.standard_normal((2, 4)))
        seq = rng.standard_normal((2, 5, 4))
        mask = np.ones((2, 5))
        mask[1, 3:] = 0.0
        seq_garbled = seq.copy()
        seq_garbled[1, 3:] = 77.0
        a = P.pool_trainable_queries(q, T.constant(seq), mask)
        b = P.pool_trainable_queries(q, T.constant(seq_garbled), mask)
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)

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
        assert P.PairClassifier(tiny_config("onlstm")).pooling == "last_hidden"
        assert P.PairClassifier(tiny_config("hybrid")).pooling == "trainable_queries"


class TestClassifierHead:
    def test_zero_weights_give_constant_bias_logits(self, rng):
        head = P.ClassifierHead(12, 16, 0.0, rng)
        for name, p in head.parameters().items():
            if name.startswith("w"):
                p.data[:] = 0.0
        head.b3.data[:] = np.arange(7.0)
        u = T.constant(rng.standard_normal((5, 6)))
        v = T.constant(rng.standard_normal((5, 6)))
        logits = P.classify_pair(head, u, v)
        np.testing.assert_allclose(logits.data, np.tile(np.arange(7.0), (5, 1)), atol=1e-12)

    def test_swapping_sides_changes_logits(self, rng):
        head = P.ClassifierHead(12, 16, 0.0, np.random.default_rng(7))
        u = T.constant(rng.standard_normal((4, 6)))
        v = T.constant(rng.standard_normal((4, 6)))
        fwd = P.classify_pair(head, u, v)
        rev = P.classify_pair(head, v, u)
        assert np.abs(fwd.data - rev.data).max() > 1e-4

    def test_full_model_gradcheck_at_small_width(self):
        pairs = pairs_with_ops(3, 1, max_ops=4)
        with T.dtype_scope("float64"):
            model = P.PairClassifier(tiny_config("hybrid", dropout=0.0))
            ex = P.prepare_examples(pairs[:4])
            ids, mask, labels = P._batch_arrays(ex, range(4))

            def build_loss():
                return T.cross_entropy(model.forward_joint(ids, mask), labels)

            worst = finite_difference_check(
                build_loss, model.parameters(), max_entries=4,
                rng=np.random.default_rng(11),
            )
        assert max(worst.values()) < 1e-3, worst


class TestBuildPrecision:
    """A build computes in its own precision: no op may promote or demote."""

    @pytest.mark.parametrize("build", ["float32", "float64"])
    @pytest.mark.parametrize(
        "kind, short_cut",
        [("lstm", False), ("onlstm", False), ("san", False),
         ("hybrid", True), ("hybrid", False)],
    )
    def test_training_step_stays_in_build_dtype(self, build, kind, short_cut):
        dt = np.dtype(build)
        pairs = pairs_with_ops(4, 2, max_ops=4)
        with T.dtype_scope(build):
            cfg = tiny_config(
                kind, dropout=0.2,
                encoder_overrides=dict(dropout=0.2, use_short_cut=short_cut),
            )
            model = P.PairClassifier(cfg)
            ids, mask, labels = P._batch_arrays(P.prepare_examples(pairs), range(8))
            assert (mask == 0).any(), "the batch must carry padding"
            off = []

            def checked(op, back):
                def run(g):
                    contribs = back(g)
                    off.extend(f"{op} grad {c.dtype}" for _, c in contribs if c.dtype != dt)
                    return contribs
                return run

            with T.tape_scope() as tape:
                logits = model.forward_joint(
                    ids, mask, training=True, rng=np.random.default_rng(0)
                )
                loss = T.cross_entropy(logits, labels)
                for entry in tape.entries:
                    if entry.output.dtype != dt:
                        off.append(f"{entry.op} out {entry.output.dtype}")
                    entry.backward = checked(entry.op, entry.backward)
                T.backward(loss)
        if loss.dtype != dt:
            off.append(f"loss {loss.dtype}")
        for name, p in model.parameters().items():
            if p.dtype != dt:
                off.append(f"{name} data {p.dtype}")
            if p.grad is None or p.grad.dtype != dt:
                off.append(f"{name} .grad {None if p.grad is None else p.grad.dtype}")
        assert not off, f"{len(off)} off-dtype values, first: {off[:5]}"


class TestTraining:
    def test_first_batch_loss_near_uniform(self):
        # checked at realistic widths: the small-variance logit layer only
        # keeps the initial logits near zero once fan-in is large enough
        # (at toy hidden=16 the per-entry init noise is a visible fraction
        # of ln 7, so narrow widths would test noise, not the contract)
        pairs = pairs_with_ops(5, 4, max_ops=5)
        for kind in ("lstm", "onlstm", "san", "hybrid"):
            cfg = tiny_config(
                kind, classifier_hidden=256,
                encoder_overrides=dict(d=64, heads=4, d_ff=256, chunk=4),
            )
            model = P.PairClassifier(cfg)
            ex = P.prepare_examples(pairs)
            ids, mask, labels = P._batch_arrays(ex, range(16))
            loss = T.cross_entropy(model.forward_joint(ids, mask), labels)
            assert abs(loss.item() - np.log(7.0)) < 0.2, kind

    def test_zero_learning_rate_leaves_parameters_untouched(self):
        pairs = pairs_with_ops(6, 3, max_ops=4)
        model = P.PairClassifier(tiny_config("lstm", lr=0.0))
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        P.train(model, pairs, pairs[:8])
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_same_seed_reproduces_run_metrics_exactly(self):
        pairs = pairs_with_ops(7, 3, max_ops=4)
        T.set_default_dtype("float64")
        runs = []
        for _ in range(2):
            model = P.PairClassifier(tiny_config("hybrid", epochs=2))
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
        cfg = tiny_config("lstm", epochs=80, batch_size=8, lr=1e-2, dropout=0.0)
        cfg.encoder.d = 16
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
        stub = _OracleStub([e.label for e in ex])
        report = P.evaluate_by_length(stub, ex, batch_size=32)
        assert report.bins, "expected populated bins"
        for stats in report.bins.values():
            assert stats.accuracy == 1.0
        for stats in report.aggregates.values():
            assert stats.accuracy == 1.0

    def test_random_stub_sits_near_one_seventh(self):
        pairs = pairs_with_ops(15, 40, max_ops=6)
        result = P.evaluate(_RandomStub(3), P.prepare_examples(pairs), batch_size=128)
        assert abs(result.accuracy - 1.0 / 7.0) < 0.03

    def test_majority_column_matches_independent_histogram(self):
        pairs = pairs_with_ops(16, 6, max_ops=8)
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_RandomStub(5), ex)
        for b, stats in report.bins.items():
            labels = [e.label for e in ex if e.op_count == b]
            top = Counter(labels).most_common(1)[0][1]
            assert stats.majority_baseline == pytest.approx(top / len(labels))
            assert stats.n == len(labels)

    def test_empty_bins_and_aggregates_are_absent(self):
        pairs = [p for p in pairs_with_ops(17, 3, max_ops=3)]
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_OracleStub([e.label for e in ex]), ex)
        assert set(report.bins) <= {1, 2, 3}
        assert "ge7" not in report.aggregates
        assert "le6" in report.aggregates

    def test_aggregates_split_at_boundary(self):
        pairs = pairs_with_ops(18, 5, max_ops=8)
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_OracleStub([e.label for e in ex]), ex)
        n_low = sum(1 for e in ex if e.op_count <= 6)
        n_high = sum(1 for e in ex if e.op_count >= 7)
        assert report.aggregates["le6"].n == n_low
        assert report.aggregates["ge7"].n == n_high

    def test_empty_evaluation_is_an_error(self):
        with pytest.raises(DataError, match="no examples"):
            P.evaluate(_RandomStub(0), [])


class TestConfigAndCsv:
    def test_cap_must_sit_below_largest_bin(self):
        with pytest.raises(ConfigError, match="largest eval bin"):
            tiny_config("lstm", train_cap=8).validate()

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
        metrics.test = P.evaluate_by_length(model, pairs)
        out = tmp_path / "metrics.csv"
        with open(out, "w") as fh:
            P.write_metrics_csv(metrics, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,split,metric,value"
        assert lines[1].startswith("1,train,loss,")
        assert any(",test,accuracy_le6," in ln for ln in lines)
        assert any(",run,seed," in ln for ln in lines)
        for ln in lines[1:]:
            assert len(ln.split(",")) == 4

    def test_length_csv_layout(self):
        pairs = pairs_with_ops(20, 3, max_ops=8)
        ex = P.prepare_examples(pairs)
        report = P.evaluate_by_length(_OracleStub([e.label for e in ex]), ex)
        import io

        buf = io.StringIO()
        P.write_length_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "bin,n,accuracy,majority_baseline"
        assert lines[-2].startswith("le6,")
        assert lines[-1].startswith("ge7,")
        assert len(lines) == 1 + len(report.bins) + len(report.aggregates)
