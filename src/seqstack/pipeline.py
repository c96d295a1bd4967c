"""Entailment classification pipeline: tokenize, encode, pool, train, evaluate.

A premise/hypothesis pair is encoded by one shared encoder, each side is
pooled to a fixed vector, and a three-layer head maps the concatenation to
seven relation logits. Pooling is tied to the encoder kind: recurrent-final
encoders use their last real output row, attention-final encoders use two
trainable query vectors (a single row of an attention stack is not a summary
state, so they never pool the last row).

Training deliberately caps the operator count of the examples it consumes so
that longer sequences stay unseen until evaluation; `evaluate_by_length`
then reports accuracy per operator-count bin on both sides of that cap.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .attention import key_mask_bias, scaled_dot_attention
from .checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, DataError, NumericsError
from .logic import serialize
from .optim import Adam, clip_global_norm
from .rng import SeedStreams
from .tensor import (
    Tensor,
    add,
    backward,
    concat_last,
    cross_entropy,
    default_dtype,
    dropout,
    matmul,
    no_grad,
    parameter,
    relu,
    reshape,
    select_steps,
    slice_rows,
    tape_scope,
    tile_batch,
)

VOCAB = ("<pad>", "(", ")", "not", "or", "and", "a", "b", "c", "d", "e", "f")
PAD_ID = 0
TOKEN_IDS = {tok: i for i, tok in enumerate(VOCAB)}
N_RELATIONS = 7

POOLING_FOR_KIND = {
    "lstm": "last_hidden",
    "onlstm": "last_hidden",
    "san": "trainable_queries",
    "hybrid": "trainable_queries",
}
N_QUERIES = 2


def encode_tokens(text: str) -> np.ndarray:
    """Whitespace-tokenized expression text to vocabulary ids."""
    ids = []
    for tok in text.split():
        tid = TOKEN_IDS.get(tok)
        if tid is None:
            raise DataError(f"unknown token {tok!r} (vocabulary: {', '.join(VOCAB)})")
        ids.append(tid)
    if not ids:
        raise DataError("cannot encode an empty expression")
    return np.asarray(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# pooling


def pool_last_hidden(seq: Tensor, lengths: np.ndarray) -> Tensor:
    """Last real output row of each (batch, N, d) example, given its length."""
    return select_steps(seq, np.asarray(lengths, dtype=np.int64) - 1)


def pool_trainable_queries(queries: Tensor, seq: Tensor, mask: np.ndarray) -> Tensor:
    """Attend each learned query over the unmasked output rows; concatenate the reads.

    Keys and values are the encoder output rows themselves, so the only
    parameters here are the query vectors. Output is (batch, n_queries * d).
    """
    nq, d = queries.shape
    b = seq.shape[0]
    q = tile_batch(queries, b)
    pooled = scaled_dot_attention(q, seq, seq, key_mask_bias(mask, seq.dtype))
    return reshape(pooled, (b, nq * d))


# ---------------------------------------------------------------------------
# classifier head


def _affine_init(rng: np.random.Generator, d_in: int, d_out: int, gain: float = 1.0):
    dt = default_dtype()
    bound = gain * np.sqrt(3.0) / np.sqrt(d_in)
    w = parameter(rng.uniform(-bound, bound, size=(d_in, d_out)).astype(dt))
    b = parameter(np.zeros(d_out, dtype=dt))
    return w, b


class ClassifierHead:
    """Three affine layers over the concatenated pair representation.

    The hidden layers are relu with variance-preserving (gain sqrt(2))
    uniform init; the logit layer uses a small plain init so first-batch
    logits stay near zero (loss starts near ln(n_classes)) while gradients
    still reach the layers below it.
    """

    def __init__(self, d_pair: int, hidden: int, dropout_rate: float, rng):
        self.dropout_rate = dropout_rate
        self.w1, self.b1 = _affine_init(rng, d_pair, hidden, gain=np.sqrt(2.0))
        self.w2, self.b2 = _affine_init(rng, hidden, hidden, gain=np.sqrt(2.0))
        self.w3, self.b3 = _affine_init(rng, hidden, N_RELATIONS, gain=0.7 / np.sqrt(3.0))

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}w1": self.w1, f"{prefix}b1": self.b1,
            f"{prefix}w2": self.w2, f"{prefix}b2": self.b2,
            f"{prefix}w3": self.w3, f"{prefix}b3": self.b3,
        }

    def __call__(self, pair: Tensor, training: bool = False, rng=None) -> Tensor:
        h = relu(add(matmul(pair, self.w1), self.b1))
        h = dropout(h, self.dropout_rate, training, rng)
        h = relu(add(matmul(h, self.w2), self.b2))
        h = dropout(h, self.dropout_rate, training, rng)
        return add(matmul(h, self.w3), self.b3)


def classify_pair(head: ClassifierHead, u: Tensor, v: Tensor,
                  training: bool = False, rng=None) -> Tensor:
    """Relation logits for pooled premise u and hypothesis v."""
    return head(concat_last([u, v]), training=training, rng=rng)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    encoder: EncoderConfig
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-4
    dropout: float = 0.2
    clip_norm: float = 5.0
    seed: int = 42
    train_cap: int = 6
    eval_bins: tuple = tuple(range(1, 13))
    classifier_hidden: int = 512

    def validate(self) -> None:
        self.encoder.validate()
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (np.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.train_cap < 1:
            raise ConfigError(f"train_cap must be >= 1, got {self.train_cap}")
        if not self.eval_bins or any(int(b) < 1 for b in self.eval_bins):
            raise ConfigError(f"eval_bins must be positive ints, got {self.eval_bins}")
        if self.train_cap >= max(int(b) for b in self.eval_bins):
            raise ConfigError(
                f"train_cap ({self.train_cap}) must lie below the largest eval bin "
                f"({max(int(b) for b in self.eval_bins)}); otherwise no held-out "
                "lengths remain"
            )
        if self.classifier_hidden < 1:
            raise ConfigError(f"classifier_hidden must be >= 1, got {self.classifier_hidden}")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["eval_bins"] = [int(b) for b in self.eval_bins]
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"train config must be an object, got {type(raw).__name__}")
        data = dict(raw)
        enc_raw = data.pop("encoder", None)
        if enc_raw is None:
            raise ConfigError("train config is missing the 'encoder' section")
        known = {f.name for f in dataclasses.fields(cls) if f.name != "encoder"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown train config keys: {unknown}")
        if "eval_bins" in data:
            data["eval_bins"] = tuple(int(b) for b in data["eval_bins"])
        cfg = cls(encoder=encoder_config_from_dict(enc_raw), **data)
        cfg.validate()
        return cfg


# Ablation switches that no experiment used. Configs and checkpoints written
# before their removal store each one; only the value the code still
# implements is accepted.
_RETIRED_ENCODER_KEYS = {
    "reverse_cascade": False,
    "inter_layer_residual": True,
    "post_norm": False,
    "reversed_input_gate": False,
}


def encoder_config_from_dict(raw: dict) -> EncoderConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"encoder config must be an object, got {type(raw).__name__}")
    raw = dict(raw)
    for key, kept in _RETIRED_ENCODER_KEYS.items():
        if key in raw and raw.pop(key) is not kept:
            raise ConfigError(
                f"encoder config key {key!r} is retired; only {str(kept).lower()} is accepted"
            )
    known = {f.name for f in dataclasses.fields(EncoderConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown encoder config keys: {unknown}")
    try:
        cfg = EncoderConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad encoder config: {exc}") from exc
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# model


class PairClassifier:
    """Shared encoder + pooling + relation head over premise/hypothesis pairs."""

    def __init__(self, config: TrainConfig, streams: SeedStreams | None = None):
        config.validate()
        self.config = config
        streams = streams if streams is not None else SeedStreams(config.seed)
        self.pooling = POOLING_FOR_KIND[config.encoder.kind]
        self.encoder = Encoder(config.encoder, streams)
        d = config.encoder.d
        if self.pooling == "trainable_queries":
            rng = streams.stream("init", "pooling")
            bound = 1.0 / np.sqrt(d)
            self.queries = parameter(
                rng.uniform(-bound, bound, size=(N_QUERIES, d)).astype(default_dtype())
            )
            d_sent = N_QUERIES * d
        else:
            self.queries = None
            d_sent = d
        self.d_sent = d_sent
        self.head = ClassifierHead(
            2 * d_sent, config.classifier_hidden, config.dropout,
            streams.stream("init", "classifier"),
        )

    def parameters(self) -> dict[str, Tensor]:
        out = self.encoder.parameters("encoder.")
        if self.queries is not None:
            out["pooling.queries"] = self.queries
        out.update(self.head.parameters("head."))
        return out

    def forward_joint(self, ids: np.ndarray, mask: np.ndarray,
                      training: bool = False, rng=None) -> Tensor:
        """Logits from a stacked batch: rows [0, b) premises, [b, 2b) hypotheses."""
        if ids.shape[0] % 2 != 0:
            raise DataError(f"joint batch must stack premise and hypothesis rows, got {ids.shape}")
        b = ids.shape[0] // 2
        seq = self.encoder(ids, mask=mask, training=training, rng=rng).seq
        if self.pooling == "last_hidden":
            pooled = pool_last_hidden(seq, np.asarray(mask).sum(axis=1).astype(np.int64))
        else:
            pooled = pool_trainable_queries(self.queries, seq, mask)
        u = slice_rows(pooled, 0, b)
        v = slice_rows(pooled, b, 2 * b)
        return classify_pair(self.head, u, v, training=training, rng=rng)


# ---------------------------------------------------------------------------
# data preparation and batching


@dataclass
class PreparedExample:
    premise_ids: np.ndarray
    hyp_ids: np.ndarray
    label: int
    op_count: int


def prepare_examples(pairs) -> list[PreparedExample]:
    out = []
    for pair in pairs:
        out.append(
            PreparedExample(
                premise_ids=encode_tokens(serialize(pair.premise)),
                hyp_ids=encode_tokens(serialize(pair.hypothesis)),
                label=int(pair.label),
                op_count=pair.op_count,
            )
        )
    return out


def _batch_arrays(examples: list[PreparedExample], indices) -> tuple:
    """Stacked (2b, N) ids/mask plus (b,) labels for the chosen examples."""
    chosen = [examples[i] for i in indices]
    b = len(chosen)
    n = max(max(len(e.premise_ids), len(e.hyp_ids)) for e in chosen)
    ids = np.full((2 * b, n), PAD_ID, dtype=np.int64)
    mask = np.zeros((2 * b, n))
    labels = np.empty(b, dtype=np.int64)
    for i, ex in enumerate(chosen):
        ids[i, : len(ex.premise_ids)] = ex.premise_ids
        mask[i, : len(ex.premise_ids)] = 1.0
        ids[b + i, : len(ex.hyp_ids)] = ex.hyp_ids
        mask[b + i, : len(ex.hyp_ids)] = 1.0
        labels[i] = ex.label
    return ids, mask, labels


def _predict(model: PairClassifier, examples: list[PreparedExample],
             batch_size: int) -> np.ndarray:
    """Argmax predictions for examples in their given order, gradient-free."""
    preds = np.empty(len(examples), dtype=np.int64)
    with no_grad():
        for start in range(0, len(examples), batch_size):
            idx = range(start, min(start + batch_size, len(examples)))
            ids, mask, _ = _batch_arrays(examples, idx)
            logits = model.forward_joint(ids, mask, training=False)
            preds[start : start + len(logits.data)] = np.argmax(logits.data, axis=1)
    return preds


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    dev_accuracy: float


@dataclass
class BinStats:
    n: int
    accuracy: float
    majority_baseline: float


@dataclass
class LengthReport:
    """Accuracy by operator-count bin, plus in/out-of-cap aggregates."""

    bins: dict
    aggregates: dict
    boundary: int


@dataclass
class RunMetrics:
    seed: int
    epochs: list
    best_epoch: int
    best_dev_accuracy: float
    wall_clock_seconds: float = field(compare=False, default=0.0)
    test: LengthReport | None = None


def _majority_fraction(labels: np.ndarray) -> float:
    counts = np.bincount(labels, minlength=N_RELATIONS)
    return float(counts.max() / labels.size)


def _subset_stats(correct: np.ndarray, labels: np.ndarray, member: np.ndarray):
    n = int(member.sum())
    if n == 0:
        return None
    return BinStats(
        n=n,
        accuracy=float(correct[member].mean()),
        majority_baseline=_majority_fraction(labels[member]),
    )


# ---------------------------------------------------------------------------
# train / evaluate


@dataclass
class EvalResult:
    n: int
    accuracy: float
    predictions: np.ndarray
    labels: np.ndarray


def evaluate(model: PairClassifier, pairs, batch_size: int = 256) -> EvalResult:
    """Accuracy over labeled pairs, in order, without touching gradients."""
    if not pairs:
        raise DataError("no examples to evaluate")
    examples = pairs if isinstance(pairs[0], PreparedExample) else prepare_examples(pairs)
    preds = _predict(model, examples, batch_size)
    labels = np.asarray([e.label for e in examples], dtype=np.int64)
    return EvalResult(
        n=len(examples),
        accuracy=float((preds == labels).mean()),
        predictions=preds,
        labels=labels,
    )


def evaluate_by_length(model: PairClassifier, pairs, bins=None,
                       batch_size: int = 256, boundary: int = 6) -> LengthReport:
    """Per-bin accuracy with majority baselines; empty bins are omitted.

    Aggregate rows split the pairs at `boundary` operators: at most boundary
    (seen lengths under the default training cap) versus strictly more.
    """
    if not pairs:
        raise DataError("no examples to evaluate")
    bins = tuple(range(1, 13)) if bins is None else tuple(int(b) for b in bins)
    examples = pairs if isinstance(pairs[0], PreparedExample) else prepare_examples(pairs)
    preds = _predict(model, examples, batch_size)
    labels = np.asarray([e.label for e in examples], dtype=np.int64)
    ops = np.asarray([e.op_count for e in examples], dtype=np.int64)
    correct = preds == labels
    report_bins = {}
    for b in bins:
        stats = _subset_stats(correct, labels, ops == b)
        if stats is not None:
            report_bins[b] = stats
    aggregates = {}
    low = _subset_stats(correct, labels, ops <= boundary)
    if low is not None:
        aggregates[f"le{boundary}"] = low
    high = _subset_stats(correct, labels, ops > boundary)
    if high is not None:
        aggregates[f"ge{boundary + 1}"] = high
    return LengthReport(bins=report_bins, aggregates=aggregates, boundary=boundary)


def train(model: PairClassifier, train_pairs, dev_pairs,
          checkpoint_path=None, progress=None) -> RunMetrics:
    """Minibatch Adam under the operator-count cap, selecting on dev accuracy.

    The dev set is filtered to the same cap: model selection must not peek at
    the held-out lengths. When `checkpoint_path` is given, the parameters are
    saved every time dev accuracy improves, so the file always holds the best
    epoch seen so far.
    """
    config = model.config
    cap = config.train_cap
    train_ex = [e for e in prepare_examples(train_pairs) if e.op_count <= cap]
    dev_ex = [e for e in prepare_examples(dev_pairs) if e.op_count <= cap]
    if not train_ex:
        raise DataError(f"no training examples with op_count <= {cap}")
    if not dev_ex:
        raise DataError(f"no dev examples with op_count <= {cap}")
    params = model.parameters()
    adam = Adam(params, lr=config.lr)
    streams = SeedStreams(config.seed)
    dropout_rng = streams.stream("train", "dropout")
    started = time.perf_counter()
    epoch_rows: list[EpochMetrics] = []
    best_acc = -1.0
    best_epoch = 0
    global_step = 0
    for epoch in range(1, config.epochs + 1):
        order = streams.stream("train", "shuffle", f"epoch{epoch}").permutation(len(train_ex))
        loss_sum = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            ids, mask, labels = _batch_arrays(train_ex, batch_idx)
            with tape_scope():
                logits = model.forward_joint(ids, mask, training=True, rng=dropout_rng)
                loss = cross_entropy(logits, labels)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericsError(
                        f"non-finite training loss at epoch {epoch}, "
                        f"batch {start // config.batch_size}, global step {global_step}"
                    )
                backward(loss)
            clip_global_norm(params, config.clip_norm)
            adam.step()
            adam.zero_grad()
            loss_sum += value * len(batch_idx)
            correct += int((np.argmax(logits.data, axis=1) == labels).sum())
            global_step += 1
        dev_acc = evaluate(model, dev_ex, batch_size=max(config.batch_size, 256)).accuracy
        row = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / len(train_ex),
            train_accuracy=correct / len(train_ex),
            dev_accuracy=dev_acc,
        )
        epoch_rows.append(row)
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_epoch = epoch
            if checkpoint_path is not None:
                save_model(checkpoint_path, model)
        if progress is not None:
            progress(row)
    return RunMetrics(
        seed=config.seed,
        epochs=epoch_rows,
        best_epoch=best_epoch,
        best_dev_accuracy=best_acc,
        wall_clock_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# persistence

_CHECKPOINT_KIND = "pair-classifier"


def save_model(path, model: PairClassifier) -> None:
    config = {"model": _CHECKPOINT_KIND, "train": model.config.to_dict()}
    save_checkpoint(path, config, model.parameters())


def load_model(path) -> tuple[PairClassifier, dict]:
    """Rebuild the model a checkpoint describes and restore its parameters."""
    config, arrays = load_checkpoint(path)
    if not isinstance(config, dict):
        raise DataError(f"{path}: checkpoint config must be an object, "
                        f"got {type(config).__name__}")
    if config.get("model") != _CHECKPOINT_KIND:
        raise DataError(f"{path}: checkpoint holds {config.get('model')!r}, "
                        f"expected {_CHECKPOINT_KIND!r}")
    try:
        train_config = TrainConfig.from_dict(config.get("train"))
    except ConfigError as exc:
        raise DataError(f"{path}: bad model config: {exc}") from exc
    model = PairClassifier(train_config)
    restore_parameters(model.parameters(), arrays)
    return model, config


# ---------------------------------------------------------------------------
# CSV writers


def write_metrics_csv(metrics: RunMetrics, fh) -> None:
    """Long-format run log: one (epoch, split, metric, value) row per line."""
    fh.write("epoch,split,metric,value\n")
    for row in metrics.epochs:
        fh.write(f"{row.epoch},train,loss,{row.train_loss:.10g}\n")
        fh.write(f"{row.epoch},train,accuracy,{row.train_accuracy:.10g}\n")
        fh.write(f"{row.epoch},dev,accuracy,{row.dev_accuracy:.10g}\n")
    fh.write(f"{metrics.best_epoch},dev,best_accuracy,{metrics.best_dev_accuracy:.10g}\n")
    fh.write(f"0,run,seed,{metrics.seed}\n")
    fh.write(f"0,run,wall_clock_seconds,{metrics.wall_clock_seconds:.6f}\n")
    if metrics.test is not None:
        epoch = metrics.best_epoch
        for b, stats in sorted(metrics.test.bins.items()):
            fh.write(f"{epoch},test,accuracy_bin_{b},{stats.accuracy:.10g}\n")
            fh.write(f"{epoch},test,majority_bin_{b},{stats.majority_baseline:.10g}\n")
        for name, stats in metrics.test.aggregates.items():
            fh.write(f"{epoch},test,accuracy_{name},{stats.accuracy:.10g}\n")
            fh.write(f"{epoch},test,majority_{name},{stats.majority_baseline:.10g}\n")


def write_length_csv(report: LengthReport, fh) -> None:
    """Per-bin table: bin,n,accuracy,majority_baseline with aggregate rows last."""
    fh.write("bin,n,accuracy,majority_baseline\n")
    for b, stats in sorted(report.bins.items()):
        fh.write(f"{b},{stats.n},{stats.accuracy:.6f},{stats.majority_baseline:.6f}\n")
    for name, stats in report.aggregates.items():
        fh.write(f"{name},{stats.n},{stats.accuracy:.6f},{stats.majority_baseline:.6f}\n")
