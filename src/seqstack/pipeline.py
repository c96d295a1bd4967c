"""Entailment classification pipeline: tokenize, encode, pool, train, evaluate.

A premise/hypothesis pair is encoded by one shared encoder, each side is
pooled to a fixed vector, and a three-layer head maps the concatenation to
seven relation logits. Pooling follows the encoder's last stack: recurrent-final
encoders use their last real output row, attention-final encoders use two
trainable query vectors (a single row of an attention stack is not a summary
state, so they never pool the last row).

The two sides of a pair meet only at the head, so training and evaluation
encode a batch's rows on two threads, each half on a tape of its own, and a
training step backpropagates the two tapes on the same two threads. Without
dropout, a batch encodes each distinct sequence once and gathers the pooled
rows back to every pair. Evaluation's logits equal one joint pass's bit for
bit; training's gradients differ from it by rounding (see
`PairClassifier.forward_joint`).

Training deliberately caps the operator count of the examples it consumes so
that longer sequences stay unseen until evaluation; `evaluate_by_length`
then reports accuracy per operator-count bin on both sides of that cap.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import scaled_dot_attention
from .checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, ContractError, DataError, NumericsError
from .logic import MAX_OPS, VOCAB, serialize
from .optim import Adam, clip_global_norm
from .rng import NoDraws, SeedStreams
from .tensor import (
    GradTape,
    Module,
    Packing,
    Tensor,
    affine_parameters,
    backward,
    cross_entropy,
    dropout,
    gather_rows,
    join_rows,
    linear,
    no_grad,
    pack_rows,
    permute,
    relu,
    reshape,
    tape_scope,
    uniform_parameter,
    unpack_rows,
)

PAD_ID = 0
TOKEN_IDS = {tok: i for i, tok in enumerate(VOCAB)}
N_RELATIONS = 7

N_QUERIES = 2
# One length bin per operator count the data can hold.
LENGTH_BINS = tuple(range(1, MAX_OPS + 1))


def encode_tokens(text: str) -> np.ndarray:
    """Whitespace-tokenized expression text to vocabulary ids, never PAD_ID."""
    ids = []
    for tok in text.split():
        tid = TOKEN_IDS.get(tok)
        if tid == PAD_ID:
            raise DataError(f"padding token {tok!r} inside an expression")
        if tid is None:
            raise DataError(f"unknown token {tok!r} (vocabulary: {', '.join(VOCAB)})")
        ids.append(tid)
    if not ids:
        raise DataError("cannot encode an empty expression")
    return np.asarray(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# pooling


def pool_last_hidden(seq: Tensor, packing: Packing) -> Tensor:
    """Each example's last real output row, read from packed (T, d) rows."""
    return pack_rows(seq, packing.last)


def pool_trainable_queries(queries: Tensor, seq: Tensor, packing: Packing) -> Tensor:
    """Attend each learned query over the real output rows; concatenate the reads.

    Keys and values are the encoder output rows themselves, scattered from
    packed (T, d) rows to the padded grid, so the only parameters here are
    the query vectors. Output is (batch, n_queries * d).
    """
    nq, d = queries.shape
    seq = unpack_rows(seq, packing)
    pooled = scaled_dot_attention(queries, seq, seq, packing.key_bias(seq.dtype))
    return reshape(pooled, (packing.shape[0], nq * d))


# ---------------------------------------------------------------------------
# classifier head


class ClassifierHead(Module):
    """Three affine layers over the concatenated pair representation [u, v].

    The hidden layers are relu with variance-preserving (gain sqrt(2))
    uniform init; the logit layer uses a small plain init so first-batch
    logits stay near zero (loss starts near ln(n_classes)) while gradients
    still reach the layers below it.
    """

    def __init__(self, d_pair: int, hidden: int, dropout_rate: float, rng):
        self.dropout_rate = dropout_rate
        # U(+-b) has std b / sqrt(3), so the relu layers draw with std sqrt(2 / d_in).
        relu_gain = np.sqrt(2.0) * np.sqrt(3.0)
        self.w1, self.b1 = affine_parameters(rng, d_pair, hidden, relu_gain)
        self.w2, self.b2 = affine_parameters(rng, hidden, hidden, relu_gain)
        self.w3, self.b3 = affine_parameters(rng, hidden, N_RELATIONS, 0.7)
        # Attention-final encoders end in a layer norm, so much of each pooled
        # vector is common to every example, and a head reading u and v apart
        # turns it into one logit offset shared by the batch (the first-batch
        # loss misses ln(n_classes)). At init the first layer therefore reads
        # only u - v, and the layers above get zero-mean columns, which cancel
        # the relu units' positive mean and the small hidden biases. Zero
        # biases would put every unit exactly on its relu kink when u = v.
        # Without a generator the parameters are zero structure to restore
        # into, and there is nothing to shape.
        if rng is None:
            return
        half = d_pair // 2
        self.w1.data[half:] = -self.w1.data[:half]
        for w in (self.w2, self.w3):
            w.data -= w.data.mean(axis=0, keepdims=True)
        for b in (self.b1, self.b2):
            b.data[:] = 0.01

    def __call__(self, pair: Tensor, rng=None) -> Tensor:
        h = relu(linear(pair, self.w1, self.b1))
        h = dropout(h, self.dropout_rate, rng)
        h = relu(linear(h, self.w2, self.b2))
        h = dropout(h, self.dropout_rate, rng)
        return linear(h, self.w3, self.b3)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    """A training run's settings, checked once when built (see EncoderConfig)."""

    encoder: EncoderConfig
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-4
    seed: int = 42
    train_cap: int = 6
    eval_bins: tuple = LENGTH_BINS
    classifier_hidden: int = 512

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
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
        _check_fields(cls, data, "train")
        if "eval_bins" in data:
            data["eval_bins"] = tuple(data["eval_bins"])
        if not isinstance(enc_raw, dict):
            raise ConfigError(f"encoder config must be an object, got {type(enc_raw).__name__}")
        _check_fields(EncoderConfig, enc_raw, "encoder")
        try:
            encoder = EncoderConfig(**enc_raw)
        except TypeError as exc:
            raise ConfigError(f"bad encoder config: {exc}") from exc
        return cls(encoder=encoder, **data)


# Accepted value types per config field annotation (a string: annotations are
# postponed in this module and in encoder.py); an int is a valid float.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _type_ok(value, annotation: str) -> bool:
    if isinstance(value, bool):  # bool is an int subclass
        return annotation == "bool"
    if annotation == "tuple":  # eval_bins, a list of ints
        return isinstance(value, (list, tuple)) and all(_type_ok(v, "int") for v in value)
    return isinstance(value, _FIELD_TYPES.get(annotation, object))


def _check_fields(cls, raw: dict, section: str) -> None:
    """Reject keys that name no field of `cls` and values of the wrong type."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {unknown}")
    for name, value in raw.items():
        if not _type_ok(value, fields[name]):
            raise ConfigError(f"{section} config key {name!r} must be {fields[name]}, got {value!r}")


# ---------------------------------------------------------------------------
# model


def _distinct_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct rows of a (B, N) id batch and each row's place among them.

    Each distinct row is kept at its first occurrence, in batch order. None
    when no row repeats, or when one row alone would remain: a single
    sequence takes numpy's one-row (gemv) paths, which change bits.
    """
    _, first, inverse = np.unique(ids, axis=0, return_index=True, return_inverse=True)
    if not 2 <= len(first) < len(ids):
        return None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


class PairClassifier:
    """Shared encoder + pooling + relation head over premise/hypothesis pairs.

    Parameters draw from `streams` (default `SeedStreams(config.seed)`); from `NoDraws()`, zero."""

    def __init__(self, config: TrainConfig, streams: SeedStreams | NoDraws | None = None):
        self.config = config
        streams = streams if streams is not None else SeedStreams(config.seed)
        self.encoder = Encoder(config.encoder, streams)
        d = config.encoder.d
        if self.encoder.san is not None:
            rng = streams.stream("init", "pooling")
            self.queries = uniform_parameter(rng, 1.0 / np.sqrt(d), N_QUERIES, d)
            d_sent = N_QUERIES * d
        else:
            self.queries = None
            d_sent = d
        self.d_sent = d_sent
        self.head = ClassifierHead(
            2 * d_sent, config.classifier_hidden, config.encoder.dropout,
            streams.stream("init", "classifier"),
        )

    def parameters(self) -> dict[str, Tensor]:
        out = self.encoder.parameters("encoder.")
        if self.queries is not None:
            out["pooling.queries"] = self.queries
        out.update(self.head.parameters("head."))
        return out

    def _pooled(self, ids: np.ndarray, mask: np.ndarray, rng=None) -> Tensor:
        """One pooled vector per row of a (B, N) batch: Packing, encoder, pooling."""
        packing = Packing(mask)
        seq = self.encoder(ids, packing, rng=rng)
        if self.queries is None:
            return pool_last_hidden(seq, packing)
        return pool_trainable_queries(self.queries, seq, packing)

    def _side(self, ids: np.ndarray, mask: np.ndarray, rng) -> tuple[Tensor, GradTape]:
        """`_pooled` recorded on a fresh tape of the calling thread, and that tape."""
        with tape_scope() as tape:
            return self._pooled(ids, mask, rng), tape

    def forward_joint(self, ids: np.ndarray, mask: np.ndarray, rng=None, worker=None,
                      hyp_rng=None) -> Tensor:
        """Logits from a stacked batch: rows [0, b) premises, [b, 2b) hypotheses.

        Training passes its dropout streams; without them, no dropout.

        Without dropout (evaluation, gradient checks, the scripts), the rows
        to encode are the batch's distinct id rows (`_distinct_rows`), and
        `gather_rows` copies their pooled rows back to all 2b; its backward
        sums a row's repeats. Training encodes every row, since each draws
        its own dropout mask.

        Given a `worker` (an executor) and at least two rows in each half,
        the calling thread encodes and pools the first half of the rows to
        encode, drawing dropout from `rng`, and the worker the second half,
        drawing from `hyp_rng`, each on a tape of its own; with every row
        kept, the halves are the premise rows [0, b) and the hypothesis rows
        [b, 2b). They meet in one `join_rows` entry, whose backward replays
        the two tapes on the same two threads; the head runs on the calling
        thread with `rng`. Without dropout, the logits are those of one pass
        over every row, bit for bit: each row's products are the same, and
        the rows keep the batch's N columns, so every softmax sums over the
        same padded width. The gradients differ from that pass's by rounding
        only, since each weight gradient is summed per half, first half
        first. A single sequence would take numpy's one-row (gemv) paths,
        so fewer than four rows stay joint.
        """
        if ids.shape[0] % 2 != 0:
            raise DataError(f"joint batch must stack premise and hypothesis rows, got {ids.shape}")
        b = ids.shape[0] // 2
        distinct = _distinct_rows(ids) if rng is None else None
        if distinct is not None:
            ids, mask = ids[distinct[0]], mask[distinct[0]]
        half = len(ids) // 2
        if worker is None or half < 2:
            pooled = self._pooled(ids, mask, rng)
        else:
            if rng is not None and hyp_rng is None:
                raise ContractError("a split pass with dropout needs the hypothesis side's stream")
            hyp = worker.submit(self._side, ids[half:], mask[half:], hyp_rng)
            prem, prem_tape = self._side(ids[:half], mask[:half], rng)
            pooled = join_rows(prem, prem_tape, *hyp.result(), worker)
        if distinct is not None:
            pooled = gather_rows(pooled, distinct[1])
        # Row i of the pair batch is [u_i, v_i] = pooled rows i and b + i.
        pair = reshape(permute(reshape(pooled, (2, b, -1)), (1, 0, 2)), (b, 2 * self.d_sent))
        return self.head(pair, rng=rng)


# ---------------------------------------------------------------------------
# data preparation and batching


@dataclass
class PreparedExample:
    premise_ids: np.ndarray
    hyp_ids: np.ndarray
    label: int
    op_count: int


def prepare_examples(pairs) -> list[PreparedExample]:
    """Encode each expression tree once per call (`load_dataset` shares a repeated
    text's tree); the pairs that hold it share one read-only id array."""
    encoded: dict[int, tuple] = {}  # id(tree) -> (tree, ids); the held tree keeps its id unique

    def ids(tree) -> np.ndarray:
        if (hit := encoded.get(id(tree))) is None:
            hit = encoded[id(tree)] = (tree, encode_tokens(serialize(tree)))
            hit[1].setflags(write=False)
        return hit[1]

    return [PreparedExample(ids(p.premise), ids(p.hypothesis), int(p.label), p.op_count)
            for p in pairs]


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


# Evaluation batch limits: pairs, and padded tokens per side (pairs x the
# widest row). 256 x 16 keeps batches of short pairs at 256 pairs.
EVAL_MAX_PAIRS = 256
EVAL_MAX_TOKENS = 4096


def _predict(model: PairClassifier, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and labels of labeled pairs in their given order, gradient-free.

    Examples run sorted by padded width and cut greedily at both limits; a
    pair wider than the token limit runs alone. Each batch encodes its
    distinct sequences once, the second half of them on one worker thread
    alongside the first (see `PairClassifier.forward_joint`); the thread
    ends with the call.
    """
    if not pairs:
        raise DataError("no examples to evaluate")
    examples = pairs if isinstance(pairs[0], PreparedExample) else prepare_examples(pairs)
    widths = np.asarray([max(len(e.premise_ids), len(e.hyp_ids)) for e in examples])
    order = np.argsort(widths, kind="stable")
    preds = np.empty(len(examples), dtype=np.int64)
    start = 0
    with no_grad(), ThreadPoolExecutor(max_workers=1) as worker:
        while start < len(order):
            # Widths ascend, so the pair counts whose tokens fit form a prefix.
            w = widths[order[start : start + EVAL_MAX_PAIRS]]
            stop = start + max(1, int(np.sum(np.arange(1, len(w) + 1) * w <= EVAL_MAX_TOKENS)))
            idx = order[start:stop]
            ids, mask, _ = _batch_arrays(examples, idx)
            preds[idx] = np.argmax(model.forward_joint(ids, mask, worker=worker).data, axis=1)
            start = stop
    return preds, np.asarray([e.label for e in examples], dtype=np.int64)


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


@dataclass
class RunMetrics:
    seed: int
    epochs: list
    best_epoch: int
    best_dev_accuracy: float
    wall_clock_seconds: float = field(compare=False, default=0.0)


def _subset_stats(correct: np.ndarray, labels: np.ndarray, members: dict) -> dict:
    """BinStats per named membership mask; empty subsets are left out."""
    out = {}
    for name, member in members.items():
        n = int(member.sum())
        if n:
            counts = np.bincount(labels[member], minlength=N_RELATIONS)
            out[name] = BinStats(n=n, accuracy=float(correct[member].mean()),
                                 majority_baseline=float(counts.max() / n))
    return out


# ---------------------------------------------------------------------------
# train / evaluate


@dataclass
class EvalResult:
    accuracy: float
    predictions: np.ndarray


def evaluate(model: PairClassifier, pairs) -> EvalResult:
    """Accuracy over labeled pairs, in order, without touching gradients."""
    preds, labels = _predict(model, pairs)
    return EvalResult(float((preds == labels).mean()), preds)


def evaluate_by_length(model: PairClassifier, pairs, bins, boundary: int) -> LengthReport:
    """Per-bin accuracy with majority baselines; empty bins are omitted.

    Aggregate rows split the pairs at `boundary` operators (the training
    cap): at most boundary (seen lengths) versus strictly more.
    """
    # Not via `evaluate`: perfbench's tracer wraps it to time train()'s dev pass.
    preds, labels = _predict(model, pairs)
    ops = np.asarray([p.op_count for p in pairs], dtype=np.int64)
    correct = preds == labels
    split = {f"le{boundary}": ops <= boundary, f"ge{boundary + 1}": ops > boundary}
    return LengthReport(bins=_subset_stats(correct, labels, {int(b): ops == b for b in bins}),
                        aggregates=_subset_stats(correct, labels, split))


# Global gradient-norm ceiling of every training step.
CLIP_NORM = 5.0


def train(model: PairClassifier, train_pairs, dev_pairs,
          checkpoint_path=None, progress=None) -> RunMetrics:
    """Minibatch Adam under the operator-count cap, selecting on dev accuracy.

    The dev set is filtered to the same cap: model selection must not peek at
    the held-out lengths. When `checkpoint_path` is given, the parameters are
    saved every time dev accuracy improves, so the file always holds the best
    epoch seen so far.

    Each step encodes and backpropagates its hypothesis side on one worker
    thread, which lives as long as the call (see `PairClassifier.forward_joint`).
    Dropout draws from the named stream ("train", "dropout") on the premise
    side and in the head, and from ("train", "dropout", "hypothesis") on the
    hypothesis side, so a run is reproducible bit for bit.
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
    hyp_rng = streams.stream("train", "dropout", "hypothesis")
    started = time.perf_counter()
    epoch_rows: list[EpochMetrics] = []
    best_acc = -1.0
    best_epoch = 0
    global_step = 0
    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch in range(1, config.epochs + 1):
            order = streams.stream("train", "shuffle", f"epoch{epoch}").permutation(len(train_ex))
            loss_sum = 0.0
            correct = 0
            for start in range(0, len(order), config.batch_size):
                batch_idx = order[start : start + config.batch_size]
                ids, mask, labels = _batch_arrays(train_ex, batch_idx)
                with tape_scope():
                    logits = model.forward_joint(ids, mask, rng=dropout_rng, worker=worker,
                                                 hyp_rng=hyp_rng)
                    loss = cross_entropy(logits, labels)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise NumericsError(
                            f"non-finite training loss at epoch {epoch}, "
                            f"batch {start // config.batch_size}, global step {global_step}"
                        )
                    backward(loss)
                clip_global_norm(params, CLIP_NORM)
                adam.step()
                adam.zero_grad()
                loss_sum += value * len(batch_idx)
                correct += int((np.argmax(logits.data, axis=1) == labels).sum())
                global_step += 1
            dev_acc = evaluate(model, dev_ex).accuracy
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
    """Rebuild the model a checkpoint describes, with no random draw, and restore its parameters."""
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
    model = PairClassifier(train_config, NoDraws())
    try:
        restore_parameters(model.parameters(), arrays)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
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


def write_length_csv(report: LengthReport, fh) -> None:
    """Per-bin table: bin,n,accuracy,majority_baseline with aggregate rows last."""
    fh.write("bin,n,accuracy,majority_baseline\n")
    for b, stats in sorted(report.bins.items()):
        fh.write(f"{b},{stats.n},{stats.accuracy:.6f},{stats.majority_baseline:.6f}\n")
    for name, stats in report.aggregates.items():
        fh.write(f"{name},{stats.n},{stats.accuracy:.6f},{stats.majority_baseline:.6f}\n")
