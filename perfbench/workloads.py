"""The benchmark's workloads: seeded inputs, timed rounds, correctness checks.

Each workload drives seqstack only through the calls `seqstack train` and
`seqstack eval` make: `logic.load_dataset`, `pipeline.PairClassifier`,
`pipeline.train(checkpoint_path=...)`, `pipeline.load_model` and
`pipeline.evaluate_by_length`. A run generates its dataset from the seed, sets
up, then repeats a fixed round of work until the requested seconds have
passed, setting up again after every round (the median is `setup_s`). Every round rebuilds its models from
the same seed, so rounds must agree bit for bit; that is one of the checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seqstack import logic, pipeline
from seqstack.cli import DEFAULT_SEED, resolve_train_config
from seqstack.errors import DataError, NumericsError
from seqstack.rng import SeedStreams
from seqstack.tensor import no_grad

from tracing import Tracer

EVAL_BATCH = 256  # evaluate_by_length's default batch
SETUP_REPEATS = 3                 # set-ups at the start and after every round
# Padded-batch logits must match one-pair-at-a-time logits within this
# float32 tolerance: |batched - single| <= LOGIT_ATOL + LOGIT_RTOL * |single|.
LOGIT_RTOL = 1e-4
LOGIT_ATOL = 1e-4
PADDING_SAMPLE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    tiny: bool                        # apply the CLI's --tiny shrink
    bins: dict                        # operator count -> pairs generated
    ratios: tuple                     # train/dev/test split of the generated pool
    n_train: int                      # subset sizes, drawn by a seeded shuffle
    n_dev: int
    n_test: int
    test_bins: tuple                  # operator counts the test draw comes from
    batch_size: int | None = None     # training batch, when not the preset's
    eval_only: bool = False           # rounds evaluate, then fine-tune, a restored checkpoint


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-6 CI mix: four tiny presets on one- and two-operator
        # pairs. Python and tape overhead dominate; recurrent and tensor lead.
        Workload(
            "tiny-ci", ("lstm", "onlstm", "san", "hybrid-shortcut"), tiny=True,
            bins={1: 1000, 2: 1000}, ratios=(0.6, 0.1, 0.3),
            n_train=640, n_dev=128, n_test=512, test_bins=(1, 2),
        ),
        # Forward-only evaluation of a restored desk-scale cascade on the
        # held-out long bins. Each round then fine-tunes a fresh restore at
        # batch 16: four steps, so Adam's updates show in the last-epoch loss.
        Workload(
            "eval-long", ("hybrid-shortcut",), tiny=False,
            bins={b: 100 for b in range(1, 13)}, ratios=(0.4, 0.1, 0.5),
            n_train=64, n_dev=32, n_test=256, test_bins=tuple(range(7, 13)),
            batch_size=16, eval_only=True,
        ),
    )
}


class Ledger:
    """Operations attempted (train steps, eval batches, checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)


@dataclass
class SetupTimes:
    parse_s: float
    parsed: int                       # pairs parsed
    prepare_s: float
    total_s: float


@dataclass
class Setup:
    configs: list
    train: list
    dev: list
    test: list                        # PreparedExample, ready for evaluation
    model: object | None              # the restored model (eval-only workloads)
    times: SetupTimes


@dataclass
class Round:
    wall_s: float = 0.0
    train_pairs: int = 0
    train_s: float = 0.0
    eval_pairs: int = 0
    eval_s: float = 0.0
    losses: tuple = ()
    peak_rss_mb: float = 0.0          # high-water mark when the round's measured work ends
    outputs: tuple = ()               # everything that must repeat bit for bit
    checkpoint_bytes: list = field(default_factory=list)


def make_inputs(spec: Workload, seed: int, data_dir: Path) -> None:
    logic.generate_dataset(seed, spec.bins, data_dir, ratios=spec.ratios)


def train_configs(spec: Workload) -> list:
    """The configs `seqstack train --preset ... [--tiny] --epochs 1` resolves.

    The model seed stays at the CLI default: the workload seed varies the data
    only, so the spread of train_loss_end across seeds is the data's alone.
    """
    configs = []
    for preset in spec.presets:
        args = argparse.Namespace(preset=preset, config=None, tiny=spec.tiny, epochs=1,
                                  seed=DEFAULT_SEED)
        config, _ = resolve_train_config(args)
        if spec.batch_size is not None:
            config = dataclasses.replace(config, batch_size=spec.batch_size)
        configs.append(config)
    return configs


def _tokens(pair) -> int:
    return max(len(logic.serialize(pair.premise).split()),
               len(logic.serialize(pair.hypothesis).split()))


def draw(pairs: list, bins, n: int, rng: np.random.Generator) -> list:
    """A seeded shuffle across the given bins.

    The files are written bin by bin, so their first rows would all come from
    the shortest bin. The pool's longest pair always joins the draw: a padded
    batch costs what its longest row costs, and at desk scale one batch with or
    without a 37-token row moved step time by a fifth from seed to seed.
    """
    pool = [p for p in pairs if p.op_count in bins]
    if len(pool) < n:
        raise DataError(f"need {n} pairs from bins {bins}, the pool has {len(pool)}")
    order = list(rng.permutation(len(pool))[:n])
    longest = max(range(len(pool)), key=lambda i: _tokens(pool[i]))
    if longest not in order:
        order[-1] = longest
    return [pool[i] for i in order]


def audit(data_dir: Path, ledger: Ledger) -> None:
    for split in ("train", "dev", "test"):
        try:
            logic.audit_pairs(logic.load_dataset(data_dir / f"{split}.tsv"))
            ok = True
        except DataError:
            ok = False
        ledger.check(f"{split}.tsv labels match the truth-table oracle", ok)


def setup(spec: Workload, seed: int, data_dir: Path, checkpoint: Path) -> Setup:
    """Parse the TSVs, draw and prepare the subsets, build or restore the model."""
    gc.collect()
    t0 = time.perf_counter()
    splits = {s: logic.load_dataset(data_dir / f"{s}.tsv") for s in ("train", "dev", "test")}
    parse_s = time.perf_counter() - t0
    # The draws are the benchmark's own work, so they stay out of the timing.
    configs = train_configs(spec)
    short = range(1, configs[0].train_cap + 1)
    streams = SeedStreams(seed)
    train = draw(splits["train"], short, spec.n_train, streams.stream("perfbench", "train"))
    dev = draw(splits["dev"], short, spec.n_dev, streams.stream("perfbench", "dev"))
    test = draw(splits["test"], spec.test_bins, spec.n_test, streams.stream("perfbench", "test"))
    t1 = time.perf_counter()
    test = pipeline.prepare_examples(test)
    prepare_s = time.perf_counter() - t1
    if spec.eval_only:
        model, _ = pipeline.load_model(checkpoint)
    else:
        model = None
        for config in configs:
            pipeline.PairClassifier(config)
    times = SetupTimes(parse_s, sum(len(v) for v in splits.values()), prepare_s,
                       parse_s + time.perf_counter() - t1)
    return Setup(configs, train, dev, test, model, times)


def timed_setups(spec: Workload, seed: int, data_dir: Path, checkpoint: Path) -> list:
    """More set-ups, for their timings only.

    The run sets up again after every round, so the set-ups are spread over
    the run like the rounds are, and a slow spell of the host that lasts a
    second cannot decide the median. Only the timings are kept: parsed pairs
    held from earlier set-ups would make each garbage collection inside a
    later one longer.
    """
    return [setup(spec, seed, data_dir, checkpoint).times for _ in range(SETUP_REPEATS)]


def _bin_outputs(report) -> tuple:
    return tuple((b, s.n, s.accuracy) for b, s in sorted(report.bins.items()))


def _evaluate(model, config, test, ledger: Ledger, tracer) -> tuple:
    if tracer is not None:
        tracer.phase = "eval"
    ledger.ops(math.ceil(len(test) / EVAL_BATCH))
    t0 = time.perf_counter()
    report = pipeline.evaluate_by_length(model, test, bins=config.eval_bins,
                                         boundary=config.train_cap)
    seconds = time.perf_counter() - t0
    ledger.check("every test pair lands in one bin",
                 sum(s.n for s in report.bins.values()) == len(test))
    return seconds, _bin_outputs(report)


def _train(model, config, s: Setup, checkpoint: Path, ledger: Ledger, tracer, rnd: Round):
    """One train() call as `seqstack train` makes it, then restore its checkpoint."""
    if tracer is not None:
        tracer.phase = "train"
    ledger.ops(math.ceil(len(s.train) / config.batch_size))
    t0 = time.perf_counter()
    try:
        run = pipeline.train(model, s.train, s.dev, checkpoint_path=checkpoint)
    except NumericsError:
        ledger.fail(f"{config.encoder.kind}: non-finite training loss")
        return None
    rnd.train_s += time.perf_counter() - t0
    rnd.train_pairs += len(s.train)
    loss = run.epochs[-1].train_loss
    ledger.check("every training loss is finite", math.isfinite(loss))
    rnd.losses += (loss,)
    rnd.checkpoint_bytes.append(os.path.getsize(checkpoint))
    best, _ = pipeline.load_model(checkpoint)
    # One epoch, so the saved best epoch is the final state.
    trained = model.parameters()
    ledger.check("restored checkpoint equals the trained parameters", all(
        np.array_equal(p.data, trained[name].data) for name, p in best.parameters().items()))
    return best


def train_round(s: Setup, work: Path, ledger: Ledger, tracer) -> Round:
    """Per preset: build, train with a checkpoint, restore, evaluate on test."""
    rnd = Round()
    t0 = time.perf_counter()
    for i, config in enumerate(s.configs):
        model = pipeline.PairClassifier(config)
        best = _train(model, config, s, work / f"model{i}.ckpt", ledger, tracer, rnd)
        if best is None:
            continue
        seconds, outputs = _evaluate(best, config, s.test, ledger, tracer)
        rnd.eval_s += seconds
        rnd.eval_pairs += len(s.test)
        rnd.outputs += (outputs,)
    rnd.outputs += rnd.losses
    rnd.wall_s = time.perf_counter() - t0
    rnd.peak_rss_mb = _peak_rss_mb()
    return rnd


def eval_round(s: Setup, work: Path, ledger: Ledger, tracer) -> Round:
    """Evaluate the restored checkpoint on the held-out long pairs, then
    fine-tune a fresh restore of the same checkpoint."""
    t0 = time.perf_counter()
    seconds, outputs = _evaluate(s.model, s.configs[0], s.test, ledger, tracer)
    # Read before the fine-tune: the peak of the warm-up round is then the
    # evaluation's alone.
    rnd = Round(eval_pairs=len(s.test), eval_s=seconds, peak_rss_mb=_peak_rss_mb())
    model, _ = pipeline.load_model(work / "restore.ckpt")
    _train(model, s.configs[0], s, work / "fine-tune.ckpt", ledger, tracer, rnd)
    rnd.outputs = (outputs,) + rnd.losses
    rnd.wall_s = time.perf_counter() - t0
    return rnd


def _logits(model, examples) -> np.ndarray:
    """Logits from the program's own batching: stacked ids and mask, padded."""
    ids, mask, _ = pipeline._batch_arrays(examples, range(len(examples)))
    return model.forward_joint(ids, mask).data


def check_padding(model, test: list, seed: int, ledger: Ledger) -> None:
    """Logits of sampled pairs inside a padded batch equal their one-at-a-time
    logits, and evaluate() returns its predictions in input order."""
    rng = SeedStreams(seed).stream("perfbench", "padding")
    sample = [test[i] for i in rng.choice(len(test), PADDING_SAMPLE, replace=False)]
    longest = sorted(test, key=lambda e: -max(len(e.premise_ids), len(e.hyp_ids)))
    batch = sample + longest[:PADDING_SAMPLE]
    with no_grad():
        batched = _logits(model, batch)
        singles = np.stack([_logits(model, [e])[0] for e in sample])
    ledger.check("padded-batch logits match single-pair logits", bool(np.all(
        np.abs(batched[:PADDING_SAMPLE] - singles) <= LOGIT_ATOL + LOGIT_RTOL * np.abs(singles))))
    top2 = np.sort(batched, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > LOGIT_ATOL
    preds = pipeline.evaluate(model, batch).predictions
    ledger.check("evaluate() predictions follow input order",
                 bool(np.all(preds[clear] == np.argmax(batched, axis=1)[clear])))


def _median_rate(pairs_and_seconds) -> float:
    return statistics.median(n / t for n, t in pairs_and_seconds if t > 0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Ledger]:
    """Run one workload; returns (metrics as name -> (value, unit), ledger)."""
    ledger = Ledger()
    data_dir = work / "data"
    make_inputs(spec, seed, data_dir)
    audit(data_dir, ledger)
    checkpoint = work / "restore.ckpt"
    if spec.eval_only:
        pipeline.save_model(checkpoint, pipeline.PairClassifier(train_configs(spec)[0]))
    s = setup(spec, seed, data_dir, checkpoint)
    setups = [s.times] + timed_setups(spec, seed, data_dir, checkpoint)

    round_fn = eval_round if spec.eval_only else train_round
    # The first round pays for first-touch memory (a gigabyte at desk scale)
    # and lazy initialisation; it is checked but not timed.
    reference = round_fn(s, work, ledger, None)
    tracer = Tracer() if trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    # Traced runs alternate untraced and traced rounds; the ratio of their
    # wall times is the tracing overhead.
    while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
        tracing = trace and len(traced) < len(plain)
        gc.collect()
        with tracer if tracing else nullcontext():
            rnd = round_fn(s, work, ledger, tracer if tracing else None)
        (traced if tracing else plain).append(rnd)
        setups += timed_setups(spec, seed, data_dir, checkpoint)
    for rnd in plain + traced:
        ledger.check("rounds repeat bit for bit", rnd.outputs == reference.outputs)

    losses = reference.losses
    if spec.eval_only:
        check_padding(s.model, s.test, seed, ledger)
    if not losses:
        raise NumericsError("no training run finished; nothing to report")

    if not trace:
        metrics = {
            "train_pairs_per_s": (_median_rate((r.train_pairs, r.train_s) for r in plain), "1/s"),
            "eval_pairs_per_s": (_median_rate((r.eval_pairs, r.eval_s) for r in plain), "1/s"),
            "setup_s": (statistics.median(x.total_s for x in setups), "s"),
            "peak_rss_mb": (reference.peak_rss_mb, "MB"),
            "train_loss_end": (statistics.fmean(losses), "nats"),
            "ok_frac": (1.0 - ledger.failed / ledger.attempted, "frac"),
        }
        return metrics, ledger

    metrics = tracer.summary()
    metrics["logic.parse_pairs_per_s"] = (
        statistics.median(x.parsed / x.parse_s for x in setups), "1/s")
    metrics["pipeline.prepare_ms"] = (statistics.median(x.prepare_s for x in setups) * 1e3, "ms")
    sizes = traced[-1].checkpoint_bytes
    metrics["checkpoint.bytes"] = (statistics.fmean(sizes), "B")
    metrics["trace.train_pairs_per_s"] = (
        _median_rate((r.train_pairs, r.train_s) for r in traced), "1/s")
    metrics["trace.eval_pairs_per_s"] = (
        _median_rate((r.eval_pairs, r.eval_s) for r in traced), "1/s")
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in plain) - 1.0, "frac")
    return metrics, ledger
