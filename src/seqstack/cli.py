"""Command-line drivers: data generation, training, evaluation, diagnostics.

Every run takes an explicit output directory, writes all of its files there,
and drops a resolved-config.json alongside them recording the exact settings
in effect (defaults included), so a run can be reproduced from its artifacts
alone. Exit codes: 0 success, 1 usage or configuration, 2 data, 3 numerics.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig
from .errors import ConfigError, DataError, NumericsError
from .gradcheck import finite_difference_check
from .logic import (
    MAX_OPS,
    generate_dataset,
    load_dataset,
    make_pair,
    sample_expression,
    parse_expression,
    serialize,
)
from .pipeline import (
    VOCAB,
    PairClassifier,
    TrainConfig,
    _batch_arrays,
    encode_tokens,
    evaluate_by_length,
    load_model,
    prepare_examples,
    train,
    write_length_csv,
    write_metrics_csv,
)
from .tensor import cross_entropy, default_dtype, dtype_scope, no_grad

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 42

# Per-bin pair counts: "default" is the desk-scale dataset (75k pairs total,
# 60k of them training at the 0.8/0.1/0.1 split); "tiny" is the CI-scale run
# (7.5k pairs, 6k training), kept to the two shortest bins so ten epochs can
# clear the majority baseline in CI time.
DEFAULT_BIN_COUNTS = {b: 6250 for b in range(1, MAX_OPS + 1)}
TINY_BIN_COUNTS = {1: 3750, 2: 3750}

_BASE_ENCODER = dict(
    vocab_size=len(VOCAB),
    d=256,
    heads=4,
    d_ff=1024,
    chunk=16,
    dropout=0.2,
)

PRESETS = {
    "san": dict(_BASE_ENCODER, kind="san", attention_layers=2, use_positional=True),
    "lstm": dict(_BASE_ENCODER, kind="lstm", recurrent_layers=2),
    "onlstm": dict(_BASE_ENCODER, kind="onlstm", recurrent_layers=2),
    "hybrid": dict(
        _BASE_ENCODER, kind="hybrid", recurrent_layers=1, attention_layers=1,
    ),
    "hybrid-shortcut": dict(
        _BASE_ENCODER, kind="hybrid", recurrent_layers=1, attention_layers=1,
        use_short_cut=True,
    ),
}

_TRAIN_DEFAULTS = dict(
    epochs=100,
    batch_size=128,
    lr=1e-4,
    dropout=0.2,
    clip_norm=5.0,
    seed=DEFAULT_SEED,
    train_cap=6,
    eval_bins=list(range(1, MAX_OPS + 1)),
    classifier_hidden=512,
)

# CI-scale shrink: small model, few epochs, a hotter step, no dropout (ten
# epochs is too short for regularization to pay rent). The pure ordered-gate
# stack needs its own shrink: at these dims a two-layer version cannot escape
# the majority-class plateau inside ten epochs at any stable step size, while
# one layer at a slightly hotter step clears it with margin.
_TINY_ENCODER = dict(d=64, d_ff=256, chunk=4, heads=4, dropout=0.0)
_TINY_TRAIN = dict(epochs=10, batch_size=64, lr=1e-3, dropout=0.0, classifier_hidden=256)
_TINY_BY_PRESET = {
    "onlstm": {"lr": 2e-3, "encoder": {"recurrent_layers": 1}},
}


def _deep_update(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if key == "encoder" and isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def resolve_train_config(args) -> tuple[TrainConfig, dict]:
    """Merge preset, config file, tiny shrink, and flag overrides, in that order."""
    if args.preset is None and args.config is None:
        raise ConfigError("provide --preset and/or --config to define the model")
    raw: dict = {**_TRAIN_DEFAULTS}
    if args.preset is not None:
        raw["encoder"] = dict(PRESETS[args.preset])
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        raw = _deep_update(raw, file_cfg)
    if "encoder" not in raw:
        raise ConfigError("config does not define an encoder (use --preset or an 'encoder' section)")
    if getattr(args, "tiny", False):
        raw = _deep_update(raw, {"encoder": dict(_TINY_ENCODER), **_TINY_TRAIN})
        if args.preset in _TINY_BY_PRESET:
            raw = _deep_update(raw, _TINY_BY_PRESET[args.preset])
    if getattr(args, "epochs", None) is not None:
        raw["epochs"] = args.epochs
    if args.seed is not None:
        raw["seed"] = args.seed
    config = TrainConfig.from_dict(raw)
    provenance = {
        "preset": args.preset,
        "config_file": args.config,
        "tiny": bool(getattr(args, "tiny", False)),
    }
    return config, provenance


def _prepare_out_dir(path_str: str) -> Path:
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_resolved_config(out_dir: Path, payload: dict) -> None:
    payload = {**payload, "dtype": np.dtype(default_dtype()).name}
    with open(out_dir / "resolved-config.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_bins(text: str) -> dict[int, int]:
    """Bin spec: 'default', 'tiny', or comma-separated op_count:pairs entries."""
    if text == "default":
        return dict(DEFAULT_BIN_COUNTS)
    if text == "tiny":
        return dict(TINY_BIN_COUNTS)
    counts: dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad bin entry {item!r}; expected op_count:pairs")
        try:
            op_count, n = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad bin entry {item!r}: {exc}") from exc
        if op_count in counts:
            raise ConfigError(f"bin {op_count} listed twice")
        if n < 1:
            raise ConfigError(f"bin {op_count} needs a positive pair count, got {n}")
        counts[op_count] = n
    if not counts:
        raise ConfigError("empty bin spec")
    return counts


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    out_dir = _prepare_out_dir(args.out)
    bin_counts = parse_bins(args.bins)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    metadata = generate_dataset(seed, bin_counts, out_dir)
    _write_resolved_config(
        out_dir,
        {
            "command": "gen-data",
            "seed": seed,
            "bins": {str(k): v for k, v in sorted(bin_counts.items())},
            "ratios": metadata["ratios"],
            "out": str(out_dir),
        },
    )
    print(f"wrote {', '.join(sorted(metadata['sizes']))} under {out_dir}")
    print(f"sizes: " + ", ".join(f"{k}={v}" for k, v in sorted(metadata["sizes"].items())))
    print("label histogram:")
    print("  label  count")
    for token, count in sorted(metadata["label_histogram"].items()):
        print(f"  {token:<6} {count}")
    return EXIT_OK


def _load_split(data_dir: Path, name: str):
    path = data_dir / f"{name}.tsv"
    if not path.exists():
        raise DataError(f"dataset split {path} does not exist")
    return load_dataset(path)


def _epoch_printer(row) -> None:
    print(
        f"epoch {row.epoch:>3}  train_loss {row.train_loss:.6f}  "
        f"train_acc {row.train_accuracy:.4f}  dev_acc {row.dev_accuracy:.4f}",
        flush=True,
    )


def cmd_train(args) -> int:
    config, provenance = resolve_train_config(args)
    out_dir = _prepare_out_dir(args.out)
    data_dir = Path(args.data)
    train_pairs = _load_split(data_dir, "train")
    dev_pairs = _load_split(data_dir, "dev")
    _write_resolved_config(
        out_dir,
        {
            "command": "train",
            **provenance,
            "data": str(data_dir),
            "out": str(out_dir),
            "train": config.to_dict(),
        },
    )
    model = PairClassifier(config)
    checkpoint_path = out_dir / "model.ckpt"
    # On a numerics abort the best-so-far checkpoint stays on disk untouched;
    # main() maps the raised error to exit code 3.
    metrics = train(
        model, train_pairs, dev_pairs,
        checkpoint_path=checkpoint_path, progress=_epoch_printer,
    )
    test_path = data_dir / "test.tsv"
    if test_path.exists():
        best_model, _ = load_model(checkpoint_path)
        test_pairs = load_dataset(test_path)
        metrics.test = evaluate_by_length(
            best_model, test_pairs, bins=config.eval_bins, boundary=config.train_cap,
        )
        with open(out_dir / "bins.csv", "w", encoding="utf-8") as fh:
            write_length_csv(metrics.test, fh)
    with open(out_dir / "metrics.csv", "w", encoding="utf-8") as fh:
        write_metrics_csv(metrics, fh)
    print(f"best dev accuracy {metrics.best_dev_accuracy:.4f} at epoch {metrics.best_epoch}")
    if metrics.test is not None:
        _print_length_table(metrics.test)
    print(f"checkpoint: {checkpoint_path}")
    return EXIT_OK


def _print_length_table(report) -> None:
    print(f"{'bin':>5}  {'n':>6}  {'accuracy':>9}  {'majority':>9}")
    for b, stats in sorted(report.bins.items()):
        print(f"{b:>5}  {stats.n:>6}  {stats.accuracy:>9.4f}  {stats.majority_baseline:>9.4f}")
    for name, stats in report.aggregates.items():
        print(f"{name:>5}  {stats.n:>6}  {stats.accuracy:>9.4f}  {stats.majority_baseline:>9.4f}")


def cmd_eval(args) -> int:
    out_dir = _prepare_out_dir(args.out)
    model, stored = load_model(args.checkpoint)
    test_pairs = load_dataset(args.test_file)
    config = model.config
    report = evaluate_by_length(
        model, test_pairs, bins=config.eval_bins, boundary=config.train_cap,
    )
    _write_resolved_config(
        out_dir,
        {
            "command": "eval",
            "checkpoint": str(args.checkpoint),
            "test_file": str(args.test_file),
            "out": str(out_dir),
            "train": stored.get("train"),
        },
    )
    with open(out_dir / "bins.csv", "w", encoding="utf-8") as fh:
        write_length_csv(report, fh)
    _print_length_table(report)
    return EXIT_OK


_GRADCHECK_TOLERANCE = 1e-3

# kind -> (recurrent layers, attention layers) pairs kept deliberately tiny.
_GRADCHECK_MATRIX = [
    ("lstm", 1, 0), ("lstm", 2, 0),
    ("onlstm", 1, 0), ("onlstm", 2, 0),
    ("san", 0, 1), ("san", 0, 2),
    ("hybrid", 1, 1), ("hybrid", 2, 1),
]


def _gradcheck_config(kind: str, k: int, l: int) -> TrainConfig:
    enc = dict(
        kind=kind, vocab_size=len(VOCAB), d=8, heads=2, d_ff=16, chunk=2,
        recurrent_layers=k, attention_layers=l, dropout=0.0,
    )
    if kind == "san":
        enc["use_positional"] = True
    if kind == "hybrid":
        enc["use_short_cut"] = True
    return TrainConfig(
        encoder=EncoderConfig(**enc), dropout=0.0, classifier_hidden=8,
        eval_bins=tuple(range(1, 9)),
    )


def cmd_gradcheck(args) -> int:
    # The check needs float64; the scope restores the caller's build on exit.
    with dtype_scope("float64"):
        return _run_gradcheck(args)


def _run_gradcheck(args) -> int:
    out_dir = _prepare_out_dir(args.out)
    rng = np.random.default_rng(DEFAULT_SEED if args.seed is None else args.seed)
    pairs = [
        make_pair(sample_expression(rng, int(rng.integers(0, 5))),
                  sample_expression(rng, int(rng.integers(0, 5))))
        for _ in range(4)
    ]
    examples = prepare_examples(pairs)
    failures = []
    lines = []
    for kind, k, l in _GRADCHECK_MATRIX:
        config = _gradcheck_config(kind, k, l)
        model = PairClassifier(config)
        ids, mask, labels = _batch_arrays(examples, range(len(examples)))

        def build_loss():
            return cross_entropy(model.forward_joint(ids, mask), labels)

        worst = finite_difference_check(
            build_loss, model.parameters(), max_entries=4,
            rng=np.random.default_rng(7),
        )
        for name in sorted(worst, key=worst.get, reverse=True):
            status = "PASS" if worst[name] < _GRADCHECK_TOLERANCE else "FAIL"
            lines.append(f"{kind} K={k} L={l}  {name}  {worst[name]:.3e}  {status}")
            if status == "FAIL":
                failures.append((kind, k, l, name, worst[name]))
    report_path = out_dir / "report.txt"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"tolerance: {_GRADCHECK_TOLERANCE}\n")
        fh.write("\n".join(lines) + "\n")
        fh.write(f"result: {'FAIL' if failures else 'PASS'}\n")
    _write_resolved_config(
        out_dir,
        {
            "command": "gradcheck",
            "tolerance": _GRADCHECK_TOLERANCE,
            "matrix": [list(row) for row in _GRADCHECK_MATRIX],
            "out": str(out_dir),
        },
    )
    print("\n".join(lines))
    if failures:
        worst_line = max(failures, key=lambda f: f[4])
        print(
            f"FAIL: {len(failures)} parameter(s) above {_GRADCHECK_TOLERANCE:g}; "
            f"worst {worst_line[3]} in {worst_line[0]} at {worst_line[4]:.3e}"
        )
        raise NumericsError("gradient check failed; see report above")
    print(f"PASS: all parameters within {_GRADCHECK_TOLERANCE:g} (report: {report_path})")
    return EXIT_OK


def cmd_trace_gates(args) -> int:
    out_dir = _prepare_out_dir(args.out)
    model, stored = load_model(args.checkpoint)
    kind = model.config.encoder.kind
    if kind not in ("onlstm", "hybrid"):
        raise ConfigError(
            f"trace-gates needs an encoder with an ON-LSTM stage; checkpoint holds kind={kind}"
        )
    rows = []
    for seq_index, text in enumerate(args.expression):
        expr = parse_expression(text)
        ids = encode_tokens(serialize(expr))[None, :]
        trace: dict[int, list] = {}
        with no_grad():
            model.encoder(ids, trace=trace)
        for layer, steps in sorted(trace.items()):
            for step, (f_chunk, i_chunk) in enumerate(steps):
                for j in range(f_chunk.shape[1]):
                    rows.append(
                        (seq_index, layer, step, j,
                         f"{f_chunk[0, j]:.6f}", f"{i_chunk[0, j]:.6f}")
                    )
    gates_path = out_dir / "gates.csv"
    with open(gates_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sequence", "layer", "step", "chunk", "master_forget", "master_input"]
        )
        writer.writerows(rows)
    _write_resolved_config(
        out_dir,
        {
            "command": "trace-gates",
            "checkpoint": str(args.checkpoint),
            "expressions": list(args.expression),
            "out": str(out_dir),
        },
    )
    print(f"wrote {len(rows)} gate rows to {gates_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqstack",
        description="Sequence encoders and the logical entailment benchmark.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="sample a labeled pair dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", default="default",
                   help="'default', 'tiny', or op_count:pairs[,op_count:pairs...]")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a pair classifier")
    p.add_argument("data", help="dataset directory from gen-data")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", default=None, help="JSON config file (strict keys)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--tiny", action="store_true",
                   help="CI-scale model: d=64, 10 epochs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint by length bin")
    p.add_argument("checkpoint")
    p.add_argument("test_file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check across encoder kinds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("trace-gates", help="dump chunk-level master gates per step")
    p.add_argument("checkpoint")
    p.add_argument("expression", nargs="+", help="serialized expressions to trace")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_trace_gates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
