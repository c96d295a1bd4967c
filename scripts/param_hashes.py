"""Print parameter and logit fingerprints of one-epoch runs of every preset.

Run from the repository root, on two commits, and diff the outputs:

    python3 scripts/param_hashes.py

It generates a fixed small dataset (bins 1-8, so the test split holds pairs
longer than the training cap and batches carry padding), then trains each
of the five presets for one epoch in two settings: `--tiny`, and d=32
(batch 32, head width 32) with dropout 0.2 in the encoder and the head.
For each run it prints the SHA-256 of the trained parameters (name, dtype,
shape and bytes, in name order), of the `forward_joint` logits on the test
split (one padded batch), and of the same logits from the freshly built
model before any training (`init-logits`, a check of the forward pass
alone). Its first line, `data`, is the SHA-256 of the test split as
`prepare_examples(load_dataset(...))` returns it (token ids, labels and
operator counts, in order), so a change to the data path can show that it
is bit for bit too. A refactor that claims to keep behaviour to the bit
must leave every line unchanged. It also checks that saving each restored
model gives its checkpoint's exact bytes, and stops if one does not. It
takes no options.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from seqstack.cli import PRESETS, main  # noqa: E402
from seqstack.logic import load_dataset  # noqa: E402
from seqstack.pipeline import (  # noqa: E402
    PairClassifier,
    TrainConfig,
    _batch_arrays,
    load_model,
    prepare_examples,
    save_model,
)
from seqstack.tensor import no_grad  # noqa: E402

BINS = ",".join(f"{b}:60" for b in range(1, 9))
DATA_SEED = "3"
SMALL_DESK = {
    "encoder": {"d": 32, "d_ff": 64, "chunk": 4, "heads": 2, "dropout": 0.2},
    "batch_size": 32,
    "classifier_hidden": 32,
}


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} failed with exit code {code}")


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def data_sha(test_file: Path) -> str:
    """Hash of the prepared examples: ids, label and operator count of each."""
    return _sha(
        part
        for ex in prepare_examples(load_dataset(test_file))
        for part in (
            f"{len(ex.premise_ids)} {len(ex.hyp_ids)} {ex.label} {ex.op_count}\n".encode(),
            ex.premise_ids.tobytes(),
            ex.hyp_ids.tobytes(),
        )
    )


def logits_sha(model, test_file: Path) -> str:
    examples = prepare_examples(load_dataset(test_file))
    ids, mask, _ = _batch_arrays(examples, range(len(examples)))
    with no_grad():
        logits = model.forward_joint(ids, mask).data
    return _sha([str(logits.dtype).encode(), logits.tobytes()])


def fingerprint(run: Path, test_file: Path) -> tuple[str, str, str]:
    """Hashes of the trained parameters, their logits, and the init logits."""
    model, _ = load_model(run / "model.ckpt")
    save_model(run / "resaved.ckpt", model)
    if (run / "resaved.ckpt").read_bytes() != (run / "model.ckpt").read_bytes():
        raise SystemExit(f"{run.name}: saving the restored model changed the checkpoint's bytes")
    params = model.parameters()
    param_sha = _sha(
        part
        for name in sorted(params)
        for part in (
            name.encode(),
            str(params[name].data.dtype).encode(),
            str(params[name].data.shape).encode(),
            params[name].data.tobytes(),
        )
    )
    resolved = json.loads((run / "resolved-config.json").read_text())
    fresh = PairClassifier(TrainConfig.from_dict(resolved["train"]))
    return param_sha, logits_sha(model, test_file), logits_sha(fresh, test_file)


def build() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        config = tmp / "config.json"
        config.write_text(json.dumps(SMALL_DESK))
        _run(["gen-data", "--seed", DATA_SEED, "--bins", BINS, "--out", str(data)])
        print(f"{'data':<12} {'test.tsv':<16} examples {data_sha(data / 'test.tsv')}",
              flush=True)
        settings = {"tiny": ["--tiny"], "d32-dropout": ["--config", str(config)]}
        for setting, extra in settings.items():
            for preset in sorted(PRESETS):
                run = tmp / f"{setting}-{preset}"
                _run(["train", str(data), "--preset", preset, "--epochs", "1",
                      "--out", str(run), *extra])
                param_sha, logit_sha, init_sha = fingerprint(run, data / "test.tsv")
                print(f"{setting:<12} {preset:<16} params {param_sha}  logits {logit_sha}"
                      f"  init-logits {init_sha}", flush=True)


if __name__ == "__main__":
    build()
