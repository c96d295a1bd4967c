"""Build the golden eval fixture under tests/golden/.

Run once from the repository root when the model or checkpoint format
changes intentionally:

    python3 scripts/make_golden.py

It generates a small dataset, trains a short hybrid run through the CLI,
evaluates the best checkpoint, and copies the checkpoint, the test split,
and the per-bin CSV into tests/golden/ as model.ckpt, test.tsv and bins.csv.
It also writes logits.txt: the `forward_joint` logits of model.ckpt on
test.tsv, one padded batch, one row per pair. The eval regression tests
replay model.ckpt on test.tsv and compare its CSV with bins.csv
byte-for-byte and its logits with logits.txt within a tolerance (the golden
model predicts the majority class in every bin, so the CSV alone cannot see
a change in the forward pass). The four files are rebuilt and committed
together.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from seqstack.cli import main  # noqa: E402
from seqstack.logic import load_dataset  # noqa: E402
from seqstack.pipeline import _batch_arrays, load_model, prepare_examples  # noqa: E402
from seqstack.tensor import no_grad  # noqa: E402

GOLDEN = REPO / "tests" / "golden"

TRAIN_OVERRIDES = {
    "encoder": {"d": 16, "d_ff": 32, "chunk": 4, "heads": 2, "dropout": 0.1},
    "epochs": 3,
    "batch_size": 16,
    "lr": 1e-3,
    "dropout": 0.1,
    "classifier_hidden": 32,
    "seed": 9,
}


def build() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        run = tmp / "run"
        evald = tmp / "eval"
        config = tmp / "config.json"
        config.write_text(json.dumps(TRAIN_OVERRIDES))
        steps = [
            ["gen-data", "--seed", "5", "--bins", "1:30,2:30,7:30", "--out", str(data)],
            ["train", str(data), "--preset", "hybrid-shortcut",
             "--config", str(config), "--out", str(run)],
            ["eval", str(run / "model.ckpt"), str(data / "test.tsv"),
             "--out", str(evald)],
        ]
        for argv in steps:
            code = main(argv)
            if code != 0:
                raise SystemExit(f"step {argv[0]} failed with exit code {code}")
        GOLDEN.mkdir(parents=True, exist_ok=True)
        shutil.copy(run / "model.ckpt", GOLDEN / "model.ckpt")
        shutil.copy(data / "test.tsv", GOLDEN / "test.tsv")
        shutil.copy(evald / "bins.csv", GOLDEN / "bins.csv")
    write_logits()
    print(f"golden fixture written to {GOLDEN}")


def write_logits() -> None:
    model, _ = load_model(GOLDEN / "model.ckpt")
    examples = prepare_examples(load_dataset(GOLDEN / "test.tsv"))
    ids, mask, _ = _batch_arrays(examples, range(len(examples)))
    with no_grad():
        logits = model.forward_joint(ids, mask).data
    np.savetxt(GOLDEN / "logits.txt", logits, fmt="%.9e")


if __name__ == "__main__":
    build()
