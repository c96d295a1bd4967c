"""Propositional pair language: expressions, semantics, and dataset files.

Expressions are trees over six atoms and {or, and, not}. Semantics are
exhaustive: an expression denotes the set of satisfying assignments out of
2^6 = 64, packed into one Python integer (bit k = truth under assignment k,
where atom i is true iff bit i of k is set). The seven pair relations are
decided from the two truth sets by a fixed precedence, so every pair gets
exactly one label.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import ConfigError, DataError
from .rng import SeedStreams

ATOMS = ("a", "b", "c", "d", "e", "f")
# Model vocabulary: padding, the serialized syntax, then the atoms.
VOCAB = ("<pad>", "(", ")", "not", "or", "and") + ATOMS
N_ASSIGNMENTS = 1 << len(ATOMS)
FULL_SET = (1 << N_ASSIGNMENTS) - 1

ATOM_MASKS = {
    name: sum(((k >> i) & 1) << k for k in range(N_ASSIGNMENTS))
    for i, name in enumerate(ATOMS)
}


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


Expr = Union[Atom, Not, Or, And]


def operator_count(e: Expr) -> int:
    if isinstance(e, Atom):
        return 0
    if isinstance(e, Not):
        return 1 + operator_count(e.child)
    return 1 + operator_count(e.left) + operator_count(e.right)


def serialize(e: Expr) -> str:
    """Canonical text: atoms bare, "( not x )", "( x ( op y ) )"."""
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Not):
        return f"( not {serialize(e.child)} )"
    op = "or" if isinstance(e, Or) else "and"
    return f"( {serialize(e.left)} ( {op} {serialize(e.right)} ) )"


def truth_vector(e: Expr) -> int:
    """Satisfying-assignment bitset of e over all 64 atom assignments."""
    if isinstance(e, Atom):
        return ATOM_MASKS[e.name]
    if isinstance(e, Not):
        return FULL_SET ^ truth_vector(e.child)
    if isinstance(e, Or):
        return truth_vector(e.left) | truth_vector(e.right)
    return truth_vector(e.left) & truth_vector(e.right)


class Relation(IntEnum):
    """Seven pair relations with stable integer codes."""

    FORWARD_ENTAILMENT = 0
    REVERSE_ENTAILMENT = 1
    EQUIVALENCE = 2
    NEGATION = 3
    ALTERNATION = 4
    INDEPENDENCE = 5
    COVER = 6


LABEL_TOKENS = {
    Relation.FORWARD_ENTAILMENT: "lt",
    Relation.REVERSE_ENTAILMENT: "gt",
    Relation.EQUIVALENCE: "eq",
    Relation.NEGATION: "neg",
    Relation.ALTERNATION: "alt",
    Relation.INDEPENDENCE: "ind",
    Relation.COVER: "cov",
}

TOKEN_TO_RELATION = {tok: rel for rel, tok in LABEL_TOKENS.items()}

# Symbol aliases used by public natural-logic data files.
LABEL_ALIASES = {
    "<": Relation.FORWARD_ENTAILMENT,
    ">": Relation.REVERSE_ENTAILMENT,
    "=": Relation.EQUIVALENCE,
    "^": Relation.NEGATION,
    "|": Relation.ALTERNATION,
    "#": Relation.INDEPENDENCE,
    "v": Relation.COVER,
}


def relate(p: Expr, h: Expr) -> Relation:
    """Label a pair from its truth sets, by fixed precedence.

    Equivalence, then proper containment each way, then the empty/full tests
    on intersection and union. Precedence makes degenerate (constant) truth
    sets deterministic: a contradiction premise entails everything, so it is
    classified by containment before the contradiction tests are reached.
    """
    pv, hv = truth_vector(p), truth_vector(h)
    if pv == hv:
        return Relation.EQUIVALENCE
    if pv & (hv ^ FULL_SET) == 0:
        return Relation.FORWARD_ENTAILMENT
    if hv & (pv ^ FULL_SET) == 0:
        return Relation.REVERSE_ENTAILMENT
    inter = pv & hv
    union = pv | hv
    if inter == 0 and union == FULL_SET:
        return Relation.NEGATION
    if inter == 0:
        return Relation.ALTERNATION
    if union == FULL_SET:
        return Relation.COVER
    return Relation.INDEPENDENCE


@dataclass(frozen=True)
class LabeledPair:
    premise: Expr
    hypothesis: Expr
    label: Relation
    op_count: int


def make_pair(premise: Expr, hypothesis: Expr) -> LabeledPair:
    return LabeledPair(
        premise,
        hypothesis,
        relate(premise, hypothesis),
        max(operator_count(premise), operator_count(hypothesis)),
    )


MAX_OPS = 12


def sample_expression(rng: np.random.Generator, op_count: int) -> Expr:
    """Uniform operator choices with uniform budget splits, exact total."""
    if not (0 <= op_count <= MAX_OPS):
        raise ConfigError(f"op_count must be in [0, {MAX_OPS}], got {op_count}")
    if op_count == 0:
        return Atom(ATOMS[rng.integers(0, len(ATOMS))])
    op = ("not", "or", "and")[rng.integers(0, 3)]
    remaining = op_count - 1
    if op == "not":
        return Not(sample_expression(rng, remaining))
    left_budget = int(rng.integers(0, remaining + 1))
    left = sample_expression(rng, left_budget)
    right = sample_expression(rng, remaining - left_budget)
    return Or(left, right) if op == "or" else And(left, right)


# One shared node per atom: trees are immutable, so every parse reuses them.
_ATOM_NODES = {name: Atom(name) for name in ATOMS}
_BINARY_OPS = {"or": Or, "and": And}


def _parse(text: str) -> tuple[Expr, int]:
    """Recursive descent over the space-separated tokens, counting operators.

    A None sentinel ends the token list, so running out of input fails like
    any other unexpected token. Byte offsets are computed only on failure.
    """
    tokens: list = [piece for piece in text.split(" ") if piece]
    if not tokens:
        raise DataError("empty expression at byte 0")
    tokens.append(None)
    pos = ops = 0

    def fail(i: int, want: str | None = None):
        tok = tokens[i]
        if tok is None:
            raise DataError(f"unexpected end of input at byte {len(text)}")
        offset = [m.start() for m in re.finditer("[^ ]+", text)][i]
        message = f"expected {want}, found {tok!r}" if want else f"trailing input {tok!r}"
        raise DataError(f"{message} at byte {offset}")

    def expression() -> Expr:
        nonlocal pos, ops
        tok = tokens[pos]
        pos += 1
        node = _ATOM_NODES.get(tok)
        if node is not None:
            return node
        if tok != "(":
            fail(pos - 1, "atom or '('")
        ops += 1
        if tokens[pos] == "not":
            pos += 1
            node = Not(expression())
        else:
            left = expression()
            if tokens[pos] != "(":
                fail(pos, "'('")
            binary = _BINARY_OPS.get(tokens[pos + 1])
            if binary is None:
                fail(pos + 1, "'or' or 'and'")
            pos += 2
            node = binary(left, expression())
            if tokens[pos] != ")":
                fail(pos, "')'")
            pos += 1
        if tokens[pos] != ")":
            fail(pos, "')'")
        pos += 1
        return node

    root = expression()
    if tokens[pos] is not None:
        fail(pos)
    return root, ops


def parse_expression(text: str) -> Expr:
    """Parse the canonical serialization into a tree; errors name a byte offset.

    Atoms are the shared nodes of `_ATOM_NODES`; load_dataset also takes the
    operator count that `_parse` gathers on the way.
    """
    return _parse(text)[0]


def _split_sizes(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    n_train = int(n * ratios[0])
    n_dev = int(n * ratios[1])
    return n_train, n_dev, n - n_train - n_dev


DEFAULT_RATIOS = (0.8, 0.1, 0.1)
SAMPLING_ATTEMPT_FACTOR = 50


def sample_bin(
    rng: np.random.Generator, op_count: int, count: int
) -> list[LabeledPair]:
    """Distinct pairs whose larger side has exactly `op_count` operators.

    The other side draws a uniform budget in [0, op_count]; sides are swapped
    with probability one half. Distinctness is exact text identity of the
    ordered pair.
    """
    if count < 1:
        raise ConfigError(f"bin count must be positive, got {count}")
    seen: set[tuple[str, str]] = set()
    pairs: list[LabeledPair] = []
    attempts = 0
    limit = SAMPLING_ATTEMPT_FACTOR * count
    while len(pairs) < count:
        attempts += 1
        if attempts > limit:
            raise DataError(
                f"could not draw {count} distinct pairs at op_count={op_count} "
                f"within {limit} attempts"
            )
        exact = sample_expression(rng, op_count)
        other = sample_expression(rng, int(rng.integers(0, op_count + 1)))
        premise, hypothesis = (exact, other) if rng.integers(0, 2) else (other, exact)
        key = (serialize(premise), serialize(hypothesis))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(make_pair(premise, hypothesis))
    return pairs


def generate_dataset(
    seed: int,
    bin_counts: dict[int, int],
    out_dir: str | Path,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
) -> dict:
    """Write train/dev/test TSVs plus metadata.json; returns the metadata.

    Bins are sampled on independent named substreams and split per bin, so
    every split covers every length bin at the configured ratios and reruns
    with one seed are byte-identical.
    """
    if not bin_counts:
        raise ConfigError("bin_counts must name at least one bin")
    for b in bin_counts:
        if not (1 <= b <= MAX_OPS):
            raise ConfigError(f"bin {b} outside [1, {MAX_OPS}]")
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios must be nonnegative and sum to 1, got {ratios}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc
    streams = SeedStreams(seed)
    splits: dict[str, list[LabeledPair]] = {"train": [], "dev": [], "test": []}
    per_bin_meta: dict[str, dict] = {}
    for op_count in sorted(bin_counts):
        pairs = sample_bin(
            streams.stream("data", f"bin{op_count}"), op_count, bin_counts[op_count]
        )
        order = streams.stream("data", f"split{op_count}").permutation(len(pairs))
        shuffled = [pairs[i] for i in order]
        n_train, n_dev, _ = _split_sizes(len(shuffled), ratios)
        splits["train"].extend(shuffled[:n_train])
        splits["dev"].extend(shuffled[n_train : n_train + n_dev])
        splits["test"].extend(shuffled[n_train + n_dev :])
        per_bin_meta[str(op_count)] = {
            "count": len(pairs),
            "labels": dict(Counter(LABEL_TOKENS[p.label] for p in pairs)),
        }
    histogram: Counter = Counter()
    for split_name, pairs in splits.items():
        path = out_dir / f"{split_name}.tsv"
        try:
            with open(path, "w", encoding="utf-8") as fh:
                for pair in pairs:
                    fh.write(
                        f"{LABEL_TOKENS[pair.label]}\t{serialize(pair.premise)}\t"
                        f"{serialize(pair.hypothesis)}\n"
                    )
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc
        histogram.update(LABEL_TOKENS[p.label] for p in pairs)
    metadata = {
        "seed": seed,
        "bin_counts": {str(k): v for k, v in sorted(bin_counts.items())},
        "ratios": list(ratios),
        "sizes": {name: len(pairs) for name, pairs in splits.items()},
        "label_histogram": dict(sorted(histogram.items())),
        "per_bin": per_bin_meta,
    }
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metadata


def load_dataset(path: str | Path) -> list[LabeledPair]:
    """Read a TSV of label/premise/hypothesis lines into labeled pairs.

    Accepts both the token labels written by generate_dataset and the
    single-character symbols used by public natural-logic files. The stored
    label is trusted here; audit_pairs re-derives labels when verification
    is wanted. Each distinct expression text is parsed once per call: pairs
    that repeat a text share its (immutable) tree, and a pair's op_count
    comes from the operators the parse counted.
    """
    path = Path(path)
    pairs: list[LabeledPair] = []
    parsed: dict[str, tuple[Expr, int]] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        token, premise_text, hypothesis_text = parts
        label = TOKEN_TO_RELATION.get(token, LABEL_ALIASES.get(token))
        if label is None:
            raise DataError(f"{path}:{lineno}: unknown label token {token!r}")
        try:
            for text in (premise_text, hypothesis_text):
                if text not in parsed:
                    parsed[text] = _parse(text)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        (premise, premise_ops), (hypothesis, hypothesis_ops) = (
            parsed[premise_text], parsed[hypothesis_text])
        pairs.append(LabeledPair(premise, hypothesis, label, max(premise_ops, hypothesis_ops)))
    return pairs


def audit_pairs(pairs: Iterable[LabeledPair]) -> None:
    """Re-derive every label; mismatches mean the file lies about its data."""
    for i, pair in enumerate(pairs):
        derived = relate(pair.premise, pair.hypothesis)
        if derived != pair.label:
            raise DataError(
                f"pair {i}: stored label {LABEL_TOKENS[pair.label]} != derived "
                f"{LABEL_TOKENS[derived]}"
            )
