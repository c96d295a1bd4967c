"""Language semantics against a brute-force assignment-enumeration oracle.

The reference below evaluates expressions recursively under explicit
{atom: bool} environments and works with Python sets of assignment indices,
sharing nothing with the bitset implementation under test.
"""

import numpy as np
import pytest

from parser_reference import reference_parse
from seqstack.errors import ConfigError, DataError
from seqstack.logic import (
    ATOMS,
    And,
    Atom,
    FULL_SET,
    LABEL_ALIASES,
    LABEL_TOKENS,
    LabeledPair,
    MAX_OPS,
    Not,
    Or,
    Relation,
    TOKEN_TO_RELATION,
    _parse,
    audit_pairs,
    generate_dataset,
    load_dataset,
    make_pair,
    operator_count,
    parse_expression,
    relate,
    sample_expression,
    serialize,
    truth_vector,
)


def converse(label):
    """The relation of the swapped pair: the two entailments trade places."""
    if label == Relation.FORWARD_ENTAILMENT:
        return Relation.REVERSE_ENTAILMENT
    if label == Relation.REVERSE_ENTAILMENT:
        return Relation.FORWARD_ENTAILMENT
    return label


def ref_eval(e, env):
    if isinstance(e, Atom):
        return env[e.name]
    if isinstance(e, Not):
        return not ref_eval(e.child, env)
    if isinstance(e, Or):
        return ref_eval(e.left, env) or ref_eval(e.right, env)
    return ref_eval(e.left, env) and ref_eval(e.right, env)


def ref_truth_set(e):
    out = set()
    for k in range(64):
        env = {name: bool((k >> i) & 1) for i, name in enumerate(ATOMS)}
        if ref_eval(e, env):
            out.add(k)
    return out


EVERYTHING = set(range(64))


def ref_relate(p, h):
    ps, hs = ref_truth_set(p), ref_truth_set(h)
    if ps == hs:
        return Relation.EQUIVALENCE
    if ps < hs:
        return Relation.FORWARD_ENTAILMENT
    if hs < ps:
        return Relation.REVERSE_ENTAILMENT
    if not (ps & hs) and (ps | hs) == EVERYTHING:
        return Relation.NEGATION
    if not (ps & hs):
        return Relation.ALTERNATION
    if (ps | hs) == EVERYTHING:
        return Relation.COVER
    return Relation.INDEPENDENCE


def bits_to_set(v):
    return {k for k in range(64) if (v >> k) & 1}


class TestTruthVectors:
    def test_atom_true_on_exactly_half(self):
        for i, name in enumerate(ATOMS):
            v = truth_vector(Atom(name))
            got = bits_to_set(v)
            assert got == {k for k in range(64) if (k >> i) & 1}
            assert len(got) == 32

    def test_tautology_is_full(self):
        assert truth_vector(Or(Atom("a"), Not(Atom("a")))) == FULL_SET

    def test_contradiction_is_empty(self):
        assert truth_vector(And(Atom("b"), Not(Atom("b")))) == 0

    def test_known_popcount_by_enumeration(self):
        e = And(Or(Atom("a"), Atom("b")), Not(Atom("c")))
        ref = ref_truth_set(e)
        assert len(ref) == 24
        assert bits_to_set(truth_vector(e)) == ref

    def test_matches_reference_on_random_expressions(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            e = sample_expression(rng, int(rng.integers(0, 9)))
            assert bits_to_set(truth_vector(e)) == ref_truth_set(e)

    def test_de_morgan_identity(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            x = sample_expression(rng, int(rng.integers(0, 5)))
            y = sample_expression(rng, int(rng.integers(0, 5)))
            assert truth_vector(Not(And(x, y))) == truth_vector(Or(Not(x), Not(y)))


class TestRelate:
    def test_reflexivity_is_equivalence(self):
        assert relate(Atom("a"), Atom("a")) == Relation.EQUIVALENCE

    def test_hand_labeled_cases(self):
        a, b = Atom("a"), Atom("b")
        assert relate(a, Or(a, b)) == Relation.FORWARD_ENTAILMENT
        assert relate(Or(a, b), a) == Relation.REVERSE_ENTAILMENT
        assert relate(a, Not(a)) == Relation.NEGATION
        assert relate(a, b) == Relation.INDEPENDENCE
        assert relate(Or(a, b), Not(a)) == Relation.COVER
        assert relate(And(a, b), And(Not(a), Not(b))) == Relation.ALTERNATION

    def test_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(2000):
            p = sample_expression(rng, int(rng.integers(0, 7)))
            h = sample_expression(rng, int(rng.integers(0, 7)))
            label = relate(p, h)
            assert label == ref_relate(p, h)
            seen.add(label)
        assert seen == set(Relation)

    def test_converse_symmetry_sweep(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            p = sample_expression(rng, int(rng.integers(0, 6)))
            h = sample_expression(rng, int(rng.integers(0, 6)))
            assert relate(h, p) == converse(relate(p, h))

    def test_double_negation_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            p = sample_expression(rng, int(rng.integers(0, 5)))
            h = sample_expression(rng, int(rng.integers(0, 5)))
            assert relate(Not(Not(p)), h) == relate(p, h)

    def test_monotone_embedding(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            p = sample_expression(rng, int(rng.integers(0, 5)))
            q = sample_expression(rng, int(rng.integers(0, 5)))
            assert relate(p, Or(p, q)) in (
                Relation.FORWARD_ENTAILMENT,
                Relation.EQUIVALENCE,
            )

    def test_degenerate_truth_sets_follow_precedence(self):
        taut = Or(Atom("a"), Not(Atom("a")))
        contra = And(Atom("a"), Not(Atom("a")))
        assert relate(contra, Atom("b")) == Relation.FORWARD_ENTAILMENT
        assert relate(taut, Atom("b")) == Relation.REVERSE_ENTAILMENT
        assert relate(contra, taut) == Relation.FORWARD_ENTAILMENT
        assert relate(contra, And(Atom("b"), Not(Atom("b")))) == Relation.EQUIVALENCE

    def test_label_codes_and_tokens_are_stable(self):
        assert [r.value for r in Relation] == [0, 1, 2, 3, 4, 5, 6]
        assert LABEL_TOKENS[Relation.FORWARD_ENTAILMENT] == "lt"
        assert LABEL_TOKENS[Relation.REVERSE_ENTAILMENT] == "gt"
        assert LABEL_TOKENS[Relation.EQUIVALENCE] == "eq"
        assert LABEL_TOKENS[Relation.NEGATION] == "neg"
        assert LABEL_TOKENS[Relation.ALTERNATION] == "alt"
        assert LABEL_TOKENS[Relation.INDEPENDENCE] == "ind"
        assert LABEL_TOKENS[Relation.COVER] == "cov"


class TestSampling:
    def test_zero_budget_is_an_atom(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            e = sample_expression(rng, 0)
            assert isinstance(e, Atom)

    def test_unit_budget_forms(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            e = sample_expression(rng, 1)
            assert operator_count(e) == 1
            if isinstance(e, Not):
                assert isinstance(e.child, Atom)
            else:
                assert isinstance(e.left, Atom) and isinstance(e.right, Atom)

    def test_budget_exact_and_everything_appears(self):
        rng = np.random.default_rng(25)
        kinds, atoms = set(), set()
        for _ in range(10000):
            e = sample_expression(rng, 6)
            assert operator_count(e) == 6
            text = serialize(e)
            for op in ("not", "or", "and"):
                if f" {op} " in text:
                    kinds.add(op)
            atoms.update(c for c in text if c in ATOMS)
        assert kinds == {"not", "or", "and"}
        assert atoms == set(ATOMS)

    def test_out_of_range_budget_rejected(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ConfigError):
            sample_expression(rng, -1)
        with pytest.raises(ConfigError):
            sample_expression(rng, 13)


class TestParser:
    def test_atom(self):
        assert parse_expression("a") == Atom("a")

    def test_hand_constructed_tree(self):
        assert parse_expression("( not ( a ( or b ) ) )") == Not(Or(Atom("a"), Atom("b")))

    def test_binary_tree(self):
        got = parse_expression("( ( not c ) ( and d ) )")
        assert got == And(Not(Atom("c")), Atom("d"))

    def test_round_trip_on_random_expressions(self):
        rng = np.random.default_rng(27)
        for _ in range(10000):
            e = sample_expression(rng, int(rng.integers(0, 13)))
            assert parse_expression(serialize(e)) == e

    def test_errors_carry_byte_offsets(self):
        with pytest.raises(DataError, match="byte 2"):
            parse_expression("a junk")
        with pytest.raises(DataError, match="byte 8"):
            parse_expression("( a ( or")
        with pytest.raises(DataError, match="byte 2"):
            parse_expression("( xyz ( or b ) )")
        with pytest.raises(DataError, match="byte 0"):
            parse_expression("")
        with pytest.raises(DataError, match="byte"):
            parse_expression("( a ( xor b ) )")


def parse_outcome(parse, text):
    """The tree `parse` returns for `text`, or the message of its DataError."""
    try:
        return parse(text)
    except DataError as exc:
        return f"DataError: {exc}"


# Tokens a mutation inserts: the grammar's own, plus ones it never accepts.
MUTATION_TOKENS = ("(", ")", "not", "or", "and", "a", "f", "xyz", "((", "A", "\t")


def mutate(rng, text):
    """One seeded edit: delete, insert or swap a token, or double a space."""
    tokens = text.split(" ")
    i = int(rng.integers(0, len(tokens)))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        del tokens[i]
    elif kind == 1:
        tokens.insert(int(rng.integers(0, len(tokens) + 1)),
                      MUTATION_TOKENS[rng.integers(0, len(MUTATION_TOKENS))])
    elif kind == 2:
        j = int(rng.integers(0, len(tokens)))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    else:
        # an empty piece: a doubled space, or a leading or trailing one
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), "")
    return " ".join(tokens)


class TestParserAgainstReference:
    """The parser against the recursive-descent parser it replaced."""

    ERROR_KINDS = ("empty expression", "unexpected end of input", "expected atom or '('",
                   "expected '('", "expected ')'", "expected 'or' or 'and'", "trailing input")

    def test_random_expressions_parse_to_equal_trees_and_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(5000):
            e = sample_expression(rng, int(rng.integers(0, MAX_OPS + 1)))
            text = serialize(e)
            tree, ops = _parse(text)
            assert tree == reference_parse(text) == e
            assert ops == operator_count(e)

    def test_mutated_texts_give_the_same_tree_or_the_same_error(self):
        rng = np.random.default_rng(32)
        errors, parsed = set(), 0
        for _ in range(15000):
            text = serialize(sample_expression(rng, int(rng.integers(0, MAX_OPS + 1))))
            for _ in range(int(rng.integers(1, 4))):
                text = mutate(rng, text)
            got = parse_outcome(parse_expression, text)
            assert got == parse_outcome(reference_parse, text), text
            if isinstance(got, str):
                errors.add(next(kind for kind in self.ERROR_KINDS
                                if got.startswith(f"DataError: {kind}")))
            else:
                parsed += 1
                assert _parse(text)[1] == operator_count(got)
        assert parsed > 0
        assert errors == set(self.ERROR_KINDS)

    def test_hand_written_malformed_texts_match(self):
        for text in ("", " ", "  ", "a junk", " ( a ( or", "( a ( or", "( xyz ( or b ) )",
                     "( a ( xor b ) )", "( a  ( and b ) ) )", "( not a ]", "( a b ( or c ) )",
                     "( a ( or b ) (", "( not  ", ") a", "a\t", "( a ( or b ) ) c"):
            assert parse_outcome(parse_expression, text) == parse_outcome(reference_parse, text)


def reference_load(path):
    """load_dataset's pairs, each side parsed afresh by the reference parser."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        token, premise_text, hypothesis_text = line.split("\t")
        premise, hypothesis = reference_parse(premise_text), reference_parse(hypothesis_text)
        pairs.append(LabeledPair(premise, hypothesis, TOKEN_TO_RELATION[token],
                                 max(operator_count(premise), operator_count(hypothesis))))
    return pairs


class TestLoadDatasetParsesEachTextOnce:
    SHARED = "( ( not a ) ( or ( b ( and c ) ) ) )"

    def test_repeated_text_shares_one_tree(self, tmp_path):
        path = tmp_path / "repeats.tsv"
        path.write_text(f"lt\t{self.SHARED}\tc\neq\t{self.SHARED}\t{self.SHARED}\n"
                        f"ind\t( not c )\td\ngt\td\t{self.SHARED}\n", encoding="utf-8")
        pairs = load_dataset(path)
        shared = [pairs[0].premise, pairs[1].premise, pairs[1].hypothesis, pairs[3].hypothesis]
        assert all(tree is shared[0] for tree in shared)
        for pair in pairs:
            assert pair.op_count == max(operator_count(pair.premise),
                                        operator_count(pair.hypothesis))
        assert pairs == reference_load(path)
        # the memo lives for one call: a second load builds its trees anew
        assert load_dataset(path)[0].premise is not pairs[0].premise

    def test_generated_splits_equal_the_reference_load(self, tmp_path):
        generate_dataset(14, {b: 40 for b in range(1, 9)}, tmp_path)
        for split in ("train", "dev", "test"):
            path = tmp_path / f"{split}.tsv"
            assert load_dataset(path) == reference_load(path)

    def test_a_failed_parse_is_not_remembered(self, tmp_path):
        path = tmp_path / "bad.tsv"
        bad = "( a ( xor b ) )"
        path.write_text(f"eq\ta\ta\nlt\ta\t{self.SHARED}\nind\tb\t{bad}\n"
                        f"eq\tb\tb\nind\t{bad}\tc\n", encoding="utf-8")
        with pytest.raises(DataError) as first:
            load_dataset(path)
        message = str(first.value)
        assert ":3: expected 'or' or 'and', found 'xor' at byte 6" in message
        path.write_text("\n".join(path.read_text().splitlines()[3:]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.tsv:2: expected 'or' or 'and'"):
            load_dataset(path)


class TestDatasetGeneration:
    BINS = {1: 10, 2: 20, 3: 30}

    def test_files_sizes_and_audit(self, tmp_path):
        meta = generate_dataset(7, self.BINS, tmp_path)
        assert meta["sizes"] == {"train": 48, "dev": 6, "test": 6}
        for split, want in meta["sizes"].items():
            pairs = load_dataset(tmp_path / f"{split}.tsv")
            assert len(pairs) == want
            audit_pairs(pairs)

    def test_every_bin_reaches_every_split(self, tmp_path):
        generate_dataset(8, self.BINS, tmp_path)
        for split in ("train", "dev", "test"):
            pairs = load_dataset(tmp_path / f"{split}.tsv")
            assert {p.op_count for p in pairs} == {1, 2, 3}

    def test_splits_disjoint_by_exact_pair(self, tmp_path):
        generate_dataset(9, self.BINS, tmp_path)
        keyed = {}
        for split in ("train", "dev", "test"):
            for p in load_dataset(tmp_path / f"{split}.tsv"):
                key = (serialize(p.premise), serialize(p.hypothesis))
                assert key not in keyed, f"{key} in both {keyed.get(key)} and {split}"
                keyed[key] = split

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(10, self.BINS, a)
        generate_dataset(10, self.BINS, b)
        for name in ("train.tsv", "dev.tsv", "test.tsv", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(10, self.BINS, a)
        generate_dataset(11, self.BINS, b)
        assert (a / "train.tsv").read_bytes() != (b / "train.tsv").read_bytes()

    def test_metadata_contents(self, tmp_path):
        meta = generate_dataset(12, {2: 40}, tmp_path)
        assert meta["seed"] == 12
        assert meta["bin_counts"] == {"2": 40}
        assert sum(meta["label_histogram"].values()) == 40
        assert meta["per_bin"]["2"]["count"] == 40

    def test_impossible_bin_raises(self, tmp_path, monkeypatch):
        import seqstack.logic as logic_mod

        monkeypatch.setattr(logic_mod, "SAMPLING_ATTEMPT_FACTOR", 2)
        with pytest.raises(DataError, match="distinct pairs"):
            generate_dataset(13, {1: 8000}, tmp_path)

    def test_symbol_alias_labels_load(self, tmp_path):
        rows = [  # label, premise, hypothesis, the relation the label names
            ("<", "a", "( a ( or b ) )", Relation.FORWARD_ENTAILMENT),
            (">", "( a ( or b ) )", "a", Relation.REVERSE_ENTAILMENT),
            ("=", "( not ( not b ) )", "b", Relation.EQUIVALENCE),
            ("^", "a", "( not a )", Relation.NEGATION),
            ("|", "( a ( and b ) )", "( not a )", Relation.ALTERNATION),
            ("#", "a", "b", Relation.INDEPENDENCE),
            ("v", "( a ( or b ) )", "( not a )", Relation.COVER),
            ("gt", "c", "( c ( and d ) )", Relation.REVERSE_ENTAILMENT),
            ("neg", "( not d )", "d", Relation.NEGATION),
            ("ind", "c", "d", Relation.INDEPENDENCE),
        ]
        assert {r[0] for r in rows} >= set(LABEL_ALIASES)
        path = tmp_path / "compat.tsv"
        path.write_text("".join(f"{t}\t{p}\t{h}\n" for t, p, h, _ in rows), encoding="utf-8")
        pairs = load_dataset(path)
        assert [pair.label for pair in pairs] == [r[3] for r in rows]
        audit_pairs(pairs)

    def test_label_audit_catches_lies(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("eq\ta\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match="stored label"):
            audit_pairs(load_dataset(path))

    def test_malformed_lines_name_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("eq\ta\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad.tsv:1"):
            load_dataset(path)
        path.write_text("wat\ta\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown label"):
            load_dataset(path)

    def test_pair_op_count_is_max_of_sides(self):
        pair = make_pair(parse_expression("( not ( not a ) )"), Atom("b"))
        assert pair.op_count == 2
        assert pair.label == relate(pair.premise, pair.hypothesis)
