"""Language semantics against a brute-force assignment-enumeration oracle.

The reference below evaluates expressions recursively under explicit
{atom: bool} environments and works with Python sets of assignment indices,
sharing nothing with the bitset implementation under test.
"""

import numpy as np
import pytest

from seqstack.errors import ConfigError, DataError
from seqstack.logic import (
    ATOMS,
    And,
    Atom,
    FULL_SET,
    LABEL_TOKENS,
    LabeledPair,
    Not,
    Or,
    Relation,
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
        path = tmp_path / "compat.tsv"
        path.write_text("<\ta\t( a ( or b ) )\n=\tb\tb\n", encoding="utf-8")
        pairs = load_dataset(path)
        assert pairs[0].label == Relation.FORWARD_ENTAILMENT
        assert pairs[1].label == Relation.EQUIVALENCE
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
