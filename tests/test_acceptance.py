"""Acceptance gate: eight criteria, each printing one verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as the
criteria execute. Criterion 6 has two forms: the CI-scale run (always on,
d=64, 6k examples, 10 epochs, budget 10 minutes) and the full desk-scale
comparison (hours of compute), which only runs when SEQSTACK_FULL_ACCEPTANCE
is set in the environment.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import seqstack.cli as cli
import seqstack.pipeline as P
import seqstack.tensor as T
from seqstack.encoder import EncoderConfig
from seqstack.logic import (
    And,
    Not,
    Or,
    converse,
    generate_dataset,
    load_dataset,
    make_pair,
    relate,
    sample_expression,
    truth_vector,
)
from seqstack.recurrent import (
    OnLstmParams,
    cumax,
    lstm_cell_step,
    on_lstm_cell_step,
)
from test_recurrent import scalar_onlstm_step


def verdict(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


class TestCriterion1MechanismCorrectness:
    def test_cell_matches_scalar_reference_and_forced_gate_identities(self):
        tol = 1e-6
        steps = 1000
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        worst_cell = 0.0
        worst_identity = 0.0
        with T.dtype_scope("float64"):
            params = OnLstmParams(d_in=6, d_hidden=8, chunk=4, rng=rng)
            for step in range(steps):
                if step % 200 == 0:
                    params = OnLstmParams(d_in=6, d_hidden=8, chunk=4, rng=rng)
                x = rng.standard_normal(6)
                h = rng.standard_normal(8) * 0.5
                c = rng.standard_normal(8)
                got_h, got_c = on_lstm_cell_step(
                    params,
                    T.constant(x[None, :]),
                    (T.constant(h[None, :]), T.constant(c[None, :])),
                )
                ref = scalar_onlstm_step(params, x, h, c)
                worst_cell = max(
                    worst_cell,
                    np.max(np.abs(got_h.data[0] - ref["h"])),
                    np.max(np.abs(got_c.data[0] - ref["c"])),
                )
                # decomposed erase/write gates against the raw-gate algebra
                lhs = np.asarray(ref["fhat"]) + np.asarray(ref["ihat"])
                rhs = (
                    np.asarray(ref["ft"]) + np.asarray(ref["it"])
                    + (np.asarray(ref["f"]) + np.asarray(ref["i"]) - 2.0)
                    * np.asarray(ref["w"])
                )
                worst_identity = max(worst_identity, np.max(np.abs(lhs - rhs)))

            # saturated overlap: the ordered cell must equal the plain cell
            ones = T.constant(np.ones((4, 8)))
            x = T.constant(rng.standard_normal((4, 6)))
            h = T.constant(rng.standard_normal((4, 8)))
            c = T.constant(rng.standard_normal((4, 8)))
            forced_h, forced_c = on_lstm_cell_step(
                params, x, (h, c), master_override=(ones, ones)
            )
            plain_h, plain_c = lstm_cell_step(params.base, x, (h, c))
            saturated_exact = np.array_equal(forced_h.data, plain_h.data) and np.array_equal(
                forced_c.data, plain_c.data
            )

            # disjoint supports: zero overlap hands each gate its whole block
            ft = np.tile(np.array([1.0] * 4 + [0.0] * 4), (4, 1))
            it = 1.0 - ft
            disj_h, disj_c = on_lstm_cell_step(
                params, x, (h, c), master_override=(T.constant(ft), T.constant(it))
            )
            worst_disjoint = 0.0
            for row in range(4):
                ref = scalar_onlstm_step(
                    params, x.data[row], h.data[row], c.data[row],
                    masters=(ft[row], it[row]),
                )
                assert np.max(np.abs(np.asarray(ref["fhat"]) - ft[row])) == 0.0
                assert np.max(np.abs(np.asarray(ref["ihat"]) - it[row])) == 0.0
                worst_disjoint = max(
                    worst_disjoint,
                    np.max(np.abs(disj_c.data[row] - ref["c"])),
                    np.max(np.abs(disj_h.data[row] - ref["h"])),
                )
        elapsed = time.perf_counter() - started
        ok = (
            worst_cell < tol
            and worst_identity < tol
            and saturated_exact
            and worst_disjoint < tol
            and elapsed < 60.0
        )
        verdict(
            1, "ordered-cell scalar equivalence and forced-gate identities", ok,
            f"cell {worst_cell:.2e}, identity {worst_identity:.2e}, "
            f"saturated exact {saturated_exact}, disjoint {worst_disjoint:.2e}, "
            f"{elapsed:.1f}s for {steps} steps",
        )


class TestCriterion2CumaxContract:
    def test_worked_example_and_monotone_terminal_properties(self):
        probs = np.array([[0.1, 0.2, 0.4, 0.2, 0.1]])
        with T.dtype_scope("float64"):
            out = cumax(T.constant(np.log(probs))).data[0]
        example_ok = np.allclose(out, [0.1, 0.3, 0.7, 0.9, 1.0], atol=1e-9, rtol=0)

        worst_drop = 0.0
        props_ok = True
        details = []
        for dtype, n, tol in (("float32", 500, 5e-6), ("float64", 500, 1e-12)):
            worst_terminal = 0.0
            rng = np.random.default_rng(7 if dtype == "float32" else 8)
            for _ in range(n):
                width = int(rng.integers(1, 24))
                logits = (rng.standard_normal((1, width)) * rng.uniform(0.5, 6.0))
                row = cumax(T.constant(logits.astype(dtype))).data[0]
                assert row.dtype == np.dtype(dtype)
                if width > 1:
                    worst_drop = max(worst_drop, float(np.max(-np.diff(row), initial=0.0)))
                worst_terminal = max(worst_terminal, abs(float(row[-1]) - 1.0))
            props_ok = props_ok and worst_terminal < tol
            details.append(f"{dtype} terminal gap {worst_terminal:.2e}")
        props_ok = props_ok and worst_drop <= 1e-7
        verdict(
            2, "cumulative-softmax worked example and gate properties",
            example_ok and props_ok,
            f"example {out.round(6).tolist()}, worst drop {worst_drop:.2e}, "
            + ", ".join(details) + " over 1000 vectors",
        )


class TestCriterion3ShortCutExactness:
    def test_combined_minus_attention_recovers_recurrent_stack(self):
        from seqstack.encoder import Encoder
        from seqstack.rng import SeedStreams

        tol = 1e-6
        worst = 0.0
        rng = np.random.default_rng(11)
        for trial in range(5):
            config = EncoderConfig(
                kind="hybrid", vocab_size=12, d=16, heads=4, d_ff=32, chunk=4,
                recurrent_layers=int(rng.integers(1, 3)),
                attention_layers=int(rng.integers(1, 3)),
                use_short_cut=True,
            )
            enc = Encoder(config, SeedStreams(200 + trial))
            b, n = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            ids = rng.integers(1, 12, size=(b, n))
            mask = np.ones((b, n))
            if b > 1:
                mask[-1, max(1, n // 2):] = 0.0
            out = enc(ids, mask=mask)
            residual = out.seq.data - out.h_san.data
            worst = max(worst, float(np.max(np.abs(residual - out.h_rnn.data))))
        verdict(
            3, "short-cut output minus attention stack equals recurrent stack",
            worst < tol, f"worst elementwise gap {worst:.2e} over 5 random passes",
        )


class TestCriterion4Differentiability:
    def test_gradcheck_matrix_over_all_kinds(self, tmp_path):
        started = time.perf_counter()
        code = cli.main(["gradcheck", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - started
        report = (tmp_path / "report.txt").read_text()
        errors = [
            float(line.split()[-2])
            for line in report.splitlines()
            if line.endswith(("PASS", "FAIL")) and "result" not in line
        ]
        ok = code == 0 and errors and max(errors) < 1e-3 and elapsed < 600.0
        verdict(
            4, "finite-difference gradcheck matrix (4 kinds, 64-bit)", ok,
            f"exit {code}, worst rel err {max(errors):.2e} over {len(errors)} "
            f"parameters, {elapsed:.1f}s",
        )


class TestCriterion5OracleSoundness:
    def test_relation_algebra_properties_on_random_pairs(self):
        n_pairs = 100_000
        started = time.perf_counter()
        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(n_pairs):
            a = sample_expression(rng, int(rng.integers(0, 7)))
            b = sample_expression(rng, int(rng.integers(0, 7)))
            if relate(a, b) != converse(relate(b, a)):
                violations += 1
            if truth_vector(Not(Not(a))) != truth_vector(a):
                violations += 1
            if truth_vector(Not(Or(a, b))) != truth_vector(And(Not(a), Not(b))):
                violations += 1
            if truth_vector(Not(And(a, b))) != truth_vector(Or(Not(a), Not(b))):
                violations += 1
        elapsed = time.perf_counter() - started
        ok = violations == 0 and elapsed < 120.0
        verdict(
            5, "converse symmetry, double negation, De Morgan", ok,
            f"{violations} violations over {n_pairs} pairs, {elapsed:.1f}s",
        )


def _tiny_ci_dataset(root: Path) -> Path:
    data = root / "data"
    code = cli.main(
        ["gen-data", "--seed", "42", "--bins", "tiny", "--out", str(data)]
    )
    assert code == 0
    return data


_CI_MODELS = ("lstm", "onlstm", "san", "hybrid-shortcut")


class TestCriterion6LengthGeneralization:
    def test_tiny_ci_variant_beats_majority_by_20_points(self, tmp_path):
        started = time.perf_counter()
        data = _tiny_ci_dataset(tmp_path)
        margins = {}
        ok = True
        for preset in _CI_MODELS:
            out = tmp_path / f"run_{preset}"
            code = cli.main(
                ["train", str(data), "--preset", preset, "--tiny", "--out", str(out)]
            )
            assert code == 0, preset
            rows = (out / "bins.csv").read_text().splitlines()
            le6 = next(r for r in rows if r.startswith("le6,"))
            _, _, acc, majority = le6.split(",")
            margin = float(acc) - float(majority)
            margins[preset] = (float(acc), float(majority), margin)
            ok = ok and margin >= 0.20
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 600.0
        detail = ", ".join(
            f"{p}: {a:.3f} vs majority {m:.3f} (+{g * 100:.1f}pts)"
            for p, (a, m, g) in margins.items()
        )
        verdict(
            6, "tiny run beats the majority baseline by 20 points", ok,
            f"{detail}; {elapsed:.0f}s total",
        )

    @pytest.mark.skipif(
        not os.environ.get("SEQSTACK_FULL_ACCEPTANCE"),
        reason="desk-scale comparison takes hours; set SEQSTACK_FULL_ACCEPTANCE=1",
    )
    def test_full_desk_scale_comparison(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(
            ["gen-data", "--seed", "42", "--bins", "default", "--out", str(data)]
        ) == 0
        seeds = (42, 43, 44)
        passing = 0
        details = []
        for seed in seeds:
            results = {}
            for preset in _CI_MODELS:
                out = tmp_path / f"run_{preset}_{seed}"
                code = cli.main(
                    ["train", str(data), "--preset", preset, "--epochs", "30",
                     "--seed", str(seed), "--out", str(out)]
                )
                assert code == 0
                rows = (out / "bins.csv").read_text().splitlines()
                stats = {}
                for name in ("le6", "ge7"):
                    row = next(r for r in rows if r.startswith(name + ","))
                    _, _, acc, majority = row.split(",")
                    stats[name] = (float(acc), float(majority))
                results[preset] = stats
            beats_majority = all(
                stats["le6"][0] >= stats["le6"][1] + 0.20 for stats in results.values()
            )
            hybrid_ge7 = results["hybrid-shortcut"]["ge7"][0]
            long_gap = (
                hybrid_ge7 >= results["san"]["ge7"][0] + 0.03
                and hybrid_ge7 >= results["lstm"]["ge7"][0]
            )
            if beats_majority and long_gap:
                passing += 1
            details.append(
                f"seed {seed}: majority+20 {beats_majority}, long-gap {long_gap}"
            )
        verdict(
            6, "desk-scale hybrid advantage (2 of 3 seeds)", passing >= 2,
            "; ".join(details),
        )


class TestCriterion7Reproducibility:
    def test_identical_seed_gives_identical_dataset_and_metrics(self, tmp_path):
        bins = {1: 60, 2: 60, 3: 60}
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(17, bins, a)
        generate_dataset(17, bins, b)
        files_equal = all(
            (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("train.tsv", "dev.tsv", "test.tsv", "metadata.json")
        )

        train_pairs = load_dataset(a / "train.tsv")
        dev_pairs = load_dataset(a / "dev.tsv")
        runs = []
        with T.dtype_scope("float64"):
            for _ in range(2):
                config = P.TrainConfig(
                    encoder=EncoderConfig(
                        kind="hybrid", vocab_size=12, d=8, heads=2, d_ff=16,
                        chunk=2, recurrent_layers=1, attention_layers=1,
                        use_short_cut=True, dropout=0.1,
                    ),
                    epochs=2, batch_size=32, lr=1e-3, dropout=0.1,
                    classifier_hidden=16, eval_bins=tuple(range(1, 9)),
                )
                model = P.PairClassifier(config)
                runs.append(P.train(model, train_pairs, dev_pairs))
        metrics_equal = runs[0] == runs[1] and runs[0].epochs == runs[1].epochs
        verdict(
            7, "byte-identical datasets and bit-identical 64-bit run metrics",
            files_equal and metrics_equal,
            f"files {files_equal}, metrics {metrics_equal}",
        )


class TestCriterion8OverfitSanity:
    def test_every_kind_memorizes_32_examples(self, tmp_path):
        rng = np.random.default_rng(88)
        pairs = []
        while len(pairs) < 32:
            a = sample_expression(rng, int(rng.integers(0, 5)))
            b = sample_expression(rng, int(rng.integers(0, 5)))
            pairs.append(make_pair(a, b))
        reached = {}
        ok = True
        for preset in _CI_MODELS:
            enc = dict(cli.PRESETS[preset])
            enc.update(d=64, d_ff=256, chunk=4, heads=4, dropout=0.0)
            config = P.TrainConfig(
                encoder=EncoderConfig(**enc), epochs=100, batch_size=32,
                lr=1e-3, dropout=0.0, classifier_hidden=256,
            )
            model = P.PairClassifier(config)
            hit = []

            def stop_when_perfect(row, hit=hit):
                if row.train_accuracy == 1.0:
                    hit.append(row.epoch)
                    raise StopIteration

            try:
                P.train(model, pairs, pairs, progress=stop_when_perfect)
            except StopIteration:
                pass
            reached[preset] = hit[0] if hit else None
            ok = ok and bool(hit)
        detail = ", ".join(
            f"{p}: {'epoch ' + str(e) if e else 'never'}" for p, e in reached.items()
        )
        verdict(8, "100% train accuracy on 32 examples within 100 epochs", ok, detail)
