"""Recurrent cell behavior against pure-Python scalar reference implementations.

The reference cells below are written with math-module scalars and explicit
loops; they share no code with the vectorized implementation, so agreement is
meaningful. They check the per-step tape cell in `tape_helpers`, and that
cell in turn is the oracle for the fused scan `RecurrentEncoder` runs: its
forward must match the cell bit for bit, its gradients to rounding. Gate
order everywhere is (forget, input, output, candidate).
"""

import math

import numpy as np
import pytest

from seqstack import tensor as T
from seqstack.errors import DataError, ShapeError
from seqstack.gradcheck import finite_difference_check, to_float64
import seqstack.recurrent as recurrent
from seqstack.recurrent import LstmParams, RecurrentEncoder
from seqstack.rng import SeedStreams

from tape_helpers import (
    cumax,
    forced_onlstm_step,
    lstm_cell_step,
    master_gates,
    mean_all,
    mul,
    on_lstm_cell_step,
    sum_all,
    pack,
    tape_scan,
    unpack,
)


def sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def scalar_affine(x, h, wx, wh, b):
    """out[j] = sum_k x[k] wx[k][j] + sum_k h[k] wh[k][j] + b[j], all Python floats."""
    n = len(b)
    out = [0.0] * n
    for j in range(n):
        acc = b[j]
        for k in range(len(x)):
            acc += x[k] * wx[k][j]
        for k in range(len(h)):
            acc += h[k] * wh[k][j]
        out[j] = acc
    return out


def scalar_standard_gates(params, x, h):
    dh = params.d_hidden
    z = scalar_affine(
        x, h, params.w_x.data.tolist(), params.w_h.data.tolist(), params.bias.data.tolist()
    )
    f = [sig(v) for v in z[:dh]]
    i = [sig(v) for v in z[dh : 2 * dh]]
    o = [sig(v) for v in z[2 * dh : 3 * dh]]
    g = [math.tanh(v) for v in z[3 * dh :]]
    return f, i, o, g


def scalar_lstm_step(params, x, h, c):
    f, i, o, g = scalar_standard_gates(params, x, h)
    c2 = [f[j] * c[j] + i[j] * g[j] for j in range(len(c))]
    h2 = [o[j] * math.tanh(c2[j]) for j in range(len(c))]
    return h2, c2


def scalar_softmax_cumsum(logits):
    peak = max(logits)
    exps = [math.exp(v - peak) for v in logits]
    total = sum(exps)
    probs = [e / total for e in exps]
    running, out = 0.0, []
    for p in probs:
        running += p
        out.append(running)
    return out


def scalar_master_gates(params, x, h):
    m = params.d_hidden // params.chunk
    z = scalar_affine(
        x,
        h,
        params.w_x_master.data.tolist(),
        params.w_h_master.data.tolist(),
        params.bias_master.data.tolist(),
    )
    f_chunk = scalar_softmax_cumsum(z[:m])
    i_chunk = [1.0 - v for v in scalar_softmax_cumsum(z[m:])]
    expand = lambda vals: [v for v in vals for _ in range(params.chunk)]
    return expand(f_chunk), expand(i_chunk)


def scalar_onlstm_step(params, x, h, c, masters=None):
    """Ordered update returning all intermediate gate values for inspection."""
    f, i, o, g = scalar_standard_gates(params, x, h)
    ft, it = scalar_master_gates(params, x, h) if masters is None else masters
    dh = len(c)
    w = [ft[j] * it[j] for j in range(dh)]
    fhat = [f[j] * w[j] + (ft[j] - w[j]) for j in range(dh)]
    ihat = [i[j] * w[j] + (it[j] - w[j]) for j in range(dh)]
    c2 = [fhat[j] * c[j] + ihat[j] * g[j] for j in range(dh)]
    h2 = [o[j] * math.tanh(c2[j]) for j in range(dh)]
    return {
        "f": f, "i": i, "o": o, "g": g, "ft": ft, "it": it, "w": w,
        "fhat": fhat, "ihat": ihat, "c": c2, "h": h2,
    }


def make_inputs(rng, batch, dims):
    return [T.constant(rng.standard_normal((batch, d))) for d in dims]


def encode_steps(enc, steps, **kwargs):
    """Run `enc` over per-step (batch, d) inputs, every step real; the output
    as a (batch, N, d_hidden) array."""
    rows, packing = pack(np.stack([s.data for s in steps], axis=1))
    return unpack(enc(rows, packing, **kwargs), packing)


class TestCumax:
    def test_known_distribution_accumulates_to_known_profile(self):
        probs = np.array([[0.1, 0.2, 0.4, 0.2, 0.1]])
        out = cumax(T.constant(np.log(probs)))
        np.testing.assert_allclose(out.data, [[0.1, 0.3, 0.7, 0.9, 1.0]], atol=1e-6)

    def test_single_position_is_one(self):
        out = cumax(T.constant(np.array([[3.7]])))
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-7)

    def test_forward_monotone_and_terminal_one_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            m = int(rng.integers(1, 13))
            logits = T.constant(rng.standard_normal((1, m)) * 5)
            out = cumax(logits).data[0]
            assert np.all(np.diff(out) >= -1e-7)
            assert abs(out[-1] - 1.0) < 1e-6
            assert np.all(out > 0)


class TestLstmCell:
    def test_zero_parameters_follow_closed_form(self):
        rng = np.random.default_rng(0)
        params = LstmParams(3, 4, rng)
        for p in params.parameters().values():
            p.data[...] = 0.0
        x = T.constant(rng.standard_normal((2, 3)))
        c_prev = rng.standard_normal((2, 4)).astype(np.float32)
        h, c = lstm_cell_step(params, x, (T.constant(np.zeros((2, 4), np.float32)), T.constant(c_prev)))
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-6)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-6)

    def test_saturated_gates_hold_memory(self):
        rng = np.random.default_rng(1)
        params = LstmParams(3, 4, rng)
        params.bias.data[:4] = 20.0
        params.bias.data[4:8] = -20.0
        x = T.constant(rng.standard_normal((1, 3)) * 0.1)
        c_prev = rng.standard_normal((1, 4)).astype(np.float32)
        _, c = lstm_cell_step(
            params, x, (T.constant(np.zeros((1, 4), np.float32)), T.constant(c_prev))
        )
        np.testing.assert_allclose(c.data, c_prev, atol=1e-4)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = LstmParams(3, 5, rng)
            to_float64(params.parameters())
            x, h, c = make_inputs(rng, 1, [3, 5, 5])
            got_h, got_c = lstm_cell_step(params, x, (h, c))
            ref_h, ref_c = scalar_lstm_step(
                params, x.data[0].tolist(), h.data[0].tolist(), c.data[0].tolist()
            )
            np.testing.assert_allclose(got_h.data[0], ref_h, atol=1e-6)
            np.testing.assert_allclose(got_c.data[0], ref_c, atol=1e-6)

    def test_dim_mismatch_raises(self):
        rng = np.random.default_rng(2)
        params = LstmParams(3, 4, rng)
        bad_x = T.constant(np.zeros((1, 5), np.float32))
        state = (T.constant(np.zeros((1, 4), np.float32)),) * 2
        with pytest.raises(ShapeError):
            lstm_cell_step(params, bad_x, state)


class TestMasterGates:
    def test_single_chunk_gates_are_constant_vectors(self):
        rng = np.random.default_rng(3)
        params = LstmParams(3, 6, rng, chunk=6)
        x, h = make_inputs(rng, 2, [3, 6])
        ft, it = master_gates(params, x, h)
        np.testing.assert_allclose(ft.data, 1.0, atol=1e-6)
        np.testing.assert_allclose(it.data, 0.0, atol=1e-6)

    def test_forced_one_hot_logits_give_step_profiles(self):
        rng = np.random.default_rng(4)
        params = LstmParams(4, 8, rng, chunk=2)
        params.w_x_master.data[...] = 0.0
        params.w_h_master.data[...] = 0.0
        params.bias_master.data[...] = -50.0
        params.bias_master.data[2] = 50.0   # erase head peaks at chunk 2
        params.bias_master.data[4 + 2] = 50.0  # write head peaks at chunk 2
        x, h = make_inputs(rng, 1, [4, 8])
        ft, it = master_gates(params, x, h)
        np.testing.assert_allclose(ft.data[0], [0, 0, 0, 0, 1, 1, 1, 1], atol=1e-6)
        np.testing.assert_allclose(it.data[0], [1, 1, 1, 1, 0, 0, 0, 0], atol=1e-6)

    def test_monotone_at_chunk_granularity_sweep(self):
        rng = np.random.default_rng(11)
        params = LstmParams(3, 8, rng, chunk=2)
        for _ in range(1000):
            x, h = make_inputs(rng, 1, [3, 8])
            ft, it = master_gates(params, x, h)
            assert np.all(np.diff(ft.data[0]) >= -1e-7)
            assert np.all(np.diff(it.data[0]) <= 1e-7)
            assert np.all((ft.data >= -1e-7) & (ft.data <= 1 + 1e-7))
            assert np.all((it.data >= -1e-7) & (it.data <= 1 + 1e-7))

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(12)
        params = LstmParams(3, 6, rng, chunk=3)
        to_float64(params.parameters())
        x, h = make_inputs(rng, 1, [3, 6])
        ft, it = master_gates(params, x, h)
        ref_f, ref_i = scalar_master_gates(params, x.data[0].tolist(), h.data[0].tolist())
        np.testing.assert_allclose(ft.data[0], ref_f, atol=1e-6)
        np.testing.assert_allclose(it.data[0], ref_i, atol=1e-6)


class TestOnLstmCell:
    def test_forced_all_ones_masters_reproduce_plain_cell_bitwise(self):
        rng = np.random.default_rng(21)
        params = LstmParams(5, 8, rng, chunk=2)
        x, h, c = make_inputs(rng, 3, [5, 8, 8])
        ones = T.constant(np.ones((3, 8), np.float32))
        got_h, got_c = forced_onlstm_step(params, x, (h, c), (ones, ones))
        ref_h, ref_c = lstm_cell_step(params, x, (h, c))
        assert np.array_equal(got_h.data, ref_h.data)
        assert np.array_equal(got_c.data, ref_c.data)

    def test_zero_overlap_passes_masters_through_exactly(self):
        rng = np.random.default_rng(22)
        params = LstmParams(4, 6, rng, chunk=2)
        to_float64(params.parameters())
        x, h, c = make_inputs(rng, 1, [4, 6, 6])
        ft = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
        it = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
        got_h, got_c = forced_onlstm_step(
            params, x, (h, c), (T.constant(ft), T.constant(it))
        )
        ref = scalar_onlstm_step(
            params, x.data[0].tolist(), h.data[0].tolist(), c.data[0].tolist(),
            masters=(ft[0].tolist(), it[0].tolist()),
        )
        np.testing.assert_allclose(ref["fhat"], ft[0], atol=0)
        np.testing.assert_allclose(ref["ihat"], it[0], atol=0)
        np.testing.assert_allclose(got_c.data[0], ref["c"], atol=1e-9)
        np.testing.assert_allclose(got_h.data[0], ref["h"], atol=1e-9)

    def test_matches_scalar_reference_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = LstmParams(4, 8, rng, chunk=2)
            to_float64(params.parameters())
            x, h, c = make_inputs(rng, 1, [4, 8, 8])
            got_h, got_c = on_lstm_cell_step(params, x, (h, c))
            ref = scalar_onlstm_step(
                params, x.data[0].tolist(), h.data[0].tolist(), c.data[0].tolist()
            )
            np.testing.assert_allclose(got_c.data[0], ref["c"], atol=1e-6)
            np.testing.assert_allclose(got_h.data[0], ref["h"], atol=1e-6)

    def test_gate_combination_identity_and_ranges(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            params = LstmParams(3, 6, rng, chunk=2)
            to_float64(params.parameters())
            x, h, c = make_inputs(rng, 1, [3, 6, 6])
            got_h, got_c = on_lstm_cell_step(params, x, (h, c))
            ref = scalar_onlstm_step(
                params, x.data[0].tolist(), h.data[0].tolist(), c.data[0].tolist()
            )
            np.testing.assert_allclose(got_c.data[0], ref["c"], atol=1e-6)
            for j in range(6):
                lhs = ref["fhat"][j] + ref["ihat"][j]
                rhs = ref["ft"][j] + ref["it"][j] + (ref["f"][j] + ref["i"][j] - 2.0) * ref["w"][j]
                assert abs(lhs - rhs) < 1e-6
                assert -1e-9 <= ref["fhat"][j] <= 1 + 1e-9
                assert -1e-9 <= ref["ihat"][j] <= 1 + 1e-9


class TestRecurrentEncoder:
    def _encoder(self, kind="onlstm", layers=1, d=6, chunk=2, seed=0, **kw):
        streams = SeedStreams(seed)
        return RecurrentEncoder(
            layers, d, d, streams.stream("init", "rnn"), chunk=chunk if kind == "onlstm" else None, **kw
        )

    def test_single_layer_single_step_reduces_to_cell(self):
        rng = np.random.default_rng(31)
        enc = self._encoder(kind="lstm", d=5)
        x = T.constant(rng.standard_normal((2, 5)))
        seq = encode_steps(enc, [x])
        assert seq.shape == (2, 1, 5)
        zeros = T.constant(np.zeros((2, 5), np.float32))
        ref_h, _ = lstm_cell_step(enc.layers[0], x, (zeros, zeros))
        np.testing.assert_allclose(seq[:, 0], ref_h.data, atol=0)

    def test_zero_parameters_give_zero_fixed_point(self):
        enc = self._encoder(kind="lstm", layers=2, d=4)
        for p in enc.parameters().values():
            p.data[...] = 0.0
        rng = np.random.default_rng(32)
        seq = encode_steps(enc, make_inputs(rng, 2, [4] * 3))
        assert seq.shape == (2, 3, 4)
        np.testing.assert_allclose(seq, 0.0, atol=0)

    def test_empty_sequence_rejected(self):
        # a batch cannot reach the scan without a packing, and none holds an empty row
        with pytest.raises(DataError, match="length-0"):
            T.Packing(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_residual_adds_layer_input_back(self):
        enc = self._encoder(kind="lstm", layers=2, d=4)
        for p in enc.layers[1].parameters().values():
            p.data[...] = 0.0
        rng = np.random.default_rng(34)
        steps = make_inputs(rng, 1, [4] * 4)
        seq = encode_steps(enc, steps)
        solo = self._encoder(kind="lstm", layers=1, d=4)
        solo.layers[0] = enc.layers[0]
        np.testing.assert_allclose(seq, encode_steps(solo, steps), atol=1e-6)

    def test_same_seed_reproduces_bitwise(self):
        rng = np.random.default_rng(35)
        arr = [rng.standard_normal((2, 6)) for _ in range(4)]
        outs = []
        for _ in range(2):
            enc = self._encoder(kind="onlstm", layers=2, seed=77)
            outs.append(encode_steps(enc, [T.constant(a) for a in arr]))
        assert np.array_equal(outs[0], outs[1])

    def test_cell_state_stays_bounded(self):
        enc = self._encoder(kind="onlstm", layers=1, d=6, chunk=2)
        rng = np.random.default_rng(36)
        steps = make_inputs(rng, 1, [6] * 50)
        assert np.all(np.abs(encode_steps(enc, steps)) <= 1.0 + 1e-6)

    def test_gate_trace_collection_and_csv(self):
        enc = self._encoder(kind="onlstm", layers=2, d=6, chunk=3)
        steps = make_inputs(np.random.default_rng(37), 1, [6] * 4)
        trace: dict[int, list] = {}
        encode_steps(enc, steps, trace=trace)
        assert sorted(trace) == [0, 1]
        assert len(trace[0]) == 4
        f_chunk, i_chunk = trace[0][0]
        assert f_chunk.shape == (1, 2)
        assert np.all((f_chunk >= 0) & (f_chunk <= 1 + 1e-6))

    def test_lstm_kind_collects_no_trace(self):
        enc = self._encoder(kind="lstm", layers=1, d=4)
        trace: dict[int, list] = {}
        encode_steps(enc, make_inputs(np.random.default_rng(38), 1, [4, 4]), trace=trace)
        assert trace == {}

    def test_gradients_pass_finite_difference_check(self):
        enc = self._encoder(kind="onlstm", layers=2, d=4, chunk=2, seed=5)
        rng = np.random.default_rng(39)
        # a ragged batch: the second sequence ends a step early
        rows, packing = pack(rng.standard_normal((2, 3, 4)), np.array([[1, 1, 1], [1, 1, 0.0]]))
        coeff = T.constant(rng.standard_normal((2, 4)))

        def build():
            seq = enc(rows, packing)
            last = T.pack_rows(seq, packing.last)
            return T.add(sum_all(mul(last, coeff)), mean_all(seq))

        report = finite_difference_check(build, to_float64(enc.parameters()))
        assert max(report.values()) < 1e-3


def _max_rel_gap(got: dict, ref: dict) -> float:
    """Largest max|got - ref| / max|ref| over the named gradients."""
    return max(
        float(np.max(np.abs(got[k] - ref[k])) / max(np.max(np.abs(ref[k])), 1e-300))
        for k in ref
    )


class TestFusedScanMatchesTapeOracle:
    """The fused kernel on packed rows against the per-step tape cell on the
    right-padded batch, compared on the real rows.

    Both scans train at dropout 0.2 from the same seeded stream, so their
    forward passes draw the same masks only if one (N, batch, d) draw per
    layer, indexed at the real rows, consumes the stream as N per-step draws
    do.
    """

    CASES = [
        ("lstm", 1, 1), ("lstm", 2, 1),
        ("onlstm", 1, 1), ("onlstm", 1, 4), ("onlstm", 2, 1), ("onlstm", 2, 4),
    ]
    LENGTHS = (6, 4, 3, 1)

    def _run(self, kind, layers, chunk, dtype):
        n, batch, d = max(self.LENGTHS), len(self.LENGTHS), 8
        results = []
        enc = RecurrentEncoder(
            layers, d, d, SeedStreams(3).stream("init", "rnn"),
            chunk=chunk if kind == "onlstm" else None, dropout_rate=0.2,
        )
        if dtype == "float64":
            to_float64(enc.parameters())
        rng = np.random.default_rng(41)
        real = np.arange(n)[:, None] < np.array(self.LENGTHS)[None, :]
        x = rng.standard_normal((n, batch, d))
        x[~real] = rng.standard_normal(d)  # one pad embedding at every padded step
        coeff = (rng.standard_normal((batch, n, d)) * real.T[..., None]).astype(dtype)
        packing = T.Packing(real.T)
        rows = packing.index
        time_rows = packing.steps * batch + rows // n  # the same tokens on the (N, B) grid
        on_rows = [  # packed input and loss weights; padded ones for the tape cell
            (x.reshape(-1, d)[time_rows], coeff.reshape(-1, d)[rows],
             lambda xt, **kw: enc(xt, packing, **kw)),
            (x, coeff, lambda xt, **kw: tape_scan(enc, xt, packing, **kw)),
        ]
        for x_in, c_in, scan in on_rows:
            for p in enc.parameters().values():
                p.zero_grad()
            xt = T.parameter(x_in.astype(dtype))
            trace: dict[int, list] = {}
            with T.tape_scope():
                seq = scan(xt, rng=np.random.default_rng(9), trace=trace)
                T.backward(sum_all(mul(seq, T.constant(c_in))))
            grads = {name: p.grad for name, p in enc.parameters().items()}
            grads["input"] = xt.grad
            results.append((seq.data, trace, grads))
        # the tape cell's real rows, its gates of running sequences, in packed order
        seq, trace, grads = results[1]
        steps = zip(packing.offsets[:-1], packing.offsets[1:])
        running = [rows[lo:hi] // n for lo, hi in steps]
        trace = {li: [(f[r], i[r]) for (f, i), r in zip(gates, running)] for li, gates in trace.items()}
        grads["input"] = grads["input"].reshape(-1, d)[time_rows]
        results[1] = (seq.reshape(-1, d)[rows], trace, grads)
        return results

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind,layers,chunk", CASES)
    def test_forward_and_trace_are_bit_identical(self, kind, layers, chunk, dtype):
        (seq, trace, _), (ref_seq, ref_trace, _) = self._run(kind, layers, chunk, dtype)
        assert seq.dtype == np.dtype(dtype)
        assert seq.flags["C_CONTIGUOUS"]
        assert np.array_equal(seq, ref_seq)
        assert sorted(trace) == sorted(ref_trace) == ([0, 1][:layers] if kind == "onlstm" else [])
        for li in ref_trace:
            assert len(trace[li]) == len(ref_trace[li]) == max(self.LENGTHS)
            for got, ref in zip(trace[li], ref_trace[li]):
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("kind,layers,chunk", CASES)
    def test_float64_gradients_match_to_rounding(self, kind, layers, chunk):
        (_, _, grads), (_, _, ref) = self._run(kind, layers, chunk, "float64")
        assert sorted(grads) == sorted(ref)
        assert _max_rel_gap(grads, ref) < 1e-12

    @pytest.mark.parametrize("gate", [0, 1, 2])
    def test_one_perturbed_gate_derivative_is_caught(self, gate, monkeypatch):
        original = recurrent._sigmoid_grad

        def perturbed(out, g):
            d = original(out, g)
            third = d.shape[-1] // 3
            d[..., gate * third : (gate + 1) * third] *= 1.01
            return d

        monkeypatch.setattr(recurrent, "_sigmoid_grad", perturbed)
        (_, _, grads), (_, _, ref) = self._run("onlstm", 2, 4, "float64")
        assert _max_rel_gap(grads, ref) > 1e-4
