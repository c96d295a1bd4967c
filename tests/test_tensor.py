"""Forward values, tape mechanics, and finite-difference gradient sweeps.

Every gradient here is checked against an independent central-difference
estimate computed in float64, and matmul against a triple-loop reference,
so the tape implementation is never its own oracle.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from seqstack import tensor as T
from seqstack.errors import ConfigError, ContractError, DataError, ShapeError

import tape_helpers as H
from tape_helpers import mean_all, mul, sub, sum_all


def matmul_loops(a, b):
    """Reference O(n^3) matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def numeric_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at x, element by element."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_op_grad(build, shapes, seed=0, tol=1e-6):
    """Compare tape gradients to numeric ones for every input of an op.

    `build` maps a list of Tensors to the op output; the output is contracted
    to a scalar against fixed random coefficients so no gradient entry is
    structurally zero.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    inputs = [T.parameter(a.copy()) for a in arrays]
    with T.tape_scope():
        out = build(inputs)
        coeffs = T.constant(np.asarray(rng.standard_normal(out.shape)))
        loss = sum_all(mul(out, coeffs))
        T.backward(loss)
    for idx in range(len(arrays)):
        def scalar(x, idx=idx):
            probe = [T.constant(a) for a in arrays]
            probe[idx] = T.constant(x)
            with T.no_grad():
                val = sum_all(mul(build(probe), coeffs))
            return val.item()

        expected = numeric_grad(scalar, arrays[idx].copy())
        got = inputs[idx].grad
        assert got is not None
        denom = np.maximum(np.abs(expected), 1.0)
        np.testing.assert_allclose(got, expected, atol=tol, rtol=0, err_msg=f"input {idx}")
        assert np.max(np.abs(got - expected) / denom) < tol


class TestForwardValues:
    def test_cumsum_worked_example(self):
        x = T.constant(np.array([0.1, 0.2, 0.4, 0.2, 0.1]))
        out = H.cumsum_last(x)
        np.testing.assert_allclose(out.data, [0.1, 0.3, 0.7, 0.9, 1.0], atol=1e-7)

    def test_matmul_matches_loop_reference(self, rng):
        for _ in range(20):
            n, k, m = rng.integers(1, 7, size=3)
            a = rng.standard_normal((n, k)).astype(np.float32)
            b = rng.standard_normal((k, m)).astype(np.float32)
            got = H.matmul(T.constant(a), T.constant(b))
            np.testing.assert_allclose(got.data, matmul_loops(a, b), atol=1e-5)

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_batched_matmul_matches_per_slice_loop(self, rng, lead):
        a = rng.standard_normal(lead + (3, 5)).astype(np.float32)
        b = rng.standard_normal(lead + (5, 2)).astype(np.float32)
        got = H.matmul(T.constant(a), T.constant(b))
        assert got.shape == lead + (3, 2)
        for i in np.ndindex(*lead):
            np.testing.assert_allclose(got.data[i], matmul_loops(a[i], b[i]), atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead, n, k, m", [((32,), 2, 256, 40), ((3,), 2, 8, 1), ((2, 3), 3, 4, 5)])
    def test_shared_left_operand_matches_a_tiled_copy_bit_for_bit(self, rng, dtype, lead, n, k, m):
        # a rank-2 left operand broadcast over b's leading axes, as the
        # pooling queries are: forward and both gradients as if tiled
        a = rng.standard_normal((n, k)).astype(dtype)
        b = rng.standard_normal(lead + (k, m)).astype(dtype)
        g = rng.standard_normal(lead + (n, m)).astype(dtype)
        results = []
        for left in (a, np.broadcast_to(a, lead + a.shape).copy()):
            ta, tb = T.parameter(left), T.parameter(b)
            with T.tape_scope():
                out = H.matmul(ta, tb)
                T.backward(sum_all(mul(out, T.constant(g))))
            ga = ta.grad if left is a else ta.grad.reshape((-1,) + a.shape).sum(axis=0)
            results.append((out.data, ga, tb.grad))
        for got, ref in zip(*results):
            assert got.dtype == dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_linear_matches_matmul_plus_bias(self, rng, shape):
        x = rng.standard_normal(shape)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        got = T.linear(T.constant(x), T.constant(w), T.constant(b))
        assert got.shape == shape[:-1] + (3,)
        np.testing.assert_allclose(got.data, x @ w + b, atol=1e-12)
        bare = T.linear(T.constant(x), T.constant(w))
        np.testing.assert_allclose(bare.data, x @ w, atol=1e-12)

    def test_softmax_rows_bias_equals_softmax_of_the_sum(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        bias = rng.standard_normal((2, 1, 1, 5))
        bias[0, ..., 3:] = -1e9
        got = H.softmax_rows(T.constant(x), bias)
        summed = H.softmax_rows(T.constant(x + bias))
        np.testing.assert_array_equal(got.data, summed.data)
        assert np.all(got.data[0, ..., 3:] == 0.0)

    def test_softmax_rows_is_normalized_and_shift_invariant(self, rng):
        x = rng.standard_normal((6, 9))
        s = H.softmax_rows(T.constant(x.astype(np.float64)))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), atol=1e-12)
        shifted = H.softmax_rows(T.constant(x.astype(np.float64) + 1000.0))
        np.testing.assert_allclose(s.data, shifted.data, atol=1e-9)
        manual = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(s.data, manual, atol=1e-12)

    def test_sigmoid_is_stable_at_extremes(self):
        x = T.constant(np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0]))
        out = H.sigmoid(x).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[2], 0.5, atol=1e-7)
        assert out[0] == 0.0 and out[4] == 1.0

    def test_cross_entropy_uniform_logits_is_log_k(self):
        logits = T.constant(np.zeros((4, 7)))
        loss = T.cross_entropy(logits, np.array([0, 3, 5, 6]))
        np.testing.assert_allclose(loss.item(), np.log(7.0), atol=1e-6)

    def test_cross_entropy_peaked_logits_is_small(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = T.cross_entropy(T.constant(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_layer_norm_output_statistics(self, rng):
        x = rng.standard_normal((5, 16)).astype(np.float64) * 3.0 + 2.0
        gain = T.constant(np.ones(16))
        out = T.layer_norm(T.constant(x), gain).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-5)

    def test_repeat_last_expands_chunks_in_order(self):
        x = T.constant(np.array([[1.0, 2.0]]))
        out = H.repeat_last(x, 3)
        np.testing.assert_allclose(out.data, [[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]])

    def test_gather_rows_selects_table_rows(self, rng):
        table = rng.standard_normal((12, 4)).astype(np.float32)
        ids = np.array([[0, 11, 3], [5, 5, 1]])
        out = T.gather_rows(T.constant(table), ids)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out.data[1, 0], table[5])

    def test_dropout_eval_mode_is_identity(self, rng):
        x = T.constant(rng.standard_normal((3, 4)))
        out = T.dropout(x, 0.5, rng=None)
        assert out is x
        assert T.dropout(x, 0.0, rng) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(7)
        x = T.constant(np.ones((200, 50)))
        out = T.dropout(x, 0.3, rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-6)
        assert abs(out.data.mean() - 1.0) < 0.02


class TestGradients:
    def test_matmul(self):
        check_op_grad(lambda t: H.matmul(t[0], t[1]), [(3, 4), (4, 2)])

    def test_batched_matmul(self):
        check_op_grad(lambda t: H.matmul(t[0], t[1]), [(2, 3, 4), (2, 4, 2)])
        check_op_grad(lambda t: H.matmul(t[0], t[1]), [(2, 3, 2, 4), (2, 3, 4, 5)])
        # a rank-2 left operand shared by every leading index
        check_op_grad(lambda t: H.matmul(t[0], t[1]), [(3, 4), (2, 4, 5)])
        check_op_grad(lambda t: H.matmul(t[0], t[1]), [(3, 4), (2, 3, 4, 5)])

    def test_linear(self):
        check_op_grad(lambda t: T.linear(t[0], t[1], t[2]), [(3, 4), (4, 5), (5,)])
        check_op_grad(lambda t: T.linear(t[0], t[1], t[2]), [(2, 3, 4), (4, 5), (5,)])
        check_op_grad(lambda t: T.linear(t[0], t[1]), [(3, 4), (4, 5)])
        check_op_grad(lambda t: T.linear(t[0], t[1]), [(2, 3, 4), (4, 5)])

    def test_add(self):
        check_op_grad(lambda t: T.add(t[0], t[1]), [(3, 4), (3, 4)])
        check_op_grad(lambda t: H.add_bias(t[0], t[1]), [(2, 3, 4), (4,)])

    def test_softmax_rows_with_bias(self):
        bias = np.random.default_rng(4).standard_normal((2, 1, 5))
        check_op_grad(lambda t: H.softmax_rows(t[0], bias), [(2, 3, 5)])

    def test_sub_mul_scale(self):
        check_op_grad(lambda t: sub(t[0], t[1]), [(3, 4), (3, 4)])
        check_op_grad(lambda t: mul(t[0], t[1]), [(3, 4), (3, 4)])
        check_op_grad(lambda t: T.scale(t[0], -2.5), [(3, 4)])

    def test_pointwise_nonlinearities(self):
        check_op_grad(lambda t: H.sigmoid(t[0]), [(3, 5)])
        check_op_grad(lambda t: H.tanh(t[0]), [(3, 5)])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        x[np.abs(x) < 0.1] = 0.5
        xt = T.parameter(x.copy())
        with T.tape_scope():
            T.backward(sum_all(T.relu(xt)))
        np.testing.assert_allclose(xt.grad, (x > 0).astype(float), atol=1e-9)

    def test_softmax_cumsum_reverse(self):
        check_op_grad(lambda t: H.softmax_rows(t[0]), [(4, 6)])
        check_op_grad(lambda t: H.cumsum_last(t[0]), [(3, 5)])

    def test_shape_ops(self):
        check_op_grad(lambda t: T.reshape(t[0], (6, 2)), [(3, 4)])
        check_op_grad(lambda t: T.permute(t[0], (2, 0, 1)), [(2, 3, 4)])
        check_op_grad(lambda t: H.slice_last(t[0], 1, 4), [(2, 6)])
        check_op_grad(lambda t: H.repeat_last(t[0], 3), [(2, 4)])
        check_op_grad(lambda t: H.stack_steps(t), [(2, 3), (2, 3), (2, 3)])
        # the pair split: rows i and 3 + i side by side
        check_op_grad(
            lambda t: T.reshape(T.permute(T.reshape(t[0], (2, 3, -1)), (1, 0, 2)), (3, 8)),
            [(6, 4)],
        )
        check_op_grad(lambda t: T.pack_rows(t[0], np.array([7, 0, 11, 3])), [(3, 4, 5)])
        ragged = T.Packing(np.arange(4) < np.array([[3], [1], [4]]))  # 8 real tokens
        check_op_grad(lambda t: T.unpack_rows(t[0], ragged), [(8, 5)])

    def test_pack_rows_forward_matches_manual_indexing(self, rng):
        x = rng.standard_normal((4, 6, 3))
        mask = np.arange(6) < np.array([[2], [6], [1], [4]])
        idx = T.Packing(mask).index
        out = T.pack_rows(T.constant(x), idx)
        for i in range(len(idx)):
            np.testing.assert_array_equal(out.data[i], x[idx[i] // 6, idx[i] % 6])
        back = T.unpack_rows(out, T.Packing(mask))
        assert back.shape == (4, 6, 3)
        np.testing.assert_array_equal(back.data, np.where(mask[..., None], x, 0.0))

    def test_unpack_rows_rejects_bad_indices(self):
        packing = T.Packing(np.ones((1, 3)))  # three rows
        with pytest.raises(ShapeError):
            T.unpack_rows(T.constant(np.zeros((2, 4))), packing)
        with pytest.raises(ShapeError):
            T.unpack_rows(T.constant(np.zeros((3, 1, 4))), packing)

    def test_reductions(self):
        check_op_grad(lambda t: sum_all(t[0]), [(3, 4)])
        check_op_grad(lambda t: mean_all(t[0]), [(3, 4)])

    def test_layer_norm(self):
        check_op_grad(lambda t: T.layer_norm(t[0], t[1]), [(3, 8), (8,)])

    def test_gather_rows(self):
        ids = np.array([[0, 2], [2, 1]])
        check_op_grad(lambda t: T.gather_rows(t[0], ids), [(4, 3)])

    def test_gather_rows_scatter_matches_loop_reference(self, rng):
        # float32 with heavy id repeats: the scatter must make the same
        # additions, in the same order, as a row-by-row loop
        table = T.parameter(rng.standard_normal((12, 16)).astype(np.float32))
        ids = rng.integers(0, 11, size=(40, 9))  # row 11 is never read
        g = rng.standard_normal((40, 9, 16)).astype(np.float32)
        with T.tape_scope():
            out = T.gather_rows(table, ids)
            T.backward(sum_all(mul(out, T.constant(g))))
        expected = np.zeros((12, 16), dtype=np.float32)
        for i, row in zip(ids.reshape(-1), g.reshape(-1, 16)):
            expected[i] += row
        np.testing.assert_array_equal(table.grad, expected)
        assert table.grad.dtype == np.float32

    def test_dropout_fixed_mask(self):
        def build(t):
            return T.dropout(t[0], 0.4, np.random.default_rng(11))

        check_op_grad(build, [(5, 6)])

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1])

        def build(t):
            return T.cross_entropy(t[0], labels)

        check_op_grad(build, [(3, 4)])

    def test_two_layer_composite(self):
        def build(t):
            h = H.tanh(T.linear(t[0], t[1], t[2]))
            return H.matmul(h, t[3])

        check_op_grad(build, [(4, 5), (5, 6), (6,), (6, 2)])


class TestPacking:
    MASK = np.array([[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=float)

    def test_rows_run_time_major_longest_first(self):
        p = T.Packing(self.MASK)
        assert p.shape == (4, 4)
        np.testing.assert_array_equal(p.batch_sizes, [4, 3, 2, 1])
        np.testing.assert_array_equal(p.offsets, [0, 4, 7, 9, 10])
        np.testing.assert_array_equal(p.steps, [0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
        # sequences by length: 1 (4), 3 (3), 0 (2), 2 (1); each step's are a prefix
        index = p.index
        np.testing.assert_array_equal(index // 4, [1, 3, 0, 2, 1, 3, 0, 1, 3, 1])
        np.testing.assert_array_equal(index % 4, p.steps)
        # the last token of sequences 0..3, in batch order
        np.testing.assert_array_equal(p.last, [6, 9, 3, 8])
        assert np.array_equal(np.sort(index), np.flatnonzero(self.MASK))

    def test_ties_keep_batch_order_and_trailing_padding_runs_no_step(self):
        p = T.Packing(np.array([[1, 1, 0], [1, 1, 0]], dtype=float))
        np.testing.assert_array_equal(p.batch_sizes, [2, 2, 0])
        np.testing.assert_array_equal(p.index, [0, 3, 1, 4])

    def test_bad_masks_raise_data_error(self):
        for bad in ([[1, 0, 1]], [[0, 1, 1]], [[1, 2, 0]], [[1, 1], [0, 0]], [1, 1], np.ones((2, 0))):
            with pytest.raises(DataError):
                T.Packing(np.asarray(bad, dtype=float))

    def test_key_bias_masks_exactly_the_padding(self):
        for dtype in (np.float32, np.float64):
            bias = T.Packing(self.MASK).key_bias(dtype)
            assert bias.shape == (4, 1, 4) and bias.dtype == dtype
            np.testing.assert_array_equal(bias[:, 0], np.where(self.MASK > 0, 0.0, T.MASK_FILL))

    def test_packed_dropout_draws_one_number_per_real_entry(self):
        p = T.Packing(self.MASK)
        x = T.constant(np.random.default_rng(2).standard_normal((len(p.steps), 6)))
        stream, ref_stream = np.random.default_rng(4), np.random.default_rng(4)
        got = T.dropout(x, 0.3, stream)
        keep = ref_stream.random((10, 6)) >= 0.3  # T * d numbers, none for the 6 padding tokens
        assert np.array_equal(got.data, x.data * (keep / (1.0 - 0.3)))
        assert (got.data == 0).any() and (got.data != 0).any()
        assert stream.random() == ref_stream.random(), "the stream advanced by exactly T * d"


class TestTapeMechanics:
    def test_repeated_backward_accumulates(self):
        x = T.parameter(np.array([2.0, 3.0]))
        with T.tape_scope():
            loss = sum_all(mul(x, x))
            T.backward(loss)
            first = x.grad.copy()
            T.backward(loss)
        np.testing.assert_allclose(first, [4.0, 6.0], atol=1e-6)
        np.testing.assert_allclose(x.grad, 2 * first, atol=1e-6)

    def test_fanout_accumulates_once_per_consumer(self):
        x = T.parameter(np.array([1.5]))
        with T.tape_scope():
            y = mul(x, x)
            loss = sum_all(T.add(y, y))
            T.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)

    def test_only_leaves_hold_grad(self):
        x = T.parameter(np.array([[1.0, 2.0]]))
        with T.tape_scope():
            h = T.scale(x, 3.0)
            loss = sum_all(h)
            T.backward(loss)
        assert h.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, [[3.0, 3.0]], atol=1e-7)

    def test_no_grad_suppresses_recording(self):
        x = T.parameter(np.array([1.0]))
        with T.tape_scope() as tape:
            with T.no_grad():
                y = H.sigmoid(x)
            assert not y.requires_grad
            assert len(tape.entries) == 0

    def test_tape_scope_isolates_entries(self):
        x = T.parameter(np.array([1.0]))
        outer = T.active_tape()
        before = len(outer.entries)
        with T.tape_scope() as inner:
            H.tanh(x)
            assert len(inner.entries) == 1
        assert len(outer.entries) == before

    def test_entries_record_op_ids_in_execution_order(self):
        x = T.parameter(np.array([[0.5, 1.0]]))
        with T.tape_scope() as tape:
            sum_all(H.tanh(T.scale(x, 2.0)))
        assert [e.op for e in tape.entries] == ["scale", "tanh", "sum_all"]

    def test_backward_rejects_non_scalar(self):
        x = T.parameter(np.ones((2, 2)))
        with T.tape_scope():
            y = T.scale(x, 1.0)
            with pytest.raises(ContractError):
                T.backward(y)

    def test_backward_rejects_detached_loss(self):
        with pytest.raises(ContractError):
            T.backward(T.constant(np.asarray(1.0)))

    def test_later_gradients_add_in_place_into_a_private_copy(self):
        x = T.parameter(np.zeros(3, dtype=np.float32))
        first = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        second = np.array([1e-8, 3.0, -0.3], dtype=np.float32)
        x.accumulate_grad(first)
        buffer = x.grad
        x.accumulate_grad(second)
        assert x.grad is buffer and buffer is not first
        assert x.grad.tobytes() == (first + second).tobytes()
        assert first.tobytes() == np.array([0.1, 0.2, 0.3], dtype=np.float32).tobytes()

    def test_a_gradient_of_another_dtype_is_refused(self):
        x = T.parameter(np.zeros(3, dtype=np.float32))
        with pytest.raises(ContractError):
            x.accumulate_grad(np.ones(3))
        x.accumulate_grad(np.ones(3, dtype=np.float32))
        with pytest.raises(ContractError):
            x.accumulate_grad(np.ones(3))
        assert x.grad.tobytes() == np.ones(3, dtype=np.float32).tobytes()

    def test_constants_get_no_grad_buffer(self):
        x = T.parameter(np.array([1.0]))
        c = T.constant(np.array([2.0]))
        with T.tape_scope():
            T.backward(sum_all(mul(x, c)))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0], atol=1e-7)


class TestValidationAndDtype:
    def test_shape_mismatches_raise(self):
        a = T.constant(np.ones((2, 3)))
        b = T.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            H.matmul(a, b)
        with pytest.raises(ShapeError):
            T.add(a, T.constant(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            T.add(a, T.constant(np.ones(3)))  # no bias broadcast: that is linear's
        with pytest.raises(ShapeError):
            mul(a, T.constant(np.ones(3)))
        with pytest.raises(ShapeError):
            H.matmul(T.constant(np.ones((2, 3, 4))), T.constant(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            H.matmul(T.constant(np.ones((2, 3, 4))), T.constant(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            T.linear(a, T.constant(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            T.linear(a, T.constant(np.ones((3, 4))), T.constant(np.ones(3)))
        with pytest.raises(ShapeError):
            H.softmax_rows(a, np.ones((2, 1, 3)))
        with pytest.raises(ShapeError):
            H.slice_last(a, 2, 9)

    def test_bad_labels_raise_data_error(self):
        logits = T.constant(np.zeros((2, 3)))
        with pytest.raises(DataError, match="example 1"):
            T.cross_entropy(logits, np.array([0, 7]))

    def test_bad_dropout_rate_raises(self):
        x = T.constant(np.ones(3))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            T.dropout(x, 1.0, rng)
        with pytest.raises(ConfigError):
            T.dropout(x, -0.1, rng)

    def test_ndarray_precision_is_preserved(self):
        x64 = np.zeros(3, dtype=np.float64)
        assert T.Tensor(x64).dtype == np.float64
        assert T.Tensor([1.0, 2.0]).dtype == T.default_dtype() == np.float32


class TestOpSet:
    def test_every_tape_op_has_a_caller_in_src(self):
        """Each op of seqstack.tensor that records on the tape is called from
        another module of the package; ops only tests need live in
        tests/tape_helpers.py."""
        src = Path(T.__file__).parent
        ops = {
            fn.name
            for fn in ast.parse((src / "tensor.py").read_text()).body
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "_record" for n in ast.walk(fn))
        }
        assert {"add", "linear", "layer_norm"} <= ops
        # the attention core fuses these into one op of its own; its
        # reference chain keeps them in tests/tape_helpers.py
        assert not {"matmul", "softmax_rows"} & ops
        called = set()
        for path in src.glob("*.py"):
            if path.name == "tensor.py":
                continue
            tree = ast.parse(path.read_text())
            local = {  # local name -> tensor op, for names imported from .tensor
                alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "seqstack.tensor")
                for alias in node.names
            }
            called.update(
                local[node.func.id] for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in local
            )
        assert sorted(ops - called) == []
