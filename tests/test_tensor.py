"""Forward values, tape mechanics, and finite-difference gradient sweeps.

Every gradient here is checked against an independent central-difference
estimate computed in float64, and matmul against a triple-loop reference,
so the tape implementation is never its own oracle.
"""

import numpy as np
import pytest

from seqstack import tensor as T
from seqstack.errors import ConfigError, ContractError, DataError, ShapeError


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
    with T.dtype_scope("float64"):
        inputs = [T.parameter(a.copy()) for a in arrays]
        with T.tape_scope():
            out = build(inputs)
            coeffs = T.constant(np.asarray(rng.standard_normal(out.shape)))
            loss = T.sum_all(T.mul(out, coeffs))
            T.backward(loss)
        for idx in range(len(arrays)):
            def scalar(x, idx=idx):
                probe = [T.constant(a) for a in arrays]
                probe[idx] = T.constant(x)
                with T.no_grad():
                    val = T.sum_all(T.mul(build(probe), coeffs))
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
        out = T.cumsum_last(x)
        np.testing.assert_allclose(out.data, [0.1, 0.3, 0.7, 0.9, 1.0], atol=1e-7)

    def test_matmul_matches_loop_reference(self, rng):
        for _ in range(20):
            n, k, m = rng.integers(1, 7, size=3)
            a = rng.standard_normal((n, k)).astype(np.float32)
            b = rng.standard_normal((k, m)).astype(np.float32)
            got = T.matmul(T.constant(a), T.constant(b))
            np.testing.assert_allclose(got.data, matmul_loops(a, b), atol=1e-5)

    def test_bmm_matches_per_slice_loop(self, rng):
        a = rng.standard_normal((4, 3, 5)).astype(np.float32)
        b = rng.standard_normal((4, 5, 2)).astype(np.float32)
        got = T.bmm(T.constant(a), T.constant(b))
        for i in range(4):
            np.testing.assert_allclose(got.data[i], matmul_loops(a[i], b[i]), atol=1e-5)

    def test_softmax_rows_is_normalized_and_shift_invariant(self, rng):
        x = rng.standard_normal((6, 9))
        s = T.softmax_rows(T.constant(x.astype(np.float64)))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), atol=1e-12)
        shifted = T.softmax_rows(T.constant(x.astype(np.float64) + 1000.0))
        np.testing.assert_allclose(s.data, shifted.data, atol=1e-9)
        manual = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(s.data, manual, atol=1e-12)

    def test_sigmoid_is_stable_at_extremes(self):
        x = T.constant(np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0]))
        out = T.sigmoid(x).data
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
        bias = T.constant(np.zeros(16))
        out = T.layer_norm(T.constant(x), gain, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-5)

    def test_repeat_last_expands_chunks_in_order(self):
        x = T.constant(np.array([[1.0, 2.0]]))
        out = T.repeat_last(x, 3)
        np.testing.assert_allclose(out.data, [[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]])

    def test_gather_rows_selects_table_rows(self, rng):
        table = rng.standard_normal((12, 4)).astype(np.float32)
        ids = np.array([[0, 11, 3], [5, 5, 1]])
        out = T.gather_rows(T.constant(table), ids)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out.data[1, 0], table[5])

    def test_dropout_eval_mode_is_identity(self, rng):
        x = T.constant(rng.standard_normal((3, 4)))
        out = T.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(7)
        x = T.constant(np.ones((200, 50)))
        out = T.dropout(x, 0.3, training=True, rng=rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-6)
        assert abs(out.data.mean() - 1.0) < 0.02


class TestGradients:
    def test_matmul(self):
        check_op_grad(lambda t: T.matmul(t[0], t[1]), [(3, 4), (4, 2)])

    def test_bmm(self):
        check_op_grad(lambda t: T.bmm(t[0], t[1]), [(2, 3, 4), (2, 4, 2)])

    def test_add_equal_and_bias(self):
        check_op_grad(lambda t: T.add(t[0], t[1]), [(3, 4), (3, 4)])
        check_op_grad(lambda t: T.add(t[0], t[1]), [(2, 3, 4), (4,)])

    def test_sub_mul_scale(self):
        check_op_grad(lambda t: T.sub(t[0], t[1]), [(3, 4), (3, 4)])
        check_op_grad(lambda t: T.mul(t[0], t[1]), [(3, 4), (3, 4)])
        check_op_grad(lambda t: T.scale(t[0], -2.5), [(3, 4)])

    def test_pointwise_nonlinearities(self):
        check_op_grad(lambda t: T.sigmoid(t[0]), [(3, 5)])
        check_op_grad(lambda t: T.tanh(t[0]), [(3, 5)])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        x[np.abs(x) < 0.1] = 0.5
        with T.dtype_scope("float64"):
            xt = T.parameter(x.copy())
            with T.tape_scope():
                T.backward(T.sum_all(T.relu(xt)))
            np.testing.assert_allclose(xt.grad, (x > 0).astype(float), atol=1e-9)

    def test_softmax_cumsum_reverse(self):
        check_op_grad(lambda t: T.softmax_rows(t[0]), [(4, 6)])
        check_op_grad(lambda t: T.cumsum_last(t[0]), [(3, 5)])

    def test_shape_ops(self):
        check_op_grad(lambda t: T.reshape(t[0], (6, 2)), [(3, 4)])
        check_op_grad(lambda t: T.permute(t[0], (2, 0, 1)), [(2, 3, 4)])
        check_op_grad(lambda t: T.slice_last(t[0], 1, 4), [(2, 6)])
        check_op_grad(lambda t: T.repeat_last(t[0], 3), [(2, 4)])
        check_op_grad(lambda t: T.concat_last(t), [(2, 3), (2, 4), (2, 1)])
        check_op_grad(lambda t: T.stack_steps(t), [(2, 3), (2, 3), (2, 3)])
        check_op_grad(lambda t: T.tile_batch(t[0], 5), [(2, 3)])
        check_op_grad(lambda t: T.slice_rows(t[0], 1, 3), [(4, 3)])
        check_op_grad(
            lambda t: T.select_steps(t[0], np.array([2, 0, 1])), [(3, 4, 5)]
        )

    def test_select_steps_forward_matches_manual_indexing(self, rng):
        x = rng.standard_normal((4, 6, 3))
        idx = np.array([5, 0, 2, 3])
        out = T.select_steps(T.constant(x), idx)
        for i in range(4):
            np.testing.assert_array_equal(out.data[i], x[i, idx[i]])

    def test_select_steps_rejects_bad_indices(self):
        x = T.constant(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            T.select_steps(x, np.array([0, 3]))
        with pytest.raises(ShapeError):
            T.select_steps(x, np.array([0]))

    def test_slice_rows_roundtrip(self, rng):
        x = rng.standard_normal((5, 3))
        out = T.slice_rows(T.constant(x), 2, 5)
        np.testing.assert_array_equal(out.data, x[2:5])
        with pytest.raises(ShapeError):
            T.slice_rows(T.constant(x), 3, 3)

    def test_reductions(self):
        check_op_grad(lambda t: T.sum_all(t[0]), [(3, 4)])
        check_op_grad(lambda t: T.mean_all(t[0]), [(3, 4)])

    def test_layer_norm(self):
        check_op_grad(lambda t: T.layer_norm(t[0], t[1], t[2]), [(3, 8), (8,), (8,)])

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
            T.backward(T.sum_all(T.mul(out, T.constant(g))))
        expected = np.zeros((12, 16), dtype=np.float32)
        for i, row in zip(ids.reshape(-1), g.reshape(-1, 16)):
            expected[i] += row
        np.testing.assert_array_equal(table.grad, expected)
        assert table.grad.dtype == np.float32

    def test_dropout_fixed_mask(self):
        def build(t):
            return T.dropout(t[0], 0.4, training=True, rng=np.random.default_rng(11))

        check_op_grad(build, [(5, 6)])

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1])

        def build(t):
            return T.cross_entropy(t[0], labels)

        check_op_grad(build, [(3, 4)])

    def test_two_layer_composite(self):
        def build(t):
            h = T.tanh(T.add(T.matmul(t[0], t[1]), t[2]))
            return T.matmul(h, t[3])

        check_op_grad(build, [(4, 5), (5, 6), (6,), (6, 2)])


class TestTapeMechanics:
    def test_repeated_backward_accumulates(self):
        x = T.parameter(np.array([2.0, 3.0]))
        with T.tape_scope():
            loss = T.sum_all(T.mul(x, x))
            T.backward(loss)
            first = x.grad.copy()
            T.backward(loss)
        np.testing.assert_allclose(first, [4.0, 6.0], atol=1e-6)
        np.testing.assert_allclose(x.grad, 2 * first, atol=1e-6)

    def test_fanout_accumulates_once_per_consumer(self):
        x = T.parameter(np.array([1.5]))
        with T.tape_scope():
            y = T.mul(x, x)
            loss = T.sum_all(T.add(y, y))
            T.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)

    def test_intermediate_grad_is_inspectable(self):
        x = T.parameter(np.array([[1.0, 2.0]]))
        with T.tape_scope():
            h = T.scale(x, 3.0)
            T.backward(T.sum_all(h))
        np.testing.assert_allclose(h.grad, [[1.0, 1.0]], atol=1e-7)
        np.testing.assert_allclose(x.grad, [[3.0, 3.0]], atol=1e-7)

    def test_no_grad_suppresses_recording(self):
        x = T.parameter(np.array([1.0]))
        with T.tape_scope() as tape:
            with T.no_grad():
                y = T.sigmoid(x)
            assert not y.requires_grad
            assert len(tape) == 0

    def test_tape_scope_isolates_entries(self):
        x = T.parameter(np.array([1.0]))
        outer = T.active_tape()
        before = len(outer)
        with T.tape_scope() as inner:
            T.tanh(x)
            assert len(inner) == 1
        assert len(outer) == before

    def test_entries_record_op_ids_in_execution_order(self):
        x = T.parameter(np.array([[0.5, 1.0]]))
        with T.tape_scope() as tape:
            T.sum_all(T.tanh(T.scale(x, 2.0)))
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

    def test_constants_get_no_grad_buffer(self):
        x = T.parameter(np.array([1.0]))
        c = T.constant(np.array([2.0]))
        with T.tape_scope():
            T.backward(T.sum_all(T.mul(x, c)))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0], atol=1e-7)


class TestValidationAndDtype:
    def test_shape_mismatches_raise(self):
        a = T.constant(np.ones((2, 3)))
        b = T.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            T.matmul(a, b)
        with pytest.raises(ShapeError):
            T.add(a, T.constant(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            T.mul(a, T.constant(np.ones(3)))
        with pytest.raises(ShapeError):
            T.bmm(T.constant(np.ones((2, 3, 4))), T.constant(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            T.slice_last(a, 2, 9)

    def test_bad_labels_raise_data_error(self):
        logits = T.constant(np.zeros((2, 3)))
        with pytest.raises(DataError, match="example 1"):
            T.cross_entropy(logits, np.array([0, 7]))

    def test_bad_dropout_rate_raises(self):
        x = T.constant(np.ones(3))
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            T.dropout(x, 1.0, training=True, rng=rng)
        with pytest.raises(ConfigError):
            T.dropout(x, -0.1, training=True, rng=rng)

    def test_default_dtype_and_scope(self):
        assert T.Tensor([1.0, 2.0]).dtype == np.float32
        with T.dtype_scope("float64"):
            assert T.Tensor([1.0]).dtype == np.float64
        assert T.Tensor([1.0]).dtype == np.float32

    def test_ndarray_precision_is_preserved(self):
        x64 = np.zeros(3, dtype=np.float64)
        assert T.Tensor(x64).dtype == np.float64

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigError):
            T.set_default_dtype("float16")
