"""Unit and property tests for the tensor engine."""

import math
import os
import resource
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bioie.autodiff as ad
from bioie.autodiff import (
    Adam,
    LossNotRecorded,
    NondeterministicFunction,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    reset_tape,
)
from bioie.layers import bilstm, gcn_layer, multi_head_attention
from bioie.textgraph import DocumentAdjacency

# softmax([1, 2, 3]) evaluated by direct exp/sum in 50-digit arithmetic
SOFTMAX_123 = (0.090030573170380457998, 0.24472847105479765247,
               0.66524095577482188953)


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_annihilator(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.zeros((2, 2))))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_column_sums_and_fd(self):
        b_data = rand((4, 5), seed=1)
        a = Tensor(rand((3, 4), seed=2), requires_grad=True)
        b = Tensor(b_data)
        reset_tape()
        backward(ad.matmul(a, b).sum())
        expected = np.tile(b_data.sum(axis=1), (3, 1))
        assert np.allclose(a.grad, expected, atol=1e-12)
        err = grad_check(lambda t: ad.matmul(t, b).sum(), a, epsilon=1e-5)
        assert err <= 1e-6


class TestElementwise:
    def test_add_identity(self):
        x = Tensor(rand((2, 3)))
        assert np.array_equal(ad.add(x, 0.0).data, x.data)

    def test_hadamard_identity(self):
        x = Tensor(rand((2, 3)))
        assert np.array_equal(ad.hadamard(x, 1.0).data, x.data)

    def test_sub_self_cancels(self):
        x = Tensor(rand((2, 3)), requires_grad=True)
        reset_tape()
        out = ad.sub(x, x)
        assert np.array_equal(out.data, np.zeros((2, 3)))
        backward(out.sum())
        assert np.allclose(x.grad, np.zeros((2, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_scalar_broadcast_grad(self):
        s = Tensor(np.array(2.0), requires_grad=True)
        x = Tensor(rand((2, 3)))
        reset_tape()
        backward(ad.hadamard(x, s).sum())
        assert np.isclose(float(s.grad), x.data.sum())


class TestActivations:
    def test_tanh_zero(self):
        assert ad.tanh(Tensor([0.0])).data[0] == 0.0

    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_tanh_derivative_at_zero(self):
        x = Tensor(np.zeros(1))
        err = grad_check(lambda t: ad.tanh(t).sum(), x, epsilon=1e-8)
        assert err < 1e-8  # derivative is exactly 1 at the origin

    def test_identity_passthrough(self):
        x = Tensor(rand((3,)), requires_grad=True)
        reset_tape()
        backward(ad.identity(x).sum())
        assert np.array_equal(x.grad, np.ones(3))

    def test_sigmoid_saturates_finite(self):
        out = ad.sigmoid(Tensor([1e4, -1e4])).data
        assert np.all(np.isfinite(out))
        assert out[0] == 1.0 and out[1] < 1e-26


class TestConcatSplit:
    def test_dimension_arithmetic(self):
        out = ad.concat([Tensor(np.ones((1, 3))), Tensor(np.ones((1, 5)))], axis=1)
        assert out.shape == (1, 8)

    def test_single_element(self):
        x = Tensor(rand((2, 2)))
        assert np.array_equal(ad.concat([x], axis=0).data, x.data)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError, match="axis"):
            ad.concat([Tensor(np.ones((2, 2)))], axis=5)

    def test_nonconforming_shapes(self):
        with pytest.raises(ShapeError):
            ad.concat([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))], axis=0)

    def test_backward_splits_gradient(self):
        a = Tensor(rand((2, 2)), requires_grad=True)
        b = Tensor(rand((3, 2)), requires_grad=True)
        reset_tape()
        backward(ad.hadamard(ad.concat([a, b], axis=0), 2.0).sum())
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([[0.0, 0.0]]), axis=1)
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_shift_invariance(self):
        x = rand((4, 6), seed=3)
        a = ad.softmax(Tensor(x), axis=1).data
        b = ad.softmax(Tensor(x + 123.456), axis=1).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_direct_evaluation_oracle(self):
        out = ad.softmax(Tensor([[1.0, 2.0, 3.0]]), axis=1).data[0]
        assert np.allclose(out, SOFTMAX_123, atol=1e-15)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_slices_sum_to_one(self, seed, rows, cols):
        x = Tensor(rand((rows, cols), seed=seed, lo=-30, hi=30))
        sums = ad.softmax(x, axis=1).data.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(rand((4, 4)))
        out = ad.dropout(x, 0.0, "train", np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_eval_identity(self):
        x = Tensor(rand((4, 4)))
        out = ad.dropout(x, 0.9, "eval", np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(11)
        ones = Tensor(np.ones(100_000))
        out = ad.dropout(ones, 0.5, "train", rng)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_invalid_probability(self):
        x = Tensor(np.ones(2))
        with pytest.raises(ValueError):
            ad.dropout(x, 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ValueError):
            ad.dropout(x, -0.1, "train", np.random.default_rng(0))

    def test_seeded_mask_reproducible(self):
        x = Tensor(rand((8, 8)))
        a = ad.dropout(x, 0.5, "train", np.random.default_rng(42)).data
        b = ad.dropout(x, 0.5, "train", np.random.default_rng(42)).data
        assert np.array_equal(a, b)

    def test_dropout_multiplies_by_dropout_mask(self):
        x = Tensor(rand((6, 5)))
        out = ad.dropout(x, 0.3, "train", np.random.default_rng(4)).data
        mask = ad.dropout_mask(np.random.default_rng(4), 0.3, (6, 5))
        assert np.array_equal(out, x.data * mask)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}

    def test_mask_invalid_probability(self):
        with pytest.raises(ValueError):
            ad.dropout_mask(np.random.default_rng(0), 1.0, (2,))


class TestMaxPool:
    def test_single_row(self):
        x = Tensor([[3.0, -1.0, 2.0]])
        assert np.array_equal(ad.max_pool_over_time(x).data, [3.0, -1.0, 2.0])

    def test_hand_evaluation(self):
        out = ad.max_pool_over_time(Tensor([[1.0, 5.0], [3.0, 2.0]]))
        assert np.array_equal(out.data, [3.0, 5.0])

    def test_empty_sequence(self):
        with pytest.raises(ShapeError, match="empty"):
            ad.max_pool_over_time(Tensor(np.empty((0, 3))))

    def test_gradient_one_hot_at_argmax(self):
        x = Tensor(rand((5, 4), seed=9), requires_grad=True)
        reset_tape()
        backward(ad.max_pool_over_time(x).sum())
        assert np.allclose(x.grad.sum(axis=0), np.ones(4))
        assert np.all((x.grad == 0) | (x.grad == 1))
        err = grad_check(lambda t: ad.max_pool_over_time(t).sum(),
                         Tensor(rand((5, 4), seed=10)))
        assert err <= 1e-6

    def test_tie_goes_to_first_occurrence(self):
        x = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
        reset_tape()
        backward(ad.max_pool_over_time(x).sum())
        assert np.array_equal(x.grad, [[1.0], [0.0]])


    def test_bias_equals_add_then_pool_in_one_record(self):
        """A padding bias gives bitwise the values and gradient of `add`
        then the pool, as one record that keeps no biased copy."""
        x = Tensor(rand((2, 4, 3), seed=12), requires_grad=True)
        bias = np.where(np.arange(4) < np.array([[4], [2]]), 0.0, -1e30)[:, :, None]
        weights = Tensor(rand((2, 3), seed=13))
        results = []
        for pool in (lambda: ad.max_pool_over_time(x, bias),
                     lambda: ad.max_pool_over_time(
                         ad.add(x, Tensor(np.broadcast_to(bias, x.shape))))):
            reset_tape()
            x.grad = None
            out = pool()
            records = ad.tape_size()
            backward(ad.hadamard(out, weights).sum())
            results.append((records, out.data.tobytes(), x.grad.tobytes()))
        reset_tape()
        assert results[0][0] == 1 and results[1][0] == 2
        assert results[0][1:] == results[1][1:]
        with pytest.raises(ShapeError, match="bias"):
            ad.max_pool_over_time(x, np.zeros((2, 5, 1)))

class TestBatchAxis:
    """Ops that take a leading batch axis: each batch element gets the
    value of the 2-D call, and gradients pass finite differences."""

    def weights(self, shape, seed):
        # Fixed weights make the checked scalar depend on every output
        # element with a distinct factor.
        return Tensor(rand(shape, seed=seed))

    def test_matmul_batch_values(self):
        a, b, w = rand((3, 4, 5), 1), rand((3, 5, 2), 2), rand((5, 2), 3)
        batched = ad.matmul(Tensor(a), Tensor(b)).data
        shared = ad.matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            assert np.array_equal(batched[i], ad.matmul(Tensor(a[i]), Tensor(b[i])).data)
            assert np.allclose(shared[i], a[i] @ w, atol=1e-15)

    def test_matmul_batch_gradients(self):
        cases = [((3, 4, 5), (5, 2)), ((3, 4, 5), (3, 5, 2)), ((4, 5), (3, 5, 2))]
        for k, (sa, sb) in enumerate(cases):
            a, b = Tensor(rand(sa, 10 + k)), Tensor(rand(sb, 20 + k))
            out_shape = np.matmul(a.data, b.data).shape
            w = self.weights(out_shape, 30 + k)
            f = lambda _: ad.hadamard(ad.matmul(a, b), w).sum()
            assert grad_check(f, a, epsilon=1e-5) <= 1e-6, (sa, sb)
            assert grad_check(f, b, epsilon=1e-5) <= 1e-6, (sa, sb)

    def test_matmul_batch_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 2, 3, 4))), Tensor(np.ones((4, 2))))

    def test_transpose_swaps_last_axes(self):
        x = rand((2, 3, 4), 4)
        assert np.array_equal(ad.transpose(Tensor(x)).data, x.transpose(0, 2, 1))
        w = self.weights((2, 4, 3), 5)
        err = grad_check(lambda t: ad.hadamard(ad.transpose(t), w).sum(),
                         Tensor(x), epsilon=1e-5)
        assert err <= 1e-6

    def test_add_rowvec_batch(self):
        x, v = Tensor(rand((2, 3, 4), 6)), Tensor(rand((1, 4), 7))
        assert np.array_equal(ad.add_rowvec(x, v).data, x.data + v.data)
        w = self.weights((2, 3, 4), 8)
        f = lambda _: ad.hadamard(ad.add_rowvec(x, v), w).sum()
        assert grad_check(f, x, epsilon=1e-5) <= 1e-6
        assert grad_check(f, v, epsilon=1e-5) <= 1e-6
        with pytest.raises(ShapeError):
            ad.add_rowvec(x, Tensor(np.ones((1, 3))))

    def test_max_pool_batch(self):
        x = rand((3, 5, 4), 9)
        out = ad.max_pool_over_time(Tensor(x)).data
        assert out.shape == (3, 4)
        for i in range(3):
            assert np.array_equal(out[i], ad.max_pool_over_time(Tensor(x[i])).data)
        w = self.weights((3, 4), 11)
        err = grad_check(lambda t: ad.hadamard(ad.max_pool_over_time(t), w).sum(),
                         Tensor(x), epsilon=1e-5)
        assert err <= 1e-6


class TestCrossEntropy:
    def test_uniform_logits_is_log_c(self):
        loss = ad.cross_entropy(Tensor(np.zeros((2, 6))), [0, 3])
        assert abs(loss.item() - math.log(6)) < 1e-12

    def test_saturated_correct(self):
        loss = ad.cross_entropy(Tensor([[20.0, -20.0]]), [0])
        assert loss.item() < 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="target"):
            ad.cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(rand((3, 4), seed=5), requires_grad=True)
        targets = [1, 0, 3]
        reset_tape()
        backward(ad.cross_entropy(logits, targets))
        p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(3), targets] -= 1.0
        assert np.allclose(logits.grad, p / 3.0, atol=1e-12)
        err = grad_check(lambda t: ad.cross_entropy(t, targets),
                         Tensor(rand((3, 4), seed=6)))
        assert err <= 1e-6


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(rand((3, 3), seed=7), requires_grad=True)
        reset_tape()
        backward(ad.hadamard(x, x).sum())
        assert np.allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_detached_leaf_gets_no_gradient(self):
        x = Tensor(rand((2,)), requires_grad=True)
        y = Tensor(rand((2,)), requires_grad=True)
        reset_tape()
        backward(ad.hadamard(y, y).sum())
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor(np.ones(3)))

    def test_accumulation_without_reset(self):
        """Two forward-and-backward passes without `zero_grad` add up."""
        x = Tensor(rand((2,)), requires_grad=True)
        for _ in range(2):
            reset_tape()
            backward(x.sum())
        assert np.allclose(x.grad, 2 * np.ones(2))

    def test_second_backward_on_a_consumed_tape_raises(self):
        x = Tensor(rand((2,)), requires_grad=True)
        reset_tape()
        loss = ad.tanh(x).sum()
        backward(loss)
        first = x.grad.copy()
        assert ad.tape_size() == 0
        with pytest.raises(LossNotRecorded, match="record a fresh forward"):
            backward(loss)
        assert np.array_equal(x.grad, first)

    def test_backward_after_reset_tape_raises(self):
        x = Tensor(rand((2,)), requires_grad=True)
        reset_tape()
        loss = ad.tanh(x).sum()
        reset_tape()
        with pytest.raises(LossNotRecorded, match="record a fresh forward"):
            backward(loss)
        assert x.grad is None
        backward(Tensor(np.ones(1)))  # a leaf loss stays a no-op

    def test_reset_backward_idempotent_bitwise(self):
        x = Tensor(rand((4, 4), seed=8), requires_grad=True)

        def once():
            x.zero_grad()
            reset_tape()
            backward(ad.tanh(ad.hadamard(x, x)).sum())
            return x.grad.copy()

        assert np.array_equal(once(), once())

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        reset_tape()
        y = ad.hadamard(x, 3.0)
        backward(ad.add(y, y).sum())
        assert np.allclose(x.grad, [6.0])


def copying_backward(loss):
    """`backward` as it was before buffers could alias: every first
    contribution to a non-leaf is copied and later ones added in place."""
    buffers = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(ad._STATE.tape):
        g = buffers.pop(id(rec.out), None)
        if g is None:
            continue
        for parent, contrib in rec.rule(g):
            if not parent.requires_grad:
                continue
            if parent.is_leaf:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += contrib
            elif id(parent) in buffers:
                buffers[id(parent)] += contrib
            else:
                buffers[id(parent)] = np.array(contrib, dtype=np.float64)


# In each function below, an `add` hands one gradient array to two
# parents, and a later rule would write into that array if buffers were
# accumulated in place without a copy.

def _shared_operands(x):
    """One tensor feeds both operands: h + h and k * k."""
    h, k = ad.tanh(x), ad.sigmoid(x)
    squares = ad.hadamard(k, k)
    return ad.add(ad.add(h, h), squares).sum()


def _diamond(x):
    """h feeds two branches that meet again in one sum."""
    h = ad.tanh(x)
    right = ad.sigmoid(h)
    left = ad.add(h, h)
    return ad.add(left, right).sum()


def _transpose_two_consumers(x):
    """h feeds a product and a transpose; the transpose hands h a view of
    a gradient array that k also receives."""
    h, k = ad.tanh(x), ad.sigmoid(x)
    squares = ad.hadamard(h, h)
    t = ad.transpose(h)
    return ad.add(ad.add(t, k).sum(), squares.sum())


class TestGradientBuffersMayAlias:
    """Rules that return their `g`, or a view of it, to several parents
    (add, transpose, hadamard with itself) give the same gradients as a
    backward pass that copies every buffer."""

    @pytest.mark.parametrize("f", [_shared_operands, _diamond,
                                   _transpose_two_consumers])
    def test_bitwise_equal_to_copying_backward(self, f):
        x = Tensor(rand((4, 4), seed=21), requires_grad=True)
        reset_tape()
        backward(f(x))
        got = x.grad
        x.grad = None
        reset_tape()
        copying_backward(f(x))
        assert np.array_equal(got, x.grad)

    @pytest.mark.parametrize("f", [_shared_operands, _diamond,
                                   _transpose_two_consumers])
    def test_grad_check(self, f):
        x = Tensor(rand((4, 4), seed=22), requires_grad=True)
        assert grad_check(f, x, epsilon=1e-6) <= 1e-6


# ---------------------------------------------------------------------------
# concat_branches

@pytest.fixture(params=["threaded", "serial"])
def branch_mode(request, monkeypatch):
    """Run `concat_branches` on two threads, whatever the input size and
    CPU count, or always on the calling thread."""
    threaded = request.param == "threaded"
    monkeypatch.setattr(ad, "_offload", lambda floats: threaded)
    return request.param


def branch_leaves(seed=30):
    """`shared` feeds every branch; `own[i]` only branch i."""
    rng = np.random.default_rng(seed)
    shared = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    own = [Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True) for _ in range(4)]
    return shared, own


def make_branches(shared, own, count=2):
    """Branch i: several records over x, `shared` and own[i], so that x
    and `shared` each get more than one gradient per branch."""
    def branch(i):
        def f(x):
            mixed = ad.tanh(ad.matmul(x, shared))
            again = ad.matmul(ad.add(mixed, x), shared)
            return ad.sigmoid(ad.matmul(ad.hadamard(again, mixed), own[i]))
        return f
    return [branch(i) for i in range(count)]


def run_branches(fuse, branches, leaves, x_data, x_trains=True):
    """Output, leaf gradients and input gradient of a weighted sum of
    the concatenated branches, the input being an intermediate."""
    x0 = Tensor(x_data, requires_grad=x_trains)
    for t in leaves:
        t.grad = None
    reset_tape()
    x = ad.hadamard(x0, 1.5)
    if fuse:
        out = ad.concat_branches(branches, x, axis=-1)
    else:
        out = ad.concat([f(x) for f in branches], axis=-1)
    records = ad.tape_size()
    weights = Tensor(rand(out.shape, seed=31))
    backward(ad.sum_all(ad.hadamard(out, weights)))
    reset_tape()
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    return out.data, grads, x0.grad, records


def assert_bitwise(got, expected):
    out, grads, x_grad, records = got
    assert out.tobytes() == expected[0].tobytes()
    for a, b in zip(grads, expected[1]):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()
    if x_grad is None or expected[2] is None:
        assert x_grad is None and expected[2] is None
    else:
        assert x_grad.tobytes() == expected[2].tobytes()
    assert records == expected[3]


class TestConcatBranches:
    def test_equals_concat_bitwise(self, branch_mode):
        shared, own = branch_leaves()
        branches, leaves = make_branches(shared, own), [shared, *own[:2]]
        x = rand((5, 4), seed=32)
        assert_bitwise(run_branches(True, branches, leaves, x),
                       run_branches(False, branches, leaves, x))

    def test_frozen_input_trains_branch_leaves(self, branch_mode):
        """As under `transfer --freeze lstm.,embed.`: the input needs no
        gradient, the branch weights do."""
        shared, own = branch_leaves(seed=33)
        branches, leaves = make_branches(shared, own), [shared, *own[:2]]
        x = rand((5, 4), seed=34)
        got = run_branches(True, branches, leaves, x, x_trains=False)
        assert got[2] is None and all(g is not None for g in got[1])
        assert_bitwise(got, run_branches(False, branches, leaves, x, x_trains=False))

    def test_branch_returning_its_input(self, branch_mode):
        shared, own = branch_leaves(seed=35)
        branches = [lambda x: x] + make_branches(shared, own, 1)
        leaves = [shared, own[0]]
        x = rand((5, 4), seed=36)
        assert_bitwise(run_branches(True, branches, leaves, x),
                       run_branches(False, branches, leaves, x))

    def test_no_record_under_no_grad(self, branch_mode):
        shared, own = branch_leaves(seed=37)
        branches = make_branches(shared, own)
        x = Tensor(rand((5, 4), seed=38), requires_grad=True)
        reset_tape()
        with ad.no_grad():
            out = ad.concat_branches(branches, x)
            plain = ad.concat([f(x) for f in branches], axis=-1)
        assert ad.tape_size() == 0 and not out.requires_grad
        assert out.data.tobytes() == plain.data.tobytes()

    def test_branches_run_under_callers_grad_mode_on_own_thread(self, branch_mode):
        """The calling thread's branch waits until the first branch has
        started, so that one is never taken back from the worker."""
        seen, started = {}, threading.Event()

        def branch(i):
            def f(x):
                if i == 0:
                    started.set()
                else:
                    assert started.wait(timeout=60)
                seen[i] = threading.get_ident(), ad.recording(x)
                return ad.tanh(x)
            return f

        x = Tensor(rand((2, 3), seed=39), requires_grad=True)
        with ad.no_grad():
            ad.concat_branches([branch(0), branch(1)], x)
        assert [seen[i][1] for i in (0, 1)] == [False, False]
        reset_tape()
        started.clear()
        ad.concat_branches([branch(0), branch(1)], x)
        reset_tape()
        assert [seen[i][1] for i in (0, 1)] == [True, True]
        caller = threading.get_ident()
        assert (seen[0][0] != caller) == (branch_mode == "threaded")
        assert seen[1][0] == caller

    def test_error_raised_after_every_branch_finishes(self, branch_mode):
        finished = []

        def fails(x):
            raise ValueError("branch 0")

        def slow(x):
            time.sleep(0.05)
            finished.append(True)
            return ad.tanh(x)

        x = Tensor(rand((2, 3), seed=40), requires_grad=True)
        reset_tape()
        with pytest.raises(ValueError, match="branch 0"):
            ad.concat_branches([fails, slow], x)
        assert finished == [True]
        assert ad.tape_size() == 0
        out = ad.concat_branches([slow, slow], x)
        assert out.shape == (2, 6) and ad.tape_size() == 3
        reset_tape()

    def test_first_error_in_branch_order(self, branch_mode):
        def raiser(message):
            def f(x):
                time.sleep(0.02 if message == "first" else 0.0)
                raise RuntimeError(message)
            return f

        x = Tensor(rand((2, 3), seed=41), requires_grad=True)
        with pytest.raises(RuntimeError, match="first"):
            ad.concat_branches([raiser("first"), raiser("second")], x)
        reset_tape()

    def test_grad_check(self, branch_mode):
        shared, own = branch_leaves(seed=42)
        branches = make_branches(shared, own)
        weights = Tensor(rand((3, 6), seed=43))

        def f(x):
            return ad.sum_all(ad.hadamard(ad.concat_branches(branches, x), weights))

        x = Tensor(rand((3, 4), seed=44))
        assert grad_check(f, x, epsilon=1e-6) <= 1e-6
        assert grad_check(lambda s: f(x), shared, epsilon=1e-6) <= 1e-6

    def test_stress_four_branches_under_fast_switching(self, monkeypatch):
        """Four branches sharing one leaf, the interpreter switching
        threads every microsecond: 50 threaded runs equal the serial one."""
        shared, own = branch_leaves(seed=45)
        branches, leaves = make_branches(shared, own, 4), [shared, *own]
        x = rand((6, 4), seed=46)
        monkeypatch.setattr(ad, "_offload", lambda floats: False)
        expected = run_branches(True, branches, leaves, x)
        monkeypatch.setattr(ad, "_offload", lambda floats: True)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    assert_bitwise(run_branches(True, branches, leaves, x), expected)
            except BaseException as err:  # re-raised on the test thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            helper = threading.Thread(target=hammer)
            helper.start()
            helper.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not helper.is_alive()
        if errors:
            raise errors[0]


def test_branches_thread_from_the_size_constant_on_two_cpus(monkeypatch):
    """All branches but the last are queued on the worker when the input
    passes the size rule on two CPUs; a single branch never is."""
    x = Tensor(np.zeros((4, 8)))
    queued, job = [], ad._Job

    def counting(fn, offload):
        queued.append(offload)
        return job(fn, offload)

    def branches_queued(count):
        queued.clear()
        ad.concat_branches([ad.tanh] * count, x)
        return queued

    monkeypatch.setattr(ad, "_Job", counting)
    monkeypatch.setattr(ad, "BRANCH_THREAD_MIN_FLOATS", 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert branches_queued(2) == [True, False] and branches_queued(1) == [False]
    monkeypatch.setattr(ad, "BRANCH_THREAD_MIN_FLOATS", 33)
    assert branches_queued(2) == [False, False]
    monkeypatch.setattr(ad, "BRANCH_THREAD_MIN_FLOATS", 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert branches_queued(2) == [False, False]


# ---------------------------------------------------------------------------
# Deferred weight-gradient jobs

def job_leaves(seed=50):
    """An LSTM triple, two attention heads, `wo` and one GCN layer's
    weights, at d_model 8."""
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.uniform(-0.5, 0.5, shape), requires_grad=True)

    return {"lstm": (leaf(3, 16), leaf(4, 16), leaf(1, 16)),
            "heads": [(leaf(8, 4), leaf(8, 4), leaf(8, 4)) for _ in range(2)],
            "wo": leaf(8, 8), "gcn": (leaf(8, 8), leaf(1, 8))}


def flat_leaves(leaves):
    return [*leaves["lstm"], *(t for head in leaves["heads"] for t in head),
            leaves["wo"], *leaves["gcn"]]


def serial_backward(loss):
    """A one-thread replay that waits for each job as its rule returns it
    and adds each leaf gradient as it comes: the order every sum must
    keep."""
    buffers = {id(loss): np.ones_like(loss.data)}
    for rec in reversed(ad._STATE.tape):
        g = buffers.pop(id(rec.out), None)
        if g is None:
            continue
        for parent, contrib in rec.rule(g):
            if not parent.requires_grad:
                continue
            if isinstance(contrib, ad.Deferred):
                contrib = contrib.result()
            if parent.is_leaf:
                if parent.grad is None:
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    parent.grad += contrib
            elif id(parent) in buffers:
                buffers[id(parent)] = buffers[id(parent)] + contrib
            else:
                buffers[id(parent)] = np.asarray(contrib, dtype=np.float64)


def run_jobs(leaves, x_data, x_trains=True, backward=backward):
    """Loss, every leaf gradient and the input gradient of a BiLSTM whose
    two directions share one weight triple (two parts of one job reach
    each of its leaves), then attention and three GCN layers that share
    one weight (three jobs reach it) as `concat_branches` branches."""
    x = Tensor(x_data, requires_grad=x_trains)
    for t in flat_leaves(leaves):
        t.grad = None
    matrix = np.random.default_rng(55).uniform(0, 1, (2, 5, 5)) + np.eye(5)
    adj = DocumentAdjacency(matrix, matrix.sum(axis=-1))
    w, b = leaves["gcn"]

    def convolve(h):
        for _ in range(3):
            h = gcn_layer(h, [adj.normalized], [w], [b])
        return h

    reset_tape()
    h = bilstm(x, leaves["lstm"], leaves["lstm"])
    out = ad.concat_branches(
        [lambda h: multi_head_attention(h, leaves["heads"], leaves["wo"]),
         convolve], h)
    loss = ad.sum_all(ad.hadamard(out, Tensor(rand(out.shape, seed=51))))
    backward(loss)
    reset_tape()
    return [loss.data, x.grad] + [t.grad for t in flat_leaves(leaves)]


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def serial_run(monkeypatch, *args, **kwargs):
    """`run_jobs` on one thread through `serial_backward`."""
    with monkeypatch.context() as m:
        m.setattr(ad, "_offload", lambda floats: False)
        return run_jobs(*args, backward=serial_backward, **kwargs)


class TestDeferred:
    def test_bitwise_equal_to_serial_replay(self, job_mode, monkeypatch):
        leaves, x = job_leaves(), rand((2, 5, 3), seed=52)
        expected = serial_run(monkeypatch, leaves, x)
        got = run_jobs(leaves, x)
        assert all(g is not None for g in got)
        assert_same_arrays(got, expected)

    def test_frozen_lstm_and_input_queue_no_job(self, job_mode, monkeypatch):
        """As under `transfer --freeze lstm.,embed.`: the frozen tensors get
        no gradient and no `Deferred` job; attention makes two (`wo` and
        the fused Q/K/V weights), and each GCN call one."""
        leaves, x = job_leaves(seed=53), rand((2, 5, 3), seed=54)
        for t in leaves["lstm"]:
            t.requires_grad = False
        expected = serial_run(monkeypatch, leaves, x, x_trains=False)
        jobs = []
        make = ad.Deferred.__init__

        def counting(self, fn, operand):
            jobs.append(ad._offload(operand.size))
            make(self, fn, operand)

        monkeypatch.setattr(ad.Deferred, "__init__", counting)
        got = run_jobs(leaves, x, x_trains=False)
        assert len(jobs) == 5 and set(jobs) == {job_mode == "worker"}
        assert all(g is None for g in got[1:5])
        assert all(g is not None for g in got[5:])
        assert_same_arrays(got, expected)

    @pytest.mark.parametrize("in_branch", [False, True])
    def test_gradient_of_an_intermediate_is_resolved_in_the_replay(
            self, job_mode, in_branch):
        """A deferred gradient may reach a tensor that is not a leaf; the
        replay then resolves it at once. In a branch replayed on the
        worker, the worker runs the job itself rather than wait on its
        own queue."""
        w0 = Tensor(rand((3, 2), seed=56), requires_grad=True)
        x = rand((4, 3), seed=57)

        def op(w):
            def rule(g):
                both = ad.Deferred(lambda: np.stack([x.T @ g, -(x.T @ g)]), g)
                return [(w, both[0])]
            return ad.make_op(x @ w.data, (w,), rule)

        def branch(_):
            return op(ad.hadamard(w0, 2.0))

        reset_tape()
        if in_branch:
            out = ad.concat_branches([branch, ad.tanh], Tensor(rand((4, 2), seed=58)))
        else:
            out = branch(None)
        backward(ad.sum_all(out))
        reset_tape()
        assert w0.grad.tobytes() == (2.0 * (x.T @ np.ones((4, 2)))).tobytes()

    @pytest.mark.parametrize("raiser", ["rule", "job"])
    def test_error_raised_after_every_job_finishes(self, job_mode, raiser):
        finished = []
        w = Tensor(rand((3, 3), seed=58), requires_grad=True)
        x = Tensor(rand((3, 3), seed=59), requires_grad=True)

        def slow():
            time.sleep(0.05)
            finished.append(True)
            return np.ones((3, 3))

        def fails():
            raise ValueError("job")

        def op(inp, job=None):
            def rule(g):
                if job is None:
                    raise ValueError("rule")
                return [(inp, g), (w, ad.Deferred(job, g))]
            return ad.make_op(inp.data * w.data, (inp, w), rule)

        # The op recorded last replays first and queues its job before the
        # other op raises, or before the failing job is waited on.
        reset_tape()
        if raiser == "rule":
            loss = ad.sum_all(op(op(x), slow))
        else:
            loss = ad.sum_all(op(op(x, slow), fails))
        with pytest.raises(ValueError, match=raiser):
            backward(loss)
        assert finished == [True]
        reset_tape()
        w.grad = None
        backward(ad.sum_all(op(x, slow)))
        reset_tape()
        assert np.array_equal(w.grad, np.ones((3, 3))) and finished == [True] * 2

    def test_stress_under_fast_switching(self, monkeypatch):
        """Branches and jobs on the worker while the interpreter switches
        threads every microsecond: 30 runs equal the serial one."""
        leaves, x = job_leaves(seed=60), rand((2, 5, 3), seed=61)
        expected = serial_run(monkeypatch, leaves, x)
        monkeypatch.setattr(ad, "_offload", lambda floats: True)
        errors = []

        def hammer():
            try:
                for _ in range(30):
                    assert_same_arrays(run_jobs(leaves, x), expected)
            except BaseException as err:  # re-raised on the test thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            helper = threading.Thread(target=hammer)
            helper.start()
            helper.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not helper.is_alive()
        if errors:
            raise errors[0]


# ---------------------------------------------------------------------------
# Tape consumption: `backward` frees each record once its rule has run

def holding(x, seed=90, job=None):
    """A record whose rule alone holds an array, and a weakref to that
    array. With `job`, a (w, fn) pair, the rule also hands `w` the
    gradient `fn()` as a `Deferred`."""
    held = rand(x.shape, seed=seed)
    ref = weakref.ref(held)

    def rule(g):
        pairs = [(x, g * held)]
        if job is not None:
            w, fn = job
            pairs.append((w, ad.Deferred(fn, g)))
        return pairs

    return ad.make_op(x.data * held, (x,), rule), ref


def checking(x, refs, dead):
    """A record whose rule appends to `dead`, when it runs, whether each
    weakref in `refs` is dead."""
    def rule(g):
        dead.append([ref() is None for ref in refs])
        return [(x, g)]

    return ad.make_op(x.data.copy(), (x,), rule)


def self_checking(x, dead):
    """A record whose rule appends to `dead`, when it runs, whether its
    own output array is dead."""
    refs = []

    def rule(g):
        dead.append(refs[0]() is None)
        return [(x, g)]

    out = ad.make_op(x.data.copy(), (x,), rule)
    refs.append(weakref.ref(out.data))
    return out


class TestTapeConsumption:
    def test_output_dead_while_its_own_rule_runs(self, job_mode):
        """An output that only its record holds is freed before the rule
        runs: the replay holds neither the record nor the output."""
        x = Tensor(rand((3, 4), seed=97), requires_grad=True)
        dead = []
        reset_tape()
        backward(ad.sum_all(self_checking(x, dead)))
        assert dead == [True]
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_branch_outputs_dead_while_their_own_rules_run(self, job_mode):
        x = Tensor(rand((3, 4), seed=98), requires_grad=True)
        dead = [[], []]
        branches = [lambda x, d=d: ad.max_pool_over_time(self_checking(x, d))
                    for d in dead]
        reset_tape()
        backward(ad.sum_all(ad.concat_branches(branches, x)))
        assert dead == [[True], [True]]

    def test_record_freed_before_an_earlier_rule_runs(self, job_mode):
        x = Tensor(rand((3, 4), seed=91), requires_grad=True)
        refs, dead = [], []
        reset_tape()
        y, ref = holding(checking(x, refs, dead))
        refs.append(ref)
        loss = ad.sum_all(y)
        assert ref() is not None and ad.tape_size() == 3
        backward(loss)
        assert dead == [[True]] and ad.tape_size() == 0
        assert np.array_equal(x.grad, rand((3, 4), seed=90))

    def test_branch_tapes_consumed_on_either_thread(self, job_mode):
        """Each branch of a `concat_branches` record frees its own
        records as its replay passes them, on whichever thread replays
        it."""
        x = Tensor(rand((3, 4), seed=92), requires_grad=True)
        refs, dead, threads = ([[], []], [[], []], [None, None])
        started = threading.Event()

        def branch(i):
            def f(x):
                # The calling thread's branch waits until the first has
                # started, so that one is never taken back from the worker.
                if i == 0:
                    started.set()
                else:
                    assert started.wait(timeout=60)
                threads[i] = threading.get_ident()
                y, ref = holding(checking(x, refs[i], dead[i]), seed=93 + i)
                refs[i].append(ref)
                return y
            return f

        reset_tape()
        out = ad.concat_branches([branch(0), branch(1)], x)
        assert ad.tape_size() == 5
        backward(ad.sum_all(out))
        assert dead == [[[True]], [[True]]] and ad.tape_size() == 0
        assert (threads[0] != threads[1]) == (job_mode == "worker")
        assert np.array_equal(x.grad, rand((3, 4), seed=93) + rand((3, 4), seed=94))

    def test_record_freed_while_its_job_is_in_flight(self, job_mode):
        """A record's `Deferred` job holds only what it computes from: the
        array that only the record held is dead while the job still runs
        on the worker."""
        x = Tensor(rand((3, 4), seed=95), requires_grad=True)
        w = Tensor(np.zeros((3, 4)), requires_grad=True)
        gate, finished = threading.Event(), []
        if job_mode == "inline":
            gate.set()  # the job runs when the rule creates it

        def job():
            assert gate.wait(timeout=60)
            finished.append(True)
            return np.ones((3, 4))

        refs, dead = [], []

        def check_then_open(g):
            dead.append(([ref() is None for ref in refs], bool(finished)))
            gate.set()
            return [(x, g)]

        reset_tape()
        y, ref = holding(ad.make_op(x.data.copy(), (x,), check_then_open),
                         job=(w, job))
        refs.append(ref)
        backward(ad.sum_all(y))
        assert dead == [([True], job_mode == "inline")]
        assert np.array_equal(w.grad, np.ones((3, 4))) and ad.tape_size() == 0

    def test_next_pass_succeeds_after_a_rule_raises(self, job_mode):
        """The records not yet replayed are dropped while the error is
        still alive, and a fresh pass then runs as usual."""
        x = Tensor(rand((3, 4), seed=96), requires_grad=True)

        def failing(t):
            def rule(g):
                raise ValueError("rule")
            return ad.make_op(t.data.copy(), (t,), rule)

        reset_tape()
        y, ref = holding(ad.tanh(x))
        loss = ad.sum_all(failing(y))
        with pytest.raises(ValueError, match="rule") as err:
            backward(loss)
        assert ref() is None and err.value is not None
        assert ad.tape_size() == 0 and x.grad is None
        backward(ad.sum_all(holding(x)[0]))
        assert np.array_equal(x.grad, rand((3, 4), seed=90))


def test_jobs_and_adam_use_the_worker_from_the_size_constant_on_two_cpus(
        monkeypatch):
    caller = threading.get_ident()

    def job_thread(floats):
        job = ad.Deferred(threading.get_ident, np.zeros(floats))
        ad._drain()  # else `result` may find it queued and run it here
        return job.result()

    updates, started = [], threading.Event()

    def update(self, indices):
        # The calling thread's half waits until the first half has
        # started, so that one is never taken back from the worker.
        if indices.start == 0:
            started.set()
        else:
            assert started.wait(timeout=60)
        updates.append((threading.get_ident() == caller, list(indices)))

    monkeypatch.setattr(Adam, "_update", update)

    def adam_threads(floats_each):
        updates.clear()
        started.clear()
        params = [Tensor(np.zeros(floats_each), requires_grad=True)
                  for _ in range(4)]
        for p in params:
            p.grad = np.ones(floats_each)
        Adam(params).step()
        return sorted(updates)

    monkeypatch.setattr(ad, "BRANCH_THREAD_MIN_FLOATS", 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert job_thread(32) != caller and job_thread(31) == caller
    assert adam_threads(8) == [(False, [0, 1]), (True, [2, 3])]
    assert adam_threads(7) == [(True, [0, 1]), (True, [2, 3])]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert job_thread(32) == caller
    assert adam_threads(8) == [(True, [0, 1]), (True, [2, 3])]


# ---------------------------------------------------------------------------
# run_all: tasks shared between the worker and the calling thread

def on_worker() -> bool:
    return threading.current_thread().name.startswith("bioie-branch")


class TestRunAll:
    def test_results_in_order_front_on_worker_rest_on_caller(self, job_mode):
        """The worker takes the first task; every task queued behind it
        that has not started when the caller reaches it runs on the
        caller. The caller's own task waits until the first has started,
        and the first holds the worker until the caller reaches task 1."""
        where, started, reached = {}, threading.Event(), threading.Event()

        def task(i):
            def f():
                if i == 0:
                    started.set()
                    if on_worker():
                        assert reached.wait(timeout=60)
                elif i == 4:
                    assert started.wait(timeout=60)
                elif i == 1:
                    reached.set()
                where[i] = on_worker()
                return i
            return f

        assert ad.run_all([task(i) for i in range(5)], 1) == list(range(5))
        assert where == {0: job_mode == "worker", 1: False, 2: False, 3: False,
                         4: False}

    def test_hand_off_after_a_cancelled_task_is_still_behind(self, job_mode):
        """A task that the caller took back and that hands off work of its
        own: that work is queued behind the worker's running task, so the
        caller takes it back as well rather than wait for the worker. The
        first task, if the worker runs it, holds the worker until both
        nested tasks have run."""
        where, both = {}, threading.Event()

        def slow():
            if on_worker():
                assert both.wait(timeout=60)

        def nested(i):
            def inner():
                where[i] = on_worker()
                if len(where) == 2:
                    both.set()
            return lambda: ad.run_all([inner, int], 1)

        ad.run_all([slow, nested(1), nested(2)], 1)
        assert where == {1: False, 2: False}

    def test_error_raised_after_every_task_finishes(self, job_mode):
        finished = []

        def fails(message, delay):
            def f():
                time.sleep(delay)
                raise ValueError(message)
            return f

        def slow():
            time.sleep(0.05)
            finished.append(True)

        with pytest.raises(ValueError, match="first"):
            ad.run_all([fails("first", 0.02), slow, fails("second", 0.0), slow], 1)
        assert finished == [True, True]
        assert ad.run_all([slow, lambda: 7], 1) == [None, 7]

    def test_forward_on_the_worker_finishes_bitwise_equal(self, job_mode,
                                                          monkeypatch):
        """A forward with branches run on the worker thread, recorded or
        not, and a task list run there, finish and give the results of
        an all-inline run: the worker takes back what it queued rather
        than wait on its own queue."""
        shared, own = branch_leaves(seed=62)
        x = Tensor(rand((5, 4), seed=63), requires_grad=True)

        def forward():
            with ad.no_grad():
                plain = ad.concat_branches(make_branches(shared, own), x).data
            recorded = ad.concat_branches(make_branches(shared, own), x)
            reset_tape()
            return plain, recorded.data, ad.run_all([int, int], 1)

        plain, recorded, results = ad._worker().submit(forward).result(timeout=60)
        with monkeypatch.context() as m:
            m.setattr(ad, "_offload", lambda floats: False)
            expected = forward()
        assert plain.tobytes() == expected[0].tobytes()
        assert recorded.tobytes() == expected[1].tobytes()
        assert results == [0, 0]

    def test_one_rule_under_fast_switching(self, monkeypatch):
        """The interpreter switching threads every microsecond, 50 rounds
        each of: task lists of task lists, run from the worker thread and
        from a second thread at once; and a `concat_branches` whose
        worker-side branch replay makes a `Deferred` for an intermediate,
        which the worker then takes back from its own queue. Every round
        finishes and equals the all-inline run bit for bit."""
        a = rand((6, 6), seed=64)
        w0 = Tensor(rand((3, 2), seed=65), requires_grad=True)
        x, h, weights = rand((4, 3), seed=66), rand((4, 2), seed=67), rand((4, 4), 68)

        def nested():
            def leaf(k):
                return lambda: np.tanh(a * k) @ a

            def middle(k):
                return lambda: ad.run_all([leaf(k), leaf(k + 1), leaf(k + 2)], 1)

            return ad.run_all([middle(0), middle(3), middle(6)], 1)

        def branches(ran_on):
            """The first branch ends in an op whose rule hands back its
            input's gradient, an intermediate's, as a `Deferred`; the
            second's rule waits until the first's has started, so the
            worker replays the first whenever it is threaded."""
            started = threading.Event()

            def handing(w):
                def rule(g):
                    started.set()

                    def job():
                        ran_on.append(threading.current_thread().name)
                        return x.T @ g
                    return [(w, ad.Deferred(job, g))]
                return ad.make_op(x @ w.data, (w,), rule)

            def gate(t):
                def rule(g):
                    assert started.wait(timeout=60)
                    return [(t, g)]
                return ad.make_op(t.data.copy(), (t,), rule)

            return [lambda _: handing(ad.hadamard(w0, 2.0)),
                    lambda t: gate(ad.tanh(t))]

        def branched():
            ran_on, inp = [], Tensor(h, requires_grad=True)
            w0.grad = None
            reset_tape()
            out = ad.concat_branches(branches(ran_on), inp)
            backward(ad.sum_all(ad.hadamard(out, Tensor(weights))))
            return [out.data, w0.grad, inp.grad], ran_on

        def same(got, expected):
            return [g.tobytes() for g in got] == [e.tobytes() for e in expected]

        monkeypatch.setattr(ad, "_offload", lambda floats: False)
        expected_nested = nested()
        expected_branched, ran_on = branched()
        assert ran_on == [threading.current_thread().name]
        monkeypatch.setattr(ad, "_offload", lambda floats: True)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    queued = ad._worker().submit(nested)
                    assert all(same(*pair) for pair in zip(nested(), expected_nested))
                    assert all(same(*pair) for pair in
                               zip(queued.result(timeout=60), expected_nested))
                for _ in range(50):
                    got, ran_on = branched()
                    assert same(got, expected_branched)
                    assert len(ran_on) == 1 and ran_on[0].startswith("bioie-branch")
            except BaseException as err:  # re-raised on the test thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            helper = threading.Thread(target=hammer)
            helper.start()
            helper.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not helper.is_alive()
        if errors:
            raise errors[0]


class TestAdam:
    def _param(self, seed=0):
        return Tensor(rand((4, 3), seed=seed), requires_grad=True)

    def test_zero_lr_keeps_parameters_bitwise(self):
        p = self._param()
        before = p.data.copy()
        p.grad = rand((4, 3), seed=1)
        opt = Adam([p], lr=0.0)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_lr_sign(self):
        p = self._param()
        before = p.data.copy()
        g = np.where(rand((4, 3), seed=2) > 0, 1.0, -1.0)
        p.grad = g.copy()
        opt = Adam([p], lr=1e-3)
        opt.step()
        delta = p.data - before
        assert np.all(np.abs(np.abs(delta) - 1e-3) < 1e-6)
        assert np.all(np.sign(delta) == -np.sign(g))

    def test_zero_grad_keeps_parameters_but_increments_t(self):
        p = self._param()
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        opt = Adam([p])
        opt.step()
        assert opt.t == 1
        assert np.array_equal(p.data, before)

    def test_missing_grad_raises_with_name(self):
        p = self._param()
        opt = Adam([p], names=["clf.w"])
        with pytest.raises(ValueError, match="clf.w"):
            opt.step()

    def test_missing_grad_on_last_tensor_changes_nothing(self):
        params = [self._param(seed=k) for k in range(3)]
        opt = Adam(params, names=["a", "b", "c"])
        for k, p in enumerate(params):
            p.grad = rand((4, 3), seed=10 + k)
        opt.step()  # moments and t away from their initial values
        for k, p in enumerate(params[:2]):
            p.grad = rand((4, 3), seed=20 + k)
        state = [[a.tobytes() for a in arrays] for arrays in
                 ([p.data for p in params], opt.m, opt.v)]
        with pytest.raises(ValueError, match="'c' has no gradient"):
            opt.step()
        assert opt.t == 1
        assert state == [[a.tobytes() for a in arrays] for arrays in
                         ([p.data for p in params], opt.m, opt.v)]

    def test_grads_cleared_after_step(self):
        p = self._param()
        p.grad = np.ones_like(p.data)
        Adam([p]).step()
        assert p.grad is None


class TestGradCheck:
    def test_linear_function_near_exact(self):
        err = grad_check(lambda t: t.sum(), Tensor(rand((5,))))
        assert err < 1e-10

    def test_tanh_sum(self):
        err = grad_check(lambda t: ad.tanh(t).sum(), Tensor(rand((4, 4), seed=3)))
        assert err < 1e-6

    def test_detects_nondeterminism(self):
        rng = np.random.default_rng(0)

        def noisy(t):
            return ad.add(t, float(rng.random())).sum()

        with pytest.raises(NondeterministicFunction):
            grad_check(noisy, Tensor(rand((2,))))

    def test_sampled_coordinates(self):
        x = Tensor(rand((10, 10), seed=4))
        err = grad_check(lambda t: ad.sigmoid(t).sum(), x, samples=8,
                         rng=np.random.default_rng(1))
        assert err <= 1e-6


OPS_FOR_PROPERTY = [
    ("matmul", lambda x: ad.matmul(x, Tensor(rand((4, 3), seed=100))).sum(), (5, 4)),
    ("add", lambda x: ad.add(x, Tensor(rand((5, 4), seed=101))).sum(), (5, 4)),
    ("sub", lambda x: ad.sub(Tensor(rand((5, 4), seed=102)), x).sum(), (5, 4)),
    ("hadamard", lambda x: ad.hadamard(x, Tensor(rand((5, 4), seed=103))).sum(), (5, 4)),
    ("tanh", lambda x: ad.tanh(x).sum(), (5, 4)),
    ("sigmoid", lambda x: ad.sigmoid(x).sum(), (5, 4)),
    ("identity", lambda x: ad.identity(x).sum(), (5, 4)),
    ("softmax", lambda x: ad.hadamard(ad.softmax(x, axis=1),
                                      Tensor(rand((5, 4), seed=104))).sum(), (5, 4)),
    ("concat", lambda x: ad.concat([x, Tensor(rand((5, 4), seed=105))], axis=0).sum(), (5, 4)),
    ("max_pool", lambda x: ad.max_pool_over_time(x).sum(), (5, 4)),
    ("cross_entropy", lambda x: ad.cross_entropy(x, [0, 2, 1, 3, 2]), (5, 4)),
    ("take_rows", lambda x: ad.take_rows(x, [0, 2, 2, 4]).sum(), (5, 4)),
    ("transpose", lambda x: ad.hadamard(ad.transpose(x),
                                        Tensor(rand((4, 5), seed=106))).sum(), (5, 4)),
    ("reshape", lambda x: ad.hadamard(ad.reshape(x, (4, 5)),
                                      Tensor(rand((4, 5), seed=107))).sum(), (5, 4)),
    ("add_rowvec", lambda x: ad.add_rowvec(Tensor(rand((3, 4), seed=108),
                                                  requires_grad=True),
                                           ad.reshape(x, (1, 4))).sum(), (4,)),
]


@pytest.mark.parametrize("name,fn,shape", OPS_FOR_PROPERTY,
                         ids=[o[0] for o in OPS_FOR_PROPERTY])
def test_every_op_passes_grad_check(name, fn, shape):
    for seed in (0, 1, 2):
        x = Tensor(rand(shape, seed=seed))
        assert grad_check(fn, x, epsilon=1e-5) <= 1e-4


def test_forward_outputs_finite_on_finite_inputs():
    x = Tensor(rand((6, 6), seed=12, lo=-50, hi=50))
    for out in (ad.tanh(x), ad.sigmoid(x), ad.softmax(x, axis=1),
                ad.matmul(x, x), ad.hadamard(x, x)):
        assert np.all(np.isfinite(out.data))


def test_freed_arrays_are_reused_without_page_faults():
    # Allocating and freeing 8 MiB of 1 MiB arrays, as a forward pass
    # does, would under glibc's default thresholds return the freed heap
    # top to the OS and fault all ~2048 pages in again on every round.
    if not ad.keep_freed_arrays():
        pytest.skip("the C library has no mallopt")

    def one_round():
        arrays = [np.ones(1 << 17) for _ in range(8)]
        del arrays

    one_round()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        one_round()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200
