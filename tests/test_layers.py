"""Layer-level tests: embedding assembly, LSTM, attention, GCN."""

import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bioie.autodiff as ad
import bioie.layers as layer_module
from bioie.autodiff import ShapeError, Tensor, grad_check, make_op, sigmoid_values
from bioie.layers import (
    ModelConfig,
    bilstm,
    embed_sequence,
    gcn_layer,
    gcn_propagate,
    glorot,
    inter_graph_mix,
    multi_head_attention,
    scaled_dot_attention,
)
from bioie.textgraph import DocumentAdjacency


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of `a`."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure(fn) -> dict:
    """The variables that a function closes over, by name."""
    return dict(zip(fn.__code__.co_freevars,
                    (c.cell_contents for c in fn.__closure__ or ())))


def held_arrays(fn) -> list[np.ndarray]:
    """Every array that `fn`'s closure holds, through lists, tuples and
    the closures of the functions it holds, tensors aside."""
    found, seen, todo = [], set(), list(closure(fn).values())
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif callable(value) and getattr(value, "__closure__", None):
            todo.extend(closure(value).values())
    return found


def last_rule():
    """The rule of the last record on this thread's tape."""
    return ad._STATE.tape[-1].rule


def dead_at_each_job(monkeypatch, refs) -> list[list[bool]]:
    """For each `Deferred` that a layer makes from now on, whether each
    weakref in `refs` is dead as it is made."""
    seen, make = [], layer_module.Deferred

    def spy(fn, operand):
        seen.append([ref() is None for ref in refs])
        return make(fn, operand)

    monkeypatch.setattr(layer_module, "Deferred", spy)
    return seen


def lstm_direction(rng: np.random.Generator, input_dim: int, hidden: int
                   ) -> tuple[Tensor, Tensor, Tensor]:
    """A trainable (wx, wh, b) triple drawn as `init_model` draws one LSTM
    direction: Glorot wx, then Glorot wh, forget-gate bias 1."""
    b = np.zeros((1, 4 * hidden))
    b[0, hidden:2 * hidden] = 1.0
    return (Tensor(glorot(rng, input_dim, 4 * hidden), requires_grad=True),
            Tensor(glorot(rng, hidden, 4 * hidden), requires_grad=True),
            Tensor(b, requires_grad=True))


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: tuple[Tensor, Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM cell update on a (1, input) row with a (wx, wh, b) triple;
    returns (h_t, c_t). The step-by-step oracle for the fused `bilstm`.

    Sigmoid input/forget/output gates, tanh candidate; gate blocks are
    ordered [input, forget, output, candidate]. The cell state and the
    output gate are two fused tape records sharing the forward
    intermediates.
    """
    wx, wh, b = params
    hid = wh.shape[0]
    if x.shape != (1, wx.shape[0]) or h_prev.shape != (1, hid):
        raise ShapeError(
            f"lstm_step: x {x.shape} / h {h_prev.shape} do not match parameters "
            f"{wx.shape} / {wh.shape}")
    xd, hd, cd = x.data, h_prev.data, c_prev.data
    z = xd @ wx.data + hd @ wh.data + b.data
    gates = sigmoid_values(z[:, :3 * hid])
    i_g = gates[:, :hid]
    f_g = gates[:, hid:2 * hid]
    o_g = gates[:, 2 * hid:]
    g_g = np.tanh(z[:, 3 * hid:])
    c_new = f_g * cd + i_g * g_g

    def _propagate(dz, g_c_prev=None):
        pairs = []
        if x.requires_grad:
            pairs.append((x, dz @ wx.data.T))
        if h_prev.requires_grad:
            pairs.append((h_prev, dz @ wh.data.T))
        if c_prev.requires_grad and g_c_prev is not None:
            pairs.append((c_prev, g_c_prev))
        if wx.requires_grad:
            pairs.append((wx, xd.T @ dz))
        if wh.requires_grad:
            pairs.append((wh, hd.T @ dz))
        if b.requires_grad:
            pairs.append((b, dz))
        return pairs

    def c_rule(g):
        dz = np.zeros_like(z)
        dz[:, :hid] = (g * g_g) * i_g * (1.0 - i_g)
        dz[:, hid:2 * hid] = (g * cd) * f_g * (1.0 - f_g)
        dz[:, 3 * hid:] = (g * i_g) * (1.0 - g_g * g_g)
        return _propagate(dz, g_c_prev=g * f_g)

    def o_rule(g):
        dz = np.zeros_like(z)
        dz[:, 2 * hid:3 * hid] = g * o_g * (1.0 - o_g)
        return _propagate(dz)

    c_t = make_op(c_new, (x, h_prev, c_prev, wx, wh, b), c_rule)
    o_t = make_op(o_g, (x, h_prev, wx, wh, b), o_rule)
    h_t = ad.hadamard(o_t, ad.tanh(c_t))
    return h_t, c_t


def stepwise(seq: np.ndarray, p: tuple[Tensor, Tensor, Tensor],
             reverse=False) -> np.ndarray:
    """Chain `lstm_step` over an (n, input) sequence; (n, hidden) outputs."""
    n, hid = seq.shape[0], p[1].shape[0]
    h, c = Tensor(np.zeros((1, hid))), Tensor(np.zeros((1, hid)))
    rows = np.empty((n, hid))
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h, c = lstm_step(Tensor(seq[t:t + 1]), h, c, p)
        rows[t] = h.data[0]
    return rows


def lstm_sequence(seq: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
                  reverse: bool = False, lengths=None) -> Tensor:
    """Run one LSTM direction over an (n, input) sequence or a padded
    (B, n, input) batch as a single fused tape record: the one-direction
    reference for `bilstm`, which runs both directions in one loop.

    `wx` is (input, 4*hidden), `wh` (hidden, 4*hidden) and `b`
    (1, 4*hidden). Gate blocks are laid out [input, forget, output,
    candidate], each `hidden` wide, so the two sigmoid blocks are
    contiguous. `lengths` gives each batch row's real length (default:
    all n). Steps past a row's length hold a zero state and output zero,
    so the reverse direction of every row starts at its own last real
    token.

    The forward pass runs one (B, input) @ (input, 4*hidden) and one
    (B, hidden) @ (hidden, 4*hidden) product per step. The
    backward rule runs truncation-free BPTT, collecting per-step gate
    gradients so the weight gradients reduce to single matmuls.
    """
    x = seq.data if seq.data.ndim == 3 else seq.data[None]
    bsz, n, width = x.shape
    hid = wh.shape[0]
    lengths = np.full(bsz, n) if lengths is None else np.asarray(lengths)
    order = range(n - 1, -1, -1) if reverse else range(n)
    # keep[t] zeroes the rows whose sequence has ended by step t; steps
    # before the shortest length need no mask.
    keep = (np.arange(n)[:, None] < lengths[None, :])[:, :, None].astype(np.float64)
    full = int(lengths.min())

    # Time-major working arrays: row t holds every sequence's step t.
    x_t = np.ascontiguousarray(x.transpose(1, 0, 2))
    acts = np.empty((n, bsz, 4 * hid))   # i, f, o gates and candidate g
    tc_s = np.empty((n, bsz, hid))       # tanh of the unmasked cell
    c_prev_s = np.empty((n, bsz, hid))
    out = np.empty((n, bsz, hid))
    h = np.zeros((bsz, hid))
    c = np.zeros((bsz, hid))
    for t in order:
        c_prev_s[t] = c
        z = x_t[t] @ wx.data + b.data + h @ wh.data
        a = acts[t]
        a[:, :3 * hid] = sigmoid_values(z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=a[:, 3 * hid:])
        c = a[:, hid:2 * hid] * c + a[:, :hid] * a[:, 3 * hid:]
        np.tanh(c, out=tc_s[t])
        h = a[:, 2 * hid:3 * hid] * tc_s[t]
        if t >= full:
            c = c * keep[t]
            h = h * keep[t]
        out[t] = h

    def rule(g):
        # Per-step products vectorized up front; the reverse loop only
        # carries the two recurrent gradients and writes gate gradients
        # straight into the dz rows.
        g = np.swapaxes(g.reshape(bsz, n, hid), 0, 1)
        i_s, f_s = acts[..., :hid], acts[..., hid:2 * hid]
        o_s, g_s = acts[..., 2 * hid:3 * hid], acts[..., 3 * hid:]
        pre_i = g_s * i_s * (1.0 - i_s)
        pre_f = c_prev_s * f_s * (1.0 - f_s)
        pre_o = tc_s * o_s * (1.0 - o_s)
        pre_g = i_s * (1.0 - g_s * g_s)
        pre_c = o_s * (1.0 - tc_s * tc_s)
        h_prev_s = np.zeros_like(out)  # the state each step started from
        if reverse:
            h_prev_s[:-1] = out[1:]
        else:
            h_prev_s[1:] = out[:-1]
        wh_t = np.ascontiguousarray(wh.data.T)
        dz = np.empty((n, bsz, 4 * hid))
        dh = np.empty((bsz, hid))
        dc = np.zeros((bsz, hid))  # holds the incoming cell-state carry
        dh_carry = np.zeros((bsz, hid))
        for t in reversed(order):
            np.add(g[t], dh_carry, out=dh)
            if t >= full:
                dh *= keep[t]
                dc *= keep[t]
            dc += dh * pre_c[t]
            row = dz[t]
            np.multiply(dc, pre_i[t], out=row[:, :hid])
            np.multiply(dc, pre_f[t], out=row[:, hid:2 * hid])
            np.multiply(dh, pre_o[t], out=row[:, 2 * hid:3 * hid])
            np.multiply(dc, pre_g[t], out=row[:, 3 * hid:])
            dc *= f_s[t]  # becomes the carry entering the previous step
            np.matmul(row, wh_t, out=dh_carry)
        dz_rows = dz.reshape(-1, 4 * hid)
        pairs = []
        if seq.requires_grad:
            gx = np.swapaxes(dz @ wx.data.T, 0, 1)
            pairs.append((seq, gx.reshape(seq.shape)))
        if wx.requires_grad:
            pairs.append((wx, x_t.reshape(-1, width).T @ dz_rows))
        if wh.requires_grad:
            pairs.append((wh, h_prev_s.reshape(-1, hid).T @ dz_rows))
        if b.requires_grad:
            pairs.append((b, dz_rows.sum(axis=0, keepdims=True)))
        return pairs

    return make_op(np.swapaxes(out, 0, 1).reshape(seq.shape[:-1] + (hid,)),
                   (seq, wx, wh, b), rule)


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(hidden=5, heads=3)

    def test_dims_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(d_w=0)

    @pytest.mark.parametrize("head_dim", [0, -3])
    def test_head_dim_positive_when_given(self, head_dim):
        with pytest.raises(ValueError, match="head_dim"):
            ModelConfig(head_dim=head_dim)
        assert ModelConfig(heads=1, head_dim=1).effective_head_dim == 1

    def test_single_attention_mode_removed(self):
        """One head is `heads=1`; there is no separate "single" mode."""
        with pytest.raises(ValueError, match="heads=1"):
            ModelConfig(attention="single")

    def test_classifier_width_tracks_branches(self):
        assert ModelConfig(hidden=8, heads=4).classifier_width == 32
        assert ModelConfig(hidden=8, heads=4, use_gcn=False).classifier_width == 16


def joined(blocks):
    """`embed_sequence`'s column blocks joined as `bilstm` joins them."""
    return np.concatenate([t.data for t in blocks], axis=-1)


def concatenated_rows(token_ids, head_start, tail_start, word, pos_head,
                      pos_tail, max_dist):
    """The rows `embed_sequence` gave as one recorded `concat`, before it
    returned column blocks."""
    ids = np.asarray(token_ids, dtype=np.int64)
    parts = [ad.take_rows(word, ids)]
    if pos_head is not None:
        rel = np.arange(ids.shape[-1])
        h_idx = np.clip(rel - np.expand_dims(head_start, -1), -max_dist,
                        max_dist) + max_dist
        t_idx = np.clip(rel - np.expand_dims(tail_start, -1), -max_dist,
                        max_dist) + max_dist
        parts += [ad.take_rows(pos_head, h_idx), ad.take_rows(pos_tail, t_idx)]
    return ad.concat(parts, axis=-1) if len(parts) > 1 else parts[0]


class TestEmbedSequence:
    def tables(self, vocab=6, d_w=100, d_p=20, max_dist=60):
        rng = np.random.default_rng(0)
        word = Tensor(rand((vocab, d_w), 1))
        ph = Tensor(rand((2 * max_dist + 1, d_p), 2))
        pt = Tensor(rand((2 * max_dist + 1, d_p), 3))
        return word, ph, pt

    def test_width_arithmetic(self):
        word, ph, pt = self.tables()
        out = embed_sequence([0, 1, 2], 0, 2, word, ph, pt, 60)
        assert [t.shape for t in out] == [(3, 100), (3, 20), (3, 20)]
        assert joined(out).shape == (3, 140)

    def test_head_relative_zero_row(self):
        word, ph, pt = self.tables()
        out = embed_sequence([0, 1, 2], 1, 2, word, ph, pt, 60)
        assert np.array_equal(joined(out)[1, 100:120], ph.data[60])

    def test_distance_clipped(self):
        word, ph, pt = self.tables(vocab=700)
        ids = list(range(650))
        out = embed_sequence(ids, 0, 0, word, ph, pt, 60)
        assert np.array_equal(joined(out)[-1, 100:120], ph.data[120])

    def test_no_position_tables(self):
        word, _, _ = self.tables()
        out = embed_sequence([0, 1], 0, 1, word, None, None, 60)
        assert len(out) == 1 and out[0].shape == (2, 100)

    def test_batch_rows_match_single_sequences(self):
        word, ph, pt = self.tables()
        ids = np.array([[0, 1, 2, 3], [4, 5, 0, 0]])
        out = embed_sequence(ids, np.array([1, 0]), np.array([3, 1]),
                             word, ph, pt, 60)
        assert joined(out).shape == (2, 4, 140)
        for i, (hs, ts) in enumerate([(1, 3), (0, 1)]):
            single = embed_sequence(ids[i], hs, ts, word, ph, pt, 60)
            assert np.array_equal(joined(out)[i], joined(single))

    @pytest.mark.parametrize("position", [True, False])
    @pytest.mark.parametrize("batched", [False, True])
    def test_joined_blocks_equal_concatenated_rows_bitwise(self, position,
                                                           batched):
        word, ph, pt = self.tables(vocab=200)
        if not position:
            ph = pt = None
        if batched:
            args = (np.arange(150).reshape(2, 75) % 200, np.array([3, 70]),
                    np.array([74, 0]))
        else:
            args = (np.arange(130) % 200, 5, 120)
        got = joined(embed_sequence(*args, word, ph, pt, 60))
        expected = concatenated_rows(*args, word, ph, pt, 60).data
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_id_out_of_range(self):
        word, ph, pt = self.tables(vocab=3)
        with pytest.raises(IndexError):
            embed_sequence([0, 5], 0, 1, word, ph, pt, 60)


class TestLstm:
    def test_zero_parameters_zero_state(self):
        p = (Tensor(np.zeros((3, 16)), requires_grad=True),
             Tensor(np.zeros((4, 16)), requires_grad=True),
             Tensor(np.zeros((1, 16)), requires_grad=True))
        h, c = lstm_step(Tensor(rand((1, 3))), Tensor(np.zeros((1, 4))),
                         Tensor(np.zeros((1, 4))), p)
        assert np.allclose(h.data, 0.0) and np.allclose(c.data, 0.0)

    def test_saturated_forget_gate_accumulates(self):
        rng = np.random.default_rng(4)
        p = lstm_direction(rng, 3, 4)
        wx, _, b = p
        b.data[0, 4:8] = 25.0  # forget gate block saturated open
        c_prev = Tensor(rand((1, 4), 5, lo=1.0, hi=2.0))
        x = Tensor(rand((1, 3), 6))
        h, c = lstm_step(x, Tensor(np.zeros((1, 4))), c_prev, p)
        z = x.data @ wx.data + b.data
        i_gate = 1 / (1 + np.exp(-z[:, :4]))
        cand = np.tanh(z[:, 12:])
        assert np.allclose(c.data, c_prev.data + i_gate * cand, atol=1e-9)

    def test_three_step_chain_gradient(self):
        rng = np.random.default_rng(7)
        p = lstm_direction(rng, 4, 3)
        seq = Tensor(rand((3, 4), 8))

        def chain(_):
            h = Tensor(np.zeros((1, 3)))
            c = Tensor(np.zeros((1, 3)))
            for t in range(3):
                h, c = lstm_step(ad.take_rows(seq, np.array([t])), h, c, p)
            return h.sum()

        for param in p:
            assert grad_check(chain, param, epsilon=1e-5) <= 1e-4
        assert grad_check(lambda s: chain(None), seq, epsilon=1e-5) <= 1e-4

    def test_shape_mismatch(self):
        p = lstm_direction(np.random.default_rng(0), 4, 3)
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 3))),
                      Tensor(np.zeros((1, 3))), p)

    def test_fused_sequence_matches_stepwise(self):
        """Each half of `bilstm`'s output equals the step-by-step oracle
        over the sequence in its own direction."""
        rng = np.random.default_rng(9)
        p = lstm_direction(rng, 5, 4)
        q = lstm_direction(rng, 5, 4)
        seq = Tensor(rand((7, 5), 10))
        fused = bilstm(seq, p, q)
        h = Tensor(np.zeros((1, 4)))
        c = Tensor(np.zeros((1, 4)))
        rows = []
        for t in range(7):
            h, c = lstm_step(ad.take_rows(seq, np.array([t])), h, c, p)
            rows.append(h.data[0].copy())
        assert np.allclose(fused.data[:, :4], np.array(rows), atol=1e-12)
        assert np.allclose(fused.data[:, 4:], stepwise(seq.data, q, reverse=True),
                           atol=1e-12)

    def test_fused_sequence_gradients(self):
        rng = np.random.default_rng(11)
        p = lstm_direction(rng, 4, 3)
        q = lstm_direction(rng, 4, 3)
        seq = Tensor(rand((6, 4), 12))
        weights = Tensor(rand((6, 6), 13))

        def f(_):
            out = bilstm(seq, p, q)
            return ad.hadamard(out, weights).sum()

        for param in p + q:
            assert grad_check(f, param, epsilon=1e-5, samples=20) <= 1e-4
        assert grad_check(lambda s: f(None), seq, epsilon=1e-5, samples=20) <= 1e-4


    def test_batch_rows_match_stepwise_over_own_length(self):
        """Each row of a padded batch equals the step-by-step oracle on its
        real prefix, in both directions; padded positions output zero."""
        rng = np.random.default_rng(14)
        p = lstm_direction(rng, 5, 4)
        q = lstm_direction(rng, 5, 4)
        lengths = np.array([7, 2, 5])
        seq = rand((3, 7, 5), 15)
        out = bilstm(Tensor(seq), p, q, lengths=lengths).data
        assert out.shape == (3, 7, 8)
        for i, n in enumerate(lengths):
            for half, params, reverse in ((slice(0, 4), p, False),
                                          (slice(4, 8), q, True)):
                expected = stepwise(seq[i, :n], params, reverse=reverse)
                assert np.max(np.abs(out[i, :n, half] - expected)) < 1e-12
            assert np.array_equal(out[i, n:], np.zeros((7 - n, 8)))

    def test_batch_gradients_unequal_lengths(self):
        rng = np.random.default_rng(16)
        p = lstm_direction(rng, 4, 3)
        q = lstm_direction(rng, 4, 3)
        seq = Tensor(rand((3, 6, 4), 17))
        weights = Tensor(rand((3, 6, 6), 18))
        lengths = np.array([6, 2, 4])

        def f(_):
            out = bilstm(seq, p, q, lengths=lengths)
            return ad.hadamard(out, weights).sum()

        for param in p + q:
            assert grad_check(f, param, epsilon=1e-5, samples=20) <= 1e-4
        assert grad_check(f, seq, epsilon=1e-5, samples=30) <= 1e-4

    def test_lengths_must_fit_batch(self):
        p = lstm_direction(np.random.default_rng(0), 4, 3)
        seq = Tensor(np.zeros((2, 5, 4)))
        for bad in ([5, 6], [0, 3], [5]):
            with pytest.raises(ShapeError, match="lengths"):
                bilstm(seq, p, p, lengths=np.array(bad))

    def test_matches_one_direction_reference(self):
        """Values and every gradient equal two runs of the one-direction
        reference at uneven lengths, concatenated [forward, backward]."""
        rng = np.random.default_rng(19)
        p = lstm_direction(rng, 5, 4)
        q = lstm_direction(rng, 5, 4)
        seq = Tensor(rand((3, 6, 5), 20), requires_grad=True)
        lengths = np.array([6, 1, 4])
        weights = Tensor(rand((3, 6, 8), 21))
        tensors = (seq,) + p + q

        def grads(build):
            ad.reset_tape()
            for t in tensors:
                t.grad = None
            out = build()
            ad.backward(ad.hadamard(out, weights).sum())
            return out.data, [t.grad.copy() for t in tensors]

        fused, fused_grads = grads(lambda: bilstm(seq, p, q, lengths))
        ref, ref_grads = grads(lambda: ad.concat(
            [lstm_sequence(seq, *p, lengths=lengths),
             lstm_sequence(seq, *q, reverse=True, lengths=lengths)], axis=-1))
        assert np.max(np.abs(fused - ref)) < 1e-12
        for got, want in zip(fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) < 1e-12


class TestBilstm:
    def params(self, width=5, hidden=4, shared=False, seed=1):
        rng = np.random.default_rng(seed)
        fw = lstm_direction(rng, width, hidden)
        bw = fw if shared else lstm_direction(rng, width, hidden)
        return fw, bw

    def test_output_width(self):
        out = bilstm(Tensor(rand((6, 5))), *self.params())
        assert out.shape == (6, 8)

    def test_empty_sequence(self):
        with pytest.raises(ShapeError):
            bilstm(Tensor(np.empty((0, 5))), *self.params())

    def test_single_position_symmetric_params(self):
        out = bilstm(Tensor(rand((1, 5), 2)), *self.params(shared=True))
        assert np.allclose(out.data[:, :4], out.data[:, 4:], atol=1e-14)

    def test_batch_matches_single_sequences(self):
        fw, bw = self.params(seed=5)
        seq = rand((2, 6, 5), 6)
        lengths = np.array([3, 6])
        out = bilstm(Tensor(seq), fw, bw, lengths).data
        assert out.shape == (2, 6, 8)
        for i, n in enumerate(lengths):
            single = bilstm(Tensor(seq[i, :n]), fw, bw).data
            assert np.max(np.abs(out[i, :n] - single)) < 1e-12

    def test_reversal_symmetry_with_shared_params(self):
        fw, bw = self.params(shared=True, seed=3)
        seq = rand((7, 5), 4)
        out = bilstm(Tensor(seq), fw, bw).data
        rev = bilstm(Tensor(seq[::-1].copy()), fw, bw).data
        swapped = np.concatenate([rev[::-1, 4:], rev[::-1, :4]], axis=1)
        assert np.allclose(out, swapped, atol=1e-12)

    @pytest.mark.parametrize("lengths", [None, [4, 7, 2]])
    def test_column_blocks_equal_the_joined_input_bitwise(self, lengths,
                                                          job_mode):
        """Blocks 2, 1 and 3 columns wide, the first frozen: the output,
        the weight gradients and each trained block's gradient equal
        those of the joined input bit for bit."""
        fw, bw = self.params(width=6, seed=7)
        seq = rand((7, 6) if lengths is None else (3, 7, 6), 8)
        weights = (*fw, *bw)

        def run(inp):
            for t in weights:
                t.grad = None
            ad.reset_tape()
            out = bilstm(inp, fw, bw, lengths)
            ad.backward(ad.sum_all(ad.hadamard(out, Tensor(rand(out.shape, 9)))))
            return [out.data] + [t.grad for t in weights]

        joined = Tensor(seq, requires_grad=True)
        expected = run(joined)
        blocks = [Tensor(seq[..., :2]), Tensor(seq[..., 2:3], requires_grad=True),
                  Tensor(seq[..., 3:], requires_grad=True)]
        got = run(blocks)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        assert blocks[0].grad is None
        for block, cols in zip(blocks[1:], (slice(2, 3), slice(3, 6))):
            assert block.grad.tobytes() == joined.grad[..., cols].tobytes()

    def test_rule_keeps_and_returns_no_frozen_block(self):
        fw, bw = self.params(width=6, seed=10)
        frozen = Tensor(rand((4, 2), 11))
        trained = Tensor(rand((4, 4), 12), requires_grad=True)
        ref = weakref.ref(frozen.data)
        ad.reset_tape()
        out = bilstm([frozen, trained], fw, bw)
        del frozen
        assert ref() is None and ad.tape_size() == 1
        pairs = list(ad._STATE.tape[-1].rule(np.ones(out.shape)))
        ad.reset_tape()
        assert [p for p, _ in pairs if p not in (*fw, *bw)] == [trained]

    def test_unaligned_blocks(self):
        with pytest.raises(ShapeError, match="unaligned"):
            bilstm([Tensor(rand((4, 2))), Tensor(rand((3, 3)))], *self.params())

    def test_mask_equals_hadamard_after_it_in_one_record(self, job_mode):
        """With `mask`, the output and every gradient are bit for bit
        those of `hadamard` on the unmasked output, from one record."""
        fw, bw = self.params(width=6, seed=12)
        lengths = [4, 7, 2]
        seq = Tensor(rand((3, 7, 6), 13), requires_grad=True)
        mask = ad.dropout_mask(np.random.default_rng(14), 0.5, (3, 7, 8))
        weights = Tensor(rand((3, 7, 8), 15))
        tensors = (seq, *fw, *bw)

        def run(fused):
            for t in tensors:
                t.grad = None
            ad.reset_tape()
            out = (bilstm(seq, fw, bw, lengths, mask) if fused else
                   ad.hadamard(bilstm(seq, fw, bw, lengths), Tensor(mask)))
            records = ad.tape_size()
            ad.backward(ad.sum_all(ad.hadamard(out, weights)))
            return records, [out.data] + [t.grad for t in tensors]

        (one, got), (two, want) = run(True), run(False)
        assert (one, two) == (1, 2)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_steps_and_mask_freed_before_the_weight_jobs(self, job_mode,
                                                         monkeypatch):
        """The rule frees every step's gates, cell state and its tanh, and
        the mask, at their last reads, before it makes its weight jobs."""
        fw, bw = self.params(width=6, seed=18)
        mask = ad.dropout_mask(np.random.default_rng(19), 0.5, (2, 5, 8))
        ad.reset_tape()
        out = bilstm(Tensor(rand((2, 5, 6), 20), requires_grad=True), fw, bw,
                     [5, 3], mask)
        saved = closure(last_rule())
        refs = [weakref.ref(owner(saved[name]))
                for name in ("acts", "cell", "tc", "mask")]
        del saved, mask
        seen = dead_at_each_job(monkeypatch, refs)
        ad.backward(ad.sum_all(out))
        assert seen == [[True] * len(refs)] * 3

    def test_record_keeps_no_stacked_weights(self):
        fw, bw = self.params(width=6, seed=16)
        ad.reset_tape()
        bilstm(Tensor(rand((2, 5, 6), 17), requires_grad=True), fw, bw)
        held = held_arrays(last_rule())
        ad.reset_tape()
        for k in range(3):
            copy = np.stack([fw[k].data, bw[k].data])
            assert not any(a.shape == copy.shape and np.array_equal(a, copy)
                           for a in held), k


class TestAttention:
    def test_single_key_value_row(self):
        q = Tensor(rand((3, 4), 1))
        k = Tensor(rand((1, 4), 2))
        v = Tensor(rand((1, 4), 3))
        out = scaled_dot_attention(q, k, v)
        assert np.allclose(out.data, np.tile(v.data, (3, 1)), atol=1e-14)

    def test_zero_query_uniform_weights(self):
        q = Tensor(np.zeros((2, 4)))
        k = Tensor(rand((5, 4), 4))
        v = Tensor(rand((5, 4), 5))
        out = scaled_dot_attention(q, k, v)
        assert np.allclose(out.data, np.tile(v.data.mean(0), (2, 1)), atol=1e-12)

    def test_scale_arithmetic(self):
        # raw score 2.0 at width 4 scales to 1.0 before the softmax
        q = Tensor([[2.0, 0.0, 0.0, 0.0]])
        k = Tensor([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        v = Tensor(np.eye(2, 4))
        scores = (q.data @ k.data.T) / np.sqrt(4)
        assert scores[0, 0] == 1.0
        expected = np.exp(scores) / np.exp(scores).sum()
        assert np.allclose(scaled_dot_attention(q, k, v).data,
                           expected @ v.data, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                                 Tensor(np.ones((2, 4))))

    def mha_params(self, d_model, heads, head_dim, seed=0):
        """(heads, wo): one (wq, wk, wv) triple per head, then wo."""
        rng = np.random.default_rng(seed)
        hp = [tuple(Tensor(glorot(rng, d_model, head_dim)) for _ in range(3))
              for _ in range(heads)]
        wo = Tensor(glorot(rng, heads * head_dim, d_model))
        return hp, wo

    def test_dimension_arithmetic(self):
        heads, wo = self.mha_params(256, 8, 32)
        out = multi_head_attention(Tensor(rand((5, 256), 6)), heads, wo)
        assert out.shape == (5, 256)

    def test_single_head_equals_degenerate_multi_head(self):
        heads, wo = self.mha_params(16, 1, 16, seed=7)
        x = Tensor(rand((4, 16), 8))
        multi = multi_head_attention(x, heads, wo)
        wq, wk, wv = heads[0]
        q = ad.matmul(x, wq)
        k = ad.matmul(x, wk)
        v = ad.matmul(x, wv)
        single = ad.matmul(scaled_dot_attention(q, k, v), wo)
        assert np.array_equal(multi.data, single.data)

    def test_permuting_keys_fixes_query_row_output(self):
        rng = np.random.default_rng(9)
        q = Tensor(rand((1, 8), 10))
        kv = rand((6, 8), 11)
        base = scaled_dot_attention(q, Tensor(kv), Tensor(kv)).data
        for trial in range(20):
            perm = rng.permutation(6)
            shuffled = kv[perm]
            out = scaled_dot_attention(q, Tensor(shuffled), Tensor(shuffled)).data
            assert np.max(np.abs(out - base)) < 1e-12

    def test_mask_silences_padded_keys(self):
        q = Tensor(rand((2, 4), 12))
        kv = rand((3, 4), 13)
        mask = Tensor(np.array([[0.0, 0.0, -1e30]] * 2))
        masked = scaled_dot_attention(q, Tensor(kv), Tensor(kv), mask).data
        trimmed = scaled_dot_attention(q, Tensor(kv[:2]), Tensor(kv[:2])).data
        assert np.allclose(masked, trimmed, atol=1e-12)


class TestBatchedAttention:
    """(B, n, d) attention with padded keys masked by a large negative
    bias: real query rows equal the unpadded per-sequence result."""

    def setup_batch(self):
        lengths = np.array([5, 3])
        x = rand((2, 5, 8), 30)
        bias = np.where(np.arange(5)[None, :] < lengths[:, None], 0.0, -1e30)
        mask = Tensor(np.broadcast_to(bias[:, None, :], (2, 5, 5)))
        rng = np.random.default_rng(31)
        heads = [tuple(Tensor(glorot(rng, 8, 4), requires_grad=True)
                       for _ in range(3)) for _ in range(2)]
        wo = Tensor(glorot(rng, 8, 8), requires_grad=True)
        return lengths, x, mask, heads, wo

    def test_record_keeps_qkv_alone_and_rule_overwrites_it(
            self, job_mode, monkeypatch):
        """The record keeps the Q/K/V projection `qkv` and no attention
        weights or context: every array it holds is `qkv`, the input or
        the mask. Its rule rebuilds them, writes dq, dk and dv over
        `qkv`, and then makes the `wo` job while `g` is alive. `qkv` is
        the Q/K/V weight job's operand, and is freed once that job has
        run, while the job's `Deferred` is still held."""
        _, x, mask, heads, wo = self.setup_batch()
        ad.reset_tape()
        out = multi_head_attention(Tensor(x, requires_grad=True), heads, wo, mask)
        rule = last_rule()
        kept = {id(owner(a)) for a in held_arrays(rule)}
        assert closure(rule)["qkv"].shape == (2, 5, 3, len(heads), 4)
        qkv = owner(closure(rule)["qkv"])
        assert kept == {id(qkv), id(owner(x)), id(owner(mask.data))}
        forward_qkv, g = qkv.copy(), rand(out.shape, 34)
        refs = [weakref.ref(qkv), weakref.ref(owner(g))]
        box, seen, operands, made = [g], [], [], []
        del rule, qkv, g
        loss = make_op(np.zeros(()), (out,), lambda _: [(out, box.pop())])
        make = layer_module.Deferred

        def spy(fn, operand):
            qkv = refs[0]()
            seen.append((qkv is None, refs[1]() is None,
                         qkv is not None and np.array_equal(qkv, forward_qkv)))
            operands.append(operand)
            made.append(make(fn, operand))
            return made[-1]

        monkeypatch.setattr(layer_module, "Deferred", spy)
        ad.backward(loss)
        wo_job, qkv_job = operands
        assert wo_job.shape == (2 * 5, 8) and seen[0] == (False, False, False)
        assert owner(qkv_job) is refs[0]()
        del operands, wo_job, qkv_job
        assert refs[0]() is None and len(made) == 2

    def test_record_keeps_no_concatenated_weights(self):
        _, x, mask, heads, wo = self.setup_batch()
        ad.reset_tape()
        multi_head_attention(Tensor(x, requires_grad=True), heads, wo, mask)
        held = held_arrays(last_rule())
        ad.reset_tape()
        copy = np.concatenate([p[j].data for j in range(3) for p in heads], axis=1)
        assert not any(a.shape == copy.shape and np.array_equal(a, copy)
                       for a in held)

    def test_rows_match_unpadded(self):
        lengths, x, mask, heads, wo = self.setup_batch()
        out = multi_head_attention(Tensor(x), heads, wo, mask).data
        for i, n in enumerate(lengths):
            single = multi_head_attention(Tensor(x[i, :n]), heads, wo).data
            assert np.max(np.abs(out[i, :n] - single)) < 1e-12

    def test_masked_gradients(self):
        lengths, x, mask, heads, wo = self.setup_batch()
        xt = Tensor(x)
        weights = Tensor(rand((2, 5, 8), 32))

        def f(_):
            return ad.hadamard(multi_head_attention(xt, heads, wo, mask),
                               weights).sum()

        for param in (heads[0][0], heads[1][1], heads[1][2], wo):
            assert grad_check(f, param, epsilon=1e-5, samples=12) <= 1e-4
        assert grad_check(f, xt, epsilon=1e-5, samples=20) <= 1e-4

    def test_matches_per_head_composition(self):
        """Values and every gradient equal the per-head composition of
        primitive ops through `scaled_dot_attention`, with masked keys."""
        _, x, mask, heads, wo = self.setup_batch()
        xt = Tensor(x, requires_grad=True)
        weights = Tensor(rand((2, 5, 8), 33))
        tensors = [xt, wo] + [t for triple in heads for t in triple]

        def reference():
            outs = [scaled_dot_attention(ad.matmul(xt, wq), ad.matmul(xt, wk),
                                         ad.matmul(xt, wv), mask)
                    for wq, wk, wv in heads]
            return ad.matmul(ad.concat(outs, axis=-1), wo)

        results = []
        for build in (lambda: multi_head_attention(xt, heads, wo, mask), reference):
            ad.reset_tape()
            for t in tensors:
                t.grad = None
            out = build()
            ad.backward(ad.hadamard(out, weights).sum())
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) < 1e-12


def adjacency(matrix):
    m = np.asarray(matrix, dtype=float)
    return DocumentAdjacency(m, m.sum(axis=1))


class TestGcn:
    def test_hand_worked_two_node_example(self):
        out = gcn_propagate(Tensor([[2.0], [0.0]]), adjacency([[1, 1], [1, 1]]),
                            Tensor([[1.0]]), Tensor([[0.0]]),
                            activation=ad.identity)
        assert np.array_equal(out.data, [[1.0], [1.0]])

    def test_isolated_self_loops_identity(self):
        h = Tensor(rand((4, 3), 1))
        out = gcn_propagate(h, adjacency(np.eye(4)), Tensor(np.eye(3)),
                            Tensor(np.zeros((1, 3))), activation=ad.identity)
        assert np.allclose(out.data, h.data, atol=1e-14)

    def test_regular_graph_uniform_features_stay_uniform(self):
        a = np.ones((5, 5))
        h = Tensor(np.tile(rand((1, 3), 2), (5, 1)))
        w = Tensor(rand((3, 3), 3))
        out = gcn_propagate(h, adjacency(a), w, Tensor(rand((1, 3), 4)))
        spread = out.data.max(axis=0) - out.data.min(axis=0)
        assert np.max(spread) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (6, 6))
        a = (a + a.T) / 2 + np.eye(6)
        h = rand((6, 4), 6)
        w = Tensor(rand((4, 4), 7))
        b = Tensor(rand((1, 4), 8))
        base = gcn_propagate(Tensor(h), adjacency(a), w, b).data
        perm = rng.permutation(6)
        permuted = gcn_propagate(Tensor(h[perm]), adjacency(a[np.ix_(perm, perm)]),
                                 w, b).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-12

    def test_batched_graphs_match_single(self):
        """A (B, n, n) batch whose padded nodes keep only a self-loop gives
        each real node its single-graph value; gradients pass."""
        rng = np.random.default_rng(12)
        sizes, steps = (4, 2), 4
        mats = []
        for n in sizes:
            a = rng.uniform(0, 1, (n, n))
            mats.append((a + a.T) / 2 + np.eye(n))
        matrix = np.tile(np.eye(steps), (2, 1, 1))
        for i, (n, a) in enumerate(zip(sizes, mats)):
            matrix[i, :n, :n] = a
        batch_adj = adjacency(matrix)
        h = Tensor(rand((2, steps, 3), 13))
        w, b = Tensor(rand((3, 3), 14)), Tensor(rand((1, 3), 15))
        out = gcn_propagate(h, batch_adj, w, b).data
        for i, (n, a) in enumerate(zip(sizes, mats)):
            single = gcn_propagate(Tensor(h.data[i, :n]), adjacency(a), w, b).data
            assert np.max(np.abs(out[i, :n] - single)) < 1e-12

        def f(_):
            return gcn_propagate(h, batch_adj, w, b).sum()

        for param in (h, w, b):
            assert grad_check(f, param, epsilon=1e-5) <= 1e-4

    def test_matches_primitive_composition(self):
        """On a padded batch, values and every gradient equal
        tanh((A/d) h W + b) built from primitive ops."""
        rng = np.random.default_rng(22)
        matrix = np.tile(np.eye(5), (2, 1, 1))
        for i, n in enumerate((5, 3)):
            a = rng.uniform(0, 1, (n, n))
            matrix[i, :n, :n] = (a + a.T) / 2 + np.eye(n)
        adj = adjacency(matrix)
        h = Tensor(rand((2, 5, 4), 23), requires_grad=True)
        w = Tensor(rand((4, 3), 24), requires_grad=True)
        b = Tensor(rand((1, 3), 25), requires_grad=True)
        weights = Tensor(rand((2, 5, 3), 26))

        def reference():
            a_norm = Tensor(adj.normalized)
            return ad.tanh(ad.add_rowvec(ad.matmul(ad.matmul(a_norm, h), w), b))

        results = []
        for build in (lambda: gcn_propagate(h, adj, w, b), reference):
            ad.reset_tape()
            for t in (h, w, b):
                t.grad = None
            out = build()
            ad.backward(ad.hadamard(out, weights).sum())
            results.append([out.data, h.grad.copy(), w.grad.copy(), b.grad.copy()])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_weight_shape_mismatch(self):
        with pytest.raises(ShapeError, match="weight"):
            gcn_propagate(Tensor(np.ones((3, 2))), adjacency(np.eye(3)),
                          Tensor(np.ones((3, 2))), Tensor(np.zeros((1, 2))))

    def test_batch_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gcn_propagate(Tensor(np.ones((2, 3, 2))), adjacency(np.ones((3, 3))),
                          Tensor(np.eye(2)), Tensor(np.zeros((1, 2))))

    def test_zero_degree_rejected(self):
        """A degree that is zero, or NaN, is refused."""
        for degree in (0.0, np.nan):
            bad = DocumentAdjacency(np.eye(2), np.array([1.0, degree]))
            with pytest.raises(ValueError, match="zero-degree"):
                gcn_propagate(Tensor(np.ones((2, 2))), bad, Tensor(np.eye(2)),
                              Tensor(np.zeros((1, 2))))

    def test_gradients(self):
        adj = adjacency([[1, 0.5, 0], [0.5, 1, 0.2], [0, 0.2, 1]])
        h = Tensor(rand((3, 4), 9))
        w = Tensor(rand((4, 4), 10))
        b = Tensor(rand((1, 4), 11))

        def f(_):
            return gcn_propagate(h, adj, w, b).sum()

        for param in (h, w, b):
            assert grad_check(f, param, epsilon=1e-5) <= 1e-4


class TestInterGraphMix:
    def test_identical_states_unchanged(self):
        s = rand((3, 2), 1)
        out = inter_graph_mix([Tensor(s.copy()) for _ in range(3)])
        assert np.allclose(out.data, s, atol=1e-14)

    def test_mean_definition(self):
        a, b, c = (Tensor(rand((2, 2), s)) for s in (1, 2, 3))
        out = inter_graph_mix([a, b, c])
        expected = (a.data + b.data + c.data) / 3
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_single_graph_identity(self):
        s = Tensor(rand((2, 2)))
        assert inter_graph_mix([s]) is s

    def test_shape_disagreement(self):
        with pytest.raises(ShapeError):
            inter_graph_mix([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))),
                             Tensor(np.ones((2, 2)))])


def uneven_graphs(seed, lengths, steps):
    """Three kinds' (B, steps, steps) adjacency matrices for rows of the
    given real lengths; padded nodes keep only a unit self-loop."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        matrix = np.tile(np.eye(steps), (len(lengths), 1, 1))
        for i, n in enumerate(lengths):
            a = rng.uniform(0, 1, (n, n))
            matrix[i, :n, :n] = (a + a.T) / 2 + np.eye(n)
        mats.append(matrix)
    return mats


class TestGcnLayer:
    """`gcn_layer` against `inter_graph_mix` over `gcn_propagate` per kind,
    on a padded batch of uneven lengths, with every job on the worker
    thread or inline."""

    def layer_inputs(self, width=4, steps=5, lengths=(5, 3), seed=60):
        m = Tensor(rand((len(lengths), steps, width), seed), requires_grad=True)
        ws = [Tensor(glorot(np.random.default_rng(seed + k), width, width),
                     requires_grad=True) for k in range(3)]
        bs = [Tensor(rand((1, width), seed + 3 + k), requires_grad=True)
              for k in range(3)]
        return m, uneven_graphs(seed + 6, lengths, steps), ws, bs

    @staticmethod
    def reference(m, mats, ws, bs):
        return inter_graph_mix([gcn_propagate(m, adjacency(a), w, b)
                                for a, w, b in zip(mats, ws, bs)])

    @staticmethod
    def fused(m, mats, ws, bs):
        return gcn_layer(m, [adjacency(a).normalized for a in mats], ws, bs)

    def test_matches_primitive_reference(self, job_mode):
        m, mats, ws, bs = self.layer_inputs()
        weights = Tensor(rand(m.shape, 70))
        results = []
        for build in (self.fused, self.reference):
            ad.reset_tape()
            for t in (m, *ws, *bs):
                t.grad = None
            out = build(m, mats, ws, bs)
            ad.backward(ad.hadamard(out, weights).sum())
            results.append([out.data] + [t.grad.copy() for t in (m, *ws, *bs)])
        ad.reset_tape()
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_gradients(self, job_mode):
        m, mats, ws, bs = self.layer_inputs(seed=61)
        weights = Tensor(rand(m.shape, 71))

        def f(_):
            return ad.hadamard(self.fused(m, mats, ws, bs), weights).sum()

        for param in (m, *ws, *bs):
            assert grad_check(f, param, epsilon=1e-5) <= 1e-4

    def test_no_grad_records_nothing(self, job_mode):
        m, mats, ws, bs = self.layer_inputs(seed=62)
        ad.reset_tape()
        recorded = self.fused(m, mats, ws, bs).data
        assert ad.tape_size() == 1
        ad.reset_tape()
        with ad.no_grad():
            plain = self.fused(m, mats, ws, bs).data
        assert ad.tape_size() == 0
        assert plain.tobytes() == recorded.tobytes()

    def test_keeps_fewer_arrays_than_the_reference(self, job_mode):
        """After a recorded two-layer stack, at least layers x kinds fewer
        state-sized arrays are live than after the reference composition,
        which keeps every kind's pre-activation."""
        m, mats, ws, bs = self.layer_inputs(width=32, steps=40, lengths=(40, 25))
        layers, state = 2, m.data.nbytes
        live = []
        for build in (self.fused, self.reference):
            ad.reset_tape()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                h = m
                for _ in range(layers):
                    h = build(h, mats, ws, bs)
                live.append(tracemalloc.get_traced_memory()[0] - base)
            finally:
                tracemalloc.stop()
            del h
            ad.reset_tape()
        assert live[1] - live[0] >= layers * len(mats) * state, live

    def test_each_kind_freed_before_the_next_kind_job(self, job_mode,
                                                      monkeypatch):
        """The rule takes kinds 2, 1, 0 off its record in turn: when it
        makes a kind's weight job, that kind's and every later kind's
        output and A/d are dead, and every earlier kind's are alive."""
        m, mats, ws, bs = self.layer_inputs(seed=64)
        ad.reset_tape()
        out = self.fused(m, mats, ws, bs)
        kept = closure(last_rule())["kept"]
        refs = [weakref.ref(owner(a)) for y, a_norm, *_ in kept for a in (y, a_norm)]
        del kept
        seen = dead_at_each_job(monkeypatch, refs)
        ad.backward(ad.sum_all(out))
        assert seen == [[k >= kind for k in range(3) for _ in range(2)]
                        for kind in (2, 1, 0)]

    def test_shape_errors(self):
        m, mats, ws, bs = self.layer_inputs()
        normalized = [adjacency(a).normalized for a in mats]
        with pytest.raises(ShapeError, match="weight"):
            gcn_layer(m, normalized, [Tensor(np.ones((3, 4)))] * 3, bs)
        with pytest.raises(ShapeError, match="adjacency"):
            gcn_layer(m, [np.eye(5)] * 3, ws, bs)
        with pytest.raises(ValueError, match="zip"):
            gcn_layer(m, normalized[:2], ws, bs)
        with pytest.raises(ValueError, match="zip"):
            gcn_layer(m, normalized, ws, bs[:2])


class TestTapeRecords:
    """Each fused layer is one tape record, and none is recorded with
    gradients disabled, where the outputs match the recorded run."""

    def layer_calls(self):
        rng = np.random.default_rng(40)
        lengths = np.array([6, 3])
        seq = Tensor(rand((2, 6, 8), 41), requires_grad=True)
        fw, bw = lstm_direction(rng, 8, 4), lstm_direction(rng, 8, 4)
        heads = [tuple(Tensor(glorot(rng, 8, 4), requires_grad=True)
                       for _ in range(3)) for _ in range(2)]
        wo = Tensor(glorot(rng, 8, 8), requires_grad=True)
        bias = np.where(np.arange(6)[None, :] < lengths[:, None], 0.0, -1e30)
        mask = Tensor(np.broadcast_to(bias[:, None, :], (2, 6, 6)))
        adj = adjacency(np.tile(np.eye(6) + 0.5, (2, 1, 1)))
        ws = [Tensor(glorot(rng, 8, 8), requires_grad=True) for _ in range(3)]
        bs = [Tensor(np.zeros((1, 8)), requires_grad=True) for _ in range(3)]
        return {
            "bilstm": (1, lambda: bilstm(seq, fw, bw, lengths)),
            "attention": (1, lambda: multi_head_attention(seq, heads, wo, mask)),
            "gcn": (1, lambda: gcn_layer(seq, [adj.normalized] * 3, ws, bs)),
        }

    @pytest.mark.parametrize("layer", ["bilstm", "attention", "gcn"])
    def test_records(self, layer):
        records, call = self.layer_calls()[layer]
        ad.reset_tape()
        recorded = call().data
        assert ad.tape_size() == records
        ad.reset_tape()
        with ad.no_grad():
            plain = call().data
        assert ad.tape_size() == 0
        assert np.max(np.abs(plain - recorded)) < 1e-12


def test_all_layers_finite_and_differentiable():
    """Random inputs in [-1, 1]: outputs finite, gradients within 1e-4."""
    rng = np.random.default_rng(20)
    seq = Tensor(rand((5, 6), 21))
    lstm = lstm_direction(rng, 6, 4)
    out = bilstm(seq, lstm, lstm)
    assert np.all(np.isfinite(out.data))
    assert grad_check(lambda p: bilstm(seq, lstm, lstm).sum(), lstm[0],
                      samples=16) <= 1e-4

    x = Tensor(rand((4, 8), 22))
    hp = (Tensor(glorot(rng, 8, 4)), Tensor(glorot(rng, 8, 4)),
          Tensor(glorot(rng, 8, 4)))
    wo = Tensor(glorot(rng, 4, 8))
    att = multi_head_attention(x, [hp], wo)
    assert np.all(np.isfinite(att.data))
    assert grad_check(lambda p: multi_head_attention(x, [hp], wo).sum(),
                      hp[0], samples=16) <= 1e-4


# ---------------------------------------------------------------------------
# Shape-generated equivalence of the fused ops with their references

def fused_and_reference(build, reference, leaves, weights):
    """Output and every leaf gradient of a weighted sum of `build()`, run
    with every job inline and with every job on the worker, and of
    `reference()`: asserts that the two job modes agree bit for bit and
    that the reference is within 1e-12 of them."""
    def run(make):
        ad.reset_tape()
        for t in leaves:
            t.grad = None
        out = make()
        ad.backward(ad.hadamard(out, Tensor(weights)).sum())
        return [out.data] + [np.zeros(t.shape) if t.grad is None else t.grad
                             for t in leaves]

    modes = []
    for on_worker in (False, True):
        with mock.patch.object(ad, "_offload", lambda floats: on_worker):
            modes.append(run(build))
    for inline, threaded in zip(*modes):
        assert inline.shape == threaded.shape
        assert inline.tobytes() == threaded.tobytes()
    for got, want in zip(modes[0], run(reference)):
        assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-12


def padded_lengths(draw, bsz, steps):
    return np.array(draw(st.lists(st.integers(1, steps), min_size=bsz,
                                  max_size=bsz)))


@st.composite
def lstm_shapes(draw):
    bsz, steps = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return (bsz, steps, draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            padded_lengths(draw, bsz, steps), draw(st.integers(0, 2 ** 31 - 1)))


@st.composite
def attention_shapes(draw):
    bsz, steps = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return (bsz, steps, draw(st.integers(1, 5)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), padded_lengths(draw, bsz, steps),
            draw(st.integers(0, 2 ** 31 - 1)))


@st.composite
def gcn_shapes(draw):
    return (draw(st.integers(1, 3)), draw(st.integers(1, 5)),
            draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 31 - 1)))


class TestFusedOpProperties:
    """Each fused op against its primitive-op reference over generated
    batch sizes, lengths, widths and head counts, 1 included, with every
    job inline and on the worker thread."""

    @given(lstm_shapes())
    @settings(max_examples=60, deadline=None)
    def test_bilstm_equals_a_chain_of_lstm_cells(self, shape):
        bsz, steps, width, hidden, lengths, seed = shape
        rng = np.random.default_rng(seed)
        seq = Tensor(rng.uniform(-1, 1, (bsz, steps, width)), requires_grad=True)
        fw, bw = lstm_direction(rng, width, hidden), lstm_direction(rng, width, hidden)
        weights = rng.uniform(-1, 1, (bsz, steps, 2 * hidden))

        def chain():
            """Each row's real prefix through `lstm_step`, both ways; the
            padded steps output zero."""
            rows = ad.reshape(seq, (bsz * steps, width))
            zero = Tensor(np.zeros((1, hidden)))
            outs = []
            for b, n in enumerate(lengths.tolist()):
                halves = []
                for p, order in ((fw, range(n)), (bw, range(n - 1, -1, -1))):
                    h, c, by_step = zero, zero, {}
                    for t in order:
                        h, c = lstm_step(ad.take_rows(rows, [b * steps + t]), h, c, p)
                        by_step[t] = h
                    halves.append([by_step[t] for t in range(n)]
                                  + [zero] * (steps - n))
                outs.append(ad.concat([ad.concat(pair, axis=-1)
                                       for pair in zip(*halves)], axis=0))
            return ad.reshape(ad.concat(outs, axis=0), (bsz, steps, 2 * hidden))

        fused_and_reference(lambda: bilstm(seq, fw, bw, lengths), chain,
                            [seq, *fw, *bw], weights)

    @given(attention_shapes())
    @settings(max_examples=60, deadline=None)
    def test_multi_head_attention_equals_per_head_attention(self, shape):
        bsz, steps, d_model, heads, head_dim, lengths, seed = shape
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, (bsz, steps, d_model)), requires_grad=True)
        triples = [tuple(Tensor(glorot(rng, d_model, head_dim), requires_grad=True)
                         for _ in range(3)) for _ in range(heads)]
        wo = Tensor(glorot(rng, heads * head_dim, d_model), requires_grad=True)
        bias = np.where(np.arange(steps)[None, :] < lengths[:, None], 0.0, -1e30)
        mask = Tensor(np.broadcast_to(bias[:, None, :], (bsz, steps, steps)))

        def per_head():
            outs = [scaled_dot_attention(ad.matmul(x, wq), ad.matmul(x, wk),
                                         ad.matmul(x, wv), mask)
                    for wq, wk, wv in triples]
            return ad.matmul(ad.concat(outs, axis=-1), wo)

        fused_and_reference(lambda: multi_head_attention(x, triples, wo, mask),
                            per_head, [x, wo, *(t for p in triples for t in p)],
                            rng.uniform(-1, 1, (bsz, steps, d_model)))

    @given(gcn_shapes())
    @settings(max_examples=60, deadline=None)
    def test_gcn_layer_equals_propagate_and_mix(self, shape):
        bsz, steps, width, out_width, kinds, seed = shape
        rng = np.random.default_rng(seed)
        m = Tensor(rng.uniform(-1, 1, (bsz, steps, width)), requires_grad=True)
        adjs = [adjacency(rng.uniform(0, 1, (bsz, steps, steps)) + np.eye(steps))
                for _ in range(kinds)]
        ws = [Tensor(rng.uniform(-1, 1, (width, out_width)), requires_grad=True)
              for _ in range(kinds)]
        bs = [Tensor(rng.uniform(-1, 1, (1, out_width)), requires_grad=True)
              for _ in range(kinds)]

        def composed():
            return inter_graph_mix([gcn_propagate(m, a, w, b)
                                    for a, w, b in zip(adjs, ws, bs)])

        fused_and_reference(lambda: gcn_layer(m, [a.normalized for a in adjs],
                                              ws, bs), composed,
                            [m, *ws, *bs],
                            rng.uniform(-1, 1, (bsz, steps, out_width)))
