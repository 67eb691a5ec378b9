"""Model layers: embedding assembly, the bidirectional LSTM encoder,
scaled dot-product (multi-head) self-attention, and degree-normalized
graph convolution with inter-graph state mixing. One graph-convolution
layer over graph kinds k is m <- mean_k tanh(A_k m W_k + b_k):
`gcn_propagate` per kind, then `inter_graph_mix` for the mean.

Layers hold no state: each takes its weight tensors as arguments (an
LSTM direction as a (wx, wh, b) triple, an attention head as a
(wq, wk, wv) triple), and the model's named registry supplies them.
Every layer takes one (n, .) sequence or a padded (B, n, .) batch. An
LSTM direction and the inter-graph mean are fused tape operations with
hand-derived backward rules (validated by finite differences);
everything else composes the primitive autodiff ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    add_rowvec,
    concat,
    hadamard,
    make_op,
    matmul,
    recording,
    sigmoid_values,
    softmax,
    take_rows,
    tanh,
    transpose,
)
from .textgraph import DocumentAdjacency

ATTENTION_MODES = ("none", "multi")


@dataclass
class ModelConfig:
    """Architecture hyperparameters plus ablation switches."""

    d_w: int = 100          # word-vector width
    d_p: int = 20           # position-vector width
    max_dist: int = 60      # relative-position clip radius
    hidden: int = 128       # LSTM units per direction
    heads: int = 8
    gcn_layers: int = 2
    label_count: int = 2
    attention: str = "multi"
    use_pretrained: bool = True
    use_position: bool = True
    use_gcn: bool = True
    dropout: float = 0.5
    head_dim: int | None = None  # per-head width; defaults to d_model // heads

    def __post_init__(self):
        for name in ("d_w", "d_p", "max_dist", "hidden", "heads", "label_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.gcn_layers < 1:
            raise ValueError("gcn_layers must be >= 1")
        if self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}; "
                             f"one head is heads=1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.head_dim is None and self.d_model % self.heads != 0:
            raise ValueError(
                f"2*hidden ({self.d_model}) must be divisible by heads ({self.heads})")

    @property
    def d_model(self) -> int:
        return 2 * self.hidden

    @property
    def token_width(self) -> int:
        return self.d_w + (2 * self.d_p if self.use_position else 0)

    @property
    def effective_head_dim(self) -> int:
        return self.head_dim if self.head_dim is not None else self.d_model // self.heads

    @property
    def classifier_width(self) -> int:
        return self.d_model * (2 if self.use_gcn else 1)


# ---------------------------------------------------------------------------
# Parameter initialization

def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def embedding_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.uniform(-0.25, 0.25, size=(rows, cols))


# ---------------------------------------------------------------------------
# Embedding assembly

def embed_sequence(token_ids, head_start, tail_start,
                   word: Tensor, pos_head: Tensor | None,
                   pos_tail: Tensor | None, max_dist: int) -> Tensor:
    """Per-token feature rows: word vector, then (optionally) clipped
    relative-distance vectors to the head and tail mention starts.

    `token_ids` is one (n,) sequence with scalar mention starts, giving
    (n, width), or a (B, n) batch with (B,) starts, giving (B, n, width).
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    parts = [take_rows(word, ids)]
    if pos_head is not None:
        rel = np.arange(ids.shape[-1])
        h_rel = rel - np.expand_dims(head_start, -1)
        t_rel = rel - np.expand_dims(tail_start, -1)
        h_idx = np.clip(h_rel, -max_dist, max_dist) + max_dist
        t_idx = np.clip(t_rel, -max_dist, max_dist) + max_dist
        parts.append(take_rows(pos_head, h_idx))
        parts.append(take_rows(pos_tail, t_idx))
    return concat(parts, axis=-1) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# LSTM

def lstm_sequence(seq: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
                  reverse: bool = False, lengths=None) -> Tensor:
    """Run one LSTM direction over an (n, input) sequence or a padded
    (B, n, input) batch as a single fused tape record.

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
    Value- and gradient-equivalent to chaining single LSTM cell updates
    over each row's real prefix (checked in tests).
    """
    x = seq.data if seq.data.ndim == 3 else seq.data[None]
    bsz, n, width = x.shape
    hid = wh.shape[0]
    if width != wx.shape[0]:
        raise ShapeError(
            f"lstm_sequence: input width {width} != {wx.shape[0]}")
    lengths = np.full(bsz, n) if lengths is None else np.asarray(lengths)
    if lengths.shape != (bsz,) or lengths.min() < 1 or lengths.max() > n:
        raise ShapeError(
            f"lstm_sequence: lengths {lengths.tolist()} do not fit a "
            f"{bsz}-row batch of {n} steps")
    order = range(n - 1, -1, -1) if reverse else range(n)
    # keep[t] zeroes the rows whose sequence has ended by step t; steps
    # before the shortest length need no mask.
    keep = (np.arange(n)[:, None] < lengths[None, :])[:, :, None].astype(np.float64)
    full = int(lengths.min())

    # Time-major working arrays: row t holds every sequence's step t.
    # Without a tape record the backward rule never runs, so one row of
    # each intermediate is reused instead of keeping all n.
    kept = n if recording(seq, wx, wh, b) else 1
    x_t = np.ascontiguousarray(x.transpose(1, 0, 2))
    acts = np.empty((kept, bsz, 4 * hid))   # i, f, o gates and candidate g
    tc_s = np.empty((kept, bsz, hid))       # tanh of the unmasked cell
    c_prev_s = np.empty((kept, bsz, hid))
    out = np.empty((n, bsz, hid))
    h = np.zeros((bsz, hid))
    c = np.zeros((bsz, hid))
    for t in order:
        s = t if kept == n else 0
        c_prev_s[s] = c
        z = x_t[t] @ wx.data + b.data + h @ wh.data
        a = acts[s]
        a[:, :3 * hid] = sigmoid_values(z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=a[:, 3 * hid:])
        c = a[:, hid:2 * hid] * c + a[:, :hid] * a[:, 3 * hid:]
        np.tanh(c, out=tc_s[s])
        h = a[:, 2 * hid:3 * hid] * tc_s[s]
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


def bilstm(seq: Tensor, fw, bw, lengths=None) -> Tensor:
    """Forward and backward passes with independent (wx, wh, b) triples
    `fw` and `bw`; the per-position outputs are concatenated to width
    2*hidden. `seq` is (n, input) or a padded (B, n, input) batch with
    per-row `lengths`."""
    if seq.shape[-2] < 1:
        raise ShapeError("bilstm: empty sequence")
    forward_block = lstm_sequence(seq, *fw, reverse=False, lengths=lengths)
    backward_block = lstm_sequence(seq, *bw, reverse=True, lengths=lengths)
    return concat([forward_block, backward_block], axis=-1)


# ---------------------------------------------------------------------------
# Attention

def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask_bias: Tensor | None = None) -> Tensor:
    """softmax(q kT / sqrt(width)) v, with an optional additive mask on
    the raw scores (large negative entries silence padded keys). Inputs
    are (n, width) matrices or (B, n, width) batches of them."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(
            f"attention: query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: {k.shape[-2]} keys but {v.shape[-2]} values")
    # Scaling the (n, width) queries rather than the (n, n) scores keeps
    # one fewer score-sized array on the tape.
    scores = matmul(hadamard(q, 1.0 / math.sqrt(q.shape[-1])), transpose(k))
    if mask_bias is not None:
        scores = add(scores, mask_bias)
    return matmul(softmax(scores, axis=-1), v)


def multi_head_attention(x: Tensor, heads, wo: Tensor,
                         mask_bias: Tensor | None = None) -> Tensor:
    """Per-head projected self-attention, head concatenation, then the
    output projection `wo`, on an (n, d_model) sequence or a
    (B, n, d_model) batch. `heads` lists one (wq, wk, wv) triple of
    (d_model, head_dim) projections per head. Heads run one at a time,
    so no array holds more than one head's (B, n, n) scores."""
    if heads and x.shape[-1] != heads[0][0].shape[0]:
        raise ShapeError(
            f"attention: input width {x.shape[-1]} != projection rows "
            f"{heads[0][0].shape[0]}")
    head_outs = [
        scaled_dot_attention(matmul(x, wq), matmul(x, wk), matmul(x, wv),
                             mask_bias)
        for wq, wk, wv in heads
    ]
    stacked = concat(head_outs, axis=-1) if len(head_outs) > 1 else head_outs[0]
    return matmul(stacked, wo)


# ---------------------------------------------------------------------------
# Graph convolution

def gcn_propagate(h: Tensor, adj: DocumentAdjacency, w: Tensor, b: Tensor,
                  activation=tanh) -> Tensor:
    """Degree-normalized neighbor aggregation: f((A/d) h W + b), on one
    (n, n) graph with (n, d) features or a (B, n, n) batch of graphs with
    (B, n, d) features."""
    if adj.matrix.shape[:-1] != h.shape[:-1]:
        raise ShapeError(
            f"gcn: adjacency {adj.matrix.shape} does not match "
            f"features {h.shape}")
    if np.any(adj.degree <= 0.0):
        raise ValueError("gcn: zero-degree node (self-loops missing)")
    a_norm = Tensor(adj.normalized)
    return activation(add_rowvec(matmul(matmul(a_norm, h), w), b))


def inter_graph_mix(states: list[Tensor]) -> Tensor:
    """Each node's arithmetic mean over its per-graph states (virtual
    edges linking the same node across graphs)."""
    if len(states) == 1:
        return states[0]
    shape = states[0].shape
    for s in states[1:]:
        if s.shape != shape:
            raise ShapeError(f"inter_graph_mix: shapes {shape} vs {s.shape}")
    # One fused record: the sum accumulates in place, in list order, so
    # the mean holds one state-sized array.
    scale = 1.0 / len(states)
    total = states[0].data + states[1].data
    for s in states[2:]:
        total += s.data
    total *= scale

    def rule(g):
        share = g * scale
        return [(s, share) for s in states]

    return make_op(total, states, rule)
