"""Model layers: embedding assembly, the bidirectional LSTM encoder,
scaled dot-product (multi-head) self-attention, and degree-normalized
graph convolution with inter-graph state mixing. One graph-convolution
layer over graph kinds k is m <- mean_k tanh(A_k m W_k + b_k):
`gcn_propagate` per kind, then `inter_graph_mix` for the mean.

The LSTM cell is a fused tape operation with a hand-derived backward
rule (validated by finite differences); everything else composes the
primitive autodiff ops.
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
    sigmoid_values,
    softmax,
    take_rows,
    tanh,
    transpose,
)
from .textgraph import DocumentAdjacency

ATTENTION_MODES = ("none", "single", "multi")


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
            raise ValueError(f"attention must be one of {ATTENTION_MODES}")
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
    def effective_heads(self) -> int:
        return 1 if self.attention == "single" else self.heads

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


@dataclass
class LstmDirectionParams:
    wx: Tensor  # (input, 4*hidden), gate blocks ordered [input, forget, out, cand]
    wh: Tensor  # (hidden, 4*hidden)
    b: Tensor   # (1, 4*hidden)


@dataclass
class LstmParams:
    fw: LstmDirectionParams
    bw: LstmDirectionParams


@dataclass
class AttentionHeadParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor


@dataclass
class AttentionParams:
    heads: list[AttentionHeadParams]
    wo: Tensor


def init_lstm_direction(rng: np.random.Generator, input_dim: int,
                        hidden: int) -> LstmDirectionParams:
    b = np.zeros((1, 4 * hidden))
    b[0, hidden:2 * hidden] = 1.0  # open forget gates at the start of training
    return LstmDirectionParams(
        wx=Tensor(glorot(rng, input_dim, 4 * hidden), requires_grad=True),
        wh=Tensor(glorot(rng, hidden, 4 * hidden), requires_grad=True),
        b=Tensor(b, requires_grad=True),
    )


# Gate-block column layout shared by lstm_step and lstm_sequence:
# [input, forget, output, candidate], each `hidden` wide, so the two
# sigmoid blocks are contiguous.


# ---------------------------------------------------------------------------
# Embedding assembly

def embed_sequence(token_ids, head_start: int, tail_start: int,
                   word_table: Tensor, pos_head_table: Tensor | None,
                   pos_tail_table: Tensor | None, max_dist: int) -> Tensor:
    """Per-token feature rows: word vector, then (optionally) clipped
    relative-distance vectors to the head and tail mention starts."""
    ids = np.asarray(token_ids, dtype=np.int64)
    parts = [take_rows(word_table, ids)]
    if pos_head_table is not None:
        rel = np.arange(len(ids))
        h_idx = np.clip(rel - head_start, -max_dist, max_dist) + max_dist
        t_idx = np.clip(rel - tail_start, -max_dist, max_dist) + max_dist
        parts.append(take_rows(pos_head_table, h_idx))
        parts.append(take_rows(pos_tail_table, t_idx))
    return concat(parts, axis=1) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# LSTM

def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: LstmDirectionParams) -> tuple[Tensor, Tensor]:
    """One LSTM cell update on a (1, input) row; returns (h_t, c_t).

    Sigmoid input/forget/output gates, tanh candidate. The cell state and
    the output gate are two fused tape records sharing the forward
    intermediates.
    """
    hid = params.wh.shape[0]
    if x.shape != (1, params.wx.shape[0]) or h_prev.shape != (1, hid):
        raise ShapeError(
            f"lstm_step: x {x.shape} / h {h_prev.shape} do not match parameters "
            f"{params.wx.shape} / {params.wh.shape}")
    xd, hd, cd = x.data, h_prev.data, c_prev.data
    wx, wh, b = params.wx, params.wh, params.b
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
    h_t = hadamard(o_t, tanh(c_t))
    return h_t, c_t


def lstm_sequence(seq: Tensor, params: LstmDirectionParams,
                  reverse: bool = False) -> Tensor:
    """Run one LSTM direction over a whole (n, input) sequence as a
    single fused tape record.

    The forward pass batches the input projection into one matmul and the
    backward rule runs truncation-free BPTT, collecting per-step gate
    gradients so the weight gradients reduce to single matmuls. Value- and
    gradient-equivalent to chaining `lstm_step` (checked in tests).
    """
    n = seq.shape[0]
    hid = params.wh.shape[0]
    wx, wh, b = params.wx, params.wh, params.b
    if seq.shape[1] != wx.shape[0]:
        raise ShapeError(
            f"lstm_sequence: input width {seq.shape[1]} != {wx.shape[0]}")
    order = range(n - 1, -1, -1) if reverse else range(n)

    xw = seq.data @ wx.data + b.data
    i_s = np.empty((n, hid)); f_s = np.empty((n, hid))
    o_s = np.empty((n, hid)); g_s = np.empty((n, hid))
    tc_s = np.empty((n, hid))
    h_prev_s = np.zeros((n, hid)); c_prev_s = np.zeros((n, hid))
    h = np.zeros(hid); c = np.zeros(hid)
    out = np.empty((n, hid))
    for t in order:
        h_prev_s[t] = h
        c_prev_s[t] = c
        z = xw[t] + h @ wh.data
        gates = sigmoid_values(z[:3 * hid])
        i_g = gates[:hid]
        f_g = gates[hid:2 * hid]
        o_g = gates[2 * hid:]
        g_g = np.tanh(z[3 * hid:])
        c = f_g * c + i_g * g_g
        tc = np.tanh(c)
        h = o_g * tc
        i_s[t], f_s[t], o_s[t], g_s[t], tc_s[t] = i_g, f_g, o_g, g_g, tc
        out[t] = h

    def rule(g):
        # Per-step products vectorized up front; the reverse loop only
        # carries the two recurrent gradients and writes gate gradients
        # straight into the dz rows.
        pre_i = g_s * i_s * (1.0 - i_s)
        pre_f = c_prev_s * f_s * (1.0 - f_s)
        pre_o = tc_s * o_s * (1.0 - o_s)
        pre_g = i_s * (1.0 - g_s * g_s)
        pre_c = o_s * (1.0 - tc_s * tc_s)
        wh_t = np.ascontiguousarray(wh.data.T)
        dz = np.empty((n, 4 * hid))
        dh = np.empty(hid)
        dc = np.zeros(hid)  # holds the incoming cell-state carry
        dh_carry = np.zeros(hid)
        for t in reversed(order):
            np.add(g[t], dh_carry, out=dh)
            dc += dh * pre_c[t]
            row = dz[t]
            np.multiply(dc, pre_i[t], out=row[:hid])
            np.multiply(dc, pre_f[t], out=row[hid:2 * hid])
            np.multiply(dh, pre_o[t], out=row[2 * hid:3 * hid])
            np.multiply(dc, pre_g[t], out=row[3 * hid:])
            dc *= f_s[t]  # becomes the carry entering the previous step
            np.dot(row, wh_t, out=dh_carry)
        pairs = []
        if seq.requires_grad:
            pairs.append((seq, dz @ wx.data.T))
        if wx.requires_grad:
            pairs.append((wx, seq.data.T @ dz))
        if wh.requires_grad:
            pairs.append((wh, h_prev_s.T @ dz))
        if b.requires_grad:
            pairs.append((b, dz.sum(axis=0, keepdims=True)))
        return pairs

    return make_op(out, (seq, wx, wh, b), rule)


def bilstm(seq: Tensor, params: LstmParams) -> Tensor:
    """Forward and backward passes with independent parameters; the
    per-position outputs are concatenated to width 2*hidden."""
    n = seq.shape[0]
    if n < 1:
        raise ShapeError("bilstm: empty sequence")
    forward_block = lstm_sequence(seq, params.fw, reverse=False)
    backward_block = lstm_sequence(seq, params.bw, reverse=True)
    return concat([forward_block, backward_block], axis=1)


# ---------------------------------------------------------------------------
# Attention

def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask_bias: Tensor | None = None) -> Tensor:
    """softmax(q kT / sqrt(width)) v, with an optional additive mask on
    the raw scores (large negative entries silence padded keys)."""
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: {k.shape[0]} keys but {v.shape[0]} values")
    scores = hadamard(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    if mask_bias is not None:
        scores = add(scores, mask_bias)
    return matmul(softmax(scores, axis=1), v)


def multi_head_attention(x: Tensor, params: AttentionParams,
                         mask_bias: Tensor | None = None) -> Tensor:
    """Per-head projected self-attention, head concatenation, then the
    output projection."""
    if params.heads and x.shape[1] != params.heads[0].wq.shape[0]:
        raise ShapeError(
            f"attention: input width {x.shape[1]} != projection rows "
            f"{params.heads[0].wq.shape[0]}")
    head_outs = [
        scaled_dot_attention(matmul(x, hp.wq), matmul(x, hp.wk),
                             matmul(x, hp.wv), mask_bias)
        for hp in params.heads
    ]
    stacked = concat(head_outs, axis=1) if len(head_outs) > 1 else head_outs[0]
    return matmul(stacked, params.wo)


# ---------------------------------------------------------------------------
# Graph convolution

def gcn_propagate(h: Tensor, adj: DocumentAdjacency, w: Tensor, b: Tensor,
                  activation=tanh) -> Tensor:
    """Degree-normalized neighbor aggregation: f((A/d) h W + b)."""
    if adj.matrix.shape[0] != h.shape[0]:
        raise ShapeError(
            f"gcn: adjacency for {adj.matrix.shape[0]} nodes but "
            f"{h.shape[0]} feature rows")
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
    total = states[0]
    for s in states[1:]:
        total = add(total, s)
    return hadamard(total, 1.0 / len(states))
