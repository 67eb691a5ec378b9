"""Model layers: embedding assembly, the bidirectional LSTM encoder,
scaled dot-product (multi-head) self-attention, and degree-normalized
graph convolution with inter-graph state mixing. One graph-convolution
layer over graph kinds k is m <- mean_k tanh(A_k m W_k + b_k).

Layers hold no state: each takes its weight tensors as arguments (an
LSTM direction as a (wx, wh, b) triple, an attention head as a
(wq, wk, wv) triple), and the model's named registry supplies them.
Every layer takes one (n, .) sequence or a padded (B, n, .) batch.

Each model layer is one tape record with a hand-derived backward rule
(validated by finite differences and against primitive-op references
in the tests), recorded through this module's `make_op`:
  * `bilstm`: both directions in one loop, and train-mode dropout on
    its output, keeping the stacked step inputs, every step's gates,
    cell state and output, and the dropout mask. Sigmoid gates are
    computed as (tanh(z/2) + 1) / 2 from weights whose sigmoid columns
    are halved at call time, so one tanh covers all four gates;
  * `multi_head_attention`: all heads, keeping only the fused Q/K/V
    projection: its rule rebuilds each head's attention weights, and
    writes the projection gradients over the projection;
  * `gcn_layer`: one whole GCN layer over all graph kinds. It takes each
    kind's degree-normalized adjacency as an array, which
    `textgraph.batch_adjacency` builds once per forward for every layer,
    and keeps each kind's tanh output and a reference to its adjacency.
No record keeps a copy of its weights: a rule stacks or concatenates
them again, as they do not change before the optimizer step. Each rule
frees what it saved at its last read: the BiLSTM's gates, cell states
and mask before its weight jobs, attention's projection (by then its
gradient) once its weight job has run, a kind's output and adjacency
once that kind is done. Without a record (`no_grad`, or no input
needing a gradient) the layers keep none of it. `embed_sequence` gathers
rows with `take_rows` and hands them to `bilstm` as column blocks,
unjoined. The references
`scaled_dot_attention`, for one attention head, and `gcn_propagate` and
`inter_graph_mix`, for one kind of a GCN layer and for the mean over
kinds, compose the primitive autodiff ops.

The three weighted rules hand back their weight-gradient products as
`autodiff.Deferred` jobs, started before the input gradient: the
BiLSTM's (x^T dz, h_prev^T dz and the bias sum, one job each for both
directions), attention's `wo` and fused Q/K/V products, and each GCN
kind's m^T (A/d)^T g. No later rule reads them, so they may run on the
worker thread while the replay goes on (see `autodiff`). The GCN bias
gradient is summed inline: its job would hold the kind's whole
gradient until the worker reached it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Deferred,
    ShapeError,
    Tensor,
    add,
    add_rowvec,
    hadamard,
    make_op,
    matmul,
    recording,
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
        if self.head_dim is not None and self.head_dim < 1:
            raise ValueError("head_dim must be positive")
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
                   pos_tail: Tensor | None, max_dist: int) -> list[Tensor]:
    """Per-token feature rows as column blocks, which `bilstm` joins:
    word vectors, then (optionally) clipped relative-distance vectors to
    the head and tail mention starts.

    `token_ids` is one (n,) sequence with scalar mention starts, giving
    (n, .) blocks, or a (B, n) batch with (B,) starts, giving (B, n, .).
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
    return parts


# ---------------------------------------------------------------------------
# LSTM

def bilstm(seq, fw, bw, lengths=None, mask=None) -> Tensor:
    """Forward and backward LSTM passes over an (n, input) sequence or a
    padded (B, n, input) batch, with independent (wx, wh, b) triples `fw`
    and `bw`, as one fused tape record. Each position's outputs are
    concatenated [forward, backward] to width 2*hidden, then multiplied
    by `mask`, if given, such as shaped train-mode dropout multipliers.
    `seq` may be a list of column blocks of the input, joined along the
    last axis; the record keeps, and the rule returns a gradient for,
    only the blocks that need one.

    `wx` is (input, 4*hidden), `wh` (hidden, 4*hidden) and `b`
    (1, 4*hidden). Gate blocks are laid out [input, forget, output,
    candidate], each `hidden` wide. `lengths` gives each batch row's real
    length (default: all n). Steps past a row's length hold a zero state
    and output zero, so the backward direction of every row starts at its
    own last real token.

    Both directions run in one loop: step s advances the forward
    direction at position s and the backward one at position n-1-s. The
    input projections of all steps are one GEMM per direction before the
    loop; each step then runs one batched (2, B, hidden) @ (2, hidden,
    4*hidden) recurrent product. The state is kept as (direction, row,
    gate, unit), the layout both products write, so a step's
    pre-activations add in one contiguous call and the weight gradients
    need no transposed copies. The sigmoid-gate columns of wx, wh and b
    are halved once per call, because sigmoid(z) = (tanh(z/2) + 1) / 2:
    one tanh covers all four gates, and no clip is needed.

    The record keeps the input projection's inputs, every step's gate
    activations, cell state and output, and `mask`, but not the stacked
    weights, which the rule stacks again. Its backward rule frees each at
    its last read. It computes every step's gate factors up front, in the
    (direction, step, row, gate, unit) layout of the gate gradients dz,
    and runs the same loop in reverse, with one batched recurrent product
    per step, writing each step's dz over its factors: factors and
    gradients share one array. Each weight gradient reduces to one
    batched GEMM. Value- and gradient-equivalent to chaining single LSTM
    cell updates over each row's real prefix (checked in tests).
    """
    blocks = [seq] if isinstance(seq, Tensor) else list(seq)
    lead = blocks[0].shape[:-1]
    if lead[-1] < 1 or any(t.shape[:-1] != lead for t in blocks):
        raise ShapeError(f"bilstm: empty or unaligned inputs {[t.shape for t in blocks]}")
    xb = [t.data if t.data.ndim == 3 else t.data[None] for t in blocks]
    edges = np.cumsum([0] + [t.shape[-1] for t in blocks])
    bsz, n, width = xb[0].shape[0], lead[-1], int(edges[-1])
    hid = fw[1].shape[0]
    if width != fw[0].shape[0] or width != bw[0].shape[0]:
        raise ShapeError(f"bilstm: input width {width} != {fw[0].shape[0]}")
    lengths = np.full(bsz, n) if lengths is None else np.asarray(lengths)
    if lengths.shape != (bsz,) or lengths.min() < 1 or lengths.max() > n:
        raise ShapeError(
            f"bilstm: lengths {lengths.tolist()} do not fit a "
            f"{bsz}-row batch of {n} steps")

    def stacked(k: int) -> np.ndarray:
        return np.stack([fw[k].data, bw[k].data])

    wx, wh, b = (stacked(k) for k in range(3))
    half = np.repeat([0.5, 0.5, 0.5, 1.0], hid)  # exact: a power of two
    wx_half, wh_half, b_half = wx * half, wh * half, b * half
    shift = 1.0 - half  # tanh(z/2) * 0.5 + 0.5 on the sigmoid gates

    def step_inputs(s0: int, s1: int) -> np.ndarray:
        """Inputs of steps s0..s1-1 per direction, (2, (s1-s0)*B, input)."""
        xs = np.empty((2, s1 - s0, bsz, width))
        for x, lo, hi in zip(xb, edges, edges[1:]):
            xs[0, ..., lo:hi] = x[:, s0:s1].transpose(1, 0, 2)
            xs[1, ..., lo:hi] = x[:, n - s1:n - s0][:, ::-1].transpose(1, 0, 2)
        return xs.reshape(2, -1, width)

    # keep[s] zeroes, per direction, the rows whose sequence has ended
    # (forward) or not yet begun (backward) at step s.
    pos = np.arange(n)[:, None]
    keep = np.stack([pos < lengths, pos[::-1] < lengths], axis=1)[..., None]
    masked = ~keep.all(axis=(1, 2, 3))
    keep = keep.astype(np.float64)

    # Without a tape record the backward rule never runs: one step of the
    # gate and cell arrays is reused instead of keeping all n, and the
    # input projection runs in blocks of n // 4 steps, so for n >= 4 no
    # array outgrows a (B, n, 2*hidden) state (`eval_logits`' budget).
    track = recording(*blocks, *fw, *bw)
    trained = [(t, lo, hi) for t, lo, hi in zip(blocks, edges, edges[1:])
               if t.requires_grad]  # the only blocks the rule keeps
    block = n if track else max(1, n // 4)
    rows = n if track else 1
    acts = np.empty((rows, 2, bsz, 4, hid))      # i, f, o gates, candidate g
    tc = np.empty((rows, 2, bsz, hid))           # tanh of the unmasked cell
    cell = np.zeros((n + 1 if track else 2, 2, bsz, hid))
    hs = np.zeros((2, n + 1, bsz, hid))          # hs[:, s + 1]: step s output
    for s in range(n):
        if s % block == 0:
            xs = step_inputs(s, min(n, s + block))
            zx = np.matmul(xs, wx_half)
            zx += b_half
            zx = zx.reshape(2, -1, bsz, 4 * hid)
        a = acts[s % rows]
        z = a.reshape(2, bsz, 4 * hid)
        c_prev, c = cell[s % len(cell)], cell[(s + 1) % len(cell)]
        np.matmul(hs[:, s], wh_half, out=z)
        z += zx[:, s % block]
        np.tanh(z, out=z)
        z *= half
        z += shift
        np.multiply(a[:, :, 1], c_prev, out=c)
        c += a[:, :, 0] * a[:, :, 3]
        t = tc[s % rows]
        np.tanh(c, out=t)
        h = hs[:, s + 1]
        np.multiply(a[:, :, 2], t, out=h)
        if masked[s]:
            c *= keep[s]
            h *= keep[s]

    out = np.empty((bsz, n, 2, hid))
    out[:, :, 0] = hs[0, 1:].transpose(1, 0, 2)
    out[:, :, 1] = hs[1, :0:-1].transpose(1, 0, 2)
    out = out.reshape(lead + (2 * hid,))
    if mask is not None:
        out *= mask

    def rule(g):
        nonlocal acts, cell, tc, mask  # each freed after its last read
        g = (g if mask is None else g * mask).reshape(bsz, n, 2, hid)
        gs = np.empty((2, n, bsz, hid))  # output gradients in step order
        gs[0] = g[:, :, 0].transpose(1, 0, 2)
        gs[1] = g[:, ::-1, 1].transpose(1, 0, 2)
        g = mask = None
        # Per-step factors vectorized up front, in the layout of dz: a
        # gate's pre-activation gradient is its factor times the cell
        # gradient (i, f, g) or the output gradient (o), which the reverse
        # loop writes over the factor.
        i_g, f_g, o_g, g_g = (acts[..., k, :] for k in range(4))
        dz = np.empty((2, n, bsz, 4, hid))
        pre = dz.transpose(1, 0, 2, 3, 4)  # in step order, as `acts`
        np.multiply(g_g * i_g, 1.0 - i_g, out=pre[..., 0, :])
        np.multiply(cell[:-1] * f_g, 1.0 - f_g, out=pre[..., 1, :])
        np.multiply(tc * o_g, 1.0 - o_g, out=pre[..., 2, :])
        np.multiply(i_g, 1.0 - g_g * g_g, out=pre[..., 3, :])
        pre_c = o_g * (1.0 - tc * tc)
        cell = tc = None
        # The weights are stacked again rather than kept: they do not
        # change before the optimizer step.
        wh_t = np.ascontiguousarray(stacked(1).transpose(0, 2, 1))
        dh = np.empty((2, bsz, hid))
        tmp = np.empty((2, bsz, hid))
        dc = np.zeros((2, bsz, hid))  # holds the incoming cell-state carry
        dh_carry = np.zeros((2, bsz, hid))
        for s in range(n - 1, -1, -1):
            np.add(gs[:, s], dh_carry, out=dh)
            if masked[s]:
                dh *= keep[s]
                dc *= keep[s]
            np.multiply(dh, pre_c[s], out=tmp)
            dc += tmp
            row = dz[:, s]
            np.multiply(dc[:, :, None], row[:, :, :2], out=row[:, :, :2])
            np.multiply(dh, row[:, :, 2], out=row[:, :, 2])
            np.multiply(dc, row[:, :, 3], out=row[:, :, 3])
            dc *= f_g[s]  # becomes the carry entering the previous step
            np.matmul(row.reshape(2, bsz, 4 * hid), wh_t, out=dh_carry)
        acts = i_g = f_g = o_g = g_g = pre = pre_c = gs = None
        dz = dz.reshape(2, n * bsz, 4 * hid)  # one row per step and batch row
        h_prev = hs[:, :-1].reshape(2, n * bsz, hid)
        weight_grads = (  # a recorded call projected all n steps as one block
            lambda: np.matmul(xs.transpose(0, 2, 1), dz),
            lambda: np.matmul(h_prev.transpose(0, 2, 1), dz),
            lambda: dz.sum(axis=1, keepdims=True),
        )
        # Started before the input gradient, which a worker can overlap.
        jobs = [Deferred(grad, dz) if fw[k].requires_grad or bw[k].requires_grad
                else None for k, grad in enumerate(weight_grads)]
        pairs = []
        if trained:
            # One product over every column: a product over one block's
            # columns alone differed from those columns of it in the last
            # bit at some shapes (OpenBLAS 0.3.31, 9-60 rows at the
            # default widths), which would change training.
            dxs = np.matmul(dz, stacked(0).transpose(0, 2, 1)).reshape(2, n, bsz, width)
            dx = (dxs[0] + dxs[1, ::-1]).transpose(1, 0, 2)  # position order
            pairs = [(t, dx[..., lo:hi].reshape(t.shape)) for t, lo, hi in trained]
        for k, both in enumerate(jobs):
            if both is not None:
                pairs += [(p[k], both[d]) for d, p in enumerate((fw, bw))
                          if p[k].requires_grad]
        return pairs

    return make_op(out, (*blocks, *fw, *bw), rule)


# ---------------------------------------------------------------------------
# Attention

def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask_bias: Tensor | None = None) -> Tensor:
    """softmax(q kT / sqrt(width)) v, with an optional additive mask on
    the raw scores (large negative entries silence padded keys). Inputs
    are (n, width) matrices or (B, n, width) batches of them. Composed
    of primitive ops: the reference for one head of
    `multi_head_attention`."""
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
    (B, n, d_model) batch, as one fused tape record. `heads` lists one
    (wq, wk, wv) triple of (d_model, head_dim) projections per head.

    The projections of all heads are one (B*n, d_model) @ (d_model,
    3*heads*head_dim) GEMM over the weights concatenated at call time.
    Heads then run one at a time in one reused (B, n, n) buffer of
    attention weights, each head's context written into one
    (B, n, heads*head_dim) buffer before `wo`.

    The record keeps only the projections `qkv`: not the concatenated
    weights, and no head's attention weights or context. Its rule
    rebuilds each head's weights, and its context if `wo` trains, with
    the forward's ops on the same operands, so both are bitwise the
    forward's. It then writes the head's dq, dk and dv over that head's
    slices of `qkv`, after their last read there. That buffer is the
    operand of the Q/K/V weight job and of the input gradient, which
    concatenates the weights again; the `wo` job is made after the head
    loop, from the rebuilt context."""
    if x.shape[-1] != heads[0][0].shape[0]:
        raise ShapeError(
            f"attention: input width {x.shape[-1]} != projection rows "
            f"{heads[0][0].shape[0]}")
    xd = x.data if x.data.ndim == 3 else x.data[None]
    bsz, steps, width = xd.shape
    count, hd = len(heads), heads[0][0].shape[1]
    scale = 1.0 / math.sqrt(hd)
    weights = [p[j] for j in range(3) for p in heads]  # all q, all k, all v

    def fused() -> np.ndarray:
        return np.concatenate([t.data for t in weights], axis=1)

    x2 = xd.reshape(-1, width)
    qkv = (x2 @ fused()).reshape(bsz, steps, 3, count, hd)
    qkv[:, :, 0] *= scale  # scaled queries, as in `scaled_dot_attention`
    bias = None if mask_bias is None else mask_bias.data

    def head(k: int, p: np.ndarray, ctx: np.ndarray | None) -> None:
        """Head k's attention weights, written into the (B, n, n) `p`, and
        its context, written into ctx[:, :, k] unless `ctx` is None."""
        # A contiguous kT, as the `transpose` op makes, keeps the scores
        # bitwise equal to `scaled_dot_attention`'s.
        key_t = np.swapaxes(qkv[:, :, 1, k], -1, -2).copy()
        np.matmul(qkv[:, :, 0, k], key_t, out=p)
        if bias is not None:
            p += bias
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        if ctx is not None:
            ctx[:, :, k] = p @ qkv[:, :, 2, k]

    scores = np.empty((bsz, steps, steps))  # one buffer, reused by every head
    ctx = np.empty((bsz, steps, count, hd))
    for k in range(count):
        head(k, scores, ctx)
    out = (ctx.reshape(-1, count * hd) @ wo.data).reshape(x.shape[:-1] + (wo.shape[1],))

    def rule(g):
        nonlocal qkv
        g2 = g.reshape(-1, g.shape[-1])
        dctx = (g2 @ wo.data.T).reshape(bsz, steps, count, hd)
        g, g2 = None, g2 if wo.requires_grad else None  # kept for the `wo` job alone
        p = np.empty((bsz, steps, steps))
        ctx = np.empty((bsz, steps, count, hd)) if wo.requires_grad else None
        for k in range(count):
            head(k, p, ctx)  # the forward's ops on the same operands
            q, key, v = qkv[:, :, 0, k], qkv[:, :, 1, k], qkv[:, :, 2, k]
            dc = dctx[:, :, k]
            ds = dc @ np.swapaxes(v, -1, -2)  # d loss / d attention weights
            v[...] = np.swapaxes(p, -1, -2) @ dc  # each gradient over its factor
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p                               # d loss / d scores
            dq = ds @ key
            key[...] = np.swapaxes(ds, -1, -2) @ q
            q[...] = dq
        p = q = key = v = dc = ds = dq = dctx = None
        qkv[:, :, 0] *= scale
        d2, qkv = qkv.reshape(-1, 3 * count * hd), None  # now dq, dk and dv
        pairs = []
        if ctx is not None:
            pairs.append((wo, Deferred(
                lambda c=ctx.reshape(-1, count * hd), g2=g2: c.T @ g2, g2)))
        ctx = g2 = None  # an unfinished `wo` job holds them
        gw = (Deferred(lambda: (x2.T @ d2).reshape(width, 3 * count, hd), d2)
              if any(t.requires_grad for t in weights) else None)
        if x.requires_grad:
            pairs.append((x, (d2 @ fused().T).reshape(x.shape)))
        if gw is not None:
            pairs += [(t, gw[:, i]) for i, t in enumerate(weights) if t.requires_grad]
        return pairs

    return make_op(out, (x, wo, *weights), rule)


# ---------------------------------------------------------------------------
# Graph convolution

def _check_fit(h: Tensor, a: np.ndarray, w: Tensor, b: Tensor) -> None:
    """Raise ShapeError unless one kind's graph, weight and bias fit `h`."""
    if a.shape[:-1] != h.shape[:-1]:
        raise ShapeError(
            f"gcn: adjacency {a.shape} does not match features {h.shape}")
    if w.shape[0] != h.shape[-1] or b.shape != (1, w.shape[1]):
        raise ShapeError(
            f"gcn: weight {w.shape} / bias {b.shape} do not fit features {h.shape}")


def gcn_propagate(h: Tensor, adj: DocumentAdjacency, w: Tensor, b: Tensor,
                  activation=tanh) -> Tensor:
    """Degree-normalized neighbor aggregation: f((A/d) h W + b), on one
    (n, n) graph with (n, d) features or a (B, n, n) batch of graphs with
    (B, n, d) features. Composed of primitive ops: with
    `inter_graph_mix`, the reference for `gcn_layer`."""
    _check_fit(h, adj.matrix, w, b)
    if not np.all(adj.degree > 0.0):
        raise ValueError("gcn: zero-degree node (self-loops missing)")
    return activation(add_rowvec(matmul(Tensor(adj.normalized), matmul(h, w)), b))


def inter_graph_mix(states: list[Tensor]) -> Tensor:
    """Each node's arithmetic mean over its per-graph states (virtual
    edges linking the same node across graphs), summed in list order.
    Composed of primitive ops: the reference for `gcn_layer`'s mean."""
    if len(states) == 1:
        return states[0]
    return hadamard(functools.reduce(add, states), 1.0 / len(states))


def gcn_layer(m: Tensor, adjacencies, ws, bs) -> Tensor:
    """mean_k tanh((A_k/d_k)(m W_k) + b_k) over graph kinds k as one tape
    record, on (n, d) features or a (B, n, d) batch. `adjacencies` holds
    each kind's degree-normalized A_k/d_k, (n, n) or (B, n, n), in the
    order of the sequences `ws` and `bs`, such as
    `textgraph.batch_adjacency` returns; the layer reads them and keeps
    no copy.

    The record keeps each kind's output y_k and A_k/d_k, which its rule
    frees one kind at a time; it uses tanh' = 1 - y_k^2. The mean sums
    (y_0 + y_1) + y_2, and the input gradient adds kind 2's term, then
    kind 1's, then kind 0's: bitwise the values and gradients of
    separate affine, tanh and mean records."""
    m2 = m.data.reshape(-1, m.shape[-1])
    track = recording(m, *ws, *bs)
    kept, total = [], None
    for a_norm, w, b in zip(adjacencies, ws, bs, strict=True):
        _check_fit(m, a_norm, w, b)
        y = a_norm @ (m2 @ w.data).reshape(m.shape[:-1] + (w.shape[1],))
        y += b.data
        np.tanh(y, out=y)
        if track:
            kept.append((y, a_norm, w, b))
        if total is None:
            total = y
        elif len(kept) == 2:  # recorded: the rule reads y_0
            total = total + y
        else:
            total += y
        del y  # unrecorded, freed before the next kind's product
    scale = 1.0 / len(ws)
    total *= scale

    def rule(g):
        share, g = g * scale, None
        pairs, dm = [], None
        while kept:  # each kind's y_k and A_k/d_k are freed after their read
            y, a_norm, w, b = kept.pop()
            gk = y * y
            np.subtract(1.0, gk, out=gk)
            y = None
            gk *= share
            g2 = gk.reshape(-1, gk.shape[-1])
            if b.requires_grad:
                pairs.append((b, g2.sum(axis=0, keepdims=True)))
            if m.requires_grad or w.requires_grad:
                dhw = (np.swapaxes(a_norm, -1, -2) @ gk).reshape(g2.shape)
                a_norm = gk = g2 = None
                if w.requires_grad:
                    pairs.append((w, Deferred(lambda d=dhw: m2.T @ d, dhw)))
                if m.requires_grad:
                    dx = (dhw @ w.data.T).reshape(m.shape)
                    dm = dx if dm is None else np.add(dm, dx, out=dm)
        return pairs + ([(m, dm)] if dm is not None else [])

    return make_op(total, (m, *ws, *bs), rule)
