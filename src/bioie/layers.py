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
  * `bilstm`: both directions in one loop, keeping the input
    projection's inputs and every step's gates, cell state and output.
    Sigmoid gates are computed as (tanh(z/2) + 1) / 2 from weights whose
    sigmoid columns are halved at call time, so one tanh covers all
    four gates;
  * `multi_head_attention`: all heads, keeping the fused Q/K/V
    projection and every head's attention weights;
  * `gcn_layer`: one whole GCN layer over all graph kinds, keeping each
    kind's tanh output and normalized adjacency.
Without a record (`no_grad`, or no input needing a gradient) the layers
keep none of it. `embed_sequence` composes the primitive autodiff ops.
So do the references `scaled_dot_attention`, for one attention head,
and `gcn_propagate` and `inter_graph_mix`, for one kind of a GCN layer
and for the mean over kinds.

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
    concat,
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

def bilstm(seq: Tensor, fw, bw, lengths=None) -> Tensor:
    """Forward and backward LSTM passes over an (n, input) sequence or a
    padded (B, n, input) batch, with independent (wx, wh, b) triples `fw`
    and `bw`, as one fused tape record. Each position's outputs are
    concatenated [forward, backward] to width 2*hidden.

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

    The record keeps the input projection's inputs and every step's gate
    activations, cell state and output. Its backward rule runs the same
    loop in reverse, with one batched recurrent product per step, and
    reduces each weight gradient to one batched GEMM. Value- and
    gradient-equivalent to chaining single LSTM cell updates over each
    row's real prefix (checked in tests).
    """
    if seq.shape[-2] < 1:
        raise ShapeError("bilstm: empty sequence")
    x = seq.data if seq.data.ndim == 3 else seq.data[None]
    bsz, n, width = x.shape
    hid = fw[1].shape[0]
    if width != fw[0].shape[0] or width != bw[0].shape[0]:
        raise ShapeError(f"bilstm: input width {width} != {fw[0].shape[0]}")
    lengths = np.full(bsz, n) if lengths is None else np.asarray(lengths)
    if lengths.shape != (bsz,) or lengths.min() < 1 or lengths.max() > n:
        raise ShapeError(
            f"bilstm: lengths {lengths.tolist()} do not fit a "
            f"{bsz}-row batch of {n} steps")
    wx, wh, b = (np.stack([fw[k].data, bw[k].data]) for k in range(3))
    half = np.repeat([0.5, 0.5, 0.5, 1.0], hid)  # exact: a power of two
    wx_half, wh_half, b_half = wx * half, wh * half, b * half
    shift = 1.0 - half  # tanh(z/2) * 0.5 + 0.5 on the sigmoid gates

    def step_inputs(s0: int, s1: int) -> np.ndarray:
        """Inputs of steps s0..s1-1 per direction, (2, (s1-s0)*B, input)."""
        fwd = x[:, s0:s1].transpose(1, 0, 2)
        bwd = x[:, n - s1:n - s0][:, ::-1].transpose(1, 0, 2)
        return np.stack([fwd, bwd]).reshape(2, -1, width)

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
    track = recording(seq, *fw, *bw)
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

    def rule(g):
        g = g.reshape(bsz, n, 2, hid)
        gs = np.empty((2, n, bsz, hid))  # output gradients in step order
        gs[0] = g[:, :, 0].transpose(1, 0, 2)
        gs[1] = g[:, ::-1, 1].transpose(1, 0, 2)
        # Per-step factors vectorized up front: a gate's pre-activation
        # gradient is its factor times the cell gradient (i, f, g) or the
        # output gradient (o).
        i_g, f_g, o_g, g_g = (acts[..., k, :] for k in range(4))
        pre = np.empty((n, 2, bsz, 4, hid))
        np.multiply(g_g * i_g, 1.0 - i_g, out=pre[..., 0, :])
        np.multiply(cell[:-1] * f_g, 1.0 - f_g, out=pre[..., 1, :])
        np.multiply(tc * o_g, 1.0 - o_g, out=pre[..., 2, :])
        np.multiply(i_g, 1.0 - g_g * g_g, out=pre[..., 3, :])
        pre_c = o_g * (1.0 - tc * tc)
        wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
        dz = np.empty((2, n, bsz, 4, hid))
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
            np.multiply(dc[:, :, None], pre[s, :, :, :2], out=row[:, :, :2])
            np.multiply(dh, pre[s, :, :, 2], out=row[:, :, 2])
            np.multiply(dc, pre[s, :, :, 3], out=row[:, :, 3])
            dc *= f_g[s]  # becomes the carry entering the previous step
            np.matmul(row.reshape(2, bsz, 4 * hid), wh_t, out=dh_carry)
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
        if seq.requires_grad:
            dxs = np.matmul(dz, wx.transpose(0, 2, 1)).reshape(2, n, bsz, width)
            dx = dxs[0] + dxs[1, ::-1]  # back to position order
            pairs.append((seq, dx.transpose(1, 0, 2).reshape(seq.shape)))
        for k, both in enumerate(jobs):
            if both is not None:
                pairs += [(p[k], both[d]) for d, p in enumerate((fw, bw))
                          if p[k].requires_grad]
        return pairs

    return make_op(out.reshape(seq.shape[:-1] + (2 * hid,)), (seq, *fw, *bw), rule)


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
    Heads then run one at a time, each head's context written into one
    (B, n, heads*head_dim) buffer before `wo`. The record keeps the
    projections and every head's (B, n, n) attention weights for its
    backward rule; without a record one score buffer is reused, so no
    array holds more than one head's scores."""
    if x.shape[-1] != heads[0][0].shape[0]:
        raise ShapeError(
            f"attention: input width {x.shape[-1]} != projection rows "
            f"{heads[0][0].shape[0]}")
    xd = x.data if x.data.ndim == 3 else x.data[None]
    bsz, steps, width = xd.shape
    count, hd = len(heads), heads[0][0].shape[1]
    scale = 1.0 / math.sqrt(hd)
    weights = [p[j] for j in range(3) for p in heads]  # all q, all k, all v
    x2 = xd.reshape(-1, width)
    w = np.concatenate([t.data for t in weights], axis=1)
    qkv = (x2 @ w).reshape(bsz, steps, 3, count, hd)
    qkv[:, :, 0] *= scale  # scaled queries, as in `scaled_dot_attention`
    bias = None if mask_bias is None else mask_bias.data
    track = recording(x, wo, *weights)
    probs = np.empty((count if track else 1, bsz, steps, steps))
    ctx = np.empty((bsz, steps, count, hd))
    for k in range(count):
        p = probs[k if track else 0]
        # A contiguous kT, as the `transpose` op makes, keeps the scores
        # bitwise equal to `scaled_dot_attention`'s.
        key_t = np.swapaxes(qkv[:, :, 1, k], -1, -2).copy()
        np.matmul(qkv[:, :, 0, k], key_t, out=p)
        if bias is not None:
            p += bias
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ctx[:, :, k] = p @ qkv[:, :, 2, k]
    ctx2 = ctx.reshape(-1, count * hd)

    def rule(g):
        g2 = g.reshape(-1, g.shape[-1])
        pairs = []
        if wo.requires_grad:
            pairs.append((wo, Deferred(lambda: ctx2.T @ g2, g2)))
        dctx = (g2 @ wo.data.T).reshape(bsz, steps, count, hd)
        dqkv = np.empty_like(qkv)
        for k in range(count):
            p = probs[k]
            q, key, v = qkv[:, :, 0, k], qkv[:, :, 1, k], qkv[:, :, 2, k]
            dc = dctx[:, :, k]
            dqkv[:, :, 2, k] = np.swapaxes(p, -1, -2) @ dc
            ds = dc @ np.swapaxes(v, -1, -2)  # d loss / d attention weights
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p                           # d loss / d scores
            dqkv[:, :, 0, k] = ds @ key
            dqkv[:, :, 1, k] = np.swapaxes(ds, -1, -2) @ q
        dqkv[:, :, 0] *= scale
        d2 = dqkv.reshape(-1, 3 * count * hd)
        gw = (Deferred(lambda: (x2.T @ d2).reshape(width, 3 * count, hd), d2)
              if any(t.requires_grad for t in weights) else None)
        if x.requires_grad:
            pairs.append((x, (d2 @ w.T).reshape(x.shape)))
        if gw is not None:
            pairs += [(t, gw[:, i]) for i, t in enumerate(weights) if t.requires_grad]
        return pairs

    return make_op((ctx2 @ wo.data).reshape(x.shape[:-1] + (wo.shape[1],)),
                   (x, wo, *weights), rule)


# ---------------------------------------------------------------------------
# Graph convolution

def _normalized_adjacency(h: Tensor, adj: DocumentAdjacency | None, w: Tensor,
                          b: Tensor) -> np.ndarray:
    """A/d for one graph kind, once the graph, weight and bias fit `h`."""
    if adj is None:
        raise ShapeError("gcn: fewer adjacencies than weights")
    if adj.matrix.shape[:-1] != h.shape[:-1]:
        raise ShapeError(
            f"gcn: adjacency {adj.matrix.shape} does not match features {h.shape}")
    if w.shape[0] != h.shape[-1] or b.shape != (1, w.shape[1]):
        raise ShapeError(
            f"gcn: weight {w.shape} / bias {b.shape} do not fit features {h.shape}")
    if np.any(adj.degree <= 0.0):
        raise ValueError("gcn: zero-degree node (self-loops missing)")
    return adj.normalized


def gcn_propagate(h: Tensor, adj: DocumentAdjacency, w: Tensor, b: Tensor,
                  activation=tanh) -> Tensor:
    """Degree-normalized neighbor aggregation: f((A/d) h W + b), on one
    (n, n) graph with (n, d) features or a (B, n, n) batch of graphs with
    (B, n, d) features. Composed of primitive ops: with
    `inter_graph_mix`, the reference for `gcn_layer`."""
    a_norm = Tensor(_normalized_adjacency(h, adj, w, b))
    return activation(add_rowvec(matmul(a_norm, matmul(h, w)), b))


def inter_graph_mix(states: list[Tensor]) -> Tensor:
    """Each node's arithmetic mean over its per-graph states (virtual
    edges linking the same node across graphs), summed in list order.
    Composed of primitive ops: the reference for `gcn_layer`'s mean."""
    if len(states) == 1:
        return states[0]
    return hadamard(functools.reduce(add, states), 1.0 / len(states))


def gcn_layer(m: Tensor, adjacencies, ws, bs) -> Tensor:
    """mean_k tanh((A_k/d_k)(m W_k) + b_k) over graph kinds k as one tape
    record, on (n, d) features or a (B, n, d) batch. `adjacencies` yields
    each kind's `DocumentAdjacency`, in the order of `ws` and `bs`, and is
    read one kind at a time: without a record, at most one is alive.

    The record keeps each kind's output y_k and A_k/d_k; its rule uses
    tanh' = 1 - y_k^2. The mean sums (y_0 + y_1) + y_2, and the input
    gradient adds kind 2's term, then kind 1's, then kind 0's: bitwise
    the values and gradients of separate affine, tanh and mean records."""
    ws, bs, adjacencies = list(ws), list(bs), iter(adjacencies)
    m2 = m.data.reshape(-1, m.shape[-1])
    track = recording(m, *ws, *bs)
    kept, total = [], None
    for w, b in zip(ws, bs, strict=True):
        # Read here, not zipped: zip would hold the last kind's adjacency
        # while it reads the next.
        a_norm = _normalized_adjacency(m, next(adjacencies, None), w, b)
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
        del a_norm, y  # unrecorded, freed before the next kind is built
    scale = 1.0 / len(ws)
    total *= scale

    def rule(g):
        share = g * scale
        pairs, dm = [], None
        for y, a_norm, w, b in reversed(kept):
            gk = y * y
            np.subtract(1.0, gk, out=gk)
            gk *= share
            g2 = gk.reshape(-1, gk.shape[-1])
            if b.requires_grad:
                pairs.append((b, g2.sum(axis=0, keepdims=True)))
            if m.requires_grad or w.requires_grad:
                dhw = (np.swapaxes(a_norm, -1, -2) @ gk).reshape(g2.shape)
                if w.requires_grad:
                    pairs.append((w, Deferred(lambda d=dhw: m2.T @ d, dhw)))
                if m.requires_grad:
                    dx = (dhw @ w.data.T).reshape(m.shape)
                    dm = dx if dm is None else np.add(dm, dx, out=dm)
        return pairs + ([(m, dm)] if dm is not None else [])

    return make_op(total, (m, *ws, *bs), rule)
