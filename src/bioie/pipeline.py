"""End-to-end classifier assembly: parameter registry, ablation
variants, instance encoding, the forward pass, and the training loss.

`ModelState.params` is the one registry of model tensors, keyed by name
in initialization order. The forward pass hands each layer its tensors
from it; the optimizer, parameter counts and checkpoints walk it too. A
tensor trains exactly when its `requires_grad` is set: the pretrained
word table is in the registry but frozen.

Forward path, one mini-batch at a time: embed tokens -> bidirectional
LSTM -> {self-attention branch, graph-convolution branch over the three
projected graphs} -> masked max-pool per branch -> concatenate ->
affine classifier. Ablated branches are skipped and the classifier
narrows accordingly. The BiLSTM with its train-mode dropout, the
attention branch, each GCN layer and each masked max-pool are one tape
record each (see `layers`), so a training step records 12 entries with
the default model, however long its documents are. Of the attention
branch a step keeps only the Q/K/V projection: its backward rebuilds
the attention weights.

Encoding maps each document's tokens to ids once and projects the
corpus graphs onto those ids. Documents are never padded, so an encoded
document is exactly as long as its text. Its adjacency is kept at
word-type level (`textgraph.TypeAdjacency`): a token-to-type index
shared by the three kinds and, per kind, a (u, u) matrix over the
document's u distinct ids, about a fifth of the (n, n) token matrix.

`forward` pads each batch to its longest document (T steps) and carries
a (B, T) validity mask that is false on batch padding:
  * the LSTM runs each row over its own length, so the backward
    direction starts at the row's last real token;
  * attention adds MASK_NEG to the scores of invalid keys, one head at
    a time over one reused (B, T, T) buffer of scores;
  * `textgraph.batch_adjacency` builds each kind's degree-normalized
    (B, T, T) adjacency once per forward, recorded or not, from the
    documents' type matrices through one gather index that the kinds
    share; every GCN layer reads the same three arrays, and padded
    nodes keep only a unit self-loop, so no real node aggregates from
    them;
  * max-pooling adds MASK_NEG at invalid positions.
An instance's logits therefore do not depend on the batch it runs in,
up to summation order. Train-mode dropout draws one mask over the valid
rows in batch order, the draws that one-at-a-time runs would make.

The graph-convolution branch keeps one node state m, starting from the
LSTM output; each layer replaces it by mean_k tanh(A_k m W_k + b_k)
over the graph kinds k, with A_k the degree-normalized adjacency.

The attention and graph-convolution branches share only the LSTM
output, so `forward` runs them through `autodiff.concat_branches`, which
may run the attention branch on the worker thread while the calling
thread runs the graph branch, forward and backward. The worker also
takes the layers' weight-gradient products (see `layers`) and half of
each `Adam.step`, and `eval_logits` shares the chunks of one call
between the two threads, all under `autodiff`'s size rule. Every way
gives bitwise the same logits, gradients and updates. Pin BLAS to one
thread (`OPENBLAS_NUM_THREADS=1`) so that it does not compete with the
worker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingTable, PAD_ID, RelationInstance, Vocabulary
from .layers import (
    ModelConfig,
    bilstm,
    embed_sequence,
    embedding_init,
    gcn_layer,
    glorot,
    multi_head_attention,
)
# Not called here: the benchmark's tracer wraps these two names in this
# module, and its contract test looks them up.
from .layers import gcn_propagate, inter_graph_mix  # noqa: F401
from .textgraph import (
    GRAPH_KINDS,
    CorpusGraphs,
    TypeAdjacency,
    batch_adjacency,
    project_adjacency,
    token_ids,
)

MASK_NEG = -1e30

ABLATION_VARIANTS = (
    "full",
    "no_pretrained",
    "no_position",
    "no_pretrained_no_position",
    "no_attention",
    "single_head",
    "no_gcn",
)


@dataclass
class ModelState:
    config: ModelConfig
    params: dict[str, Tensor]    # every model tensor, insertion-ordered
    vocab: Vocabulary
    label_set: tuple[str, ...]
    seed: int
    rng: np.random.Generator
    optimizer: object | None = None
    graphs: CorpusGraphs | None = None  # keyed by `vocab` ids


def make_variant(base: ModelConfig, variant: str) -> ModelConfig:
    """Toggle the switches realizing one ablation row of the study grid."""
    if variant == "full":
        return replace(base)
    if variant == "no_pretrained":
        return replace(base, use_pretrained=False)
    if variant == "no_position":
        return replace(base, use_position=False)
    if variant == "no_pretrained_no_position":
        return replace(base, use_pretrained=False, use_position=False)
    if variant == "no_attention":
        return replace(base, attention="none")
    if variant == "single_head":
        # One head at the base per-head width, so the ablation actually
        # shrinks the attention parameter block.
        return replace(base, heads=1, head_dim=base.effective_head_dim)
    if variant == "no_gcn":
        return replace(base, use_gcn=False)
    raise ValueError(f"unknown ablation variant {variant!r}; "
                     f"expected one of {ABLATION_VARIANTS}")


def init_model(config: ModelConfig, vocab: Vocabulary,
               embeddings: EmbeddingTable | None = None, seed: int = 0,
               label_set: tuple[str, ...] = ("null", "positive")) -> ModelState:
    """Allocate and initialize every tensor of the configured variant;
    bitwise deterministic for a given seed. The pretrained word table is
    registered frozen (`requires_grad` False)."""
    if len(label_set) != config.label_count:
        config = replace(config, label_count=len(label_set))
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    if config.use_pretrained and embeddings is not None:
        if embeddings.dim != config.d_w:
            raise ValueError(
                f"embedding table dim {embeddings.dim} != config d_w {config.d_w}")
        table = embeddings.vectors.copy()
    else:
        table = embedding_init(rng, vocab.size, config.d_w)
    params["embed.word"] = Tensor(table, requires_grad=not config.use_pretrained)

    if config.use_position:
        rows = 2 * config.max_dist + 1
        params["embed.pos_head"] = Tensor(
            embedding_init(rng, rows, config.d_p), requires_grad=True)
        params["embed.pos_tail"] = Tensor(
            embedding_init(rng, rows, config.d_p), requires_grad=True)

    hidden = config.hidden
    for direction in ("fw", "bw"):
        b = np.zeros((1, 4 * hidden))
        b[0, hidden:2 * hidden] = 1.0  # open forget gates at the start of training
        params[f"lstm.{direction}.wx"] = Tensor(
            glorot(rng, config.token_width, 4 * hidden), requires_grad=True)
        params[f"lstm.{direction}.wh"] = Tensor(
            glorot(rng, hidden, 4 * hidden), requires_grad=True)
        params[f"lstm.{direction}.b"] = Tensor(b, requires_grad=True)

    if config.attention != "none":
        d_model = config.d_model
        hd = config.effective_head_dim
        for k in range(config.heads):
            for name in ("wq", "wk", "wv"):
                params[f"attn.head{k}.{name}"] = Tensor(
                    glorot(rng, d_model, hd), requires_grad=True)
        params["attn.wo"] = Tensor(
            glorot(rng, config.heads * hd, d_model), requires_grad=True)

    if config.use_gcn:
        d_model = config.d_model
        for layer in range(config.gcn_layers):
            for kind in GRAPH_KINDS:
                params[f"gcn.layer{layer}.{kind}.w"] = Tensor(
                    glorot(rng, d_model, d_model), requires_grad=True)
                params[f"gcn.layer{layer}.{kind}.b"] = Tensor(
                    np.zeros((1, d_model)), requires_grad=True)

    params["clf.w"] = Tensor(
        glorot(rng, config.classifier_width, config.label_count), requires_grad=True)
    params["clf.b"] = Tensor(np.zeros((1, config.label_count)), requires_grad=True)

    return ModelState(config, params, vocab, tuple(label_set), seed, rng)


def count_parameters(model: ModelState) -> int:
    """Trainable elements; the frozen pretrained table is not counted."""
    return sum(p.size for p in model.params.values() if p.requires_grad)


def parameter_group_counts(model: ModelState) -> dict[str, int]:
    """Trainable element counts per top-level parameter group (prefix
    before the first dot)."""
    groups: dict[str, int] = {}
    for name, p in model.params.items():
        if p.requires_grad:
            group = name.split(".", 1)[0]
            groups[group] = groups.get(group, 0) + p.size
    return groups


# ---------------------------------------------------------------------------
# Instance encoding

@dataclass
class DocEncoding:
    doc_id: str
    ids: np.ndarray                 # one token id per document token
    adjacency: dict[str, TypeAdjacency]  # per kind, over the word types


@dataclass
class EncodedInstance:
    doc: DocEncoding
    head_start: int
    tail_start: int
    label: int
    iid: str


def encode_documents(docs: list[Document], vocab: Vocabulary,
                     graphs: CorpusGraphs | None,
                     config: ModelConfig) -> dict[str, DocEncoding]:
    if config.use_gcn and graphs is None:
        raise ValueError("the GCN branch needs the corpus graphs, and none "
                         "were given (a checkpoint saved without graphs "
                         "cannot run it)")
    out = {}
    for doc in docs:
        ids = token_ids(doc, vocab)
        adjacency = project_adjacency(ids, graphs) if config.use_gcn else {}
        out[doc.id] = DocEncoding(doc.id, ids, adjacency)
    return out


def encode_instances(instances: list[RelationInstance],
                     documents: dict[str, Document], vocab: Vocabulary,
                     graphs: CorpusGraphs | None,
                     config: ModelConfig) -> list[EncodedInstance]:
    doc_encodings = encode_documents(
        [documents[i] for i in sorted({inst.doc_id for inst in instances})],
        vocab, graphs, config)
    encoded = []
    for inst in instances:
        doc = documents[inst.doc_id]
        encoded.append(EncodedInstance(
            doc_encodings[inst.doc_id],
            head_start=doc.mentions[inst.head].token_span[0],
            tail_start=doc.mentions[inst.tail].token_span[0],
            label=inst.label,
            iid=inst.iid,
        ))
    return encoded


# ---------------------------------------------------------------------------
# Forward

def _dropout_mask(rng: np.random.Generator, p: float, valid: np.ndarray,
                  width: int) -> np.ndarray:
    """Inverted-dropout multipliers for a padded batch: one draw over the
    valid rows, in batch order, is the draws of the instances one at a
    time, so the random stream, and with it training, does not depend on
    batch padding."""
    mask = np.zeros(valid.shape + (width,))
    mask[valid] = ad.dropout_mask(rng, p, (int(valid.sum()), width))
    return mask


def forward(model: ModelState, batch: list[EncodedInstance],
            mode: str = "eval") -> Tensor:
    """Logits for a batch, shape (len(batch), label_count), from one
    padded computation (see the module docstring)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = model.config
    lengths = np.array([len(inst.doc.ids) for inst in batch])
    bsz, steps = len(batch), int(lengths.max())
    ids = np.full((bsz, steps), PAD_ID, dtype=np.int64)
    for i, inst in enumerate(batch):
        ids[i, :lengths[i]] = inst.doc.ids
    valid = np.arange(steps) < lengths[:, None]
    heads = np.array([inst.head_start for inst in batch])
    tails = np.array([inst.tail_start for inst in batch])

    p = model.params
    pos_head = p.get("embed.pos_head") if cfg.use_position else None
    pos_tail = p.get("embed.pos_tail") if cfg.use_position else None
    mask = (_dropout_mask(model.rng, cfg.dropout, valid, cfg.d_model)
            if mode == "train" and cfg.dropout > 0.0 else None)
    h = bilstm(embed_sequence(ids, heads, tails, p["embed.word"], pos_head,
                              pos_tail, cfg.max_dist),
               _lstm_direction(p, "fw"), _lstm_direction(p, "bw"), lengths, mask)

    # Each branch returns its pooled (B, d_model) features, so its
    # (B, T, .) intermediates are freed when it returns.
    key_bias = np.where(valid, 0.0, MASK_NEG)
    branches = [lambda x: _attention_features(model, x, key_bias)]
    if cfg.use_gcn:
        branches.append(lambda x: _gcn_features(model, batch, x, key_bias))
    rep = (ad.concat_branches(branches, h, axis=-1) if len(branches) > 1
           else branches[0](h))
    return ad.add_rowvec(ad.matmul(rep, p["clf.w"]), p["clf.b"])


def _lstm_direction(p: dict[str, Tensor], direction: str) -> tuple:
    return tuple(p[f"lstm.{direction}.{name}"] for name in ("wx", "wh", "b"))


def _masked_max_pool(x: Tensor, key_bias: np.ndarray) -> Tensor:
    """Max over the time axis of (B, T, d) states, with `key_bias`
    (0 or MASK_NEG per position) keeping padded positions out."""
    return ad.max_pool_over_time(x, key_bias[:, :, None])


def _attention_features(model: ModelState, h: Tensor,
                        key_bias: np.ndarray) -> Tensor:
    if model.config.attention == "none":
        return _masked_max_pool(h, key_bias)
    bsz, steps = key_bias.shape
    mask = Tensor(np.broadcast_to(key_bias[:, None, :], (bsz, steps, steps)))
    p = model.params
    heads = [tuple(p[f"attn.head{k}.{name}"] for name in ("wq", "wk", "wv"))
             for k in range(model.config.heads)]
    return _masked_max_pool(
        multi_head_attention(h, heads, p["attn.wo"], mask), key_bias)


def _gcn_features(model: ModelState, batch: list[EncodedInstance], h: Tensor,
                  key_bias: np.ndarray) -> Tensor:
    adjacency = batch_adjacency([inst.doc.adjacency for inst in batch],
                                key_bias.shape[1])
    m = h
    for layer in range(model.config.gcn_layers):
        prefix = f"gcn.layer{layer}"
        m = gcn_layer(m, adjacency,
                      [model.params[f"{prefix}.{kind}.w"] for kind in GRAPH_KINDS],
                      [model.params[f"{prefix}.{kind}.b"] for kind in GRAPH_KINDS])
    return _masked_max_pool(m, key_bias)


def loss(model: ModelState, batch: list[EncodedInstance],
         mode: str = "train") -> Tensor:
    labels = np.array([inst.label for inst in batch], dtype=np.int64)
    return ad.cross_entropy(forward(model, batch, mode), labels)


# Floats in the largest array of one eval forward: 2 MiB, about a
# training step's arrays at batch 8 and T = 100 with the default model.
EVAL_ARRAY_FLOATS = 1 << 18


def eval_logits(model: ModelState, batch: list[EncodedInstance]) -> np.ndarray:
    """Eval-mode logits, (len(batch), label_count), with gradients
    disabled, from one forward per chunk of instances. A padded
    forward's largest arrays, the (B, T, T) scores, adjacency and gather
    index and the (B, T, d_model) states, hold B * T * max(T, d_model)
    elements, so B is cut to keep each of them within EVAL_ARRAY_FLOATS
    at the batch's longest T.

    The chunks are independent, so `autodiff.run_all` shares them
    between the worker thread and this one when the first chunk's
    (B, T, d_model) state passes the size rule that its
    `concat_branches` call would use. The worker runs whole forwards
    from the front while this thread runs them from the back; a branch
    that a forward on the worker queues cannot start while that forward
    runs, so the worker takes it back and runs it there. Each chunk
    writes its own rows from the same ops on the same operands, so the
    logits are bitwise those of an all-inline run. Two chunks are alive
    at once: at `train_long`'s shapes (T = 100, default model, chunks of
    10) one 64-instance `predict` call peaks at 30-34 MB (tracemalloc),
    against 24-28 MB with the chunks in order and their branches
    threaded."""
    steps = max((len(inst.doc.ids) for inst in batch), default=1)
    per_instance = steps * max(steps, model.config.d_model)
    chunk = max(1, EVAL_ARRAY_FLOATS // per_instance)
    out = np.empty((len(batch), model.config.label_count))
    if not batch:
        return out

    def run(part: list[EncodedInstance], start: int) -> None:
        with ad.no_grad():
            out[start:start + len(part)] = forward(model, part, "eval").data

    first = batch[:chunk]
    floats = (len(first) * max(len(inst.doc.ids) for inst in first)
              * model.config.d_model)
    ad.run_all([functools.partial(run, batch[start:start + chunk], start)
                for start in range(0, len(batch), chunk)], floats)
    return out


def predict_proba(model: ModelState, batch: list[EncodedInstance]) -> np.ndarray:
    """Softmax label probabilities."""
    logits = eval_logits(model, batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(model: ModelState, batch: list[EncodedInstance]) -> np.ndarray:
    """Argmax labels."""
    return eval_logits(model, batch).argmax(axis=1)
