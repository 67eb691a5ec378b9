"""End-to-end classifier assembly: parameter registry, ablation
variants, instance encoding, the forward pass, and the training loss.

Forward path per instance: embed tokens -> bidirectional LSTM ->
{self-attention branch, graph-convolution branch over the three
projected graphs} -> masked max-pool per branch -> concatenate ->
affine classifier. Ablated branches are skipped and the classifier
narrows accordingly.

The graph-convolution branch keeps one node state m, starting from the
LSTM output; each layer replaces it by mean_k tanh(A_k m W_k + b_k)
over the graph kinds k, with A_k the degree-normalized adjacency.

Encoding cuts each document to its real prefix once: ids, pad mask and
every adjacency drop the trailing padding, so no branch sees it (the
backward LSTM starts at the last real token).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingTable, PAD_ID, RelationInstance, Vocabulary
from .layers import (
    AttentionHeadParams,
    AttentionParams,
    LstmDirectionParams,
    LstmParams,
    ModelConfig,
    bilstm,
    embed_sequence,
    embedding_init,
    gcn_propagate,
    glorot,
    init_lstm_direction,
    inter_graph_mix,
    multi_head_attention,
)
from .textgraph import GRAPH_KINDS, CorpusGraphs, DocumentAdjacency, project_adjacency

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
    params: dict[str, Tensor]    # trainable registry, insertion-ordered
    buffers: dict[str, Tensor]   # frozen tensors (pretrained word table)
    vocab: Vocabulary
    label_set: tuple[str, ...]
    seed: int
    rng: np.random.Generator
    optimizer: object | None = None

    def word_table(self) -> Tensor:
        return self.params.get("embed.word") or self.buffers["embed.word"]

    def lstm_params(self) -> LstmParams:
        p = self.params
        return LstmParams(
            fw=LstmDirectionParams(p["lstm.fw.wx"], p["lstm.fw.wh"], p["lstm.fw.b"]),
            bw=LstmDirectionParams(p["lstm.bw.wx"], p["lstm.bw.wh"], p["lstm.bw.b"]),
        )

    def attention_params(self) -> AttentionParams:
        heads = []
        for k in range(self.config.effective_heads):
            heads.append(AttentionHeadParams(
                self.params[f"attn.head{k}.wq"],
                self.params[f"attn.head{k}.wk"],
                self.params[f"attn.head{k}.wv"],
            ))
        return AttentionParams(heads, self.params["attn.wo"])


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
        return replace(base, attention="single", heads=1,
                       head_dim=base.effective_head_dim)
    if variant == "no_gcn":
        return replace(base, use_gcn=False)
    raise ValueError(f"unknown ablation variant {variant!r}; "
                     f"expected one of {ABLATION_VARIANTS}")


def init_model(config: ModelConfig, vocab: Vocabulary,
               embeddings: EmbeddingTable | None = None, seed: int = 0,
               label_set: tuple[str, ...] = ("null", "positive")) -> ModelState:
    """Allocate and initialize every parameter of the configured variant;
    bitwise deterministic for a given seed."""
    if len(label_set) != config.label_count:
        config = replace(config, label_count=len(label_set))
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    buffers: dict[str, Tensor] = {}

    if config.use_pretrained:
        if embeddings is not None:
            if embeddings.dim != config.d_w:
                raise ValueError(
                    f"embedding table dim {embeddings.dim} != config d_w {config.d_w}")
            table = embeddings.vectors.copy()
        else:
            table = embedding_init(rng, vocab.size, config.d_w)
        buffers["embed.word"] = Tensor(table)
    else:
        params["embed.word"] = Tensor(
            embedding_init(rng, vocab.size, config.d_w), requires_grad=True)

    if config.use_position:
        rows = 2 * config.max_dist + 1
        params["embed.pos_head"] = Tensor(
            embedding_init(rng, rows, config.d_p), requires_grad=True)
        params["embed.pos_tail"] = Tensor(
            embedding_init(rng, rows, config.d_p), requires_grad=True)

    width = config.token_width
    for direction in ("fw", "bw"):
        d = init_lstm_direction(rng, width, config.hidden)
        params[f"lstm.{direction}.wx"] = d.wx
        params[f"lstm.{direction}.wh"] = d.wh
        params[f"lstm.{direction}.b"] = d.b

    if config.attention != "none":
        d_model = config.d_model
        hd = config.effective_head_dim
        n_heads = config.effective_heads
        for k in range(n_heads):
            for name in ("wq", "wk", "wv"):
                params[f"attn.head{k}.{name}"] = Tensor(
                    glorot(rng, d_model, hd), requires_grad=True)
        params["attn.wo"] = Tensor(
            glorot(rng, n_heads * hd, d_model), requires_grad=True)

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

    return ModelState(config, params, buffers, vocab, tuple(label_set), seed, rng)


def count_parameters(model: ModelState) -> int:
    return sum(p.size for p in model.params.values())


def parameter_group_counts(model: ModelState) -> dict[str, int]:
    """Element counts per top-level parameter group (prefix before the
    first dot)."""
    groups: dict[str, int] = {}
    for name, p in model.params.items():
        group = name.split(".", 1)[0]
        groups[group] = groups.get(group, 0) + p.size
    return groups


# ---------------------------------------------------------------------------
# Instance encoding

@dataclass
class DocEncoding:
    doc_id: str
    ids: np.ndarray                 # token ids, trailing PAD dropped
    pad: np.ndarray                 # boolean pad positions
    adjacency: dict[str, DocumentAdjacency]  # len(ids) square per kind


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
    out = {}
    for doc in docs:
        ids = np.array([vocab.id(t.surface) for t in doc.tokens], dtype=np.int64)
        pad = np.array([t.surface == "<pad>" for t in doc.tokens], dtype=bool)
        n = len(ids)
        while n > 1 and pad[n - 1]:
            n -= 1
        adjacency = {}
        if config.use_gcn and graphs is not None:
            # Trailing pad nodes carry only their self-loop, so cutting
            # them leaves the degrees of the kept nodes unchanged.
            adjacency = {kind: DocumentAdjacency(a.matrix[:n, :n], a.degree[:n])
                         for kind, a in project_adjacency(doc, graphs, vocab).items()}
        out[doc.id] = DocEncoding(doc.id, ids[:n], pad[:n], adjacency)
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

def _instance_logits(model: ModelState, inst: EncodedInstance, mode: str) -> Tensor:
    cfg = model.config
    enc = inst.doc
    ids, pad = enc.ids, enc.pad
    n = len(ids)
    pos_head = model.params.get("embed.pos_head") if cfg.use_position else None
    pos_tail = model.params.get("embed.pos_tail") if cfg.use_position else None
    seq = embed_sequence(ids, inst.head_start, inst.tail_start,
                         model.word_table(), pos_head, pos_tail, cfg.max_dist)
    h = bilstm(seq, model.lstm_params())
    if mode == "train" and cfg.dropout > 0.0:
        h = ad.dropout(h, cfg.dropout, "train", model.rng)

    has_pad = bool(pad.any())
    pool_mask = None
    if has_pad:
        pool_mask = Tensor(np.where(pad[:, None], MASK_NEG, 0.0)
                           * np.ones((1, cfg.d_model)))

    branches = []
    if cfg.attention != "none":
        attn_mask = None
        if has_pad:
            attn_mask = Tensor(np.where(pad[None, :], MASK_NEG, 0.0)
                               * np.ones((n, 1)))
        attended = multi_head_attention(h, model.attention_params(), attn_mask)
    else:
        attended = h
    pooled = ad.max_pool_over_time(
        ad.add(attended, pool_mask) if has_pad else attended)
    branches.append(pooled)

    if cfg.use_gcn:
        m = h
        for layer in range(cfg.gcn_layers):
            m = inter_graph_mix([
                gcn_propagate(m, enc.adjacency[kind],
                              model.params[f"gcn.layer{layer}.{kind}.w"],
                              model.params[f"gcn.layer{layer}.{kind}.b"])
                for kind in GRAPH_KINDS
            ])
        branches.append(ad.max_pool_over_time(
            ad.add(m, pool_mask) if has_pad else m))

    rep = ad.concat(branches, axis=0) if len(branches) > 1 else branches[0]
    row = ad.matmul(ad.reshape(rep, (1, cfg.classifier_width)),
                    model.params["clf.w"])
    return ad.add(row, model.params["clf.b"])


def forward(model: ModelState, batch: list[EncodedInstance],
            mode: str = "eval") -> Tensor:
    """Logits for a batch, shape (len(batch), label_count). Instances are
    processed independently, so batching never changes per-instance
    values."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    rows = [_instance_logits(model, inst, mode) for inst in batch]
    return ad.concat(rows, axis=0) if len(rows) > 1 else rows[0]


def loss(model: ModelState, batch: list[EncodedInstance],
         mode: str = "train") -> Tensor:
    labels = np.array([inst.label for inst in batch], dtype=np.int64)
    return ad.cross_entropy(forward(model, batch, mode), labels)


def predict_proba(model: ModelState, batch: list[EncodedInstance]) -> np.ndarray:
    with ad.no_grad():
        logits = forward(model, batch, "eval").data
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(model: ModelState, batch: list[EncodedInstance],
            chunk: int = 64) -> np.ndarray:
    """Argmax labels, evaluated in chunks with gradients disabled."""
    out = np.empty(len(batch), dtype=np.int64)
    for start in range(0, len(batch), chunk):
        part = batch[start:start + chunk]
        with ad.no_grad():
            logits = forward(model, part, "eval").data
        out[start:start + len(part)] = logits.argmax(axis=1)
    return out


# ---------------------------------------------------------------------------
# Per-document word states (for rebuilding the semantic graph from a
# trained encoder)

def word_states_from_bilstm(model: ModelState, docs: list[Document]
                            ) -> dict[str, dict[int, np.ndarray]]:
    """Mean encoder state per word type per document; feeds the
    per-document-vector mode of the semantic graph builder."""
    out: dict[str, dict[int, np.ndarray]] = {}
    cfg = model.config
    pos_head = model.params.get("embed.pos_head") if cfg.use_position else None
    pos_tail = model.params.get("embed.pos_tail") if cfg.use_position else None
    for doc in docs:
        ids = np.array([model.vocab.id(t.surface) for t in doc.tokens],
                       dtype=np.int64)
        with ad.no_grad():
            seq = embed_sequence(ids, 0, 0, model.word_table(), pos_head,
                                 pos_tail, cfg.max_dist)
            h = bilstm(seq, model.lstm_params()).data
        buckets: dict[int, list[np.ndarray]] = {}
        for pos, tid in enumerate(ids):
            if tid not in (PAD_ID,):
                buckets.setdefault(int(tid), []).append(h[pos])
        out[doc.id] = {tid: np.mean(rows, axis=0) for tid, rows in buckets.items()}
    return out
