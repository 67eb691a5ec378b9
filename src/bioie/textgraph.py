"""Corpus-level word-pair graphs and their per-document projection.

Three graphs share one vocabulary:
  * semantic:  word pairs whose vector cosine passes a threshold,
               weighted by the fraction of co-occurrence documents in
               which the pair passed;
  * syntactic: word pairs linked by a dependency edge, weighted by the
               fraction of co-occurrence documents with such a link;
  * sequence:  sliding-window PMI, negative values clipped to zero.

PAD and UNK ids never enter pair statistics; at projection they are
isolated except for their self-loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .corpus import Document, EmbeddingTable, PAD_ID, UNK_ID, Vocabulary

log = logging.getLogger(__name__)

GRAPH_KINDS = ("semantic", "syntactic", "sequence")


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass
class WordPairStats:
    """Symmetric word-pair weights keyed by sorted id pairs."""
    counts: dict[tuple[int, int], float]
    weights: dict[tuple[int, int], float]

    def weight(self, a: int, b: int) -> float:
        return self.weights.get(_pair(a, b), 0.0)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero weights as parallel arrays (a ids, b ids, weights),
        a < b, built once on first use."""
        edges = [(a, b, w) for (a, b), w in self.weights.items() if w != 0.0]
        a_ids = np.array([e[0] for e in edges], dtype=np.int64)
        b_ids = np.array([e[1] for e in edges], dtype=np.int64)
        return a_ids, b_ids, np.array([e[2] for e in edges], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass
class CorpusGraphs:
    semantic: WordPairStats
    syntactic: WordPairStats
    sequence: WordPairStats
    theta: float
    window: int

    def by_kind(self, kind: str) -> WordPairStats:
        return getattr(self, kind)


@dataclass
class DocumentAdjacency:
    matrix: np.ndarray  # (n, n), symmetric, positive diagonal; or (B, n, n)
    degree: np.ndarray  # row sums, (n,) or (B, n)

    @property
    def normalized(self) -> np.ndarray:
        return self.matrix / self.degree[..., None]


def _doc_word_ids(doc: Document, vocab: Vocabulary) -> list[int]:
    seen: dict[int, None] = {}
    for t in doc.tokens:
        tid = vocab.id(t.surface)
        if tid not in (PAD_ID, UNK_ID):
            seen.setdefault(tid, None)
    return list(seen)


def build_semantic_graph(docs: list[Document], embeddings: EmbeddingTable,
                         vocab: Vocabulary, theta: float) -> WordPairStats:
    """Count, per document, the in-document word pairs whose word-vector
    cosine similarity reaches `theta`; weight = count / co-occurrence
    documents."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    zero_norm_logged: set[int] = set()
    norms = np.linalg.norm(embeddings.vectors, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_rows = np.where(norms[:, None] > 0.0,
                             embeddings.vectors / norms[:, None], 0.0)

    counts: dict[tuple[int, int], float] = {}
    co_docs: dict[tuple[int, int], int] = {}
    for doc in docs:
        vecs = {}
        for i in _doc_word_ids(doc, vocab):
            if np.linalg.norm(embeddings.vectors[i]) == 0.0:
                if i not in zero_norm_logged:
                    log.warning("word id %d has a zero-norm vector; "
                                "skipping its semantic edges", i)
                    zero_norm_logged.add(i)
                continue
            vecs[i] = unit_rows[i]
        usable = sorted(vecs)
        for a, b in combinations(usable, 2):
            key = _pair(a, b)
            co_docs[key] = co_docs.get(key, 0) + 1
            if float(vecs[a] @ vecs[b]) >= theta:
                counts[key] = counts.get(key, 0.0) + 1.0
    weights = {key: c / co_docs[key] for key, c in counts.items()}
    return WordPairStats(counts, weights)


def build_syntactic_graph(docs: list[Document], vocab: Vocabulary
                          ) -> WordPairStats:
    """Count documents in which a word pair is linked by a dependency
    edge; weight = count / documents where the pair co-occurs."""
    counts: dict[tuple[int, int], float] = {}
    co_docs: dict[tuple[int, int], int] = {}
    linked_pairs: set[tuple[int, int]] = set()
    per_doc_links: list[tuple[list[int], set[tuple[int, int]]]] = []
    for doc in docs:
        links: set[tuple[int, int]] = set()
        for i, j, _rel in doc.dep_edges:
            a = vocab.id(doc.tokens[i].surface)
            b = vocab.id(doc.tokens[j].surface)
            if a in (PAD_ID, UNK_ID) or b in (PAD_ID, UNK_ID) or a == b:
                continue
            links.add(_pair(a, b))
        for key in links:
            counts[key] = counts.get(key, 0.0) + 1.0
        linked_pairs.update(links)
        per_doc_links.append((_doc_word_ids(doc, vocab), links))
    for ids, _links in per_doc_links:
        present = set(ids)
        for key in linked_pairs:
            if key[0] in present and key[1] in present:
                co_docs[key] = co_docs.get(key, 0) + 1
    weights = {key: c / co_docs[key] for key, c in counts.items()}
    return WordPairStats(counts, weights)


def build_sequence_graph(docs: list[Document], vocab: Vocabulary,
                         window: int) -> WordPairStats:
    """Sliding-window PMI over token sequences; windows shorter than
    `window` arise only from documents shorter than the window. Negative
    PMI is clipped to zero."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    total_windows = 0
    word_windows: dict[int, int] = {}
    pair_windows: dict[tuple[int, int], int] = {}
    for doc in docs:
        ids = [vocab.id(t.surface) for t in doc.tokens
               if vocab.id(t.surface) not in (PAD_ID, UNK_ID)]
        if not ids:
            continue
        spans = [(0, len(ids))] if len(ids) <= window else [
            (s, s + window) for s in range(len(ids) - window + 1)]
        for s, e in spans:
            total_windows += 1
            uniq = sorted(set(ids[s:e]))
            for w in uniq:
                word_windows[w] = word_windows.get(w, 0) + 1
            for a, b in combinations(uniq, 2):
                key = (a, b)
                pair_windows[key] = pair_windows.get(key, 0) + 1
    counts: dict[tuple[int, int], float] = {}
    weights: dict[tuple[int, int], float] = {}
    if total_windows == 0:
        return WordPairStats(counts, weights)
    for key, n_ab in pair_windows.items():
        p_ab = n_ab / total_windows
        p_a = word_windows[key[0]] / total_windows
        p_b = word_windows[key[1]] / total_windows
        pmi = math.log(p_ab / (p_a * p_b))
        counts[key] = float(n_ab)
        if pmi > 0.0:
            weights[key] = pmi
    return WordPairStats(counts, weights)


def build_corpus_graphs(docs: list[Document], embeddings: EmbeddingTable,
                        vocab: Vocabulary, theta: float = 0.9,
                        window: int = 20) -> CorpusGraphs:
    return CorpusGraphs(
        semantic=build_semantic_graph(docs, embeddings, vocab, theta),
        syntactic=build_syntactic_graph(docs, vocab),
        sequence=build_sequence_graph(docs, vocab, window),
        theta=theta,
        window=window,
    )


def project_adjacency(doc: Document, graphs: CorpusGraphs, vocab: Vocabulary
                      ) -> dict[str, DocumentAdjacency]:
    """Per-graph token adjacency for one document: corpus weights looked
    up by word-type pair, unit self-loops, PAD/UNK isolated."""
    ids = np.array([vocab.id(t.surface) for t in doc.tokens], dtype=np.int64)
    special = (ids == PAD_ID) | (ids == UNK_ID)
    uniq, inv = np.unique(ids, return_inverse=True)
    probe = np.append(uniq, -1)  # past-the-end slot that matches no id
    out: dict[str, DocumentAdjacency] = {}
    for kind in GRAPH_KINDS:
        a_ids, b_ids, w = graphs.by_kind(kind).edge_arrays
        # Corpus edges whose two word types both occur in the document,
        # as a weight matrix over the document's word types.
        ia = np.searchsorted(uniq, a_ids)
        ib = np.searchsorted(uniq, b_ids)
        hit = (probe[ia] == a_ids) & (probe[ib] == b_ids)
        types = np.zeros((len(uniq), len(uniq)))
        types[ia[hit], ib[hit]] = w[hit]
        types[ib[hit], ia[hit]] = w[hit]
        # Row sums below must see the same memory layout as a fresh
        # matrix, or the degrees can differ in the last bit.
        a = np.ascontiguousarray(types[inv][:, inv])
        a[special, :] = 0.0
        a[:, special] = 0.0
        np.fill_diagonal(a, 1.0)
        out[kind] = DocumentAdjacency(a, a.sum(axis=1))
    return out


def dump_graphs(graphs: CorpusGraphs, vocab: Vocabulary, path) -> None:
    """Write a diffable edge list: graph_kind, word_a, word_b, weight,
    sorted lexicographically."""
    id_to_token = {tid: tok for tok, tid in vocab.token_to_id.items()}
    lines = []
    for kind in GRAPH_KINDS:
        for (a, b), w in graphs.by_kind(kind).weights.items():
            wa, wb = sorted((id_to_token[a], id_to_token[b]))
            lines.append(f"{kind}\t{wa}\t{wb}\t{w:.10g}")
    lines.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
