"""Corpus-level word-pair graphs and their per-document projection.

Three graphs share one vocabulary:
  * semantic:  word pairs that share a document and whose vector cosine
               reaches a threshold, each with weight 1.0;
  * syntactic: word pairs linked by a dependency edge, weighted by the
               fraction of co-occurrence documents with such a link;
  * sequence:  sliding-window PMI, negative values clipped to zero.

Each graph is kept as aligned arrays over the word pairs a < b that its
builder counted, sorted by pair: `keys` (`a << 32 | b`), `count` and
`edge_weight` (0.0 where the pair has no edge). `weights` is a dict view
of the nonzero weights.

PAD and UNK ids never enter pair statistics; at projection they are
isolated except for their self-loop.

A set-up maps each document to ids, finds its distinct word types and
forms its word pairs once (`WordTypes`): `build_corpus_graphs` makes
one record per document and the three builders read them. Projection
makes the same record from a document's ids, and looks its pairs up
once, in one table of the pairs that weigh nonzero in some kind, with
every kind's weights (`CorpusGraphs.pair_table`).

A document's projection is held at the size of its edges
(`TypeAdjacency`): one (n,) index `inv` from token to the document's u
distinct ids, and the int32 positions, in the (u, u) type matrix, of
its word pairs found in that table, with the int32 places of those
pairs in the table. The three kinds share these arrays and the table
itself; each kind adds only its (n,) degree, its own 2-D row sum of the
token matrix, taken once at projection from a dense expansion that is
then dropped. `types` and `matrix` build the (u, u) and (n, n) matrices
on demand. `batch_adjacency` expands a whole padded batch at once, into
each kind's degree-normalized matrix, through one gather index that the
kinds share: this module alone knows the layout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .corpus import (
    PAD_ID,
    UNK_ID,
    CorpusFormatError,
    Document,
    EmbeddingTable,
    Vocabulary,
)

log = logging.getLogger(__name__)

GRAPH_KINDS = ("semantic", "syntactic", "sequence")


def pair_key(a, b) -> np.ndarray:
    """The key of word-id pairs a < b; ids are below 2**32."""
    return np.asarray(a, dtype=np.int64) << 32 | np.asarray(b, dtype=np.int64)


def pair_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids (a, b) of each pair key."""
    return keys >> 32, keys & 0xFFFFFFFF


def find_keys(table, keys) -> tuple[np.ndarray, np.ndarray]:
    """The slot of each key in the sorted array `table`, and whether the
    key is there; a slot is meaningful only where it is."""
    slot = np.minimum(np.searchsorted(table, keys), max(len(table) - 1, 0))
    found = table[slot] == keys if len(table) else np.zeros(len(keys), bool)
    return slot, found


@dataclass(eq=False)
class WordPairStats:
    """One graph's word-pair statistics (layout in the module docstring)."""
    keys: np.ndarray
    count: np.ndarray
    edge_weight: np.ndarray

    @cached_property
    def weights(self) -> dict[tuple[int, int], float]:
        """The nonzero weights by pair (a, b), a < b."""
        edge = self.edge_weight != 0.0
        a, b = (ids[edge].tolist() for ids in pair_ids(self.keys))
        return dict(zip(zip(a, b), self.edge_weight[edge].tolist()))

    def weight(self, a: int, b: int) -> float:
        return self.weights.get((min(a, b), max(a, b)), 0.0)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.edge_weight))


@dataclass
class CorpusGraphs:
    semantic: WordPairStats
    syntactic: WordPairStats
    sequence: WordPairStats
    theta: float
    window: int

    def by_kind(self, kind: str) -> WordPairStats:
        return getattr(self, kind)

    @cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted keys of the K pairs that weigh nonzero in some kind,
        and their edge weights, one row of K per kind in `GRAPH_KINDS`
        order. Built on first use; never saved."""
        stats = [self.by_kind(kind) for kind in GRAPH_KINDS]
        keys = _distinct(np.concatenate([s.keys[s.edge_weight != 0.0]
                                         for s in stats]))
        weights = np.zeros((len(stats), len(keys)))
        for row, s in zip(weights, stats):
            slot, found = find_keys(keys, s.keys)
            row[slot[found]] = s.edge_weight[found]
        return keys, weights


@dataclass
class DocumentAdjacency:
    matrix: np.ndarray  # (n, n), symmetric, positive diagonal; or (B, n, n)
    degree: np.ndarray  # row sums, (n,) or (B, n)

    @cached_property
    def normalized(self) -> np.ndarray:
        return self.matrix / self.degree[..., None]


@dataclass(eq=False, slots=True)
class TypeAdjacency:
    """One graph kind's adjacency of one document, held at the size of
    its edges. Token i is type `inv[i]` of the document's `size` distinct
    ids. The (u, u) symmetric type matrix is zero but at the flat
    positions `positions` (i * u + j, i < j) and their mirrors, which
    hold `weights[row, slots]`: `positions` lists the document's word
    pairs that have a weight in any kind, `slots` their places in
    `CorpusGraphs.pair_table`, and `weights` is that table's weights,
    shared by every document, of which this kind reads `row`. The kinds
    share `inv`, `positions` and `slots`.

    `types` and `matrix` build that matrix, and the (n, n) token matrix
    with a unit diagonal, anew on every access; `matrix` expands it by
    two 1-D takes, `types.take(inv, 0).take(inv, 1)`. `degree` is that
    token matrix's 2-D row sum, which `project_adjacency` takes once.
    Sums over another memory layout, or over a stack of the kinds, can
    differ in the last bit, so each kind keeps its own."""
    inv: np.ndarray        # (n,) type of each token
    size: int              # u, the distinct ids; PAD and UNK types stay zero
    positions: np.ndarray  # (m,) int32 flat upper-triangle positions
    slots: np.ndarray      # (m,) int32 places of those pairs in `weights`
    weights: np.ndarray    # (len(GRAPH_KINDS), K) pair-table weights
    row: int               # this kind's row of `weights`
    degree: np.ndarray     # (n,)

    @property
    def types(self) -> np.ndarray:
        """The (u, u) type matrix."""
        types = np.zeros((self.size, self.size))
        rows, cols = np.divmod(self.positions, self.size)
        types[rows, cols] = types[cols, rows] = self.weights[self.row, self.slots]
        return types

    @property
    def matrix(self) -> np.ndarray:
        """The (n, n) token matrix."""
        return _token_matrix(self.types, self.inv)


def _token_matrix(types: np.ndarray, inv: np.ndarray) -> np.ndarray:
    a = types.take(inv, 0).take(inv, 1)
    np.fill_diagonal(a, 1.0)
    return a


def batch_adjacency(adjacencies: list[dict[str, TypeAdjacency]], steps: int
                    ) -> list[np.ndarray]:
    """Each kind's degree-normalized adjacency A/d for a batch of
    documents padded to `steps` tokens, (B, steps, steps), in
    `GRAPH_KINDS` order. Padded nodes keep only a unit self-loop, so no
    real node aggregates from them. The documents must share one
    corpus graph's weights; otherwise ValueError.

    Every kind is gathered with one `np.take` through one flat index
    into a buffer holding 0.0, 1.0 and then, in batch order, each
    document's raveled type matrix with one more type, all zeros, that
    the batch padding takes: the kinds share each document's
    token-to-type index and type count. So the index is one broadcast
    sum over the batch's padded (B, steps) types, after which the
    diagonal points at the 1.0. The batch's pair positions in the
    buffer, upper and mirrored, and their slots are concatenated once
    for the kinds; each kind gathers its weights through the slots and
    scatters them into a zeroed buffer. Each gathered matrix is divided
    in place by its padded row sums, which gives the bits of
    `DocumentAdjacency.normalized`. A degree that is not positive (a
    missing self-loop, or NaN) raises ValueError. No numpy call is made
    per document."""
    docs = [doc[GRAPH_KINDS[0]] for doc in adjacencies]
    weights = docs[0].weights
    if any(adj.weights is not weights for adj in docs):
        raise ValueError("gcn: a batch's documents were projected from "
                         "different corpus graphs")
    valid = np.arange(steps) < np.array([len(adj.inv) for adj in docs])[:, None]
    degree = np.ones((len(GRAPH_KINDS), len(docs), steps))
    for kind, kind_degree in zip(GRAPH_KINDS, degree):
        kind_degree[valid] = np.concatenate([doc[kind].degree for doc in adjacencies])
    if not np.all(degree > 0.0):
        raise ValueError("gcn: zero-degree node (self-loops missing)")
    size = np.array([adj.size for adj in docs])
    width = size + 1  # type `size` is the padding type
    start = np.cumsum(np.concatenate(([2], width * width)))
    types = np.repeat(size, steps).reshape(valid.shape)
    types[valid] = np.concatenate([adj.inv for adj in docs])
    index = ((types * width[:, None] + start[:-1, None])[:, :, None]
             + types[:, None, :])
    index[:, np.arange(steps), np.arange(steps)] = 1
    counts = [len(adj.positions) for adj in docs]
    i, j = np.divmod(np.concatenate([adj.positions for adj in docs], dtype=np.intp),
                     np.repeat(size, counts))
    width, first = np.repeat(width, counts), np.repeat(start[:-1], counts)
    positions = np.concatenate((i * width + j + first, j * width + i + first))
    slots = np.concatenate([adj.slots for adj in docs] * 2)
    out = []
    for row, kind_degree in enumerate(degree):
        flat = np.zeros(start[-1])
        flat[1] = 1.0
        flat[positions] = weights[row].take(slots)
        out.append(np.take(flat, index))
        out[-1] /= kind_degree[:, :, None]
    return out


def token_ids(doc: Document, vocab: Vocabulary) -> np.ndarray:
    """The vocabulary id of every token, PAD and UNK included: `vocab.id`
    of each surface, looked up by C-level `map`s."""
    surfaces = map(attrgetter("surface"), doc.tokens)
    return np.fromiter(map(vocab.token_to_id.get, surfaces, repeat(UNK_ID)),
                       np.int64, len(doc.tokens))


def _is_word(ids: np.ndarray) -> np.ndarray:
    return (ids != PAD_ID) & (ids != UNK_ID)


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of `ids`. Sorts rather than calling
    `np.unique`, whose hash-table path adds about 1.6 MB of resident
    memory to the process on first use (numpy 2.4)."""
    ids = np.sort(ids)
    return ids[np.concatenate(([True], ids[1:] != ids[:-1]))] if len(ids) else ids


# Documents whose pair keys are held before they are merged into the
# running counts; keeps peak memory near the size of the result.
MERGE_EVERY = 32


class _PairCounter:
    """Counts per word-pair key, added one document at a time and merged
    every `MERGE_EVERY` documents."""

    def __init__(self):
        self.keys = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, keys: np.ndarray, counts: np.ndarray | None = None) -> None:
        self._pending.append(
            (keys, np.ones(len(keys)) if counts is None else counts))
        if len(self._pending) == MERGE_EVERY:
            self._merge()

    def _merge(self) -> None:
        keys = np.concatenate([self.keys] + [k for k, _ in self._pending])
        counts = np.concatenate([self.counts] + [c for _, c in self._pending])
        self.keys, inv = np.unique(keys, return_inverse=True)
        self.counts = np.bincount(inv, counts, len(self.keys)).astype(float)
        self._pending = []

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique keys and their summed float64 counts."""
        self._merge()
        return self.keys, self.counts


@dataclass(eq=False)
class WordTypes:
    """One document's token ids, distinct ids and word pairs, as
    `word_types` computes them once for the three builders and for
    projection."""
    ids: np.ndarray    # (n,) token ids, PAD and UNK included
    inv: np.ndarray    # (n,) each token's index into the sorted distinct ids
    skip: int          # distinct ids that are PAD or UNK; they sort first
    words: np.ndarray  # (u,) sorted distinct word ids
    upper: np.ndarray  # (u, u) mask of the word pairs a < b
    pairs: np.ndarray  # the keys of those pairs, row by row
    doc: Document | None = None  # the source; its edges feed the syntactic graph

    @property
    def word_inv(self) -> np.ndarray:
        """Each word token's index into `words`, in document order."""
        return self.inv[_is_word(self.ids)] - self.skip


def word_types(ids: np.ndarray, doc: Document | None = None) -> WordTypes:
    """The `WordTypes` of token ids `ids`. `np.unique` sorts PAD_ID 0 and
    UNK_ID 1 before every word id, so the word types are the distinct
    ids after the first `skip`, and a word token's index into them is
    its index into all distinct ids minus `skip`."""
    uniq, inv = np.unique(ids, return_inverse=True)
    skip = int(np.count_nonzero(~_is_word(uniq)))
    words = uniq[skip:]
    upper = words[:, None] < words
    pairs = pair_key(words[:, None], words)[upper]
    return WordTypes(ids, inv, skip, words, upper, pairs, doc)


def _per_document(docs: list[Document] | list[WordTypes], vocab: Vocabulary
                  ) -> list[WordTypes]:
    """`docs` as `WordTypes` records: records pass through, and each
    Document is mapped with `word_types`."""
    return [d if isinstance(d, WordTypes) else word_types(token_ids(d, vocab), d)
            for d in docs]


def build_semantic_graph(docs: list[Document] | list[WordTypes],
                         embeddings: EmbeddingTable, vocab: Vocabulary,
                         theta: float) -> WordPairStats:
    """Edges between word types that share a document and whose vector
    cosine similarity reaches `theta`. A vector belongs to its word type,
    so a pair passes in every document it shares or in none: every edge
    weighs 1.0, and its count is the number of documents the pair shares.
    Words with a zero-norm vector get no edge."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    vectors = embeddings.vectors
    norms = np.linalg.norm(vectors, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_rows = np.where(norms[:, None] > 0.0, vectors / norms[:, None], 0.0)
    checked = np.zeros(len(vectors), dtype=bool)
    passed = _PairCounter()
    for d in _per_document(docs, vocab):
        u = d.words
        for w in u[~checked[u]].tolist():
            checked[w] = True
            if np.linalg.norm(vectors[w]) == 0.0:
                log.warning("word id %d has a zero-norm vector; "
                            "skipping its semantic edges", w)
        # A zero-norm word has a zero unit row: cosine 0 < theta.
        rows = unit_rows[u]
        cos = (rows @ rows.T)[d.upper]
        ok = cos >= theta
        # A matrix product can round differently from a 1-D dot product;
        # pairs this close to theta are decided by the dot product.
        for p in np.nonzero(np.abs(cos - theta) <= 1e-9)[0]:
            a, b = pair_ids(d.pairs[p])
            ok[p] = float(unit_rows[a] @ unit_rows[b]) >= theta
        passed.add(d.pairs[ok])
    keys, counts = passed.result()
    return WordPairStats(keys, counts, np.ones(len(keys)))


def build_syntactic_graph(docs: list[Document] | list[WordTypes],
                          vocab: Vocabulary) -> WordPairStats:
    """Count documents in which a word pair is linked by a dependency
    edge; weight = count / documents where the pair co-occurs. A
    dependency edge index outside the document raises
    `CorpusFormatError`."""
    records = _per_document(docs, vocab)
    linked = _PairCounter()
    for d in records:
        ids = d.ids
        edges = d.doc.dep_edges
        edges = np.fromiter(chain.from_iterable(map(itemgetter(0, 1), edges)),
                            np.int64, 2 * len(edges)).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= len(ids)):
            raise CorpusFormatError(
                f"document {d.doc.id}: dependency edge index outside "
                f"[0, {len(ids)})")
        a, b = ids[edges[:, 0]], ids[edges[:, 1]]
        keep = (a != b) & _is_word(a) & _is_word(b)
        a, b = a[keep], b[keep]
        linked.add(_distinct(pair_key(np.minimum(a, b), np.maximum(a, b))))
    keys, counts = linked.result()
    co_docs = np.zeros(len(keys))
    for d in records:
        # The linked pairs among the document's own pairs; each pair key
        # occurs once per document.
        slot, found = find_keys(keys, d.pairs)
        co_docs[slot[found]] += 1.0
    return WordPairStats(keys, counts, counts / co_docs)


def _window_gram(inv: np.ndarray, types: int, window: int
                 ) -> tuple[np.ndarray, int]:
    """The Gram matrix of a document's (windows x types) presence matrix,
    and its window count. The document is given as type indices `inv`.
    Entry (x, y) counts the windows holding both types, and the diagonal
    the windows holding each. A document no longer than `window` is one
    window."""
    if len(inv) <= window:
        return np.ones((types, types)), 1
    seen = np.zeros((len(inv) + 1, types))  # row s: occurrences before s
    seen[np.arange(1, len(inv) + 1), inv] = 1.0
    np.cumsum(seen, axis=0, out=seen)
    present = (seen[window:] > seen[:-window]).astype(np.float64)
    return present.T @ present, len(present)


def build_sequence_graph(docs: list[Document] | list[WordTypes],
                         vocab: Vocabulary, window: int) -> WordPairStats:
    """Sliding-window PMI over token sequences; windows shorter than
    `window` arise only from documents shorter than the window. Negative
    PMI is clipped to zero."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    total_windows = 0
    word_windows = np.zeros(vocab.size)
    pair_windows = _PairCounter()
    for d in _per_document(docs, vocab):
        u = d.words
        if not len(u):
            continue
        gram, windows = _window_gram(d.word_inv, len(u), window)
        total_windows += windows
        word_windows[u] += np.diagonal(gram)
        gram = gram[d.upper]
        hit = gram > 0.0
        pair_windows.add(d.pairs[hit], gram[hit])
    keys, n_ab = pair_windows.result()
    # Each float operation of `math.log(p_ab / (p_a * p_b))` on exact
    # integer counts, elementwise; `np.log` could differ in the last bit.
    p_ab = n_ab / total_windows
    p_a, p_b = (word_windows[ids] / total_windows for ids in pair_ids(keys))
    pmi = np.array([math.log(r) for r in (p_ab / (p_a * p_b)).tolist()])
    return WordPairStats(keys, n_ab, np.where(pmi > 0.0, pmi, 0.0))


def build_corpus_graphs(docs: list[Document], embeddings: EmbeddingTable,
                        vocab: Vocabulary, theta: float = 0.9,
                        window: int = 20) -> CorpusGraphs:
    """The three graphs of `docs`, each document mapped to its
    `WordTypes` once for all three builders. The records live only for
    this call, which ends at the sequence builder's last read of them;
    they keep each document's pairs a < b, not its (u, u) key matrix."""
    records = _per_document(docs, vocab)
    return CorpusGraphs(
        semantic=build_semantic_graph(records, embeddings, vocab, theta),
        syntactic=build_syntactic_graph(records, vocab),
        sequence=build_sequence_graph(records, vocab, window),
        theta=theta,
        window=window,
    )


def project_adjacency(ids: np.ndarray, graphs: CorpusGraphs
                      ) -> dict[str, TypeAdjacency]:
    """Per-graph adjacency for one document's token ids: corpus weights
    looked up by word-type pair, unit self-loops, PAD/UNK isolated. The
    kinds share one token-to-type index, and one lookup of the
    document's word pairs in `graphs.pair_table`; only the pairs with a
    weight in some kind are kept."""
    d = word_types(ids)
    table, weights = graphs.pair_table
    slot, found = find_keys(table, d.pairs)
    slots = slot[found].astype(np.int32)
    rows, cols = np.nonzero(d.upper)
    # Word type k is distinct id k + skip; PAD and UNK rows stay zero.
    i, j = rows[found] + d.skip, cols[found] + d.skip
    size = d.skip + len(d.words)
    types = np.zeros((len(GRAPH_KINDS), size, size))
    types[:, i, j] = types[:, j, i] = weights.take(slots, axis=1)
    positions = (i * size + j).astype(np.int32)
    return {kind: TypeAdjacency(d.inv, size, positions, slots, weights, row,
                                _token_matrix(types[row], d.inv).sum(axis=1))
            for row, kind in enumerate(GRAPH_KINDS)}


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
