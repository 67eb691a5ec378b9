"""The held adjacency layout against the dense layout it replaced.

`dense_project_adjacency` and `dense_batch_adjacency` are the earlier
dense implementations, kept here as oracles: one (n, n) float64 matrix
per kind and document, copied into the padded batch block. The matrices
expanded from each document's held pairs, its degrees and the per-batch
gather must reproduce them bit for bit.
"""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioie.corpus import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    Document,
    Token,
    build_vocabulary,
    random_embeddings,
)
from bioie.textgraph import (
    GRAPH_KINDS,
    CorpusGraphs,
    DocumentAdjacency,
    TypeAdjacency,
    WordPairStats,
    batch_adjacency,
    build_corpus_graphs,
    find_keys,
    pair_key,
    project_adjacency,
    token_ids,
)


def dense_project_adjacency(ids, graphs):
    """The dense per-document projection: kind -> (n, n) DocumentAdjacency."""
    special = (ids == PAD_ID) | (ids == UNK_ID)
    uniq, inv = np.unique(ids, return_inverse=True)
    rows, cols = np.nonzero(uniq[:, None] < uniq)
    keys = pair_key(uniq[rows], uniq[cols])
    out = {}
    for kind in GRAPH_KINDS:
        stats = graphs.by_kind(kind)
        slot, found = find_keys(stats.keys, keys)
        i, j, w = rows[found], cols[found], stats.edge_weight[slot[found]]
        types = np.zeros((len(uniq), len(uniq)))
        types[i, j] = types[j, i] = w
        a = types[inv[:, None], inv]
        a[special, :] = 0.0
        a[:, special] = 0.0
        np.fill_diagonal(a, 1.0)
        out[kind] = DocumentAdjacency(a, a.sum(axis=1))
    return out


def dense_batch_adjacency(dense_docs, kind, steps):
    """The dense documents' padded (B, steps, steps) block for one kind."""
    matrix = np.zeros((len(dense_docs), steps, steps))
    matrix[:, np.arange(steps), np.arange(steps)] = 1.0
    degree = np.ones((len(dense_docs), steps))
    for i, doc in enumerate(dense_docs):
        adj = doc[kind]
        n = len(adj.degree)
        matrix[i, :n, :n] = adj.matrix
        degree[i, :n] = adj.degree
    return DocumentAdjacency(matrix, degree)


def doc_of(surfaces, doc_id):
    tokens = [Token(s, 0, 0, i) for i, s in enumerate(surfaces)]
    return Document(doc_id, "synthetic", " ".join(surfaces), tokens, [],
                    [(i, i + 1, "dep") for i in range(len(surfaces) - 1)])


@st.composite
def corpora(draw):
    """1-6 documents of uneven length over a small word pool with
    repeats, `<pad>` tokens and a word left out of the vocabulary (UNK),
    then three with no word pair: one word type among PAD and UNK, PAD
    and UNK only, and a single token. Returns (docs, vocab)."""
    pool = [f"w{i}" for i in range(draw(st.integers(1, 8)))]
    special = st.sampled_from([PAD_TOKEN, "rare"])
    words = st.sampled_from(pool + [PAD_TOKEN, "rare"])
    docs = [doc_of(draw(st.lists(words, min_size=1, max_size=40)), f"d{k}")
            for k in range(draw(st.integers(1, 6)))]
    one_type = st.sampled_from([pool[-1], PAD_TOKEN, "rare"])
    docs += [doc_of(surfaces, f"e{k}") for k, surfaces in enumerate((
        [pool[-1]] + draw(st.lists(one_type, max_size=12)),
        draw(st.lists(special, min_size=1, max_size=12)),
        [draw(words)]))]
    vocab = build_vocabulary([doc_of(pool + [PAD_TOKEN], "pool")])
    return docs, vocab


def with_special_edges(graphs, vocab):
    """`graphs` with every kind also weighting pairs of PAD and UNK with
    each word, which the builders never count; projection must ignore
    them."""
    words = np.arange(UNK_ID + 1, vocab.size)
    for kind in GRAPH_KINDS:
        stats = graphs.by_kind(kind)
        extra = np.concatenate([pair_key(np.full(len(words), s), words)
                                for s in (PAD_ID, UNK_ID)])
        keys = np.concatenate((extra, stats.keys))
        order = np.argsort(keys)
        setattr(graphs, kind, WordPairStats(
            keys[order],
            np.concatenate((np.ones(len(extra)), stats.count))[order],
            np.concatenate((np.full(len(extra), 0.75), stats.edge_weight))[order]))
    return graphs


class TestTypeLayout:
    @given(corpora(), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batch_block_and_matrix_equal_dense_bitwise(self, corpus, special,
                                                        seed):
        """For every kind, `batch_adjacency`'s normalized padded block
        equals the dense layout's block divided by its degrees, bit for
        bit, and each document's expanded `matrix` and its degree equal
        the dense n x n matrix and degree."""
        docs, vocab = corpus
        graphs = build_corpus_graphs(docs, random_embeddings(vocab, 4, seed=seed),
                                     vocab, theta=0.3, window=3)
        if special:
            graphs = with_special_edges(graphs, vocab)
        typed, dense = [], []
        for doc in docs + docs[:1]:  # one document twice in the batch
            ids = token_ids(doc, vocab)
            typed.append(project_adjacency(ids, graphs))
            dense.append(dense_project_adjacency(ids, graphs))
        steps = max(len(doc[GRAPH_KINDS[0]].degree) for doc in dense)
        got = batch_adjacency(typed, steps)
        assert len(got) == len(GRAPH_KINDS)
        for kind, a_norm in zip(GRAPH_KINDS, got):
            want = dense_batch_adjacency(dense, kind, steps)
            assert a_norm.tobytes() == (want.matrix
                                        / want.degree[..., None]).tobytes(), kind
            for doc, oracle in zip(typed, dense):
                assert doc[kind].matrix.tobytes() == oracle[kind].matrix.tobytes()
                assert doc[kind].degree.tobytes() == oracle[kind].degree.tobytes()

    @given(corpora(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pad_and_unk_type_rows_are_zero(self, corpus, seed):
        """The rows and columns of PAD and UNK types hold no weight, even
        when the corpus graphs weight pairs with their ids: the batch
        gather relies on it to isolate those tokens."""
        docs, vocab = corpus
        graphs = with_special_edges(
            build_corpus_graphs(docs, random_embeddings(vocab, 4, seed=seed),
                                vocab, theta=0.3, window=3), vocab)
        for doc in docs:
            ids = token_ids(doc, vocab)
            for adj in project_adjacency(ids, graphs).values():
                special = np.isin(np.unique(ids), (PAD_ID, UNK_ID))
                assert not adj.types[special].any()
                assert not adj.types[:, special].any()

    def test_batch_rejects_a_degree_that_is_not_positive(self):
        """A row whose weights cancel its self-loop, or a NaN weight, in
        one kind of one document of the batch is refused."""
        inv = np.array([0, 1])
        none = np.zeros(0, dtype=np.int32)
        # Pair (0, 1) at flat position 1, in the table's slot 0.
        pair = np.array([1], dtype=np.int32), np.array([0], dtype=np.int32)
        for weight in (-1.0, np.nan):
            table = np.array([[0.0], [weight], [0.0]])
            good, bad = ({kind: TypeAdjacency(inv, 2, *pairs, table, row, None)
                          for row, kind in enumerate(GRAPH_KINDS)}
                         for pairs in ((none, none), pair))
            for adj in chain(good.values(), bad.values()):
                adj.degree = adj.matrix.sum(axis=1)
            with pytest.raises(ValueError, match="zero-degree"):
                batch_adjacency([good, bad], 3)

    def test_batch_rejects_documents_of_two_corpus_graphs(self, tiny_task):
        """The documents of one batch share one pair table's weights; a
        document projected from another corpus graph is refused, not
        read through the wrong table."""
        graphs = tiny_task.graphs
        other = CorpusGraphs(graphs.semantic, graphs.syntactic,
                             graphs.sequence, graphs.theta, graphs.window)
        ids = token_ids(next(iter(tiny_task.documents.values())), tiny_task.vocab)
        docs = [project_adjacency(ids, graphs), project_adjacency(ids, other)]
        batch_adjacency(docs[:1] * 2, len(ids))
        with pytest.raises(ValueError, match="different corpus graphs"):
            batch_adjacency(docs, len(ids))

    def test_matrix_is_expanded_on_every_access(self, tiny_task):
        ids = token_ids(next(iter(tiny_task.documents.values())), tiny_task.vocab)
        adj = project_adjacency(ids, tiny_task.graphs)["sequence"]
        assert adj.matrix is not adj.matrix
        assert adj.types is not adj.types
        assert not hasattr(adj, "__dict__")
        assert TypeAdjacency.__slots__ == (
            "inv", "size", "positions", "slots", "weights", "row", "degree")
