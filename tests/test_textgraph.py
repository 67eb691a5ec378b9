"""Graph-construction tests against brute-force oracles."""

import logging
import math
from collections import namedtuple
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioie.corpus import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    CorpusFormatError,
    Document,
    Token,
    EmbeddingTable,
    attach_dependencies,
    build_vocabulary,
    normalize_corpus,
    random_embeddings,
    tokenize,
)
from bioie.textgraph import (
    WordPairStats,
    build_corpus_graphs,
    build_semantic_graph,
    build_sequence_graph,
    build_syntactic_graph,
    dump_graphs,
    pair_ids,
    pair_key,
    project_adjacency,
    token_ids,
)

from conftest import counts_of

LN_10_9 = 0.10536051565782630

# An oracle's result: dicts keyed by word-id pairs (a, b), a < b.
PairTables = namedtuple("PairTables", "counts weights")


def doc_from(words, doc_id="d0"):
    text = " ".join(words)
    return Document(doc_id, "synthetic", text, tokenize(text), [])


def table_for(vocab, rows):
    dim = len(next(iter(rows.values())))
    vectors = np.zeros((vocab.size, dim))
    for tok, vec in rows.items():
        vectors[vocab.id(tok)] = vec
    return EmbeddingTable(dim, vectors, 1.0)


def brute_force_pmi(docs, vocab, window):
    """Window enumeration oracle, written independently of the builder."""
    windows = []
    for doc in docs:
        ids = [vocab.id(t.surface) for t in doc.tokens if vocab.id(t.surface) > 1]
        if not ids:
            continue
        if len(ids) <= window:
            windows.append(ids)
        else:
            windows.extend(ids[s:s + window] for s in range(len(ids) - window + 1))
    total = len(windows)
    weights = {}
    if total == 0:
        return weights
    vocab_ids = sorted({i for w in windows for i in w})
    for a_pos, a in enumerate(vocab_ids):
        for b in vocab_ids[a_pos + 1:]:
            n_ab = sum(1 for w in windows if a in w and b in w)
            if n_ab == 0:
                continue
            p_ab = n_ab / total
            p_a = sum(1 for w in windows if a in w) / total
            p_b = sum(1 for w in windows if b in w) / total
            val = math.log(p_ab / (p_a * p_b))
            if val > 0:
                weights[(a, b)] = val
    return weights


def _doc_word_ids(doc, vocab):
    """Distinct word ids in first-occurrence order, PAD and UNK dropped."""
    seen = {}
    for t in doc.tokens:
        tid = vocab.id(t.surface)
        if tid not in (PAD_ID, UNK_ID):
            seen.setdefault(tid, None)
    return list(seen)


def brute_force_semantic(docs, embeddings, vocab, theta):
    """Pair-by-pair loop over each document's word pairs: count the
    documents in which the pair's cosine reaches theta; weight = count /
    co-occurrence documents."""
    norms = np.linalg.norm(embeddings.vectors, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_rows = np.where(norms[:, None] > 0.0,
                             embeddings.vectors / norms[:, None], 0.0)
    counts, co_docs = {}, {}
    for doc in docs:
        usable = sorted(i for i in _doc_word_ids(doc, vocab)
                        if np.linalg.norm(embeddings.vectors[i]) != 0.0)
        for a, b in combinations(usable, 2):
            co_docs[(a, b)] = co_docs.get((a, b), 0) + 1
            if float(unit_rows[a] @ unit_rows[b]) >= theta:
                counts[(a, b)] = counts.get((a, b), 0.0) + 1.0
    return PairTables(counts, {k: c / co_docs[k] for k, c in counts.items()})


def brute_force_syntactic(docs, vocab):
    """Count the documents linking each word pair by a dependency edge,
    then scan every linked pair against every document for the
    co-occurrence count."""
    counts, co_docs = {}, {}
    linked, per_doc = set(), []
    for doc in docs:
        links = set()
        for i, j, _rel in doc.dep_edges:
            a = vocab.id(doc.tokens[i].surface)
            b = vocab.id(doc.tokens[j].surface)
            if a in (PAD_ID, UNK_ID) or b in (PAD_ID, UNK_ID) or a == b:
                continue
            links.add((min(a, b), max(a, b)))
        for key in links:
            counts[key] = counts.get(key, 0.0) + 1.0
        linked.update(links)
        per_doc.append(set(_doc_word_ids(doc, vocab)))
    for present in per_doc:
        for key in linked:
            if key[0] in present and key[1] in present:
                co_docs[key] = co_docs.get(key, 0) + 1
    return PairTables(counts, {k: c / co_docs[k] for k, c in counts.items()})


def brute_force_window_counts(docs, vocab, window):
    """Windows holding each word pair, by the same window enumeration as
    `brute_force_pmi`."""
    counts = {}
    for doc in docs:
        ids = [vocab.id(t.surface) for t in doc.tokens if vocab.id(t.surface) > 1]
        starts = range(max(1, len(ids) - window + 1)) if ids else ()
        for s in starts:
            for pair in combinations(sorted(set(ids[s:s + window])), 2):
                counts[pair] = counts.get(pair, 0.0) + 1.0
    return counts


def doc_of(surfaces, doc_id="d0", edges=()):
    """A document with exactly these token surfaces, `<pad>` included."""
    tokens = [Token(s, 0, 0, i) for i, s in enumerate(surfaces)]
    return Document(doc_id, "synthetic", " ".join(surfaces), tokens, [],
                    [(i, j, "dep") for i, j in edges])


@st.composite
def corpora(draw):
    """Documents over a small word pool with repeats, `<pad>` tokens,
    words left out of the vocabulary (UNK), documents shorter than the
    window and empty documents; dependency edges include self-links and
    duplicates. Returns (docs, vocab)."""
    pool = [f"w{i}" for i in range(draw(st.integers(1, 7)))]
    words = st.sampled_from(pool + [PAD_TOKEN, "rare"])
    docs = []
    for k in range(draw(st.integers(1, 5))):
        surfaces = draw(st.lists(words, max_size=30))
        pos = st.integers(0, max(0, len(surfaces) - 1))
        edges = draw(st.lists(st.tuples(pos, pos), max_size=12)) if surfaces else []
        docs.append(doc_of(surfaces, f"d{k}", edges + edges[:2]))
    # "rare" stays out of the vocabulary, so it maps to UNK.
    vocab = build_vocabulary([doc_of([w for w in pool + [PAD_TOKEN]])])
    return docs, vocab


def brute_force_projection(ids, graphs):
    """Pair-by-pair lookup oracle for `project_adjacency`: kind ->
    (matrix, degree)."""
    n = len(ids)
    real = [(pos, tid) for pos, tid in enumerate(ids)
            if tid not in (PAD_ID, UNK_ID)]
    out = {}
    for kind in ("semantic", "syntactic", "sequence"):
        stats = graphs.by_kind(kind)
        a = np.eye(n)
        for x in range(len(real)):
            pos_x, id_x = real[x]
            for y in range(x + 1, len(real)):
                pos_y, id_y = real[y]
                if id_x == id_y:
                    continue
                w = stats.weight(id_x, id_y)
                if w != 0.0:
                    a[pos_x, pos_y] = w
                    a[pos_y, pos_x] = w
        out[kind] = (a, a.sum(axis=1))
    return out


class TestSemanticGraph:
    def test_identical_vectors_make_edge(self):
        docs = [doc_from(["alpha", "beta"])]
        vocab = build_vocabulary(docs)
        table = table_for(vocab, {"alpha": [1.0, 0.0], "beta": [2.0, 0.0]})
        stats = build_semantic_graph(docs, table, vocab, theta=0.9)
        assert stats.weight(vocab.id("alpha"), vocab.id("beta")) == 1.0

    def test_orthogonal_vectors_no_edge(self):
        docs = [doc_from(["alpha", "beta"])]
        vocab = build_vocabulary(docs)
        table = table_for(vocab, {"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
        stats = build_semantic_graph(docs, table, vocab, theta=0.5)
        assert len(stats) == 0

    def test_zero_norm_vector_skipped(self, caplog):
        docs = [doc_from(["alpha", "beta"])]
        vocab = build_vocabulary(docs)
        table = table_for(vocab, {"alpha": [0.0, 0.0], "beta": [1.0, 0.0]})
        with caplog.at_level("WARNING"):
            stats = build_semantic_graph(docs, table, vocab, theta=0.5)
        assert len(stats) == 0
        assert "zero-norm" in caplog.text

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            build_semantic_graph([], EmbeddingTable(2, np.zeros((2, 2)), 0.0),
                                 build_vocabulary([]), theta=1.5)

    @pytest.mark.parametrize("beta, theta", [([1.0, math.sqrt(3.0)], 0.5),
                                             ([3.0, 4.0], 0.6)])
    def test_cosine_at_theta_makes_edge(self, beta, theta):
        docs = [doc_from(["alpha", "beta"])]
        vocab = build_vocabulary(docs)
        table = table_for(vocab, {"alpha": [1.0, 0.0], "beta": beta})
        stats = build_semantic_graph(docs, table, vocab, theta=theta)
        assert stats.weights == {(vocab.id("alpha"), vocab.id("beta")): 1.0}
        assert stats.weights == brute_force_semantic(docs, table, vocab, theta).weights

    def test_cosine_exactly_theta_is_an_edge(self):
        docs = [doc_from(["alpha", "beta"])]
        vocab = build_vocabulary(docs)
        table = table_for(vocab, {"alpha": [1.0, 0.0], "beta": [3.0, 4.0]})
        rows = table.vectors[[vocab.id("alpha"), vocab.id("beta")]]
        unit = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert float(unit[0] @ unit[1]) == 0.6
        assert len(build_semantic_graph(docs, table, vocab, theta=0.6)) == 1

    def test_zero_norm_warning_logged_once_per_word(self, caplog):
        docs = [doc_from(["alpha", "beta"], f"d{k}") for k in range(3)]
        vocab = build_vocabulary(docs)
        table = table_for(vocab, {"alpha": [0.0, 0.0], "beta": [1.0, 0.0]})
        with caplog.at_level("WARNING"):
            build_semantic_graph(docs, table, vocab, theta=0.5)
        assert caplog.text.count("zero-norm") == 1

    def test_pairs_at_theta_decided_as_by_dot_product(self):
        """With 40 words in one document, the (40, 40) cosine matrix
        rounds differently from the 1-D dot product for many pairs; with
        theta set to a pair's dot-product cosine, the builder must still
        make that edge, and agree with the loop on every other pair."""
        words = [f"w{i}" for i in range(40)]
        docs = [doc_from(words)]
        vocab = build_vocabulary(docs)
        rng = np.random.default_rng(12)
        table = EmbeddingTable(24, rng.normal(size=(vocab.size, 24)), 1.0)
        ids = [vocab.id(w) for w in words]
        unit = table.vectors / np.linalg.norm(table.vectors, axis=1)[:, None]
        gram = unit[ids] @ unit[ids].T
        checked = 0
        for x, y in combinations(range(40), 2):
            a, b = sorted((ids[x], ids[y]))
            theta = float(unit[a] @ unit[b])
            if 0.0 < theta < 1.0 and gram[x, y] < theta:
                stats = build_semantic_graph(docs, table, vocab, theta)
                assert (a, b) in stats.weights
                assert counts_of(stats) == brute_force_semantic(
                    docs, table, vocab, theta).counts
                checked += 1
            if checked == 5:
                break
        assert checked == 5

    @given(corpora(), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_exactly(self, corpus, seed, data):
        """Counts and weights equal the pair-by-pair loop's. Some vectors
        are zero, and theta is often the cosine of one pair as the loop
        computes it, so that pair sits exactly at theta where a matrix
        product may round either way."""
        docs, vocab = corpus
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(vocab.size, 8))
        vectors[rng.random(vocab.size) < 0.2] = 0.0
        table = EmbeddingTable(8, vectors, 1.0)
        norms = np.linalg.norm(vectors, axis=1)[:, None]
        unit = np.divide(vectors, norms, out=np.zeros_like(vectors),
                         where=norms > 0.0)
        a, b = data.draw(st.tuples(st.integers(0, vocab.size - 1),
                                   st.integers(0, vocab.size - 1)))
        cos = float(unit[a] @ unit[b])
        theta = cos if 0.0 < cos < 1.0 else 0.5
        logging.disable(logging.WARNING)
        try:
            got = build_semantic_graph(docs, table, vocab, theta)
        finally:
            logging.disable(logging.NOTSET)
        oracle = brute_force_semantic(docs, table, vocab, theta)
        assert counts_of(got) == oracle.counts
        assert got.weights == oracle.weights

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_raising_theta_never_adds_edges(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(6)]
        docs = [doc_from(list(rng.choice(words, size=5)), f"d{k}")
                for k in range(4)]
        vocab = build_vocabulary(docs)
        table = EmbeddingTable(
            3, np.abs(rng.uniform(0.1, 1.0, (vocab.size, 3))), 1.0)
        low = build_semantic_graph(docs, table, vocab, theta=0.5)
        high = build_semantic_graph(docs, table, vocab, theta=0.8)
        assert set(high.weights) <= set(low.weights)


class TestSyntacticGraph:
    def test_single_edge_full_weight(self):
        doc = attach_dependencies(doc_from(["the", "cat"]), None)
        vocab = build_vocabulary([doc])
        stats = build_syntactic_graph([doc], vocab)
        assert stats.weight(vocab.id("the"), vocab.id("cat")) == 1.0

    def test_no_edges_empty_stats(self):
        docs = [doc_from(["a", "b"])]  # no dep edges attached
        vocab = build_vocabulary(docs)
        assert len(build_syntactic_graph(docs, vocab)) == 0

    def test_three_of_four_cooccurrence_docs(self):
        linked = [attach_dependencies(doc_from(["x", "y"], f"d{i}"), None)
                  for i in range(3)]
        # fourth doc contains both words but no dependency between them
        free = doc_from(["x", "z", "y"], "d3")
        free.dep_edges = [(0, 1, "adj")]
        docs = linked + [free]
        vocab = build_vocabulary(docs)
        stats = build_syntactic_graph(docs, vocab)
        assert stats.weight(vocab.id("x"), vocab.id("y")) == pytest.approx(0.75)

    @given(corpora())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_exactly(self, corpus):
        docs, vocab = corpus
        got = build_syntactic_graph(docs, vocab)
        oracle = brute_force_syntactic(docs, vocab)
        assert counts_of(got) == oracle.counts
        assert got.weights == oracle.weights

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 1)])
    def test_edge_index_outside_document_names_it(self, edge):
        # NumPy indexing would wrap -1 to the last token without the check.
        docs = [doc_of(["a", "b", "c"], "ok", [(0, 1)]),
                doc_of(["a", "b", "c"], "doc-7", [edge])]
        with pytest.raises(CorpusFormatError, match="doc-7"):
            build_syntactic_graph(docs, build_vocabulary(docs))

    def test_edge_outside_an_uncut_document_still_named_after_normalizing(self):
        """Length normalization cuts no token of a short document, so it
        passes every edge on, and the builder names the bad one."""
        docs = [doc_of(["a", "b", "c"], "ok", [(0, 1)]),
                doc_of(["a", "b", "c"], "doc-7", [(0, 3)])]
        docs, _ = normalize_corpus(docs, [])
        with pytest.raises(CorpusFormatError, match="doc-7"):
            build_syntactic_graph(docs, build_vocabulary(docs))


class TestSequenceGraph:
    def test_negative_pmi_clipped(self):
        docs = [doc_from(["a", "b", "c", "a"])]
        vocab = build_vocabulary(docs)
        stats = build_sequence_graph(docs, vocab, window=2)
        # pmi(a, b) = ln(3/4) < 0 -> clipped to zero
        assert stats.weight(vocab.id("a"), vocab.id("b")) == 0.0

    def test_hand_enumerated_value(self):
        docs = [doc_from(["a", "b", "x", "y", "a", "b"])]
        vocab = build_vocabulary(docs)
        stats = build_sequence_graph(docs, vocab, window=2)
        assert stats.weight(vocab.id("a"), vocab.id("b")) == pytest.approx(
            LN_10_9, abs=1e-12)

    def test_single_word_corpus(self):
        docs = [doc_from(["solo"])]
        vocab = build_vocabulary(docs)
        assert len(build_sequence_graph(docs, vocab, window=5)) == 0

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            build_sequence_graph([], build_vocabulary([]), window=1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(rng.integers(2, 9))]
        docs = []
        for k in range(rng.integers(1, 4)):
            length = int(rng.integers(1, 68))
            docs.append(doc_from(list(rng.choice(words, size=length)), f"d{k}"))
        window = int(rng.integers(2, 12))
        vocab = build_vocabulary(docs)
        stats = build_sequence_graph(docs, vocab, window)
        assert stats.weights == brute_force_pmi(docs, vocab, window)

    @given(corpora(), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_counts_and_weights_match_brute_force(self, corpus, window):
        docs, vocab = corpus
        stats = build_sequence_graph(docs, vocab, window)
        assert counts_of(stats) == brute_force_window_counts(docs, vocab, window)
        assert stats.weights == brute_force_pmi(docs, vocab, window)

    def test_counts_merged_across_many_documents(self):
        """More documents than one merge block of pair counts."""
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(12)]
        docs = [doc_from(list(rng.choice(words, size=int(rng.integers(1, 15)))),
                         f"d{k}") for k in range(100)]
        vocab = build_vocabulary(docs)
        stats = build_sequence_graph(docs, vocab, 4)
        assert counts_of(stats) == brute_force_window_counts(docs, vocab, 4)
        assert stats.weights == brute_force_pmi(docs, vocab, 4)


class TestProjection:
    def graphs_for(self, docs, vocab, window=2):
        table = EmbeddingTable(2, np.zeros((vocab.size, 2)), 0.0)
        return build_corpus_graphs(docs, table, vocab, theta=0.9, window=window)

    def test_single_token(self):
        docs = [doc_from(["only"])]
        vocab = build_vocabulary(docs)
        adj = project_adjacency(token_ids(docs[0], vocab),
                                self.graphs_for(docs, vocab))
        for kind in ("semantic", "syntactic", "sequence"):
            assert np.array_equal(adj[kind].matrix, [[1.0]])
            assert np.array_equal(adj[kind].degree, [1.0])

    def test_no_corpus_edge_gives_identity(self):
        docs = [doc_from(["p", "q"])]
        vocab = build_vocabulary(docs)
        graphs = self.graphs_for(docs, vocab)
        adj = project_adjacency(token_ids(docs[0], vocab), graphs)
        assert np.array_equal(adj["semantic"].matrix, np.eye(2))

    def test_known_sequence_weight_projected(self):
        docs = [doc_from(["a", "b", "x", "y", "a", "b"], "big")]
        vocab = build_vocabulary(docs)
        graphs = self.graphs_for(docs, vocab)
        two = doc_from(["a", "b"], "small")
        adj = project_adjacency(token_ids(two, vocab), graphs)["sequence"]
        expected = np.array([[1.0, LN_10_9], [LN_10_9, 1.0]])
        assert np.allclose(adj.matrix, expected, atol=1e-12)
        assert np.allclose(adj.degree, [1 + LN_10_9, 1 + LN_10_9], atol=1e-12)

    def test_pad_isolated(self):
        doc = doc_of([f"t{i}" for i in range(10)] + [PAD_TOKEN] * 40)
        vocab = build_vocabulary([doc])
        graphs = self.graphs_for([doc], vocab, window=3)
        adj = project_adjacency(token_ids(doc, vocab), graphs)["sequence"]
        assert np.array_equal(adj.matrix[10:], np.eye(50)[10:])

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_positive_diagonal_degrees(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(5)]
        docs = [doc_from(list(rng.choice(words, size=int(rng.integers(1, 20)))),
                         f"d{k}") for k in range(3)]
        vocab = build_vocabulary(docs)
        graphs = self.graphs_for(docs, vocab, window=3)
        for doc in docs:
            for adj in project_adjacency(token_ids(doc, vocab), graphs).values():
                assert np.array_equal(adj.matrix, adj.matrix.T)
                assert np.all(np.diag(adj.matrix) > 0)
                assert np.all(adj.degree >= 1.0)


    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_bitwise(self, seed):
        """Matrices and degrees equal the pair-by-pair lookup bit for bit,
        with repeated words, unknown words and trailing padding."""
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(8)]
        docs = [doc_from(list(rng.choice(words, size=int(rng.integers(2, 25)))),
                         f"d{k}") for k in range(4)]
        docs = [attach_dependencies(d, None) for d in docs]
        vocab = build_vocabulary(docs)
        graphs = build_corpus_graphs(docs, random_embeddings(vocab, 4, seed=seed),
                                     vocab, theta=0.3, window=3)
        mixed = list(rng.choice(words + ["other"], size=30)) + ["unseen", "w0"]
        probes = docs + [doc_of(mixed + [PAD_TOKEN] * 18, "mixed")]
        for doc in probes:
            ids = token_ids(doc, vocab)
            got = project_adjacency(ids, graphs)
            oracle = brute_force_projection(ids, graphs)
            for kind, (matrix, degree) in oracle.items():
                assert np.array_equal(got[kind].matrix, matrix)
                assert np.array_equal(got[kind].degree, degree)
        assert any(vocab.id(t.surface) == UNK_ID for t in probes[-1].tokens)
        assert any(vocab.id(t.surface) == PAD_ID for t in probes[-1].tokens)


    def test_pad_and_unk_isolated_even_with_corpus_edges(self):
        """PAD and UNK positions keep only their self-loop even when the
        corpus statistics carry an edge for their ids."""
        docs = [doc_from(["a", "b", "c"])]
        vocab = build_vocabulary(docs)
        graphs = self.graphs_for(docs, vocab)
        a_id = vocab.id("a")
        seq = graphs.sequence
        # PAD and UNK ids are below every word id, so their pairs sort first.
        graphs.sequence = WordPairStats(
            np.concatenate((pair_key([PAD_ID, UNK_ID], a_id), seq.keys)),
            np.concatenate(([1.0, 1.0], seq.count)),
            np.concatenate(([0.25, 0.5], seq.edge_weight)))
        assert graphs.sequence.weight(a_id, UNK_ID) == 0.5
        probe = doc_of(["a", "unseen", "b"] + [PAD_TOKEN] * 47, "probe")
        ids = token_ids(probe, vocab)
        adj = project_adjacency(ids, graphs)["sequence"]
        matrix, degree = brute_force_projection(ids, graphs)["sequence"]
        assert np.array_equal(adj.matrix, matrix)
        assert np.array_equal(adj.degree, degree)
        assert np.array_equal(adj.matrix[1], np.eye(len(probe.tokens))[1])


class TestWordPairStatsInvariants:
    @given(corpora(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_layout_of_every_builder(self, corpus, seed):
        """Each kind holds strictly increasing int64 keys of pairs a < b,
        with float64 counts and weights aligned to them; `len` and the
        `weights` view count the nonzero weights only."""
        docs, vocab = corpus
        graphs = build_corpus_graphs(docs, random_embeddings(vocab, 4, seed=seed),
                                     vocab, theta=0.3, window=3)
        for kind in ("semantic", "syntactic", "sequence"):
            stats = graphs.by_kind(kind)
            assert stats.keys.dtype == np.int64
            assert np.all(stats.keys[1:] > stats.keys[:-1])
            a, b = pair_ids(stats.keys)
            assert np.all(a < b) and np.all(a > UNK_ID)
            for arr in (stats.count, stats.edge_weight):
                assert arr.dtype == np.float64 and arr.shape == stats.keys.shape
            assert np.all(stats.count >= 1.0) and np.all(stats.edge_weight >= 0.0)
            assert len(stats) == len(stats.weights) == np.count_nonzero(
                stats.edge_weight)

    def test_symmetric_lookup_and_nonnegative(self):
        docs = [doc_from(["a", "b", "a", "b", "c"])]
        vocab = build_vocabulary(docs)
        stats = build_sequence_graph(docs, vocab, window=3)
        for (a, b), w in stats.weights.items():
            assert w >= 0
            assert stats.weight(a, b) == stats.weight(b, a)


@st.composite
def corpora_with_edge_cases(draw):
    """`corpora`, plus documents of PAD and UNK ids alone, one-word
    documents and a repeated-token document, in drawn order."""
    docs, vocab = draw(corpora())
    extra = [doc_of([PAD_TOKEN, "rare", PAD_TOKEN], "x0"), doc_of(["rare"], "x1"),
             doc_of(["w0"], "x2"), doc_of(["w0", "w0", PAD_TOKEN, "w0"], "x3",
                                          [(0, 1), (1, 3)])]
    docs = draw(st.permutations(docs + draw(st.lists(st.sampled_from(extra),
                                                     max_size=4))))
    return docs, vocab


class TestSharedPerDocumentData:
    """`build_corpus_graphs` maps each document once for the three
    builders, and projection looks every kind up in one table; both must
    give bitwise what the builders and the token-matrix expansion give
    one at a time."""

    @given(corpora_with_edge_cases(), st.integers(0, 2 ** 32 - 1),
           st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_corpus_graphs_equal_each_builder_alone(self, corpus, seed, window):
        docs, vocab = corpus
        embeddings = random_embeddings(vocab, 4, seed=seed)
        graphs = build_corpus_graphs(docs, embeddings, vocab, theta=0.3,
                                     window=window)
        alone = {"semantic": build_semantic_graph(docs, embeddings, vocab, 0.3),
                 "syntactic": build_syntactic_graph(docs, vocab),
                 "sequence": build_sequence_graph(docs, vocab, window)}
        for kind, stats in alone.items():
            got = graphs.by_kind(kind)
            for name in ("keys", "count", "edge_weight"):
                x, y = getattr(got, name), getattr(stats, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (kind, name)

    @given(corpora_with_edge_cases(), st.integers(0, 2 ** 32 - 1),
           st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_degrees_equal_row_sums_of_the_expanded_matrix(self, corpus, seed,
                                                           window):
        """The oracle expands each kind by fancy indexing, sets the unit
        diagonal and sums each row."""
        docs, vocab = corpus
        graphs = build_corpus_graphs(docs, random_embeddings(vocab, 4, seed=seed),
                                     vocab, theta=0.3, window=window)
        for doc in docs:
            for adj in project_adjacency(token_ids(doc, vocab), graphs).values():
                expanded = adj.types[adj.inv[:, None], adj.inv]
                np.fill_diagonal(expanded, 1.0)
                assert adj.matrix.tobytes() == expanded.tobytes()
                assert adj.degree.dtype == np.float64
                assert adj.degree.tobytes() == expanded.sum(axis=1).tobytes()


def test_dump_graphs_sorted_and_diffable(tmp_path):
    docs = [doc_from(["b", "a", "b", "a"])]
    vocab = build_vocabulary(docs)
    docs = [attach_dependencies(d, None) for d in docs]
    table = EmbeddingTable(2, np.ones((vocab.size, 2)), 1.0)
    graphs = build_corpus_graphs(docs, table, vocab, theta=0.9, window=2)
    out = tmp_path / "graphs.tsv"
    dump_graphs(graphs, vocab, out)
    lines = out.read_text().splitlines()
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 4 for line in lines)
