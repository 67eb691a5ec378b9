"""Model-assembly tests: init, variants, forward, loss, parameter counts."""

import math
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import bioie.autodiff as ad
import bioie.layers as layers
import bioie.pipeline as pipeline
from bioie.corpus import PAD_ID, PATHOLOGY_KINDS
from bioie.layers import ModelConfig, bilstm, embed_sequence, multi_head_attention
from bioie.pipeline import (
    ABLATION_VARIANTS,
    DocEncoding,
    count_parameters,
    encode_instances,
    forward,
    init_model,
    loss,
    make_variant,
    parameter_group_counts,
    predict_proba,
)
from bioie.textgraph import (
    GRAPH_KINDS,
    TypeAdjacency,
    project_adjacency,
    token_ids,
)
from bioie.training import make_optimizer

from conftest import build_synth_task, traced_step


def encode_all(task, config):
    return encode_instances(task.instances, task.documents, task.vocab,
                            task.graphs, config)


def cut(inst, n):
    """The instance with its document cut to its first n tokens."""
    doc = inst.doc
    inv = doc.adjacency[GRAPH_KINDS[0]].inv[:n].copy()
    adjacency = {kind: TypeAdjacency(inv, a.types)
                 for kind, a in doc.adjacency.items()}
    return replace(inst, doc=DocEncoding(doc.doc_id, doc.ids[:n], adjacency))


def uneven_batch(enc):
    """Five instances whose documents have clearly different lengths."""
    return [enc[0], cut(enc[1], 3), cut(enc[2], 17), enc[3], cut(enc[4], 9)]


def train_long_batch():
    """The shapes of the benchmark's `train_long` workload: a batch of 8
    reports carrying all seven kinds (about 100 tokens), and the CLI
    default model. Returns the task, the config and the batch."""
    task = build_synth_task({kind: 6 for kind in PATHOLOGY_KINDS}, seed=4,
                            d_w=100, theta=0.25, window=20)
    config = ModelConfig(label_count=len(task.label_set))
    batch = encode_all(task, config)[:8]
    assert len(batch) == 8 and max(len(e.doc.ids) for e in batch) >= 90
    return task, config, batch


# The peak of `backward` above the live bytes at its start, in MiB, on
# one recorded step of `train_long_batch`. Measured at 5.15 inline and at
# 9.4-9.8 with every job on the worker; 6.4 and 10.0-11.1 while the
# attention record kept its weights and the BiLSTM rule its gate factors
# apart from dz, and 12.0 and 23.1-24.1 before each rule freed what it
# saved at its last read. Inline it is deterministic; on the worker it
# moves with thread scheduling.
BACKWARD_PEAK_MIB = {"inline": 6.5, "worker": 16.0}

# On the same step: the live bytes when `backward` starts, and those plus
# the peak above them, in MiB. Measured at 36.8, and at 41.9 inline and
# 46.2-46.6 on the worker; 43.2, 49.6 and 52.8-54.3 while the attention
# record kept every head's weights and its context.
STEP_START_MIB = 40.0
STEP_PEAK_MIB = {"inline": 45.0, "worker": 50.0}

# The peak of the BiLSTM rule above the live bytes at its start, in MiB,
# on the same step, with no job left on the worker: 9.44 in either job
# mode; 12.08 while the rule kept its gate factors apart from dz.
BILSTM_RULE_PEAK_MIB = 11.0


class TestInitModel:
    def test_same_seed_bitwise_identical(self, tiny_task, small_config):
        a = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                       seed=5, label_set=tiny_task.label_set)
        b = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                       seed=5, label_set=tiny_task.label_set)
        assert set(a.params) == set(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_no_gcn_registry_has_no_gcn_names(self, tiny_task, small_config):
        cfg = make_variant(small_config, "no_gcn")
        model = init_model(cfg, tiny_task.vocab, tiny_task.embeddings,
                           seed=0, label_set=tiny_task.label_set)
        assert not any(name.startswith("gcn.") for name in model.params)

    def test_attention_output_projection_shape(self, tiny_task):
        cfg = ModelConfig(hidden=128, heads=8, label_count=2)
        model = init_model(cfg, tiny_task.vocab, None, seed=0,
                           label_set=tiny_task.label_set)
        assert model.params["attn.wo"].shape == (256, 256)

    def test_pretrained_table_frozen(self, tiny_task, small_config):
        model = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                           seed=0, label_set=tiny_task.label_set)
        assert not model.params["embed.word"].requires_grad
        unfrozen = init_model(make_variant(small_config, "no_pretrained"),
                              tiny_task.vocab, tiny_task.embeddings, seed=0,
                              label_set=tiny_task.label_set)
        assert unfrozen.params["embed.word"].requires_grad

    def test_pretrained_table_never_trains(self, tiny_task, small_config):
        """After a train step the frozen table has no gradient, is not
        among the optimizer's tensors and is not counted as a parameter."""
        model = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                           seed=0, label_set=tiny_task.label_set)
        table = model.params["embed.word"]
        before = table.data.copy()
        opt = make_optimizer(model, lr=1e-3)
        ad.reset_tape()
        ad.backward(loss(model, encode_all(tiny_task, small_config)[:4], "train"))
        assert table.grad is None
        opt.step()
        ad.reset_tape()
        assert np.array_equal(table.data, before)
        assert "embed.word" not in opt.names
        assert not any(p is table for p in opt.params)
        assert count_parameters(model) == sum(
            p.size for n, p in model.params.items() if n != "embed.word")


class TestMakeVariant:
    def test_full_unchanged(self, small_config):
        assert make_variant(small_config, "full") == small_config

    def test_no_position_narrows_token_width(self):
        cfg = make_variant(ModelConfig(d_w=100, d_p=20), "no_position")
        assert cfg.token_width == 100

    def test_unknown_variant(self, small_config):
        with pytest.raises(ValueError, match="variant"):
            make_variant(small_config, "no_dropout")

    def test_seven_variants_distinct_parameter_counts(self, tiny_task):
        base = ModelConfig(label_count=2)  # full-size defaults
        counts = {}
        for variant in ABLATION_VARIANTS:
            model = init_model(make_variant(base, variant), tiny_task.vocab,
                               None, seed=0, label_set=tiny_task.label_set)
            counts[variant] = count_parameters(model)
        assert len(set(counts.values())) == len(ABLATION_VARIANTS)


class TestCountParameters:
    def test_single_affine(self, tiny_task):
        cfg = ModelConfig(d_w=4, d_p=2, hidden=2, heads=1, gcn_layers=1,
                          label_count=2, attention="none", use_gcn=False,
                          use_position=False)
        model = init_model(cfg, tiny_task.vocab, None, seed=0,
                           label_set=tiny_task.label_set)
        assert model.params["clf.w"].size + model.params["clf.b"].size == \
            cfg.d_model * 2 + 2

    def test_no_gcn_delta_is_group_plus_narrowing(self, tiny_task, small_config):
        full = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                          seed=0, label_set=tiny_task.label_set)
        lean = init_model(make_variant(small_config, "no_gcn"), tiny_task.vocab,
                          tiny_task.embeddings, seed=0,
                          label_set=tiny_task.label_set)
        gcn_group = parameter_group_counts(full)["gcn"]
        narrowing = small_config.d_model * small_config.label_count
        assert count_parameters(full) - count_parameters(lean) == \
            gcn_group + narrowing

    def test_counting_idempotent(self, tiny_task, small_config):
        model = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                           seed=0, label_set=tiny_task.label_set)
        assert count_parameters(model) == count_parameters(model)


class TestEncoding:
    def test_documents_encoded_at_full_length(self, tiny_task, small_config):
        """Documents are never padded: an encoding's ids are every token's
        id, PAD-free, and each adjacency is the projection of those ids."""
        for e in encode_all(tiny_task, small_config):
            doc = tiny_task.documents[e.doc.doc_id]
            assert np.array_equal(e.doc.ids, token_ids(doc, tiny_task.vocab))
            assert len(e.doc.ids) == len(doc.tokens)
            assert not np.any(e.doc.ids == PAD_ID)
            own = project_adjacency(e.doc.ids, tiny_task.graphs)
            assert set(e.doc.adjacency) == set(GRAPH_KINDS)
            for kind, adj in e.doc.adjacency.items():
                assert np.array_equal(adj.matrix, own[kind].matrix)
                assert np.array_equal(adj.degree, own[kind].degree)

    def test_adjacency_matrices_own_their_memory(self, tiny_task, small_config):
        """Every stored array is C-contiguous and owns its memory, not a
        view that keeps a larger array alive. Per kind, the float arrays
        are the (u, u) type matrix and the (n,) degree, with u the
        document's distinct ids, and the kinds share one index `inv`."""
        for e in encode_all(tiny_task, small_config):
            n, u = len(e.doc.ids), len(np.unique(e.doc.ids))
            inv = e.doc.adjacency[GRAPH_KINDS[0]].inv
            # np.unique returns the inverse as a view of an array of its
            # own size.
            assert inv.base is None or inv.base.nbytes == inv.nbytes
            assert inv.shape == (n,) and inv.flags["C_CONTIGUOUS"]
            for adj in e.doc.adjacency.values():
                assert adj.inv is inv
                for arr, shape in ((adj.types, (u, u)), (adj.degree, (n,))):
                    assert arr.shape == shape
                    assert arr.flags["C_CONTIGUOUS"]
                    assert arr.base is None
                floats = [a for a in vars(adj).values() if a.dtype.kind == "f"]
                assert max(a.size for a in floats) <= max(u * u, n)

    def test_gcn_without_graphs_names_them(self, tiny_task, small_config):
        with pytest.raises(ValueError, match="corpus graphs"):
            encode_instances(tiny_task.instances, tiny_task.documents,
                             tiny_task.vocab, None, small_config)
        no_gcn = replace(small_config, use_gcn=False)
        encoded = encode_instances(tiny_task.instances, tiny_task.documents,
                                   tiny_task.vocab, None, no_gcn)
        assert all(e.doc.adjacency == {} for e in encoded)


def saved_bytes(tape, ops) -> int:
    """Bytes of the distinct arrays that the rules of the records made by
    `ops` hold, on `tape` or on the branch tapes of its `concat_branches`
    records, apart from the outputs of the records on `tape` itself."""
    def owner(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    def closure(rule):
        return dict(zip(rule.__code__.co_freevars,
                        (c.cell_contents for c in rule.__closure__ or ())))

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield owner(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    def walk(records):
        for rec in records:
            name = rec.rule.__qualname__.split(".")[0]
            if name == "concat_branches":
                for branch in closure(rec.rule)["tapes"]:
                    yield from walk(branch)
            elif name in ops:
                for value in closure(rec.rule).values():
                    yield from arrays(value)

    outputs = {id(owner(rec.out.data)) for rec in tape}
    found = {id(a): a.nbytes for a in walk(tape) if id(a) not in outputs}
    return sum(found.values())


class TestForward:
    def model_and_batch(self, task, config, seed=0):
        model = init_model(config, task.vocab, task.embeddings, seed=seed,
                           label_set=task.label_set)
        return model, encode_all(task, config)

    def test_logit_shape(self, tiny_task, small_config):
        model, enc = self.model_and_batch(tiny_task, small_config)
        with ad.no_grad():
            logits = forward(model, enc[:4], "eval")
        assert logits.shape == (4, 2)

    def test_finite_logits_and_loss(self, tiny_task, small_config):
        model, enc = self.model_and_batch(tiny_task, small_config)
        ad.reset_tape()
        out = loss(model, enc[:4], "train")
        assert np.isfinite(out.item())
        ad.reset_tape()

    def test_batch_invariance(self, tiny_task, small_config):
        model, enc = self.model_and_batch(tiny_task, small_config)
        with ad.no_grad():
            batched = forward(model, enc[:5], "eval").data
            singles = np.vstack([forward(model, [e], "eval").data
                                 for e in enc[:5]])
        assert np.max(np.abs(batched - singles)) < 1e-10

    def test_padded_batch_matches_single_instances(self, tiny_task, small_config):
        model, enc = self.model_and_batch(tiny_task, small_config)
        batch = uneven_batch(enc)
        assert len({len(e.doc.ids) for e in batch}) >= 4
        with ad.no_grad():
            batched = forward(model, batch, "eval").data
            singles = np.vstack([forward(model, [e], "eval").data for e in batch])
        assert np.max(np.abs(batched - singles)) < 1e-10

    def test_train_mode_dropout_draws_per_instance_in_batch_order(
            self, tiny_task, small_config):
        """From one RNG state, a padded train-mode batch gives the logits
        of its instances run one at a time in order."""
        model, enc = self.model_and_batch(tiny_task, small_config)
        batch = uneven_batch(enc)
        state = model.rng.bit_generator.state
        with ad.no_grad():
            batched = forward(model, batch, "train").data
            after = model.rng.bit_generator.state
            model.rng.bit_generator.state = state
            singles = np.vstack([forward(model, [e], "train").data for e in batch])
        assert model.rng.bit_generator.state == after
        assert np.max(np.abs(batched - singles)) < 1e-10

    def test_one_dropout_draw_equals_per_instance_draws(self):
        """At uneven lengths, per-instance draws, concatenated, equal one
        draw over all valid rows bit for bit and leave the generator in
        the same state; the padded mask holds them instance by instance
        and zeros on padding."""
        lengths, width, p = np.array([5, 1, 7, 3]), 6, 0.3
        valid = np.arange(7) < lengths[:, None]
        one, each = np.random.default_rng(21), np.random.default_rng(21)
        draw = one.random((int(lengths.sum()), width))
        draws = np.concatenate([each.random((n, width)) for n in lengths])
        assert draw.tobytes() == draws.tobytes()
        assert one.bit_generator.state == each.bit_generator.state
        one, each = np.random.default_rng(22), np.random.default_rng(22)
        mask = pipeline._dropout_mask(one, p, valid, width)
        expected = np.zeros((4, 7, width))
        for i, n in enumerate(lengths):
            expected[i, :n] = ad.dropout_mask(each, p, (n, width))
        assert mask.tobytes() == expected.tobytes()
        assert one.bit_generator.state == each.bit_generator.state

    def test_gcn_branch_matches_numpy_recomputation(self, tiny_task, small_config):
        """With two layers, the GCN branch is m <- mean_k tanh(A_k m W_k + b_k)
        from the LSTM states, A_k the row-normalized projected adjacency."""
        cfg = replace(small_config, gcn_layers=2)
        model, enc = self.model_and_batch(tiny_task, cfg)
        inst = enc[0]
        ids = inst.doc.ids
        p = {name: t.data for name, t in model.params.items()}
        with ad.no_grad():
            logits = forward(model, [inst], "eval").data
            t = model.params
            seq = embed_sequence(ids, inst.head_start, inst.tail_start,
                                 t["embed.word"], t["embed.pos_head"],
                                 t["embed.pos_tail"], cfg.max_dist)
            fw, bw = ([t[f"lstm.{d}.{n}"] for n in ("wx", "wh", "b")]
                      for d in ("fw", "bw"))
            h = bilstm(seq, fw, bw)
            heads = [[t[f"attn.head{k}.{n}"] for n in ("wq", "wk", "wv")]
                     for k in range(cfg.heads)]
            attended = multi_head_attention(h, heads, t["attn.wo"]).data
        adjacency = project_adjacency(ids, tiny_task.graphs)
        m = h.data
        for layer in range(2):
            outs = []
            for kind in GRAPH_KINDS:
                a = adjacency[kind].matrix
                a_hat = a / a.sum(axis=1, keepdims=True)
                outs.append(np.tanh(a_hat @ m @ p[f"gcn.layer{layer}.{kind}.w"]
                                    + p[f"gcn.layer{layer}.{kind}.b"]))
            m = sum(outs) / len(outs)
        rep = np.concatenate([attended.max(axis=0), m.max(axis=0)])
        expected = rep[None, :] @ p["clf.w"] + p["clf.b"]
        assert np.max(np.abs(logits - expected)) < 1e-12

    def test_threaded_branches_bitwise_equal_serial(self, tiny_task, small_config,
                                                    monkeypatch):
        """With the size rule sending even the tiny task to the worker
        thread, train-mode logits and every gradient equal the serial
        run's bit for bit."""
        model, enc = self.model_and_batch(tiny_task, small_config)
        batch = uneven_batch(enc)
        threads, started = set(), threading.Event()
        attention, gcn = pipeline._attention_features, pipeline._gcn_features

        def spy(*args):
            threads.add(threading.get_ident())
            started.set()
            return attention(*args)

        def gated(*args):
            # The calling thread's branch waits until the attention branch
            # has started, so that one is never taken back from the worker.
            assert started.wait(timeout=60)
            return gcn(*args)

        monkeypatch.setattr(pipeline, "_attention_features", spy)
        monkeypatch.setattr(pipeline, "_gcn_features", gated)

        def run(min_floats):
            monkeypatch.setattr(ad, "BRANCH_THREAD_MIN_FLOATS", min_floats)
            started.clear()
            model.rng = np.random.default_rng(3)
            ad.reset_tape()
            logits = forward(model, batch, "train")
            ad.backward(ad.cross_entropy(logits, [e.label for e in batch]))
            ad.reset_tape()
            grads = {n: t.grad for n, t in model.params.items() if t.grad is not None}
            for t in model.params.values():
                t.grad = None
            return logits.data, grads

        serial_logits, serial_grads = run(1 << 62)
        assert threads == {threading.get_ident()}
        logits, grads = run(0)
        assert logits.tobytes() == serial_logits.tobytes()
        assert grads.keys() == serial_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == serial_grads[name].tobytes(), name
        if ad._offload(ad.BRANCH_THREAD_MIN_FLOATS):  # two CPUs available
            assert len(threads) == 2

    def test_deferred_jobs_at_train_long_shapes_bitwise_equal_inline(
            self, monkeypatch):
        """At the shapes of the benchmark's `train_long` workload (batch 8
        of reports carrying all seven kinds, the CLI default model), the
        train-mode logits, every gradient and the parameters after one
        Adam step equal a run with every job inline, bit for bit. With two
        CPUs, the worker thread ran jobs."""
        task, config, batch = train_long_batch()
        caller, ran_on = threading.get_ident(), set()
        run_job = ad._Job.run

        def spy(job):
            ran_on.add(threading.get_ident())
            run_job(job)

        monkeypatch.setattr(ad._Job, "run", spy)

        def step(offload):
            with monkeypatch.context() as m:
                if not offload:
                    m.setattr(ad, "_offload", lambda floats: False)
                model = init_model(config, task.vocab, task.embeddings, seed=2,
                                   label_set=task.label_set)
                optimizer = make_optimizer(model, 1e-3)
                ad.reset_tape()
                logits = forward(model, batch, "train")
                ad.backward(ad.cross_entropy(logits, [e.label for e in batch]))
                ad.reset_tape()
                grads = {n: t.grad.copy() for n, t in model.params.items()
                         if t.grad is not None}
                optimizer.step()
                return logits.data, grads, {n: t.data for n, t in
                                            model.params.items()}

        inline = step(offload=False)
        assert ran_on == {caller}
        got = step(offload=True)
        assert got[0].tobytes() == inline[0].tobytes()
        for mine, theirs in zip(got[1:], inline[1:]):
            assert mine.keys() == theirs.keys()
            for name, value in mine.items():
                assert value.tobytes() == theirs[name].tobytes(), name
        if ad._offload(ad.BRANCH_THREAD_MIN_FLOATS):  # two CPUs available
            assert ran_on - {caller}

    def test_recorded_forward_builds_each_adjacency_once(self, tiny_task,
                                                         small_config, monkeypatch):
        """Every two-layer forward, recorded or not, calls
        `batch_adjacency` once and hands the same arrays to both layers;
        both forwards give bitwise equal logits."""
        cfg = replace(small_config, gcn_layers=2)
        model, enc = self.model_and_batch(tiny_task, cfg)
        built, read = [], []
        build, layer = pipeline.batch_adjacency, pipeline.gcn_layer

        def counting(adjacencies, steps):
            built.append(build(adjacencies, steps))
            return built[-1]

        def reading(m, adjacencies, ws, bs):
            read.append(adjacencies)
            return layer(m, adjacencies, ws, bs)

        monkeypatch.setattr(pipeline, "batch_adjacency", counting)
        monkeypatch.setattr(pipeline, "gcn_layer", reading)
        ad.reset_tape()
        recorded = forward(model, enc[:3], "eval").data
        ad.reset_tape()
        with ad.no_grad():
            plain = forward(model, enc[:3], "eval").data
        assert len(built) == 2
        assert [len(arrays) for arrays in built] == [len(GRAPH_KINDS)] * 2
        assert [a is built[i // 2] for i, a in enumerate(read)] == [True] * 4
        assert recorded.tobytes() == plain.tobytes()

    def test_recorded_forward_one_record_per_gcn_layer_and_pool(
            self, tiny_task, monkeypatch):
        """A recorded train-mode forward of the default model makes one
        tape record per GCN layer and one per masked max-pool; every
        other record is an embedding, BiLSTM (dropout included),
        attention, branch or classifier op."""
        config = ModelConfig(label_count=len(tiny_task.label_set))
        model = init_model(config, tiny_task.vocab, seed=0,
                           label_set=tiny_task.label_set)
        batch = encode_all(tiny_task, config)[:4]
        recorded = []
        for module in (ad, layers):
            def counting(data, parents, rule, make=module.make_op):
                out = make(data, parents, rule)
                if not out.is_leaf:
                    recorded.append(rule.__qualname__.split(".")[0])
                return out

            monkeypatch.setattr(module, "make_op", counting)
        ad.reset_tape()
        forward(model, batch, "train")
        size = ad.tape_size()
        ad.reset_tape()
        assert Counter(recorded) == {
            "take_rows": 2, "bilstm": 1, "multi_head_attention": 1,
            "gcn_layer": config.gcn_layers, "max_pool_over_time": 2,
            "matmul": 1, "add_rowvec": 1}
        assert size == len(recorded) + 1  # the `concat_branches` record

    def test_attention_and_gcn_records_freed_before_the_bilstm_rule(
            self, job_mode, monkeypatch):
        """tracemalloc guard on one recorded default-model step at the
        shapes of the benchmark's `train_long` workload: when the BiLSTM
        rule starts, the live bytes are below those at the start of
        `backward` minus every array that the attention and GCN records
        saved, plus the gradients of their weights, which the replay has
        made by then. Jobs still queued on the worker run first, so their
        operands are not counted."""
        task, config, batch = train_long_batch()
        model = init_model(config, task.vocab, seed=0, label_set=task.label_set)
        live = {}
        make = layers.make_op

        def measuring(data, parents, rule):
            if rule.__qualname__.startswith("bilstm"):
                def rule(g, inner=rule):
                    ad._drain()
                    live["bilstm"] = tracemalloc.get_traced_memory()[0]
                    return inner(g)
            return make(data, parents, rule)

        monkeypatch.setattr(layers, "make_op", measuring)
        saved = []
        start, _ = traced_step(model, batch, lambda tape: saved.append(
            saved_bytes(tape, ("multi_head_attention", "gcn_layer"))))
        grads = sum(p.data.nbytes for name, p in model.params.items()
                    if name.startswith(("attn.", "gcn.")))
        assert saved[0] > 3 * grads
        assert live["bilstm"] < start - saved[0] + grads

    def test_backward_peak_at_train_long_shapes(self, job_mode):
        """tracemalloc guard on one recorded default-model step at the
        shapes of the benchmark's `train_long` workload: the peak of
        `backward` above the live bytes at its start stays below
        `BACKWARD_PEAK_MIB`, which holds only while the replay and the
        rules free each record and saved array at its last read."""
        task, config, batch = train_long_batch()
        model = init_model(config, task.vocab, seed=0, label_set=task.label_set)
        _, peak = traced_step(model, batch)
        assert peak < BACKWARD_PEAK_MIB[job_mode] * 2 ** 20, peak / 2 ** 20

    def test_step_live_bytes_at_train_long_shapes(self, job_mode):
        """tracemalloc guard on one recorded default-model step at the
        shapes of the benchmark's `train_long` workload: the live bytes
        when `backward` starts stay below `STEP_START_MIB`, and those plus
        the backward's peak above them below `STEP_PEAK_MIB`. Both hold
        only while the attention record keeps no weights or context."""
        task, config, batch = train_long_batch()
        model = init_model(config, task.vocab, seed=0, label_set=task.label_set)
        start, peak = traced_step(model, batch)
        assert start < STEP_START_MIB * 2 ** 20, start / 2 ** 20
        assert start + peak < STEP_PEAK_MIB[job_mode] * 2 ** 20, (
            (start + peak) / 2 ** 20)

    def test_bilstm_rule_peak_at_train_long_shapes(self, job_mode, monkeypatch):
        """tracemalloc guard on the BiLSTM rule of one recorded step at
        the shapes of the benchmark's `train_long` workload: its peak
        above the live bytes at its start stays below
        `BILSTM_RULE_PEAK_MIB`, which holds only while the reverse loop
        writes each step's dz over its gate factors."""
        task, config, batch = train_long_batch()
        model = init_model(config, task.vocab, seed=0, label_set=task.label_set)
        peaks = []
        make = layers.make_op

        def measuring(data, parents, rule):
            if rule.__qualname__.startswith("bilstm"):
                def rule(g, inner=rule):
                    ad._drain()
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    pairs = inner(g)
                    peaks.append(tracemalloc.get_traced_memory()[1] - start)
                    return pairs
            return make(data, parents, rule)

        monkeypatch.setattr(layers, "make_op", measuring)
        traced_step(model, batch)
        assert len(peaks) == 1
        assert peaks[0] < BILSTM_RULE_PEAK_MIB * 2 ** 20, peaks[0] / 2 ** 20

    def test_eval_mode_deterministic_bitwise(self, tiny_task, small_config):
        model, enc = self.model_and_batch(tiny_task, small_config)
        with ad.no_grad():
            a = forward(model, enc[:3], "eval").data
            b = forward(model, enc[:3], "eval").data
        assert np.array_equal(a, b)

    def test_softmax_rows_valid_distribution(self, tiny_task, small_config):
        model, enc = self.model_and_batch(tiny_task, small_config)
        probs = predict_proba(model, enc[:6])
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(probs >= 0)

    @staticmethod
    def count_forwards(monkeypatch):
        """Patch pipeline.forward to record each call's batch size."""
        sizes = []
        real_forward = pipeline.forward

        def counting_forward(m, part, mode="eval"):
            sizes.append(len(part))
            return real_forward(m, part, mode)

        monkeypatch.setattr(pipeline, "forward", counting_forward)
        return sizes

    def test_predict_proba_runs_in_chunks(self, tiny_task, small_config,
                                          monkeypatch):
        """With EVAL_ARRAY_FLOATS set to 64 instances' worth, each forward
        sees at most 64 instances and the rows equal per-chunk results."""
        model, enc = self.model_and_batch(tiny_task, small_config)
        batch = (enc * (70 // len(enc) + 1))[:70]
        steps = max(len(inst.doc.ids) for inst in batch)
        monkeypatch.setattr(pipeline, "EVAL_ARRAY_FLOATS",
                            64 * steps * max(steps, model.config.d_model))
        expected = np.vstack([pipeline.predict_proba(model, batch[:64]),
                              pipeline.predict_proba(model, batch[64:])])
        sizes = self.count_forwards(monkeypatch)
        probs = pipeline.predict_proba(model, batch)
        assert sizes == [64, 6]
        assert np.array_equal(probs, expected)
        assert np.array_equal(pipeline.predict(model, batch),
                              expected.argmax(axis=1))

    def test_eval_chunks_bounded_by_array_budget(self, tiny_task, small_config,
                                                 monkeypatch):
        """Eval forwards are sized by EVAL_ARRAY_FLOATS alone: a batch
        within the budget runs as one forward, and a tighter budget cuts
        it into chunks whose rows stay within the batch-invariance
        tolerance of the single forward."""
        model, enc = self.model_and_batch(tiny_task, small_config)
        batch = (enc * (70 // len(enc) + 1))[:70]
        sizes = self.count_forwards(monkeypatch)
        whole = pipeline.predict_proba(model, batch)
        assert sizes == [70]

        steps = max(len(inst.doc.ids) for inst in batch)
        monkeypatch.setattr(pipeline, "EVAL_ARRAY_FLOATS",
                            16 * steps * max(steps, model.config.d_model))
        sizes.clear()
        probs = pipeline.predict_proba(model, batch)
        assert sizes == [16, 16, 16, 16, 6]
        assert np.max(np.abs(probs - whole)) <= 1e-10

    def test_every_variant_trains_one_step(self, tiny_task, small_config):
        for variant in ABLATION_VARIANTS:
            cfg = make_variant(small_config, variant)
            model = init_model(cfg, tiny_task.vocab, tiny_task.embeddings,
                               seed=1, label_set=tiny_task.label_set)
            enc = encode_all(tiny_task, cfg)
            frozen_before = {n: t.data.copy() for n, t in model.params.items()
                             if not t.requires_grad}
            params_before = {n: t.data.copy() for n, t in model.params.items()
                             if t.requires_grad}
            opt = make_optimizer(model, lr=1e-3)
            ad.reset_tape()
            out = loss(model, enc[:4], "train")
            ad.backward(out)
            opt.step()
            ad.reset_tape()
            for name, before in frozen_before.items():
                assert np.array_equal(model.params[name].data, before), \
                    f"{variant}: frozen tensor {name} changed"
            assert any(not np.array_equal(model.params[n].data, params_before[n])
                       for n in params_before), f"{variant}: nothing trained"


def on_worker() -> bool:
    return threading.current_thread().name.startswith("bioie-branch")


class TestEvalChunksShared:
    """`eval_logits` shares its chunks between the worker thread and the
    calling thread; every mode gives the logits of an all-inline run."""

    def model_batch_inline(self, task, config, monkeypatch, size,
                           per_chunk=3):
        """A model, `size` instances of uneven length, and an array budget
        that cuts them into chunks of `per_chunk`."""
        model = init_model(config, task.vocab, task.embeddings, seed=0,
                           label_set=task.label_set)
        enc = encode_all(task, config)
        lengths = (40, 3, 17, 9, 28, 5, 12)
        batch = [cut(enc[i % len(enc)], lengths[i % len(lengths)])
                 for i in range(size)]
        steps = max(len(inst.doc.ids) for inst in batch)
        monkeypatch.setattr(pipeline, "EVAL_ARRAY_FLOATS", per_chunk * steps
                            * max(steps, model.config.d_model))
        with monkeypatch.context() as m:
            m.setattr(ad, "_offload", lambda floats: False)
            inline = pipeline.eval_logits(model, batch)
        return model, batch, inline

    @pytest.mark.parametrize("size, chunks", [(2, 1), (5, 2), (8, 3), (20, 7)])
    def test_bitwise_equal_inline(self, tiny_task, small_config, job_mode,
                                  monkeypatch, size, chunks):
        model, batch, inline = self.model_batch_inline(
            tiny_task, small_config, monkeypatch, size)
        sizes, lengths, workers = [], set(), []
        real_forward, started = pipeline.forward, threading.Event()

        def spy(m, part, mode="eval"):
            if part[0] is batch[0]:
                started.set()
            elif part[-1] is batch[-1]:
                # The calling thread's chunk waits until the first has
                # started, so that one is never taken back from the worker.
                assert started.wait(timeout=60)
            sizes.append(len(part))
            lengths.add(max(len(inst.doc.ids) for inst in part))
            workers.append(on_worker())
            return real_forward(m, part, mode)

        monkeypatch.setattr(pipeline, "forward", spy)
        got = pipeline.eval_logits(model, batch)
        assert got.tobytes() == inline.tobytes()
        assert len(sizes) == chunks and sorted(sizes)[0] == size - 3 * (chunks - 1)
        assert chunks < 3 or len(lengths) > 1
        # The worker takes the first chunk whenever there is a second.
        assert any(workers) == (job_mode == "worker" and chunks > 1)

    @pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)],
                             ids=["first", "second", "both"])
    def test_error_raised_after_both_chunks_finish(
            self, tiny_task, small_config, job_mode, monkeypatch, failing):
        """An error in either of two chunks is raised once both have
        finished, the first in chunk order; the next call succeeds."""
        model, batch, inline = self.model_batch_inline(
            tiny_task, small_config, monkeypatch, 6)
        finished = []
        real_forward = pipeline.forward

        def flaky(m, part, mode="eval"):
            index = 0 if part[0] is batch[0] else 1
            time.sleep(0.05 if index == 0 else 0.0)
            if index in failing:
                raise ValueError(f"chunk {index}")
            out = real_forward(m, part, mode)
            finished.append(index)
            return out

        with monkeypatch.context() as m:
            m.setattr(pipeline, "forward", flaky)
            with pytest.raises(ValueError, match=f"chunk {failing[0]}"):
                pipeline.eval_logits(model, batch)
        assert sorted(finished) == sorted({0, 1} - set(failing))
        assert pipeline.eval_logits(model, batch).tobytes() == inline.tobytes()

    def test_forward_on_the_worker_finishes_bitwise_equal(
            self, tiny_task, small_config, job_mode, monkeypatch):
        """An eval forward run on the worker thread, branches included,
        finishes and gives the logits of an all-inline run: the worker
        takes back the branch it queued rather than wait on its own
        queue."""
        model, batch, inline = self.model_batch_inline(
            tiny_task, small_config, monkeypatch, 3)

        def run():
            with ad.no_grad():
                return forward(model, batch, "eval").data

        assert ad._worker().submit(run).result(timeout=60).tobytes() == inline.tobytes()


class TestLoss:
    def test_uniform_logits_log2(self, tiny_task, small_config):
        model = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                           seed=0, label_set=tiny_task.label_set)
        model.params["clf.w"].data[:] = 0.0
        model.params["clf.b"].data[:] = 0.0
        enc = encode_all(tiny_task, small_config)
        with ad.no_grad():
            out = loss(model, enc[:4], "eval")
        assert abs(out.item() - math.log(2)) < 1e-12

    def test_separated_logits_near_zero_loss(self, tiny_task, small_config):
        model = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                           seed=0, label_set=tiny_task.label_set)
        enc = encode_all(tiny_task, small_config)
        with ad.no_grad():
            logits = forward(model, enc[:2], "eval").data
        rigged = ad.Tensor(np.array([[40.0, -40.0], [-40.0, 40.0]]))
        targets = [0, 1]
        assert ad.cross_entropy(rigged, targets).item() < 1e-8

    def test_full_pipeline_gradients(self, tiny_task, small_config):
        """Gradients through the whole forward match central differences."""
        model = init_model(small_config, tiny_task.vocab, tiny_task.embeddings,
                           seed=2, label_set=tiny_task.label_set)
        enc = encode_all(tiny_task, small_config)[:2]

        def f(_):
            return loss(model, enc, "eval")

        rng = np.random.default_rng(0)
        for name in ("lstm.fw.wx", "attn.head0.wq", "gcn.layer0.semantic.w",
                     "clf.w", "embed.pos_head"):
            err = ad.grad_check(f, model.params[name], epsilon=1e-5,
                                samples=4, rng=rng)
            assert err <= 1e-4, f"{name}: {err}"
