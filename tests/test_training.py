"""Training-loop, cross-validation, checkpoint, and transfer tests."""

import copy
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bioie.autodiff as ad
import bioie.training as training
from bioie.corpus import Document, build_vocabulary, tokenize
from bioie.layers import ModelConfig
from bioie.pipeline import encode_instances, init_model, make_variant, predict
from bioie.textgraph import GRAPH_KINDS, CorpusGraphs, build_sequence_graph
from bioie.training import (
    BadMagic,
    CheckpointError,
    DigestMismatch,
    TrainPlan,
    TrainingDiverged,
    TruncatedCheckpoint,
    VersionMismatch,
    apply_grid_point,
    evaluate_model,
    fit,
    grid_search,
    load_checkpoint,
    make_optimizer,
    run_cross_validation,
    save_checkpoint,
    split_train_dev_test,
    train_epoch,
    train_from_scratch,
    transfer_finetune,
)

from conftest import (
    CHECKPOINT_HEADER,
    CORRUPT_LENGTHS,
    assert_same_graphs,
    build_synth_task,
    corrupt_checkpoint,
    counts_of,
    join_checkpoint,
    split_checkpoint,
)


def fresh_model(task, config, seed=0):
    return init_model(config, task.vocab, task.embeddings, seed=seed,
                      label_set=task.label_set)


def encode_all(task, config, instances=None):
    return encode_instances(instances or task.instances, task.documents,
                            task.vocab, task.graphs, config)


def registry_snapshot(model):
    return {n: p.data.copy() for n, p in model.params.items()}


class TestTrainEpoch:
    def test_zero_lr_keeps_parameters_bitwise(self, tiny_task, small_config):
        model = fresh_model(tiny_task, small_config)
        enc = encode_all(tiny_task, small_config)
        before = registry_snapshot(model)
        opt = make_optimizer(model, lr=0.0)
        train_epoch(model, enc, opt, model.rng, batch_size=8)
        for name, data in before.items():
            assert np.array_equal(model.params[name].data, data)

    def test_single_instance_memorized(self, tiny_task, small_config):
        model = fresh_model(tiny_task, small_config, seed=1)
        enc = encode_all(tiny_task, small_config)[:1]
        opt = make_optimizer(model, lr=1e-3)
        for _ in range(50):
            train_epoch(model, enc, opt, model.rng, batch_size=1)
        assert predict(model, enc)[0] == enc[0].label

    def test_same_seed_identical_loss_sequence(self, tiny_task, small_config):
        def run():
            model = fresh_model(tiny_task, small_config, seed=4)
            enc = encode_all(tiny_task, small_config)
            opt = make_optimizer(model, lr=1e-3)
            return [train_epoch(model, enc, opt, model.rng, 8)
                    for _ in range(3)]

        assert run() == run()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_loss_aborts_with_batch_diagnostic(self, tiny_task, small_config):
        model = fresh_model(tiny_task, small_config)
        model.params["clf.w"].data[:] = np.inf
        enc = encode_all(tiny_task, small_config)
        opt = make_optimizer(model, lr=1e-3)
        with pytest.raises(TrainingDiverged, match="batch 0"):
            train_epoch(model, enc, opt, model.rng, 8)

    def test_empty_instances_rejected(self, tiny_task, small_config):
        model = fresh_model(tiny_task, small_config)
        opt = make_optimizer(model, lr=1e-3)
        with pytest.raises(ValueError):
            train_epoch(model, [], opt, model.rng, 8)


class TestCrossValidation:
    def test_partition_and_metrics(self, tiny_task, small_config):
        plan = TrainPlan(epochs=1, batch_size=8, seed=0, patience=1)
        result = run_cross_validation(tiny_task, small_config, plan, k=4)
        assert len(result.fold_reports) == 4
        covered = set()
        for fold in range(4):
            ids = result.plan.fold_ids(fold)
            assert not covered & set(ids)
            covered.update(ids)
        assert len(covered) == len(tiny_task.instances)

    def test_single_class_dataset_guarded(self, small_config):
        task = build_synth_task({"Size": 8}, seed=5)
        # keep only positives: recall trivially 1, precision guarded
        positives = [i for i in task.instances if i.label == 1]
        task.instances = positives
        plan = TrainPlan(epochs=1, batch_size=4, seed=0)
        result = run_cross_validation(task, small_config, plan, k=2)
        for report in result.fold_reports:
            assert 0.0 <= report.macro_f <= 100.0


class TestGridSearch:
    def test_single_point(self, tiny_task, small_config):
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        best, board = grid_search(tiny_task, {"lr": [1e-3]}, small_config, plan)
        assert best == {"lr": 1e-3}
        assert len(board) == 1

    def test_two_by_two_grid(self, tiny_task, small_config):
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        grid = {"lr": [1e-3, 3e-4], "hidden": [8, 16]}
        best, board = grid_search(tiny_task, grid, small_config, plan)
        assert len(board) == 4
        assert set(best) == {"lr", "hidden"}

    def test_duplicate_point_memoized(self, tiny_task, small_config):
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        grid = {"lr": [1e-3, 1e-3]}
        best, board = grid_search(tiny_task, grid, small_config, plan)
        assert len(board) == 1  # evaluated once

    def test_gcn_point_over_no_gcn_base(self, tiny_task, small_config):
        """The one encoding carries the adjacency when any point runs the
        GCN branch, even if the base configuration does not."""
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        base = make_variant(small_config, "no_gcn")
        _, board = grid_search(tiny_task, {"use_gcn": [False, True]}, base, plan)
        assert [point for point, _ in board] == [{"use_gcn": False},
                                                 {"use_gcn": True}]

    def test_empty_grid_rejected(self, tiny_task, small_config):
        with pytest.raises(ValueError):
            grid_search(tiny_task, {}, small_config, TrainPlan(epochs=1))

    @pytest.mark.parametrize("point", [{"lr": 0.0}, {"lr": float("nan")},
                                       {"patience": -1}],
                             ids=["zero_lr", "nan_lr", "negative_patience"])
    def test_plan_point_out_of_range_rejected(self, small_config, point):
        """A grid point makes its plan through `TrainPlan`'s own checks."""
        with pytest.raises(ValueError, match=next(iter(point))):
            apply_grid_point(small_config, TrainPlan(), point)


class TestCheckpoint:
    def trained(self, task, config, steps=2, seed=0):
        model = fresh_model(task, config, seed=seed)
        enc = encode_all(task, config)
        opt = make_optimizer(model, lr=1e-3)
        for _ in range(steps):
            train_epoch(model, enc, opt, model.rng, 8)
        return model, opt, enc

    def test_round_trip_bit_exact(self, tiny_task, small_config, tmp_path):
        model, opt, _ = self.trained(tiny_task, small_config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name].data,
                                  model.params[name].data)
            assert (loaded.params[name].requires_grad
                    == model.params[name].requires_grad)
        assert not loaded.params["embed.word"].requires_grad
        assert loaded.optimizer.t == opt.t
        for a, b in zip(loaded.optimizer.m, opt.m):
            assert np.array_equal(a, b)
        assert loaded.rng.bit_generator.state == model.rng.bit_generator.state
        assert loaded.label_set == model.label_set
        assert loaded.vocab.token_to_id == model.vocab.token_to_id

    def test_resave_byte_identical_with_graphs(self, tiny_task, small_config,
                                               tmp_path):
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        model.graphs = tiny_task.graphs
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(model, opt, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, loaded.optimizer, second)
        # Projection built the first model's lookup table, and the
        # loaded model has none: the table is never saved.
        assert "pair_table" in vars(model.graphs)
        assert "pair_table" not in vars(loaded.graphs)
        assert first.read_bytes() == second.read_bytes()
        assert_same_graphs(loaded.graphs, model.graphs)
        assert loaded.graphs is not model.graphs

    def test_resume_continues_identical_trajectory(self, tiny_task,
                                                   small_config, tmp_path):
        model, opt, enc = self.trained(tiny_task, small_config, steps=2)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(model, opt, path)
        straight = [train_epoch(model, enc, opt, model.rng, 8) for _ in range(3)]
        resumed_model = load_checkpoint(path)
        resumed = [train_epoch(resumed_model, enc, resumed_model.optimizer,
                               resumed_model.rng, 8) for _ in range(3)]
        assert straight == resumed

    def test_truncated_file(self, tiny_task, small_config, tmp_path):
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedCheckpoint, match="unexpected end"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corruption", sorted(CORRUPT_LENGTHS))
    def test_length_field_beyond_the_file(self, tiny_task, small_config,
                                          tmp_path, corruption):
        """A length no file byte backs is refused before it is allocated
        or multiplied out, rather than ending in MemoryError or a reshape
        error."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        path.write_bytes(corrupt_checkpoint(path.read_bytes(), corruption))
        with pytest.raises(TruncatedCheckpoint, match="unexpected end"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTIT" + b"\0" * 64)
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_version_mismatch(self, tiny_task, small_config, tmp_path):
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = bytearray(path.read_bytes())
        raw[5] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_version_1_file_says_retrain(self, tiny_task, small_config,
                                         tmp_path):
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = bytearray(path.read_bytes())
        raw[5:9] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch, match="version 1.*retrain"):
            load_checkpoint(path)

    def test_version_2_file_says_retrain(self, tiny_task, small_config,
                                         tmp_path):
        """A version-2 file, whose digest covers only its config, is
        refused before its layout is read."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = bytearray(path.read_bytes())
        raw[5:9] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch, match="version 2.*retrain"):
            load_checkpoint(path)

    def test_moment_for_absent_tensor_named(self, tiny_task, small_config,
                                            tmp_path):
        """The optimizer's "clf.w" renamed "clf.x" in a re-hashed manifest:
        a named CheckpointError, not a KeyError."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        manifest, arrays = split_checkpoint(path.read_bytes())
        names = manifest["adam"]["names"]
        names[names.index("clf.w")] = "clf.x"
        path.write_bytes(join_checkpoint(manifest, arrays))
        with pytest.raises(CheckpointError, match="'clf.x'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda p: p.update({k: ad.Tensor(p[k].data[:, :1])
                             for k in ("lstm.fw.b", "lstm.bw.b")}), "lstm.fw.b"),
        (lambda p: p.pop("clf.b"), "clf.b"),
        (lambda p: p.update({"gcn.layer5.semantic.w": ad.Tensor(np.ones((4, 4)))}),
         "gcn.layer5.semantic.w"),
    ], ids=["misshapen", "missing", "unexpected"])
    def test_tensor_that_does_not_fit_the_config_named(
            self, tiny_task, small_config, tmp_path, edit, named):
        """Stored tensors are checked against the registry that the
        stored config makes: a (1, 1) LSTM bias, which would broadcast
        across the gate columns, a missing classifier bias and an extra
        GCN weight are each refused by name."""
        model = fresh_model(tiny_task, small_config)
        edit(model.params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, path)
        with pytest.raises(CheckpointError, match=f"'{named}'"):
            load_checkpoint(path)

    def test_moment_for_frozen_tensor_named(self, tiny_task, small_config,
                                            tmp_path):
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        model.params["clf.b"].requires_grad = False
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        with pytest.raises(CheckpointError, match="'clf.b'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        {"bogus": 1},
        {"attention": "single", "heads": 1, "head_dim": 8},
        {"head_dim": 0},
    ], ids=["unknown_key", "single_attention", "zero_head_dim"])
    def test_config_the_model_rejects_says_retrain(self, tiny_task, small_config,
                                                   tmp_path, edit):
        """A config that passes its digest but that ModelConfig
        rejects, such as a single-head checkpoint from before `attention`
        lost its "single" value."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        manifest, arrays = split_checkpoint(path.read_bytes())
        manifest["config"].update(edit)
        path.write_bytes(join_checkpoint(manifest, arrays))
        with pytest.raises(CheckpointError, match="retrain"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m.graphs.sequence.edge_weight.__setitem__(
            np.flatnonzero(m.graphs.sequence.edge_weight)[0], np.nan),
         "sequence graph"),
        (lambda m: m.params["clf.b"].data.__setitem__((0, 0), np.inf),
         "tensor 'clf.b'"),
        (lambda m: m.optimizer.v[-1].__setitem__((0, 0), -np.inf),
         "moment for 'clf.b'"),
    ], ids=["nan_edge_weight", "inf_tensor", "inf_moment"])
    def test_non_finite_number_named(self, tiny_task, small_config, tmp_path,
                                     edit, named):
        """A checkpoint that holds a NaN or an infinity in a graph, a
        tensor or an Adam moment is refused, and the part is named; it
        would give non-finite logits or updates."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        model.optimizer = opt
        model.graphs = copy.deepcopy(tiny_task.graphs)
        edit(model)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        with pytest.raises(CheckpointError, match=f"{named}.*non-finite"):
            load_checkpoint(path)

    def test_digest_mismatch_no_partial_load(self, tiny_task, small_config,
                                             tmp_path):
        """One flipped bit in the manifest, in the middle of the arrays or
        in the last byte fails the digest, before anything is parsed."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = path.read_bytes()
        for at in (CHECKPOINT_HEADER.size, (CHECKPOINT_HEADER.size + len(raw)) // 2,
                   len(raw) - 1):
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:])
            with pytest.raises(DigestMismatch):
                load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("adam"),
        lambda m: m["tensors"][0].pop(),
        lambda m: m.update(label_set=5),
        lambda m: m["adam"].update(names=[["clf.w"]]),
        lambda m: m.update(rng={"bit_generator": "PCG64"}),
        lambda m: m.update(graphs={"theta": 0.9, "window": 5, "pairs": [0, 0]}),
        lambda m: m["adam"].update(t=2.9),
        lambda m: m["adam"].update(t=-4),
    ], ids=["no_adam", "short_tensor_entry", "label_set_not_list",
            "unhashable_moment_name", "rng_state_incomplete", "two_graph_kinds",
            "fractional_adam_step", "negative_adam_step"])
    def test_malformed_manifest_is_a_checkpoint_error(self, tiny_task,
                                                      small_config, tmp_path,
                                                      edit):
        """A re-hashed manifest of the wrong structure is refused as a
        CheckpointError, never a KeyError or a TypeError."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        manifest, arrays = split_checkpoint(path.read_bytes())
        edit(manifest)
        path.write_bytes(join_checkpoint(manifest, arrays))
        with pytest.raises(CheckpointError, match="is not valid"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda vocab, word: vocab.update({word: 2}),
        lambda vocab, word: vocab.update({word: len(vocab) + 5}),
        lambda vocab, word: vocab.update({word: float(vocab[word])}),
    ], ids=["duplicate_id", "id_past_the_table", "float_id"])
    def test_vocabulary_ids_not_0_to_size(self, tiny_task, small_config,
                                          tmp_path, edit):
        """A re-hashed vocabulary whose ids are not exactly 0..size-1 is
        refused: a duplicate id would map two words to one row, and an id
        past the word table would index out of it."""
        model = fresh_model(tiny_task, small_config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, path)
        manifest, arrays = split_checkpoint(path.read_bytes())
        word = next(w for w, i in manifest["vocab"].items() if i == 7)
        edit(manifest["vocab"], word)
        path.write_bytes(join_checkpoint(manifest, arrays))
        with pytest.raises(CheckpointError, match="vocabulary ids"):
            load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_damage_is_refused(small_checkpoint, tmp_path_factory, data):
    """Any single-byte change, truncation or appended bytes raise a
    CheckpointError subclass, whichever field they hit."""
    raw = small_checkpoint
    kind = data.draw(st.sampled_from(["change", "truncate", "append"]))
    if kind == "change":
        at = data.draw(st.integers(0, CHECKPOINT_HEADER.size + 64)
                       | st.integers(0, len(raw) - 1))
        flip = data.draw(st.integers(1, 255))
        damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
    elif kind == "truncate":
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        damaged = raw + data.draw(st.binary(min_size=1, max_size=16))
    path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
    path.write_bytes(damaged)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tiny_task, tmp_path_factory):
    """A checkpoint with every section: a narrow model, its Adam state
    after one step and the tiny task's graphs."""
    config = ModelConfig(label_count=len(tiny_task.label_set), d_w=24, d_p=2,
                         max_dist=4, hidden=2, heads=1, gcn_layers=1)
    model = fresh_model(tiny_task, config)
    model.graphs = tiny_task.graphs
    opt = make_optimizer(model, lr=1e-3)
    train_epoch(model, encode_all(tiny_task, config)[:4], opt, model.rng, 4)
    path = tmp_path_factory.mktemp("small") / "model.ckpt"
    save_checkpoint(model, opt, path)
    return path.read_bytes()


def dict_graph_tables(graphs) -> bytes:
    """Format oracle: each kind's (a, b, count, weight) rows built from
    dicts keyed by pair, in key order, as little-endian float64."""
    out = []
    for kind in GRAPH_KINDS:
        stats = graphs.by_kind(kind)
        out += [(a, b, c, stats.weights.get((a, b), 0.0))
                for (a, b), c in sorted(counts_of(stats).items())]
    return np.array(out, dtype="<f8").reshape(-1, 4).tobytes()


def with_graph_tables(raw, tables):
    """Checkpoint `raw`, saved without graphs, given theta 0.9, window 5
    and these (a, b, count, weight) tables, in kind order, re-hashed."""
    manifest, arrays = split_checkpoint(raw)
    assert manifest["graphs"] is None
    manifest["graphs"] = {"theta": 0.9, "window": 5,
                          "pairs": [len(t) for t in tables]}
    rows = b"".join(np.array(t, dtype="<f8").tobytes() for t in tables)
    return join_checkpoint(manifest, arrays + rows)


def sequence_only_graphs():
    """Graphs whose sequence kind counts three pairs and has no edge:
    every PMI of "a b c a" at window 2 is ln(3/4) < 0."""
    text = "a b c a"
    docs = [Document("d0", "synthetic", text, tokenize(text), [])]
    sequence = build_sequence_graph(docs, build_vocabulary(docs), 2)
    assert len(sequence.keys) == 3 and len(sequence) == 0
    empty = build_sequence_graph([], build_vocabulary([]), 2)
    return CorpusGraphs(empty, empty, sequence, theta=0.9, window=2)


class TestGraphBlock:
    GOOD = [[2, 3, 1.0, 0.5]]

    @pytest.fixture
    def bare(self, tiny_task, small_config, tmp_path):
        """A checkpoint path, and the bytes of a model saved there
        without optimizer or graphs."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(fresh_model(tiny_task, small_config), None, path)
        return path, path.read_bytes()

    def refused(self, bare, tables, message):
        path, raw = bare
        path.write_bytes(with_graph_tables(raw, tables))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("make", [lambda task: task.graphs,
                                      lambda task: sequence_only_graphs(),
                                      lambda task: None],
                             ids=["tiny", "sequence_only", "none"])
    def test_writer_matches_the_dict_oracle(self, tiny_task, small_config,
                                            tmp_path, make):
        graphs = make(tiny_task)
        model = fresh_model(tiny_task, small_config)
        model.graphs = graphs
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, path)
        manifest, arrays = split_checkpoint(path.read_bytes())
        loaded = load_checkpoint(path)
        if graphs is None:
            assert manifest["graphs"] is None and loaded.graphs is None
            return
        oracle = dict_graph_tables(graphs)
        assert arrays[len(arrays) - len(oracle):] == oracle
        assert manifest["graphs"]["pairs"] == [
            len(graphs.by_kind(kind).keys) for kind in GRAPH_KINDS]
        assert_same_graphs(loaded.graphs, graphs)

    def test_table_not_pairs_by_4(self, bare):
        """A kind's row count that is not a count gives no (pairs, 4)
        table: refused by kind."""
        path, raw = bare
        manifest, arrays = split_checkpoint(with_graph_tables(raw, [self.GOOD] * 3))
        for pairs in (-1, 1.0, [1, 4], None):
            manifest["graphs"]["pairs"][0] = pairs
            path.write_bytes(join_checkpoint(manifest, arrays))
            with pytest.raises(CheckpointError,
                               match="semantic graph has no valid shape"):
                load_checkpoint(path)

    @pytest.mark.parametrize("at, value, message", [
        (2, np.nan, "non-finite"), (3, np.inf, "non-finite"),
        (2, 0.5, "count below 1"), (3, -0.25, "negative weight"),
    ], ids=["nan_count", "inf_weight", "count_below_1", "negative_weight"])
    def test_count_or_weight_no_builder_makes(self, bare, at, value, message):
        """Builders count a pair once per document or window at least, and
        weigh it by a non-negative number: the syntactic kind's count or
        weight `value` is refused, by kind."""
        row = [2, 3, 1.0, 0.5]
        row[at] = value
        self.refused(bare, [self.GOOD, [row], self.GOOD],
                     f"syntactic graph.*{message}")

    def test_count_rows_out_of_pair_order(self, bare):
        self.refused(bare, [self.GOOD, self.GOOD,
                            [[2, 5, 1.0, 0.0], [2, 3, 1.0, 0.0]]],
                     "sequence graph rows are not sorted")

    @pytest.mark.parametrize("a, b", [(2.7, 3.2), (3, 2), (-1, 2 ** 40),
                                      (2, "size")],
                             ids=["fractional", "a_above_b", "negative_and_huge",
                                  "b_past_the_vocabulary"])
    def test_pair_ids_not_word_ids_a_below_b(self, bare, tiny_task, a, b):
        """A pair is two word ids a < b of the stored vocabulary; any other
        row would be truncated, never matched or out of range."""
        b = tiny_task.vocab.size if b == "size" else b
        self.refused(bare, [self.GOOD, [[a, b, 1.0, 0.5]], self.GOOD],
                     "syntactic graph has a pair that is not word ids")


class TestFitAndTransfer:
    def ckpt(self, task, config, tmp_path, seed=0):
        model = fresh_model(task, config, seed=seed)
        enc = encode_all(task, config)
        opt = make_optimizer(model, lr=1e-3)
        for _ in range(2):
            train_epoch(model, enc, opt, model.rng, 8)
        path = tmp_path / "source.ckpt"
        save_checkpoint(model, opt, path)
        return path, model

    def test_freeze_everything_keeps_checkpoint(self, tiny_task, small_config,
                                                tmp_path):
        path, source = self.ckpt(tiny_task, small_config, tmp_path)
        target = build_synth_task({"Size": 10}, seed=3)  # same generator/vocab
        plan = TrainPlan(epochs=3, batch_size=8, seed=0, patience=2)
        freeze = ("embed.", "lstm.", "attn.", "gcn.", "clf.")
        _, model = transfer_finetune(path, target, freeze, plan)
        for name, tensor in source.params.items():
            assert np.array_equal(model.params[name].data, tensor.data), name

    def test_freeze_nothing_warm_start_trains(self, tiny_task, small_config,
                                              tmp_path):
        path, source = self.ckpt(tiny_task, small_config, tmp_path)
        target = build_synth_task({"Size": 12}, seed=9)
        plan = TrainPlan(epochs=2, batch_size=8, seed=0, patience=2)
        _, model = transfer_finetune(path, target, (), plan)
        changed = any(
            model.params[n].shape != source.params[n].shape
            or not np.array_equal(model.params[n].data, source.params[n].data)
            for n in source.params)
        assert changed

    def test_unmatched_freeze_prefix_named(self, tiny_task, small_config,
                                           tmp_path):
        path, _ = self.ckpt(tiny_task, small_config, tmp_path)
        target = build_synth_task({"Size": 10}, seed=3)
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        with pytest.raises(ValueError, match="bogus."):
            transfer_finetune(path, target, ("bogus.",), plan)

    def test_frozen_parameters_bitwise_after_100_steps(self, tiny_task,
                                                       small_config):
        model = fresh_model(tiny_task, small_config, seed=6)
        enc = encode_all(tiny_task, small_config)[:2]
        frozen = {n: model.params[n].data.copy()
                  for n in model.params if n.startswith("lstm.")}
        opt = make_optimizer(model, lr=1e-2, freeze_prefixes=("lstm.",))
        for _ in range(100):
            train_epoch(model, enc, opt, model.rng, batch_size=2)
        for name, data in frozen.items():
            assert np.array_equal(model.params[name].data, data)

    def test_fit_skips_gradients_of_frozen_tensors(self, tiny_task,
                                                   small_config, monkeypatch):
        """Under `fit`'s freeze prefixes no backward computes a frozen
        tensor's gradient; the tensors stay bitwise unchanged, and their
        `requires_grad` flags are restored afterwards."""
        model = fresh_model(tiny_task, small_config, seed=6)
        model.params["embed.word"].requires_grad = True  # trainable too
        enc = encode_all(tiny_task, small_config)
        freeze = ("lstm.", "embed.")
        frozen = {n: p.data.copy() for n, p in model.params.items()
                  if n.startswith(freeze)}
        seen = []
        backward = ad.backward

        def checked_backward(loss):
            backward(loss)
            seen.append([model.params[n].grad is None for n in frozen])

        monkeypatch.setattr(ad, "backward", checked_backward)
        fit(model, enc[:8], enc[8:12], TrainPlan(epochs=2, batch_size=4, seed=0),
            freeze_prefixes=freeze)
        assert seen and all(all(step) for step in seen)
        for name, data in frozen.items():
            assert np.array_equal(model.params[name].data, data), name
            assert model.params[name].requires_grad, name

    def test_classifier_head_remap_on_label_mismatch(self, tiny_task,
                                                     small_config, tmp_path):
        path, _ = self.ckpt(tiny_task, small_config, tmp_path)
        target = build_synth_task({"Grade": 10}, seed=2)
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        report, model = transfer_finetune(path, target, (), plan)
        assert model.label_set == target.label_set
        assert model.params["clf.w"].shape[1] == len(target.label_set)

    def test_model_carries_the_graphs_it_encodes_with(self, tiny_task,
                                                      small_config, tmp_path):
        path, _ = self.ckpt(tiny_task, small_config, tmp_path)
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        _, model = train_from_scratch(tiny_task, small_config, plan)
        assert model.graphs is tiny_task.graphs
        target = build_synth_task({"Size": 12}, seed=9)
        _, model = transfer_finetune(path, target, (), plan)
        assert model.vocab is target.vocab
        assert model.graphs is target.graphs

    def test_each_command_encodes_its_task_once(self, tiny_task, small_config,
                                                tmp_path, monkeypatch):
        """Training, fine-tuning and a two-point grid search each encode
        the task's instances in one call and split the encoded list."""
        path, _ = self.ckpt(tiny_task, small_config, tmp_path)
        calls = []

        def counting_encode(instances, *args):
            calls.append(len(instances))
            return encode_instances(instances, *args)

        monkeypatch.setattr(training, "encode_instances", counting_encode)
        plan = TrainPlan(epochs=1, batch_size=8, seed=0)
        everything = [len(tiny_task.instances)]
        train_from_scratch(tiny_task, small_config, plan)
        assert calls == everything
        calls.clear()
        transfer_finetune(path, tiny_task, (), plan)
        assert calls == everything
        calls.clear()
        grid_search(tiny_task, {"lr": [1e-3, 3e-4]}, small_config, plan)
        assert calls == everything

    def test_split_train_dev_test_partition(self, tiny_task):
        train, dev, test = split_train_dev_test(tiny_task.instances, seed=0)
        ids = lambda insts: {i.iid for i in insts}
        assert not ids(train) & ids(test)
        assert not ids(train) & ids(dev)
        assert not ids(dev) & ids(test)
        assert len(train) + len(dev) + len(test) == len(tiny_task.instances)


class TestMetricsLog:
    def test_log_format(self, tiny_task, small_config, tmp_path):
        model = fresh_model(tiny_task, small_config)
        enc = encode_all(tiny_task, small_config)
        plan = TrainPlan(epochs=2, batch_size=8, seed=0, patience=5)
        log = tmp_path / "metrics.tsv"
        fit(model, enc[:16], enc[16:], plan, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 4  # train + dev per epoch
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            assert fields[1] in ("train", "dev")
            float(fields[2])
