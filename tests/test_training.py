"""Training-loop, cross-validation, checkpoint, and transfer tests."""

import copy
import hashlib
import io
import json
import struct

import numpy as np
import pytest

import bioie.autodiff as ad
import bioie.training as training
from bioie.corpus import Document, build_vocabulary, tokenize
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
    CORRUPT_LENGTHS,
    assert_same_graphs,
    build_synth_task,
    corrupt_checkpoint,
    counts_of,
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

    def test_moment_for_absent_tensor_named(self, tiny_task, small_config,
                                            tmp_path):
        """The optimizer section's second "clf.w" renamed "clf.x": a
        named CheckpointError, not a KeyError."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = path.read_bytes()
        at = raw.index(b"clf.w", raw.index(b"clf.w") + 1)
        path.write_bytes(raw[:at] + b"clf.x" + raw[at + 5:])
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
        """A config block that passes its digest but that ModelConfig
        rejects, such as a single-head checkpoint from before `attention`
        lost its "single" value."""
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        raw = path.read_bytes()
        at = len(training.CHECKPOINT_MAGIC) + 4 + 32
        (n,) = struct.unpack_from("<Q", raw, at)
        blob = json.loads(raw[at + 8:at + 8 + n])
        blob["config"].update(edit)
        payload = json.dumps(blob, sort_keys=True).encode()
        digest = hashlib.sha256(payload).digest()
        path.write_bytes(raw[:at - 32] + digest + struct.pack("<Q", len(payload))
                         + payload + raw[at + 8 + n:])
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
        from dataclasses import replace
        model, opt, _ = self.trained(tiny_task, small_config, steps=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, opt, path)
        other = fresh_model(tiny_task, replace(small_config, hidden=8))
        with pytest.raises(DigestMismatch):
            load_checkpoint(path, expect_model=other)


def dict_write_graphs(fh, graphs):
    """Format oracle: the graph block written from dicts keyed by pair, in
    key order, as version-2 checkpoints were first written."""
    header = None if graphs is None else {"theta": graphs.theta,
                                          "window": graphs.window}
    training._write_block(fh, json.dumps(header).encode())
    for kind in GRAPH_KINDS if graphs is not None else ():
        stats = graphs.by_kind(kind)
        for table in (counts_of(stats), stats.weights):
            rows = [(a, b, v) for (a, b), v in table.items()]
            training._write_array(fh, np.array(rows).reshape(-1, 3))


def graph_block(tables):
    """A graph block with a header and these (a, b, value) tables, in
    kind order, counts then weights."""
    fh = io.BytesIO()
    training._write_block(fh, json.dumps({"theta": 0.9, "window": 5}).encode())
    for table in tables:
        training._write_array(fh, np.array(table, dtype=np.float64))
    fh.seek(0)
    return fh


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
    @pytest.mark.parametrize("make", [lambda task: task.graphs,
                                      lambda task: sequence_only_graphs(),
                                      lambda task: None],
                             ids=["tiny", "sequence_only", "none"])
    def test_writer_matches_the_dict_oracle(self, tiny_task, make):
        graphs = make(tiny_task)
        got, expected = io.BytesIO(), io.BytesIO()
        training._write_graphs(got, graphs)
        dict_write_graphs(expected, graphs)
        assert got.getvalue() == expected.getvalue()
        got.seek(0)
        loaded = training._read_graphs(got)
        if graphs is None:
            assert loaded is None
        else:
            assert_same_graphs(loaded, graphs)

    def test_table_not_pairs_by_3(self):
        good = [[2, 3, 1.0]]
        for bad in ([[2, 3, 1.0, 0.0]], [2, 3, 1.0]):
            tables = [good, bad] + [good, good] * 2
            with pytest.raises(CheckpointError,
                               match="semantic graph table is not"):
                training._read_graphs(graph_block(tables))

    def test_weight_row_without_count_row(self):
        good = [[2, 3, 1.0]]
        tables = [good, good, [[2, 3, 1.0], [2, 5, 1.0]], [[2, 4, 0.5]],
                  good, good]
        with pytest.raises(CheckpointError,
                           match="syntactic graph.*no count row"):
            training._read_graphs(graph_block(tables))

    @pytest.mark.parametrize("at, value, message", [
        (0, np.nan, "non-finite"), (1, np.inf, "non-finite"),
        (0, 0.5, "count below 1"), (1, -0.25, "negative weight"),
    ], ids=["nan_count", "inf_weight", "count_below_1", "negative_weight"])
    def test_count_or_weight_no_builder_makes(self, at, value, message):
        """Builders count a pair once per document or window at least, and
        weigh it by a non-negative number: the syntactic kind's count or
        weight `value` is refused, by kind."""
        good = [[2, 3, 1.0]]
        tables = [good, good, good, good, good, good]
        tables[2 + at] = [[2, 3, value]]
        with pytest.raises(CheckpointError, match=f"syntactic graph.*{message}"):
            training._read_graphs(graph_block(tables))

    def test_count_rows_out_of_pair_order(self):
        good = [[2, 3, 1.0]]
        tables = [good, good, good, good, [[2, 5, 1.0], [2, 3, 1.0]], good]
        with pytest.raises(CheckpointError,
                           match="sequence graph rows are not sorted"):
            training._read_graphs(graph_block(tables))


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
