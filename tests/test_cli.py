"""Command-line surface tests: config resolution, exit codes, outputs."""

import json
import os
from dataclasses import fields

import numpy as np
import pytest

import bioie.cli as cli
from bioie.cli import (
    ConfigError,
    RunConfig,
    _coerce,
    _parse_grid,
    _single_task,
    assemble_tasks,
    config_text,
    load_corpus,
    main,
    model_config_from,
    parse_config_file,
    resolve_config,
)
from bioie.corpus import synth_corpus, write_records
from bioie.layers import ModelConfig
from bioie.pipeline import encode_instances, eval_logits, init_model, predict
from bioie.textgraph import build_corpus_graphs
from bioie.training import _PLAN_KEYS, TrainPlan, apply_grid_point, save_checkpoint

from conftest import CORRUPT_LENGTHS, assert_same_graphs, corrupt_checkpoint

FAST = {
    "dataset": "synthetic",
    "synth_counts": "Size=12",
    "d_w": "16",
    "d_p": "6",
    "hidden": "8",
    "heads": "2",
    "gcn_layers": "1",
    "epochs": "2",
    "batch_size": "8",
    "folds": "3",
    "patience": "1",
    "window": "4",
    "seed": "1",
}


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory):
    """A checkpoint of `bioie train` on the FAST corpus."""
    out = tmp_path_factory.mktemp("train")
    assert main(["train"] + flags(out)) == 0
    return out / "model.ckpt"


def flags(outdir, extra=None, base=FAST):
    merged = dict(base)
    merged["outdir"] = str(outdir)
    if extra:
        merged.update(extra)
    out = []
    for key, value in merged.items():
        out.extend([f"--{key}", value])
    return out


class TestParseGrid:
    def test_values_coerced_as_their_config_field(self):
        grid = _parse_grid("use_gcn=False|True; lr=0.001|1; hidden=64")
        assert grid == {"use_gcn": [False, True], "lr": [0.001, 1.0],
                        "hidden": [64]}
        assert [type(v) for v in grid["lr"]] == [float, float]

    def test_boolean_grid_toggles_the_gcn_branch(self):
        config = ModelConfig(label_count=2)
        widths = [apply_grid_point(config, TrainPlan(), {"use_gcn": v})[0]
                  .classifier_width
                  for v in _parse_grid("use_gcn=False|True")["use_gcn"]]
        assert widths == [config.d_model, 2 * config.d_model]

    def test_malformed_entries_rejected(self):
        with pytest.raises(ConfigError, match="closest known key: 'hidden'"):
            _parse_grid("hiden=8|16")
        with pytest.raises(ConfigError, match="use_gcn"):
            _parse_grid("use_gcn=maybe")
        with pytest.raises(ConfigError, match="is not key="):
            _parse_grid("lr=0.001; hidden")

    def test_corpus_and_run_keys_rejected(self):
        for spec in ("theta=0.5|0.9", "window=4|8", "seed=1|2", "vectors=a|b"):
            with pytest.raises(ConfigError, match="not a model or training"):
                _parse_grid(spec)


class TestModelAndPlanSettings:
    def test_defaults_agree_with_model_config_and_train_plan(self):
        """Each model or plan field of `RunConfig` has the default of the
        `ModelConfig` or `TrainPlan` field of its name."""
        run = {f.name: f.default for f in fields(RunConfig)}
        for cls, least in ((ModelConfig, 11), (TrainPlan, len(_PLAN_KEYS))):
            shared = {f.name: f.default for f in fields(cls) if f.name in run}
            assert len(shared) >= least, cls
            assert shared == {name: run[name] for name in shared}, cls

    def test_model_config_from_copies_every_shared_field(self):
        values = {"d_w": "12", "d_p": "4", "max_dist": "9", "hidden": "6",
                  "heads": "3", "gcn_layers": "3", "attention": "none",
                  "use_pretrained": "false", "use_position": "false",
                  "use_gcn": "false", "dropout": "0.25"}
        config = model_config_from(resolve_config(None, values, env={}), 5)
        assert config == ModelConfig(label_count=5, **{
            key: _coerce(key, raw) for key, raw in values.items()})


class TestResolveConfig:
    def test_empty_file_pure_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        assert resolve_config(path, {}, env={}) == RunConfig()

    def test_flag_beats_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hidden = 64\n")
        cfg = resolve_config(path, {"hidden": "32"}, env={})
        assert cfg.hidden == 32

    def test_resolved_round_trip(self, tmp_path):
        cfg = resolve_config(None, {"hidden": "48", "dataset": "cdr",
                                    "lr": "0.0003"}, env={})
        path = tmp_path / "resolved.cfg"
        path.write_text(config_text(cfg))
        again = resolve_config(path, {}, env={})
        assert again == cfg

    def test_unknown_key_names_nearest(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hiddne = 64\n")
        with pytest.raises(ConfigError, match="hidden"):
            parse_config_file(path)

    def test_env_seed_lowest_precedence(self, tmp_path):
        env = {"BIOIE_SEED": "77"}
        assert resolve_config(None, {}, env=env).seed == 77
        assert resolve_config(None, {"seed": "5"}, env=env).seed == 5
        path = tmp_path / "c.cfg"
        path.write_text("seed = 9\n")
        assert resolve_config(path, {}, env=env).seed == 9

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            resolve_config(None, {"use_gcn": "maybe"}, env={})


class TestNegativeSampling:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        """12 synthetic reports, 8 of them written without their relation:
        4 positives and 20 negatives for the Size task."""
        corpus = synth_corpus({"Size": 12}, seed=1)
        dropped = {doc.id for doc in corpus.documents[:8]}
        path = tmp_path_factory.mktemp("negatives") / "records.jsonl"
        write_records(corpus.documents, [inst for inst in corpus.instances
                                         if inst.doc_id not in dropped], path)
        return path

    @staticmethod
    def sample(records, ratio, seed=1):
        """The Size task's (positive, negative) instance ids."""
        cfg = resolve_config(None, {"dataset": "pathology", "data": str(records),
                                    "negative_ratio": str(ratio),
                                    "seed": str(seed)}, env={})
        insts = load_corpus(cfg)[1]["pathology:Size"]
        return ([i.iid for i in insts if i.label > 0],
                [i.iid for i in insts if i.label == 0])

    def test_zero_keeps_every_negative(self, records):
        pos, neg = self.sample(records, 0)
        assert (len(pos), len(neg)) == (4, 20)

    def test_ratio_one_keeps_as_many_negatives_as_positives(self, records):
        all_pos, all_neg = self.sample(records, 0)
        pos, neg = self.sample(records, 1)
        assert pos == all_pos
        assert len(neg) == 4 and set(neg) <= set(all_neg)
        assert self.sample(records, 1) == (pos, neg)

    def test_ratio_beyond_the_negatives_keeps_them_all(self, records):
        _, all_neg = self.sample(records, 0)
        assert sorted(self.sample(records, 10)[1]) == sorted(all_neg)


class TestExitCodes:
    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["cv", "--bogus", "1"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_data_error_exits_1(self, tmp_path, capsys):
        code = main(["ingest", "--dataset", "pathology", "--data",
                     str(tmp_path / "missing.jsonl"),
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_record_names_line_exits_1(self, tmp_path, capsys):
        """A record whose mention has no kind, on line 3, stops `ingest`
        with a named error giving the file and that line."""
        good = {"id": "r1", "source": "TCGA", "text": "tumor is 2 cm .",
                "mentions": [{"kind": "Size", "char_start": 9, "char_end": 13}],
                "relations": []}
        bad = dict(good, id="r3", mentions=[{"char_start": 9, "char_end": 13}])
        data = tmp_path / "records.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in
                                  (good, dict(good, id="r2"), bad)) + "\n")
        code = main(["ingest", "--dataset", "pathology", "--data", str(data),
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {data} line 3: " in err and "'kind'" in err

    def test_malformed_pubtator_and_chemprot_name_file_and_line_exit_1(
            self, tmp_path, capsys):
        """`ingest` of a PubTator file whose second line is no mention, and
        of a ChemProt relation naming an unknown entity, stops with a
        named error giving the file and the line."""
        cdr = tmp_path / "cdr.txt"
        cdr.write_text("9|t|Title here.\n9\tnot-a-mention\n")
        abstracts, entities, relations = (tmp_path / f"{name}.tsv" for name in
                                          ("abstracts", "entities", "relations"))
        abstracts.write_text("11\tKinase study.\tDrugz inhibits ABC1.\n")
        entities.write_text("11\tT1\tCHEMICAL\t14\t19\tDrugz\n"
                            "11\tT2\tGENE-Y\t29\t33\tABC1\n")
        relations.write_text("11\tCPR:4\tY\tINHIBITOR\tArg1:T1\tArg2:T2\n"
                             "11\tCPR:4\tY\tINHIBITOR\tArg1:T1\tArg2:T7\n")
        runs = [(["--dataset", "cdr", "--data", str(cdr)], "cdr.txt line 2: "),
                (["--dataset", "chemprot", "--data", str(abstracts),
                  "--entities", str(entities), "--relations", str(relations)],
                 "relations.tsv line 2: ")]
        for flags, where in runs:
            code = main(["ingest", *flags, "--outdir", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and where in err, err

    def test_pubtator_document_without_text_names_file_and_line_exits_1(
            self, tmp_path, capsys):
        """A PubTator block whose title line `9|t|` carries no text stops
        `ingest` with a named error giving the file and that line."""
        cdr = tmp_path / "cdr.txt"
        cdr.write_text("1|t|Drugx causes fever.\n\n9|t|\n")
        code = main(["ingest", "--dataset", "cdr", "--data", str(cdr),
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{cdr} line 3: " in err, err

    def test_malformed_parse_names_file_and_line_exits_1(self, tmp_path, capsys):
        """A `--parses` file whose second row has 7 columns stops the
        command with a named error giving the file and that line."""
        record = {"id": "r1", "source": "TCGA", "text": "tumor is 2 cm .",
                  "mentions": [{"kind": "Size", "char_start": 9, "char_end": 13}],
                  "relations": []}
        data = tmp_path / "records.jsonl"
        data.write_text(json.dumps(record) + "\n")
        parses = tmp_path / "parses"
        parses.mkdir()
        rows = [["1", "tumor", "_", "_", "_", "_", "0", "root", "_", "_"],
                ["2", "is", "_", "_", "_", "_", "1"]]
        (parses / "r1.conllu").write_text("\n".join("\t".join(r) for r in rows) + "\n")
        code = main(["build-graphs", "--dataset", "pathology", "--data", str(data),
                     "--parses", str(parses), "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "r1.conllu line 2:" in err

    def test_config_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 1\n")
        code = main(["cv", "--config", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("key, value", [
        ("lr", "0"), ("lr", "-0.001"), ("lr", "nan"), ("lr", "inf"),
        ("patience", "-1"),
    ])
    def test_train_plan_value_out_of_range_exits_1(self, tmp_path, capsys,
                                                   key, value):
        """A learning rate that is not a positive number, or a negative
        patience, stops `bioie train` before it trains, naming the key."""
        out = tmp_path / "train"
        assert main(["train"] + flags(out, {key: value, "epochs": "5"})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (out / "model.ckpt").exists()

    def test_unknown_synth_style_exits_1(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--outdir", str(out), "--synth_counts", "Size=4",
                     "--synth_style", "c"]) == 1
        assert "style" in capsys.readouterr().err
        assert not (out / "records.jsonl").exists()

    def test_grid_on_corpus_key_exits_1(self, tmp_path, capsys):
        extra = {"synth_counts": "Size=8", "grid": "theta=0.5|0.9"}
        assert main(["train"] + flags(tmp_path / "grid", extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "theta" in err
        assert "Traceback" not in err

    def test_eval_on_gcn_checkpoint_without_graphs_exits_1(self, tmp_path,
                                                           capsys):
        data = _single_task(assemble_tasks(resolve_config(None, FAST, env={})))
        config = ModelConfig(d_w=16, d_p=6, hidden=8, heads=2, gcn_layers=1,
                             label_count=len(data.label_set))
        model = init_model(config, data.vocab, data.embeddings,
                           label_set=data.label_set)
        path = tmp_path / "bare.ckpt"
        save_checkpoint(model, None, path)
        extra = {"checkpoint": str(path)}
        assert main(["eval"] + flags(tmp_path / "eval", extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corpus graphs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_of_another_task_exits_1(self, tmp_path, capsys,
                                                trained_ckpt, command):
        """A Size checkpoint run on a Grade corpus is refused, not scored
        or labelled with the Size classes."""
        out = tmp_path / command
        extra = {"checkpoint": str(trained_ckpt), "synth_counts": "Grade=12"}
        assert main([command] + flags(out, extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "pathology:Grade" in err and "'Size'" in err
        assert not (out / "eval.tsv").exists()
        assert not (out / "predictions.tsv").exists()

    @pytest.mark.parametrize("corruption", sorted(CORRUPT_LENGTHS))
    def test_eval_on_corrupt_length_field_exits_1(self, tmp_path, capsys,
                                                  trained_ckpt, corruption):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(corrupt_checkpoint(trained_ckpt.read_bytes(),
                                            corruption))
        extra = {"checkpoint": str(path)}
        assert main(["eval"] + flags(tmp_path / "eval", extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unexpected end" in err
        assert not (tmp_path / "eval" / "eval.tsv").exists()


class TestCommands:
    def test_synth_then_cv_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["cv"] + flags(out)) == 0
        assert (out / "cv_metrics.txt").exists()
        assert (out / "resolved.cfg").exists()
        text = (out / "cv_metrics.txt").read_text()
        assert "fold 0" in text and "task pathology:Size" in text

    def test_synth_writes_records_and_counts(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth"] + flags(out)) == 0
        records = (out / "records.jsonl").read_text().splitlines()
        assert len(records) == 12
        counts = json.loads((out / "counts.json").read_text())
        assert counts == {"Size": 12}

    def test_synth_reports_beyond_the_positives(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--outdir", str(out), "--synth_reports", "12",
                     "--synth_counts", "Size=5"]) == 0
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 12
        assert sum(len(r["relations"]) for r in records) == 5
        assert json.loads((out / "counts.json").read_text()) == {"Size": 5}

    def test_ingest_reports_counts(self, tmp_path, capsys):
        out = tmp_path / "ing"
        assert main(["ingest"] + flags(out)) == 0
        stats = json.loads((out / "ingest.json").read_text())
        assert stats["documents"] == 12
        assert stats["positives"] == 12

    def test_build_graphs_writes_edge_list(self, tmp_path):
        out = tmp_path / "graphs"
        assert main(["build-graphs"] + flags(out)) == 0
        lines = (out / "graphs.tsv").read_text().splitlines()
        assert lines == sorted(lines) and lines

    def test_train_eval_predict_pipeline(self, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train"] + flags(out)) == 0
        ckpt = out / "model.ckpt"
        assert ckpt.exists()
        assert (out / "metrics.tsv").read_text().count("\ttrain\t") == 2

        out2 = tmp_path / "eval"
        assert main(["eval"] + flags(out2, {"checkpoint": str(ckpt)})) == 0
        assert (out2 / "eval.tsv").exists()

        out3 = tmp_path / "pred"
        assert main(["predict"] + flags(out3, {"checkpoint": str(ckpt)})) == 0
        lines = (out3 / "predictions.tsv").read_text().splitlines()
        assert len(lines) == 24  # 12 reports x (1 positive + 1 distractor)
        keys = []
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 5
            prob = float(fields[4])
            assert 0.0 <= prob <= 1.0
            keys.append((fields[0], fields[1], fields[2]))
        assert keys == sorted(keys)

    def test_eval_follows_the_checkpoint_not_model_flags(self, tmp_path,
                                                         trained_ckpt):
        extra = {"checkpoint": str(trained_ckpt)}
        assert main(["eval"] + flags(tmp_path / "plain", extra)) == 0
        extra.update(use_gcn="False", theta="0.5")
        assert main(["eval"] + flags(tmp_path / "flags", extra)) == 0
        assert ((tmp_path / "flags" / "eval.tsv").read_bytes()
                == (tmp_path / "plain" / "eval.tsv").read_bytes())

    def test_eval_and_predict_build_no_features(self, tmp_path, trained_ckpt,
                                                monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("features must come from the checkpoint")

        for name in ("build_vocabulary", "random_embeddings",
                     "load_pretrained_vectors", "build_corpus_graphs"):
            monkeypatch.setattr(cli, name, forbidden)
        extra = {"checkpoint": str(trained_ckpt)}
        for command in ("eval", "predict"):
            assert main([command] + flags(tmp_path / command, extra)) == 0

    def test_eval_on_another_corpus_uses_the_training_graphs(
            self, tmp_path, trained_ckpt, monkeypatch):
        """A model trained on corpus A and evaluated on corpus B encodes
        B with A's vocabulary and A's corpus graphs."""
        seen = []

        def spy(model, encoded):
            seen.append((model, encoded))
            return predict(model, encoded)

        monkeypatch.setattr(cli, "predict", spy)
        other = {"seed": "7", "synth_style": "b"}
        extra = dict(other, checkpoint=str(trained_ckpt))
        assert main(["eval"] + flags(tmp_path / "eval", extra)) == 0
        [(model, encoded)] = seen
        a = _single_task(assemble_tasks(resolve_config(None, FAST, env={})))
        b = _single_task(assemble_tasks(
            resolve_config(None, dict(FAST, **other), env={})))
        expected = encode_instances(b.instances, b.documents, a.vocab,
                                    a.graphs, model.config)
        assert np.array_equal(eval_logits(model, encoded),
                              eval_logits(model, expected))
        assert model.vocab.token_to_id == a.vocab.token_to_id
        assert_same_graphs(model.graphs, a.graphs)

    def test_ablate_emits_seven_variant_rows(self, tmp_path):
        out = tmp_path / "ablate"
        assert main(["ablate"] + flags(out, {"epochs": "1"})) == 0
        rows = (out / "ablation.tsv").read_text().splitlines()[1:]
        assert len(rows) == 7
        from bioie.pipeline import ABLATION_VARIANTS
        assert [r.split("\t")[0] for r in rows] == list(ABLATION_VARIANTS)
        params = [int(r.split("\t")[1]) for r in rows]
        assert len(set(params)) == 7

    def test_transfer_both_directions(self, tmp_path):
        src = tmp_path / "a"
        dst = tmp_path / "b"
        assert main(["synth"] + flags(src)) == 0
        assert main(["synth"] + flags(dst, {"seed": "2",
                                            "synth_style": "b"})) == 0
        out = tmp_path / "xfer"
        extra = {
            "data": str(src / "records.jsonl"),
            "target_data": str(dst / "records.jsonl"),
            "epochs": "1",
        }
        assert main(["transfer"] + flags(out, extra)) == 0
        text = (out / "transfer.txt").read_text()
        assert "source->target" in text and "target->source" in text

    def test_transfer_builds_each_corpus_once(self, tmp_path, monkeypatch):
        built = []

        def spy(docs, *args, **kwargs):
            built.append(len(docs))
            return build_corpus_graphs(docs, *args, **kwargs)

        monkeypatch.setattr(cli, "build_corpus_graphs", spy)
        paths = {}
        for name, extra in (("a", {}), ("b", {"seed": "2", "synth_style": "b"})):
            assert main(["synth"] + flags(tmp_path / name, extra)) == 0
            paths[name] = str(tmp_path / name / "records.jsonl")
        extra = {"data": paths["a"], "target_data": paths["b"], "epochs": "1"}
        assert main(["transfer"] + flags(tmp_path / "xfer", extra)) == 0
        assert len(built) == 2

    def test_cv_driven_by_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        lines = [f"{k} = {v}" for k, v in FAST.items()]
        lines.append(f"outdir = {tmp_path / 'run'}")
        lines.append("# trailing comment")
        cfg_file.write_text("\n".join(lines) + "\n")
        assert main(["cv", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "run" / "cv_metrics.txt").exists()

    def test_train_with_grid_search(self, tmp_path):
        out = tmp_path / "grid"
        extra = {"grid": "lr=0.001|0.0003", "epochs": "1"}
        assert main(["train"] + flags(out, extra)) == 0
        grid = json.loads((out / "grid.json").read_text())
        assert len(grid["leaderboard"]) == 2
        assert set(grid["best"]) == {"lr"}

    def test_gcn_grid_over_no_gcn_base(self, tmp_path):
        out = tmp_path / "grid"
        extra = {"synth_counts": "Size=8", "use_gcn": "False",
                 "grid": "use_gcn=False|True", "epochs": "1"}
        assert main(["train"] + flags(out, extra)) == 0
        grid = json.loads((out / "grid.json").read_text())
        assert [point for point, _ in grid["leaderboard"]] == [
            {"use_gcn": False}, {"use_gcn": True}]

    def test_task_filter_restricts_output(self, tmp_path):
        out = tmp_path / "filtered"
        extra = {"synth_counts": "Size=8,Grade=8", "folds": "2",
                 "epochs": "1", "task": "pathology:Grade"}
        assert main(["cv"] + flags(out, extra)) == 0
        text = (out / "cv_metrics.txt").read_text()
        assert "pathology:Grade" in text and "pathology:Size" not in text

    def test_unknown_task_filter_lists_available(self, tmp_path, capsys):
        out = tmp_path / "missing"
        extra = {"task": "pathology:TNM"}
        assert main(["cv"] + flags(out, extra)) == 1
        assert "pathology:Size" in capsys.readouterr().err

    def test_multi_task_cv_reports_overall_aggregates(self, tmp_path):
        out = tmp_path / "multi"
        extra = {"synth_counts": "Size=8,Grade=8", "folds": "2", "epochs": "1"}
        assert main(["cv"] + flags(out, extra)) == 0
        text = (out / "cv_metrics.txt").read_text()
        assert "task pathology:Size" in text
        assert "task pathology:Grade" in text
        assert "overall (unweighted macro over tasks)" in text
        assert "overall (instance-weighted)" in text

    def test_end_to_end_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["cv"] + flags(out1)) == 0
        assert main(["cv"] + flags(out2)) == 0
        m1 = (out1 / "cv_metrics.txt").read_bytes()
        m2 = (out2 / "cv_metrics.txt").read_bytes()
        assert m1 == m2
