"""Command-line harness: ingestion, graph building, training,
cross-validation, ablation, transfer, evaluation, and prediction, all
driven by a flat key=value config file with flag overrides.

Precedence: built-in defaults < BIOIE_SEED (seed only) < config file <
flags. Every run writes its fully resolved config beside its outputs so
a run directory is self-describing.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import (
    CorpusFormatError,
    attach_dependencies,
    build_vocabulary,
    load_pretrained_vectors,
    normalize_corpus,
    parse_chemprot,
    parse_pathology_records,
    parse_pubtator,
    random_embeddings,
    synth_corpus,
    write_records,
)
from .evaluation import bootstrap_ci, evaluate_outcomes, machine_lines, report_table
from .layers import ModelConfig
from .pipeline import (
    ABLATION_VARIANTS,
    count_parameters,
    encode_instances,
    init_model,
    make_variant,
    predict,
    predict_proba,
)
from .textgraph import GRAPH_KINDS, build_corpus_graphs, dump_graphs
from .training import (
    CheckpointError,
    TaskData,
    TrainPlan,
    TrainingDiverged,
    _PLAN_KEYS,
    apply_grid_point,
    grid_search,
    load_checkpoint,
    run_cross_validation,
    save_checkpoint,
    train_from_scratch,
    transfer_finetune,
)

@dataclass
class RunConfig:
    """Flat configuration; every key is settable from file or flags."""

    dataset: str = "synthetic"      # cdr | chemprot | pathology | synthetic
    data: str = ""                  # main input file
    entities: str = ""              # chemprot entity file
    relations: str = ""             # chemprot relation file
    parses: str = ""                # directory of <doc_id>.conllu files
    vectors: str = ""               # word2vec-style text vectors
    target_data: str = ""           # second corpus for transfer
    checkpoint: str = ""            # model file for eval/predict
    outdir: str = "runs/out"
    seed: int = 0
    task: str = ""                  # restrict to one sub-task
    min_count: int = 1
    normalize: bool = True
    negative_ratio: float = 0.0     # 0 keeps all negative candidates
    # model
    d_w: int = 100
    d_p: int = 20
    max_dist: int = 60
    hidden: int = 128
    heads: int = 8
    gcn_layers: int = 2
    attention: str = "multi"
    use_pretrained: bool = True
    use_position: bool = True
    use_gcn: bool = True
    dropout: float = 0.5
    variant: str = "full"
    # graphs
    theta: float = 0.9
    window: int = 20
    # training
    epochs: int = 100
    batch_size: int = 8
    lr: float = 1e-3
    patience: int = 5
    folds: int = 10
    freeze: str = ""                # comma-separated parameter-name prefixes
    grid: str = ""                  # "lr=0.001|0.0003;hidden=64|128"
    # synthetic generator
    synth_counts: str = "Size=100"
    synth_reports: int = 0
    synth_style: str = "a"


class ConfigError(ValueError):
    pass


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    return raw


def _reject_unknown(key: str) -> None:
    if key not in _FIELDS:
        near = difflib.get_close_matches(key, _FIELDS, n=1)
        hint = f" (closest known key: {near[0]!r})" if near else ""
        raise ConfigError(f"unknown config key {key!r}{hint}")


def parse_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            _reject_unknown(key)
            out[key] = _coerce(key, value)
    return out


def resolve_config(path, overrides: dict[str, str],
                   env: dict | None = None) -> RunConfig:
    """defaults <- BIOIE_SEED <- file <- flags (rightmost wins)."""
    env = os.environ if env is None else env
    values = {}
    file_values = parse_config_file(path) if path else {}
    values.update(file_values)
    for key, raw in overrides.items():
        _reject_unknown(key)
        values[key] = _coerce(key, raw)
    if "seed" not in values and env.get("BIOIE_SEED"):
        values["seed"] = _coerce("seed", env["BIOIE_SEED"])
    return RunConfig(**values)


def config_text(cfg: RunConfig) -> str:
    return "\n".join(f"{f.name} = {getattr(cfg, f.name)}"
                     for f in fields(RunConfig)) + "\n"


def write_resolved(cfg: RunConfig, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved.cfg").write_text(config_text(cfg), encoding="utf-8")


def model_config_from(cfg: RunConfig, label_count: int = 2) -> ModelConfig:
    """The `ModelConfig` of every model field that `RunConfig` declares."""
    return ModelConfig(label_count=label_count,
                       **{f.name: getattr(cfg, f.name)
                          for f in fields(ModelConfig) if f.name in _FIELDS})


def plan_from(cfg: RunConfig) -> TrainPlan:
    return TrainPlan(epochs=cfg.epochs, batch_size=cfg.batch_size,
                     seed=cfg.seed, patience=cfg.patience, lr=cfg.lr)


# ---------------------------------------------------------------------------
# Dataset assembly

def _parse_dataset(cfg: RunConfig, data_path: str | None = None):
    path = data_path if data_path is not None else cfg.data
    if cfg.dataset == "cdr":
        return parse_pubtator(path)
    if cfg.dataset == "chemprot":
        return parse_chemprot(path, cfg.entities, cfg.relations)
    if cfg.dataset == "pathology":
        return parse_pathology_records(path)
    if cfg.dataset == "synthetic":
        if path:
            return parse_pathology_records(path)
        corpus = synth_corpus(_parse_counts(cfg.synth_counts), cfg.seed,
                              reports=cfg.synth_reports or None,
                              style=cfg.synth_style)
        return corpus.documents, corpus.instances
    raise ConfigError(f"unknown dataset kind {cfg.dataset!r}")


def _parse_counts(spec: str) -> dict[str, int]:
    counts = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"synth_counts entry {part!r} is not kind=count")
        kind, value = part.split("=", 1)
        counts[kind.strip()] = int(value)
    return counts


def load_corpus(cfg: RunConfig, data_path: str | None = None):
    """Parse, attach dependencies, length-normalize, sample negatives and
    split instances per learning task: (documents by id, task instances)."""
    docs, instances = _parse_dataset(cfg, data_path)
    parse_dir = Path(cfg.parses) if cfg.parses else None
    paths = [parse_dir / f"{doc.id}.conllu" if parse_dir else None
             for doc in docs]
    docs = [attach_dependencies(doc, path if path and path.exists() else None)
            for doc, path in zip(docs, paths)]
    if cfg.normalize:
        docs, instances = normalize_corpus(docs, instances)

    by_task: dict[str, list] = {}
    for inst in instances:
        by_task.setdefault(inst.task, []).append(inst)
    if cfg.negative_ratio > 0:
        rng = np.random.default_rng([cfg.seed, 0xDEC1])
        for task, insts in by_task.items():
            pos = [i for i in insts if i.label > 0]
            neg = [i for i in insts if i.label == 0]
            keep = min(len(neg), int(cfg.negative_ratio * max(1, len(pos))))
            idx = sorted(rng.choice(len(neg), size=keep, replace=False).tolist())
            by_task[task] = pos + [neg[i] for i in idx]

    tasks = {task: by_task[task] for task in sorted(by_task)
             if not cfg.task or task == cfg.task}
    if not tasks:
        raise ConfigError(
            f"no instances for task filter {cfg.task!r}; available: "
            f"{', '.join(sorted(by_task)) or 'none'}")
    return {d.id: d for d in docs}, tasks


def assemble_tasks(cfg: RunConfig, data_path: str | None = None
                   ) -> dict[str, TaskData]:
    """`load_corpus`, then the vocabulary, embeddings and corpus graphs of
    all its documents, which every task shares. The graphs are built
    from every document, test instances' included."""
    doc_map, by_task = load_corpus(cfg, data_path)
    docs = list(doc_map.values())
    vocab = build_vocabulary(docs, cfg.min_count)
    if cfg.vectors:
        embeddings = load_pretrained_vectors(cfg.vectors, vocab, seed=cfg.seed,
                                             dim=cfg.d_w)
    else:
        embeddings = random_embeddings(vocab, cfg.d_w, seed=cfg.seed)
    graphs = build_corpus_graphs(docs, embeddings, vocab, cfg.theta, cfg.window)
    return {task: TaskData(doc_map, insts, insts[0].label_set, vocab,
                           embeddings, graphs, task)
            for task, insts in by_task.items()}


def _single_task(tasks: dict):
    if len(tasks) != 1:
        raise ConfigError(
            f"this command needs one task; set task=<name> (available: "
            f"{', '.join(sorted(tasks))})")
    return next(iter(tasks.values()))


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(cfg: RunConfig, out: Path) -> int:
    corpus = synth_corpus(_parse_counts(cfg.synth_counts), cfg.seed,
                          reports=cfg.synth_reports or None,
                          style=cfg.synth_style)
    write_records(corpus.documents, corpus.instances, out / "records.jsonl")
    (out / "counts.json").write_text(json.dumps(corpus.counts, sort_keys=True))
    print(f"wrote {len(corpus.documents)} reports, "
          f"{len(corpus.instances)} candidate instances "
          f"({sum(corpus.counts.values())} positives) to {out}")
    return 0


def cmd_ingest(cfg: RunConfig, out: Path) -> int:
    docs, instances = _parse_dataset(cfg)
    if cfg.normalize:
        docs, instances = normalize_corpus(docs, instances)
    stats = {
        "documents": len(docs),
        "mentions": sum(len(d.mentions) for d in docs),
        "instances": len(instances),
        "positives": sum(1 for i in instances if i.label > 0),
        "tasks": sorted({i.task for i in instances}),
    }
    (out / "ingest.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
    if cfg.dataset in ("pathology", "synthetic"):
        write_records(docs, instances, out / "records.jsonl")
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_build_graphs(cfg: RunConfig, out: Path) -> int:
    data = next(iter(assemble_tasks(cfg).values()))
    dump_graphs(data.graphs, data.vocab, out / "graphs.tsv")
    sizes = {kind: len(data.graphs.by_kind(kind)) for kind in GRAPH_KINDS}
    print(f"graph edges: {json.dumps(sizes, sort_keys=True)}; "
          f"edge list in {out / 'graphs.tsv'}")
    return 0


def cmd_train(cfg: RunConfig, out: Path) -> int:
    data = _single_task(assemble_tasks(cfg))
    config = make_variant(model_config_from(cfg, len(data.label_set)),
                          cfg.variant)
    plan = plan_from(cfg)
    if cfg.grid:
        best, leaderboard = grid_search(data, _parse_grid(cfg.grid), config, plan)
        (out / "grid.json").write_text(json.dumps(
            {"best": best, "leaderboard": leaderboard}, default=str, indent=2))
        print(f"grid best: {best}")
        config, plan = apply_grid_point(config, plan, best)
    report, model = train_from_scratch(data, config, plan,
                                       log_path=out / "metrics.tsv")
    save_checkpoint(model, model.optimizer, out / "model.ckpt")
    table = report_table([(cfg.variant, report)], title=f"task {data.task}")
    (out / "report.txt").write_text(table + "\n")
    (out / "metrics_final.tsv").write_text("\n".join(machine_lines(report)) + "\n")
    print(table)
    return 0


def _parse_grid(spec: str) -> dict[str, list]:
    """Parse a grid spec such as "lr=0.001|0.0003;use_gcn=False|True".
    Each value is coerced as its key's config field is, so booleans come
    out as booleans. Only model and training-plan keys may vary: corpus
    keys such as theta or window would need a corpus per point."""
    grid = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid entry {part!r} is not key=v1|v2")
        key, values = (p.strip() for p in part.split("=", 1))
        _reject_unknown(key)
        if key not in {f.name for f in fields(ModelConfig)} | set(_PLAN_KEYS):
            raise ConfigError(f"grid key {key!r} is not a model or training "
                              f"plan setting")
        grid[key] = [_coerce(key, v) for v in values.split("|")]
    return grid


def cmd_cv(cfg: RunConfig, out: Path) -> int:
    tasks = assemble_tasks(cfg)
    plan = plan_from(cfg)
    rows = []
    weighted_f, total_n = 0.0, 0
    for task, data in sorted(tasks.items()):
        config = make_variant(model_config_from(cfg, len(data.label_set)),
                              cfg.variant)
        result = run_cross_validation(data, config, plan, k=cfg.folds)
        rows.append((task, result))
        weighted_f += result.mean_f * len(data.instances)
        total_n += len(data.instances)
    lines = []
    for task, result in rows:
        lines.append(f"task {task}: folds={cfg.folds} "
                     f"P={result.mean_p:.1f} R={result.mean_r:.1f} "
                     f"F={result.mean_f:.1f} (std {result.std_f:.1f})")
        for i, rep in enumerate(result.fold_reports):
            lines.append(f"  fold {i}: P={rep.macro_p:.1f} R={rep.macro_r:.1f} "
                         f"F={rep.macro_f:.1f} n={rep.n}")
    if len(rows) > 1:
        unweighted = float(np.mean([r.mean_f for _, r in rows]))
        weighted = weighted_f / max(1, total_n)
        lines.append(f"overall (unweighted macro over tasks): F={unweighted:.1f}")
        lines.append(f"overall (instance-weighted): F={weighted:.1f}")
    text = "\n".join(lines)
    (out / "cv_metrics.txt").write_text(text + "\n")
    print(text)
    return 0


def cmd_ablate(cfg: RunConfig, out: Path) -> int:
    data = _single_task(assemble_tasks(cfg))
    base = model_config_from(cfg, len(data.label_set))
    plan = plan_from(cfg)
    rows, lines = [], []
    for variant in ABLATION_VARIANTS:
        config = make_variant(base, variant)
        report, model = train_from_scratch(data, config, plan)
        rows.append((variant, report))
        lines.append(f"{variant}\t{count_parameters(model)}"
                     f"\t{report.macro_p:.1f}\t{report.macro_r:.1f}"
                     f"\t{report.macro_f:.1f}")
    table = report_table(rows, title=f"ablation on task {data.task}")
    (out / "ablation.txt").write_text(table + "\n")
    (out / "ablation.tsv").write_text(
        "variant\tparams\tP\tR\tF\n" + "\n".join(lines) + "\n")
    print(table)
    return 0


def cmd_transfer(cfg: RunConfig, out: Path) -> int:
    if not cfg.target_data:
        raise ConfigError("transfer needs target_data=<records file>")
    plan = plan_from(cfg)
    freeze = tuple(p.strip() for p in cfg.freeze.split(",") if p.strip())
    source = _single_task(assemble_tasks(cfg, data_path=cfg.data))
    target = _single_task(assemble_tasks(cfg, data_path=cfg.target_data))
    rows = []
    for direction, (src, dst) in (("source->target", (source, target)),
                                  ("target->source", (target, source))):
        config = make_variant(model_config_from(cfg, len(src.label_set)),
                              cfg.variant)
        _, model = train_from_scratch(src, config, plan)
        ckpt = out / f"{direction.replace('->', '_to_')}.ckpt"
        save_checkpoint(model, model.optimizer, ckpt)
        report, _ = transfer_finetune(ckpt, dst, freeze, plan)
        rows.append((direction, report))
    table = report_table(rows, title="transfer protocol")
    (out / "transfer.txt").write_text(table + "\n")
    print(table)
    return 0


def _checkpoint_task(cfg: RunConfig, command: str):
    """The checkpoint's model, the corpus documents by id, and the corpus's
    single task with its encoding by the model's own features. A task whose
    labels are not the model's is refused."""
    if not cfg.checkpoint:
        raise ConfigError(f"{command} needs checkpoint=<model file>")
    model = load_checkpoint(cfg.checkpoint)
    documents, tasks = load_corpus(cfg)
    instances = _single_task(tasks)
    if instances[0].label_set != model.label_set:
        raise ConfigError(f"task {instances[0].task} has labels "
                          f"{list(instances[0].label_set)}, but the checkpoint "
                          f"predicts {list(model.label_set)}")
    encoded = encode_instances(instances, documents, model.vocab,
                               model.graphs, model.config)
    return model, documents, instances, encoded


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    model, _, instances, encoded = _checkpoint_task(cfg, "eval")
    preds = predict(model, encoded)
    golds = [e.label for e in encoded]
    report = evaluate_outcomes(preds, golds, model.label_set)
    report.ci["macro"] = bootstrap_ci(preds, golds, model.label_set,
                                      resamples=1000, seed=cfg.seed)
    table = report_table([("checkpoint", report)],
                         title=f"task {instances[0].task}")
    lo, hi = report.ci["macro"]
    table += f"\nmacro-F 95% CI: [{lo:.1f}, {hi:.1f}]"
    (out / "eval.txt").write_text(table + "\n")
    (out / "eval.tsv").write_text("\n".join(machine_lines(report)) + "\n")
    print(table)
    return 0


def cmd_predict(cfg: RunConfig, out: Path) -> int:
    model, documents, instances, encoded = _checkpoint_task(cfg, "predict")
    pairs = sorted(zip(instances, encoded),
                   key=lambda pair: (pair[0].doc_id, pair[0].head, pair[0].tail))
    probs = predict_proba(model, [enc for _, enc in pairs])
    lines = []
    for (inst, _), row in zip(pairs, probs):
        doc = documents[inst.doc_id]
        label_idx = int(row.argmax())
        lines.append(f"{inst.doc_id}\t{doc.mentions[inst.head].id}"
                     f"\t{doc.mentions[inst.tail].id}"
                     f"\t{model.label_set[label_idx]}\t{row[label_idx]:.6f}")
    text = "\n".join(lines)
    (out / "predictions.tsv").write_text(text + "\n")
    print(text)
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "build-graphs": cmd_build_graphs,
    "train": cmd_train,
    "cv": cmd_cv,
    "ablate": cmd_ablate,
    "transfer": cmd_transfer,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "synth": cmd_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioie",
        description="Biomedical relation extraction harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _HANDLERS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value config file")
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name}", default=None, metavar="VALUE")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    try:
        cfg = resolve_config(args.config, overrides)
        out = Path(cfg.outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_resolved(cfg, out)
        return _HANDLERS[args.command](cfg, out)
    except (ConfigError, CorpusFormatError, CheckpointError, TrainingDiverged,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
