"""Training loop, k-fold cross-validation, grid search, bit-exact
checkpoints under one digest, and the cross-corpus transfer protocol."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Adam
from .corpus import (
    DEV_FRACTION,
    Document,
    EmbeddingTable,
    FoldPlan,
    RelationInstance,
    Vocabulary,
    make_folds,
)
from .evaluation import EvalReport, evaluate_outcomes
from .layers import ModelConfig, glorot
from .pipeline import (
    EncodedInstance,
    ModelState,
    encode_instances,
    eval_logits,
    init_model,
    loss as model_loss,
    predict,
)
from .textgraph import GRAPH_KINDS, CorpusGraphs, WordPairStats
from .textgraph import pair_ids, pair_key

CHECKPOINT_MAGIC = b"BIOIE"
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """Base class for malformed checkpoint files."""


class BadMagic(CheckpointError):
    pass


class VersionMismatch(CheckpointError):
    pass


class DigestMismatch(CheckpointError):
    pass


class TruncatedCheckpoint(CheckpointError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when a batch produces a non-finite loss."""


@dataclass
class TrainPlan:
    epochs: int = 100
    batch_size: int = 8
    seed: int = 0
    patience: int = 5
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be a positive number, got {self.lr}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


@dataclass
class TaskData:
    """Everything one learning task needs: documents, labeled candidate
    instances, shared vocabulary/embeddings, and the corpus graphs."""
    documents: dict[str, Document]
    instances: list[RelationInstance]
    label_set: tuple[str, ...]
    vocab: Vocabulary
    embeddings: EmbeddingTable | None
    graphs: CorpusGraphs | None
    task: str


# ---------------------------------------------------------------------------
# Core loop

def make_optimizer(model: ModelState, lr: float,
                   freeze_prefixes: tuple[str, ...] = ()) -> Adam:
    """Adam over the trainable tensors, in registry order, minus those
    under `freeze_prefixes`."""
    trainable = [n for n, p in model.params.items() if p.requires_grad]
    for prefix in freeze_prefixes:
        if not any(name.startswith(prefix) for name in trainable):
            raise ValueError(f"freeze prefix {prefix!r} matches no parameter")
    names = [n for n in trainable
             if not any(n.startswith(p) for p in freeze_prefixes)]
    return Adam([model.params[n] for n in names], names=names, lr=lr)


def train_epoch(model: ModelState, instances: list[EncodedInstance],
                optimizer: Adam, rng: np.random.Generator,
                batch_size: int = 8) -> float:
    """One seeded-shuffle pass of mini-batch updates; returns the mean
    batch loss."""
    if not instances:
        raise ValueError("train_epoch: no instances")
    order = rng.permutation(len(instances))
    losses = []
    for bi, start in enumerate(range(0, len(order), batch_size)):
        batch = [instances[i] for i in order[start:start + batch_size]]
        ad.reset_tape()
        batch_loss = model_loss(model, batch, "train")
        value = batch_loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss {value} in batch {bi} "
                f"(instances {[b.iid for b in batch]})")
        ad.backward(batch_loss)
        optimizer.step()
        for p in model.params.values():
            p.grad = None  # frozen parameters never feed the optimizer
        losses.append(value)
    ad.reset_tape()
    return float(np.mean(losses))


def evaluate_model(model: ModelState, instances: list[EncodedInstance]
                   ) -> EvalReport:
    preds = predict(model, instances)
    golds = [inst.label for inst in instances]
    return evaluate_outcomes(preds, golds, model.label_set)


def fit(model: ModelState, train: list[EncodedInstance],
        dev: list[EncodedInstance] | None, plan: TrainPlan,
        freeze_prefixes: tuple[str, ...] = (),
        log_path=None) -> float:
    """Train with early stopping on dev macro-F (restore-best-weights) and
    return the best dev macro-F. Without a dev set, runs all epochs.

    Tensors under `freeze_prefixes` have `requires_grad` cleared for the
    run, so no backward computes their gradients, and restored on return:
    a checkpoint's frozen flags keep meaning the registry's own
    trainability."""
    optimizer = make_optimizer(model, plan.lr, freeze_prefixes)
    model.optimizer = optimizer
    best_f = -1.0
    best_snapshot = None
    since_best = 0
    dev_labels = np.array([inst.label for inst in dev or ()], dtype=np.int64)
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    training = set(optimizer.names)
    frozen = [p for n, p in model.params.items()
              if p.requires_grad and n not in training]
    for p in frozen:
        p.requires_grad = False
    try:
        for epoch in range(1, plan.epochs + 1):
            train_loss = train_epoch(model, train, optimizer, model.rng,
                                     plan.batch_size)
            if log_fh:
                rep = evaluate_model(model, train)
                log_fh.write(f"{epoch}\ttrain\t{train_loss:.6f}\t{rep.macro_p:.1f}"
                             f"\t{rep.macro_r:.1f}\t{rep.macro_f:.1f}\n")
            if dev:
                logits = eval_logits(model, dev)
                dev_rep = evaluate_outcomes(logits.argmax(axis=1), dev_labels,
                                            model.label_set)
                if log_fh:
                    dev_loss = ad.cross_entropy(ad.Tensor(logits),
                                                dev_labels).item()
                    log_fh.write(f"{epoch}\tdev\t{dev_loss:.6f}\t{dev_rep.macro_p:.1f}"
                                 f"\t{dev_rep.macro_r:.1f}\t{dev_rep.macro_f:.1f}\n")
                if dev_rep.macro_f > best_f:
                    best_f = dev_rep.macro_f
                    best_snapshot = {n: p.data.copy() for n, p in
                                     zip(optimizer.names, optimizer.params)}
                    since_best = 0
                else:
                    since_best += 1
            if dev and since_best > plan.patience:
                break
        if best_snapshot is not None:
            for name, data in best_snapshot.items():
                model.params[name].data = data
        return best_f
    finally:
        for p in frozen:
            p.requires_grad = True
        if log_fh:
            log_fh.close()


# ---------------------------------------------------------------------------
# Cross-validation

@dataclass
class CvResult:
    fold_reports: list[EvalReport]
    mean_p: float
    mean_r: float
    mean_f: float
    std_p: float
    std_r: float
    std_f: float
    plan: FoldPlan


def run_cross_validation(data: TaskData, config: ModelConfig, plan: TrainPlan,
                         k: int = 10) -> CvResult:
    """k-fold cross-validation with a dev carve-out from each training
    split; aggregates fold metrics as mean and standard deviation."""
    fold_plan = make_folds(data.instances, k, plan.seed)
    encoded = encode_instances(data.instances, data.documents, data.vocab,
                               data.graphs, config)
    by_id = {enc.iid: enc for enc in encoded}
    reports = []
    for fold in range(k):
        train_ids, dev_ids, test_ids = fold_plan.split(fold)
        assert not (set(train_ids) | set(dev_ids)) & set(test_ids), \
            f"fold {fold} leaks test instances into training"
        train = [by_id[i] for i in train_ids]
        dev = [by_id[i] for i in dev_ids]
        test = [by_id[i] for i in test_ids]
        if not any(inst.label > 0 for inst in test):
            warnings.warn(f"fold {fold} has no positive test instances")
        model = init_model(config, data.vocab, data.embeddings,
                           seed=plan.seed * 1000 + fold,
                           label_set=data.label_set)
        fit(model, train, dev, plan)
        reports.append(evaluate_model(model, test))
    ps = [r.macro_p for r in reports]
    rs = [r.macro_r for r in reports]
    fs = [r.macro_f for r in reports]
    return CvResult(reports, float(np.mean(ps)), float(np.mean(rs)),
                    float(np.mean(fs)), float(np.std(ps)), float(np.std(rs)),
                    float(np.std(fs)), fold_plan)


def split_train_dev_test(instances: list, seed: int
                         ) -> tuple[list, list, list]:
    """Seeded single split used by plain training, grid search, and the
    transfer protocol; dev and test each take DEV_FRACTION of the
    instances. The partition depends only on the list's length and the
    seed, so raw and encoded instances split alike."""
    rng = np.random.default_rng([seed, 0x5EED])
    order = rng.permutation(len(instances))
    n_test = n_dev = max(1, round(DEV_FRACTION * len(instances)))
    test_idx = set(order[:n_test].tolist())
    dev_idx = set(order[n_test:n_test + n_dev].tolist())
    train = [inst for i, inst in enumerate(instances)
             if i not in test_idx and i not in dev_idx]
    dev = [inst for i, inst in enumerate(instances) if i in dev_idx]
    test = [inst for i, inst in enumerate(instances) if i in test_idx]
    return train, dev, test


# ---------------------------------------------------------------------------
# Grid search

_PLAN_KEYS = ("epochs", "batch_size", "lr", "patience")


def apply_grid_point(config: ModelConfig, plan: TrainPlan, point: dict
                 ) -> tuple[ModelConfig, TrainPlan]:
    cfg_kwargs = {k: v for k, v in point.items() if k not in _PLAN_KEYS}
    plan_kwargs = {k: v for k, v in point.items() if k in _PLAN_KEYS}
    return replace(config, **cfg_kwargs), replace(plan, **plan_kwargs)


def grid_search(data: TaskData, grid: dict[str, list], config: ModelConfig,
                plan: TrainPlan) -> tuple[dict, list[tuple[dict, float]]]:
    """Train one model per grid point, score dev macro-F, return the best
    point and the full leaderboard. Duplicate points are evaluated once;
    ties keep the earliest point in declaration order."""
    if not grid or not all(grid.values()):
        raise ValueError("grid must be non-empty with non-empty value lists")
    keys = list(grid)
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]
    settings = [apply_grid_point(config, plan, point) for point in points]
    # One encoding serves every point; it carries the adjacency if any
    # point runs the GCN branch.
    encoded = encode_instances(
        data.instances, data.documents, data.vocab, data.graphs,
        replace(config, use_gcn=any(cfg.use_gcn for cfg, _ in settings)))
    train, dev, _ = split_train_dev_test(encoded, plan.seed)
    leaderboard: list[tuple[dict, float]] = []
    memo: dict[str, float] = {}
    best_point, best_f = None, -1.0
    for point, (cfg, pl) in zip(points, settings):
        digest = hashlib.sha256(
            json.dumps(point, sort_keys=True, default=str).encode()).hexdigest()
        if digest in memo:
            score = memo[digest]
        else:
            model = init_model(cfg, data.vocab, data.embeddings, seed=pl.seed,
                               label_set=data.label_set)
            score = fit(model, train, dev, pl)
            memo[digest] = score
            leaderboard.append((point, score))
        if score > best_f:
            best_point, best_f = point, score
    return best_point, leaderboard


# ---------------------------------------------------------------------------
# Checkpoints

_HEADER = struct.Struct("<5sI32sQQ")


def save_checkpoint(model: ModelState, optimizer: Adam | None, path) -> None:
    """Version-3 checkpoint: a header of magic, version, the sha256 of the
    body, and the manifest and body lengths; then the body, one JSON
    manifest followed by every array as raw little-endian float64 in
    manifest order. The arrays are the tensors (trainable first, then
    frozen, each in registry order), each Adam tensor's m and v, and one
    (pairs, 4) table per graph kind with rows (a, b, count, weight),
    sorted by pair."""
    named = sorted(model.params.items(), key=lambda kv: not kv[1].requires_grad)
    arrays = [tensor.data for _, tensor in named]
    manifest = {
        "config": asdict(model.config),
        "label_set": list(model.label_set),
        "seed": model.seed,
        "vocab": model.vocab.token_to_id,
        "rng": model.rng.bit_generator.state,
        "tensors": [[name, list(t.shape), not t.requires_grad] for name, t in named],
        "adam": None,
        "graphs": None,
    }
    if optimizer is not None:
        manifest["adam"] = {"t": optimizer.t, "names": list(optimizer.names)}
        arrays += [a for pair in zip(optimizer.m, optimizer.v) for a in pair]
    if model.graphs is not None:
        stats = [model.graphs.by_kind(kind) for kind in GRAPH_KINDS]
        manifest["graphs"] = {"theta": model.graphs.theta,
                              "window": model.graphs.window,
                              "pairs": [len(s.keys) for s in stats]}
        arrays += [np.column_stack((*pair_ids(s.keys), s.count, s.edge_weight))
                   for s in stats]
    head = json.dumps(manifest).encode()
    body = b"".join([head, *(np.ascontiguousarray(a, "<f8") for a in arrays)])
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              hashlib.sha256(body).digest(), len(head), len(body)))
        fh.write(body)


def load_checkpoint(path) -> ModelState:
    """Rebuild a ModelState (and its optimizer) bit-exactly. Magic,
    version and lengths are checked first, then the digest over the whole
    body, before anything in it is parsed. Malformed content raises a
    CheckpointError, which names the first stored tensor that is missing,
    misshapen or unexpected for the model its config makes."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if not head.startswith(CHECKPOINT_MAGIC):
            raise BadMagic(f"bad checkpoint magic {head[:len(CHECKPOINT_MAGIC)]!r}")
        if len(head) < _HEADER.size:
            raise TruncatedCheckpoint("unexpected end of checkpoint")
        _, version, digest, n_manifest, n_body = _HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(f"checkpoint version {version}, expected "
                                  f"{CHECKPOINT_VERSION}: retrain the model")
        left = os.fstat(fh.fileno()).st_size - _HEADER.size
        if n_manifest > n_body or n_body > left:
            raise TruncatedCheckpoint("unexpected end of checkpoint")
        if n_body < left:
            raise CheckpointError("checkpoint has bytes past the end of its body")
        body = fh.read(n_body)
    if hashlib.sha256(body).digest() != digest:
        raise DigestMismatch("checkpoint digest does not verify")
    try:
        manifest = json.loads(body[:n_manifest].decode())
        return _parse_body(manifest, memoryview(body)[n_manifest:])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise CheckpointError(f"checkpoint manifest is not valid: {exc!r}; "
                              f"retrain the model") from exc


def _parse_body(manifest: dict, data: memoryview) -> ModelState:
    """The model that a verified body holds; array sizes are summed as
    Python integers and matched to the body before any array is made."""
    config = ModelConfig(**manifest["config"])
    vocab = Vocabulary(dict(manifest["vocab"]))
    ids = list(vocab.token_to_id.values())
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
        raise CheckpointError("checkpoint vocabulary ids are not 0..size-1")
    tensors = manifest["tensors"]
    trainable = {name: shape for name, shape, frozen in tensors if not frozen}
    plan = [(f"tensor {name!r}", shape) for name, shape, _ in tensors]
    adam, graphs = manifest["adam"], manifest["graphs"]
    if adam is not None and not (type(adam["t"]) is int and adam["t"] >= 0):
        raise CheckpointError(f"checkpoint Adam step {adam['t']!r} is not valid")
    for name in adam["names"] if adam is not None else ():
        if name not in trainable:
            raise CheckpointError(f"optimizer moment for {name!r}, "
                                  f"which is not a trainable tensor")
        plan += [(f"optimizer moment for {name!r}", trainable[name])] * 2
    if graphs is not None:
        plan += [(f"{kind} graph", [n, 4])
                 for kind, n in zip(GRAPH_KINDS, graphs["pairs"], strict=True)]
    for what, shape in plan:
        if not (isinstance(shape, list)
                and all(type(e) is int and e >= 0 for e in shape)):
            raise CheckpointError(f"checkpoint {what} has no valid shape")
    sizes = [math.prod(shape) for _, shape in plan]
    if 8 * sum(sizes) > len(data):
        raise TruncatedCheckpoint("unexpected end of checkpoint")
    if 8 * sum(sizes) < len(data):
        raise CheckpointError("checkpoint body has bytes past its last array")
    arrays, at = [], 0
    for (what, shape), size in zip(plan, sizes):
        array = np.frombuffer(data, "<f8", size, at).reshape(shape)
        if not np.isfinite(array).all():
            raise CheckpointError(f"checkpoint {what} holds a non-finite number")
        arrays.append(array.astype(np.float64))
        at += 8 * size
    stored = iter(arrays)
    params = {name: ad.Tensor(next(stored), requires_grad=not frozen)
              for name, _, frozen in tensors}
    label_set = tuple(manifest["label_set"])
    _check_registry(params, init_model(config, vocab, label_set=label_set))
    opt = None
    if adam is not None:
        names = adam["names"]
        opt = Adam([params[n] for n in names], names=names)
        moments = [next(stored) for _ in range(2 * len(names))]
        opt.load_state(adam["t"], moments[0::2], moments[1::2])
    rng = np.random.default_rng(0)
    rng.bit_generator.state = manifest["rng"]
    if graphs is not None:
        graphs = CorpusGraphs(*(_graph_stats(kind, next(stored), vocab.size)
                                for kind in GRAPH_KINDS),
                              theta=graphs["theta"], window=graphs["window"])
    return ModelState(config, params, vocab, label_set, manifest["seed"], rng,
                      opt, graphs)


def _graph_stats(kind: str, rows: np.ndarray, n_words: int) -> WordPairStats:
    """One kind's (a, b, count, weight) rows: pairs of word ids 0 <= a < b <
    n_words, counted at least once, weighed non-negatively, in order."""
    a, b, count, weight = rows.T
    if not (np.all(rows[:, :2] == np.trunc(rows[:, :2]))
            and np.all((0 <= a) & (a < b) & (b < n_words))):
        raise CheckpointError(f"{kind} graph has a pair that is not word ids "
                              f"0 <= a < b < {n_words}")
    if not (np.all(count >= 1.0) and np.all(weight >= 0.0)):
        raise CheckpointError(f"{kind} graph has a count below 1 or a "
                              f"negative weight")
    keys = pair_key(a, b)
    if np.any(keys[1:] <= keys[:-1]):
        raise CheckpointError(f"{kind} graph rows are not sorted by pair")
    return WordPairStats(keys, count.copy(), weight.copy())


def _check_registry(params: dict[str, ad.Tensor], model: ModelState) -> None:
    """Raise CheckpointError unless `params` holds exactly the tensors of
    `model`, each of the same shape."""
    for name, tensor in model.params.items():
        if name not in params:
            raise CheckpointError(f"checkpoint lacks tensor {name!r}; retrain the model")
        if params[name].shape != tensor.shape:
            raise CheckpointError(
                f"checkpoint tensor {name!r} is {params[name].shape}, but its "
                f"config makes it {tensor.shape}")
    for name in params:
        if name not in model.params:
            raise CheckpointError(f"checkpoint tensor {name!r} is not in the "
                                  f"model its config makes")


# ---------------------------------------------------------------------------
# Transfer

def remap_word_rows(model: ModelState, target_vocab: Vocabulary) -> None:
    """Re-index the word table onto a new vocabulary by token surface;
    unseen tokens get fresh uniform rows from the model generator."""
    source_vocab = model.vocab
    table = model.params["embed.word"]
    new = model.rng.uniform(-0.25, 0.25,
                            size=(target_vocab.size, model.config.d_w))
    for tok, tid in target_vocab.token_to_id.items():
        src = source_vocab.token_to_id.get(tok)
        if src is not None:
            new[tid] = table.data[src]
    table.data = new
    model.vocab = target_vocab


def remap_classifier(model: ModelState, target_labels: tuple[str, ...]) -> None:
    """Re-initialize the classifier head for a new label set, copying
    columns for labels shared by name."""
    if tuple(target_labels) == model.label_set:
        return
    old_w = model.params["clf.w"].data
    old_b = model.params["clf.b"].data
    c = len(target_labels)
    width = model.config.classifier_width
    new_w = glorot(model.rng, width, c)
    new_b = np.zeros((1, c))
    for j, name in enumerate(target_labels):
        if name in model.label_set:
            src = model.label_set.index(name)
            new_w[:, j] = old_w[:, src]
            new_b[0, j] = old_b[0, src]
    model.params["clf.w"].data = new_w
    model.params["clf.b"].data = new_b
    model.label_set = tuple(target_labels)
    model.config = replace(model.config, label_count=c)


def transfer_finetune(checkpoint_path, target: TaskData,
                      freeze_prefixes: tuple[str, ...], plan: TrainPlan,
                      log_path=None) -> tuple[EvalReport, ModelState]:
    """Warm-start from a checkpoint, adapt vocabulary, graphs and
    classifier head to the target task, freeze the requested parameter
    groups, fine-tune, and evaluate on the target test split."""
    model = load_checkpoint(checkpoint_path)
    remap_word_rows(model, target.vocab)
    model.graphs = target.graphs
    remap_classifier(model, target.label_set)
    train, dev, test = split_train_dev_test(
        encode_instances(target.instances, target.documents, model.vocab,
                         model.graphs, model.config), plan.seed)
    fit(model, train, dev, plan, freeze_prefixes=freeze_prefixes,
        log_path=log_path)
    return evaluate_model(model, test), model


def train_from_scratch(data: TaskData, config: ModelConfig, plan: TrainPlan,
                       log_path=None) -> tuple[EvalReport, ModelState]:
    """Single-split training used by the CLI train command and as the
    source stage of the transfer protocol."""
    train, dev, test = split_train_dev_test(
        encode_instances(data.instances, data.documents, data.vocab,
                         data.graphs, config), plan.seed)
    model = init_model(config, data.vocab, data.embeddings, seed=plan.seed,
                       label_set=data.label_set)
    model.graphs = data.graphs
    fit(model, train, dev, plan, log_path=log_path)
    return evaluate_model(model, test), model
