"""Training loop, k-fold cross-validation, grid search, bit-exact
checkpointing, and the cross-corpus transfer protocol."""

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
from .textgraph import find_keys, pair_ids, pair_key

CHECKPOINT_MAGIC = b"BIOIE"
CHECKPOINT_VERSION = 2


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

def _config_payload(model: ModelState) -> bytes:
    blob = {
        "config": asdict(model.config),
        "label_set": list(model.label_set),
        "seed": model.seed,
    }
    return json.dumps(blob, sort_keys=True).encode()


def _write_block(fh, payload: bytes) -> None:
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def _read_exact(fh, n: int) -> bytes:
    """n bytes of the file; a corrupt length field beyond the file's end is
    refused before it can ask for more memory than the file holds."""
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    buf = fh.read(n) if n <= left else b""
    if len(buf) != n:
        raise TruncatedCheckpoint("unexpected end of checkpoint")
    return buf


def _read_block(fh) -> bytes:
    (n,) = struct.unpack("<Q", _read_exact(fh, 8))
    return _read_exact(fh, n)


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(struct.pack("<I", arr.ndim))
    for extent in arr.shape:
        fh.write(struct.pack("<Q", extent))
    fh.write(arr.astype("<f8", copy=False).tobytes())


def _read_array(fh, what: str) -> np.ndarray:
    """The next array of the file. Every number a checkpoint stores is
    finite: a NaN or an infinity raises CheckpointError naming `what`."""
    (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
    shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(ndim))
    data = np.frombuffer(_read_exact(fh, math.prod(shape) * 8), dtype="<f8")
    if not np.isfinite(data).all():
        raise CheckpointError(f"checkpoint {what} holds a non-finite number")
    return data.reshape(shape).astype(np.float64)


def _write_graphs(fh, graphs: CorpusGraphs | None) -> None:
    """theta and window as JSON (null without graphs), then each kind's
    counts and nonzero weights, (pairs, 3) rows (a, b, value) in pair order."""
    header = None if graphs is None else {"theta": graphs.theta,
                                          "window": graphs.window}
    _write_block(fh, json.dumps(header).encode())
    for kind in GRAPH_KINDS if graphs is not None else ():
        s = graphs.by_kind(kind)
        rows = np.column_stack((*pair_ids(s.keys), s.count, s.edge_weight))
        _write_array(fh, rows[:, :3])
        _write_array(fh, rows[s.edge_weight != 0.0][:, [0, 1, 3]])


def _read_graphs(fh) -> CorpusGraphs | None:
    def stats(kind: str) -> WordPairStats:
        counts, weights = (_read_array(fh, f"{kind} graph") for _ in range(2))
        if any(t.ndim != 2 or t.shape[1] != 3 for t in (counts, weights)):
            raise CheckpointError(f"{kind} graph table is not (pairs, 3)")
        if not (np.all(counts[:, 2] >= 1.0) and np.all(weights[:, 2] >= 0.0)):
            raise CheckpointError(f"{kind} graph has a count below 1 or a "
                                  f"negative weight")
        keys = pair_key(counts[:, 0], counts[:, 1])
        slot, found = find_keys(keys, pair_key(weights[:, 0], weights[:, 1]))
        if np.any(keys[1:] <= keys[:-1]) or not found.all():
            raise CheckpointError(f"{kind} graph rows are not sorted by pair, "
                                  f"or a weight row has no count row")
        edge_weight = np.zeros(len(keys))
        edge_weight[slot] = weights[:, 2]
        return WordPairStats(keys, counts[:, 2].copy(), edge_weight)

    header = json.loads(_read_block(fh))
    return None if header is None else CorpusGraphs(
        **{k: stats(k) for k in GRAPH_KINDS}, **header)


def save_checkpoint(model: ModelState, optimizer: Adam | None, path) -> None:
    """Versioned binary checkpoint: config digest, every named tensor as
    little-endian float64 with a frozen flag (trainable tensors first,
    then frozen ones, each in registry order), optimizer moments,
    generator state and graphs."""
    payload = _config_payload(model)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(digest)
        _write_block(fh, payload)
        _write_block(fh, json.dumps(model.vocab.token_to_id).encode())
        named = sorted(model.params.items(), key=lambda kv: not kv[1].requires_grad)
        fh.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            _write_block(fh, name.encode())
            fh.write(struct.pack("<B", 0 if tensor.requires_grad else 1))
            _write_array(fh, tensor.data)
        if optimizer is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Q", optimizer.t))
            fh.write(struct.pack("<I", len(optimizer.params)))
            for name, m, v in zip(optimizer.names, optimizer.m, optimizer.v):
                _write_block(fh, name.encode())
                _write_array(fh, m)
                _write_array(fh, v)
        _write_block(fh, json.dumps(model.rng.bit_generator.state).encode())
        _write_graphs(fh, model.graphs)


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


def load_checkpoint(path, expect_model: ModelState | None = None) -> ModelState:
    """Rebuild a ModelState (and its optimizer) bit-exactly. When
    `expect_model` is given, its config digest must match the stored one;
    nothing is loaded on mismatch. The stored tensors must be those, by
    name and shape, that `init_model` makes for the stored config,
    vocabulary and label set; otherwise a CheckpointError names the
    first that is missing, misshapen or unexpected."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise BadMagic(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(
                f"checkpoint version {version}, expected {CHECKPOINT_VERSION}: "
                f"retrain the model to store its corpus graphs with it")
        digest = _read_exact(fh, 32)
        payload = _read_block(fh)
        if hashlib.sha256(payload).digest() != digest:
            raise DigestMismatch("checkpoint config digest does not verify")
        blob = json.loads(payload)
        if expect_model is not None and _config_payload(expect_model) != payload:
            raise DigestMismatch(
                "checkpoint config digest does not match the expected model")
        vocab_map = json.loads(_read_block(fh))

        try:
            config = ModelConfig(**blob["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint config is not valid: {exc}; "
                                  f"retrain the model") from exc
        (n_named,) = struct.unpack("<I", _read_exact(fh, 4))
        params: dict[str, ad.Tensor] = {}
        for _ in range(n_named):
            name = _read_block(fh).decode()
            (is_frozen,) = struct.unpack("<B", _read_exact(fh, 1))
            params[name] = ad.Tensor(_read_array(fh, f"tensor {name!r}"),
                                     requires_grad=not is_frozen)
        vocab = Vocabulary(dict(vocab_map))
        _check_registry(params, init_model(config, vocab,
                                           label_set=tuple(blob["label_set"])))
        (has_opt,) = struct.unpack("<B", _read_exact(fh, 1))
        opt = None
        if has_opt:
            (t,) = struct.unpack("<Q", _read_exact(fh, 8))
            (n_opt,) = struct.unpack("<I", _read_exact(fh, 4))
            names, ms, vs = [], [], []
            for _ in range(n_opt):
                names.append(_read_block(fh).decode())
                ms.append(_read_array(fh, f"optimizer moment for {names[-1]!r}"))
                vs.append(_read_array(fh, f"optimizer moment for {names[-1]!r}"))
                if not (names[-1] in params and params[names[-1]].requires_grad):
                    raise CheckpointError(f"optimizer moment for {names[-1]!r}, "
                                          f"which is not a trainable tensor")
            opt = Adam([params[n] for n in names], names=names)
            opt.load_state(t, ms, vs)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = json.loads(_read_block(fh))
        graphs = _read_graphs(fh)

    return ModelState(config, params, vocab,
                      tuple(blob["label_set"]), blob["seed"], rng, opt, graphs)


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
