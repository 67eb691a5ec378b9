"""One benchmark workload in one process.

Started by `run.py`, which pins the BLAS thread count and points
PYTHONPATH at the checkout's `src/`. Generates the workload's inputs
from `--seed`, then drives the library through its public functions:
corpus -> textgraph.build_corpus_graphs -> pipeline.encode_instances ->
pipeline.init_model -> training.train_epoch -> pipeline.predict.

Output, all on stdout: one `manifest` JSON line, one human-readable
line per metric (name, value, unit, base), and, last, the result object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, measured without tracing; with
`--trace 1` they are the per-layer ones from a traced run (see
spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import bioie  # noqa: E402

if not Path(bioie.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"bioie was imported from {bioie.__file__}, not from {ROOT / 'src'}")

from bioie import corpus, evaluation, pipeline, textgraph, training  # noqa: E402
from bioie.layers import ModelConfig  # noqa: E402
from spans import OTHER, Tracer  # noqa: E402

# The train_small model: acceptance criterion 8 and run_separable_cv.py.
SMALL_MODEL = dict(d_w=24, d_p=8, max_dist=60, hidden=16, heads=4,
                   gcn_layers=1, dropout=0.2)

# p90 step latency needs at least ten samples above it.
MIN_STEP_SAMPLES = 100
INVARIANCE_SAMPLE = 8
INVARIANCE_TOL = 1e-10     # the test suite's batch-invariance tolerance
# Loss references are taken on a fixed-seed probe (see `probe`). Summation
# order changes move its loss by ~1e-12 relative; wrong math moves it by
# far more than this.
LOSS_RTOL = 1e-6
PROBE_SEED = 0
PROBE_EPOCHS = 2
MAX_UNATTRIBUTED = 0.05
TASK = "pathology:Size"
LR = 1e-3
# Inference passes are spread through the training passes so that their
# median covers the same stretch of the run as the training replays.
INFER_EVERY = 3
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]   # pathology kinds planted in every report
    reports: int
    batch_size: int
    theta: float             # semantic-graph cosine threshold
    window: int              # sequence-graph PMI window
    setups: int              # set-up repetitions; setup_s is their median
    model: dict = field(default_factory=dict)   # ModelConfig overrides
    train_instances: int | None = None          # seeded sample trained on

    def config(self) -> ModelConfig:
        return ModelConfig(**self.model)

    def digest(self) -> str:
        text = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def tiny(self) -> "Workload":
        """The same configuration on 12 reports, set up once."""
        return replace(self, reports=12, setups=1, train_instances=None)


# The default theta of 0.9 gives random vectors no semantic edge at all,
# so each workload sets a theta that leaves dozens of edges on every seed
# tried.
WORKLOADS = {w.name: w for w in (
    # Python-dispatch bound: 35-token reports and a small model, so the
    # per-step LSTM loop and per-op tape overhead dominate; its corpus
    # graphs are small, so set-up is cheap.
    Workload("train_small", kinds=("Size",), reports=100, batch_size=16,
             theta=0.4, window=5, setups=16, model=SMALL_MODEL),
    # Compute bound: ~100-token reports carrying all seven kinds and the
    # CLI default model (8 heads of n x n attention, 2 GCN layers). Its
    # set-up builds and projects the graphs of a 400-report corpus, so
    # graph work shows in setup_s; training runs on a sample.
    Workload("train_long", kinds=corpus.PATHOLOGY_KINDS, reports=400,
             batch_size=8, theta=0.25, window=20, setups=3, train_instances=80),
)}

class Checks:
    """Operations attempted and failed; every failure is also printed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}")


@dataclass
class SetUp:
    graphs: textgraph.CorpusGraphs
    encoded: list
    task_count: int          # task instances after normalization
    model: pipeline.ModelState


def generate(wl: Workload, seed: int):
    """Seeded reports with linear-chain dependency edges; not timed."""
    synth = corpus.synth_corpus({k: wl.reports for k in wl.kinds}, seed)
    docs = [corpus.replace_edges(d, corpus.linear_chain_edges(len(d.tokens)))
            for d in synth.documents]
    return docs, synth.instances


def set_up(wl: Workload, docs, instances, seed: int, tracer: Tracer | None = None
           ) -> SetUp:
    """Generated documents -> normalized corpus, vocabulary, embeddings,
    three graphs, encoded instances and an initialized model."""
    cfg = wl.config()
    encode = pipeline.encode_instances
    prepare = tracer.span("corpus.prepare") if tracer else contextlib.nullcontext()
    if tracer:
        encode = tracer.wrap(encode, name="pipeline.encode")
    with prepare:
        docs, instances = corpus.normalize_corpus(docs, instances)
        vocab = corpus.build_vocabulary(docs)
        embeddings = corpus.random_embeddings(vocab, cfg.d_w, seed=seed)
    graphs = textgraph.build_corpus_graphs(docs, embeddings, vocab,
                                           theta=wl.theta, window=wl.window)
    task = [inst for inst in instances if inst.task == TASK]
    encoded = encode(task, {d.id: d for d in docs}, vocab, graphs, cfg)
    model = pipeline.init_model(cfg, vocab, embeddings, seed=seed,
                                label_set=task[0].label_set)
    return SetUp(graphs, encoded, len(task), model)


def edge_counts(graphs: textgraph.CorpusGraphs) -> dict[str, int]:
    return {kind: len(graphs.by_kind(kind)) for kind in textgraph.GRAPH_KINDS}


def check_setup(checks: Checks, s: SetUp, expected: dict | None):
    """Every graph kind has edges, as many as in the first set-up, and
    every task instance is encoded with an n x n adjacency per kind."""
    edges = edge_counts(s.graphs)
    for kind, count in edges.items():
        ok = count > 0 and (expected is None or count == expected[kind])
        checks.record(ok, f"{kind} graph build: {count} edges"
                          f" (first set-up: {expected and expected[kind]})")
    shapes_ok = len(s.encoded) == s.task_count and all(
        set(e.doc.adjacency) == set(textgraph.GRAPH_KINDS)
        and all(a.matrix.shape == (len(e.doc.ids),) * 2
                for a in e.doc.adjacency.values())
        for e in s.encoded)
    checks.record(shapes_ok, f"encode: {len(s.encoded)} of {s.task_count} instances")
    return edges


def train_sample(wl: Workload, encoded: list, seed: int) -> list:
    if wl.train_instances is None or wl.train_instances >= len(encoded):
        return encoded
    rng = np.random.default_rng([seed, 7])
    picks = np.sort(rng.choice(len(encoded), size=wl.train_instances, replace=False))
    return [encoded[i] for i in picks]


class Trainer:
    """Drives `training.train_epoch` and replays epochs from a snapshot.

    An epoch record holds the epoch's wall time, its loss, and the
    interval between consecutive optimizer updates (the first measured
    from the epoch's start)."""

    def __init__(self, wl: Workload, model, instances, checks: Checks):
        self.wl, self.model, self.instances, self.checks = wl, model, instances, checks
        self.optimizer = training.make_optimizer(model, LR)
        self._stamps: list[float] = []
        update = self.optimizer.step

        def stamped_update():
            update()
            self._stamps.append(perf_counter())

        self.optimizer.step = stamped_update

    def snapshot(self):
        t, m, v = self.optimizer.state_arrays()
        return ([p.data.copy() for p in self.model.params.values()], t,
                [a.copy() for a in m], [a.copy() for a in v],
                self.model.rng.bit_generator.state)

    def restore(self, snap) -> None:
        data, t, m, v, rng_state = snap
        for p, saved in zip(self.model.params.values(), data):
            p.data[...] = saved
        self.optimizer.load_state(t, m, v)
        self.model.rng.bit_generator.state = rng_state

    def run(self, epochs: int | None, seconds: float = 0.0,
            tracer: Tracer | None = None, after_epoch=None) -> list[dict]:
        """`epochs` whole epochs or, with None, epochs until `seconds` have
        passed. `after_epoch(i)` runs untimed after epoch i."""
        train_epoch = training.train_epoch
        update = self.optimizer.step
        if tracer:
            train_epoch = tracer.wrap(train_epoch, name="training.loop")
            self.optimizer.step = tracer.wrap(update, name="autodiff.adam")
        out = []
        start = perf_counter()
        try:
            while epochs is None or len(out) < epochs:
                self._stamps.clear()
                t0 = perf_counter()
                loss = train_epoch(self.model, self.instances, self.optimizer,
                                   self.model.rng, self.wl.batch_size)
                t1 = perf_counter()
                steps = np.diff([t0] + self._stamps) * 1e3
                for _ in steps:
                    self.checks.record(True, "training step")
                self.checks.record(math.isfinite(loss), f"epoch loss {loss} is finite")
                out.append({"s": t1 - t0, "loss": loss, "step_ms": steps})
                if after_epoch:
                    after_epoch(len(out) - 1)
                if epochs is None and t1 - start >= seconds:
                    break
        finally:
            self.optimizer.step = update
        return out

    def replay(self, snap, like: list[dict], tracer: Tracer | None = None,
               after_epoch=None) -> list[dict]:
        """Rerun the epochs of `like` from `snap`; the losses must repeat
        bitwise."""
        self.restore(snap)
        out = self.run(len(like), tracer=tracer, after_epoch=after_epoch)
        self.checks.record([e["loss"] for e in out] == [e["loss"] for e in like],
                           "replayed epochs repeat their losses bitwise")
        return out

    def rate(self, passes: list[list[dict]]) -> float:
        """Instances per second over the epochs, each epoch timed by the
        median of its replays."""
        epoch_s = np.median([[e["s"] for e in p] for p in passes], axis=0)
        return len(self.instances) * len(epoch_s) / float(epoch_s.sum())


def step_ms(passes: list[list[dict]]) -> np.ndarray:
    """The latency of every step of every replay."""
    return np.concatenate([e["step_ms"] for p in passes for e in p])


def infer_pass(model, instances, checks: Checks, predict=pipeline.predict):
    """One `pipeline.predict` call per 64-instance chunk; returns the
    chunk times and the labels."""
    times, labels = [], []
    for lo in range(0, len(instances), 64):
        part = instances[lo:lo + 64]
        t0 = perf_counter()
        out = predict(model, part)
        times.append(perf_counter() - t0)
        checks.record(len(out) == len(part) and out.min() >= 0
                      and out.max() < len(model.label_set), f"inference chunk at {lo}")
        labels.append(out)
    return times, np.concatenate(labels)


def check_batch_invariance(checks: Checks, model, instances, seed: int):
    rng = np.random.default_rng([seed, 11])
    size = min(INVARIANCE_SAMPLE, len(instances))
    sample = [instances[i] for i in rng.choice(len(instances), size=size, replace=False)]
    whole = pipeline.predict_proba(model, sample)
    for row, inst in zip(whole, sample):
        single = pipeline.predict_proba(model, [inst])[0]
        gap = float(np.max(np.abs(row - single)))
        checks.record(gap <= INVARIANCE_TOL,
                      f"batch invariance of {inst.iid}: max gap {gap:.3g}")


def probe(wl: Workload) -> dict:
    """Edge counts and the training loss after PROBE_EPOCHS epochs on the
    workload's configuration at tiny size with a fixed seed. The timed
    epoch count depends on speed, so the loss reference lives here."""
    tiny = wl.tiny()
    s = set_up(tiny, *generate(tiny, PROBE_SEED), PROBE_SEED)
    optimizer = training.make_optimizer(s.model, LR)
    for _ in range(PROBE_EPOCHS):
        loss = training.train_epoch(s.model, s.encoded, optimizer, s.model.rng,
                                    tiny.batch_size)
    return {"edges": edge_counts(s.graphs), "loss": loss}


def check_probe(checks: Checks, wl: Workload):
    ref = json.loads(REFERENCE.read_text())[wl.name]
    got = probe(wl)
    for kind in textgraph.GRAPH_KINDS:
        checks.record(got["edges"][kind] == ref["edges"][kind],
                      f"probe {kind} edges {got['edges'][kind]} "
                      f"(reference {ref['edges'][kind]})")
    gap = abs(got["loss"] - ref["loss"])
    checks.record(gap <= LOSS_RTOL * abs(ref["loss"]),
                  f"probe loss {got['loss']!r} (reference {ref['loss']!r})")


class SetUps:
    """Repeated set-ups from one generated input. Each is checked against
    the edge counts of the first, and its seconds are recorded."""

    def __init__(self, wl: Workload, seed: int, checks: Checks):
        self.wl, self.seed, self.checks = wl, seed, checks
        self.docs, self.instances = generate(wl, seed)
        self.times: list[float] = []
        self.tracers: list[Tracer] = []
        self.edges = None

    def run(self, tracer: Tracer | None = None) -> SetUp:
        t0 = perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            s = set_up(self.wl, self.docs, self.instances, self.seed, tracer)
        self.times.append(perf_counter() - t0)
        self.tracers.append(tracer)
        self.edges = check_setup(self.checks, s, self.edges)
        return s


def run_untraced(wl: Workload, seed: int, seconds: float, smoke: bool, checks: Checks):
    """Set-up; warm-up epoch; a timed pass of the fewest whole epochs that
    give MIN_STEP_SAMPLES steps; then replays of that pass from the same
    snapshot while another fits in `seconds`. Inference passes run before
    the first epoch and after every INFER_EVERY-th and the last epoch of
    each pass, outside the epochs' times; the other `wl.setups` - 1
    set-ups run one after each of these inference passes, and any left
    over at the end. Times are
    medians over these repeats, or percentiles of all steps, so that each
    reflects the whole run: load from outside the process comes and goes
    within a run, and the median of a run moves less from run to run than
    its fastest repeat does."""
    setups = SetUps(wl, seed, checks)
    s = setups.run()
    train_set, model = train_sample(wl, s.encoded, seed), s.model
    del s  # later set-ups replace, not add to, the corpus graphs in memory
    trainer = Trainer(wl, model, train_set, checks)
    trainer.run(1)
    snap = trainer.snapshot()
    infer_passes = [infer_pass(model, train_set, checks)[0]]
    labels_after: dict[int, np.ndarray] = {}

    def infer_between(epoch: int) -> None:
        if epoch % INFER_EVERY != INFER_EVERY - 1 and epoch != epochs - 1:
            return
        chunks, labels = infer_pass(model, train_set, checks)
        infer_passes.append(chunks)
        if epoch in labels_after:
            checks.record(np.array_equal(labels, labels_after[epoch]),
                          f"predictions after replayed epoch {epoch} repeat")
        labels_after[epoch] = labels
        if len(setups.times) < wl.setups:
            setups.run()

    steps_per_epoch = math.ceil(len(train_set) / wl.batch_size)
    epochs = 1 if smoke else math.ceil(MIN_STEP_SAMPLES / steps_per_epoch)
    start = perf_counter()
    passes = [trainer.run(epochs, after_epoch=infer_between)]
    while not smoke:
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        passes.append(trainer.replay(snap, passes[0], after_epoch=infer_between))
    while len(setups.times) < wl.setups:
        setups.run()
    check_batch_invariance(checks, model, train_set, seed)
    check_probe(checks, wl)

    steps = step_ms(passes)
    p90 = float(np.percentile(steps, 90))
    chunk_s = np.median(infer_passes, axis=0)
    replays = f"{len(passes)} replays"
    return {
        "train_inst_per_s": (trainer.rate(passes), "inst/s",
                             f"{len(passes[0])} epochs x {len(train_set)} instances, "
                             f"each epoch the median of {replays}"),
        "train_step_ms.p50": (float(np.percentile(steps, 50)), "ms",
                              f"{len(steps)} steps of batch {wl.batch_size}, {replays}"),
        "train_step_ms.p90": (p90, "ms", f"{len(steps)} steps, {int((steps > p90).sum())} "
                                         f"above, {replays}"),
        "infer_inst_per_s": (len(train_set) / float(chunk_s.sum()), "inst/s",
                             f"{len(train_set)} instances in {len(chunk_s)} chunks, "
                             f"each the median of {len(infer_passes)} passes"),
        "setup_s": (statistics.median(setups.times), "s",
                    f"median of {len(setups.times)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of the workload process"),
    }


def run_traced(wl: Workload, seed: int, seconds: float, smoke: bool, checks: Checks):
    """Traced set-ups; an untraced warm-up epoch; an untraced pass of the
    epochs that fill `seconds` / 8; then, from the same snapshot, traced
    and untraced replays of it in turn until `seconds` have passed; then a
    traced inference pass. Traced and untraced passes must agree bitwise."""
    setups = SetUps(wl, seed, checks)
    for _ in range(wl.setups):
        s = None  # one set-up alive at a time
        s = setups.run(Tracer())
    setup_tracers = setups.tracers
    setup = {k: statistics.median(t.self_s.get(k, 0.0) for t in setup_tracers)
             for k in setup_tracers[0].self_s}
    projected = setup_tracers[0].calls["textgraph.project"]
    edges = edge_counts(s.graphs)

    train_set = train_sample(wl, s.encoded, seed)
    n = len(train_set)
    trainer = Trainer(wl, s.model, train_set, checks)
    warmup = trainer.run(1)
    snap = trainer.snapshot()
    start = perf_counter()
    plain = [trainer.run(1) if smoke else trainer.run(None, seconds / 8)]
    traced, train = [], Tracer()
    while True:
        if traced:
            plain.append(trainer.replay(snap, plain[0]))
        with train.installed():
            traced.append(trainer.replay(snap, plain[0], tracer=train))
        if smoke or len(traced) >= 2 and perf_counter() - start >= seconds:
            break
    # `training.loop` encloses the whole epoch, so its self time is the
    # epoch time that no layer, backward or optimizer span covers.
    traced_s = sum(e["s"] for p in traced for e in p)
    unattributed = (traced_s - train.total() + train.self_s["training.loop"]) / traced_s
    checks.record(unattributed <= MAX_UNATTRIBUTED,
                  f"trace covers the timed epochs: unattributed {unattributed:.3f}")

    run = Tracer()
    with run.installed():
        predict = run.wrap(pipeline.predict, layer=OTHER, phase="infer")
        _, labels = infer_pass(s.model, train_set, checks, predict)
    score_s = []
    golds = [inst.label for inst in train_set]
    for _ in range(5):
        t0 = perf_counter()
        evaluation.evaluate_outcomes(labels, golds, s.model.label_set)
        score_s.append(perf_counter() - t0)
    check_batch_invariance(checks, s.model, train_set, seed)
    check_probe(checks, wl)

    trained = n * sum(len(p) for p in traced)
    steps = train.calls["autodiff.adam"]
    train_base = f"{trained} traced instances, {steps} steps"
    setup_base = f"median of {len(setup_tracers)} traced set-ups, {projected} documents"
    infer_base = f"one traced pass over {n} instances"

    def per_inst(tracer, key):
        return tracer.self_s[key] * 1e3 / (trained if tracer is train else n)

    metrics = {
        "autodiff.backward.ms_per_inst": (train.backward_s() * 1e3 / trained, "ms", train_base),
        "autodiff.replay.ms_per_inst": (per_inst(train, "autodiff.replay"), "ms", train_base),
        "autodiff.adam.ms_per_step": (train.self_s["autodiff.adam"] * 1e3 / steps, "ms",
                                      train_base),
        "autodiff.tape_records_per_inst": (train.tape_records / trained, "count", train_base),
    }
    for prefix in ("layers.embed", "layers.bilstm", "layers.attention", "layers.gcn", OTHER):
        for phase, tracer, base in (("fwd", train, train_base), ("bwd", train, train_base),
                                    ("infer", run, infer_base)):
            metrics[f"{prefix}.{phase}.ms_per_inst"] = (
                per_inst(tracer, f"{prefix}.{phase}"), "ms", base)
    metrics["pipeline.encode.s"] = (setup["pipeline.encode"], "s", setup_base)
    for kind in textgraph.GRAPH_KINDS:
        metrics[f"textgraph.{kind}.s"] = (setup[f"textgraph.{kind}"], "s", setup_base)
    metrics["textgraph.project.s"] = (setup["textgraph.project"], "s", setup_base)
    metrics["textgraph.project.ms_per_doc"] = (
        setup["textgraph.project"] * 1e3 / projected, "ms", setup_base)
    for kind in textgraph.GRAPH_KINDS:
        metrics[f"textgraph.edges.{kind}"] = (edges[kind], "count", "word pairs with weight")
    metrics["corpus.prepare.s"] = (setup["corpus.prepare"], "s", setup_base)
    metrics["training.loop.ms_per_step"] = (
        train.self_s["training.loop"] * 1e3 / steps, "ms", train_base)
    metrics["training.warmup_epoch.s"] = (warmup[0]["s"], "s", "first epoch, untraced")
    metrics["evaluation.score.ms"] = (statistics.median(score_s) * 1e3, "ms",
                                      "median of 5 calls")
    metrics["trace.overhead_frac"] = (
        1.0 - trainer.rate(traced) / trainer.rate(plain), "ratio",
        f"median of {len(traced)} traced vs {len(plain)} untraced replays per epoch")
    metrics["trace.unattributed_frac"] = (unattributed, "ratio",
                                          f"{traced_s:.3f} s of traced epochs")
    return metrics


def git_sha() -> str:
    # Outside a git checkout, `git` would report the SHA of an enclosing repo.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        out = ""
    return out or "unknown"


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        name = version = "unknown"
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = fn()
                break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return {"blas": name, "blas_version": version, "blas_threads": threads}


def manifest(wl: Workload, args) -> dict:
    return {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "config_digest": wl.digest(), "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        **blas_info(), "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one timed epoch")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.tiny()
    print("manifest " + json.dumps(manifest(wl, args), sort_keys=True), flush=True)

    checks = Checks()
    run = run_traced if args.trace else run_untraced
    metrics = run(wl, args.seed, args.seconds, args.smoke, checks)
    for name, (value, unit, base) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({base})")
    failed = len(checks.failures)
    print(f"failed_frac = {failed / checks.attempted:.6g} ratio "
          f"({failed} of {checks.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _base) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
