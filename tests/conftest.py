"""Shared fixtures: small synthetic task data and model configs."""

import hashlib
import json
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import bioie.autodiff as ad
from bioie.corpus import build_vocabulary, normalize_corpus, random_embeddings, synth_corpus
from bioie.layers import ModelConfig
from bioie.pipeline import loss
from bioie.textgraph import GRAPH_KINDS, build_corpus_graphs, pair_ids
from bioie.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, TaskData


@pytest.fixture(autouse=True)
def branch_worker_left_idle(monkeypatch):
    """Fail a test that leaves work queued or running on the branch
    worker thread, once that worker has started: every future submitted
    during the test must be done or cancelled when it ends. Whatever is
    left runs to its end here, so it cannot run into the next test."""
    futures = []
    submit = ThreadPoolExecutor.submit

    def recording(self, fn, /, *args, **kwargs):
        future = submit(self, fn, *args, **kwargs)
        futures.append(future)
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording)
    yield
    if not ad._worker.cache_info().currsize:
        return
    left = [f for f in futures if not f.done()]
    for future in left:
        future.exception(timeout=300)
    assert not left, f"{len(left)} job(s) left on the branch worker"


@pytest.fixture(scope="session")
def blas_threads():
    """numpy's OpenBLAS thread setter and getter, found once, or None."""
    return ad.openblas_threads()


@pytest.fixture(autouse=True)
def blas_threads_restored(blas_threads):
    """`cli.main` pins numpy's OpenBLAS to one thread for the rest of its
    process. Give each test back the count it started with, so that no
    test runs on the threads an earlier test left."""
    if blas_threads is None:
        yield
        return
    set_threads, get_threads = blas_threads
    threads = get_threads()
    yield
    set_threads(threads)


@pytest.fixture(params=["worker", "inline"])
def job_mode(request, monkeypatch):
    """Hand every `Deferred` job, `Adam.step` half, `concat_branches`
    branch and `run_all` task list to the worker thread, whatever its
    size and CPU count, or run everything on the calling thread."""
    on_worker = request.param == "worker"
    monkeypatch.setattr(ad, "_offload", lambda floats: on_worker)
    return request.param


def build_synth_task(counts, seed, d_w=24, theta=0.9, window=5,
                     normalize=True, style="a"):
    corpus = synth_corpus(counts, seed, style=style)
    docs, instances = corpus.documents, corpus.instances
    for doc in docs:
        doc.dep_edges = [(i, i + 1, "adj") for i in range(len(doc.tokens) - 1)]
    if normalize:
        docs, instances = normalize_corpus(docs, instances)
    vocab = build_vocabulary(docs)
    embeddings = random_embeddings(vocab, d_w, seed=seed)
    graphs = build_corpus_graphs(docs, embeddings, vocab, theta=theta,
                                 window=window)
    task = instances[0].task
    return TaskData({d.id: d for d in docs}, instances,
                    instances[0].label_set, vocab, embeddings, graphs, task)


def traced_step(model, batch, before_backward=None) -> tuple[int, int]:
    """One recorded train-mode step of `model` on `batch`, from an empty
    tape, under tracemalloc: the live bytes when `backward` starts, and
    the peak above them until `backward` has returned and every job
    queued on the worker has run. `before_backward(tape)` sees the
    recorded tape first. Code that `backward` calls may read
    `tracemalloc.get_traced_memory()` meanwhile."""
    tracemalloc.start()
    try:
        ad.reset_tape()
        batch_loss = loss(model, batch, "train")
        if before_backward is not None:
            before_backward(ad._STATE.tape)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(batch_loss)
        ad._drain()
        return start, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        ad.reset_tape()


def counts_of(stats):
    """The count of every counted pair, as a dict keyed by (a, b), a < b."""
    a, b = pair_ids(stats.keys)
    return dict(zip(zip(a.tolist(), b.tolist()), stats.count.tolist()))


def assert_same_graphs(got, expected):
    """theta, window and each kind's pair arrays are equal bit for bit."""
    assert (got.theta, got.window) == (expected.theta, expected.window)
    for kind in GRAPH_KINDS:
        a, b = got.by_kind(kind), expected.by_kind(kind)
        for name in ("keys", "count", "edge_weight"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (kind, name)


# A version-3 checkpoint's header: magic, version, the sha256 of the body,
# and the lengths of the manifest and of the whole body.
CHECKPOINT_HEADER = struct.Struct("<5sI32sQQ")


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """The JSON manifest of a checkpoint, and the array bytes after it."""
    *_, n_manifest, _ = CHECKPOINT_HEADER.unpack_from(raw)
    body = raw[CHECKPOINT_HEADER.size:]
    return json.loads(body[:n_manifest]), body[n_manifest:]


def join_checkpoint(manifest: dict, arrays: bytes) -> bytes:
    """The checkpoint of `manifest` and `arrays`, under a digest made
    afresh, so that a reader's checks behind the digest see the edit."""
    head = json.dumps(manifest).encode()
    body = head + arrays
    return CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                  hashlib.sha256(body).digest(), len(head),
                                  len(body)) + body


# Sizes a corrupt checkpoint may claim: a 1 TiB manifest (the block that
# holds the config) or body in the header, and, re-hashed, a first tensor
# of 64 GiB or one whose element count overflows int64.
CORRUPT_LENGTHS = {
    "config_block_2^40": ("manifest", 2 ** 40),
    "body_2^40": ("body", 2 ** 40),
    "array_dims_2^36x1": ("shape", [2 ** 36, 1]),
    "array_dims_2^32x2^32": ("shape", [2 ** 32, 2 ** 32]),
}


def corrupt_checkpoint(raw: bytes, name: str) -> bytes:
    """`raw` with one size replaced as `CORRUPT_LENGTHS[name]` says."""
    field, value = CORRUPT_LENGTHS[name]
    if field == "shape":
        manifest, arrays = split_checkpoint(raw)
        manifest["tensors"][0][1] = value
        return join_checkpoint(manifest, arrays)
    at = CHECKPOINT_HEADER.size - (16 if field == "manifest" else 8)
    return raw[:at] + struct.pack("<Q", value) + raw[at + 8:]


SMALL_CONFIG_KWARGS = dict(d_w=24, d_p=8, max_dist=60, hidden=16, heads=4,
                           gcn_layers=1, dropout=0.2)


@pytest.fixture(scope="session")
def tiny_task():
    """20 candidate instances (10 positive) over 10 synthetic reports."""
    return build_synth_task({"Size": 10}, seed=3)


@pytest.fixture(scope="session")
def small_config(tiny_task):
    return ModelConfig(label_count=len(tiny_task.label_set),
                       **SMALL_CONFIG_KWARGS)
