"""What the benchmark under `perfbench/` relies on in the library.

The benchmark's worker checks every set-up it times, and its tracer
wraps library functions by module and name. A change to the encoded
layout or to those names would first show as failed benchmark checks
or a tracer that cannot install; these tests make it fail here. The
benchmark files are loaded read-only: no bytecode is written next to
them.
"""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from bioie import autodiff, layers, pipeline, textgraph, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    """`perfbench/worker.py` as a module, with its `spans` import."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    yield module
    sys.modules.pop("perfbench_worker", None)


@pytest.fixture(scope="module")
def spans(worker):
    return sys.modules["spans"]


@pytest.mark.parametrize("name", ["train_small", "train_long"])
def test_tiny_set_up_passes_the_worker_checks(worker, name):
    """Each workload's tiny configuration sets up, traced, with no failed
    check, and the projection runs inside its span."""
    wl = worker.WORKLOADS[name].tiny()
    tracer = worker.Tracer()
    with tracer.installed():
        s = worker.set_up(wl, *worker.generate(wl, 0), 0, tracer)
    checks = worker.Checks()
    worker.check_setup(checks, s, None)
    assert checks.failures == []
    assert checks.attempted == len(textgraph.GRAPH_KINDS) + 1
    assert tracer.calls["textgraph.project"] == len({e.doc.doc_id for e in s.encoded})


def test_traced_names_exist(spans):
    for fn in spans.LAYER_FUNCTIONS:
        assert callable(getattr(pipeline, fn)), fn
    for fn in spans.GRAPH_BUILDERS:
        assert callable(getattr(textgraph, fn)), fn
    for module, fn in ((pipeline, "project_adjacency"),
                       (textgraph, "project_adjacency"),
                       (pipeline, "encode_instances"),
                       (training, "model_loss"),
                       (autodiff, "backward"),
                       (autodiff, "tape_size"),
                       (autodiff, "make_op"),
                       (layers, "make_op")):
        assert callable(getattr(module, fn)), (module.__name__, fn)


def test_inference_checks_pass_with_eval_chunks_shared(worker, monkeypatch):
    """The benchmark's inference pass and batch-invariance check on the
    `train_long` configuration, whose 24 tiny-corpus instances make
    three eval chunks per `predict` call, two of them full: no check
    fails, and with two CPUs the worker thread ran whole forwards."""
    wl = worker.WORKLOADS["train_long"].tiny()
    s = worker.set_up(wl, *worker.generate(wl, 0), 0)
    steps = max(len(inst.doc.ids) for inst in s.encoded)
    chunk = pipeline.EVAL_ARRAY_FLOATS // (steps * max(steps, s.model.config.d_model))
    assert len(s.encoded) >= 2 * chunk
    threads = set()
    forward = pipeline.forward

    def spy(model, part, mode="eval"):
        threads.add(threading.current_thread().name)
        return forward(model, part, mode)

    monkeypatch.setattr(pipeline, "forward", spy)
    checks = worker.Checks()
    worker.infer_pass(s.model, s.encoded, checks)
    worker.check_batch_invariance(checks, s.model, s.encoded, 0)
    assert checks.failures == []
    assert checks.attempted == 1 + worker.INVARIANCE_SAMPLE
    if autodiff._offload(autodiff.BRANCH_THREAD_MIN_FLOATS):  # two CPUs
        assert any(name.startswith("bioie-branch") for name in threads)
