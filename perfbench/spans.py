"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side: `installed()` swaps the
library's public functions for timing wrappers at the names their
callers resolve (`pipeline` imports the layer functions by name, so
`bioie.pipeline.bilstm` is wrapped, not `bioie.layers.bilstm`) and puts
the originals back on exit. A span's self time is its duration minus
the time of the spans it encloses.

Backward time is charged to the layer that was open when each tape
record was created: while installed, `make_op` (and its `layers.make_op`
alias) wraps every backward rule in a timer keyed by that layer. What
remains of `backward` outside the rules is the tape walk and gradient
buffering, reported as `autodiff.replay`.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from bioie import autodiff, layers, pipeline, textgraph, training

OTHER = "pipeline.other"

# pipeline-level name -> layer key; `inter_graph_mix` belongs to the GCN.
LAYER_FUNCTIONS = {
    "embed_sequence": "layers.embed",
    "bilstm": "layers.bilstm",
    "multi_head_attention": "layers.attention",
    "gcn_propagate": "layers.gcn",
    "inter_graph_mix": "layers.gcn",
}

GRAPH_BUILDERS = {
    "build_semantic_graph": "textgraph.semantic",
    "build_syntactic_graph": "textgraph.syntactic",
    "build_sequence_graph": "textgraph.sequence",
}


class Tracer:
    """Accumulates self time and call counts per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tape_records = 0
        self._open: list[float] = []  # child seconds of each open span
        self._layer = OTHER           # layer key charged for new tape records
        self._phase = "fwd"           # "fwd" in training, "infer" in predict

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            child = self._open.pop()
            self.self_s[name] += duration - child
            self.calls[name] += 1
            if self._open:
                self._open[-1] += duration

    def wrap(self, fn, name: str | None = None, layer: str | None = None,
             phase: str | None = None):
        """Time `fn` as span `name`, or as `<layer>.<phase>` when a layer
        is given. `layer` and `phase` stay set while `fn` runs."""

        def traced(*args, **kwargs):
            saved = self._layer, self._phase
            if layer is not None:
                self._layer = layer
            if phase is not None:
                self._phase = phase
            try:
                with self.span(name or f"{self._layer}.{self._phase}"):
                    return fn(*args, **kwargs)
            finally:
                self._layer, self._phase = saved

        return traced

    def _hook_make_op(self, make_op):
        def traced_make_op(data, parents, rule):
            key = f"{self._layer}.bwd"

            def timed_rule(g):
                start = perf_counter()
                pairs = list(rule(g))
                elapsed = perf_counter() - start
                self.self_s[key] += elapsed
                self._open[-1] += elapsed  # the enclosing backward span
                return pairs

            return make_op(data, parents, timed_rule)

        return traced_make_op

    def _hook_backward(self, backward):
        timed = self.wrap(backward, name="autodiff.replay")

        def traced_backward(loss):
            self.tape_records += autodiff.tape_size()
            return timed(loss)

        return traced_backward

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced names for the duration of the block."""
        patches = [(pipeline, fn, self.wrap(getattr(pipeline, fn), layer=key))
                   for fn, key in LAYER_FUNCTIONS.items()]
        patches += [(textgraph, fn, self.wrap(getattr(textgraph, fn), name=key))
                    for fn, key in GRAPH_BUILDERS.items()]
        patches += [
            (pipeline, "project_adjacency",
             self.wrap(pipeline.project_adjacency, name="textgraph.project")),
            (training, "model_loss",
             self.wrap(training.model_loss, layer=OTHER, phase="fwd")),
            (autodiff, "backward", self._hook_backward(autodiff.backward)),
            (autodiff, "make_op", self._hook_make_op(autodiff.make_op)),
            (layers, "make_op", self._hook_make_op(layers.make_op)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def total(self) -> float:
        return sum(self.self_s.values())

    def backward_s(self) -> float:
        """Whole `backward` time: replay plus every rule."""
        return self.self_s["autodiff.replay"] + sum(
            s for k, s in self.self_s.items() if k.endswith(".bwd"))
