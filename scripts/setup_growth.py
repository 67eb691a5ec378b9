#!/usr/bin/env python3
"""Set-up cost as the corpus grows: the benchmark's `train_long`
configuration set up once at each of several report counts.

Usage, from the repository root:

    python3 scripts/setup_growth.py [--tree DIR]

It sets up 400, 1,600 and 6,400 reports, generated with seed 3. Each
size runs in a fresh subprocess that imports `bioie` from the
`src/` of `--tree` (default: this checkout) and generates its reports
with that tree's `perfbench/worker.py`, with BLAS on one thread. So each
size's peak memory is its own, and another checkout, for example one
made with `git archive`, is measured by the same script.

For each size it prints the seconds of each set-up phase (normalizing
the corpus with its vocabulary and embeddings, building the three
graphs, encoding the task instances with their projected adjacency, and
initializing the model), the adjacency held per encoded document, and
the process's peak resident memory after set-up (`ru_maxrss`). The
held adjacency is the bytes of every distinct array that a document's
per-kind adjacency objects hold, apart from the corpus pair table that
all documents share.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
SIZES = (400, 1600, 6400)
SEED = 3
PHASES = ("prepare", "graphs", "encode", "model")


def held_bytes(adjacency: dict, shared) -> int:
    """Bytes of the distinct arrays held by one document's adjacency,
    apart from `shared`, the corpus pair table's weights. The tier-1
    guard on held adjacency (`tests/test_pipeline.py`) uses this same
    measure."""
    import numpy as np
    arrays = {}
    for adj in adjacency.values():
        for a in (getattr(adj, f.name) for f in fields(adj)):
            if isinstance(a, np.ndarray) and a is not shared:
                arrays[id(a)] = a
    return sum(a.nbytes for a in arrays.values())


def measure(tree: Path, reports: int) -> dict:
    """Set `train_long` up at `reports` reports; runs in the child."""
    sys.path.insert(0, str(tree / "perfbench"))
    import worker as bench
    from bioie import corpus, pipeline, textgraph

    wl = replace(bench.WORKLOADS["train_long"], reports=reports)
    docs, instances = bench.generate(wl, SEED)
    cfg = wl.config()
    stamps = [perf_counter()]
    docs, instances = corpus.normalize_corpus(docs, instances)
    vocab = corpus.build_vocabulary(docs)
    embeddings = corpus.random_embeddings(vocab, cfg.d_w, seed=SEED)
    stamps.append(perf_counter())
    graphs = textgraph.build_corpus_graphs(docs, embeddings, vocab,
                                           theta=wl.theta, window=wl.window)
    stamps.append(perf_counter())
    task = [inst for inst in instances if inst.task == bench.TASK]
    encoded = pipeline.encode_instances(task, {d.id: d for d in docs}, vocab,
                                        graphs, cfg)
    stamps.append(perf_counter())
    pipeline.init_model(cfg, vocab, embeddings, seed=SEED,
                        label_set=task[0].label_set)
    stamps.append(perf_counter())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shared = graphs.pair_table[1]
    encodings = {id(e.doc): e.doc for e in encoded}.values()
    held = [held_bytes(doc.adjacency, shared) for doc in encodings]
    return {"reports": reports, "documents": len(held),
            "seconds": dict(zip(PHASES, (b - a for a, b in zip(stamps, stamps[1:])))),
            "held_per_doc_kib": sum(held) / len(held) / 1024,
            "held_total_mib": sum(held) / (1 << 20),
            "peak_rss_mb": rss_mb}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=HERE)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    tree = args.tree.resolve()
    if args.one is not None:
        print(json.dumps(measure(tree, args.one)))
        return 0
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    print("reports  documents  " + "  ".join(f"{p:>8}" for p in PHASES)
          + "  set-up s  held KiB/doc  held MiB  peak RSS MB")
    for size in SIZES:
        out = subprocess.run([sys.executable, __file__, "--one", str(size),
                              "--tree", str(tree)],
                             cwd=tree, env=env, check=True, capture_output=True,
                             text=True)
        r = json.loads(out.stdout.splitlines()[-1])
        seconds = r["seconds"]
        print(f"{r['reports']:7d}  {r['documents']:9d}  "
              + "  ".join(f"{seconds[p]:8.3f}" for p in PHASES)
              + f"  {sum(seconds.values()):8.3f}  {r['held_per_doc_kib']:12.2f}"
              f"  {r['held_total_mib']:8.2f}  {r['peak_rss_mb']:11.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
