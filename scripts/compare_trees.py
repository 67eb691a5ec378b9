#!/usr/bin/env python3
"""Byte-compare the outputs of two source trees on one fixed matrix of
seeded runs.

Usage, from the repository root:

    python3 scripts/compare_trees.py PARENT_DIR [--workdir DIR]
    python3 scripts/compare_trees.py PARENT_DIR --ab ROUNDS

PARENT_DIR is another checkout of this repository, for example one made
with `git archive`. Each tree runs the whole matrix below once, in a
subprocess of its own that imports `bioie` from that tree's `src/`, with
BLAS pinned to one thread. Both start from the same empty directory
layout and use relative paths, so every output, `resolved.cfg` included,
should be byte-identical. The synthetic corpora are written by each
tree's own `bioie synth`, and are compared too.

The script prints every output file's sha256 for both trees, names the
first file that differs, in matrix order, and exits 1 when any file
differs or exists in one tree only, 0 otherwise. With `--workdir` the
run directories are kept there; otherwise they go in a temporary
directory that is removed at the end.

With `--ab ROUNDS` it times the two trees instead. For each workload of
`perfbench/run.py`, each tree sets the workload up once, in a subprocess
of its own that runs its own tree's `perfbench/worker.py` set-up, with
BLAS on one thread. Then ROUNDS rounds alternate between the trees,
the parent first in odd rounds: a round is one training epoch and one
eval pass (`pipeline.predict` in 64-instance chunks) over the
workload's training sample, then one more set-up of the workload from
the same generated reports, timed and discarded. Each round also
reports its process's peak resident memory so far (`ru_maxrss`). The
script prints each round's change/parent time ratios, each side's
median seconds, the median ratio and how many rounds each side was
faster, per phase, each tree's final peak resident memory per
workload, and whether the two trees' epoch losses were equal in every
round. The trees train from the same seed, so equal code gives equal
losses.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

SMALL = ["--d_w", "24", "--d_p", "8", "--hidden", "16", "--heads", "4",
         "--gcn_layers", "1", "--window", "5", "--dropout", "0.2",
         "--batch_size", "16"]
ALL_KINDS = "Type=24,Site=24,Size=24,Subtype=24,Grade=24,TNM=24,Metas=24"
SHORT, SHORT_B, LONG = ("corpora/short/records.jsonl",
                        "corpora/short_b/records.jsonl",
                        "corpora/all_kinds/records.jsonl")
ON_LONG = ["--data", LONG, "--task", "pathology:Size"]

# (output directory, CLI arguments), run in this order. The short
# reports carry one kind and about 35 tokens; the all-kinds reports
# about 100, where the default model's batches of 8 and its eval chunks
# reach the branch worker thread on two CPUs.
MATRIX = [
    ("corpora/short", ["synth", "--synth_counts", "Size=40", "--seed", "1"]),
    ("corpora/short_b", ["synth", "--synth_counts", "Size=40", "--seed", "2",
                         "--synth_style", "b"]),
    ("corpora/all_kinds", ["synth", "--synth_counts", ALL_KINDS, "--seed", "3"]),
    ("small", ["train", "--data", SHORT, "--epochs", "3", *SMALL]),
    ("small_eval", ["eval", "--data", SHORT, "--checkpoint", "small/model.ckpt"]),
    ("small_predict", ["predict", "--data", SHORT,
                       "--checkpoint", "small/model.ckpt"]),
    ("small_b2", ["train", "--data", SHORT, "--epochs", "2", *SMALL,
                  "--batch_size", "2"]),
    ("default_b1", ["train", "--data", SHORT, "--epochs", "1",
                    "--batch_size", "1"]),
    ("default_all_kinds", ["train", *ON_LONG, "--epochs", "2"]),
    ("default_eval", ["eval", *ON_LONG,
                      "--checkpoint", "default_all_kinds/model.ckpt"]),
    ("default_predict", ["predict", *ON_LONG,
                         "--checkpoint", "default_all_kinds/model.ckpt"]),
    ("cv", ["cv", "--data", SHORT, "--folds", "3", "--epochs", "2", *SMALL]),
    ("ablate", ["ablate", "--data", SHORT, "--epochs", "2", *SMALL]),
    ("transfer", ["transfer", "--data", SHORT, "--target_data", SHORT_B,
                  "--freeze", "lstm.,embed.", "--epochs", "2", *SMALL]),
]


def run_matrix(tree: Path) -> int:
    """Run every step in the current directory with `bioie` from `tree`;
    each step's stdout goes to `stdout.txt` in its output directory."""
    import bioie
    from bioie.cli import main

    if Path(bioie.__file__).resolve().parent != tree / "src" / "bioie":
        print(f"bioie imported from {bioie.__file__}, not from {tree}",
              file=sys.stderr)
        return 2
    for outdir, args in MATRIX:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*args, "--outdir", outdir])
        Path(outdir, "stdout.txt").write_text(buf.getvalue())
        if code:
            print(f"step {outdir} exited with {code}", file=sys.stderr)
            return code
    return 0


def tree_env(tree: Path) -> dict:
    """The environment of a subprocess that imports `bioie` from `tree`,
    with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BIOIE_SEED", None)
    return env


def run_tree(tree: Path, workdir: Path) -> float:
    """Run the matrix for `tree` in a fresh `workdir`; its wall seconds."""
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--run-matrix", str(tree)], cwd=workdir, env=tree_env(tree),
                   check=True)
    return time.perf_counter() - start


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by relative path in
    matrix order, then by name."""
    out = {}
    for outdir, _ in MATRIX:
        for path in sorted(Path(root, outdir).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def compare(parent: Path, workdir: Path) -> int:
    seconds = {}
    for tag, tree in (("parent", parent), ("change", HERE)):
        seconds[tag] = run_tree(tree, workdir / tag)
    ours, theirs = digests(workdir / "change"), digests(workdir / "parent")
    names = list(theirs) + [n for n in ours if n not in theirs]
    first = None
    for name in names:
        a, b = theirs.get(name, "-" * 64), ours.get(name, "-" * 64)
        same = a == b
        if not same and first is None:
            first = name
        print(f"{'same' if same else 'DIFF'}  {a[:16]}  {b[:16]}  {name}")
    print(f"{len(names)} files; parent {seconds['parent']:.1f} s, "
          f"change {seconds['change']:.1f} s")
    if first is None:
        print("every file is byte-identical")
        return 0
    print(f"first file that differs: {first}")
    return 1


# The workloads of `perfbench/run.py`, timed with its seed default.
AB_WORKLOADS = ("train_small", "train_long")
AB_SEED = 1
AB_PHASES = ("train", "eval", "setup")


def ab_rounds(tree: Path, workload: str) -> int:
    """Set `workload` up with `tree`'s own benchmark code, then run one
    round per line read from stdin and print its times as JSON. Every
    set-up uses `tree`'s own `perfbench/worker.py`."""
    sys.path.insert(0, str(tree / "perfbench"))
    import worker as bench
    from bioie import pipeline, training

    wl = bench.WORKLOADS[workload]
    docs, instances = bench.generate(wl, AB_SEED)
    s = bench.set_up(wl, docs, instances, AB_SEED)
    train_set, model = bench.train_sample(wl, s.encoded, AB_SEED), s.model
    del s
    optimizer = training.make_optimizer(model, bench.LR)
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        loss = training.train_epoch(model, train_set, optimizer, model.rng,
                                    wl.batch_size)
        t1 = time.perf_counter()
        for lo in range(0, len(train_set), 64):
            pipeline.predict(model, train_set[lo:lo + 64])
        t2 = time.perf_counter()
        bench.set_up(wl, docs, instances, AB_SEED)
        t3 = time.perf_counter()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"train": t1 - t0, "eval": t2 - t1, "setup": t3 - t2,
                          "loss": loss, "rss_mb": rss_mb}), flush=True)
    return 0


def ab(parent: Path, rounds: int) -> int:
    trees = {"parent": parent, "change": HERE}
    equal = True
    for workload in AB_WORKLOADS:
        procs = {tag: subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--ab-rounds",
             str(tree), workload], cwd=tree, env=tree_env(tree),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for tag, tree in trees.items()}
        try:
            for tag, proc in procs.items():
                if proc.stdout.readline().strip() != "ready":
                    print(f"{tag}: {workload} set-up failed", file=sys.stderr)
                    return 2
            times = {tag: [] for tag in trees}
            for r in range(rounds):
                for tag in ("parent", "change")[::1 if r % 2 == 0 else -1]:
                    procs[tag].stdin.write("round\n")
                    procs[tag].stdin.flush()
                    line = procs[tag].stdout.readline()
                    if not line:
                        print(f"{tag}: {workload} round {r + 1} failed",
                              file=sys.stderr)
                        return 2
                    times[tag].append(json.loads(line))
                mine, theirs = times["change"][-1], times["parent"][-1]
                equal &= mine["loss"] == theirs["loss"]
                print(f"{workload} round {r + 1}: change/parent " + ", ".join(
                    f"{phase} {mine[phase] / theirs[phase]:.3f}"
                    for phase in AB_PHASES), flush=True)
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()
        mid = statistics.median
        for phase in AB_PHASES:
            parent_s = [t[phase] for t in times["parent"]]
            change_s = [t[phase] for t in times["change"]]
            ratios = [c / p for c, p in zip(change_s, parent_s)]
            wins = sum(c < p for c, p in zip(change_s, parent_s))
            print(f"{workload} {phase}: median parent {mid(parent_s):.4f} s, "
                  f"change {mid(change_s):.4f} s; median ratio {mid(ratios):.3f}; "
                  f"change faster in {wins} of {rounds}, parent in {rounds - wins}")
        parent_mb, change_mb = (times[tag][-1]["rss_mb"] for tag in trees)
        print(f"{workload} peak RSS: parent {parent_mb:.1f} MB, change "
              f"{change_mb:.1f} MB; ratio {change_mb / parent_mb:.3f}")
    print("epoch losses equal in every round" if equal
          else "epoch losses DIFFER between the trees")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="the other source tree")
    parser.add_argument("--workdir", help="keep the run directories here")
    parser.add_argument("--ab", type=int, metavar="ROUNDS",
                        help="time the trees in ROUNDS alternating rounds")
    parser.add_argument("--run-matrix", metavar="TREE", help=argparse.SUPPRESS)
    parser.add_argument("--ab-rounds", nargs=2, metavar=("TREE", "WORKLOAD"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_matrix:
        return run_matrix(Path(args.run_matrix).resolve())
    if args.ab_rounds:
        return ab_rounds(Path(args.ab_rounds[0]).resolve(), args.ab_rounds[1])
    if not args.parent:
        parser.error("PARENT_DIR is required")
    parent = Path(args.parent).resolve()
    if not (parent / "src" / "bioie").is_dir():
        parser.error(f"{parent} holds no src/bioie")
    if args.ab is not None:
        if args.ab < 1:
            parser.error("--ab needs at least one round")
        return ab(parent, args.ab)
    if args.workdir:
        workdir = Path(args.workdir).resolve()
        if workdir.exists() and any(workdir.iterdir()):
            parser.error(f"{workdir} is not empty")
        return compare(parent, workdir)
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        return compare(parent, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
