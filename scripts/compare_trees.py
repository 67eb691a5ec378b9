#!/usr/bin/env python3
"""Byte-compare the outputs of two source trees on one fixed matrix of
seeded runs.

Usage, from the repository root:

    python3 scripts/compare_trees.py PARENT_DIR [--workdir DIR]

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
"""

import argparse
import contextlib
import hashlib
import io
import os
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


def run_tree(tree: Path, workdir: Path) -> float:
    """Run the matrix for `tree` in a fresh `workdir`; its wall seconds."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BIOIE_SEED", None)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--run-matrix", str(tree)], cwd=workdir, env=env, check=True)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="the other source tree")
    parser.add_argument("--workdir", help="keep the run directories here")
    parser.add_argument("--run-matrix", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_matrix:
        return run_matrix(Path(args.run_matrix).resolve())
    if not args.parent:
        parser.error("PARENT_DIR is required")
    parent = Path(args.parent).resolve()
    if not (parent / "src" / "bioie").is_dir():
        parser.error(f"{parent} holds no src/bioie")
    if args.workdir:
        workdir = Path(args.workdir).resolve()
        if workdir.exists() and any(workdir.iterdir()):
            parser.error(f"{workdir} is not empty")
        return compare(parent, workdir)
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        return compare(parent, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
