#!/usr/bin/env python3
"""Run 10-fold cross-validation on the 200-instance planted-cue corpus
with `bioie cv`, printing per-fold and aggregate scores.

A depth-1 cue-lookup classifier scores 100 on this fixture; the trained
model is expected to reach an aggregate macro-F of at least 95. Exits
non-zero when it does not.

Usage: python scripts/run_separable_cv.py [--seed N] [--folds K]
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bioie.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--positives", type=int, default=100)
    parser.add_argument("--outdir", default="runs/separable_cv")
    args = parser.parse_args()
    status = cli_main([
        "cv",
        "--outdir", args.outdir,
        "--dataset", "synthetic",
        "--synth_counts", f"Size={args.positives}",
        "--seed", str(args.seed),
        "--folds", str(args.folds),
        "--epochs", "25",
        "--patience", "3",
        "--d_w", "24", "--d_p", "8", "--hidden", "16", "--heads", "4",
        "--gcn_layers", "1", "--theta", "0.9", "--window", "5",
        "--batch_size", "16", "--dropout", "0.2",
    ])
    if status:
        return status
    metrics = (Path(args.outdir) / "cv_metrics.txt").read_text()
    mean_f = float(re.search(r"^task \S+: .* F=([\d.]+)", metrics, re.M).group(1))
    return 0 if mean_f >= 95.0 else 1


if __name__ == "__main__":
    sys.exit(main())
