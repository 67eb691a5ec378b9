"""Confusion accounting, macro precision/recall/F, percentile-bootstrap
confidence intervals, and comparison-table formatting.

Every score comes from the (gold, prediction) confusion matrix of c
classes, `np.bincount(gold * c + prediction, minlength=c * c)`. `_scores`
takes tallies of any leading shape, so one evaluation and a stack of
bootstrap resamples are scored by the same array code.

All scores are percents. Class 0, the negative class of every task's
label set, is excluded from macro averaging; zero denominators yield
zero rather than NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfusionCounts",
    "EvalReport",
    "confusion_counts",
    "macro_prf",
    "evaluate_outcomes",
    "harmonic_f",
    "bootstrap_ci",
    "report_table",
    "machine_lines",
]


def harmonic_f(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


@dataclass
class ConfusionCounts:
    label_set: tuple[str, ...]
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    n: int = 0


@dataclass
class EvalReport:
    per_class: dict[str, tuple[float, float, float]]
    macro_p: float
    macro_r: float
    macro_f: float
    n: int
    ci: dict[str, tuple[float, float]] = field(default_factory=dict)


def _outcome_codes(predictions, gold, label_set) -> tuple[np.ndarray, int]:
    """Each outcome's confusion-matrix cell `gold * c + prediction`, once
    the two sequences are checked to pair up inside the label set."""
    preds = np.asarray(predictions, dtype=np.int64)
    golds = np.asarray(gold, dtype=np.int64)
    if preds.shape != golds.shape:
        raise ValueError(
            f"{preds.shape[0]} predictions but {golds.shape[0]} gold labels")
    c = len(label_set)
    for arr, what in ((preds, "prediction"), (golds, "gold label")):
        if arr.size and (arr.min() < 0 or arr.max() >= c):
            raise ValueError(f"{what} outside label set of size {c}")
    return golds * c + preds, c


def _tally(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tp, fp, fn (..., c) of confusion matrices (..., c, c) [gold, pred]."""
    tp = np.diagonal(matrix, axis1=-2, axis2=-1)
    return tp, matrix.sum(axis=-2) - tp, matrix.sum(axis=-1) - tp


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def _scores(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray):
    """Per-class P, R, F (..., c) and macro P, R, F (...) in percent from
    (..., c) tallies. Macro P and R average classes 1..c-1; macro F is
    their harmonic mean."""
    p = _ratio(100.0 * tp, tp + fp)
    r = _ratio(100.0 * tp, tp + fn)
    evaluated = max(1, tp.shape[-1] - 1)
    macro_p = p[..., 1:].sum(axis=-1) / evaluated
    macro_r = r[..., 1:].sum(axis=-1) / evaluated
    return ((p, r, _ratio(2.0 * p * r, p + r)),
            (macro_p, macro_r, _ratio(2.0 * macro_p * macro_r, macro_p + macro_r)))


def confusion_counts(predictions, gold, label_set) -> ConfusionCounts:
    """Per-class true/false positive and false negative tallies."""
    codes, c = _outcome_codes(predictions, gold, label_set)
    matrix = np.bincount(codes, minlength=c * c).reshape(c, c)
    return ConfusionCounts(tuple(label_set), *_tally(matrix), int(codes.size))


def macro_prf(counts: ConfusionCounts) -> EvalReport:
    """Per-class and macro precision/recall/F in percent."""
    (p, r, f), macro = _scores(counts.tp, counts.fp, counts.fn)
    per_class = dict(zip(counts.label_set,
                         zip(p.tolist(), r.tolist(), f.tolist())))
    return EvalReport(per_class, *(float(v) for v in macro), counts.n)


def evaluate_outcomes(predictions, gold, label_set) -> EvalReport:
    return macro_prf(confusion_counts(predictions, gold, label_set))


def bootstrap_ci(predictions, gold, label_set, resamples: int = 1000,
                 seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap 95% interval of the macro F. Each resample
    draws its n outcomes with its own `rng.integers(0, n, size=n)` call;
    the resamples' confusion matrices are then scored at once."""
    codes, c = _outcome_codes(predictions, gold, label_set)
    n = codes.size
    if not n:
        raise ValueError("bootstrap_ci: no outcomes")
    rng = np.random.default_rng(seed)
    matrices = np.stack([
        np.bincount(codes[rng.integers(0, n, size=n)], minlength=c * c)
        for _ in range(resamples)]).reshape(resamples, c, c)
    _, (_, _, macro_f) = _scores(*_tally(matrices))
    return (float(np.percentile(macro_f, 2.5)),
            float(np.percentile(macro_f, 97.5)))


def report_table(rows: list[tuple[str, EvalReport]],
                 title: str = "") -> str:
    """Aligned text table with one-decimal percent values, deterministic
    for identical inputs."""
    header = ["model", "P(%)", "R(%)", "F(%)", "n"]
    body = [
        [name, f"{rep.macro_p:.1f}", f"{rep.macro_r:.1f}", f"{rep.macro_f:.1f}",
         str(rep.n)]
        for name, rep in rows
    ]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def machine_lines(report: EvalReport) -> list[str]:
    """One tab-separated line per class plus a macro line:
    class, P, R, F, CI_low, CI_high (blank CI fields when absent)."""
    def line(name, p, r, f):
        ci = report.ci.get(name, ("", ""))
        ci_s = "\t".join(f"{x:.1f}" if x != "" else "" for x in ci)
        return f"{name}\t{p:.1f}\t{r:.1f}\t{f:.1f}\t{ci_s}"

    return ([line(name, *prf) for name, prf in report.per_class.items()]
            + [line("macro", report.macro_p, report.macro_r, report.macro_f)])
