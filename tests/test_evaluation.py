"""Metric arithmetic, bootstrap intervals, and table formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bioie.evaluation import (
    EvalReport,
    bootstrap_ci,
    confusion_counts,
    evaluate_outcomes,
    harmonic_f,
    machine_lines,
    macro_prf,
    report_table,
)

LABELS3 = ("null", "A", "B")


# Reference implementations: one outcome, and one resample, at a time.

def oracle_confusion_counts(predictions, gold, c):
    """tp, fp, fn lists tallied outcome by outcome."""
    tp, fp, fn = [0] * c, [0] * c, [0] * c
    for p, g in zip(predictions, gold):
        if p == g:
            tp[p] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    return np.array(tp), np.array(fp), np.array(fn)


def oracle_prf(predictions, gold, label_set):
    """Per-class (P, R, F) dict and macro (P, R, F), class by class, with
    class 0 left out of the macro averages."""
    tps, fps, fns = oracle_confusion_counts(predictions, gold, len(label_set))
    per_class, evaluated_p, evaluated_r = {}, [], []
    for idx, name in enumerate(label_set):
        tp, fp, fn = tps[idx], fps[idx], fns[idx]
        p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        per_class[name] = (p, r, harmonic_f(p, r))
        if idx != 0:
            evaluated_p.append(p)
            evaluated_r.append(r)
    macro_p = float(np.mean(evaluated_p)) if evaluated_p else 0.0
    macro_r = float(np.mean(evaluated_r)) if evaluated_r else 0.0
    return per_class, (macro_p, macro_r, harmonic_f(macro_p, macro_r))


def oracle_bootstrap_ci(predictions, gold, label_set, resamples, seed):
    """Re-score each resample's outcome list through a macro-F callback."""
    def macro_f(sample):
        return oracle_prf([p for p, _ in sample], [g for _, g in sample],
                          label_set)[1][2]

    outcomes = list(zip(predictions, gold))
    rng = np.random.default_rng(seed)
    values = np.empty(resamples)
    n = len(outcomes)
    for r in range(resamples):
        idx = rng.integers(0, n, size=n)
        values[r] = macro_f([outcomes[i] for i in idx])
    return (float(np.percentile(values, 2.5)),
            float(np.percentile(values, 97.5)))


@st.composite
def outcome_sets(draw, min_size=0, max_size=400):
    """(predictions, gold, label_set) over 2-6 classes; labels are drawn
    from a random subset of the classes so some classes go unseen."""
    c = draw(st.integers(2, 6))
    used = draw(st.lists(st.integers(0, c - 1), min_size=1, unique=True))
    n = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    preds = rng.choice(used, size=n).tolist()
    # Gold agrees with the prediction about half the time.
    gold = np.where(rng.random(n) < 0.5, preds, rng.choice(used, size=n)).tolist()
    return preds, gold, tuple(f"c{i}" for i in range(c))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestConfusionCounts:
    def test_perfect_predictions(self):
        counts = confusion_counts([0, 1, 2, 1], [0, 1, 2, 1], LABELS3)
        assert counts.fp.sum() == 0 and counts.fn.sum() == 0
        assert counts.tp.tolist() == [1, 2, 1]

    def test_all_null_on_positive_gold(self):
        counts = confusion_counts([0] * 4, [1, 1, 2, 2], LABELS3)
        assert counts.tp[1] == 0 and counts.tp[2] == 0
        assert counts.fn[1] == 2 and counts.fn[2] == 2

    def test_three_class_brute_force_tally(self):
        preds = [0, 1, 1, 2, 2, 0, 1]
        gold = [0, 1, 2, 2, 1, 1, 1]
        counts = confusion_counts(preds, gold, LABELS3)
        tp, fp, fn = oracle_confusion_counts(preds, gold, 3)
        assert counts.tp.tolist() == tp.tolist()
        assert counts.fp.tolist() == fp.tolist()
        assert counts.fn.tolist() == fn.tolist()
        assert counts.n == 7

    @given(outcome_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_outcome_oracle_bitwise(self, case):
        preds, gold, labels = case
        counts = confusion_counts(preds, gold, labels)
        for got, want in zip((counts.tp, counts.fp, counts.fn),
                             oracle_confusion_counts(preds, gold, len(labels))):
            assert got.tolist() == want.tolist()
        report = evaluate_outcomes(preds, gold, labels)
        per_class, macro = oracle_prf(preds, gold, labels)
        assert list(report.per_class) == list(per_class)
        for name, prf in per_class.items():
            assert bits(report.per_class[name]) == bits(prf)
        assert bits((report.macro_p, report.macro_r, report.macro_f)) == bits(macro)
        assert report.n == len(preds)

    def test_label_outside_set(self):
        with pytest.raises(ValueError):
            confusion_counts([3], [0], LABELS3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts([0, 1], [0], LABELS3)


class TestMacroPrf:
    def test_single_true_positive(self):
        report = evaluate_outcomes([1], [1], ("null", "A"))
        assert report.macro_p == 100.0
        assert report.macro_r == 100.0
        assert report.macro_f == 100.0

    def test_published_f_from_p_r_pathology(self):
        assert abs(harmonic_f(86.9, 83.7) - 85.3) <= 0.05

    def test_published_f_from_p_r_chemical_disease(self):
        assert abs(harmonic_f(61.5, 72.3) - 66.4) <= 0.15

    def test_zero_division_guard(self):
        counts = confusion_counts([0, 0], [1, 1], ("null", "A"))
        report = macro_prf(counts)
        assert report.macro_p == 0.0
        assert report.macro_r == 0.0
        assert report.macro_f == 0.0

    def test_null_class_excluded_from_macro(self):
        # null predicted perfectly, class A never found: macro must be 0
        report = evaluate_outcomes([0, 0, 0], [0, 0, 1], ("null", "A"))
        assert report.macro_f == 0.0
        assert report.per_class["null"][0] > 0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, 60)
        gold = rng.integers(0, 3, 60)
        a = evaluate_outcomes(preds, gold, LABELS3)
        perm = rng.permutation(60)
        b = evaluate_outcomes(preds[perm], gold[perm], LABELS3)
        assert a == b

    @given(st.floats(0.1, 100), st.floats(0.1, 100))
    @settings(max_examples=80, deadline=None)
    def test_f_between_min_and_max(self, p, r):
        f = harmonic_f(p, r)
        assert min(p, r) - 1e-9 <= f <= max(p, r) + 1e-9

    def test_f_symmetric(self):
        assert harmonic_f(30.0, 70.0) == harmonic_f(70.0, 30.0)


class TestBootstrapCi:
    def test_degenerate_identical_outcomes(self):
        lo, hi = bootstrap_ci([1] * 20, [1] * 20, ("null", "A"),
                              resamples=200, seed=0)
        assert lo == hi == 100.0

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(1)
        preds, gold = rng.integers(0, 2, 100), rng.integers(0, 2, 100)
        a = bootstrap_ci(preds, gold, ("null", "A"), seed=7)
        b = bootstrap_ci(preds, gold, ("null", "A"), seed=7)
        assert a == b

    def test_interval_contains_point_estimate(self):
        rng = np.random.default_rng(2)
        preds = [int(rng.random() < 0.7) for _ in range(200)]
        gold = [1] * 200
        labels = ("null", "A")
        lo, hi = bootstrap_ci(preds, gold, labels, resamples=1000, seed=3)
        point = evaluate_outcomes(preds, gold, labels).macro_f
        assert lo <= point <= hi
        # direct enumeration with the same generator reproduces the interval
        assert (lo, hi) == oracle_bootstrap_ci(preds, gold, labels, 1000, 3)

    @given(outcome_sets(min_size=1, max_size=60), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_callback_oracle(self, case, seed):
        preds, gold, labels = case
        assert (bootstrap_ci(preds, gold, labels, resamples=60, seed=seed)
                == oracle_bootstrap_ci(preds, gold, labels, 60, seed))

    def test_empty_outcomes(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], [], LABELS3)

    def test_malformed_outcomes(self):
        with pytest.raises(ValueError, match="outside label set"):
            bootstrap_ci([0, 3], [0, 1], LABELS3)
        with pytest.raises(ValueError, match="gold labels"):
            bootstrap_ci([0, 1], [0], LABELS3)


def _report(f=50.0):
    return EvalReport({"A": (f, f, f)}, f, f, f, n=10)


class TestReportTable:
    def test_single_row(self):
        table = report_table([("model", _report())])
        assert len(table.splitlines()) == 2
        assert "50.0" in table

    def test_identical_reports_identical_rows(self):
        table = report_table([("a", _report()), ("b", _report())])
        rows = table.splitlines()[1:]
        assert rows[0].split()[1:] == rows[1].split()[1:]

    def test_ablation_suite_has_seven_rows_in_order(self):
        from bioie.pipeline import ABLATION_VARIANTS
        rows = [(v, _report(float(i))) for i, v in enumerate(ABLATION_VARIANTS)]
        lines = report_table(rows).splitlines()[1:]
        assert len(lines) == 7
        assert [line.split()[0] for line in lines] == list(ABLATION_VARIANTS)

    def test_machine_lines_format(self):
        report = _report()
        report.ci["macro"] = (40.0, 60.0)
        lines = machine_lines(report)
        assert lines[-1] == "macro\t50.0\t50.0\t50.0\t40.0\t60.0"
        assert all(len(line.split("\t")) == 6 for line in lines)
