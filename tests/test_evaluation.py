"""Scorer pinned against an independent brute-force count on crafted fixture
pairs, plus ablation summary math."""

from pathlib import Path

import numpy as np
import pytest

from metatagger import data, evaluation

FIXTURES = Path(__file__).parent / "fixtures" / "scorer"

# (name, task, expected accuracy as exact fraction)
SCORER_PAIRS = [
    ("pair1", "xpos", (4, 4)),
    ("pair2", "xpos", (3, 4)),
    ("pair3", "feats", (2, 3)),
    ("pair4", "xpos", (4, 5)),
    ("pair5", "xpos", (2, 4)),
]


def brute_force_accuracy(gold_text, pred_text, task):
    """Independent counting: minimal line-level parse, no shared code with
    the package scorer."""
    col = {"upos": 3, "xpos": 4, "feats": 5}[task]

    def columns(text):
        out = []
        for line in text.split("\n"):
            if not line or line.startswith("#"):
                continue
            cells = line.split("\t")
            if not cells[0].isdigit():  # range or empty-node line
                continue
            value = cells[col]
            if task == "feats" and value != "_":
                value = "|".join(sorted(value.split("|")))
            out.append(value)
        return out

    g, p = columns(gold_text), columns(pred_text)
    assert len(g) == len(p)
    return sum(1 for a, b in zip(g, p) if a == b), len(g)


class TestScorerFixtures:
    @pytest.mark.parametrize("name,task,expected", SCORER_PAIRS)
    def test_pair_matches_brute_force(self, name, task, expected):
        gold_text = (FIXTURES / f"{name}_gold.conllu").read_text()
        pred_text = (FIXTURES / f"{name}_pred.conllu").read_text()
        report = evaluation.score(data.parse_conllu(gold_text),
                                  data.parse_conllu(pred_text), task)
        bf_correct, bf_total = brute_force_accuracy(gold_text, pred_text, task)
        assert (report.correct, report.total) == (bf_correct, bf_total)
        assert (report.correct, report.total) == expected

    def test_pair3_reversed_feats_is_correct(self):
        gold = data.parse_conllu((FIXTURES / "pair3_gold.conllu").read_text())
        pred = data.parse_conllu((FIXTURES / "pair3_pred.conllu").read_text())
        report = evaluation.score(gold, pred, "feats")
        # token 1: same pairs, different order in the raw files
        assert ("Case=Nom|Number=Sing", "Case=Nom|Number=Sing") \
            in report.confusion


def tiny_gold():
    text = ("1\ta\ta\tX\tA\t_\t0\t_\t_\t_\n"
            "2\tb\tb\tX\tB\t_\t0\t_\t_\t_\n\n"
            "1\tc\tc\tX\tC\t_\t0\t_\t_\t_\n")
    return data.parse_conllu(text)


def tagged(sentences, tags, task="xpos"):
    """``sentences`` as a file tagged with ``tags`` reads back."""
    return data.parse_conllu(data.write_conllu(sentences, tags, task), task)


class TestScoreSemantics:
    def test_gold_vs_gold_is_one(self):
        gold = tiny_gold()
        assert evaluation.score(gold, gold, "xpos").accuracy == 1.0

    def test_sentence_order_agnostic_counting(self):
        gold = tiny_gold()
        fwd = evaluation.score(gold, tagged(gold, [["A", "X"], ["C"]]),
                               "xpos")
        rev = evaluation.score(gold[::-1],
                               tagged(gold[::-1], [["C"], ["A", "X"]]),
                               "xpos")
        assert fwd.accuracy == rev.accuracy == 2 / 3

    def test_sentence_count_mismatch(self):
        gold = tiny_gold()
        with pytest.raises(evaluation.AlignmentError):
            evaluation.score(gold, tagged(gold[:1], [["A", "B"]]), "xpos")

    def test_token_count_mismatch(self):
        gold = tiny_gold()
        with pytest.raises(evaluation.AlignmentError, match="sentence 1"):
            evaluation.score(gold, tagged(gold[::-1], [["A"], ["C", "B"]]),
                             "xpos")

    def test_report_lines_render(self):
        gold = tiny_gold()
        report = evaluation.score(gold, tagged(gold, [["A", "A"], ["C"]]),
                                  "xpos")
        text = "\n".join(report.lines())
        assert "accuracy: 0.6667" in text
        assert "B -> A" in text


class TestAblationMath:
    def test_mean_stdev_basic(self):
        m, sd = evaluation.mean_stdev([1.0, 2.0, 3.0])
        assert m == 2.0
        assert abs(sd - 1.0) < 1e-12

    def test_single_value_stdev_zero(self):
        m, sd = evaluation.mean_stdev([0.7])
        assert (m, sd) == (0.7, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluation.mean_stdev([])
        with pytest.raises(ValueError):
            evaluation.render_table({"a": [0.5], "b": []})

    def test_report_rows(self):
        table = evaluation.render_table({"char-only": [0.9, 0.92],
                                         "word-only": [0.8],
                                         "meta": [0.7, 0.8, 0.9]})
        assert table.split("\n") == [
            "config     seeds    mean   stdev",
            "char-only      2   91.00    1.41",
            "word-only      1   80.00    0.00",
            "meta           3   80.00   10.00"]

    def test_csv_row_count_and_shape(self):
        csv = evaluation.render_csv({"a": [0.5, 0.6], "b": [0.7]}, "xpos")
        assert csv == ("config,seed,task,accuracy\n"
                       "a,0,xpos,0.500000\n"
                       "a,1,xpos,0.600000\n"
                       "b,0,xpos,0.700000\n")

    def test_short_labels_keep_the_header_aligned(self):
        table = evaluation.render_table({"char": [0.9, 0.92],
                                         "word": [0.8]})
        assert table.split("\n") == [
            "config  seeds    mean   stdev",
            "char        2   91.00    1.41",
            "word        1   80.00    0.00"]

    def test_table_renders(self):
        table = evaluation.render_table({"meta": [0.95, 0.97]})
        assert "meta" in table and "96.00" in table


class TestPairedT:
    def test_hand_computed_case(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [0.0, 1.0, 1.0, 2.0]
        t, p = evaluation.paired_t(xs, ys)
        # diffs [1,1,2,2]: mean 1.5, sd sqrt(1/3), t = 1.5/(sd/2) = 3*sqrt(3)
        assert abs(t - 3 * np.sqrt(3)) < 1e-9
        assert 0.012 < p < 0.015

    def test_antisymmetric(self):
        xs = [0.5, 0.6, 0.9]
        ys = [0.4, 0.7, 0.5]
        t1, p1 = evaluation.paired_t(xs, ys)
        t2, p2 = evaluation.paired_t(ys, xs)
        assert abs(t1 + t2) < 1e-12
        assert abs(p1 - p2) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluation.paired_t([1, 2], [1])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            evaluation.paired_t([1], [2])

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="differences that vary"):
            evaluation.paired_t([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for df in range(1, 61):
            xs = rng.normal(size=df + 1)
            ys = xs + rng.normal(0.3, 1.0, size=df + 1)
            t, p = evaluation.paired_t(xs, ys)
            want = stats.ttest_rel(xs, ys)
            assert abs(t - want.statistic) <= 1e-12 * abs(t), df
            assert abs(p - want.pvalue) <= 1e-13, df
