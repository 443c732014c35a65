"""Tagging accuracy under gold segmentation, plus ablation summaries.

With segmentation fixed, the shared-task aligned F1 collapses to plain
token accuracy, so this scorer reports accuracy and calls it that. Tag
strings compare as given: FEATS bundles are put in canonical pair order
once, when ``data.parse_conllu`` reads them. Training's dev evaluation
counts tag ids instead (``training.evaluate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Sentence


class AlignmentError(ValueError):
    """Gold and predicted corpora do not share the same segmentation."""


@dataclass
class EvalReport:
    task: str
    total: int
    correct: int
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def lines(self) -> list[str]:
        out = [f"task: {self.task}",
               f"tokens: {self.total}",
               f"correct: {self.correct}",
               f"accuracy: {self.accuracy:.4f}"]
        errors = sorted(((n, g, p) for (g, p), n in self.confusion.items()
                         if g != p), reverse=True)
        if errors:
            out.append("top errors (count gold -> predicted):")
            for n, g, p in errors[:10]:
                out.append(f"  {n}  {g} -> {p}")
        return out


def score(gold_sentences: list[Sentence], predictions, task: str) -> EvalReport:
    """Token accuracy of predictions, the Sentences of a tagged file,
    against gold, exact string match on the task column."""
    if len(gold_sentences) != len(predictions):
        raise AlignmentError(
            f"{len(gold_sentences)} gold sentences vs {len(predictions)} "
            f"predicted")
    total = correct = 0
    confusion: dict[tuple[str, str], int] = {}
    for i, (g_sent, p_sent) in enumerate(zip(gold_sentences, predictions)):
        g_tags = g_sent.gold_tags(task)
        p_tags = p_sent.gold_tags(task)
        if len(g_tags) != len(p_tags):
            raise AlignmentError(
                f"sentence {i + 1}: {len(g_tags)} gold tokens vs "
                f"{len(p_tags)} predicted (segmentation must match)")
        for g, p in zip(g_tags, p_tags):
            total += 1
            if g == p:
                correct += 1
            confusion[(g, p)] = confusion.get((g, p), 0) + 1
    return EvalReport(task=task, total=total, correct=correct,
                      confusion=confusion)


# ---------------------------------------------------------------------------
# ablation summaries

def mean_stdev(values) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1); a single value has stdev 0."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values to summarize")
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def render_table(results: dict[str, list[float]]) -> str:
    """Seeds, mean and stdev in points of each label of ``results``."""
    width = max(len(config) for config in ["config", *results])
    lines = [f"{'config'.ljust(width)}  seeds    mean   stdev"]
    for config, values in results.items():
        mean, sd = mean_stdev(values)
        lines.append(f"{config.ljust(width)}  {len(values):5d}  "
                     f"{100 * mean:6.2f}  {100 * sd:6.2f}")
    return "\n".join(lines)


def render_csv(results: dict[str, list[float]], task: str) -> str:
    """One ``config,seed,task,accuracy`` row per value of ``results``."""
    lines = ["config,seed,task,accuracy"]
    for config, values in results.items():
        for seed, v in enumerate(values):
            lines.append(f"{config},{seed},{task},{v:.6f}")
    return "\n".join(lines) + "\n"


def paired_t(xs, ys) -> tuple[float, float]:
    """Two-tailed paired t statistic and p-value for matched samples."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"paired test needs equal lengths, "
                         f"got {len(xs)} and {len(ys)}")
    if len(xs) < 2:
        raise ValueError("paired test needs at least 2 pairs")
    mean, sd = mean_stdev(np.subtract(xs, ys, dtype=float))
    if sd == 0:
        raise ValueError("paired test needs differences that vary")
    t = mean / (sd / math.sqrt(len(xs)))
    return t, _two_tailed_t(t, len(xs) - 1)


def _two_tailed_t(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom, in
    closed form for integer df (Abramowitz and Stegun 26.7.3, 26.7.4)."""
    theta = math.atan(abs(t) / math.sqrt(df))
    sin, cos2 = math.sin(theta), math.cos(theta) ** 2
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        return 1.0 - sin * total
    term = total = math.cos(theta) if df > 1 else 0.0
    for k in range(1, (df - 1) // 2):
        term *= cos2 * (2 * k) / (2 * k + 1)
        total += term
    return 1.0 - 2.0 / math.pi * (theta + sin * total)
