"""Rank-correlation scoring for word similarity and span P/R/F for tagging."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .corpus import ParseError, plain_word, tab_fields
from .embedding import cosine
from .tagger import repair_bi


class EvaluationError(ValueError):
    pass


def average_ranks(values):
    """1-based ranks; equal values share the mean of their rank range."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of c equal values whose last rank is e takes ranks e-c+1..e
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group].tolist()


def spearman(xs, ys):
    """Pearson correlation of average ranks, clamped to [-1, 1]."""
    if len(xs) != len(ys):
        raise EvaluationError("sequences differ in length")
    if len(xs) < 2:
        raise EvaluationError("need at least two pairs")
    rx = np.array(average_ranks(xs))
    ry = np.array(average_ranks(ys))
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise EvaluationError("one side is constant after ranking")
    rho = float(dx @ dy) / (vx * vy) ** 0.5
    return max(-1.0, min(1.0, rho))


def load_judgements(path):
    """Tab-separated rows of word, word, numeric human score. A word holding
    whitespace is an error, since no space row could hold it."""
    pairs = []
    for lineno, (a, b, raw) in tab_fields(path, 3):
        if not b:
            raise ParseError(f"{path}: line {lineno}: empty word")
        a, b = plain_word(a, lineno, path), plain_word(b, lineno, path)
        try:
            score = float(raw)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric value") from None
        if not math.isfinite(score):
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        pairs.append((a, b, score))
    return pairs


def eval_similarity(space, judgements):
    """Spearman against human scores plus the fraction of pairs scored.

    Each pair is scored by the cosine of the two words' vectors in space.
    Pairs where either word has no vector are dropped from the correlation
    but still count in coverage's denominator.
    """
    if not judgements:
        raise EvaluationError("no judgement pairs")
    model_scores = []
    human_scores = []
    for a, b, human in judgements:
        u = space.get(a)
        v = space.get(b)
        if u is None or v is None:
            continue
        model_scores.append(cosine(u, v))
        human_scores.append(human)
    if len(model_scores) < 2:
        raise EvaluationError(
            f"only {len(model_scores)} of {len(judgements)} pairs could be scored"
        )
    rho = spearman(model_scores, human_scores)
    return rho, len(model_scores) / len(judgements)


@dataclass(frozen=True)
class Span:
    """Inclusive token range start..end of one entity in one sentence."""

    sentence: int
    start: int
    end: int
    entity_type: str

    def __post_init__(self):
        if self.start > self.end or self.start < 0:
            raise ValueError(f"bad span bounds {self.start}..{self.end}")


def decode_spans(labels, sentence=0):
    """Entity spans of one label sequence, read as repair_bi writes it: a span
    opens at each B-label, a bare I-label included, and runs over the
    I-labels after it."""
    spans = []
    for i, (lab, read) in enumerate(zip(labels, repair_bi(labels))):
        if lab != "O" and (len(lab) <= 2 or lab[:2] not in ("B-", "I-")):
            raise EvaluationError(f"unrecognised label {lab!r}")
        if read.startswith("B-"):
            spans.append(Span(sentence, i, i, read[2:]))
        elif read != "O":
            spans[-1] = replace(spans[-1], end=i)
    return spans


def spans_of_corpus(label_sequences):
    spans = set()
    for k, labels in enumerate(label_sequences):
        spans.update(decode_spans(labels, sentence=k))
    return spans


def span_prf(gold, pred):
    """Exact-match precision, recall and F1 as fractions in [0, 1]."""
    gold = set(gold)
    pred = set(pred)
    tp = len(gold & pred)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(gold) if gold else 0.0
    f = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
    return p, r, f


def format_prf(p, r, f):
    """Percentages with one decimal, space separated."""
    return f"{100.0 * p:.1f} {100.0 * r:.1f} {100.0 * f:.1f}"


def per_type_prf(gold, pred):
    """span_prf restricted to each entity type present in gold or pred."""
    types = sorted({s.entity_type for s in gold} | {s.entity_type for s in pred})
    out = {}
    for t in types:
        g = {s for s in gold if s.entity_type == t}
        p = {s for s in pred if s.entity_type == t}
        out[t] = span_prf(g, p)
    return out
