"""Morphological similarity between words and its perceptron-tuned combination.

Three character-level measures (longest common substring, edit distance,
character-count cosine) score word pairs in [0, 1]. A classic perceptron,
trained on synonym/non-synonym pairs drawn from a thesaurus, learns how to
weigh them; the squashed weighted sum then serves as the similarity used to
retrieve in-vocabulary neighbours for rare and unseen words.
"""

import heapq
import itertools
import math
import random
from dataclasses import dataclass, fields

import numpy as np

from .corpus import (
    ParseError,
    atomic_text_writer,
    header_value,
    iter_written_lines,
    tab_fields,
    written_float,
)


class SamplingError(ValueError):
    """Requested training pairs cannot be drawn from the thesaurus."""


def pad_words(words):
    """Words as (codes, lengths, norms): an (n, L) int32 array of code
    points padded with -1 to the longest word's length L, the word lengths,
    and the integer squared norms of their character-count vectors."""
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    if not lengths.all():
        raise ValueError("similarity measures require non-empty strings")
    codes = np.full((len(words), lengths.max(initial=0)), -1, dtype=np.int32)
    # row-major order of the mask is the order of the joined characters
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(words).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    # equal (position, position) pairs within a word: its squared counts' sum
    norms = np.fromiter((sum(map(w.count, w)) for w in words), dtype=np.int64,
                        count=len(words))
    return codes, lengths, norms


def feature_rows(a, b):
    """(m, 3) rows of (LCS, edit, character cosine) similarity between the
    pad_words words a and b, paired row by row; a side holding one word pairs
    it with every word of the other.

    LCS is the longest common contiguous substring over max(|a|, |b|), edit
    is 1 - Levenshtein / max(|a|, |b|) with unit costs, and the cosine is
    taken between character-count vectors. Every count is an integer until
    the final division, which is the same as on Python ints.
    """
    (codes_a, len_a, norm_a), (codes_b, len_b, norm_b) = a, b
    # a's pads become -2, so no pad equals a character or the other side's pad
    codes_a = np.where(codes_a < 0, -2, codes_a)
    m = np.broadcast(len_a, len_b).size
    height, width = codes_a.shape[1] + 1, codes_b.shape[1] + 1
    cols = np.arange(width)
    equal = codes_a[:, :, None] == codes_b[:, None, :]
    dot = equal.sum(axis=(1, 2))  # equal (position in a, position in b) pairs
    # DP tables over (pair, prefix of a, prefix of b), one row of a per step:
    # runs holds the common suffix length of the two prefixes, edits their
    # Levenshtein distance
    runs = np.zeros((m, height, width), dtype=np.intp)
    edits = np.empty((m, height, width), dtype=np.intp)
    edits[:, 0] = cols
    edits[:, :, 0] = np.arange(height)
    for i in range(height - 1):
        np.multiply(runs[:, i, :-1] + 1, equal[:, i], out=runs[:, i + 1, 1:])
        # min(delete, substitute), then insertions as a running minimum:
        # row[j] = min over k <= j of row[k] + (j - k)
        row = edits[:, i + 1]
        np.minimum(edits[:, i, 1:] + 1, edits[:, i, :-1] + ~equal[:, i], out=row[:, 1:])
        row -= cols
        np.minimum.accumulate(row, axis=1, out=row)
        row += cols
    longest = runs.max(axis=(1, 2), initial=0)
    # each pair's distance sits at its own two lengths
    distance = edits[np.arange(m), len_a, len_b]
    longer = np.maximum(len_a, len_b)
    same_bag = (dot == norm_a) & (dot == norm_b)
    cos = np.where(same_bag, 1.0, np.minimum(1.0, dot / np.sqrt(norm_a * norm_b)))
    return np.stack([longest / longer, 1.0 - distance / longer, cos], axis=1)


def load_thesaurus(path):
    """Category id to the set of its words, from one category per line:
    category_id TAB word1 word2 ... A repeated id adds to its set."""
    categories = {}
    for lineno, (cat, words) in tab_fields(path, 2):
        if not words:
            raise ParseError(f"{path}: line {lineno}: category has no words")
        categories.setdefault(cat, set()).update(words.split())
    return categories


@dataclass
class TrainingPair:
    """A labelled word pair: 1 for same category, 0 for different categories."""

    word_a: str
    word_b: str
    label: int

    def __post_init__(self):
        if self.word_a == self.word_b:
            raise ValueError("pair words must differ")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")


def build_pairs(thesaurus, n_pos, n_neg, seed=0):
    """Sample labelled pairs from a category-id to words mapping: positives
    within a category, negatives across.

    Categories and their members are drawn from in sorted order. Negative
    draws reject words that co-occur in any category. Deterministic for a
    fixed seed. Raises SamplingError naming the side that cannot be
    satisfied.
    """
    if n_pos < 0 or n_neg < 0:
        raise ValueError("pair counts cannot be negative")
    members = {}
    word_cats = {}
    for cat, words in thesaurus.items():
        members[cat] = sorted(set(words))
        if not members[cat]:
            raise ValueError(f"category {cat!r} is empty")
        for w in members[cat]:
            word_cats.setdefault(w, set()).add(cat)
    rnd = random.Random(seed)
    cats = sorted(members)
    eligible = [c for c in cats if len(members[c]) >= 2]
    pairs = []
    if n_pos > 0 and not eligible:
        raise SamplingError("positive pairs: no category holds two distinct words")
    for _ in range(n_pos):
        cat = rnd.choice(eligible)
        a, b = rnd.sample(members[cat], 2)
        pairs.append(TrainingPair(a, b, 1))
    if n_neg > 0:
        if len(cats) < 2:
            raise SamplingError("negative pairs: need at least two categories")
        misses = 0
        while len(pairs) < n_pos + n_neg:
            ca, cb = rnd.sample(cats, 2)
            a = rnd.choice(members[ca])
            b = rnd.choice(members[cb])
            # a word drawn twice shares both categories with itself
            if not word_cats[a] & word_cats[b]:
                pairs.append(TrainingPair(a, b, 0))
                misses = 0
            else:
                misses += 1
                if misses > 10000:
                    raise SamplingError(
                        "negative pairs: could not find non-synonymous words "
                        "in different categories"
                    )
    return pairs


@dataclass
class SimilarityModel:
    """Learned weights over the three measures plus a bias, all finite."""

    w_lcs: float = 0.0
    w_edit: float = 0.0
    w_cos: float = 0.0
    bias: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")

    def weights(self):
        return np.array([self.w_lcs, self.w_edit, self.w_cos])


def train_perceptron(pairs, epochs):
    """Classic perceptron over (lcs, edit, cos) features, zero-initialized.

    Prediction is 1 when w.x + b > 0; updates w += (y - yhat)*x and
    b += (y - yhat), in the given pair order for at most `epochs` epochs.
    An epoch without an update leaves w and b as they are, so every later
    one would repeat it, and training stops after it. From zero, a learning
    rate would only scale w and b, so there is none.
    """
    if not pairs:
        raise ValueError("no training pairs")
    if epochs < 0:
        raise ValueError("epochs cannot be negative")
    feats = feature_rows(pad_words([p.word_a for p in pairs]),
                         pad_words([p.word_b for p in pairs]))
    w = np.zeros(3)
    b = 0.0
    for _ in range(epochs):
        updated = False
        for x, pair in zip(feats, pairs):
            predicted = 1 if w @ x + b > 0 else 0
            err = pair.label - predicted
            if err:
                w = w + err * x
                b = b + err
                updated = True
        if not updated:
            break
    return SimilarityModel(float(w[0]), float(w[1]), float(w[2]), float(b))


def score_rows(model, rows):
    """Logistic squashing of each (m, 3) row's weighted feature sum, in [0, 1].

    Each row takes its own dot product, the kernel model.weights() @ x calls
    for one row, so a score does not depend on the rows scored beside it; a
    matrix-vector product may round differently.
    """
    z = np.matmul(rows[:, None, :], model.weights())[:, 0] + model.bias
    return [_sigmoid(v) for v in z.tolist()]


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


class CandidateIndex:
    """Candidate words in sorted order, with the ids of the words holding each
    character and the words as pad_words arrays; iterates over its words."""

    def __init__(self, candidates):
        self.words = sorted(candidates)
        self.codes, self.lengths, self.norms = pad_words(self.words)
        self._ids = {}
        for i, word in enumerate(self.words):
            for ch in set(word):
                self._ids.setdefault(ch, []).append(i)

    def sharing(self, word):
        """The ids of the words sharing at least one character with word."""
        ids = set()
        for ch in set(word):
            ids.update(self._ids.get(ch, ()))
        return ids

    def __iter__(self):
        return iter(self.words)


def top_k_similar(model, word, candidates, k=5):
    """The k highest-scoring candidate words, never the query word itself.

    Descending score, ties broken by lexicographic word order; fewer than k
    results only when candidates run out. candidates is a CandidateIndex or
    an iterable of words, which is indexed on each call.

    Only candidates that share a character with the query are scored by the
    three measures, in one feature_rows call per group of words whose
    lengths round up to the same multiple of 8, each group padded to its own
    longest word; pads match nothing, so a pair's values do not depend on
    its group, and one long word does not widen every table. One that shares
    none has LCS 0, Levenshtein equal to the longer length (no aligned pair
    can match) and a zero count dot product, so its features are exactly
    (0, 0, 0) and its score is the floor sigmoid(bias), computed once by the
    same arithmetic as every pair. All of them tie at the floor, so only the
    first k in word order can rank, and the result is identical to scoring
    every candidate; weights may be negative, so a sharing candidate can rank
    below the floor.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not isinstance(candidates, CandidateIndex):
        candidates = CandidateIndex(candidates)
    words, lengths = candidates.words, candidates.lengths
    sharing = candidates.sharing(word)
    groups = {}
    for i in sharing:
        if words[i] != word:
            groups.setdefault((len(words[i]) + 7) // 8, []).append(i)
    query = pad_words([word])
    scored = []
    for ids in groups.values():
        width = lengths[ids].max()
        rows = feature_rows(query, (
            candidates.codes[ids, :width], lengths[ids], candidates.norms[ids]))
        scored += zip([words[i] for i in ids], score_rows(model, rows))
    floor = score_rows(model, np.zeros((1, 3)))[0]
    # the query shares its own characters, so no floor word is the query
    floored = (w for i, w in enumerate(words) if i not in sharing)
    scored.extend((w, floor) for w in itertools.islice(floored, k))
    return heapq.nsmallest(k, scored, key=lambda ts: (-ts[1], ts[0]))


def save_similarity_model(model, path):
    """Four labelled decimal values, one per line."""
    with atomic_text_writer(path) as fh:
        for f in fields(model):
            fh.write(f"{f.name} {getattr(model, f.name):.17g}\n")


def load_similarity_model(path):
    """Read a file written by save_similarity_model, its fields in writer
    order; ParseError names the first line it could not have written."""
    lines = iter_written_lines(path)
    model = SimilarityModel(*[header_value(lines, path, f.name, written_float)
                              for f in fields(SimilarityModel)])
    for lineno, _ in lines:
        raise ParseError(f"{path}: line {lineno}: unexpected line after 'bias'")
    return model
