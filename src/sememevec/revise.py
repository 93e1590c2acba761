"""Revision of rare and unseen word vectors from morphological neighbours.

Term frequency enters twice, both times through the five-bucket step
function: once to weight neighbour vectors in the imputed average, and once
to blend that average with the word's own distributional vector. A frequent
word keeps its vector untouched; an unseen word relies entirely on its
neighbours.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSpace
from .morphsim import CandidateIndex, top_k_similar


@dataclass(frozen=True)
class CombinedSpaceConfig:
    """Revision parameters: which words count as rare, how many neighbours.

    Checked once at construction.
    """

    rare_tf_threshold: int = 2
    k: int = 5

    def __post_init__(self):
        if self.rare_tf_threshold < 0:
            raise ValueError("rare_tf_threshold cannot be negative")
        if self.k < 1:
            raise ValueError("k must be at least 1")


def tf_bucket(tf):
    """The five-bucket step weight over term frequency.

    4 for tf > 100, 3 for 20 < tf <= 100, 2 for 5 < tf <= 20,
    1 for 2 < tf <= 5, 0 for tf <= 2.
    """
    if tf < 0:
        raise ValueError("term frequency cannot be negative")
    return bisect_left((2, 5, 20, 100), tf)


def similar_word_vector(neighbors, space, vocab):
    """tf-bucket weighted average of neighbour vectors.

    Neighbours absent from the space are skipped; if every bucket weight is
    zero the plain mean is used. Returns None when no neighbour has a vector,
    and a lone neighbour's stored row itself. Accumulation runs in sorted
    word order, so the result does not depend on neighbour list order.
    """
    present = sorted(((w, space.get(w)) for w, _ in neighbors if w in space),
                     key=lambda wv: wv[0])
    if not present:
        return None
    if len(present) == 1:
        return present[0][1]
    weights = [tf_bucket(vocab.tf(word)) for word, _ in present]
    total = sum(weights)
    if total == 0:
        weights = [1] * len(present)
        total = len(present)
    acc = np.zeros(space.dim)
    for (_, vec), weight in zip(present, weights):
        if weight:
            acc += weight * vec
    return acc / total


def combine(original, similar, tf):
    """Blend the stored and the neighbour-derived vector by term frequency.

    The stored vector's weight is tf_bucket(tf)/4, the neighbour vector gets
    the rest. A missing side, or a weight of 0 or 1, returns the side that
    counts, not a copy of it; both missing is a contract violation.
    """
    if original is None and similar is None:
        raise ValueError("both vectors absent")
    if original is None or similar is None:
        return similar if original is None else original
    c1 = tf_bucket(tf) / 4.0
    if c1 in (0.0, 1.0):
        return original if c1 else similar
    return c1 * original + (1.0 - c1) * similar


def build_combined_space(target_words, original, model, vocab,
                         config=CombinedSpaceConfig()):
    """Revise rare target words and pass frequent ones through.

    Words with tf above the rare threshold keep the original vector exactly;
    rare and unseen words get the neighbour-derived vector blended in. Words
    for which no vector can be produced are omitted.
    """
    if not target_words:
        raise ValueError("no target words")
    space = EmbeddingSpace(original.dim, name="combined")
    candidates = CandidateIndex(vocab)
    for word in sorted(set(target_words)):
        tf = vocab.tf(word)
        # a frequent word has no neighbours, so combine returns its stored row
        neighbors = (top_k_similar(model, word, candidates, config.k)
                     if tf <= config.rare_tf_threshold else ())
        similar = similar_word_vector(neighbors, original, vocab)
        stored = original.get(word)
        if stored is None and similar is None:
            continue
        space.add(word, combine(stored, similar, tf))
    return space
