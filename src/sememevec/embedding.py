"""Distributional word and character embeddings trained with negative sampling.

The trainer is a from-scratch skip-gram / CBOW implementation. Each sentence
becomes a list of (input ids, target) steps: skip-gram makes one per
(center, context) pair with the center as input, CBOW one per position with
the mean of its context words as input. Both architectures then share one
update step: it contrasts the target word against ``negative`` noise words
drawn from the unigram distribution raised to the 0.75 power, and takes one
stochastic gradient step on

    L = -log s(x_pos) - sum_neg log s(-x_neg),    x = w_out . h

where h is the input vector (the center row, or the context mean).

Training is single-threaded and fully deterministic for a fixed seed: all
randomness flows from one seeded generator, and updates are applied in
corpus order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import (
    Corpus,
    ParseError,
    atomic_text_writer,
    build_vocabulary,
    finite_floats,
    iter_utf8_lines,
)

LR_FLOOR_FRACTION = 1e-4
ARCHITECTURES = ("skipgram", "cbow")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for embedding training, checked once at construction."""

    dim: int = 100
    window: int = 5
    negative: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    subsample: float = 0.0
    seed: int = 1
    architecture: str = "skipgram"

    def __post_init__(self):
        for field in ("dim", "window", "negative", "epochs", "min_count"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be a positive integer")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.subsample < 0:
            raise ValueError("subsample threshold cannot be negative")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")


class EmbeddingSpace:
    """A vocabulary-indexed collection of d-dimensional vectors."""

    def __init__(self, dim, name="", vectors=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.name = name
        self._vectors = {}
        if vectors:
            for token, vec in vectors.items():
                self.add(token, vec)

    def add(self, token, vector):
        if not token:
            raise ValueError("empty token")
        vec = np.array(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(
                f"vector for {token!r} has shape {vec.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"vector for {token!r} has non-finite components")
        self._vectors[token] = vec

    def get(self, token):
        """The stored vector, or None for an unknown token."""
        return self._vectors.get(token)

    def items(self):
        return self._vectors.items()

    @property
    def tokens(self):
        return list(self._vectors)

    def __contains__(self, token):
        return token in self._vectors

    def __len__(self):
        return len(self._vectors)


def cosine(u, v):
    """Cosine similarity in [-1, 1]; a zero vector on either side scores 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"incompatible shapes {u.shape} and {v.shape}")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # identical vectors score exactly 1 regardless of rounding
    if np.array_equal(u, v):
        return 1.0
    return min(1.0, max(-1.0, float(u @ v) / (nu * nv)))


def corpus_to_characters(corpus):
    """Split every token into its unicode scalar values, keeping sentence bounds."""
    return Corpus([[ch for tok in sent for ch in tok] for sent in corpus])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def negative_sampling_loss(center, outputs, labels):
    """Loss of one training step.

    ``outputs`` holds the output vectors of the context word and the noise
    words as rows, ``labels`` is 1 for the context row and 0 for noise rows.
    """
    scores = outputs @ center
    return float(
        np.sum(
            labels * np.logaddexp(0.0, -scores)
            + (1.0 - labels) * np.logaddexp(0.0, scores)
        )
    )


def negative_sampling_grads(center, outputs, labels):
    """Analytic gradients of negative_sampling_loss.

    Returns (grad wrt center, grad wrt outputs); both match central finite
    differences of the loss.
    """
    residual = _sigmoid(outputs @ center) - labels
    return residual @ outputs, np.outer(residual, center)


def train_embeddings(corpus, config, name="original"):
    """Train an embedding space over the corpus vocabulary.

    Input vectors start uniform in [-0.5/dim, 0.5/dim] from the seeded rng,
    output vectors start at zero. The learning rate decays linearly with the
    number of processed tokens down to LR_FLOOR_FRACTION of its initial
    value. Deterministic for a fixed (corpus, config) in this single-threaded
    implementation.
    """
    if corpus.total_tokens() == 0:
        raise ValueError("cannot train on an empty corpus")
    vocab = build_vocabulary(corpus, config.min_count)
    if len(vocab) == 0:
        raise ValueError(
            f"vocabulary is empty after applying min_count={config.min_count}"
        )

    rng = np.random.default_rng(config.seed)
    dim = config.dim
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))

    counts = np.array([vocab.tf(t) for t in vocab.tokens], dtype=np.float64)
    noise = counts ** 0.75
    noise_cum = np.cumsum(noise)
    noise_cum /= noise_cum[-1]

    encoded = []
    for sent in corpus:
        ids = np.array([vocab.id_of(t) for t in sent if t in vocab], dtype=np.intp)
        if len(ids):
            encoded.append(ids)
    total = sum(len(s) for s in encoded) * config.epochs
    if total == 0:
        raise ValueError("no trainable tokens survive the min_count filter")

    keep_prob = None
    if config.subsample > 0:
        freq = counts / counts.sum()
        keep_prob = np.minimum(1.0, np.sqrt(config.subsample / freq))

    lr0 = config.learning_rate
    neg = config.negative
    window = config.window
    skipgram = config.architecture == "skipgram"
    labels_buf = np.zeros(neg + 1)
    labels_buf[0] = 1.0
    rows_buf = np.empty(neg + 1, dtype=np.intp)
    processed = 0

    for epoch in range(config.epochs):
        for sent in encoded:
            alpha = max(lr0 * (1.0 - processed / total), lr0 * LR_FLOOR_FRACTION)
            processed += len(sent)
            if keep_prob is not None:
                sent = sent[rng.random(len(sent)) < keep_prob[sent]]
            m = len(sent)
            # one (input ids, target) step per window pair for skip-gram, per
            # position for CBOW; a one-token sentence gives CBOW one step with
            # an empty context, which still draws its noise row
            if skipgram:
                steps = [
                    (sent[i], sent[j])
                    for i in range(m)
                    for j in range(max(0, i - window), min(m, i + window + 1))
                    if j != i
                ]
            else:
                steps = [
                    (np.concatenate((sent[max(0, i - window):i],
                                     sent[i + 1:i + window + 1])), sent[i])
                    for i in range(m)
                ]
            if not steps:
                continue
            draws = np.searchsorted(
                noise_cum, rng.random((len(steps), neg)), side="left"
            )
            for (inputs, target), neg_row in zip(steps, draws):
                if skipgram:
                    hidden = w_in[inputs]
                elif len(inputs):
                    hidden = w_in[inputs].mean(axis=0)
                else:
                    continue
                keep = neg_row != target
                n_rows = 1 + int(keep.sum())
                rows = rows_buf[:n_rows]
                rows[0] = target
                rows[1:] = neg_row[keep]
                g_hidden, g_out = negative_sampling_grads(
                    hidden, w_out[rows], labels_buf[:n_rows]
                )
                np.subtract.at(w_out, rows, alpha * g_out)
                if skipgram:
                    w_in[inputs] = hidden - alpha * g_hidden
                else:
                    np.subtract.at(w_in, inputs, alpha * g_hidden / len(inputs))
        if not (np.all(np.isfinite(w_in)) and np.all(np.isfinite(w_out))):
            raise FloatingPointError(
                f"non-finite parameters after epoch {epoch + 1}"
            )

    return EmbeddingSpace(dim, name=name, vectors=dict(zip(vocab.tokens, w_in)))


def save_space(space, path):
    """Write the word2vec text format: "vocab dim" header, then one token row."""
    for token in space.tokens:
        if any(ch.isspace() for ch in token):
            raise ValueError(
                f"token {token!r} contains whitespace and cannot be serialized"
            )
    with atomic_text_writer(path) as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for token, vec in space.items():
            fh.write(token + " " + " ".join(f"{x:.9g}" for x in vec) + "\n")


def load_space(path, name=""):
    """Read a space saved by save_space; ParseError names the offending line."""
    lines = iter_utf8_lines(path)
    try:
        _, header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a 'vocab dim' header")
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"{path}: line 1: malformed header {header!r}")
    try:
        size, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{path}: line 1: malformed header {header!r}")
    if size < 0 or dim < 1:
        raise ParseError(f"{path}: line 1: invalid sizes in header {header!r}")

    space = EmbeddingSpace(dim, name=name)
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise ParseError(
                f"{path}: line {lineno}: expected 1 token and {dim} values, "
                f"got {len(fields)} fields"
            )
        vec = finite_floats(fields[1:], lineno, path)
        if fields[0] in space:
            raise ParseError(f"{path}: line {lineno}: duplicate token {fields[0]!r}")
        space.add(fields[0], vec)
    if len(space) != size:
        raise ParseError(
            f"{path}: header declares {size} rows but {len(space)} were read"
        )
    return space
