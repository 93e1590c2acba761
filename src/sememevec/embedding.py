"""Distributional word and character embeddings trained with negative sampling.

The trainer is a from-scratch skip-gram / CBOW implementation over the corpus's
int32 ids and sentence starts. Each epoch builds one step per center word with
array operations: its context, one column per window offset, live within the
center's sentence. Skip-gram scores the center row against each live context
word as a target, CBOW the mean of the context rows against the center. A step
draws ``negative`` noise words from the unigram distribution raised to the 0.75
power and shares them among its targets (Ji et al., arXiv:1604.04661): a noise
word counts once per live target it is not, so each (center, context) pair
still sees ``negative`` noise draws. Per target the loss is

    L = -log s(x_pos) - sum_neg log s(-x_neg),    x = w_out . h

where h is the input vector. Steps run in mini-batches that gather at most
BATCH_VALUES parameter values: a batch's gradients are all taken from the
parameters as they were before it, then applied at once with np.add.at, with
a row's summed rate capped.

Training is single-threaded and fully deterministic for a fixed seed: all
randomness flows from one seeded generator, and batches are applied in
corpus order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import (
    Corpus,
    ParseError,
    ascii_int,
    atomic_text_writer,
    build_vocabulary,
    has_whitespace,
    iter_utf8_lines,
    split_fields,
    written_floats,
)

LR_FLOOR_FRACTION = 1e-4
# the most parameter values (rows times dim) one batch gathers
BATCH_VALUES = 1 << 15
# positions whose steps are built at once, bounding the step arrays
SPAN_TOKENS = 1 << 10
# the most summed learning rate one row takes from one batch
ROW_RATE_CAP = 1.0
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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.subsample < np.inf:
            raise ValueError("subsample threshold must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")


class EmbeddingSpace:
    """A vocabulary-indexed collection of d-dimensional vectors."""

    def __init__(self, dim, name=""):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.name = name
        self._vectors = {}

    def add(self, token, vector):
        """Store a float64 copy of vector as token's row: the one way in."""
        if not token:
            raise ValueError("empty token")
        vec = np.array(vector, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise ValueError(
                f"vector for {token!r} has shape {vec.shape}, expected ({self.dim},)"
            )
        if not np.isfinite(vec).all():
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
    # exact powers of two bring the largest magnitudes into [0.5, 1), so the
    # squared norms lie in [0.25, dim) and never overflow or vanish
    su, sv = (np.ldexp(x, -math.frexp(float(np.abs(x).max(initial=0.0)))[1]) for x in (u, v))
    nu = math.sqrt(float(su @ su))
    nv = math.sqrt(float(sv @ sv))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # exactly 1 for identical vectors only; scaling would equate power-of-two multiples
    if np.array_equal(u, v):
        return 1.0
    return min(1.0, max(-1.0, float(su @ sv) / (nu * nv)))


def corpus_to_characters(corpus):
    """Split every token into its unicode scalar values, keeping sentence bounds."""
    # the type table encoded as a corpus, one sentence of characters per type,
    # encodes each type once, in first-seen order; each token gathers its run
    chars = Corpus(corpus.types)
    size = np.diff(chars.starts)[corpus.ids]
    ends = np.concatenate(([0], np.cumsum(size)))
    take = np.repeat(chars.starts[corpus.ids] - ends[:-1], size) + np.arange(ends[-1])
    chars.ids, chars.starts = chars.ids[take], ends[corpus.starts]
    return chars


def negative_sampling_loss_and_grads(hidden, outputs, weight, targets):
    """Loss and analytic gradients of a batch of negative-sampling steps.

    ``hidden`` (B, d) holds each step's input vector and ``outputs`` (B, K, d)
    its output rows: ``targets`` target rows first, then noise rows. Each
    row's term counts ``weight`` (B, K) times, so a weight of 0 adds neither
    loss nor gradient. Returns (loss, grad wrt hidden, grad wrt outputs).
    """
    # x = w_out . h; a target row scores softplus(-x), a noise row softplus(x)
    signed = np.einsum("bkd,bd->bk", outputs, hidden)
    signed[:, :targets] *= -1.0
    softplus = np.logaddexp(0.0, signed)
    # d softplus(z) / dz = sigmoid(z) = exp(z - softplus(z)), without overflow
    residual = np.exp(signed - softplus) * weight
    residual[:, :targets] *= -1.0
    loss = float(np.sum(softplus * weight))
    grad_out = residual[:, :, None] * hidden[:, None, :]
    return loss, np.einsum("bk,bkd->bd", residual, outputs), grad_out


def _descend(matrix, rows, grads, hits, alpha):
    """matrix[rows] -= rate * grads, summing the steps of repeated rows.

    A batch's gradients all come from the parameters before it, so a row that
    many steps hit would overshoot: its rate is alpha, lowered so that its
    summed ``hits`` times its rate stay within ROW_RATE_CAP.
    """
    dim = matrix.shape[1]
    rows = rows.ravel()
    count = np.maximum(np.bincount(rows, weights=hits.ravel())[rows], 1.0)
    rate = np.minimum(alpha, ROW_RATE_CAP / count)
    steps = grads.reshape(-1, dim) * -rate[:, None]
    # intp indices into the flat buffer, where np.add.at takes its fast 1-d path
    flat = (rows.astype(np.intp) * dim)[:, None] + np.arange(dim)
    np.add.at(matrix.reshape(-1), flat.ravel(), steps.ravel())


def _outputs(targets, live, noise):
    """A batch's output rows, its targets then its noise words, and how often
    each counts: a target once if ``live``, a noise word once per live target
    it is not."""
    other = live[:, :, None] & (targets[:, :, None] != noise[:, None, :])
    return np.column_stack((targets, noise)), np.column_stack((live, other.sum(axis=1)))


def _steps(ids, starts, center, offsets):
    """The (context, live, centers, at) steps centered on positions ``center``.

    ``ids`` holds each position's word, ``starts`` each sentence's first
    position, then len(ids). Each center with a context makes one step: its
    context ids, masked by ``live`` to its sentence, its center id and ``at``.
    """
    # one column per window offset, live between the bounds of the center's sentence
    sent = np.searchsorted(starts, center, side="right")
    ctx = center[:, None] + offsets
    mask = (ctx >= starts[sent - 1, None]) & (ctx < starts[sent, None])
    ctx = np.clip(ctx, 0, len(ids) - 1)
    at = np.flatnonzero(mask.any(axis=1))
    return ids[ctx[at]], mask[at], ids[center[at], None], at


def _kept(ids, starts, keep):
    """The ids ``keep`` marks, the starts renumbered to them, and their positions."""
    pos = np.flatnonzero(keep)
    return ids[pos], np.searchsorted(pos, starts), pos


def train_embeddings(corpus, config, name="original"):
    """Train an embedding space over the corpus vocabulary.

    Input vectors start uniform in [-0.5/dim, 0.5/dim] from the seeded rng,
    output vectors start at zero. The learning rate decays linearly with the
    number of processed tokens, set once per batch, down to LR_FLOOR_FRACTION
    of its initial value.
    """
    if corpus.total_tokens() == 0:
        raise ValueError("cannot train on an empty corpus")
    vocab = build_vocabulary(corpus, config.min_count)
    if len(vocab) == 0:
        raise ValueError(f"vocabulary is empty after applying min_count={config.min_count}")

    rng = np.random.default_rng(config.seed)
    dim = config.dim
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))

    counts = np.array([vocab.tf(t) for t in vocab], dtype=np.float64)
    noise_cum = np.cumsum(counts ** 0.75)
    noise_cum /= noise_cum[-1]

    # the corpus in int32 vocabulary ids, without the tokens min_count drops;
    # with subsampling an epoch keeps a token with probability sqrt(threshold / freq)
    index = {t: i for i, t in enumerate(vocab)}
    flat = np.array([index.get(t, -1) for t in corpus.types], dtype=np.int32)[corpus.ids]
    flat, sent_starts = _kept(flat, corpus.starts, flat >= 0)[:2]
    keep_prob = np.sqrt(config.subsample * counts.sum() / counts)
    n = len(flat)
    total = n * config.epochs

    lr0 = config.learning_rate
    neg = config.negative
    skipgram = config.architecture == "skipgram"
    offsets = np.array([o for o in range(-config.window, config.window + 1) if o])
    batch = max(1, BATCH_VALUES // ((len(offsets) + 1 + neg) * dim))

    for epoch in range(config.epochs):
        ids, starts, pos = flat, sent_starts, range(n)
        if config.subsample > 0:
            ids, starts, pos = _kept(flat, sent_starts, rng.random(n) < keep_prob[flat])
        for a in range(0, len(ids), SPAN_TOKENS):
            center = np.arange(a, min(len(ids), a + SPAN_TOKENS))
            ctx, live, center_ids, at = _steps(ids, starts, center, offsets)
            # (input, hits, targets, live targets): skip-gram's center row is hit
            # once per live context word, each live context row of CBOW's mean once
            sides = ((center_ids, live.sum(axis=1, keepdims=True), ctx, live) if skipgram
                     else (ctx, live, center_ids, np.ones_like(center_ids, bool)))
            for s in range(0, len(at), batch):
                processed = epoch * n + pos[center[at[s]]]
                alpha = max(lr0 * (1.0 - processed / total), lr0 * LR_FLOOR_FRACTION)
                inp, hits, targets, t_live = (x[s:s + batch] for x in sides)
                noise = np.searchsorted(noise_cum, rng.random((len(inp), neg)), side="left")
                rows, weight = _outputs(targets, t_live, noise)
                wts = hits / hits.sum(axis=1, keepdims=True)
                hidden = np.einsum("bw,bwd->bd", wts, w_in[inp])
                _, g_hidden, g_out = negative_sampling_loss_and_grads(
                    hidden, w_out[rows], weight, targets.shape[1]
                )
                _descend(w_out, rows, g_out, weight, alpha)
                _descend(w_in, inp, wts[:, :, None] * g_hidden[:, None, :], hits, alpha)
        if not (np.all(np.isfinite(w_in)) and np.all(np.isfinite(w_out))):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch + 1}")

    space = EmbeddingSpace(dim, name=name)
    for token, vec in zip(vocab, w_in):
        space.add(token, vec)
    return space


def format_vector(vec):
    """A vector's values as a save_space row holds them: 9 significant digits."""
    # Python floats format faster than numpy scalars, to the same text
    return " ".join(f"{x:.9g}" for x in vec.tolist())


def save_space(space, path):
    """Write the word2vec text format: "vocab dim" header, then one token row."""
    with atomic_text_writer(path) as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for token, vec in space.items():
            if has_whitespace(token):
                raise ValueError(
                    f"token {token!r} contains whitespace and cannot be serialized"
                )
            fh.write(token + " " + format_vector(vec) + "\n")


def load_space(path, name=""):
    """Read a space saved by save_space; ParseError names the offending line."""
    lines = iter_utf8_lines(path)
    _, header = next(lines, (1, ""))
    try:
        size, dim = map(ascii_int, split_fields(header, 1, path, 2))
    except ValueError:
        raise ParseError(f"{path}: line 1: malformed header {header!r}") from None
    if size < 0 or dim < 1:
        raise ParseError(f"{path}: line 1: invalid sizes in header {header!r}")

    space = EmbeddingSpace(dim, name=name)
    for lineno, line in lines:
        token, *values = split_fields(line, lineno, path, dim + 1)
        if token in space:
            raise ParseError(f"{path}: line {lineno}: duplicate token {token!r}")
        space.add(token, written_floats(values, lineno, path))
    if len(space) != size:
        raise ParseError(
            f"{path}: header declares {size} rows but {len(space)} were read"
        )
    return space
