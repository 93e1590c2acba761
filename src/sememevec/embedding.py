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

where h is the input vector. Steps run in mini-batches of at most BATCH_VALUES
slot values (d per slot), each worked by small matrix products over its
distinct rows: its gradients all come from the parameters before it, and a
row's summed rate is capped. Training is deterministic for a fixed seed: all
randomness flows from one seeded generator, and batches run in corpus order.
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
    iter_written_lines,
    split_fields,
    written_rows,
)

LR_FLOOR_FRACTION = 1e-4
# the most parameter values (rows times dim) one batch gathers
BATCH_VALUES = 1 << 15
# positions whose steps are built at once, bounding the step arrays
SPAN_TOKENS = 1 << 10
# the most summed learning rate one row takes from one batch
ROW_RATE_CAP = 1.0
# the rows load_space reads, checks and converts at once, bounding its memory
LOAD_ROWS = 1 << 10
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
        # the row dict's own lookups; a deep copy would still read the original's rows
        self.get = self._vectors.get
        self.items = self._vectors.items

    def add_rows(self, tokens, rows):
        """Store one float64 copy of rows, row i as tokens[i]'s: the one way in.

        Each token's row is a view of that copy, so callers never write to
        what ``get`` returns.
        """
        block = np.array(rows, dtype=np.float64)
        if block.shape != (len(tokens), self.dim):
            raise ValueError(f"rows of shape {block.shape}, expected ({len(tokens)}, {self.dim})")
        if not all(tokens):
            raise ValueError("empty token")
        finite = np.isfinite(block)
        if not finite.all():
            bad = tokens[finite.all(axis=1).argmin()]
            raise ValueError(f"vector for {bad!r} has non-finite components")
        self._vectors.update(zip(tokens, block))

    def add(self, token, vector):
        """add_rows of one token's vector."""
        self.add_rows([token], [vector])

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


def negative_sampling_loss_and_grads(hidden, table, index, weight, targets):
    """Loss and analytic gradients of a batch of negative-sampling steps.

    ``hidden`` (B, d) holds each step's input vector, ``table`` (U, d) the
    batch's distinct output rows and ``index`` (B, K) each step's output slots
    in it, ``targets`` target slots first. A slot's term counts ``weight`` (B, K)
    times. Returns (loss, grad wrt hidden, grad wrt table).
    """
    # x = w_out . h; a target slot scores softplus(-x), a noise slot softplus(x)
    signed = (hidden @ table.T)[np.arange(len(index))[:, None], index]
    signed[:, :targets] *= -1.0
    softplus = np.logaddexp(0.0, signed)
    # d softplus(z) / dz = sigmoid(z) = exp(z - softplus(z)), without overflow
    residual = np.exp(signed - softplus) * weight
    residual[:, :targets] *= -1.0
    loss = float(np.sum(softplus * weight))
    g_scores = _summed(index, residual, len(table))
    return loss, g_scores @ table, g_scores.T @ hidden


def _distinct(ids, size):
    """The distinct ids below ``size``, ascending, and each id's index among them."""
    mark = np.zeros(size, bool)
    mark[ids] = True
    rows = np.flatnonzero(mark)
    slot = np.empty(size, np.intp)
    slot[rows] = np.arange(len(rows))
    return rows, slot[ids]


def _summed(index, values, size):
    """The (B, size) matrix of each step's ``values`` (B, K) summed per ``index``."""
    flat = index + size * np.arange(len(index))[:, None]
    return np.bincount(flat.ravel(), values.ravel(), len(index) * size).reshape(-1, size)


def _descend(matrix, rows, grads, slot, hits, alpha):
    """matrix[rows] -= rate * grads, for distinct ``rows`` and their summed ``grads``.

    Gradients come from the parameters before the batch, so a row that many
    steps hit would overshoot: its rate is alpha, lowered to keep its rate
    times the ``hits`` of its slots (``slot`` indexes ``rows``) within ROW_RATE_CAP.
    """
    count = np.maximum(np.bincount(slot.ravel(), hits.ravel()), 1.0)
    matrix[rows] -= np.minimum(alpha, ROW_RATE_CAP / count)[:, None] * grads


def _outputs(targets, live, noise):
    """Steps' output rows, their targets then their noise words, and how often each
    counts: a target once if ``live``, a noise word once per live target it is not."""
    other = sum(live[:, j, None] & (targets[:, j, None] != noise) for j in range(live.shape[1]))
    return np.column_stack((targets, noise)), np.column_stack((live, other))


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
    flat, sent_starts = (_kept(flat, corpus.starts, flat >= 0)[:2]
                         if len(vocab) < len(corpus.types) else (flat, corpus.starts))
    keep_prob = np.sqrt(config.subsample * counts.sum() / counts)
    n = len(flat)

    lr0 = config.learning_rate
    skipgram = config.architecture == "skipgram"
    offsets = np.array([o for o in range(-config.window, config.window + 1) if o])
    batch = max(1, BATCH_VALUES // ((len(offsets) + 1 + config.negative) * dim))

    for epoch in range(config.epochs):
        ids, starts, pos = flat, sent_starts, range(n)
        if config.subsample > 0:
            # marked span by span, so no float array of n is held
            keep = np.concatenate([rng.random(len(c)) < keep_prob[c]
                                   for c in np.split(flat, range(SPAN_TOKENS, n, SPAN_TOKENS))])
            ids, starts, pos = _kept(flat, sent_starts, keep)
        for a in range(0, len(ids), SPAN_TOKENS):
            center = np.arange(a, min(len(ids), a + SPAN_TOKENS))
            ctx, live, center_ids, at = _steps(ids, starts, center, offsets)
            # (input, hits, targets, live targets): skip-gram's center row is hit
            # once per live context word, each live context row of CBOW's mean once
            inp, hits, targets, t_live = (
                (center_ids, live.sum(axis=1, keepdims=True), ctx, live) if skipgram
                else (ctx, live, center_ids, np.ones_like(center_ids, bool)))
            noise = np.searchsorted(noise_cum, rng.random((len(at), config.negative)))
            out, weight = _outputs(targets, t_live, noise)
            wts = hits / hits.sum(axis=1, keepdims=True)
            for s in range(0, len(at), batch):
                done = (epoch * n + pos[center[at[s]]]) / (n * config.epochs)
                alpha = max(lr0 * (1.0 - done), lr0 * LR_FLOOR_FRACTION)
                b = slice(s, s + batch)
                in_rows, in_slot = _distinct(inp[b], len(vocab))
                out_rows, out_slot = _distinct(out[b], len(vocab))
                mix = _summed(in_slot, wts[b], len(in_rows))
                _, g_hidden, g_table = negative_sampling_loss_and_grads(
                    mix @ w_in[in_rows], w_out[out_rows], out_slot, weight[b], targets.shape[1])
                _descend(w_out, out_rows, g_table, out_slot, weight[b], alpha)
                _descend(w_in, in_rows, mix.T @ g_hidden, in_slot, hits[b], alpha)
        if not (np.all(np.isfinite(w_in)) and np.all(np.isfinite(w_out))):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch + 1}")

    space = EmbeddingSpace(dim, name=name)
    space.add_rows(list(vocab), w_in)
    return space


# a value as save_space writes it, after one space: 9 significant digits
_VALUE = " %.9g"


def format_vector(vec):
    """A vector's values as a save_space row holds them, one space apart."""
    # one % over Python floats, which format faster than numpy scalars
    return (_VALUE * len(vec))[1:] % tuple(vec.tolist())


def save_space(space, path):
    """Write the word2vec text format: "vocab dim" header, then one token row."""
    with atomic_text_writer(path) as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        row = "%s" + _VALUE * space.dim + "\n"
        for token, vec in space.items():
            if has_whitespace(token):
                raise ValueError(
                    f"token {token!r} contains whitespace and cannot be serialized"
                )
            fh.write(row % (token, *vec.tolist()))


def _flush_batch(space, batch, path):
    """Add batch, {token: (lineno, line)} of lines read and checked with a new
    token, to space through one written_rows call and empty it; ParseError
    names the first faulty line."""
    if not batch:
        return
    tokens = list(batch)
    read = [(lineno, line[len(token) + 1:]) for token, (lineno, line) in batch.items()]
    batch.clear()
    space.add_rows(tokens, written_rows(read, space.dim, path))


def load_space(path, name=""):
    """Read a space saved by save_space, LOAD_ROWS rows at a time; ParseError
    names the first faulty line."""
    lines = iter_written_lines(path)
    _, header = next(lines, (1, ""))
    try:
        size, dim = map(ascii_int, split_fields(header, 1, path, 2))
    except ValueError:
        raise ParseError(f"{path}: line 1: malformed header {header!r}") from None
    if size < 0 or dim < 1:
        raise ParseError(f"{path}: line 1: invalid sizes in header {header!r}")

    space = EmbeddingSpace(dim, name=name)
    batch = {}
    try:
        for lineno, line in lines:
            # only the token is cut from a line: a string made and freed per line
            # between the held lines cost tag-stream up to 4.5 MB of peak RSS
            token = line[:line.find(" ")]
            if (token in batch or token in space or line.count(" ") != dim or not token
                    or has_whitespace(token) or line.endswith(" ")):
                # split_fields names an empty token or field, whitespace but the
                # space, or a wrong field count; or else the token repeats
                split_fields(line, lineno, path, dim + 1)
                raise ParseError(f"{path}: line {lineno}: duplicate token {token!r}")
            batch[token] = lineno, line
            if len(batch) == LOAD_ROWS:
                _flush_batch(space, batch, path)
    except ParseError:
        # a refused or undecodable line waits for the rows before it, so an
        # earlier faulty row is named first
        _flush_batch(space, batch, path)
        raise
    _flush_batch(space, batch, path)
    if len(space) != size:
        raise ParseError(
            f"{path}: header declares {size} rows but {len(space)} were read"
        )
    return space
