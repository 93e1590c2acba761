"""Shared brute-force oracles, written independently of the library code
or kept from the simpler code a faster path replaced, the strategies and file
helper of the round-trip property tests, and the tracemalloc helper of the
memory guards."""

import functools
import math
import os
import string
import tempfile
import tracemalloc
import warnings
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from sememevec.corpus import (
    Corpus,
    ParseError,
    ascii_int,
    iter_written_lines,
    split_fields,
    written_floats,
)
from sememevec.embedding import ROW_RATE_CAP, EmbeddingSpace

# A failing property makes hypothesis's pytest plugin import this module,
# which imports libcst where it is installed, and libcst's imports raise a
# DeprecationWarning. The "error" filter would turn that into a plugin
# error that ends the run before the failure is reported, so it is imported
# once here with that one category ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

pytest_plugins = ["pytester"]


@functools.lru_cache(maxsize=None)
def _reachable_within(a, b, k):
    # explicit edit-script search: match, delete, insert or substitute the head
    if a == b:
        return True
    if k == 0:
        return False
    if a and b and a[0] == b[0] and _reachable_within(a[1:], b[1:], k):
        return True
    if a and _reachable_within(a[1:], b, k - 1):
        return True
    if b and _reachable_within(a, b[1:], k - 1):
        return True
    if a and b and _reachable_within(a[1:], b[1:], k - 1):
        return True
    return False


def edit_distance_oracle(a, b):
    k = 0
    while not _reachable_within(a, b, k):
        k += 1
    return k


def lcs_len_oracle(a, b):
    subs_a = {a[i:j] for i in range(len(a)) for j in range(i + 1, len(a) + 1)}
    subs_b = {b[i:j] for i in range(len(b)) for j in range(i + 1, len(b) + 1)}
    common = subs_a & subs_b
    return max((len(s) for s in common), default=0)


def char_cos_oracle(a, b):
    alphabet = sorted(set(a) | set(b))
    va = [a.count(ch) for ch in alphabet]
    vb = [b.count(ch) for ch in alphabet]
    if a == b:
        return 1.0
    dot = sum(x * y for x, y in zip(va, vb))
    if dot == 0:
        return 0.0
    na2 = sum(x * x for x in va)
    nb2 = sum(x * x for x in vb)
    return min(1.0, dot / math.sqrt(na2 * nb2))


def average_ranks_oracle(values):
    # counting formulation: rank = (#smaller) + (#equal + 1) / 2
    ranks = []
    for x in values:
        less = sum(1 for y in values if y < x)
        eq = sum(1 for y in values if y == x)
        ranks.append(less + (eq + 1) / 2.0)
    return ranks


def pearson_oracle(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    return num / den


def spearman_oracle(xs, ys):
    return pearson_oracle(average_ranks_oracle(xs), average_ranks_oracle(ys))


def descriptor_oracle(descriptor):
    """A lexicon descriptor's sememe identifier, by a walk over its characters."""
    s = descriptor.strip()
    i = 0
    while i < len(s) and (s[i] in "*#$%@?!~" or s[i].isspace()):
        i += 1
    j = i
    while j < len(s) and (s[j] in string.ascii_letters or s[j] in " \t"):
        j += 1
    # the run is a gloss only if a letter starts it and a space or tab ends it
    if j > i and s[i] in string.ascii_letters and s[j - 1] in " \t":
        i = j
    return s[i:]


def vocabulary_oracle(sentences, min_count):
    """(token, count) of each token seen at least min_count times, by
    descending count, then token."""
    counts = Counter()
    for sent in sentences:
        counts.update(sent)
    kept = [(t, c) for t, c in counts.items() if c >= min_count]
    return sorted(kept, key=lambda tc: (-tc[1], tc[0]))


def replacement_corpora_oracle(sentences, lexicon, max_rank):
    """The sentences, then one copy per rank r in which each token with at
    least r sememes is its rank-r sememe, built token by token."""
    out = [list(sent) for sent in sentences]
    for rank in range(1, max_rank + 1):
        for sent in sentences:
            replaced = []
            for tok in sent:
                sememes = lexicon.get(tok, ())
                replaced.append(sememes[rank - 1] if len(sememes) >= rank else tok)
            out.append(replaced)
    return out


def character_corpus_oracle(corpus):
    """The character corpus as the sentences' joined tokens, each decoded and
    re-encoded character by character."""
    return Corpus(map("".join, corpus))


def per_slot_loss_and_grads_oracle(hidden, outputs, weight, targets):
    """The negative-sampling batch kernel with one d-vector per output slot:
    ``outputs`` (B, K, d) holds each step's target rows, then its noise rows.
    Returns (loss, grad wrt hidden, grad wrt each slot's row (B, K, d))."""
    signed = np.einsum("bkd,bd->bk", outputs, hidden)
    signed[:, :targets] *= -1.0
    softplus = np.logaddexp(0.0, signed)
    residual = np.exp(signed - softplus) * weight
    residual[:, :targets] *= -1.0
    loss = float(np.sum(softplus * weight))
    grad_out = residual[:, :, None] * hidden[:, None, :]
    return loss, np.einsum("bk,bkd->bd", residual, outputs), grad_out


def per_slot_descend_oracle(matrix, rows, grads, hits, alpha):
    """matrix[rows] -= rate * grads slot by slot, repeated rows summed by
    np.add.at, each row's rate capped by its summed hits."""
    dim = matrix.shape[1]
    rows = rows.ravel()
    count = np.maximum(np.bincount(rows, weights=hits.ravel())[rows], 1.0)
    rate = np.minimum(alpha, ROW_RATE_CAP / count)
    np.add.at(matrix, rows, grads.reshape(-1, dim) * -rate[:, None])


def dense_softmax_loss_and_grads_oracle(weights, bias, features, labels, lam):
    """softmax_loss_and_grads as one (n, F) product each way: mean cross
    entropy plus (lam/2)*||W||^2, and its gradients wrt W and the
    unregularized biases."""
    logits = features @ weights.T + bias
    peak = logits.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
    n = len(labels)
    idx = np.arange(n)
    loss = float((lse - logits[idx, labels]).mean()) + 0.5 * lam * float(
        np.sum(weights * weights)
    )
    probs = np.exp(logits - lse[:, None])
    probs[idx, labels] -= 1.0
    probs /= n
    grad_w = probs.T @ features + lam * weights
    grad_b = probs.sum(axis=0)
    return loss, grad_w, grad_b


def load_space_oracle(path, name=""):
    """load_space before it read rows in batches: each row split, checked
    for a duplicate token, parsed by float() and added on its own, so the
    first faulty line raises."""
    lines = iter_written_lines(path)
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
        raise ParseError(f"{path}: header declares {size} rows but {len(space)} were read")
    return space


def all_strings(alphabet, max_len):
    out = []
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + ch for s in frontier for ch in alphabet]
        out.extend(frontier)
    return out


# non-empty strings that every loader reads back as one field: no
# str.isspace() character, no lone surrogate (not encodable as UTF-8) and no
# U+FEFF, which a loader drops when it opens a file
tokens = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\ufeff"),
    min_size=1, max_size=5,
).filter(lambda t: not any(map(str.isspace, t)))
entity_types = tokens.filter(lambda t: "/" not in t)


@st.composite
def corpora(draw):
    """Sentences, empty ones among them, over a pool of at most 7 tokens that
    always holds a non-BMP one, so tokens repeat."""
    pool = draw(st.lists(tokens, min_size=1, max_size=6)) + ["\U00020000字"]
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), max_size=6))


@st.composite
def lexicons(draw, sentences):
    """A lexicon of 1-4 sememes per word, its words and sememes drawn from the
    sentences' tokens and fresh ones alike."""
    words = sorted({t for sent in sentences for t in sent})
    names = st.sampled_from(words) | tokens if words else tokens
    return draw(st.dictionaries(names, st.lists(names, min_size=1, max_size=4), max_size=6))
finite_values = st.floats(allow_nan=False, allow_infinity=False)


def round_trip(save, load, value):
    """load(path) after save(value, path), in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "artifact")
        save(value, path)
        return load(path)


def assert_prefixes_refused_or_whole(save, load, value):
    """Each proper prefix of the file save(value, path) writes, as a file cut
    short leaves it, either raises ParseError on load or loads to an object
    that save writes back as the whole file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "artifact")
        save(value, path)
        with open(path, "rb") as fh:
            whole = fh.read()
        for cut in range(len(whole)):
            with open(path, "wb") as fh:
                fh.write(whole[:cut])
            try:
                back = load(path)
            except ParseError:
                continue
            save(back, path)
            with open(path, "rb") as fh:
                assert fh.read() == whole, f"the first {cut} bytes loaded"


def traced_peak(fn, *args):
    """The most bytes tracemalloc saw allocated while fn(*args) ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
