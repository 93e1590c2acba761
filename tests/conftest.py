"""Shared brute-force oracles, written independently of the library code
or kept from the simpler code a faster path replaced, the strategies and file
helper of the round-trip property tests, the tracemalloc helper of the
memory guards, and the run of the README's CLI walkthrough."""

import functools
import io
import math
import os
import pathlib
import re
import shlex
import string
import subprocess
import tempfile
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import strategies as st

from sememevec.cli import main
from sememevec.corpus import (
    Corpus,
    ParseError,
    ascii_int,
    iter_written_lines,
    split_fields,
    written_floats,
)
from sememevec.embedding import ROW_RATE_CAP, EmbeddingSpace
from sememevec.morphsim import SimilarityModel, feature_rows, pad_words

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
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def per_type_logits_oracle(sentence, word_space, hownet_fn, char_space, model):
    """The (n, K) logits of a sentence without its feature rows: each enabled
    block's table of the sentence's types, with a zero row last for a type
    without a vector and for a context slot outside the sentence, times that
    block's slice of W, gathered per position and summed, plus the bias."""
    spec, n, d = model.spec, len(sentence), model.spec.dim
    index = {tok: k for k, tok in enumerate(dict.fromkeys(sentence))}
    ids = np.array([index[tok] for tok in sentence])

    def table(vector_of):
        rows = np.zeros((len(index) + 1, d))
        for tok, k in index.items():
            vec = vector_of(tok)
            if vec is not None:
                rows[k] = vec
        return rows

    blocks = []  # (table, each position's row in it), in feature order
    if spec.use_context:
        words, at = table(word_space.get), np.arange(n)
        for off in range(-spec.window_radius, spec.window_radius + 1):
            inside = (at + off >= 0) & (at + off < n)
            blocks.append((words, np.where(inside, ids[np.clip(at + off, 0, n - 1)], len(index))))
    if spec.use_hownet:
        blocks.append((table(hownet_fn), ids))
    if spec.use_char:
        blocks.append((table(lambda tok: char_space.get(tok[-1])), ids))
    logits = np.tile(model.bias, (n, 1))
    for b, (rows, gather) in enumerate(blocks):
        logits += (rows @ model.weights[:, b * d:(b + 1) * d].T)[gather]
    return logits


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


# load_space's row pattern before it checked a batch's bytes at once: a
# token, then decimals spelled -?D+(\.D+)?(e[-+]D+)?, each after one space
written_row = re.compile(r"\S+(?: -?[0-9]+(?:\.[0-9]+|)(?:e[-+][0-9]+|))+").fullmatch


def train_perceptron_oracle(pairs, epochs):
    """train_perceptron before it stopped after an epoch without an update:
    every epoch runs, over each pair's features from its own feature_rows call."""
    w, b = np.zeros(3), 0.0
    feats = [feature_rows(pad_words([p.word_a]), pad_words([p.word_b]))[0] for p in pairs]
    for _ in range(epochs):
        for x, pair in zip(feats, pairs):
            err = pair.label - (1 if w @ x + b > 0 else 0)
            if err:
                w = w + err * x
                b = b + err
    return SimilarityModel(float(w[0]), float(w[1]), float(w[2]), float(b))


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


def readme_blocks(heading, lang):
    """Every ```lang block of the README section under "## heading"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


@pytest.fixture(scope="session")
def walkthrough(tmp_path_factory):
    """The README's CLI walkthrough, run once beside a link to data/: its out/
    directory and [command, exit code, stdout, stderr] of each command. A
    sememevec line runs in-process through cli.main, NAME=value sets $NAME
    and bash -ec runs any other line, so no command is spelled here."""
    directory = tmp_path_factory.mktemp("walkthrough")
    (directory / "data").symlink_to(ROOT / "data")
    variables, record = {}, []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        for block in readme_blocks("CLI walkthrough", "sh"):
            for line in re.sub(r"\\\n\s*", "", block).splitlines():
                if re.match(r"\w+=", line):
                    variables.update([shlex.split(line)[0].split("=", 1)])
                elif line.startswith("sememevec "):
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = main(shlex.split(string.Template(line).substitute(variables))[1:])
                    record.append([line, code, out.getvalue(), err.getvalue()])
                elif line and not line.startswith("#"):
                    run = subprocess.run(["bash", "-ec", line], env={**os.environ, **variables},
                                         capture_output=True, text=True)
                    record.append([line, run.returncode, run.stdout, run.stderr])
    return directory / "out", record
