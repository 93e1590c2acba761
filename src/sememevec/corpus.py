"""Corpus ingestion: pre-segmented text, tagged text, vocabularies and term frequencies."""

import math
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """An input file does not follow its expected line format."""


# A written number is -?D+(\.D+)?(e[-+]D+)?, D a run of ASCII digits: the one
# spelling "%.9g" and "%.17g" give a finite float. _DECIMAL matches one (re
# matches "(?:x|)" about a third faster than "(?:x)?"). written_rows checks a
# block of numbers one space apart, framed by one, at once: _BYTE_CLASS maps
# each byte to its class, "0" for every digit and 0 for a byte no number holds,
# and _PAIR_OK marks the class pairs of -?D+(\.D+|e[-+]D+)* as little-endian
# uint16 codes; np.loadtxt takes only _DECIMAL's spellings of those
_DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+|)(?:e[-+][0-9]+|)")
_BYTE_CLASS = bytes(b if b in b"-.e+ " else 48 if 48 <= b <= 57 else 0 for b in range(256))
_PAIR_OK = np.zeros(1 << 16, bool)
_PAIR_OK[np.frombuffer(b"000.0e0  0 --0.0e-e++0", "<u2")] = True


def written_float(text):
    """Parse a finite float spelled as "%.9g" and "%.17g" print one; float()
    alone also takes "1_0", "+1", ".5", "1.", spaces and non-ASCII digits."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"malformed number {text!r}")
    return value


def written_floats(values, lineno, path):
    """written_float over a line's values; ParseError names the line and the
    first value refused."""
    try:
        return list(map(written_float, values))
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from None


def written_rows(read, width, path):
    """The (len(read), width) float64 rows of read, (lineno, text) pairs whose
    texts each hold width written numbers one space apart, by one byte check
    and one parse; ParseError names the first faulty line."""
    texts = [text for _, text in read]
    codes = f" {' '.join(texts)} ".encode().translate(_BYTE_CLASS)
    # every adjacent pair, at even offsets and then at odd ones
    spelled = (_PAIR_OK[np.frombuffer(codes, "<u2", len(codes) // 2)].all()
               and _PAIR_OK[np.frombuffer(codes, "<u2", (len(codes) - 1) // 2, 1)].all())
    del codes
    try:
        rows = np.loadtxt(texts, delimiter=" ", comments=None, ndmin=2) if spelled else None
    except ValueError:  # such as 1.2.3, 1e-5e-5 or 1e-5.3, whose pairs all pass
        rows = None
    if rows is None or rows.shape != (len(read), width):
        # a refused block: the per-row checks find its first faulty line
        rows = np.array([written_floats(split_fields(text, lineno, path, width), lineno, path)
                         for lineno, text in read])
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():  # an overflow such as 1e+999, the one non-finite value _DECIMAL admits
        raise ParseError(f"{path}: line {read[finite.argmin()][0]}: non-finite value")
    return rows


def next_line(lines, path, expected):
    """The next (lineno, line) of lines; at the end, ParseError names expected."""
    item = next(lines, None)
    if item is None:
        raise ParseError(f"{path}: unexpected end of file, expected {expected}")
    return item


def header_value(lines, path, key, parse):
    """parse of the text after "key " on the next line; ParseError names the line."""
    lineno, line = next_line(lines, path, f"'{key}'")
    name, sep, text = line.partition(" ")
    # "key " would otherwise read as a key with no fields
    if name != key or sep and not text:
        raise ParseError(f"{path}: line {lineno}: expected '{key} ...', got {line!r}")
    try:
        return parse(text)
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from None


def split_fields(line, lineno, path, width):
    """The width fields of a line its writer joined with single spaces; a
    blank line has none.

    ParseError names the line for any other whitespace (a tab, U+3000), a
    run of spaces, a leading or trailing space, or another field count.
    """
    fields = line.split(" ") if line else []
    # every whitespace character but the space is unprintable; split() drops
    # empty fields and also splits on every other whitespace
    if "" in fields or not line.isprintable() and fields != line.split():
        raise ParseError(f"{path}: line {lineno}: fields must be separated by single spaces")
    if len(fields) != width:
        raise ParseError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
    return fields


def ascii_int(text):
    """Parse ASCII digits with an optional leading "-"; int() alone also
    takes "+1", "1_0", surrounding spaces and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


_ITEM = re.compile(r"\S+")
has_whitespace = re.compile(r"\s").search  # \s is exactly str.isspace()


def iter_utf8_lines(path):
    """Yield (line_number, text) pairs from a strictly UTF-8 file.

    Lines are read as bytes first so that a decoding failure can name the
    offending line. Trailing newline characters and a byte order mark at the
    start of the file are stripped.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            yield lineno, text.rstrip("\r\n")


def iter_written_lines(path):
    """iter_utf8_lines of a file one of this package's writers made, each of
    whose lines ends in a newline. ParseError names a last line without one,
    as a file cut short ends in, before any line is read; only the file's
    last byte is checked."""
    with open(path, "rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) not in (b"", b"\n"):
            fh.seek(0)
            raise ParseError(f"{path}: line {sum(1 for _ in fh)}: no newline at the end "
                             "of the last line; the file may be cut short")
    return iter_utf8_lines(path)


def tab_fields(path, n):
    """(lineno, fields) of each non-blank line of a hand-written file, split at
    its first n - 1 tabs, so the last field keeps any further tabs, and stripped;
    ParseError names a line with fewer than n fields or an empty first field."""
    for lineno, line in iter_utf8_lines(path):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split("\t", n - 1)]
        if len(fields) < n or not fields[0]:
            raise ParseError(f"{path}: line {lineno}: expected {n} tab-separated "
                             f"fields, the first not empty")
        yield lineno, fields


def plain_word(word, lineno, path):
    """word, which ParseError refuses, naming the line, if it holds
    whitespace: no corpus token or space row could equal it."""
    if has_whitespace(word):
        raise ParseError(f"{path}: line {lineno}: word {word!r} contains whitespace")
    return word


@contextmanager
def atomic_text_writer(path):
    """Open a UTF-8 text file that appears at path only once fully written.

    Writes go to a new temporary file in path's directory, which replaces
    path when the block ends; if the block raises, the temporary file is
    removed and whatever was at path is left untouched.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class Corpus:
    """Pre-segmented sentences of opaque non-empty unicode tokens, encoded once:
    ``types`` holds each distinct token in first-seen order, ``ids`` one int32
    index into ``types`` per token, and ``starts`` each sentence's first
    position followed by the token count. Iteration decodes one sentence at a time."""

    def __init__(self, sentences):
        index, ids, starts = {}, array("i"), [0]
        for sent in sentences:
            ids.extend([index.setdefault(tok, len(index)) for tok in sent])
            starts.append(len(ids))
        self.types = list(index)
        if not all(self.types):
            raise ValueError("corpus contains an empty token")
        self.ids, self.starts = np.frombuffer(ids, dtype=np.int32), np.array(starts)

    def __len__(self):
        return len(self.starts) - 1

    def __iter__(self):
        types, starts = self.types, self.starts
        for a, b in zip(starts, starts[1:]):
            yield list(map(types.__getitem__, self.ids[a:b].tolist()))

    def total_tokens(self):
        return len(self.ids)


def load_corpus(path):
    """Read one sentence per line, tokens separated by runs of whitespace.

    Whitespace is every str.isspace() character (U+3000 and NBSP among them),
    the set load_space splits on and save_space rejects in a token. Blank
    lines are skipped. Raises ParseError on invalid UTF-8.
    """
    return Corpus(filter(None, (line.split() for _, line in iter_utf8_lines(path))))


@dataclass(slots=True)
class TaggedSentence:
    """A token sequence with a parallel label sequence."""

    tokens: list
    labels: list

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )


def load_tagged_corpus(path):
    """Parse "token/LABEL" items, one sentence per line.

    Items are separated by runs of whitespace, the same set as load_corpus's.
    The label separator is the last "/" of an item, so tokens containing "/"
    survive. Items without a separator, with an empty token or with an empty
    label raise ParseError naming line and column. Equal tokens or labels are
    one string object, as in load_corpus.
    """
    seen = {}
    sentences = []
    for lineno, line in iter_utf8_lines(path):
        tokens, labels = [], []
        for m in _ITEM.finditer(line):
            item = m.group()
            cut = item.rfind("/")
            if cut <= 0 or cut == len(item) - 1:
                raise ParseError(
                    f"{path}: line {lineno}, column {m.start() + 1}: "
                    f"expected token/LABEL, got {item!r}"
                )
            token, label = item[:cut], item[cut + 1:]
            tokens.append(seen.setdefault(token, token))
            labels.append(seen.setdefault(label, label))
        if tokens:
            sentences.append(TaggedSentence(tokens, labels))
    return sentences


def write_tagged_corpus(sentences, fh):
    """Write one "token/LABEL" line per tagged sentence to the text file fh.

    Each sentence is checked just before its line is written. ValueError is
    raised for what load_tagged_corpus would read back differently: an empty
    sentence (a skipped blank line), an empty token or label, whitespace in
    either, "/" in a label, or a byte order mark opening the first token.
    The lines before the failing sentence stay written.
    """
    for k, sent in enumerate(sentences, start=1):
        if not sent.tokens:
            raise ValueError(f"sentence {k} is empty and cannot be saved")
        for tok, label in zip(sent.tokens, sent.labels):
            if not (tok and label) or "/" in label or has_whitespace(tok + label):
                raise ValueError(f"sentence {k}: {tok!r}/{label!r} would not load back")
        if k == 1 and sent.tokens[0].startswith("\ufeff"):
            raise ValueError("sentence 1 starts with a byte order mark, which loading drops")
        fh.write(" ".join(f"{t}/{l}" for t, l in zip(sent.tokens, sent.labels)) + "\n")


def save_tagged_corpus(sentences, path):
    """write_tagged_corpus to path; nothing is written if it raises."""
    with atomic_text_writer(path) as fh:
        write_tagged_corpus(sentences, fh)


class Vocabulary:
    """Token counts in id order: dense 0-based ids by descending term frequency.

    Ties are broken by lexicographic token order, so two builds from the same
    corpus are identical.
    """

    def __init__(self, counts):
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for tok, count in items:
            if not tok:
                raise ValueError("empty token in vocabulary")
            if count < 1:
                raise ValueError(f"token {tok!r} has non-positive count {count}")
        self._tf = dict(items)

    def tf(self, token):
        """Stored term frequency, or 0 for out-of-vocabulary tokens."""
        return self._tf.get(token, 0)

    def __contains__(self, token):
        return token in self._tf

    def __len__(self):
        return len(self._tf)

    def __iter__(self):
        return iter(self._tf)


def build_vocabulary(corpus, min_count=1):
    """Count tokens and keep those occurring at least min_count times."""
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    counts = np.bincount(corpus.ids, minlength=len(corpus.types)).tolist()
    return Vocabulary({t: c for t, c in zip(corpus.types, counts) if c >= min_count})
