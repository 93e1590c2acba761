"""Sememe lexicon parsing, replacement corpora and sememe-sum word vectors.

A lexicon line describes one word sense as an ordered list of sememes, the
first being the basic one. A word's first sense stands for the word, so a
parsed lexicon is a plain dict from word to that sense's sememe list. To give
sememes distributional vectors, whole corpus copies are generated in which
words are replaced by their rank-r sememe; training over the concatenation
puts sememes and surviving words in one shared space. A word's
dictionary-derived vector is then the sum of its sememe vectors.
"""

import re

import numpy as np

from .corpus import Corpus, ParseError, has_whitespace, plain_word, tab_fields
from .embedding import EmbeddingSpace, train_embeddings

# relation markers and whitespace, then a Latin gloss when a non-Latin
# identifier follows it: "*house 房屋" names the sememe "房屋"
_PREFIX = re.compile(r"[*#$%@?!~\s]*(?:[A-Za-z]+(?:[ \t]+[A-Za-z]+)*[ \t]+(?![A-Za-z]))?")


def parse_lexicon(path):
    """Parse a TSV lexicon: word TAB pos TAB comma-separated sememe descriptors.

    Returns a dict from each word to the sememe list of its first line; later
    lines for the same word are checked like any other, then dropped. The POS
    column must be present but is not kept. A word or a sememe identifier
    holding whitespace is an error, since it could never be a corpus token.
    Equal sememe identifiers are one string object.
    """
    seen = {}
    lexicon = {}
    for lineno, (word, _, descriptors) in tab_fields(path, 3):
        plain_word(word, lineno, path)
        sememes = []
        for raw in descriptors.split(","):
            descriptor = raw.strip()
            if not descriptor:
                continue
            ident = descriptor[_PREFIX.match(descriptor).end():]
            if not ident:
                raise ParseError(
                    f"{path}: line {lineno}: descriptor {raw!r} has no "
                    f"sememe identifier"
                )
            if has_whitespace(ident):
                raise ParseError(f"{path}: line {lineno}: sememe identifier "
                                 f"{ident!r} contains whitespace")
            sememes.append(seen.setdefault(ident, ident))
        if not sememes:
            raise ParseError(f"{path}: line {lineno}: empty sememe list for {word!r}")
        lexicon.setdefault(word, sememes)
    return lexicon


def generate_replacement_corpora(corpus, lexicon, max_rank=3):
    """The original corpus plus one full copy per sememe rank.

    In the rank-r copy every token with at least r sememes is replaced by its
    rank-r sememe; other tokens pass through. Output sentence count is
    (max_rank + 1) times the input's. A sememe spelled like a corpus token
    shares its type.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    index = dict(zip(corpus.types, range(len(corpus.types))))
    senses = [lexicon.get(t, ()) for t in corpus.types]
    # each type's id in the rank-r copy: its rank-r sememe's, or its own
    remap = np.array([[index.setdefault(s[r - 1], len(index)) if 0 < r <= len(s) else i
                       for i, s in enumerate(senses)] for r in range(max_rank + 1)], np.int32)
    # the type table read as one sentence gets a corpus's checks; the copies replace it
    expanded = Corpus([list(index)])
    expanded.ids = remap[:, corpus.ids].ravel()
    copies = corpus.starts[:-1] + corpus.total_tokens() * np.arange(max_rank + 1)[:, None]
    expanded.starts = np.append(copies, expanded.total_tokens())
    return expanded


def build_sememe_space(corpus, lexicon, config, max_rank=3):
    """Train one space over the replacement corpora.

    Sememe tokens and surviving word tokens share the space, so cosines
    between them are meaningful.
    """
    expanded = generate_replacement_corpora(corpus, lexicon, max_rank)
    return train_embeddings(expanded, config, name="sememe")


def hownet_space(lexicon, sememe_space):
    """The space named "hownet" of the lexicon words' sememe-sum vectors.

    A word's row is the componentwise sum of its sememe vectors; sememes
    without a vector are skipped, and a word none of whose sememes has one
    gets no row. Summation runs in sorted sememe order, so equal sememe
    multisets produce bitwise-equal vectors.
    """
    space = EmbeddingSpace(sememe_space.dim, name="hownet")
    words, sums = [], np.empty((len(lexicon), space.dim))
    for word, sememes in lexicon.items():
        present = [v for v in map(sememe_space.get, sorted(sememes)) if v is not None]
        if present:
            sums[len(words)] = sum(present, np.zeros(space.dim))
            words.append(word)
    space.add_rows(words, sums[:len(words)])
    return space


def make_hownet_fn(lexicon, sememe_space):
    """A word -> vector-or-None lookup into the lexicon's hownet_space."""
    return hownet_space(lexicon, sememe_space).get
