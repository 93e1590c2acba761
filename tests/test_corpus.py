import io
import os
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sememevec.cli
from conftest import (
    character_corpus_oracle,
    corpora,
    entity_types,
    round_trip,
    tokens,
    vocabulary_oracle,
)
from sememevec.corpus import (
    Corpus,
    ParseError,
    TaggedSentence,
    Vocabulary,
    atomic_text_writer,
    build_vocabulary,
    load_corpus,
    load_tagged_corpus,
    save_tagged_corpus,
    write_tagged_corpus,
)
from sememevec.cli import build_parser
from sememevec.embedding import EmbeddingSpace, corpus_to_characters, save_space
from sememevec.evaluate import load_judgements
from sememevec.morphsim import SimilarityModel, load_thesaurus, save_similarity_model
from sememevec.sememe import generate_replacement_corpora, parse_lexicon
from sememevec.tagger import FeatureSpec, LabelScheme, TaggerModel, save_tagger


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCorpus:
    # blank lines are skipped, every run of str.isspace() characters separates
    # tokens, as load_space splits on, and CRLF and a byte order mark are dropped
    @pytest.mark.parametrize("text, sentences", [
        ("我 爱 北京\n他 去 上海\n", [["我", "爱", "北京"], ["他", "去", "上海"]]),
        ("a b\n\n   \nc\n", [["a", "b"], ["c"]]),
        ("a\t\tb   c\t d\n", [["a", "b", "c", "d"]]),
        ("房\u3000租 a\u00a0b\u2003c\n", [["房", "租", "a", "b", "c"]]),
        ("a b\r\nc d\r\n", [["a", "b"], ["c", "d"]]),
        ("\ufeff房租 上涨\n房租 下降\n", [["房租", "上涨"], ["房租", "下降"]]),
    ])
    def test_load(self, tmp_path, text, sentences):
        c = load_corpus(write(tmp_path / "c.txt", text))
        assert list(c) == sentences
        assert len(c) == len(sentences) and c.total_tokens() == sum(map(len, sentences))

    def test_bad_utf8_names_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"ok line\n\xff\xfe broken\n")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(str(p))

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError, match="corpus contains an empty token"):
            Corpus([["a", ""]])

    def test_encoded_once(self):
        c = Corpus([["猫", "追", "狗"], [], ["狗", "叫"]])
        assert c.types == ["猫", "追", "狗", "叫"]
        assert c.ids.dtype == np.int32 and c.ids.tolist() == [0, 1, 2, 2, 3]
        assert c.starts.tolist() == [0, 3, 3, 5]


@settings(max_examples=100)
@given(sents=corpora(), min_count=st.integers(1, 3))
def test_corpus_and_vocabulary_match_oracles(sents, min_count):
    c = Corpus(sents)
    assert list(c) == sents
    assert len(c) == len(sents) and c.total_tokens() == sum(map(len, sents))
    assert c.types == list(dict.fromkeys(t for sent in sents for t in sent))
    v = build_vocabulary(c, min_count)
    assert [(t, v.tf(t)) for t in v] == vocabulary_oracle(sents, min_count)
    chars, joined = corpus_to_characters(c), character_corpus_oracle(c)
    assert list(chars) == [list("".join(sent)) for sent in sents]
    # the per-type character table encodes what joining each sentence does
    assert chars.types == joined.types
    for a, b in ((chars.ids, joined.ids), (chars.starts, joined.starts)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class _Revised(Exception):
    pass


def revise_targets(path):
    """The words `revise --targets path` adds to those of a one-row space
    and a one-token corpus; the revision itself does not run."""
    d = pathlib.Path(path).parent
    space = EmbeddingSpace(2)
    space.add("旧", [1.0, 0.0])
    save_space(space, str(d / "s.vec"))
    save_similarity_model(SimilarityModel(), str(d / "sim.model"))

    def capture(targets, *_):
        raise _Revised(targets - {"旧"})

    args = build_parser().parse_args([
        "revise", "--space", str(d / "s.vec"), "--corpus", write(d / "c.txt", "旧\n"),
        "--model", str(d / "sim.model"), "--out", str(d / "o.vec"), "--targets", path])
    with mock.patch.object(sememevec.cli, "build_combined_space", capture):
        with pytest.raises(_Revised) as revised:
            args.func(args)
    return revised.value.args[0]


READERS = {"lexicon": parse_lexicon, "thesaurus": load_thesaurus,
           "judgements": load_judgements, "targets": revise_targets}
FIELDS_3 = "expected 3 tab-separated fields, the first not empty"
FIELDS_2 = "expected 2 tab-separated fields, the first not empty"


def whitespace(lineno, word):
    return f"line {lineno}: word {word!r} contains whitespace"


class TestHandWrittenReaders:
    """The four readers of hand-written files, all through corpus.tab_fields:
    each case is a file's text and what reading it gives, or the message of
    the ParseError it raises, after the path."""

    @pytest.mark.parametrize("reader, text, expected", [
        # blank, whitespace-only and CRLF lines are skipped
        ("lexicon", "\n \t\u3000\n词\tN\t费用\r\n\r\n", {"词": ["费用"]}),
        ("thesaurus", "\n \t\u3000\nA01\tx y\r\n\r\n", {"A01": {"x", "y"}}),
        ("judgements", "\n \t\u3000\n甲\t乙\t1\r\n\r\n", [("甲", "乙", 1.0)]),
        ("targets", "\n \t\u3000\n新词\r\n\r\n", {"新词"}),
        # a missing field or an empty first field names its line
        ("lexicon", "词\tN\t费用\n词\tN\n", f"line 2: {FIELDS_3}"),
        ("lexicon", "词\tN\t费用\n \tN\t费用\n", f"line 2: {FIELDS_3}"),
        ("thesaurus", "A01\tx\nA02\n", f"line 2: {FIELDS_2}"),
        ("thesaurus", "A01\tx\n\u3000\ty\n", f"line 2: {FIELDS_2}"),
        ("thesaurus", "A01\tx\nA02\t\n", "line 2: category has no words"),
        ("judgements", "甲\t乙\t1\n甲\t乙\n", f"line 2: {FIELDS_3}"),
        ("judgements", "甲\t乙\t1\n\t乙\t1\n", f"line 2: {FIELDS_3}"),
        ("judgements", "甲\t乙\t1\n甲\t \t1\n", "line 2: empty word"),
        # a word holding U+3000 or NBSP names its line; a thesaurus line's
        # members are split at any whitespace
        ("lexicon", "词\tN\t费用\n房\u3000租\tN\t费用\n", whitespace(2, "房\u3000租")),
        ("lexicon", "词\tN\t费用\n房\xa0租\tN\t费用\n", whitespace(2, "房\xa0租")),
        ("thesaurus", "A01\tx\u3000y\xa0z\n", {"A01": {"x", "y", "z"}}),
        ("judgements", "甲\t乙\t1\n甲\u3000乙\t丙\t1\n", whitespace(2, "甲\u3000乙")),
        ("judgements", "甲\t乙\t1\n甲\t乙\xa0丙\t1\n", whitespace(2, "乙\xa0丙")),
        ("targets", "新词\n新\u3000词\n", whitespace(2, "新\u3000词")),
        ("targets", "新词\n新\xa0词\n", whitespace(2, "新\xa0词")),
        # further tabs go to the last field
        ("lexicon", "词\tN\t费用\t\n", {"词": ["费用"]}),
        ("thesaurus", "A01\tx\ty z\n", {"A01": {"x", "y", "z"}}),
        ("judgements", "甲\t乙\t1\t\n", [("甲", "乙", 1.0)]),
        ("judgements", "甲\t乙\t1\t2\n", "line 1: non-numeric value"),
        ("targets", "新\t词\n", whitespace(1, "新\t词")),
    ])
    def test_reads(self, tmp_path, reader, text, expected):
        path = write(tmp_path / "hand.tsv", text)
        if isinstance(expected, str):
            with pytest.raises(ParseError) as error:
                READERS[reader](path)
            assert str(error.value) == f"{path}: {expected}"
        else:
            assert READERS[reader](path) == expected


class TestTaggedCorpus:
    # a token may itself hold "/": the last one separates the label
    @pytest.mark.parametrize("text, tokens, labels", [
        ("今天/B-Date 开会/O\n", ["今天", "开会"], ["B-Date", "O"]),
        ("3/4/O\n", ["3/4"], ["O"]),
        ("今天/B-Date\u3000开会/O\n", ["今天", "开会"], ["B-Date", "O"]),
    ])
    def test_load(self, tmp_path, text, tokens, labels):
        assert load_tagged_corpus(write(tmp_path / "t.txt", text)) == [
            TaggedSentence(tokens, labels)]

    # the column counts a U+3000 separator as one character
    @pytest.mark.parametrize("text, column, item", [
        ("今天/B-Date\u3000开会\n", 11, "开会"),
        ("今天/B-Date 开会\n", 11, "开会"),
        ("今天/\n", 1, "今天/"),
        ("/O\n", 1, "/O"),
    ])
    def test_item_without_token_or_label_rejected(self, tmp_path, text, column, item):
        path = write(tmp_path / "t.txt", text)
        with pytest.raises(ParseError) as exc:
            load_tagged_corpus(path)
        assert str(exc.value) == (
            f"{path}: line 1, column {column}: expected token/LABEL, got {item!r}")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TaggedSentence(["a", "b"], ["O"])

    def test_round_trip(self, tmp_path):
        sents = [TaggedSentence(["今天", "好"], ["B-Date", "O"])]
        p = tmp_path / "out.txt"
        save_tagged_corpus(sents, str(p))
        back = load_tagged_corpus(str(p))
        assert back[0].tokens == sents[0].tokens
        assert back[0].labels == sents[0].labels

    def test_empty_sentence_rejected_before_writing(self, tmp_path):
        # a blank line loads back as no sentence, merging its neighbours' count
        sents = [TaggedSentence(["今天"], ["B-Date"]), TaggedSentence([], [])]
        p = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="sentence 2 is empty"):
            save_tagged_corpus(sents, str(p))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("token, label", [
        ("c", ""),             # written as "c/", which has no label
        ("c", "B-X/Y"),        # loads back as token "c/B-X" with label "Y"
        ("c", "B-X Y"),        # the space splits the item
        ("c", "B-X\u3000Y"),   # so does any str.isspace() character
        ("", "O"),             # written as "/O", which has no token
        ("a b", "O"),          # loads back as item "a", which has no label
        ("a\u3000b", "O"),     # so does U+3000 in a token
    ])
    def test_item_that_loads_back_differently_rejected(self, tmp_path, token, label):
        sents = [TaggedSentence(["今天"], ["B-Date"]), TaggedSentence([token], [label])]
        p = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="sentence 2: .* would not load back"):
            save_tagged_corpus(sents, str(p))
        assert os.listdir(tmp_path) == []
        # each sentence is checked just before its line is written
        buf = io.StringIO()
        with pytest.raises(ValueError, match="sentence 2: .* would not load back"):
            write_tagged_corpus(sents, buf)
        assert buf.getvalue() == "今天/B-Date\n"

    def test_slash_in_token_round_trips(self, tmp_path):
        sents = [TaggedSentence(["1/2", "a/"], ["O", "B-X"])]
        p = tmp_path / "out.txt"
        save_tagged_corpus(sents, str(p))
        assert load_tagged_corpus(str(p)) == sents

    def test_leading_byte_order_mark_rejected(self, tmp_path):
        # the loader drops U+FEFF at the start of a file, so "\ufeffa/O"
        # would load back as token "a"
        sents = [TaggedSentence(["\ufeff今天"], ["B-Date"])]
        p = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="byte order mark"):
            save_tagged_corpus(sents, str(p))
        assert os.listdir(tmp_path) == []


# tokens with "/" anywhere in them, alone or repeated
slashed_tokens = st.lists(st.just("/") | tokens, min_size=1, max_size=4).map("".join)


@settings(max_examples=100)
@given(data=st.data())
def test_tagged_corpus_round_trips(data):
    scheme = LabelScheme(data.draw(st.lists(entity_types, unique=True, max_size=3)))
    item = st.tuples(slashed_tokens, st.sampled_from(scheme.labels))
    sents = [TaggedSentence(*map(list, zip(*items)))
             for items in data.draw(st.lists(st.lists(item, min_size=1, max_size=5),
                                             max_size=4))]
    assert round_trip(save_tagged_corpus, load_tagged_corpus, sents) == sents


def failing_sentences(directory):
    yield TaggedSentence(["今天"], ["B-Date"])
    # the first line went to the temporary file before the source failed
    assert any(name.endswith(".tmp") for name in os.listdir(directory))
    raise RuntimeError("source failed mid-write")


def tagger_with_bad_row():
    # set after construction, which refuses it
    spec = FeatureSpec(dim=1, window_radius=0, use_hownet=False, use_char=False)
    model = TaggerModel(np.zeros((3, 1)), np.zeros(3), 1.0, spec=spec,
                        scheme=LabelScheme(["D"]))
    model.weights = np.array([[0.5], [None], [1.0]], dtype=object)
    return model


def similarity_with_bad_field():
    # set after construction, which refuses it
    model = SimilarityModel(w_lcs=1.0)
    model.w_edit = "x"
    return model


def space_with_bad_token():
    space = EmbeddingSpace(2)
    space.add("好", [1.0, 2.0])
    space.add("房\u3000租", [3.0, 4.0])
    return space


# each writer gets an input that fails after part of the file could be written
FAILING_SAVES = {
    "space": lambda path: save_space(space_with_bad_token(), path),
    "similarity": lambda path: save_similarity_model(similarity_with_bad_field(), path),
    "tagger": lambda path: save_tagger(tagger_with_bad_row(), path),
    "tagged": lambda path: save_tagged_corpus(failing_sentences(os.path.dirname(path)), path),
}


class TestAtomicWrite:
    def test_complete_file_replaces_target(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old\n", encoding="utf-8")
        with atomic_text_writer(str(p)) as fh:
            fh.write("new\n")
            assert p.read_text(encoding="utf-8") == "old\n"
        assert p.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("writer", list(FAILING_SAVES))
    def test_failed_save_leaves_no_file(self, writer, tmp_path):
        p = tmp_path / "out"
        with pytest.raises((ValueError, TypeError, RuntimeError)):
            FAILING_SAVES[writer](str(p))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("writer", list(FAILING_SAVES))
    def test_failed_save_keeps_existing_file(self, writer, tmp_path):
        p = tmp_path / "out"
        p.write_bytes(b"earlier artifact\n")
        with pytest.raises((ValueError, TypeError, RuntimeError)):
            FAILING_SAVES[writer](str(p))
        assert p.read_bytes() == b"earlier artifact\n"
        assert os.listdir(tmp_path) == ["out"]


class TestVocabulary:
    def test_counts_and_order(self):
        c = Corpus([["b", "a", "b"], ["c", "b", "a"]])
        v = build_vocabulary(c)
        # sorted by frequency desc, then token
        assert list(v) == ["b", "a", "c"]
        assert v.tf("b") == 3
        assert v.tf("a") == 2
        assert v.tf("missing") == 0
        assert "a" in v and "zzz" not in v

    def test_oracle_recount(self):
        # independent recount with a plain dict walk
        c = Corpus([["x", "y", "x", "z"], ["y", "x"]])
        v = build_vocabulary(c)
        counts = {}
        for sent in c:
            for tok in sent:
                counts[tok] = counts.get(tok, 0) + 1
        assert {t: v.tf(t) for t in v} == counts

    def test_min_count(self):
        c = Corpus([["a", "a", "b"]])
        v = build_vocabulary(c, min_count=2)
        assert list(v) == ["a"]

    def test_frequency_tie_breaks_by_token(self):
        c = Corpus([["d", "c", "b", "a"]])
        assert list(build_vocabulary(c)) == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("make, message", [
        (lambda: Vocabulary({"a": 1, "": 2}), "empty token in vocabulary"),
        (lambda: Vocabulary({"a": 1, "b": 0}), "token 'b' has non-positive count 0"),
        (lambda: build_vocabulary(Corpus([["a"]]), min_count=0),
         "min_count must be at least 1"),
    ], ids=["empty-token", "count-below-1", "min-count-0"])
    def test_invalid_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_empty_vocabulary(self):
        v = Vocabulary({})
        assert len(v) == 0
        assert list(v) == []


# Each reader's strings, from a small file that repeats them. Single Latin-1
# characters are left out: CPython keeps one object for each of those anyway.
CORPUS_TEXT = "今天 开会 北京\n北京 今天\u3000开会 今天\n"
TAGGED_TEXT = "今天/B-Date 开会/O-Tag 今天/B-Date\n开会/O-Tag 开会/B-Date\n"
LEXICON_TEXT = "今天\tN\t时间,*现在\n北京\tN\t地方,首都,时间\n开会\tV\t*现在,地方\n"
STRINGS_READ = {
    "load_corpus tokens": (CORPUS_TEXT, lambda p: [t for s in load_corpus(p) for t in s]),
    "load_tagged_corpus tokens":
        (TAGGED_TEXT, lambda p: [t for s in load_tagged_corpus(p) for t in s.tokens]),
    "load_tagged_corpus labels":
        (TAGGED_TEXT, lambda p: [t for s in load_tagged_corpus(p) for t in s.labels]),
    "corpus_to_characters":
        (CORPUS_TEXT, lambda p: [c for s in corpus_to_characters(load_corpus(p)) for c in s]),
    "parse_lexicon sememes":
        (LEXICON_TEXT, lambda p: [m for ms in parse_lexicon(p).values() for m in ms]),
}


@pytest.mark.parametrize("reader", STRINGS_READ)
def test_one_string_object_per_distinct_value(tmp_path, reader):
    text, read = STRINGS_READ[reader]
    path = write(tmp_path / "in.txt", text)
    items = read(path)
    assert len(set(items)) < len(items)
    assert len({id(x) for x in items}) == len(set(items))
    # the objects belong to one call's result: a second read shares none
    again = read(path)
    assert not {id(x) for x in items} & {id(x) for x in again}


def test_replacement_corpora_reuse_corpus_and_lexicon_strings(tmp_path):
    corpus = load_corpus(write(tmp_path / "c.txt", CORPUS_TEXT))
    lexicon = parse_lexicon(write(tmp_path / "lex.tsv", LEXICON_TEXT))
    expanded = generate_replacement_corpora(corpus, lexicon, max_rank=3)
    owned = {id(t) for s in corpus for t in s} | {id(m) for ms in lexicon.values() for m in ms}
    assert all(id(t) in owned for s in expanded for t in s)
