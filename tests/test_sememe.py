import hashlib
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    corpora,
    descriptor_oracle,
    lexicons,
    replacement_corpora_oracle,
    round_trip,
    traced_peak,
)
from sememevec.corpus import Corpus, ParseError
from sememevec.embedding import EmbeddingSpace, TrainConfig, cosine
from sememevec.sememe import (
    build_sememe_space,
    generate_replacement_corpora,
    hownet_space,
    make_hownet_fn,
    parse_lexicon,
)


def write_lexicon(tmp_path, text):
    p = tmp_path / "lex.tsv"
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestParsing:
    def test_markers_stripped(self, tmp_path):
        p = write_lexicon(tmp_path, "房租\tN\t费用,*借入,#房屋\n")
        lex = parse_lexicon(p)
        assert lex["房租"] == ["费用", "借入", "房屋"]

    def test_all_marker_characters(self, tmp_path):
        p = write_lexicon(tmp_path, "词\tN\t*甲,#乙,$丙,%丁,@戊,?己,!庚,~辛\n")
        lex = parse_lexicon(p)
        assert lex["词"] == ["甲", "乙", "丙", "丁", "戊", "己", "庚", "辛"]

    def test_latin_gloss_stripped(self, tmp_path):
        p = write_lexicon(tmp_path, "薪水\tN\tfee 费用,salary money 报酬\n")
        lex = parse_lexicon(p)
        assert lex["薪水"] == ["费用", "报酬"]

    def test_marker_then_gloss(self, tmp_path):
        p = write_lexicon(tmp_path, "词\tN\t*fee 费用\n")
        assert parse_lexicon(p)["词"] == ["费用"]

    def test_pure_latin_descriptor_kept(self, tmp_path):
        # a descriptor that is only Latin text must not vanish
        p = write_lexicon(tmp_path, "词\tN\ttime\n")
        assert parse_lexicon(p)["词"] == ["time"]

    def test_gloss_before_latin_refused(self, tmp_path):
        # only a non-Latin identifier ends a gloss, so this is one identifier
        p = write_lexicon(tmp_path, "房租\tN\t费用\n房子\tN\tbig house\n")
        with pytest.raises(ParseError, match="line 2: sememe identifier 'big house' "
                                             "contains whitespace"):
            parse_lexicon(p)

    def test_multiple_entries_per_word(self, tmp_path):
        p = write_lexicon(tmp_path, "打\tV\t击打\n打\tN\t量词\n")
        lex = parse_lexicon(p)
        assert lex["打"] == ["击打"]

    def test_later_sense_still_checked(self, tmp_path):
        p = write_lexicon(tmp_path, "打\tV\t击打\n打\tN\t*\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_lexicon(p)

    def test_too_few_fields(self, tmp_path):
        p = write_lexicon(tmp_path, "词\tN\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_lexicon(p)

    def test_empty_word(self, tmp_path):
        p = write_lexicon(tmp_path, "\tN\t甲\n")
        with pytest.raises(ParseError):
            parse_lexicon(p)

    def test_empty_sememe_list(self, tmp_path):
        p = write_lexicon(tmp_path, "词\tN\t,\n")
        with pytest.raises(ParseError):
            parse_lexicon(p)

    def test_marker_only_descriptor(self, tmp_path):
        p = write_lexicon(tmp_path, "词\tN\t*\n")
        with pytest.raises(ParseError):
            parse_lexicon(p)

    # no space file could hold such a sememe's row, so building would fail late
    @pytest.mark.parametrize("sememe", ["房 屋", "时间\u3000点", "fee 房\xa0屋"])
    def test_sememe_with_whitespace_rejected(self, tmp_path, sememe):
        p = write_lexicon(tmp_path, f"房租\tN\t费用\n打\tV\t击打,{sememe}\n")
        with pytest.raises(ParseError, match="line 2: sememe identifier .* contains whitespace"):
            parse_lexicon(p)

    # load_corpus splits on it, so no corpus token could ever be such a word
    @pytest.mark.parametrize("word", ["房 租", "房\u3000租", "房\xa0租"])
    def test_word_with_whitespace_rejected(self, tmp_path, word):
        p = write_lexicon(tmp_path, f"打\tV\t击打\n{word}\tN\t费用\n")
        with pytest.raises(ParseError, match="line 2: word .* contains whitespace"):
            parse_lexicon(p)

    def test_unknown_word_absent(self, tmp_path):
        p = write_lexicon(tmp_path, "词\tN\t甲\n")
        lex = parse_lexicon(p)
        assert "别的" not in lex


descriptors = st.text(st.one_of(
    st.sampled_from("*#$%@?!~ \t\u3000\xa0\x1c"),
    st.sampled_from(string.ascii_letters),
    st.sampled_from(string.digits + "-"),
    st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
), max_size=10).filter(str.strip)


def write_text(text, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(descriptor=descriptors)
def test_descriptor_identifier_matches_oracle(descriptor):
    want = descriptor_oracle(descriptor)
    line = f"词\tN\t{descriptor}\n"
    if not want:
        with pytest.raises(ParseError, match="line 1: descriptor .* has no sememe identifier"):
            round_trip(write_text, parse_lexicon, line)
    elif any(map(str.isspace, want)):
        with pytest.raises(ParseError, match="line 1: sememe identifier .* contains whitespace"):
            round_trip(write_text, parse_lexicon, line)
    else:
        assert round_trip(write_text, parse_lexicon, line) == {"词": [want]}


class TestReplacementCorpora:
    def lexicon(self):
        return {"猫": ["动物", "宠物"], "狗": ["动物"]}

    def test_counts(self):
        c = Corpus([["猫", "追", "狗"], ["狗", "叫"]])
        reps = generate_replacement_corpora(c, self.lexicon(), max_rank=3)
        assert len(reps) == 4 * len(c)

    def test_rank_substitution(self):
        c = Corpus([["猫", "追", "狗"]])
        reps = generate_replacement_corpora(c, self.lexicon(), max_rank=2)
        sents = list(reps)
        assert sents[0] == ["猫", "追", "狗"]
        # rank 1 substitutes every covered word's first sememe
        assert ["动物", "追", "动物"] in sents
        # rank 2 substitutes only words with a second sememe
        assert ["宠物", "追", "狗"] in sents

    def test_uncovered_words_unchanged(self):
        c = Corpus([["追", "叫"]])
        reps = generate_replacement_corpora(c, self.lexicon(), max_rank=3)
        assert all(s == ["追", "叫"] for s in reps)

    def test_max_rank_below_1_rejected(self):
        with pytest.raises(ValueError, match="max_rank must be at least 1"):
            generate_replacement_corpora(Corpus([["猫"]]), self.lexicon(), max_rank=0)

    def test_empty_sememe_rejected(self):
        with pytest.raises(ValueError, match="corpus contains an empty token"):
            generate_replacement_corpora(Corpus([["猫"]]), {"猫": [""]}, max_rank=1)

    def test_sememe_named_like_a_word_shares_its_type(self):
        c = Corpus([["猫", "追", "狗"], ["动物"]])
        reps = generate_replacement_corpora(c, self.lexicon(), max_rank=1)
        assert reps.types == ["猫", "追", "狗", "动物"]
        assert list(reps)[2:] == [["动物", "追", "动物"], ["动物"]]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_replacement_corpora_match_oracle(data):
    sents = data.draw(corpora())
    lexicon = data.draw(lexicons(sents))
    max_rank = data.draw(st.integers(1, 4))
    c = Corpus(sents)
    reps = generate_replacement_corpora(c, lexicon, max_rank)
    assert list(reps) == replacement_corpora_oracle(sents, lexicon, max_rank)
    assert reps.total_tokens() == (max_rank + 1) * c.total_tokens()
    # a sememe spelled like a corpus word, or like another rank's sememe, is one type
    assert reps.types[:len(c.types)] == c.types
    assert len(set(reps.types)) == len(reps.types)


def test_replacement_copies_cost_ids_not_token_lists():
    rng = np.random.default_rng(5)
    words = [f"词{i}" for i in range(300)]
    lexicon = {w: [f"义{j}" for j in rng.integers(0, 80, rng.integers(1, 5))]
               for w in words[::3] + words[1::3]}
    base = [[words[i] for i in rng.integers(0, len(words), rng.integers(1, 20))]
            for _ in range(500)]
    added = 7 * sum(map(len, base)) * 4  # expanded tokens that 8 copies of base add
    small, large = Corpus(base), Corpus(base * 8)
    growth = (traced_peak(generate_replacement_corpora, large, lexicon, 3)
              - traced_peak(generate_replacement_corpora, small, lexicon, 3))
    # int32 ids and the gather's index copy read 8 bytes per expanded token, token lists 16
    assert growth / added < 12


class TestHownetVector:
    def space(self):
        s = EmbeddingSpace(3, name="sememe")
        s.add("费用", np.array([1.0, 0.0, 0.0]))
        s.add("借入", np.array([0.0, 1.0, 0.0]))
        s.add("房屋", np.array([0.0, 0.0, 1.0]))
        return s

    def lexicon(self):
        return {"房租": ["费用", "借入", "房屋"], "费用": ["费用"]}

    def test_sum_of_sememe_vectors(self):
        sp = hownet_space(self.lexicon(), self.space())
        assert sp.name == "hownet" and sp.dim == 3
        assert sorted(sp.tokens) == ["房租", "费用"]
        assert np.allclose(sp.get("房租"), [1.0, 1.0, 1.0], atol=1e-12)

    def test_theta_of_word_differs_from_own_sememe(self):
        sp = hownet_space(self.lexicon(), self.space())
        assert not np.allclose(sp.get("房租"), sp.get("费用"))

    def test_absent_word(self):
        assert hownet_space(self.lexicon(), self.space()).get("别的") is None

    def test_no_sememe_has_vector(self):
        sp = hownet_space({"词": ["不存在"]}, self.space())
        assert sp.get("词") is None
        # an empty space is falsy, so callers test for a source with `is None`
        assert len(sp) == 0 and not sp

    def test_missing_sememes_skipped(self):
        sp = hownet_space({"词": ["费用", "不存在"]}, self.space())
        assert np.allclose(sp.get("词"), [1.0, 0.0, 0.0])

    def test_identical_sememe_lists_identical_vectors(self):
        lex = {"薪水": ["费用", "借入"], "工资": ["费用", "借入"]}
        sp = hownet_space(lex, self.space())
        a, b = sp.get("薪水"), sp.get("工资")
        assert np.array_equal(a, b)
        assert cosine(a, b) == 1.0

    def test_order_invariance_bitwise(self):
        # same multiset of sememes, different listing order
        rng = np.random.default_rng(5)
        sememes = EmbeddingSpace(8)
        names = [f"s{i}" for i in range(6)]
        for n in names:
            sememes.add(n, rng.normal(0, 1, 8))
        sp = hownet_space({"甲": names, "乙": list(reversed(names))}, sememes)
        assert np.array_equal(sp.get("甲"), sp.get("乙"))

    def test_make_hownet_fn(self):
        fn = make_hownet_fn(self.lexicon(), self.space())
        assert np.allclose(fn("房租"), [1.0, 1.0, 1.0])
        assert fn("别的") is None


class TestSememeSpaceTraining:
    def test_space_covers_sememes(self):
        lex = {"猫": ["动物", "宠物"]}
        rng = np.random.default_rng(6)
        sents = [["猫", "来", "了"] for _ in range(20)]
        c = Corpus(sents)
        cfg = TrainConfig(dim=6, window=2, negative=2, epochs=2, seed=4)
        sp = build_sememe_space(c, lex, cfg)
        assert "动物" in sp and "宠物" in sp and "猫" in sp
        assert sp.dim == 6


# multi-sense words (only the first line counts), words with fewer sememes
# than max_rank (2 below), and sememes that get no vector: rank-3 sememes,
# later senses, and the sememe of 庚, which the corpus never uses
DIGEST_LEXICON = (
    "甲\tN\t物,*动物,#宠物\n"
    "乙\tV\t动作,移动,离开\n"
    "甲\tV\t击打\n"
    "丙\tN\t物\n"
    "丙\tV\t未用\n"
    "丁\tADJ\tbig 大,~颜色\n"
    "戊\tN\t植物,物\n"
    "庚\tN\t远方\n"
)
DIGEST_WORDS = ["甲", "乙", "丙", "丁", "戊", "己", "庚", "辛"]


def digest_corpus(seed=17, n=60):
    rng = np.random.default_rng(seed)
    words = DIGEST_WORDS[:6] + ["来", "了", "的"]
    return Corpus([
        [words[rng.integers(len(words))] for _ in range(rng.integers(2, 8))]
        for _ in range(n)
    ])


# sha256 of the sememe space (token order plus row bytes) and of every
# word's hownet_space row, recorded from the mini-batch trainer with one
# skip-gram step per center and shared noise words, every batch worked on
# its distinct rows, under one and two BLAS threads
SEMEME_SPACE_DIGEST = (
    "93d91ee31b5c808a3beff3d9955bcee515aeb06a9fb7f4670b3a662b87033268"
)
HOWNET_DIGEST = (
    "28a46192add5bcf98bf27890f551c7fc9241227851c66146016d860c1c133630"
)


@pytest.mark.two_blas_threads
class TestSememeDigest:
    """Pins the sememe layer bit for bit: space training and sememe sums."""

    def build(self, tmp_path):
        lex = parse_lexicon(write_lexicon(tmp_path, DIGEST_LEXICON))
        cfg = TrainConfig(dim=8, window=2, negative=3, epochs=2, seed=5)
        return lex, build_sememe_space(digest_corpus(), lex, cfg, max_rank=2)

    def test_space_pinned(self, tmp_path):
        _, space = self.build(tmp_path)
        h = hashlib.sha256()
        for token in space.tokens:
            h.update(token.encode("utf-8") + b"\0")
            h.update(space.get(token).tobytes())
        for missing in ("宠物", "离开", "击打", "未用", "远方"):
            assert missing not in space
        assert h.hexdigest() == SEMEME_SPACE_DIGEST

    def test_hownet_vectors_pinned(self, tmp_path):
        lex, space = self.build(tmp_path)
        hownet = hownet_space(lex, space)
        h = hashlib.sha256()
        for word in DIGEST_WORDS:
            vec = hownet.get(word)
            h.update(word.encode("utf-8") + b"\0")
            h.update(b"none" if vec is None else vec.tobytes())
        assert h.hexdigest() == HOWNET_DIGEST
