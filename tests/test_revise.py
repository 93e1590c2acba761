import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

import sememevec.morphsim
import sememevec.revise
from sememevec.corpus import Corpus, build_vocabulary
from sememevec.embedding import EmbeddingSpace, save_space
from sememevec.morphsim import (
    SimilarityModel,
    build_pairs,
    top_k_similar,
    train_perceptron,
)
from sememevec.revise import (
    CombinedSpaceConfig,
    build_combined_space,
    combine,
    similar_word_vector,
    tf_bucket,
)


def bucket_oracle(tf):
    # direct restatement of the five conditions
    if tf > 100:
        return 4
    if 20 < tf <= 100:
        return 3
    if 5 < tf <= 20:
        return 2
    if 2 < tf <= 5:
        return 1
    return 0


class TestTfBucket:
    def test_branch_boundaries(self):
        expected = {150: 4, 101: 4, 100: 3, 21: 3, 20: 2, 6: 2, 5: 1, 3: 1, 2: 0, 0: 0}
        for tf, want in expected.items():
            assert tf_bucket(tf) == want

    def test_oracle_equivalence(self):
        for tf in range(0, 1001):
            assert tf_bucket(tf) == bucket_oracle(tf)

    def test_monotone(self):
        values = [tf_bucket(tf) for tf in range(0, 201)]
        assert all(b <= a for b, a in zip(values, values[1:]))
        assert set(values) <= {0, 1, 2, 3, 4}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tf_bucket(-1)


def fixture_space_vocab():
    space = EmbeddingSpace(2, name="original")
    space.add("常见", np.array([1.0, 0.0]))
    space.add("偶见", np.array([0.0, 1.0]))
    space.add("罕见", np.array([4.0, 4.0]))
    # tf: 常见 150 (bucket 4), 偶见 10 (bucket 2), 罕见 1 (bucket 0)
    vocab = build_vocabulary(Corpus([["常见"] * 150 + ["偶见"] * 10 + ["罕见"]]))
    return space, vocab


class TestSimilarWordVector:
    def test_weighted_average(self):
        space, vocab = fixture_space_vocab()
        got = similar_word_vector([("常见", 0.9), ("偶见", 0.8)], space, vocab)
        # buckets 4 and 2: (4*[1,0] + 2*[0,1]) / 6
        assert np.allclose(got, [4.0 / 6.0, 2.0 / 6.0], atol=1e-12)

    def test_single_neighbor_is_exact(self):
        space, vocab = fixture_space_vocab()
        got = similar_word_vector([("常见", 0.9)], space, vocab)
        assert np.array_equal(got, [1.0, 0.0])

    def test_all_zero_buckets_mean(self):
        space, vocab = fixture_space_vocab()
        got = similar_word_vector([("罕见", 0.9), ("不在", 0.8)], space, vocab)
        assert np.array_equal(got, [4.0, 4.0])

    def test_absent_neighbors_skipped(self):
        space, vocab = fixture_space_vocab()
        got = similar_word_vector([("不在", 0.9), ("常见", 0.8)], space, vocab)
        assert np.array_equal(got, [1.0, 0.0])

    def test_no_neighbor_has_vector(self):
        space, vocab = fixture_space_vocab()
        assert similar_word_vector([("不在", 0.9)], space, vocab) is None
        assert similar_word_vector([], space, vocab) is None

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(13)
        space = EmbeddingSpace(5)
        words = [f"w{i}" for i in range(6)]
        for w in words:
            space.add(w, rng.normal(0, 1, 5))
        vocab = build_vocabulary(Corpus([[w] * (3 + i) for i, w in enumerate(words)]))
        neighbors = [(w, 1.0 - 0.1 * i) for i, w in enumerate(words)]
        base = similar_word_vector(neighbors, space, vocab)
        for _ in range(10):
            rng.shuffle(neighbors)
            assert np.array_equal(similar_word_vector(list(neighbors), space, vocab), base)


class TestCombine:
    def test_high_tf_keeps_original_exactly(self):
        o = np.array([1.0, 2.0, 3.0])
        s = np.array([9.0, 9.0, 9.0])
        assert np.array_equal(combine(o, s, 150), o)

    def test_zero_tf_keeps_similar_exactly(self):
        s = np.array([9.0, 8.0, 7.0])
        assert np.array_equal(combine(np.array([1.0, 1.0, 1.0]), s, 0), s)
        assert np.array_equal(combine(None, s, 0), s)

    def test_midpoint(self):
        o = np.array([2.0, 0.0, 4.0])
        s = np.array([0.0, 2.0, 0.0])
        got = combine(o, s, 10)  # bucket 2 -> C1 = 0.5
        assert np.allclose(got, [1.0, 1.0, 2.0], atol=1e-12)

    def test_missing_similar_returns_original(self):
        o = np.array([1.0, 2.0])
        assert np.array_equal(combine(o, None, 1), o)

    def test_both_missing_rejected(self):
        with pytest.raises(ValueError):
            combine(None, None, 3)

    def test_convexity(self):
        rng = np.random.default_rng(14)
        for tf in (0, 3, 10, 50, 200):
            c1 = tf_bucket(tf) / 4.0
            o = rng.normal(0, 1, 4)
            s = rng.normal(0, 1, 4)
            got = combine(o, s, tf)
            assert np.allclose(got, c1 * o + (1.0 - c1) * s, atol=1e-12)


class TestBuildCombinedSpace:
    def setup_inputs(self):
        space = EmbeddingSpace(2, name="original")
        space.add("甲日", np.array([1.0, 0.0]))
        space.add("乙日", np.array([0.0, 1.0]))
        space.add("他词", np.array([-5.0, -5.0]))
        corpus = Corpus([["甲日"] * 30 + ["乙日"] * 30 + ["他词"] * 30])
        vocab = build_vocabulary(corpus)
        model = SimilarityModel(w_lcs=4.0, w_edit=4.0, w_cos=4.0, bias=-2.0)
        return space, vocab, model

    def test_frequent_word_passthrough(self):
        space, vocab, model = self.setup_inputs()
        out = build_combined_space(["甲日"], space, model, vocab)
        assert np.array_equal(out.get("甲日"), space.get("甲日"))

    def test_unseen_word_revised_from_neighbors(self):
        space, vocab, model = self.setup_inputs()
        out = build_combined_space(["丙日"], space, model, vocab, CombinedSpaceConfig(k=2))
        got = out.get("丙日")
        assert got is not None
        # the two character-sharing neighbors average with equal buckets
        assert np.allclose(got, [0.5, 0.5], atol=1e-12)

    def test_dissimilar_unseen_word_still_revised(self):
        # top-k has no score threshold, so any vectored neighbor suffices
        space, vocab, model = self.setup_inputs()
        out = build_combined_space(["xx"], space, model, vocab)
        assert "xx" in out

    def test_word_without_any_source_omitted(self, monkeypatch):
        space = EmbeddingSpace(2, name="original")
        space.add("有向量", np.array([1.0, 1.0]))
        # the only vocabulary word has no vector in the space
        vocab = build_vocabulary(Corpus([["无向量"]]))
        model = SimilarityModel(w_lcs=1.0, w_edit=1.0, w_cos=1.0)
        out = build_combined_space(["新词"], space, model, vocab)
        assert "新词" not in out and len(out) == 0
        # a word above the rare threshold without a row: omitted, with no
        # neighbour search for it
        queries = []

        def counted(model, word, *args):
            queries.append(word)
            return top_k_similar(model, word, *args)

        monkeypatch.setattr(sememevec.revise, "top_k_similar", counted)
        frequent = build_vocabulary(Corpus([["无向量"] * 3]))
        assert frequent.tf("无向量") > CombinedSpaceConfig().rare_tf_threshold
        out = build_combined_space(["无向量"], space, model, frequent)
        assert "无向量" not in out and len(out) == 0
        assert queries == []

    def test_rows_share_no_memory_with_the_source(self):
        # revision hands back source rows uncopied on these paths; add must
        # copy each one, or a write to the combined space would reach the source
        space, vocab, model = self.setup_inputs()
        space.add("稀日", np.array([3.0, 3.0]))
        vocab = build_vocabulary(Corpus([["甲日"] * 150 + ["乙日"] * 30 + ["稀日"]]))
        passed = build_combined_space(["甲日"], space, model, vocab)
        # tf 150 is rare under threshold 200 with C1 = 1; 稀日 has tf 1 and
        # C1 = 0; 丙日 is unseen; each of the last two takes one neighbour
        revised = build_combined_space(["甲日", "稀日", "丙日"], space, model, vocab,
                                       CombinedSpaceConfig(rare_tf_threshold=200, k=1))
        rows = [passed.get("甲日")] + [revised.get(w) for w in ("甲日", "稀日", "丙日")]
        sources = [vec for _, vec in space.items()]
        for row in rows:
            assert any(np.array_equal(row, src) for src in sources)
            assert not any(np.shares_memory(row, src) for src in sources)

    def test_empty_targets_rejected(self):
        space, vocab, model = self.setup_inputs()
        with pytest.raises(ValueError):
            build_combined_space([], space, model, vocab)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CombinedSpaceConfig(rare_tf_threshold=-1)
        with pytest.raises(ValueError):
            CombinedSpaceConfig(k=0)

    def test_config_frozen(self):
        cfg = CombinedSpaceConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 0


def revision_inputs(seed=7):
    # words of 1-3 characters over an 8-character alphabet: a rare query
    # shares characters with some vocabulary words and none with others, so
    # with k = 12 its top-k mixes scored neighbours with words at the
    # no-overlap score under both models below
    rng = np.random.default_rng(seed)
    alphabet = list("甲乙丙丁日月山水")
    words = sorted({
        "".join(rng.choice(alphabet, size=rng.integers(1, 4)))
        for _ in range(20)
    })
    counts = {w: int(rng.choice([1, 1, 2, 3, 6, 25, 120])) for w in words}
    tokens = [w for w in words for _ in range(counts[w])]
    rng.shuffle(tokens)
    corpus = Corpus([tokens[i:i + 9] for i in range(0, len(tokens), 9)])
    space = EmbeddingSpace(4, name="original")
    for w in words:
        if rng.random() < 0.85:
            space.add(w, rng.normal(0, 1, 4))
    unseen = ["甲戊", "戊己", "xyz", "水b", "丁丁丁"]
    return words + unseen, space, build_vocabulary(corpus), words


def trained_model(words):
    categories = {}
    for w in words:
        categories.setdefault(w[0], []).append(w)
    pairs = build_pairs(categories, 40, 40, seed=3)
    return train_perceptron(pairs, 5)


# sha256 of save_space output, recorded before neighbour search skipped
# candidates that share no character with the query; "blending" was recorded
# later, at a rare threshold of 25, where eight rare words with a stored
# vector blend it with their neighbours' at weights 0.25, 0.5 and 0.75
COMBINED_DIGESTS = {
    "perceptron":
        "378c4a98a5bfbfd120b49c7ea8a8e6d4b33da7a05e0552b7611a01d4ac7bf88d",
    "negative":
        "23553dfb5c645a55d409a8cfc1a3125da27d17140eee5ad12da1011ced15a025",
    "blending":
        "b3fda546e755b281d9b9e8d83303a231eccd9707d5c0b29d0f6560e8ca6c96c4",
}
BLENDING = CombinedSpaceConfig(rare_tf_threshold=25, k=12)


@pytest.mark.two_blas_threads
class TestCombinedSpaceDigest:
    """Pins build_combined_space's saved output byte for byte."""

    @pytest.mark.parametrize("kind", list(COMBINED_DIGESTS))
    def test_output_pinned(self, kind, tmp_path):
        targets, space, vocab, words = revision_inputs()
        if kind == "negative":
            model = SimilarityModel(w_lcs=-1.5, w_edit=-0.5, w_cos=-2.0, bias=0.3)
        else:
            model = trained_model(words)
        config = BLENDING if kind == "blending" else CombinedSpaceConfig(k=12)
        out = build_combined_space(targets, space, model, vocab, config)
        path = tmp_path / "combined.vec"
        save_space(out, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == COMBINED_DIGESTS[kind]

    def test_blended_row_is_combine_of_stored_and_neighbours(self):
        targets, space, vocab, words = revision_inputs()
        model = trained_model(words)
        out = build_combined_space(targets, space, model, vocab, BLENDING)
        rare = [w for w in words if vocab.tf(w) == 3 and w in space]
        assert rare
        for word in rare:
            neighbors = top_k_similar(model, word, vocab, BLENDING.k)
            similar = similar_word_vector(neighbors, space, vocab)
            want = combine(space.get(word), similar, 3)
            # tf 3 weighs the stored vector 0.25, so both sides are in the row
            assert not np.array_equal(want, space.get(word))
            assert not np.array_equal(want, similar)
            assert out.get(word).tobytes() == want.tobytes()


def test_one_index_and_one_score_per_sharing_pair(monkeypatch):
    targets, space, vocab, words = revision_inputs()
    cfg = CombinedSpaceConfig(k=12)
    model = trained_model(words)
    indexes, scored = [], Counter()

    class CountedIndex(sememevec.morphsim.CandidateIndex):
        def __init__(self, candidates):
            super().__init__(candidates)
            indexes.append(self)

    feature_rows = sememevec.morphsim.feature_rows

    def decoded(padded):
        codes, lengths, _ = padded
        return ["".join(map(chr, row[:n])) for row, n in zip(codes, lengths)]

    def counted(a, b):
        # one query against its candidates: count each (query, candidate) row
        (query,), candidates = decoded(a), decoded(b)
        scored.update((query, c) for c in candidates)
        return feature_rows(a, b)

    # top_k_similar would index a list of candidates under morphsim's name
    monkeypatch.setattr(sememevec.morphsim, "CandidateIndex", CountedIndex)
    monkeypatch.setattr(sememevec.revise, "CandidateIndex", CountedIndex)
    monkeypatch.setattr(sememevec.morphsim, "feature_rows", counted)
    build_combined_space(targets, space, model, vocab, cfg)
    rare = [w for w in targets if vocab.tf(w) <= cfg.rare_tf_threshold]
    sharing = {(w, c) for w in rare for c in vocab if c != w and not set(w).isdisjoint(c)}
    assert len(indexes) == 1
    assert 0 < len(sharing) < len(rare) * (len(vocab) - 1)
    assert scored.keys() == sharing
    assert set(scored.values()) == {1}
