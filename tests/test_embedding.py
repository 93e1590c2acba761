import dataclasses
import hashlib

import numpy as np
import pytest

from sememevec.corpus import Corpus, ParseError
from sememevec.embedding import (
    EmbeddingSpace,
    TrainConfig,
    corpus_to_characters,
    cosine,
    load_space,
    negative_sampling_grads,
    negative_sampling_loss,
    save_space,
    train_embeddings,
)


def small_corpus(seed=0, n=60, vocab=12, length=7):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab)]
    return Corpus([[words[rng.integers(vocab)] for _ in range(length)] for _ in range(n)])


class TestEmbeddingSpace:
    def test_add_get(self):
        s = EmbeddingSpace(3)
        s.add("a", [1.0, 2.0, 3.0])
        assert np.array_equal(s.get("a"), [1.0, 2.0, 3.0])
        assert s.get("b") is None
        assert "a" in s and len(s) == 1

    def test_wrong_dim_rejected(self):
        s = EmbeddingSpace(3)
        with pytest.raises(ValueError):
            s.add("a", [1.0, 2.0])

    def test_non_finite_rejected(self):
        s = EmbeddingSpace(2)
        with pytest.raises(ValueError):
            s.add("a", [1.0, float("nan")])

    def test_stored_copy_is_isolated(self):
        s = EmbeddingSpace(2)
        v = np.array([1.0, 2.0])
        s.add("a", v)
        v[0] = 99.0
        assert s.get("a")[0] == 1.0


class TestCosine:
    def test_parallel(self):
        assert cosine([1.0, 0.0], [2.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_opposite(self):
        assert cosine([1.0, 0.0], [-3.0, 0.0]) == -1.0

    def test_zero_vector_scores_zero(self):
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(0, 1, 17)
            assert cosine(v, v) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])

    def test_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.normal(0, 1, 5)
            v = rng.normal(0, 1, 5)
            assert -1.0 <= cosine(u, v) <= 1.0


class TestNegativeSamplingGradients:
    def test_matches_finite_differences(self):
        # central differences at 10 random parameter points
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(10):
            k = int(rng.integers(2, 7))
            center = rng.normal(0, 1, 8)
            outputs = rng.normal(0, 1, (k, 8))
            labels = np.zeros(k)
            labels[0] = 1.0
            g_center, g_out = negative_sampling_grads(center, outputs, labels)
            for j in range(8):
                cp = center.copy(); cp[j] += h
                cm = center.copy(); cm[j] -= h
                num = (negative_sampling_loss(cp, outputs, labels)
                       - negative_sampling_loss(cm, outputs, labels)) / (2 * h)
                assert abs(num - g_center[j]) <= 1e-4 * max(1.0, abs(num))
            for r in range(k):
                for j in range(8):
                    op = outputs.copy(); op[r, j] += h
                    om = outputs.copy(); om[r, j] -= h
                    num = (negative_sampling_loss(center, op, labels)
                           - negative_sampling_loss(center, om, labels)) / (2 * h)
                    assert abs(num - g_out[r, j]) <= 1e-4 * max(1.0, abs(num))

    def test_loss_positive(self):
        rng = np.random.default_rng(12)
        center = rng.normal(0, 1, 4)
        outputs = rng.normal(0, 1, (3, 4))
        labels = np.array([1.0, 0.0, 0.0])
        assert negative_sampling_loss(center, outputs, labels) > 0.0


class TestTraining:
    def test_vocab_coverage_and_dim(self):
        c = small_corpus()
        cfg = TrainConfig(dim=9, window=2, negative=3, epochs=1, seed=2)
        s = train_embeddings(c, cfg)
        assert s.dim == 9
        assert set(s.tokens) == {t for sent in c.sentences for t in sent}

    def test_deterministic_rerun(self):
        c = small_corpus()
        cfg = TrainConfig(dim=6, window=2, negative=2, epochs=2, seed=9)
        a = train_embeddings(c, cfg)
        b = train_embeddings(c, cfg)
        assert all(np.array_equal(a.get(t), b.get(t)) for t in a.tokens)

    def test_seed_changes_vectors(self):
        c = small_corpus()
        a = train_embeddings(c, TrainConfig(dim=6, epochs=1, seed=1))
        b = train_embeddings(c, TrainConfig(dim=6, epochs=1, seed=2))
        assert any(not np.array_equal(a.get(t), b.get(t)) for t in a.tokens)

    def test_vectors_finite(self):
        c = small_corpus()
        for arch in ("skipgram", "cbow"):
            cfg = TrainConfig(dim=5, epochs=2, seed=3, architecture=arch)
            s = train_embeddings(c, cfg)
            for t in s.tokens:
                assert np.all(np.isfinite(s.get(t)))

    def test_min_count_prunes(self):
        c = Corpus([["a", "a", "a", "b"], ["a", "c", "a", "b"]])
        cfg = TrainConfig(dim=4, epochs=1, min_count=2)
        s = train_embeddings(c, cfg)
        assert set(s.tokens) == {"a", "b"}

    def test_empty_vocab_rejected(self):
        c = Corpus([["a"]])
        with pytest.raises(ValueError):
            train_embeddings(c, TrainConfig(dim=4, min_count=5))

    def test_subsample_runs(self):
        c = small_corpus()
        cfg = TrainConfig(dim=4, epochs=1, subsample=1e-2, seed=5)
        s = train_embeddings(c, cfg)
        assert len(s) > 0

    def test_two_cluster_separation(self):
        # small version of the cluster sanity check
        rng = np.random.default_rng(21)
        a_words = [f"a{i}" for i in range(8)]
        b_words = [f"b{i}" for i in range(8)]
        sents = []
        for _ in range(300):
            pool = a_words if rng.random() < 0.5 else b_words
            sents.append([pool[rng.integers(8)] for _ in range(6)])
        cfg = TrainConfig(dim=16, window=3, negative=4, epochs=4, seed=7)
        s = train_embeddings(Corpus(sents), cfg)
        within, cross = [], []
        for i, u in enumerate(a_words):
            for v in a_words[i + 1:]:
                within.append(cosine(s.get(u), s.get(v)))
            for v in b_words:
                cross.append(cosine(s.get(u), s.get(v)))
        assert np.mean(within) > np.mean(cross)

    def test_config_validation(self):
        for bad in (
            dict(dim=0),
            dict(window=0),
            dict(negative=-1),
            dict(epochs=0),
            dict(learning_rate=0.0),
            dict(subsample=-1.0),
            dict(architecture="glove"),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_config_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dim = 0


def ragged_corpus(seed=13, n=50, vocab=15):
    # lengths 1..8 against window 3: one-token sentences and sentences
    # shorter than the window occur alongside longer ones
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab)]
    sents = [
        [words[rng.integers(vocab)] for _ in range(rng.integers(1, 9))]
        for _ in range(n)
    ]
    return Corpus(sents + [["w0"], ["w1"], ["w2", "w3"]])


def space_digest(space):
    h = hashlib.sha256()
    for token in space.tokens:
        h.update(token.encode("utf-8") + b"\0")
        h.update(space.get(token).tobytes())
    return h.hexdigest()


# sha256 of token order plus row bytes, recorded from the earlier trainer
# with separate skip-gram and CBOW loops; the shared step reproduces them
TRAINING_DIGESTS = {
    ("skipgram", 0.0):
        "4af97fb0c75093026b81da5f6a6b80e385694c6f4f88131586d6a38c8ee3b676",
    ("skipgram", 1e-3):
        "ce2ab93aff3fc5b2723d07d92c3b6453c241731968ebcb7a086b6b70f6da8280",
    ("cbow", 0.0):
        "c43a7e979b1028b6519f64ec46981182b09bd41fce13e39e68352e4dc57a2656",
    ("cbow", 1e-3):
        "1ee44b8052ea9d032180de0f54b4c69140d5715247c8b4a585fa9503018e18b6",
}


class TestTrainingDigest:
    """Pins the trainer's output bit for bit.

    A change to the trainer that keeps its numerics must keep these digests;
    one that changes the numerics on purpose updates them and says so.
    """

    @pytest.mark.parametrize("architecture, subsample", list(TRAINING_DIGESTS))
    def test_output_pinned(self, architecture, subsample):
        cfg = TrainConfig(
            dim=8, window=3, negative=3, epochs=2, seed=4,
            subsample=subsample, architecture=architecture,
        )
        digest = space_digest(train_embeddings(ragged_corpus(), cfg))
        assert digest == TRAINING_DIGESTS[architecture, subsample]


class TestCharacterCorpus:
    def test_split(self):
        c = Corpus([["早上", "好"], ["晚安"]])
        cc = corpus_to_characters(c)
        assert cc.sentences == [["早", "上", "好"], ["晚", "安"]]


class TestSerialization:
    def test_round_trip_close(self, tmp_path):
        s = EmbeddingSpace(4, name="t")
        rng = np.random.default_rng(31)
        for i in range(7):
            s.add(f"词{i}", rng.normal(0, 1, 4))
        p = tmp_path / "v.vec"
        save_space(s, str(p))
        back = load_space(str(p), name="t")
        assert back.dim == 4 and len(back) == 7
        for t in s.tokens:
            assert np.allclose(back.get(t), s.get(t), atol=1e-6)

    def test_header_format(self, tmp_path):
        s = EmbeddingSpace(2)
        s.add("a", [1.0, 2.0])
        p = tmp_path / "v.vec"
        save_space(s, str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "1 2"
        assert lines[1].startswith("a ")

    def test_whitespace_token_rejected(self, tmp_path):
        s = EmbeddingSpace(2)
        s.add("a b", [1.0, 2.0])
        with pytest.raises(ValueError):
            save_space(s, str(tmp_path / "v.vec"))

    def test_unicode_whitespace_token_rejected(self, tmp_path):
        s = EmbeddingSpace(2)
        s.add("房\u3000租", [1.0, 2.0])
        with pytest.raises(ValueError):
            save_space(s, str(tmp_path / "v.vec"))

    def test_byte_order_mark_stripped(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_bytes("\ufeff1 2\n房租 1.0 2.0\n".encode("utf-8"))
        back = load_space(str(p))
        assert back.tokens == ["房租"] and np.array_equal(back.get("房租"), [1.0, 2.0])

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_space(str(p))

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("1 3\na 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_space(str(p))

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("1 2\na 1.0 x\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_space(str(p))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, bad):
        p = tmp_path / "v.vec"
        p.write_text(f"2 2\na 1.0 2.0\nb 1.0 {bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{p}: line 3: .*non-finite"):
            load_space(str(p))

    def test_duplicate_token(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("2 2\na 1.0 2.0\na 3.0 4.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{p}: line 3: duplicate token 'a'"):
            load_space(str(p))

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("2 2\na 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_space(str(p))
