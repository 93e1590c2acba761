import dataclasses
import hashlib
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_prefixes_refused_or_whole,
    finite_values,
    load_space_oracle,
    per_slot_descend_oracle,
    per_slot_loss_and_grads_oracle,
    round_trip,
    tokens,
    traced_peak,
    written_row,
)
from sememevec import corpus, embedding
from sememevec.corpus import Corpus, ParseError, written_rows
from sememevec.embedding import (
    ARCHITECTURES,
    BATCH_VALUES,
    SPAN_TOKENS,
    EmbeddingSpace,
    TrainConfig,
    _descend,
    _distinct,
    _outputs,
    _steps,
    _summed,
    corpus_to_characters,
    cosine,
    format_vector,
    load_space,
    negative_sampling_loss_and_grads,
    save_space,
    train_embeddings,
)
from sememevec.evaluate import spearman
from sememevec.sememe import build_sememe_space, hownet_space


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

    def test_empty_token_and_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="empty token"):
            EmbeddingSpace(2).add("", [1.0, 2.0])
        with pytest.raises(ValueError, match="dimension must be positive"):
            EmbeddingSpace(0)

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

    def test_add_rows_stores_one_copy_of_the_block(self):
        s = EmbeddingSpace(2)
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        s.add_rows(["a", "b"], rows)
        rows[0, 0] = 99.0
        assert s.tokens == ["a", "b"] and np.array_equal(s.get("a"), [1.0, 2.0])
        assert s.get("a").base is s.get("b").base
        s.add_rows([], np.empty((0, 2)))
        assert len(s) == 2

    @pytest.mark.parametrize("tokens, rows, message", [
        (["a"], [[1.0, 2.0], [3.0, 4.0]], r"rows of shape \(2, 2\), expected \(1, 2\)"),
        (["a", "b"], [[1.0, 2.0], [3.0, np.inf]], "vector for 'b' has non-finite components"),
        (["a", ""], [[1.0, 2.0], [3.0, 4.0]], "empty token"),
    ])
    def test_add_rows_refuses_the_whole_block(self, tokens, rows, message):
        s = EmbeddingSpace(2)
        with pytest.raises(ValueError, match=message):
            s.add_rows(tokens, rows)
        assert len(s) == 0


class TestCosine:
    @pytest.mark.parametrize("u, v, want", [
        ([1.0, 0.0], [2.0, 0.0], 1.0),
        ([1.0, 0.0], [0.0, 1.0], 0.0),
        ([1.0, 0.0], [-3.0, 0.0], -1.0),
        ([0.0, 0.0], [1.0, 1.0], 0.0),
    ], ids=["parallel", "orthogonal", "opposite", "zero-vector"])
    def test_hand_cases(self, u, v, want):
        assert cosine(u, v) == want

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

    # u @ u overflows above a norm of about 1e154 and underflows below 1e-154
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_norm_scores_as_unit_norm(self, scale):
        assert cosine([scale, scale], [scale, 2 * scale]) == pytest.approx(
            cosine([1.0, 1.0], [1.0, 2.0]), rel=1e-15)

    @pytest.mark.parametrize("power", [-700, -20, 20, 700])
    def test_power_of_two_scaling_is_exact(self, power):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = rng.normal(0, 1, 6)
            v = rng.normal(0, 1, 6)
            assert cosine(np.ldexp(u, power), np.ldexp(v, power)) == cosine(u, v)

    def test_power_of_two_multiple_is_not_identical(self):
        # rounding puts this pair just below 1; scaled, the two are identical,
        # which must not make them score exactly 1
        assert cosine([1.0, 1.0], [2.0, 2.0]) < 1.0


class TestNegativeSamplingGradients:
    def test_matches_finite_differences(self):
        # central differences at 10 random batches of 1-3 steps with 1-3
        # target and 2-3 noise slots each over a table of 2-4 rows, so rows
        # repeat within and across steps. The last target of the first step
        # is dead and its first noise slot weighs 0; both point at an extra
        # row that no other slot uses, whose gradient must be 0. The other
        # noise slots weigh 0 up to the step's live targets
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(10):
            b, t, k, u = (int(rng.integers(lo, hi))
                          for lo, hi in ((1, 4), (1, 4), (2, 4), (2, 5)))
            hidden = rng.normal(0, 1, (b, 8))
            table = rng.normal(0, 1, (u + 1, 8))
            index = rng.integers(0, u, (b, t + k))
            index[0, t - 1] = index[0, t] = u
            live = np.ones((b, t), dtype=int)
            live[0, -1] = 0
            n_live = live.sum(axis=1, keepdims=True)
            weight = np.column_stack((live, rng.integers(0, n_live + 1, (b, k))))
            weight[0, t], weight[-1, -1] = 0, n_live[-1, 0]

            def loss(hd, tb):
                return negative_sampling_loss_and_grads(hd, tb, index, weight, t)[0]

            _, g_hidden, g_table = negative_sampling_loss_and_grads(
                hidden, table, index, weight, t)
            for idx in np.ndindex(hidden.shape):
                hp = hidden.copy(); hp[idx] += h
                hm = hidden.copy(); hm[idx] -= h
                num = (loss(hp, table) - loss(hm, table)) / (2 * h)
                assert abs(num - g_hidden[idx]) <= 1e-4 * max(1.0, abs(num))
            for idx in np.ndindex(table.shape):
                tp = table.copy(); tp[idx] += h
                tm = table.copy(); tm[idx] -= h
                num = (loss(hidden, tp) - loss(hidden, tm)) / (2 * h)
                assert abs(num - g_table[idx]) <= 1e-4 * max(1.0, abs(num))
            assert not np.any(g_table[u])

    def test_count_weight_equals_repeated_rows(self):
        # a noise slot that weighs 3 scores as three slots of its row that weigh 1
        rng = np.random.default_rng(13)
        hidden = rng.normal(0, 1, (1, 5))
        table = rng.normal(0, 1, (3, 5))
        loss, g_hidden, g_table = negative_sampling_loss_and_grads(
            hidden, table, np.array([[0, 1, 2]]), np.array([[1, 1, 3]]), 2)
        loss3, g_hidden3, g_table3 = negative_sampling_loss_and_grads(
            hidden, table, np.array([[0, 1, 2, 2, 2]]), np.ones((1, 5)), 2)
        assert loss == pytest.approx(loss3, rel=1e-12)
        assert np.allclose(g_hidden, g_hidden3, rtol=1e-12, atol=0.0)
        assert np.allclose(g_table, g_table3, rtol=1e-12, atol=0.0)

    def test_loss_positive(self):
        rng = np.random.default_rng(12)
        hidden = rng.normal(0, 1, (1, 4))
        table = rng.normal(0, 1, (3, 4))
        assert negative_sampling_loss_and_grads(
            hidden, table, np.array([[0, 1, 2]]), np.ones((1, 3)), 1)[0] > 0.0

    def test_extreme_scores_stay_finite(self):
        hidden = np.full((1, 2), 1e3)
        table = np.array([[-1e3, -1e3], [1e3, 1e3]])
        loss, g_hidden, g_table = negative_sampling_loss_and_grads(
            hidden, table, np.array([[0, 1]]), np.ones((1, 2)), 1
        )
        assert loss == pytest.approx(4e6)
        assert np.all(np.isfinite(g_hidden)) and np.all(np.isfinite(g_table))


@settings(max_examples=200)
@given(data=st.data())
def test_batch_kernel_matches_per_slot_oracle(data):
    # one batch over a vocabulary of 1-6 rows, so rows repeat within and
    # across steps, with dead target slots, a first noise word equal to the
    # first target and noise weights from 0 up to the step's live targets,
    # against the per-slot kernel and its np.add.at descent. The sums run in
    # another order, so each value agrees within 1e-12 of the summed
    # magnitudes of its terms, a sigmoid counted as its bound 1
    b, t, k, w, d, v = (data.draw(st.integers(1, hi)) for hi in (5, 4, 4, 3, 6, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w_in, w_out = rng.normal(0, 1, (2, v, d))
    targets, noise = rng.integers(0, v, (b, t)), rng.integers(0, v, (b, k))
    noise[0, 0] = targets[0, 0]
    rows = np.column_stack((targets, noise))
    live = np.array([[data.draw(st.booleans()) for _ in range(t)] for _ in range(b)])
    weight = np.column_stack((live, [[data.draw(st.integers(0, int(n))) for _ in range(k)]
                                     for n in live.sum(axis=1)]))
    inp, hits = rng.integers(0, v, (b, w)), rng.integers(0, 3, (b, w))
    hits[:, 0] += 1
    wts = hits / hits.sum(axis=1, keepdims=True)
    alpha = data.draw(st.sampled_from([1e-3, 0.025, 1.0]))

    def per_row(slots, values):
        summed = np.zeros((v, d))
        np.add.at(summed, slots.ravel(), values.reshape(-1, d))
        return summed

    hidden = np.einsum("bw,bwd->bd", wts, w_in[inp])
    want_loss, want_hidden, g_out = per_slot_loss_and_grads_oracle(
        hidden, w_out[rows], weight, t)
    g_in = wts[:, :, None] * want_hidden[:, None, :]
    want_in, want_out = w_in.copy(), w_out.copy()
    per_slot_descend_oracle(want_out, rows, g_out, weight, alpha)
    per_slot_descend_oracle(want_in, inp, g_in, hits, alpha)

    in_rows, in_slot = _distinct(inp, v)
    out_rows, out_slot = _distinct(rows, v)
    assert np.array_equal(in_rows, np.unique(inp)) and np.array_equal(out_rows, np.unique(rows))
    assert np.array_equal(in_rows[in_slot], inp) and np.array_equal(out_rows[out_slot], rows)
    mix = _summed(in_slot, wts, len(in_rows))
    loss, g_hidden, g_table = negative_sampling_loss_and_grads(
        mix @ w_in[in_rows], w_out[out_rows], out_slot, weight, t)
    g_rows_in = mix.T @ g_hidden
    got_in, got_out = w_in.copy(), w_out.copy()
    _descend(got_out, out_rows, g_table, out_slot, weight, alpha)
    _descend(got_in, in_rows, g_rows_in, in_slot, hits, alpha)

    mag_hidden = np.einsum("bk,bkd->bd", weight, np.abs(w_out[rows]))
    mag_out = per_row(rows, weight[:, :, None] * np.abs(hidden)[:, None, :])
    mag_in = per_row(inp, wts[:, :, None] * mag_hidden[:, None, :])
    for got, want, mag in (
            (g_hidden, want_hidden, mag_hidden),
            (g_table, per_row(rows, g_out)[out_rows], mag_out[out_rows]),
            (g_rows_in, per_row(inp, g_in)[in_rows], mag_in[in_rows]),
            (got_out, want_out, np.abs(w_out) + alpha * mag_out),
            (got_in, want_in, np.abs(w_in) + alpha * mag_in)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * mag)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)


class TestSharedNoise:
    def test_weight_rule(self):
        # live targets a, b, c and a dead fourth slot that holds x; the noise
        # words a, d and x count once per live target they are not
        a, b, c, d, x = range(5)
        rows, weight = _outputs(np.array([[a, b, c, x]]),
                                np.array([[True, True, True, False]]), np.array([[a, d, x]]))
        assert rows.tolist() == [[a, b, c, x, a, d, x]]
        assert weight.tolist() == [[1, 1, 1, 0, 2, 3, 3]]

    def test_descent_updates_distinct_rows(self, monkeypatch):
        # every _descend call takes each row once, with one summed gradient
        # per row, and one epoch at window 5 and k = 5 updates at most
        # 2w + 1 + k rows per step over both matrices. 40-word sentences give
        # every position a context, so there are as many steps as tokens
        window, negative = 5, 5
        corpus = small_corpus(n=100, vocab=50, length=40)
        updated = []

        def counting(matrix, rows, grads, slot, hits, alpha):
            assert len(np.unique(rows)) == len(rows) and grads.shape == (len(rows), 8)
            updated.append(len(rows))
            descend(matrix, rows, grads, slot, hits, alpha)

        descend = embedding._descend
        monkeypatch.setattr(embedding, "_descend", counting)
        train_embeddings(corpus, TrainConfig(dim=8, window=window, negative=negative,
                                             epochs=1, seed=1))
        assert updated and sum(updated) <= corpus.total_tokens() * (2 * window + 1 + negative)


class TestTraining:
    def test_vocab_coverage_and_dim(self):
        c = small_corpus()
        cfg = TrainConfig(dim=9, window=2, negative=3, epochs=1, seed=2)
        s = train_embeddings(c, cfg)
        assert s.dim == 9
        assert set(s.tokens) == {t for sent in c for t in sent}

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

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="cannot train on an empty corpus"):
            train_embeddings(Corpus([]), TrainConfig(dim=4))

    def test_non_finite_parameters_refused_after_their_epoch(self, monkeypatch):
        # training alone does not reach the check, since ROW_RATE_CAP bounds
        # each row's rate, so a NaN is planted after the one batch's real steps
        def poisoned(matrix, *args):
            descend(matrix, *args)
            matrix[0, 0] = np.nan

        descend = embedding._descend
        monkeypatch.setattr(embedding, "_descend", poisoned)
        with pytest.raises(FloatingPointError, match="^non-finite parameters after epoch 1$"):
            train_embeddings(Corpus([["a", "b", "a", "b"]]), TrainConfig(dim=4, epochs=2))

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
            # inf trained every row at the rate cap, nan failed after an
            # epoch or, for subsample, switched subsampling off
            dict(learning_rate=float("inf")),
            dict(learning_rate=float("nan")),
            dict(subsample=float("inf")),
            dict(subsample=float("nan")),
            dict(architecture="glove"),
            # np.random.default_rng would refuse it, but only after the corpus is read
            dict(seed=-1),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_config_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dim = 0


def loop_steps(sentences, window):
    """The steps of the per-sentence loops the array code replaced, in
    corpus order: (live context ids, center) per center with a context."""
    steps = []
    for sent in sentences:
        m = len(sent)
        for i in range(m):
            context = sent[max(0, i - window):i] + sent[i + 1:i + window + 1]
            if context:
                steps.append((tuple(context), sent[i]))
    return steps


class TestStepBuilding:
    @pytest.mark.parametrize("span", [1, 7, 1000])
    def test_matches_per_sentence_loops(self, span):
        rng = np.random.default_rng(3)
        # zero-length and one-token sentences among them, the first and last too
        sentences = [[], [5]] + [list(rng.integers(0, 20, rng.integers(0, 9)))
                                 for _ in range(40)] + [[], [7], []]
        ids = np.array([t for sent in sentences for t in sent], dtype=np.int32)
        starts = np.cumsum([0] + [len(s) for s in sentences])
        offsets = np.array([-3, -2, -1, 1, 2, 3])
        got = []
        for a in range(0, len(ids), span):
            center = np.arange(a, min(len(ids), a + span))
            context, live, centers, at = _steps(ids, starts, center, offsets)
            assert np.array_equal(centers[:, 0], ids[center[at]])
            got += [(tuple(c[m]), w) for c, m, (w,) in zip(context, live, centers)]
        assert got == loop_steps(sentences, 3)


@pytest.mark.parametrize("subsample, bound", [(0.0, 6), (1e-3, 12)])
def test_training_memory_per_token(subsample, bound):
    # a Zipf corpus tiled 4 times: the vocabulary and so the parameters stay
    # the same size, and each span's and batch's arrays stay bounded
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(400)]
    base = [[words[min(k, 400) - 1] for k in rng.zipf(1.2, rng.integers(1, 20))]
            for _ in range(5000)]
    small, large = Corpus(base), Corpus(base * 4)
    cfg = TrainConfig(dim=1, window=1, negative=1, epochs=1, subsample=subsample)
    growth = (traced_peak(train_embeddings, large, cfg)
              - traced_peak(train_embeddings, small, cfg))
    # int32 ids: 4.2 bytes per token at subsample 0, where min_count drops
    # nothing and so takes no copy. Subsampling adds its keep marks, then the
    # kept positions (8 bytes) and the kept ids: 10.1 bytes per token. Its
    # draws and keep probabilities come a span at a time. The trainer that
    # copied the ids for min_count read 18.0 and 21.7, and a per-position
    # sentence array or a float array of n would exceed these bounds
    assert growth / (large.total_tokens() - small.total_tokens()) < bound


class TestSmallestVocabulary:
    def test_three_words_stay_finite_and_apart(self):
        # 4.8k tokens over three words: every row is hit hundreds of times
        # in one batch, the case where summed batch updates diverged
        sents = [["a", "b"] * 4 if i % 2 else ["c"] * 8 for i in range(600)]
        for architecture in ARCHITECTURES:
            for learning_rate in (0.025, 0.5):
                cfg = TrainConfig(dim=8, window=3, negative=5, epochs=5, seed=1,
                                  learning_rate=learning_rate,
                                  architecture=architecture)
                with np.errstate(all="raise"):
                    s = train_embeddings(Corpus(sents), cfg)
                for t in "abc":
                    assert np.all(np.abs(s.get(t)) < 100.0)
                # "a" only ever sees "b", "c" only "c"
                assert cosine(s.get("a"), s.get("c")) < 0.9


# planted word families: FAMILIES families of FAMILY_SIZE words, paired
# into groups of two; a sentence takes 60% of its words from one family,
# 30% from the paired family and 10% from any family
FAMILIES, FAMILY_SIZE = 8, 5
PLANTED = {f"族{f}词{i}": f for f in range(FAMILIES) for i in range(FAMILY_SIZE)}
# gate on Spearman's rho between cosines and the planted grade. With these
# ties rho cannot exceed about 0.725. At seed 1 the one-step-per-pair
# trainer scored 0.724 (skip-gram), 0.695 (CBOW) and 0.724 (sememe), the
# mini-batch trainer 0.724 / 0.682 / 0.724, and with one skip-gram step per
# center 0.725 / 0.682 / 0.724; over seeds 1-5 the lowest were 0.723 / 0.650
# / 0.723, then 0.723 / 0.627 / 0.723 for both mini-batch trainers. Random
# vectors score within +-0.04 of 0
PLANTED_RHO_MIN = 0.6
PLANTED_MARGIN = 0.5
# planted character families: CHAR_FAMILIES families of CHAR_FAMILY_SIZE
# characters, drawn as the words above are, two to a word. The character
# space scored 0.81 at seeds 1-5, and 0.802-0.808 with one skip-gram step
# per center; random vectors within +-0.11 of 0
CHAR_FAMILIES, CHAR_FAMILY_SIZE = 6, 4
PLANTED_CHARS = {ch: i // CHAR_FAMILY_SIZE
                 for i, ch in enumerate("甲乙丙丁戊己庚辛壬癸子丑寅卯辰巳午未申酉戌亥日月")}


def planted_family(rng, family, families):
    """The sentence's family 60%, its paired family 30%, any family 10%."""
    r = rng.random()
    return family if r < 0.6 else family ^ 1 if r < 0.9 else int(rng.integers(families))


def planted_corpus(seed=1, n=600, length=8):
    rng = np.random.default_rng(seed)
    words = list(PLANTED)
    sents = []
    for _ in range(n):
        family = int(rng.integers(FAMILIES))
        sents.append([
            words[planted_family(rng, family, FAMILIES) * FAMILY_SIZE
                  + int(rng.integers(FAMILY_SIZE))]
            for _ in range(length)
        ])
    return Corpus(sents)


def planted_char_corpus(seed=1, n=600, length=8):
    rng = np.random.default_rng(seed)
    chars = list(PLANTED_CHARS)

    def char(family):
        return chars[planted_family(rng, family, CHAR_FAMILIES) * CHAR_FAMILY_SIZE
                     + int(rng.integers(CHAR_FAMILY_SIZE))]

    sents = []
    for _ in range(n):
        family = int(rng.integers(CHAR_FAMILIES))
        sents.append([char(family) + char(family) for _ in range(length)])
    return Corpus(sents)


def planted_rho(vector_of, planted=PLANTED, holding=None):
    """Spearman's rho between pair cosines and the planted grade: 2 for the
    same family, 1 for paired families, 0 otherwise; given `holding`, only
    over the pairs that hold one of its words."""
    words = list(planted)
    cosines, grades = [], []
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            if holding is not None and u not in holding and v not in holding:
                continue
            cosines.append(cosine(vector_of(u), vector_of(v)))
            fu, fv = planted[u], planted[v]
            grades.append(2 if fu == fv else 1 if fu // 2 == fv // 2 else 0)
    return spearman(cosines, grades)


class TestPlantedSimilarity:
    """A quality gate that fails when a trainer returns noise."""

    @pytest.mark.parametrize("kind", ["skipgram", "cbow", "sememe", "character"])
    def test_trained_space_ranks_planted_grades(self, kind):
        corpus = planted_corpus()
        cfg = TrainConfig(dim=16, window=3, negative=4, epochs=3, seed=1,
                          architecture="cbow" if kind == "cbow" else "skipgram")
        if kind == "character":
            chars = corpus_to_characters(planted_char_corpus())
            space = train_embeddings(chars, cfg, name="character")

            def rho_of(sp):
                return planted_rho(sp.get, PLANTED_CHARS)
        elif kind == "sememe":
            # one sememe per word: its vector is trained only on the
            # replacement copy, and hownet_space reads it back
            lexicon = {w: [w.replace("词", "义")] for w in PLANTED}
            space = build_sememe_space(corpus, lexicon, cfg, max_rank=1)

            def rho_of(sp):
                return planted_rho(hownet_space(lexicon, sp).get)
        else:
            space = train_embeddings(corpus, cfg)

            def rho_of(sp):
                return planted_rho(sp.get)
        rng = np.random.default_rng(1)
        control = EmbeddingSpace(space.dim)
        for t in space.tokens:
            control.add(t, rng.normal(0, 1, space.dim))
        rho, rho_random = rho_of(space), rho_of(control)
        assert rho >= PLANTED_RHO_MIN
        assert rho - rho_random >= PLANTED_MARGIN
        # the gate can fail: a random space of the same shape does
        assert rho_random < PLANTED_RHO_MIN

    def test_hownet_alone_ranks_rare_words(self):
        # a word seen once gets a poor distributional vector, but its HowNet
        # row sums sememes trained on every word that shares them. Over seeds
        # 1-5 HowNet scored 0.747, a lexicon with families shuffled across
        # words -0.02 to 0.22 and the word space 0.16 to 0.65
        rare = {w for w in PLANTED if w.endswith(f"词{FAMILY_SIZE - 1}")}
        seen, sents = set(), []
        for sent in planted_corpus():
            kept = []
            for w in sent:
                if w not in rare or w not in seen:
                    kept.append(w)
                seen.add(w)
            sents.append(kept)
        corpus = Corpus(sents)
        assert all(sum(s.count(w) for s in sents) == 1 for w in rare)
        cfg = TrainConfig(dim=16, window=3, negative=4, epochs=3, seed=1)

        def hownet_rho(lexicon):
            space = build_sememe_space(corpus, lexicon, cfg, max_rank=1)
            return planted_rho(hownet_space(lexicon, space).get, holding=rare)

        lexicon = {w: [f"族{f}义"] for w, f in PLANTED.items()}
        words = list(lexicon)
        order = np.random.default_rng(1).permutation(len(words))
        shuffled = {w: lexicon[words[k]] for w, k in zip(words, order)}
        rho = hownet_rho(lexicon)
        assert rho >= PLANTED_RHO_MIN
        # the gate can fail: a lexicon with families shuffled across words does
        assert hownet_rho(shuffled) < PLANTED_RHO_MIN
        assert rho > planted_rho(train_embeddings(corpus, cfg).get, holding=rare)


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


def dropping_corpus():
    # at min_count 2 every "u" word drops: the first and the last sentence
    # and two sentences in a row after every ninth lose every token, and the
    # others lose one, mid-sentence where they have two or more
    sents = []
    for i, sent in enumerate(ragged_corpus(seed=31, n=60, vocab=30)):
        if i % 9 == 0:
            sents += [[f"u{i}a", f"u{i}b"], [f"u{i}c"]]
        sents.append(sent[:len(sent) // 2] + [f"u{i}"] + sent[len(sent) // 2:])
    return Corpus(sents + [["uend"]])


def space_digest(space):
    h = hashlib.sha256()
    for token in space.tokens:
        h.update(token.encode("utf-8") + b"\0")
        h.update(space.get(token).tobytes())
    return h.hexdigest()


# sha256 of token order plus row bytes, recorded from the mini-batch
# trainer under one and two BLAS threads; skip-gram's with one step per
# center and shared noise words, and every batch worked on its distinct rows
TRAINING_DIGESTS = {
    ("skipgram", 0.0):
        "53ceaf1c4ff076295d257cde4c50d6c79555c842d8603443cf1b43a60d51550d",
    ("skipgram", 1e-3):
        "bdacbb7e856b136e9db4823f6bec30038889192ac07437dcde8ecbf2ea1b7397",
    ("cbow", 0.0):
        "f0869859f11823350743c4a876f5fdf8b840da0ffa04784a0f3ed8e674cb2d5e",
    ("cbow", 1e-3):
        "bacf55e81d9cb103a350c9e74c6672e41d0ae07fcb2e9a930b99feabecca9142",
}


# ragged_corpus yields fewer CBOW steps than one batch; this pin's corpus
# spans several batches and more than one SPAN_TOKENS span
MULTI_BATCH_DIGESTS = {
    "skipgram": "02682a95d41f9672fa08985a4be590f52b20c670ecd21dd2afc563558dd3f836",
    "cbow": "e3cee0f6291225961218ab7ff6c44f5c8353d94be5a9297df87b6d4b18e17482",
}


# the same trainer on dropping_corpus at min_count 2, so the pins cover the
# tokens that min_count and subsampling drop
DROPPING_DIGESTS = {
    ("skipgram", 0.0):
        "15e53cdfdab797ed4f98877d2587e62e8fd1a93ce5b880d9df9f83e322b9227b",
    ("skipgram", 1e-3):
        "637747a41d76c48a9e331b97aafb389933db8ae945b1de207247b9b8b374375c",
    ("cbow", 0.0):
        "d1ec837c562f114225582aa089e378c3406199dae916cfe0f797a4c0aaf999c7",
    ("cbow", 1e-3):
        "ca80fbdac3d9118cf3f33b88e837c9d70eb61db9620c380f26d578c585eefabd",
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

    @pytest.mark.parametrize("architecture", list(MULTI_BATCH_DIGESTS))
    def test_multi_batch_output_pinned(self, architecture):
        corpus = ragged_corpus(seed=29, n=600, vocab=40)
        # three spans, and a full span holds more CBOW steps than one batch
        # of 2 * 3 + 1 + 3 rows of dim 8, so batch boundaries show
        assert corpus.total_tokens() > 2 * SPAN_TOKENS
        assert SPAN_TOKENS > 2 * BATCH_VALUES // (10 * 8)
        cfg = TrainConfig(dim=8, window=3, negative=3, epochs=2, seed=4,
                          architecture=architecture)
        digest = space_digest(train_embeddings(corpus, cfg))
        assert digest == MULTI_BATCH_DIGESTS[architecture]

    @pytest.mark.parametrize("architecture, subsample", list(DROPPING_DIGESTS))
    def test_dropping_output_pinned(self, architecture, subsample):
        corpus = dropping_corpus()
        space = train_embeddings(corpus, TrainConfig(
            dim=8, window=3, negative=3, epochs=2, seed=4, min_count=2,
            subsample=subsample, architecture=architecture,
        ))
        assert not any(t.startswith("u") for t in space.tokens)
        assert len(space) == 30 < len(corpus.types)
        assert space_digest(space) == DROPPING_DIGESTS[architecture, subsample]


class TestCharacterCorpus:
    def test_split(self):
        c = Corpus([["早上", "好"], ["晚安"]])
        cc = corpus_to_characters(c)
        assert list(cc) == [["早", "上", "好"], ["晚", "安"]]


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

    @pytest.mark.parametrize("token", ["a b", "房\u3000租"])
    def test_whitespace_token_rejected(self, tmp_path, token):
        s = EmbeddingSpace(2)
        s.add(token, [1.0, 2.0])
        with pytest.raises(ValueError):
            save_space(s, str(tmp_path / "v.vec"))

    def test_byte_order_mark_stripped(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_bytes("\ufeff1 2\n房租 1.0 2.0\n".encode("utf-8"))
        back = load_space(str(p))
        assert back.tokens == ["房租"] and np.array_equal(back.get("房租"), [1.0, 2.0])

    # each file's text and the message after its path. int() would read the
    # malformed headers as 10, 1 and 1 rows, split() would read every field
    # separator below (the first file as one row a = [1, 2]) and float() every
    # malformed number, "1_0" as 10 and "١" as 1. save_space ends every line
    # in a newline, so a file without one at its end was cut short, or written
    # by another program
    @pytest.mark.parametrize("text, message", [
        ("", "line 1: malformed header ''"),
        ("not a header\n", "line 1: malformed header 'not a header'"),
        *((f"{size} 2\n" + "".join(f"w{i} 1 2\n" for i in range(rows)),
           f"line 1: malformed header '{size} 2'")
          for size, rows in (("1_0", 10), ("+1", 1), ("\u0661", 1))),
        *((f"{header}\na 1\n", f"line 1: invalid sizes in header '{header}'")
          for header in ("-1 2", "1 0")),
        ("1 2\n\n\na 1 2\n\n", "line 2: expected 3 fields, got 0"),
        ("1 2\na 1 2\n\n", "line 3: expected 3 fields, got 0"),
        # a row pattern repeating its decimal dim times would not compile
        ("1 10000000000\na 1\n", "line 2: expected 10000000001 fields, got 2"),
        ("1 3\na 1.0 2.0\n", "line 2: expected 4 fields, got 3"),
        ("1 2\na 1.0 x\n", "line 2: could not convert string to float: 'x'"),
        *((f"2 2\na 1.0 2.0\nb 1.0 {bad}\n", "line 3: non-finite value")
          for bad in ("nan", "inf", "-inf")),
        ("2 2\na 1.0 2.0\na 3.0 4.0\n", "line 3: duplicate token 'a'"),
        ("2 2\na 1.0 2.0\n", "header declares 2 rows but 1 were read"),
        ("1\t 2\na  1\t2 \n", "line 1: malformed header '1\\t 2'"),
        *((f"1 2\n{row}\n", "line 2: fields must be separated by single spaces")
          for row in ("a  1 2", "a 1\t2", " a 1 2", "a 1 2 ", "房\u3000租 1 2")),
        *((text, f"line {line}: no newline at the end of the last line; the file may be "
                 "cut short") for text, line in (("1 2\na 1 2", 2), ("1 2", 1), ("1 2\r", 1))),
        *((f"1 2\na 1 {bad}\n", f"line 2: malformed number '{bad}'")
          for bad in ("1_0", "+1", "\u0661", ".5", "1.", "1e5", "1E+5")),
    ])
    def test_file_refused_with_its_message(self, tmp_path, text, message):
        p = tmp_path / "v.vec"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            load_space(str(p))
        assert str(exc.value) == f"{p}: {message}"

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("text, fault", [
        (b"3 2\na 1 2\nb 1 1_0\n\xff 1 2\n", "malformed number '1_0'"),
        # an overflow matches the row pattern, so only its batch's parse finds it
        (b"3 2\na 1 2\nb 1 1e+999\n\xff 1 2\n", "non-finite value"),
        (b"4 2\na 1 2\nb 1 1e+999\nc 1 1_0\n\xff 1 2\n", "non-finite value"),
        (b"3 2\na 1 2\nb 1_0 x\n\xff 1 2\n", "malformed number '1_0'"),
        (b"3 2\na 1 2\nb x 1_0\n\xff 1 2\n", "could not convert string to float: 'x'"),
    ], ids=["malformed", "overflow", "overflow-then-malformed", "malformed-then-non-numeric",
            "non-numeric-then-malformed"])
    def test_fault_before_an_undecodable_line_is_named_first(self, tmp_path, monkeypatch,
                                                             rows, text, fault):
        # the undecodable line is read within the faulty row's batch or a later one
        monkeypatch.setattr(embedding, "LOAD_ROWS", rows)
        p = tmp_path / "v.vec"
        p.write_bytes(text)
        with pytest.raises(ParseError, match=f"line 3: {fault}"):
            load_space(str(p))

    # lines with the header's space count whose fault is outside their numbers
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("line", [" 1 2", "a\u3000b 1 2", "a\tb 1 2", "c 1 "],
                             ids=["empty token", "U+3000 in token", "tab in token",
                                  "trailing space"])
    def test_line_fault_outside_the_numbers_named_with_its_line(self, tmp_path, monkeypatch,
                                                                rows, line):
        monkeypatch.setattr(embedding, "LOAD_ROWS", rows)
        p = tmp_path / "v.vec"
        p.write_text(f"3 2\nx 1 2\n{line}\ny 1 2\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_space(str(p))
        assert str(exc.value) == f"{p}: line 3: fields must be separated by single spaces"


@settings(max_examples=25)
@given(data=st.data())
def test_cut_short_space_file_is_refused(data):
    # a cut inside the last value read "0.123456789" as "0.1234" before
    dim = data.draw(st.integers(1, 3))
    space = EmbeddingSpace(dim)
    for tok in data.draw(st.lists(tokens, unique=True, max_size=3)):
        space.add(tok, data.draw(st.lists(finite_values, min_size=dim, max_size=dim)))
    assert_prefixes_refused_or_whole(save_space, load_space, space)


@settings(max_examples=100)
@given(data=st.data())
def test_space_round_trip_keeps_order_and_settles(data):
    # rows are written at 9 significant digits, so the first reload may
    # round; every later one must read back the same bits
    dim = data.draw(st.integers(1, 3))
    space = EmbeddingSpace(dim)
    for tok in data.draw(st.lists(tokens, unique=True, max_size=6)):
        space.add(tok, data.draw(st.lists(finite_values, min_size=dim, max_size=dim)))
    once = round_trip(save_space, load_space, space)
    twice = round_trip(save_space, load_space, once)
    assert once.tokens == twice.tokens == space.tokens
    for tok, vec in space.items():
        assert np.allclose(once.get(tok), vec, rtol=1e-8, atol=0.0)
        assert twice.get(tok).tobytes() == once.get(tok).tobytes()


def _written(token, values, sep=" ", end="\n"):
    return (token + sep + " ".join(values) + end).encode("utf-8")


# each rewrites a well-written row, given its token, its values' texts and
# the token of an earlier row, into the bytes of a line
ROW_FAULTS = {
    "underscore": lambda t, vs, e: _written(t, vs[:-1] + ["1_0"]),
    "no leading digit": lambda t, vs, e: _written(t, vs[:-1] + [".5"]),
    "capital exponent": lambda t, vs, e: _written(t, vs[:-1] + ["1E+5"]),
    "nan": lambda t, vs, e: _written(t, vs[:-1] + ["nan"]),
    "overflow": lambda t, vs, e: _written(t, vs[:-1] + ["1e+999"]),
    "duplicate": lambda t, vs, e: _written(e, vs),
    "missing field": lambda t, vs, e: _written(t, vs[:-1]),
    "tab": lambda t, vs, e: _written(t, vs, sep="\t"),
    "U+3000": lambda t, vs, e: _written(t, vs, sep="\u3000"),
    "run of spaces": lambda t, vs, e: _written(t, vs, sep="  "),
    "invalid UTF-8": lambda t, vs, e: b"\xff" + _written(t, vs),
    "CRLF": lambda t, vs, e: _written(t, vs, end="\r\n"),
}


def _loaded_alike(path):
    """load_space and load_space_oracle of path raise the same ParseError or
    load the same tokens, in order, to bit-identical rows."""
    try:
        want = load_space_oracle(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_space(path)
        assert str(got.value) == str(exc)
        return
    back = load_space(path)
    assert back.tokens == want.tokens and back.dim == want.dim
    for tok, vec in want.items():
        assert back.get(tok).tobytes() == vec.tobytes()


@settings(max_examples=300)
@given(data=st.data())
def test_batched_load_matches_the_per_row_oracle_across_batches(data):
    # one or two faults on the rows either side of a batch boundary: the
    # first faulty line names the error, whichever batch holds it
    batch = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(batch + 1, 4 * batch + 1))
    dim = data.draw(st.integers(1, 3))
    toks = data.draw(st.lists(tokens, min_size=n, max_size=n, unique=True))
    rows = [format_vector(np.array(data.draw(st.lists(finite_values, min_size=dim,
                                                          max_size=dim)))).split(" ")
            for _ in range(n)]
    near = sorted({i for k in range(batch, n + 1, batch) for i in (k - 1, k, k + 1) if i < n})
    faults = data.draw(st.dictionaries(st.sampled_from(near), st.sampled_from(sorted(ROW_FAULTS)),
                                       max_size=2))
    lines = [f"{n} {dim}\n".encode("utf-8")]
    for i, (tok, vals) in enumerate(zip(toks, rows)):
        earlier = toks[data.draw(st.integers(0, i - 1))] if i else tok
        lines.append(ROW_FAULTS[faults[i]](tok, vals, earlier) if i in faults
                     else _written(tok, vals))
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "LOAD_ROWS", batch)
        path = os.path.join(d, "v.vec")
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        _loaded_alike(path)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e308]


@settings(max_examples=100)
@given(values=st.lists(finite_values, min_size=1, max_size=8))
def test_rows_are_written_as_per_value_f_strings(values):
    # one % over the row must spell each value as f"{x:.9g}" does
    values += EDGE_VALUES
    text = " ".join(f"{x:.9g}" for x in values)
    assert format_vector(np.array(values)) == text
    space = EmbeddingSpace(len(values))
    space.add("w", values)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "v.vec")
        save_space(space, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == f"1 {len(values)}\nw {text}\n"


@settings(max_examples=50)
@given(values=st.lists(finite_values, max_size=40), digits=st.sampled_from([9, 17]))
def test_batched_parse_is_float_exact(values, digits):
    # numpy's parse must round every written decimal as float() does; the
    # per-row path, which parses by float(), must not be reached
    texts = [f"{x:.{digits}g}" for x in values + EDGE_VALUES]
    texts += ["0"] * (-len(texts) % 4)
    rows = [texts[i:i + 4] for i in range(0, len(texts), 4)]

    def per_row_path(*args):
        raise AssertionError("a written row left the batched path")

    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "LOAD_ROWS", 3)
        mp.setattr(corpus, "written_floats", per_row_path)
        path = os.path.join(d, "v.vec")
        with open(path, "wb") as fh:
            fh.write(f"{len(rows)} 4\n".encode() + b"".join(
                _written(f"w{i}", row) for i, row in enumerate(rows)))
        space = load_space(path)
    for i, row in enumerate(rows):
        assert space.get(f"w{i}").tobytes() == np.array(list(map(float, row))).tobytes()


# fields of written numbers' bytes, and of bytes float() or a per-byte check
# might take for them, none a space; well-written numbers among them
near_numbers = st.text("0123456789-.e+\tE_\u0661\r", max_size=6) | st.from_regex(
    r"-?[0-9]{1,3}(\.[0-9]{1,3})?(e[-+][0-9]{1,3})?", fullmatch=True)


class _PerRowPath(Exception):
    pass


def _batched(texts, width):
    """written_rows of texts, one line each, or None where it leaves its one
    check and parse for the per-row path."""
    def per_row_path(*args):
        raise _PerRowPath

    with pytest.MonkeyPatch.context() as mp:
        for name in ("split_fields", "written_floats"):
            mp.setattr(corpus, name, per_row_path)
        try:
            return written_rows(list(enumerate(texts, start=1)), width, "v.vec")
        except _PerRowPath:
            return None


@settings(max_examples=500)
@given(data=st.data())
def test_batch_check_with_its_parse_accepts_what_written_row_matches(data):
    # load_space hands written_rows the text after the token of lines with dim
    # spaces, so each text here is dim fields; the block passes only if every
    # text, after a token, matches
    dim = data.draw(st.integers(1, 3))
    texts = [" ".join(data.draw(near_numbers) for _ in range(dim))
             for _ in range(data.draw(st.integers(1, 3)))]
    lines = ["w " + text for text in texts]
    try:
        rows = _batched(texts, dim)
    except ParseError as exc:
        # a parsed block whose row overflows, such as 1e+999, is named at once
        assert str(exc).endswith(": non-finite value") and all(map(written_row, lines))
        assert not np.isfinite([[float(v) for v in text.split(" ")] for text in texts]).all()
        return
    assert (rows is not None) == all(map(written_row, lines))
    if rows is not None:
        want = [[float(v) for v in line.split(" ")[1:]] for line in lines]
        assert rows.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("bad", "1e5 +1 .5 1. 1..2 - 1e+ --1 1-2 1_0 \u0661 1.2.3 1e-5e-5 "
                                "1e-5.3".split())
def test_batch_check_refuses_what_save_space_cannot_write(bad):
    for line in (f"w {bad}", f"w 1 {bad}", f"w {bad} 1"):
        assert not written_row(line)
        assert _batched([line[2:]], line.count(" ")) is None


def test_loading_holds_one_batch_at_a_time(tmp_path, monkeypatch):
    # the memory a load holds beyond the space it returns is set by the
    # batch, not by the file: 4x the rows may add at most a quarter
    monkeypatch.setattr(embedding, "LOAD_ROWS", 64)
    rng = np.random.default_rng(5)
    path = str(tmp_path / "v.vec")
    transient = []
    for n in (256, 1024):
        space = EmbeddingSpace(32)
        space.add_rows([f"w{i}" for i in range(n)], rng.standard_normal((n, 32)))
        save_space(space, path)
        held = []

        def load():
            back = load_space(path)
            held.append(tracemalloc.get_traced_memory()[0])
            return back

        transient.append(traced_peak(load) - held[0])
    assert transient[1] < 1.25 * transient[0]
