import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    all_strings,
    assert_prefixes_refused_or_whole,
    char_cos_oracle,
    edit_distance_oracle,
    finite_values,
    lcs_len_oracle,
    round_trip,
    train_perceptron_oracle,
)
from sememevec.corpus import ParseError
from sememevec.morphsim import (
    CandidateIndex,
    SamplingError,
    SimilarityModel,
    TrainingPair,
    build_pairs,
    feature_rows,
    load_similarity_model,
    load_thesaurus,
    pad_words,
    save_similarity_model,
    score_rows,
    top_k_similar,
    train_perceptron,
)


def features(a, b):
    # the (lcs, edit, cos) row of one pair, from a one-pair feature_rows call
    return feature_rows(pad_words([a]), pad_words([b]))[0]


def similarity(model, a, b):
    return score_rows(model, features(a, b)[None])[0]


class TestStringMeasures:
    def test_lcs_known_values(self):
        assert features("次序", "秩序")[0] == 0.5
        assert features("abc", "abc")[0] == 1.0
        assert features("abc", "xyz")[0] == 0.0
        assert features("abcd", "bc")[0] == 0.5

    def test_edit_known_values(self):
        assert features("次序", "秩序")[1] == 0.5
        assert features("abc", "abc")[1] == 1.0
        assert features("ab", "ba")[1] == 0.0  # two substitutions over length 2
        assert features("abcd", "abc")[1] == 0.75

    def test_char_cos_known_values(self):
        assert features("次序", "秩序")[2] == 0.5
        assert features("ab", "ba")[2] == 1.0  # order-insensitive
        assert features("abc", "xyz")[2] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            features("", "a")
        with pytest.raises(ValueError):
            features("a", "")

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        alphabet = "xyz"
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(1, 5)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(1, 5)))
            f = features(a, b)
            assert np.array_equal(f, features(b, a))
            assert np.all((0.0 <= f) & (f <= 1.0))
            assert np.array_equal(features(a, a), [1.0, 1.0, 1.0])

    def test_oracle_sample(self):
        # exhaustive length <= 3 here; the full length <= 4 run is in acceptance
        strings = all_strings("xyz", 3)
        for a in strings:
            for b in strings:
                m = max(len(a), len(b))
                assert features(a, b).tolist() == [
                    lcs_len_oracle(a, b) / m, 1.0 - edit_distance_oracle(a, b) / m,
                    char_cos_oracle(a, b)]

    def test_features_vector(self):
        f = features("次序", "秩序")
        assert f.shape == (3,)
        assert np.allclose(f, [0.5, 0.5, 0.5])


def share_category(thesaurus, a, b):
    return any(a in words and b in words for words in thesaurus.values())


class TestThesaurus:
    def test_load(self, tmp_path):
        p = tmp_path / "th.tsv"
        p.write_text("A01\t薪水 月薪\nA02\t次序 顺序 秩序\n", encoding="utf-8")
        assert load_thesaurus(str(p)) == {"A01": {"薪水", "月薪"},
                                          "A02": {"次序", "秩序", "顺序"}}

    def test_repeated_id_merges(self, tmp_path):
        p = tmp_path / "th.tsv"
        p.write_text("A01\t薪水 月薪\nA02\t次序\nA01\t月薪 薪金\n", encoding="utf-8")
        assert load_thesaurus(str(p)) == {"A01": {"薪水", "月薪", "薪金"},
                                          "A02": {"次序"}}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "th.tsv"
        p.write_text("A01\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_thesaurus(str(p))

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError, match="category 'B' is empty"):
            build_pairs({"A": ["x", "y"], "B": []}, 1, 1, seed=0)

    def test_shared_word_counts_as_synonym(self):
        # y shares a category with both x and z, so only x-z is a negative
        th = {"A": ["x", "y"], "B": ["y", "z"]}
        for p in build_pairs(th, 0, 20, seed=5):
            assert {p.word_a, p.word_b} == {"x", "z"}


class TestPairSampling:
    def thesaurus(self):
        return {
            "A": ["薪水", "月薪", "薪金"],
            "B": ["次序", "顺序"],
            "C": ["房租", "租金"],
        }

    def test_counts_and_labels(self):
        pairs = build_pairs(self.thesaurus(), 10, 8, seed=1)
        assert sum(p.label for p in pairs) == 10
        assert sum(1 - p.label for p in pairs) == 18 - 10

    def test_positive_pairs_are_synonyms(self):
        th = self.thesaurus()
        for p in build_pairs(th, 20, 0, seed=2):
            assert share_category(th, p.word_a, p.word_b)
            assert p.word_a != p.word_b

    def test_negative_pairs_are_not_synonyms(self):
        th = self.thesaurus()
        for p in build_pairs(th, 0, 20, seed=3):
            assert not share_category(th, p.word_a, p.word_b)

    def test_deterministic(self):
        a = build_pairs(self.thesaurus(), 5, 5, seed=4)
        b = build_pairs(self.thesaurus(), 5, 5, seed=4)
        assert a == b

    def test_category_and_member_order_irrelevant(self):
        th = self.thesaurus()
        shuffled = {
            "C": ["租金", "房租", "租金"],
            "A": ("薪金", "薪水", "月薪", "薪水"),
            "B": {"顺序", "次序"},
        }
        assert build_pairs(shuffled, 12, 12, seed=6) == build_pairs(th, 12, 12, seed=6)

    def test_negative_count_rejected(self):
        # a negative count would draw nothing and leave the perceptron all zero
        for n_pos, n_neg in ((-5, 6), (6, -1)):
            with pytest.raises(ValueError, match="pair counts cannot be negative"):
                build_pairs(self.thesaurus(), n_pos, n_neg, seed=0)

    @pytest.mark.parametrize("thesaurus, n_pos, n_neg, message", [
        ({"A": ["x"], "B": ["y"]}, 1, 0, "positive pairs: no category holds two distinct words"),
        ({"A": ["x", "y"]}, 0, 1, "negative pairs: need at least two categories"),
        # every word is in both categories, so no draw can be a negative
        ({"A": ["x", "y"], "B": ["x", "y"]}, 0, 1, "could not find non-synonymous words"),
    ])
    def test_side_that_cannot_be_drawn_named(self, thesaurus, n_pos, n_neg, message):
        with pytest.raises(SamplingError, match=message):
            build_pairs(thesaurus, n_pos, n_neg, seed=0)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            TrainingPair("x", "x", 1)
        with pytest.raises(ValueError):
            TrainingPair("x", "y", 2)


def separable_pairs():
    # positives share a character, negatives share none
    pos = [("甲日", "乙日"), ("丙日", "丁日"), ("甲日", "丙日"), ("乙日", "丁日"),
           ("戊山", "己山"), ("庚山", "辛山"), ("戊山", "庚山"), ("己山", "辛山"),
           ("壬水", "癸水"), ("子水", "丑水")]
    neg = [("甲日", "戊山"), ("乙日", "己山"), ("丙日", "庚山"), ("丁日", "辛山"),
           ("甲日", "壬水"), ("乙日", "癸水"), ("戊山", "子水"), ("己山", "丑水"),
           ("庚山", "壬水"), ("辛山", "癸水")]
    return ([TrainingPair(a, b, 1) for a, b in pos]
            + [TrainingPair(a, b, 0) for a, b in neg])


class TestPerceptron:
    def test_reaches_full_accuracy_when_separable(self):
        pairs = separable_pairs()
        model = train_perceptron(pairs, 50)
        w = model.weights()
        correct = 0
        for p in pairs:
            margin = float(w @ features(p.word_a, p.word_b)) + model.bias
            correct += int(margin > 0) == p.label
        assert correct == len(pairs)

    def test_deterministic(self):
        pairs = separable_pairs()
        a = train_perceptron(pairs, 10)
        b = train_perceptron(pairs, 10)
        assert np.array_equal(a.weights(), b.weights()) and a.bias == b.bias

    def test_zero_epochs_zero_model(self):
        model = train_perceptron(separable_pairs(), 0)
        assert np.array_equal(model.weights(), [0.0, 0.0, 0.0])
        assert model.bias == 0.0

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_perceptron([], 5)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs cannot be negative"):
            train_perceptron(separable_pairs(), -1)

    @settings(max_examples=60)
    @given(pairs=st.lists(st.tuples(st.text("甲乙丙日山", min_size=1, max_size=3),
                                    st.text("甲乙丙日山", min_size=1, max_size=3),
                                    st.integers(0, 1)).filter(lambda t: t[0] != t[1]),
                          min_size=1, max_size=12).map(lambda ts: [TrainingPair(*t) for t in ts]),
           epochs=st.integers(0, 12))
    @example(pairs=separable_pairs(), epochs=50)
    def test_stopping_after_an_epoch_without_update_keeps_the_model(self, pairs, epochs):
        # separable or not, as random labels mostly make them
        assert train_perceptron(pairs, epochs) == train_perceptron_oracle(pairs, epochs)


class TestScoring:
    def model(self):
        return SimilarityModel(w_lcs=2.0, w_edit=1.0, w_cos=1.0, bias=-1.0)

    def test_similarity_in_unit_interval(self):
        m = self.model()
        for a, b in [("甲日", "乙日"), ("甲日", "戊山"), ("abc", "abc")]:
            assert 0.0 <= similarity(m, a, b) <= 1.0

    def test_sigmoid_midpoint(self):
        m = SimilarityModel()
        assert score_rows(m, np.zeros((1, 3))) == [0.5]

    def test_monotone_in_margin(self):
        m = self.model()
        close = similarity(m, "甲日", "乙日")
        far = similarity(m, "甲日", "戊山")
        assert close > far

    def test_top_k_ranking_and_ties(self):
        m = self.model()
        cands = ["乙日", "丙日", "戊山", "甲日"]
        top = top_k_similar(m, "甲日", cands, k=3)
        # query itself excluded, ties broken by code point order (丙 < 乙)
        assert [w for w, _ in top] == ["丙日", "乙日", "戊山"]
        assert top[0][1] == top[1][1]
        assert top[0][1] > top[2][1]

    def test_top_k_smaller_candidate_set(self):
        m = self.model()
        top = top_k_similar(m, "甲日", ["乙日"], k=5)
        assert len(top) == 1

    def test_top_k_negative_weights_rank_sharer_below_floor(self):
        m = SimilarityModel(w_lcs=-1.0, w_edit=-1.0, w_cos=-1.0, bias=0.5)
        top = top_k_similar(m, "甲日", ["甲乙", "戊己", "子", "丙丁"], k=4)
        # non-sharers tie at sigmoid(bias), in code point order (丙 < 子 < 戊)
        assert [w for w, _ in top] == ["丙丁", "子", "戊己", "甲乙"]
        assert top[0][1] == top[1][1] == top[2][1] == score_rows(m, np.zeros((1, 3)))[0]
        assert top[3][1] < top[2][1]

    def test_top_k_k_below_1_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            top_k_similar(self.model(), "甲日", ["乙日"], k=0)

    def test_top_k_empty_query_rejected(self):
        with pytest.raises(ValueError, match="require non-empty strings"):
            top_k_similar(self.model(), "", ["乙日"], k=1)

    def test_top_k_empty_candidate_rejected(self):
        with pytest.raises(ValueError):
            top_k_similar(self.model(), "甲日", ["乙日", ""], k=1)


class TestCandidateIndex:
    def test_iterates_words_in_sorted_order(self):
        # the benchmark's traced top-k hook iterates the index revision passes
        words = ["乙日", "ab", "甲日", "a", "戊山"]
        assert list(CandidateIndex(words)) == sorted(words)

    def test_sharing_ids_name_words_with_a_common_character(self):
        index = CandidateIndex(["乙日", "戊山", "甲日", "山日"])
        sharing = sorted(index.words[i] for i in index.sharing("日月"))
        assert sharing == ["乙日", "山日", "甲日"]
        assert index.sharing("月") == set()

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError, match="require non-empty strings"):
            CandidateIndex(["乙日", ""])

    def test_words_held_as_padded_code_points(self):
        index = CandidateIndex(["\U00020000", "甲甲乙"])
        assert index.words == ["甲甲乙", "\U00020000"]
        assert index.codes[0].tolist() == [ord("甲"), ord("甲"), ord("乙")]
        assert index.codes[1, 0] == 0x20000
        # a pad equals no code point
        assert index.codes[1, 1] == index.codes[1, 2] < 0
        assert index.lengths.tolist() == [3, 1]
        assert index.norms.tolist() == [2 * 2 + 1 * 1, 1]


def oracle_features(a, b):
    n = max(len(a), len(b))
    return [lcs_len_oracle(a, b) / n, 1.0 - edit_distance_oracle(a, b) / n,
            char_cos_oracle(a, b)]


def oracle_score(model, x):
    # the scalar arithmetic of one pair: one dot product, the bias, a sigmoid
    z = float(model.weights() @ np.array(x) + model.bias)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def brute_force_top_k(model, word, candidates, k):
    # score every candidate by the oracle measures, then sort
    scored = [(tok, oracle_score(model, oracle_features(word, tok)))
              for tok in candidates if tok != word]
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return scored[:k]


# a character outside the BMP, and one listed twice, which words draw twice as
# often and so hold repeatedly
ALPHABET = st.sampled_from("甲甲乙日月ab\U00020000")
short_words = st.text(alphabet=ALPHABET, min_size=1, max_size=4)
weight = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=300)
@given(data=st.data())
def test_top_k_equals_brute_force(data):
    candidates = data.draw(st.lists(short_words, min_size=1, max_size=12, unique=True))
    word = data.draw(st.one_of(st.sampled_from(candidates), short_words))
    model = SimilarityModel(*(data.draw(weight) for _ in range(4)))
    k = data.draw(st.integers(min_value=1, max_value=len(candidates) + 2))
    expected = brute_force_top_k(model, word, candidates, k)
    assert top_k_similar(model, word, candidates, k) == expected
    # a prebuilt index answers every query the list would
    index = CandidateIndex(candidates)
    assert top_k_similar(model, word, index, k) == expected
    for other in candidates:
        assert top_k_similar(model, other, index, k) == brute_force_top_k(
            model, other, candidates, k
        )


def unpruned_top_k(model, word, candidates, k):
    # every other candidate scored alone, then sorted
    scored = [(c, score_rows(model, feature_rows(pad_words([word]), pad_words([c])))[0])
              for c in candidates if c != word]
    return sorted(scored, key=lambda ts: (-ts[1], ts[0]))[:k]


def test_one_long_candidate_widens_only_its_own_table(monkeypatch):
    # 2-4 character words over 30 characters, and a 60-character word that
    # holds each of them twice and so shares a character with every query.
    # Its pairs are scored in a table of their own, so the tables of the
    # short words' pairs stay as narrow as the short words
    import sememevec.morphsim as morphsim_module
    rng = np.random.default_rng(3)
    alphabet = [chr(0x4E00 + i) for i in range(30)]
    short = sorted({"".join(rng.choice(alphabet, rng.integers(2, 5))) for _ in range(150)})
    long_word = "".join(alphabet * 2)
    queries = short[:10] + ["".join(rng.choice(alphabet, 3)) for _ in range(10)]
    model = SimilarityModel(w_lcs=1.5, w_edit=0.7, w_cos=2.0, bias=-1.0)
    cells = []

    def recording(a, b, feature_rows=feature_rows):
        cells.append(len(b[1]) * (a[0].shape[1] + 1) * (b[0].shape[1] + 1))
        return feature_rows(a, b)

    def table_cells(candidates, q):
        cells.clear()
        top = top_k_similar(model, q, CandidateIndex(candidates), 5)
        assert top == unpruned_top_k(model, q, candidates, 5)
        return sum(cells)

    monkeypatch.setattr(morphsim_module, "feature_rows", recording)
    for q in queries:
        assert table_cells(short + [long_word], q) == table_cells(short, q) + (
            (len(q) + 1) * (len(long_word) + 1))


def exact(values):
    return np.asarray(values, dtype=np.float64).tobytes()


words_to_6 = st.text(alphabet=ALPHABET, min_size=1, max_size=6)
models = st.builds(SimilarityModel, *[st.floats(min_value=-40.0, max_value=40.0)] * 4)


@settings(max_examples=200)
@given(query=words_to_6, candidates=st.lists(words_to_6, max_size=8), model=models)
def test_feature_rows_equal_oracles_and_scores_equal_scalar_arithmetic(
        query, candidates, model):
    want = [oracle_features(query, c) for c in candidates]
    # one query against its candidates, as top_k_similar calls it
    one_query = feature_rows(pad_words([query]), pad_words(candidates))
    assert one_query.shape == (len(candidates), 3)
    assert exact(one_query) == exact(want)
    # pairs of mixed lengths padded on both sides, as train_perceptron calls it
    others = candidates[::-1]
    pairwise = feature_rows(pad_words(candidates), pad_words(others))
    assert pairwise.shape == (len(candidates), 3)
    assert exact(pairwise) == exact([oracle_features(a, b)
                                     for a, b in zip(candidates, others)])
    assert exact(score_rows(model, one_query)) == exact(
        [oracle_score(model, x) for x in want])
    # each batch row equals its pair scored alone
    for c, row, x in zip(candidates, one_query, want):
        alone = feature_rows(pad_words([query]), pad_words([c]))
        assert exact(alone) == exact(row[None])
        assert exact(score_rows(model, alone)) == exact([oracle_score(model, x)])


@settings(max_examples=100)
@given(st.builds(SimilarityModel, finite_values, finite_values, finite_values, finite_values))
def test_similarity_model_round_trips_exactly(model):
    back = round_trip(save_similarity_model, load_similarity_model, model)
    exact = [np.float64(v).tobytes() for v in dataclasses.astuple(model)]
    assert [np.float64(v).tobytes() for v in dataclasses.astuple(back)] == exact


@settings(max_examples=25)
@given(st.builds(SimilarityModel, finite_values, finite_values, finite_values, finite_values))
def test_cut_short_similarity_model_file_is_refused(model):
    assert_prefixes_refused_or_whole(save_similarity_model, load_similarity_model, model)


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        m = SimilarityModel(w_lcs=0.1234567890123, w_edit=-2.5, w_cos=1e-17, bias=3.0)
        p = tmp_path / "m.model"
        save_similarity_model(m, str(p))
        back = load_similarity_model(str(p))
        assert back == m

    @pytest.mark.parametrize("field", ["w_lcs", "w_edit", "w_cos", "bias"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected_at_construction(self, field, bad):
        # save_similarity_model would write a file that load_similarity_model refuses
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimilarityModel(**{field: bad})

    # each file's text and the message after its path. save_similarity_model
    # writes each field once, in declaration order, as "name value" with one
    # space; split() read every separator below and float() every number
    @pytest.mark.parametrize("text, message", [
        ("lcs 1.0\n", "line 1: expected 'w_lcs ...', got 'lcs 1.0'"),
        ("w_lcs 1\nw_lcs 5\nw_edit 0\nw_cos 0\nbias 0\n",
         "line 2: expected 'w_edit ...', got 'w_lcs 5'"),
        ("w_edit 0\nw_lcs 1\nw_cos 0\nbias 0\n", "line 1: expected 'w_lcs ...', got 'w_edit 0'"),
        ("w_lcs 1\nw_edit 0\nbias 0\nw_cos 0\n", "line 3: expected 'w_cos ...', got 'bias 0'"),
        ("w_lcs 1\nw_edit 0\nbias 0\n", "line 3: expected 'w_cos ...', got 'bias 0'"),
        ("w_lcs 1\nw_edit 0\nw_cos 0\n", "unexpected end of file, expected 'bias'"),
        ("w_lcs 1\nw_edit 0\nw_cos 0\nbias 0\nw_lcs 1\n", "line 5: unexpected line after 'bias'"),
        ("\nw_lcs 1\nw_edit 0\nw_cos 0\nbias 0\n", "line 1: expected 'w_lcs ...', got ''"),
        ("w_lcs 1\nw_edit 0\n\nw_cos 0\nbias 0\n", "line 3: expected 'w_cos ...', got ''"),
        ("w_lcs 1\nw_edit 0\nw_cos 0\nbias 0\n\n", "line 5: unexpected line after 'bias'"),
        ("w_lcs\t 1\nw_edit 0\nw_cos 0\nbias 0\n",
         "line 1: expected 'w_lcs ...', got 'w_lcs\\t 1'"),
        ("w_lcs 1\nw_edit  0\nw_cos 0\nbias 0\n", "line 2: malformed number ' 0'"),
        ("w_lcs 1\nw_edit 0\nw_cos 0 \nbias 0\n", "line 3: malformed number '0 '"),
        ("w_lcs 1\nw_edit 0\nw_cos 0\n bias 0\n", "line 4: expected 'bias ...', got ' bias 0'"),
        ("w_lcs 1\nw_edit 0\nw_cos 0\nbias\u30000\n",
         "line 4: expected 'bias ...', got 'bias\\u30000'"),
        *((f"w_lcs 1\nw_edit 0\nw_cos 0\nbias {bad}\n", f"line 4: malformed number '{bad}'")
          for bad in ("1_5", "+1", "\u0661", ".5", "1.", "1e5")),
        *((f"w_lcs 0.5\nw_edit 1\nw_cos {bad}\nbias 0\n", "line 3: non-finite value")
          for bad in ("nan", "inf", "-inf")),
    ])
    def test_file_refused_with_its_message(self, tmp_path, text, message):
        p = tmp_path / "m.model"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_similarity_model(str(p))
        assert str(exc.value) == f"{p}: {message}"
