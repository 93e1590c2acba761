import numpy as np
import pytest

from conftest import average_ranks_oracle, spearman_oracle
from sememevec.corpus import ParseError
from sememevec.embedding import EmbeddingSpace
from sememevec.evaluate import (
    EvaluationError,
    Span,
    average_ranks,
    decode_spans,
    eval_similarity,
    format_prf,
    load_judgements,
    per_type_prf,
    span_prf,
    spans_of_corpus,
    spearman,
)
from sememevec.tagger import repair_bi


class TestRanks:
    def test_no_ties(self):
        assert average_ranks([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]

    def test_tie_averaging(self):
        assert average_ranks([1.0, 2.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_all_equal(self):
        assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    def test_equals_counting_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            values = rng.integers(0, 5, rng.integers(0, 12)).astype(float).tolist()
            assert average_ranks(values) == average_ranks_oracle(values)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0

    def test_perfect_disagreement(self):
        assert spearman([1.0, 2.0, 3.0], [9.0, 5.0, 1.0]) == -1.0

    def test_monotone_transform_invariant(self):
        xs = [0.3, 1.2, -4.0, 2.2, 0.9]
        ys = [1.0, 3.0, 2.0, 5.0, 4.0]
        base = spearman(xs, ys)
        assert spearman([x ** 3 for x in xs], ys) == pytest.approx(base, abs=1e-12)
        assert spearman(xs, [2.0 * y + 7.0 for y in ys]) == pytest.approx(base, abs=1e-12)

    def test_symmetry(self):
        xs = [1.0, 5.0, 2.0, 2.0]
        ys = [3.0, 1.0, 4.0, 4.0]
        assert spearman(xs, ys) == pytest.approx(spearman(ys, xs), abs=1e-15)

    def test_tie_fixture_matches_oracle(self):
        xs = [1.0, 2.0, 2.0, 4.0]
        ys = [10.0, 20.0, 30.0, 40.0]
        assert spearman(xs, ys) == pytest.approx(spearman_oracle(xs, ys), abs=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            xs = list(rng.integers(0, 6, n).astype(float))
            ys = list(rng.integers(0, 6, n).astype(float))
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert abs(spearman(xs, ys) - spearman_oracle(xs, ys)) <= 1e-9

    def test_errors(self):
        with pytest.raises(EvaluationError):
            spearman([1.0], [2.0])
        with pytest.raises(EvaluationError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvaluationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestJudgements:
    def test_load(self, tmp_path):
        p = tmp_path / "j.tsv"
        p.write_text("甲\t乙\t7.5\n丙\t丁\t2\n", encoding="utf-8")
        assert load_judgements(str(p)) == [("甲", "乙", 7.5), ("丙", "丁", 2.0)]

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "j.tsv"
        p.write_text("甲\t乙\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_judgements(str(p))

    def test_bad_score(self, tmp_path):
        p = tmp_path / "j.tsv"
        p.write_text("甲\t乙\thigh\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_judgements(str(p))

    # no space row could hold such a word, so the pair would count as uncovered
    @pytest.mark.parametrize("row", ["a\tb c\t3", "a b\tc\t3", "甲\u3000乙\t丙\t3"])
    def test_word_with_whitespace_rejected(self, tmp_path, row):
        p = tmp_path / "j.tsv"
        p.write_text(f"甲\t乙\t7.5\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: word .* contains whitespace"):
            load_judgements(str(p))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score(self, tmp_path, bad):
        p = tmp_path / "j.tsv"
        p.write_text(f"甲\t乙\t7.5\n丙\t丁\t{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2:"):
            load_judgements(str(p))


class TestEvalSimilarity:
    def space(self):
        s = EmbeddingSpace(2)
        s.add("a", np.array([1.0, 0.0]))
        s.add("b", np.array([0.9, 0.1]))
        s.add("c", np.array([0.0, 1.0]))
        s.add("d", np.array([-1.0, 0.0]))
        return s

    def test_perfect_rank_agreement(self):
        judgements = [("a", "b", 9.0), ("a", "c", 5.0), ("a", "d", 1.0)]
        rho, cov = eval_similarity(self.space(), judgements)
        assert rho == 1.0
        assert cov == 1.0

    def test_coverage_counts_dropped_pairs(self):
        judgements = [("a", "b", 9.0), ("a", "c", 5.0), ("a", "zzz", 7.0), ("zzz", "d", 3.0)]
        rho, cov = eval_similarity(self.space(), judgements)
        assert cov == 0.5

    def test_too_few_scored_pairs(self):
        judgements = [("a", "zzz", 5.0), ("zzz", "b", 5.0), ("a", "b", 5.0)]
        with pytest.raises(EvaluationError):
            eval_similarity(self.space(), judgements)

    def test_empty_judgements(self):
        with pytest.raises(EvaluationError):
            eval_similarity(self.space(), [])


class TestSpanDecoding:
    def test_b_then_i(self):
        assert decode_spans(["B-Date", "I-Date", "O"]) == [Span(0, 0, 1, "Date")]

    def test_adjacent_b(self):
        assert decode_spans(["B-Date", "B-Date"]) == [
            Span(0, 0, 0, "Date"), Span(0, 1, 1, "Date")]

    def test_bare_i_opens(self):
        assert decode_spans(["O", "I-Date"]) == [Span(0, 1, 1, "Date")]

    def test_type_switch_closes(self):
        assert decode_spans(["B-Date", "I-Time"]) == [
            Span(0, 0, 0, "Date"), Span(0, 1, 1, "Time")]

    def test_span_runs_to_end(self):
        assert decode_spans(["O", "B-Date", "I-Date"]) == [Span(0, 1, 2, "Date")]

    def test_bad_label(self):
        with pytest.raises(EvaluationError):
            decode_spans(["B-Date", "nope"])

    def test_consistent_with_repair(self):
        # decoding a raw sequence equals decoding its repaired form
        rng = np.random.default_rng(51)
        labels = ["O", "B-Date", "I-Date", "B-Time", "I-Time"]
        for _ in range(100):
            seq = [labels[rng.integers(len(labels))] for _ in range(rng.integers(1, 10))]
            assert decode_spans(seq) == decode_spans(repair_bi(seq))

    def test_equals_open_close_oracle(self):
        # a decoder that keeps an open span and closes it at O, at B- and at
        # an I- of another type; malformed labels must raise at the same place
        def oracle(labels):
            spans, start, kind = [], None, None
            for i, lab in enumerate(labels + ["O"]):
                if lab != "O" and (len(lab) <= 2 or lab[:2] not in ("B-", "I-")):
                    return "error"
                if kind is not None and (lab == "O" or lab[:2] == "B-" or lab[2:] != kind):
                    spans.append(Span(0, start, i - 1, kind))
                    kind = None
                if lab != "O" and kind is None:
                    start, kind = i, lab[2:]
            return spans

        rng = np.random.default_rng(59)
        labels = ["O", "B-Date", "I-Date", "B-Time", "I-Time", "I-", "B-", "nope"]
        for _ in range(2000):
            seq = [labels[k] for k in rng.choice(len(labels), rng.integers(0, 10),
                                                 p=[.2, .2, .2, .15, .15, .03, .03, .04])]
            try:
                got = decode_spans(seq)
            except EvaluationError:
                got = "error"
            assert got == oracle(seq)

    def test_round_trip_spans_to_labels(self):
        spans = [Span(0, 1, 2, "Date"), Span(0, 4, 4, "Time")]
        labels = ["O"] * 6
        for s in spans:
            labels[s.start] = f"B-{s.entity_type}"
            for i in range(s.start + 1, s.end + 1):
                labels[i] = f"I-{s.entity_type}"
        assert decode_spans(labels) == spans

    def test_corpus_level_sentence_indices(self):
        spans = spans_of_corpus([["B-Date"], ["O", "B-Date"]])
        assert spans == {Span(0, 0, 0, "Date"), Span(1, 1, 1, "Date")}

    def test_invalid_span_bounds_rejected(self):
        with pytest.raises(ValueError):
            Span(0, 3, 2, "Date")


class TestSpanPRF:
    def test_identical(self):
        gold = {Span(0, 0, 1, "Date"), Span(1, 0, 0, "Time")}
        assert span_prf(gold, gold) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        gold = {Span(0, i, i, "Date") for i in range(4)}
        pred = {Span(0, i, i, "Date") for i in range(3)} | {
            Span(1, 0, 0, "Date"), Span(2, 0, 0, "Date")}
        p, r, f = span_prf(gold, pred)
        assert format_prf(p, r, f) == "60.0 75.0 66.7"

    def test_empty_pred(self):
        gold = {Span(0, 0, 0, "Date")}
        assert span_prf(gold, set()) == (0.0, 0.0, 0.0)

    def test_empty_gold(self):
        pred = {Span(0, 0, 0, "Date")}
        assert span_prf(set(), pred) == (0.0, 0.0, 0.0)

    def test_type_must_match(self):
        gold = {Span(0, 0, 0, "Date")}
        pred = {Span(0, 0, 0, "Time")}
        assert span_prf(gold, pred) == (0.0, 0.0, 0.0)

    def test_per_type(self):
        gold = {Span(0, 0, 0, "Date"), Span(0, 2, 2, "Time")}
        pred = {Span(0, 0, 0, "Date"), Span(0, 3, 3, "Time")}
        by_type = per_type_prf(gold, pred)
        assert by_type["Date"] == (1.0, 1.0, 1.0)
        assert by_type["Time"] == (0.0, 0.0, 0.0)

    def test_format(self):
        assert format_prf(1.0, 1.0, 1.0) == "100.0 100.0 100.0"
        assert format_prf(0.0, 0.0, 0.0) == "0.0 0.0 0.0"
