"""Tests of the benchmark's generators, correctness checks and traced run."""

import filecmp
import json
import os

import numpy as np
import pytest

import checks
import generate
import run
import tracing
from sememevec.corpus import TaggedSentence, build_vocabulary, load_corpus, save_tagged_corpus
from sememevec.embedding import EmbeddingSpace, load_space
from sememevec.morphsim import build_pairs, load_thesaurus, top_k_similar, train_perceptron
from sememevec.revise import CombinedSpaceConfig, build_combined_space
from sememevec.sememe import make_hownet_fn, parse_lexicon
from sememevec.tagger import load_tagger, tag_sentence
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# workload sizes small enough for a unit test
SMALL = {
    "REVISE_FAMILIES": 30, "REVISE_ZIPF_TOP": 300, "REVISE_UNSEEN": 10,
    "REVISE_JUDGEMENTS_PER_GRADE": 20, "TAG_WORDS": 1500, "TAG_OOV_WORDS": 150,
    "TAG_TOKENS": 3000,
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(generate, name, value)
    monkeypatch.setattr(WORKLOADS["pipeline"], "EPOCHS", 1)
    monkeypatch.setattr(WORKLOADS["pipeline"], "MAX_ITER", 20)


def _files(directory):
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("name", sorted(generate.GENERATORS))
def test_generator_is_deterministic_in_the_seed(name, tmp_path):
    make = generate.GENERATORS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    make(5, str(dirs[0]))
    make(5, str(dirs[1]))
    make(6, str(dirs[2]))
    files = _files(dirs[0])
    assert files and files == _files(dirs[1]) == _files(dirs[2])
    same = [filecmp.cmp(dirs[0] / f, dirs[1] / f, shallow=False) for f in files]
    other = [filecmp.cmp(dirs[0] / f, dirs[2] / f, shallow=False) for f in files]
    assert all(same)
    assert not all(other)


def test_pipeline_check_catches_failed_gates():
    assert all(ok for _, ok in checks.check_pipeline(
        {"f_final": 1.0, "f_char": 0.97, "f_w2v": 0.9}))
    for bad in ({"f_final": 0.94, "f_char": 0.9, "f_w2v": 0.8},
                {"f_final": 0.96, "f_char": 0.97, "f_w2v": 0.8},
                {"f_final": 1.0, "f_char": 0.9, "f_w2v": 0.91}):
        assert not all(ok for _, ok in checks.check_pipeline(bad))


def test_brute_force_measures():
    assert checks.lcs_len("abcab", "xcabz") == 3
    assert checks.edit_distance("kitten", "sitting") == 3
    assert checks.char_cos("aab", "aab") == 1.0
    assert checks.char_cos("ab", "cd") == 0.0


def test_revise_check_catches_corruption(small, tmp_path):
    inp = generate.make_rare_revise(3, str(tmp_path))
    vocab = build_vocabulary(load_corpus(inp["paths"]["corpus.txt"]))
    rng = np.random.default_rng(0)
    original = EmbeddingSpace(8)
    for w in vocab:
        original.add(w, rng.standard_normal(8))
    model = train_perceptron(build_pairs(load_thesaurus(inp["paths"]["thesaurus.tsv"]),
                                         50, 50, seed=0), 10)
    frequent = [w for w in vocab if vocab.tf(w) > 2]
    sample = sorted(w for w in vocab if vocab.tf(w) <= 2)[:3] + inp["unseen"][:2]
    combined = build_combined_space(frequent + sample, original, model, vocab,
                                    CombinedSpaceConfig(k=5))
    orig = dict(original.items())
    comb = dict(combined.items())
    topk = {q: top_k_similar(model, q, vocab, 5) for q in sample}

    def passes(comb, topk):
        return all(ok for _, ok in checks.check_revise(orig, comb, vocab, model, topk, 2, 5))

    assert passes(comb, topk)

    moved = dict(comb)
    moved[frequent[0]] = comb[frequent[0]] + 1e-12
    assert not passes(moved, topk)

    wrong = dict(topk)
    q = sample[0]
    outsider = next(w for w in vocab if w not in {n for n, _ in topk[q]} and w != q)
    wrong[q] = topk[q][:-1] + [(outsider, topk[q][-1][1])]
    assert not passes(comb, wrong)

    revised = dict(comb)
    revised[q] = comb[q] * 1.5
    assert not passes(revised, topk)

    broken = dict(comb)
    broken[q] = np.full(8, np.nan)
    assert not passes(broken, topk)


def test_tag_oracle_matches_library_and_catches_a_flipped_label(small, tmp_path):
    inp = generate.make_tag_stream(4, str(tmp_path))
    expected = checks.oracle_labels(inp)  # what TagStream.prepare computes
    p = inp["paths"]
    model = load_tagger(p["tagger.model"])
    words, chars = load_space(p["words.vec"]), load_space(p["chars.vec"])
    hownet = make_hownet_fn(parse_lexicon(p["lexicon.tsv"]), load_space(p["sememe.vec"]))
    tagged = [TaggedSentence(s, tag_sentence(model, s, words, hownet, chars))
              for s in inp["sentences"]]
    assert [t.labels for t in tagged] == expected
    assert any(lab.startswith("I-") for labs in expected for lab in labs)

    path = tmp_path / "tagged.txt"
    save_tagged_corpus(tagged, str(path))
    assert all(ok for _, ok in checks.check_tagged(inp["sentences"], expected, str(path)))

    lines = path.read_text(encoding="utf-8").splitlines()
    token, label = lines[7].split()[0].rsplit("/", 1)
    flipped = "O" if label != "O" else "B-PER"
    lines[7] = " ".join([f"{token}/{flipped}"] + lines[7].split()[1:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = checks.check_tagged(inp["sentences"], expected, str(path))
    assert [name for name, ok in result if not ok] == ["sentence 7"]


def test_planted_tagger_has_a_margin(small, tmp_path):
    inp = generate.make_tag_stream(4, str(tmp_path))
    W, b = inp["W"], inp["b"]
    dim = generate.TAG_DIM
    centre = generate.TAG_RADIUS * dim
    for row in inp["word_vecs"][:200]:
        x = np.zeros(W.shape[1])
        x[centre:centre + dim] = row
        logits = np.sort(W @ x + b)
        assert logits[-1] - logits[-2] > 0.25


# layers that run on each workload; their per-layer metrics must be non-zero
RUNS_ON = {
    "pipeline": (
        "embedding.word.", "embedding.char.", "embedding.updates", "embedding.save_",
        "sememe.replace_s", "sememe.expanded_tokens", "sememe.train_s", "sememe.hownet_",
        "tagger.train_s", "tagger.fits", "tagger.loss_evals", "tagger.final_gnorm",
        "tagger.hit_max_iter", "tagger.features_s", "tagger.feature_rows",
        "tagger.zero_share.context", "tagger.zero_share.hownet", "tagger.predict_s",
        "tagger.tag_", "tagger.save_s", "morphsim.", "revise.build_s", "revise.self_s",
        "revise.targets", "revise.passed", "revise.revised", "revise.rare_words_per_s",
        "corpus.load_s", "corpus.tokens_per_s", "corpus.vocab_s", "evaluate.",
    ),
    "rare-revise": (
        "embedding.word.", "embedding.updates", "embedding.save_", "morphsim.",
        "revise.build_s", "revise.self_s", "revise.targets", "revise.passed",
        "revise.revised", "revise.rare_words_per_s", "corpus.load_s",
        "corpus.tokens_per_s", "corpus.vocab_s",
    ),
    "tag-stream": (
        "embedding.load_", "sememe.hownet_", "tagger.features_s", "tagger.feature_rows",
        "tagger.zero_share.context", "tagger.zero_share.hownet", "tagger.predict_s",
        "tagger.tag_", "tagger.load_s", "corpus.load_s", "corpus.tokens_per_s",
        "corpus.save_s",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, small, tmp_path):
    wl = WORKLOADS[name]
    inp = wl.generate(2, str(tmp_path))
    inp["seed"] = 2
    res, tracer = run.measure(wl, inp, 0, True, str(tmp_path))
    metrics = run.per_layer_metrics(res, inp["properties"], run.environment())
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(metrics[k][1] == units[k] for k in metrics)
    for key, (value, _) in metrics.items():
        if key.startswith(RUNS_ON[name]):
            assert value > 0, key
    # the layers' self times and the glue account for the traced iteration
    assert metrics["trace.self_sum_s"][0] == pytest.approx(metrics["trace.wall_s"][0],
                                                           rel=1e-3)
    if name == "pipeline":
        assert metrics["tagger.hit_max_iter"][0] == 3
    spans = tracer.arrays()
    assert len(spans["start"]) == sum(v[0] for v in tracer.totals(0).values())


def test_end_to_end_output_follows_the_contract(small, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    assert run.main(["--workload", "rare-revise", "--seed", "3", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_skipgram_update_count_matches_enumeration():
    lengths = [1, 2, 5, 9]
    for window in (1, 2, 5):
        pairs = sum(1 for m in lengths for i in range(m)
                    for j in range(max(0, i - window), min(m, i + window + 1)) if j != i)
        assert tracing.skipgram_updates(lengths, window) == pairs
