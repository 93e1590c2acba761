"""Top-level acceptance checks, one test per criterion.

c11/c12 drive the whole pipeline on a synthetic corpus where every token
ending in the date character is a single-token Date entity and a fifth of
the entity occurrences in the held-out part use token types absent from
embedding training but morphologically similar to seen ones. c15 scores
word similarity from HowNet alone, trained sememe vectors against random ones.
"""

import filecmp
import os

import numpy as np
import pytest

from conftest import (
    all_strings,
    char_cos_oracle,
    edit_distance_oracle,
    lcs_len_oracle,
    spearman_oracle,
)
from sememevec.corpus import Corpus, TaggedSentence, build_vocabulary
from sememevec.embedding import (
    EmbeddingSpace,
    TrainConfig,
    corpus_to_characters,
    cosine,
    negative_sampling_loss_and_grads,
    save_space,
    train_embeddings,
)
from sememevec.evaluate import eval_similarity, span_prf, spans_of_corpus, spearman
from sememevec.morphsim import (
    TrainingPair,
    build_pairs,
    feature_rows,
    load_thesaurus,
    pad_words,
    save_similarity_model,
    train_perceptron,
)
from sememevec.revise import build_combined_space, combine, tf_bucket
from sememevec.sememe import (
    build_sememe_space,
    hownet_space,
    make_hownet_fn,
)
from sememevec.tagger import (
    FeatureSpec,
    LabelScheme,
    _distinct_blocks,
    save_tagger,
    sentence_features,
    softmax_loss_and_grads,
    tag_sentence,
    train_logreg,
)


def test_c01_tf_bucket_table_and_oracle():
    table = {150: 4, 100: 3, 21: 3, 20: 2, 6: 2, 5: 1, 3: 1, 2: 0, 0: 0}
    for tf, want in table.items():
        assert tf_bucket(tf) == want

    def oracle(tf):
        if tf > 100:
            return 4
        if 20 < tf <= 100:
            return 3
        if 5 < tf <= 20:
            return 2
        if 2 < tf <= 5:
            return 1
        return 0

    for tf in range(0, 1001):
        assert tf_bucket(tf) == oracle(tf)


@pytest.fixture(scope="module")
def toy_sememe_setup():
    """Tiny corpus and lexicon trained just enough for vector checks."""
    lex = {
        "房租": ["费用", "借入", "房屋"],
        "薪水": ["费用", "报酬"],
        "工资": ["费用", "报酬"],
        "次序": ["顺序", "属性"],
        "秩序": ["顺序", "属性"],
        "费用": ["金钱"],
    }
    base = [
        ["他", "付", "房租", "了"],
        ["公司", "发", "薪水", "了"],
        ["工资", "是", "收入"],
        ["次序", "要", "清楚"],
        ["秩序", "要", "维持"],
        ["费用", "不", "低"],
    ]
    corpus = Corpus(base * 8)
    cfg = TrainConfig(dim=12, window=2, negative=3, epochs=3, seed=13)
    space = build_sememe_space(corpus, lex, cfg)
    return lex, space


def test_c02_identical_sememe_lists_cosine_one(toy_sememe_setup):
    lex, space = toy_sememe_setup
    hownet = hownet_space(lex, space)
    for a, b in (("薪水", "工资"), ("次序", "秩序")):
        va = hownet.get(a)
        vb = hownet.get(b)
        assert va is not None and vb is not None
        assert abs(cosine(va, vb) - 1.0) <= 1e-12


def test_c03_sememe_sum_construction(toy_sememe_setup):
    lex, space = toy_sememe_setup
    got = hownet_space(lex, space).get("房租")
    want = space.get("费用") + space.get("借入") + space.get("房屋")
    assert np.allclose(got, want, atol=1e-12)


def test_c04_gradient_checks():
    rng = np.random.default_rng(61)
    h = 1e-6

    # batched negative-sampling loss wrt input vectors and the batch's
    # distinct output rows: 1-3 targets per step, the last of the first step
    # dead, and noise slots that count 0 up to the step's live targets, over
    # a table of 2-5 rows, so slots share rows
    for _ in range(10):
        b = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(2, 7))
        d = int(rng.integers(3, 9))
        u = int(rng.integers(2, 6))
        hidden = rng.normal(0, 1, (b, d))
        table = rng.normal(0, 1, (u, d))
        index = rng.integers(0, u, (b, t + k))
        live = np.ones((b, t), dtype=int)
        live[0, -1] = 0
        n_live = live.sum(axis=1, keepdims=True)
        weight = np.column_stack((live, rng.integers(0, n_live + 1, (b, k))))
        weight[0, t], weight[0, -1] = 0, n_live[0, 0]

        def loss(hd, tb):
            return negative_sampling_loss_and_grads(hd, tb, index, weight, t)[0]

        _, g_hidden, g_table = negative_sampling_loss_and_grads(hidden, table, index, weight, t)
        for j in range(d):
            hp = hidden.copy(); hp[0, j] += h
            hm = hidden.copy(); hm[0, j] -= h
            num = (loss(hp, table) - loss(hm, table)) / (2 * h)
            assert abs(num - g_hidden[0, j]) <= 1e-4 * max(1.0, abs(num))
        for r in range(u):
            for j in range(d):
                tp = table.copy(); tp[r, j] += h
                tm = table.copy(); tm[r, j] -= h
                num = (loss(hidden, tp) - loss(hidden, tm)) / (2 * h)
                assert abs(num - g_table[r, j]) <= 1e-4 * max(1.0, abs(num))

    # multiclass L2 logistic loss wrt weights and biases
    X = rng.normal(0, 1, (20, 5))
    y = rng.integers(0, 3, 20)
    y[:3] = [0, 1, 2]
    for _ in range(10):
        W = rng.normal(0, 0.6, (3, 5))
        b = rng.normal(0, 0.6, 3)
        _, gw, gb = softmax_loss_and_grads(W, b, X, y, 0.2)
        for i in range(3):
            for j in range(5):
                Wp = W.copy(); Wp[i, j] += h
                Wm = W.copy(); Wm[i, j] -= h
                num = (softmax_loss_and_grads(Wp, b, X, y, 0.2)[0]
                       - softmax_loss_and_grads(Wm, b, X, y, 0.2)[0]) / (2 * h)
                assert abs(num - gw[i, j]) <= 1e-5 * max(1.0, abs(num))
            bp = b.copy(); bp[i] += h
            bm = b.copy(); bm[i] -= h
            num = (softmax_loss_and_grads(W, bp, X, y, 0.2)[0]
                   - softmax_loss_and_grads(W, bm, X, y, 0.2)[0]) / (2 * h)
            assert abs(num - gb[i]) <= 1e-5 * max(1.0, abs(num))


def test_c05_two_cluster_embedding_sanity():
    a_words = [f"侧{i}" for i in range(15)]
    b_words = [f"另{i}" for i in range(15)]
    for seed in (1, 2, 3):
        rng = np.random.default_rng(1000 + seed)
        sents = []
        for _ in range(2000):
            pool = a_words if rng.random() < 0.5 else b_words
            sents.append([pool[int(rng.integers(15))] for _ in range(8)])
        # mean within / cross cosines over seeds 1-3: 0.976-0.985 / 0.058-0.061
        # with one skip-gram step per (center, context) pair, 0.988-0.990 /
        # 0.148-0.172 with one step per center and shared noise words
        cfg = TrainConfig(dim=25, window=3, negative=5, epochs=5, seed=seed)
        space = train_embeddings(Corpus(sents), cfg)
        within, cross = [], []
        for i, u in enumerate(a_words):
            for v in a_words[i + 1:]:
                within.append(cosine(space.get(u), space.get(v)))
        for i, u in enumerate(b_words):
            for v in b_words[i + 1:]:
                within.append(cosine(space.get(u), space.get(v)))
        for u in a_words:
            for v in b_words:
                cross.append(cosine(space.get(u), space.get(v)))
        assert np.mean(within) > np.mean(cross)


def test_c06_string_measure_oracles_exhaustive():
    strings = all_strings("xyz", 4)
    assert len(strings) == 120
    pairs = [(a, b) for a in strings for b in strings]
    # all 14,400 pairs in one call
    rows = feature_rows(pad_words([a for a, _ in pairs]),
                        pad_words([b for _, b in pairs]))
    assert rows.shape == (14400, 3)
    for (a, b), (lcs, edit, cos) in zip(pairs, rows.tolist()):
        m = max(len(a), len(b))
        assert lcs == lcs_len_oracle(a, b) / m
        assert edit == 1.0 - edit_distance_oracle(a, b) / m
        assert cos == char_cos_oracle(a, b)


def test_c07_perceptron_separable_fixture():
    shared = "日月山水"
    pos, neg = [], []
    for i in range(20):
        ch = shared[i % 4]
        pos.append(TrainingPair(chr(0x4E00 + i) + ch, chr(0x4F00 + i) + ch, 1))
    for i in range(20):
        neg.append(TrainingPair(chr(0x5000 + i) + chr(0x5100 + i),
                                chr(0x5200 + i) + chr(0x5300 + i), 0))
    pairs = pos + neg
    assert len(pairs) == 40
    model = train_perceptron(pairs, 50)
    w = model.weights()
    rows = feature_rows(pad_words([p.word_a for p in pairs]),
                        pad_words([p.word_b for p in pairs]))
    correct = 0
    for p, x in zip(pairs, rows):
        margin = float(w @ x) + model.bias
        correct += int(margin > 0) == p.label
    assert correct == 40


def test_c08_combine_endpoints_and_midpoint():
    rng = np.random.default_rng(67)
    o = rng.normal(0, 1, 3)
    s = rng.normal(0, 1, 3)
    assert np.array_equal(combine(o, s, 150), o)
    assert np.array_equal(combine(o, s, 0), s)
    assert np.allclose(combine(o, s, 10), 0.5 * o + 0.5 * s, atol=1e-12)


def test_c09_spearman_against_rank_oracle():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 21))
        xs = list(rng.integers(0, 8, n).astype(float))
        ys = list(rng.integers(0, 8, n).astype(float))
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert abs(spearman(xs, ys) - spearman_oracle(xs, ys)) <= 1e-9
        checked += 1


def test_c10_span_scorer_hand_cases():
    from sememevec.evaluate import Span, format_prf

    gold = {Span(0, i, i, "Date") for i in range(4)}
    pred = {Span(0, 0, 0, "Date"), Span(0, 1, 1, "Date"), Span(0, 2, 2, "Date"),
            Span(1, 0, 0, "Date"), Span(1, 2, 2, "Date")}
    p, r, f = span_prf(gold, pred)
    assert format_prf(p, r, f) == "60.0 75.0 66.7"
    assert format_prf(*span_prf(gold, gold)) == "100.0 100.0 100.0"


# ---------------------------------------------------------------------------
# synthetic end-to-end pipeline for c11/c12

DATE_CHAR = "日"
MARKER = "于"
SUFFIXES = "山水木火土金"
PIPELINE_SEED = 101
SEEN_ENTITIES = [chr(0x4E00 + i) + DATE_CHAR for i in range(16)]
UNSEEN_ENTITIES = [chr(0x4E00 + 16 + i) + DATE_CHAR for i in range(4)]
OTHER_WORDS = [chr(0x7500 + j) + SUFFIXES[j % 6] for j in range(24)]
FILLER_WORDS = [chr(0x8000 + m) + chr(0x8100 + m) for m in range(12)]


def _draw_sentence(rng, entity_counter, use_unseen):
    """Every 5th entity occurrence in the held-out part is an unseen type.

    Half the entities are preceded by a marker word so the plain
    distributional baseline has a real but incomplete signal to learn.
    """
    toks, labs = [], []
    for _ in range(int(rng.integers(5, 9))):
        u = rng.random()
        if u < 0.25:
            if rng.random() < 0.5:
                toks.append(MARKER)
                labs.append("O")
            if use_unseen and entity_counter[0] % 5 == 0:
                toks.append(UNSEEN_ENTITIES[int(rng.integers(4))])
            else:
                toks.append(SEEN_ENTITIES[int(rng.integers(16))])
            entity_counter[0] += 1
            labs.append("B-Date")
        elif u < 0.625:
            toks.append(OTHER_WORDS[int(rng.integers(24))])
            labs.append("O")
        else:
            toks.append(FILLER_WORDS[int(rng.integers(12))])
            labs.append("O")
    return TaggedSentence(toks, labs)


def _synthetic_split(seed):
    rng = np.random.default_rng(seed)
    counter = [0]
    train = [_draw_sentence(rng, counter, False) for _ in range(400)]
    counter[0] = 0
    test = [_draw_sentence(rng, counter, True) for _ in range(100)]
    return train, test


def _pipeline_lexicon():
    lex = {tok: ["时间", "日子"] for tok in SEEN_ENTITIES + UNSEEN_ENTITIES}
    for w in OTHER_WORDS:
        lex.setdefault(w, [w[-1] + "类"])
    return lex


def _train_and_score(train_tagged, test_tagged, word_space, hownet_fn, char_space,
                     spec, scheme):
    X = np.concatenate([
        sentence_features(sent.tokens, word_space, hownet_fn, char_space, spec)
        for sent in train_tagged])
    y = [scheme.index(lab) for sent in train_tagged for lab in sent.labels]
    model = train_logreg(X, y, lam=1e-4, tol=1e-6, max_iter=1200,
                         scheme=scheme, spec=spec)
    predicted = [tag_sentence(model, s.tokens, word_space, hownet_fn, char_space)
                 for s in test_tagged]
    gold = spans_of_corpus([s.labels for s in test_tagged])
    pred = spans_of_corpus(predicted)
    _, _, f = span_prf(gold, pred)
    return f, model, X


def run_pipeline(workdir, seed=PIPELINE_SEED, models=None, features=None):
    """Run all six stages, write their artifacts to workdir and return the
    three F scores; the three tagger models go into `models` and the rows
    each was fitted on into `features` if given."""
    train_tagged, test_tagged = _synthetic_split(seed)
    train_corpus = Corpus([s.tokens for s in train_tagged])
    lex = _pipeline_lexicon()

    cfg = TrainConfig(dim=25, window=2, negative=5, epochs=5, seed=seed)
    word_space = train_embeddings(train_corpus, cfg)
    char_space = train_embeddings(corpus_to_characters(train_corpus), cfg,
                                  name="character")
    sememe_space = build_sememe_space(train_corpus, lex, cfg, max_rank=2)

    thesaurus = {"T00": SEEN_ENTITIES}
    for idx, s in enumerate(SUFFIXES):
        thesaurus[f"S{idx:02d}"] = [w for w in OTHER_WORDS if w[-1] == s]
    pairs = build_pairs(thesaurus, 40, 40, seed=seed + 1)
    sim_model = train_perceptron(pairs, 50)

    vocab = build_vocabulary(train_corpus)
    targets = {t for s in train_tagged + test_tagged for t in s.tokens}
    combined = build_combined_space(targets, word_space, sim_model, vocab)

    hownet_fn = make_hownet_fn(lex, sememe_space)
    scheme = LabelScheme.from_labels([s.labels for s in train_tagged])

    spec_w2v = FeatureSpec(dim=25, window_radius=2, use_context=True,
                           use_hownet=False, use_char=False)
    spec_char = FeatureSpec(dim=25, window_radius=2, use_context=True,
                            use_hownet=False, use_char=True)
    spec_final = FeatureSpec(dim=25, window_radius=2, use_context=True,
                             use_hownet=True, use_char=True)

    f_w2v, m_w2v, x_w2v = _train_and_score(train_tagged, test_tagged, word_space,
                                           None, None, spec_w2v, scheme)
    f_char, m_char, x_char = _train_and_score(train_tagged, test_tagged, word_space,
                                              None, char_space, spec_char, scheme)
    f_final, m_final, x_final = _train_and_score(train_tagged, test_tagged, combined,
                                                 hownet_fn, char_space, spec_final, scheme)

    if models is not None:
        models.update(w2v=m_w2v, char=m_char, final=m_final)
    if features is not None:
        features.update(w2v=x_w2v, char=x_char, final=x_final)
    save_space(word_space, os.path.join(workdir, "words.vec"))
    save_space(char_space, os.path.join(workdir, "chars.vec"))
    save_space(sememe_space, os.path.join(workdir, "sememe.vec"))
    save_space(combined, os.path.join(workdir, "combined.vec"))
    save_similarity_model(sim_model, os.path.join(workdir, "sim.model"))
    save_tagger(m_w2v, os.path.join(workdir, "tagger_w2v.model"))
    save_tagger(m_char, os.path.join(workdir, "tagger_char.model"))
    save_tagger(m_final, os.path.join(workdir, "tagger_final.model"))
    metrics = {"f_w2v": f_w2v, "f_char": f_char, "f_final": f_final}
    with open(os.path.join(workdir, "metrics.txt"), "w", encoding="utf-8") as fh:
        for k in sorted(metrics):
            fh.write(f"{k} {metrics[k]:.17g}\n")
    return metrics


# run_pipeline's default seed and five more, each with its own data, spaces
# and fits
C11_SEEDS = (PIPELINE_SEED, 1, 2, 3, 5, 7)


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """(workdir, metrics, models, features) of run_pipeline at a seed, run
    once per session and seed."""
    runs = {}

    def run(seed):
        if seed not in runs:
            workdir, models, features = str(tmp_path_factory.mktemp("pipeline")), {}, {}
            runs[seed] = workdir, run_pipeline(workdir, seed, models, features), models, features
        return runs[seed]
    return run


def c11_holds(metrics):
    """c11's gate on run_pipeline's F scores: the full model reaches 95 F and
    each ablation scores at least the one it extends."""
    return (100.0 * metrics["f_final"] >= 95.0
            and metrics["f_final"] >= metrics["f_char"] >= metrics["f_w2v"])


@pytest.mark.parametrize("seed", C11_SEEDS)
def test_c11_end_to_end_tagging_and_ablation_order(pipeline_runs, seed):
    _, metrics, _, _ = pipeline_runs(seed)
    assert c11_holds(metrics), metrics


def test_c12_pipeline_rerun_byte_identical(pipeline_runs, tmp_path_factory):
    dir_a, metrics_a, _, _ = pipeline_runs(PIPELINE_SEED)
    dir_b = str(tmp_path_factory.mktemp("pipeline-b"))
    metrics_b = run_pipeline(dir_b)
    assert metrics_a == metrics_b
    for name in ("words.vec", "chars.vec", "sememe.vec", "combined.vec",
                 "sim.model", "tagger_w2v.model", "tagger_char.model",
                 "tagger_final.model", "metrics.txt"):
        assert filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name),
                           shallow=False), f"{name} differs between runs"


@pytest.mark.parametrize("seed", C11_SEEDS)
def test_c11_tagger_fits_converge(pipeline_runs, seed):
    _, _, models, _ = pipeline_runs(seed)
    assert sorted(models) == ["char", "final", "w2v"]
    for name, model in models.items():
        assert model.stop_reason == "tol", name
        assert model.final_gnorm <= 1e-6, name


@pytest.mark.parametrize("seed", C11_SEEDS)
def test_c11_fit_rows_tabulate_to_their_distinct_rows(pipeline_runs, seed):
    # the fit orders each feature block's rows by their first two values,
    # and distinct rows tied on those would split an entry: these hold none
    _, _, models, features = pipeline_runs(seed)
    for name, rows in features.items():
        for block in _distinct_blocks(rows, models[name].spec.dim):
            distinct = np.unique(rows[:, block.columns].view(np.uint64), axis=0)
            assert len(block.table) == len(distinct), name


@pytest.mark.parametrize("seed", C11_SEEDS)
def test_c11_fits_only_the_labels_its_training_data_hold(pipeline_runs, seed):
    # c11 plants single-token B-Date spans only. A scheme that also holds
    # I-Date gives its bias no minimiser, and the fits chase it down until
    # the gradient falls below tol: 214 evaluations at seed 101, against
    # 139, 139, 134, 148, 138 and 155 at C11_SEEDS when recorded here; the
    # bound leaves a margin for another BLAS or platform
    _, _, models, _ = pipeline_runs(seed)
    for name, model in models.items():
        assert model.scheme.labels == ["O", "B-Date"], name
        assert model.weights.shape == (2, model.spec.feature_length), name
    assert sum(model.evaluations for model in models.values()) <= 175


# c15: the paper's third claim, lexical similarity from HowNet alone. Four
# topics of six sememes each; a word holds two sememes of its topic, and a
# sentence draws its words from one topic, so sememes co-occur by topic in the
# replacement copies, as c05's clusters do. Judgement pairs share no sememe,
# so a pair's cosine is not 1 by construction, and the gold score is 1 within
# a topic and 0 across. Gates, fixed before any run: HowNet rho on the trained
# sememe space is at least C15_RHO_FLOOR (a perfect ranking of 30 + 30 pairs
# reads 0.866); it beats the same lexicon over an N(0, 1) sememe space with
# the same tokens by at least C15_MARGIN; every pair is scored.
C15_SEEDS = (1, 2, 3, 5, 7)
C15_RHO_FLOOR = 0.6
C15_MARGIN = 0.3


def _topic_fixture(seed, topics=4, sememes=6, words=8, pairs=30):
    """(corpus, lexicon, judgements) of the planted topics at seed."""
    rng = np.random.default_rng(2000 + seed)
    lexicon, topic_words = {}, []
    for t in range(topics):
        names = [f"义{t}_{k}" for k in range(sememes)]
        two = [(a, b) for a in range(sememes) for b in range(a + 1, sememes)]
        own = [f"词{t}_{w}" for w in range(words)]
        for w, k in zip(own, rng.permutation(len(two))[:words]):
            lexicon[w] = [names[i] for i in rng.permutation(two[k])]
        topic_words.append(own)
    corpus = Corpus([[topic_words[t][i] for i in rng.integers(words, size=6)]
                     for t in rng.integers(topics, size=400)])

    within = [(a, b) for own in topic_words for i, a in enumerate(own) for b in own[i + 1:]
              if not set(lexicon[a]) & set(lexicon[b])]
    across = [(a, b) for s, own in enumerate(topic_words) for other in topic_words[s + 1:]
              for a in own for b in other]
    judgements = [(*within[k], 1.0) for k in rng.choice(len(within), pairs, replace=False)]
    judgements += [(*across[k], 0.0) for k in rng.choice(len(across), pairs, replace=False)]
    assert not any(set(lexicon[a]) & set(lexicon[b]) for a, b, _ in judgements)
    return corpus, lexicon, judgements


def c15_scores(seed):
    """(rho, control, coverage) of the planted topics at seed: HowNet rho on
    the trained sememe space, on an N(0, 1) space of its tokens, and the
    share of pairs scored."""
    corpus, lexicon, judgements = _topic_fixture(seed)
    cfg = TrainConfig(dim=16, window=3, negative=5, epochs=5, seed=seed)
    trained = build_sememe_space(corpus, lexicon, cfg, max_rank=2)
    random = EmbeddingSpace(cfg.dim)
    random.add_rows(trained.tokens,
                    np.random.default_rng(seed).standard_normal((len(trained), cfg.dim)))
    rho, coverage = eval_similarity(hownet_space(lexicon, trained), judgements)
    control, _ = eval_similarity(hownet_space(lexicon, random), judgements)
    return rho, control, coverage


def c15_holds(rho, control, coverage):
    """c15's gate on c15_scores."""
    return coverage == 1.0 and rho >= C15_RHO_FLOOR and rho - control >= C15_MARGIN


@pytest.mark.parametrize("seed", C15_SEEDS)
def test_c15_hownet_similarity_beats_a_random_sememe_space(seed):
    scores = c15_scores(seed)
    assert c15_holds(*scores), scores
