"""The three workloads: one closed-loop iteration each, and its checks.

An iteration makes the library calls a user of the package makes, each one
after the previous returns. Every call goes through the tracer ``t`` under
the name ``module.function`` (``:role`` where one function serves several
roles), so the traced run can time it; the untraced run calls straight
through. Each iteration's root span is ``bench.iteration``; its self time is
the benchmark's own glue between library calls.
"""

import os

import numpy as np

from sememevec.corpus import (
    Corpus,
    TaggedSentence,
    build_vocabulary,
    load_corpus,
    load_tagged_corpus,
    save_tagged_corpus,
)
from sememevec.embedding import (
    TrainConfig,
    corpus_to_characters,
    load_space,
    save_space,
    train_embeddings,
)
from sememevec.evaluate import eval_similarity, span_prf, spans_of_corpus
from sememevec.morphsim import (
    build_pairs,
    load_thesaurus,
    save_similarity_model,
    top_k_similar,
    train_perceptron,
)
from sememevec.revise import CombinedSpaceConfig, build_combined_space
from sememevec.sememe import build_sememe_space, make_hownet_fn, parse_lexicon
from sememevec.tagger import (
    FeatureSpec,
    LabelScheme,
    assemble_features,
    load_tagger,
    save_tagger,
    tag_sentence,
    train_logreg,
)

import checks
import generate


class Workload:
    """One workload: ``generate`` its inputs, time ``iteration``, ``check`` it.

    ``check`` returns the (name, passed) checks and the quality scores; the
    score named ``QUALITY`` is the end-to-end ``quality`` metric.
    """

    def prepare(self, inp):
        """Oracle work done once before the first iteration, untimed.

        Done first so that its memory does not set the run's peak RSS.
        """


class Pipeline(Workload):
    """All six stages, three tagger ablations and span evaluation (c11 shape)."""

    name = "pipeline"
    generate = staticmethod(generate.make_pipeline)
    QUALITY = "f_final"
    DIM = 25
    EPOCHS = 5
    MAX_ITER = 1200

    def iteration(self, inp, t, outdir):
        p = inp["paths"]
        seed = inp["seed"]
        train = t.call("corpus.load_tagged_corpus", load_tagged_corpus, p["train.txt"])
        test = t.call("corpus.load_tagged_corpus", load_tagged_corpus, p["test.txt"])
        lexicon = t.call("sememe.parse_lexicon", parse_lexicon, p["lexicon.tsv"])
        thesaurus = t.call("morphsim.load_thesaurus", load_thesaurus, p["thesaurus.tsv"])
        corpus = Corpus([s.tokens for s in train])

        cfg = TrainConfig(dim=self.DIM, window=2, negative=5, epochs=self.EPOCHS, seed=seed)
        word_space = t.call("embedding.train_embeddings:word", train_embeddings, corpus, cfg)
        chars = t.call("embedding.corpus_to_characters", corpus_to_characters, corpus)
        char_space = t.call("embedding.train_embeddings:char", train_embeddings, chars,
                            cfg, name="character")
        sememe_space = t.call("sememe.build_sememe_space", build_sememe_space, corpus,
                              lexicon, cfg, max_rank=2)

        pairs = t.call("morphsim.build_pairs", build_pairs, thesaurus, 40, 40, seed=seed + 1)
        sim_model = t.call("morphsim.train_perceptron", train_perceptron, pairs, 50)
        vocab = t.call("corpus.build_vocabulary", build_vocabulary, corpus)
        targets = {tok for s in train + test for tok in s.tokens}
        combined = t.call("revise.build_combined_space", build_combined_space, targets,
                          word_space, sim_model, vocab)

        hownet_fn = t.wrap("sememe.hownet_vector", make_hownet_fn(lexicon, sememe_space))
        scheme = LabelScheme.from_labels(s.labels for s in train)
        features = t.wrap("tagger.assemble_features", assemble_features)
        tag = t.wrap("tagger.tag_sentence", tag_sentence)
        gold = t.call("evaluate.spans_of_corpus:gold", spans_of_corpus,
                      [s.labels for s in test])
        ablations = (
            ("w2v", word_space, None, None, False, False),
            ("char", word_space, None, char_space, False, True),
            ("final", combined, hownet_fn, char_space, True, True),
        )
        f, models = {}, {}
        for label, space, hfn, cspace, use_hownet, use_char in ablations:
            spec = FeatureSpec(dim=self.DIM, window_radius=2, use_context=True,
                               use_hownet=use_hownet, use_char=use_char)
            X, y = [], []
            for sent in train:
                for i in range(len(sent.tokens)):
                    X.append(features(sent.tokens, i, space, hfn, cspace, spec))
                    y.append(scheme.index(sent.labels[i]))
            model = t.call("tagger.train_logreg", train_logreg, X, y, lam=1e-4, tol=1e-6,
                           max_iter=self.MAX_ITER, scheme=scheme, spec=spec)
            predicted = [tag(model, s.tokens, space, hfn, cspace) for s in test]
            pred = t.call("evaluate.spans_of_corpus:pred", spans_of_corpus, predicted)
            f[f"f_{label}"] = t.call("evaluate.span_prf", span_prf, gold, pred)[2]
            models[label] = model

        for fname, space in (("words.vec", word_space), ("chars.vec", char_space),
                             ("sememe.vec", sememe_space), ("combined.vec", combined)):
            t.call("embedding.save_space", save_space, space, os.path.join(outdir, fname))
        t.call("morphsim.save_similarity_model", save_similarity_model, sim_model,
               os.path.join(outdir, "sim.model"))
        for label, model in models.items():
            t.call("tagger.save_tagger", save_tagger, model,
                   os.path.join(outdir, f"tagger_{label}.model"))
        return {"f": f}

    def check(self, inp, out):
        return checks.check_pipeline(out["f"]), out["f"]


class RareRevise(Workload):
    """The revise subcommand's calls on a Zipf corpus of word families."""

    name = "rare-revise"
    generate = staticmethod(generate.make_rare_revise)
    QUALITY = "rho_rare"
    K = 5
    SAMPLE = 8

    def iteration(self, inp, t, outdir):
        p = inp["paths"]
        corpus = t.call("corpus.load_corpus", load_corpus, p["corpus.txt"])
        vocab = t.call("corpus.build_vocabulary", build_vocabulary, corpus)
        cfg = TrainConfig(dim=50, epochs=1, architecture="cbow", seed=inp["seed"])
        space = t.call("embedding.train_embeddings:word", train_embeddings, corpus, cfg)
        thesaurus = t.call("morphsim.load_thesaurus", load_thesaurus, p["thesaurus.tsv"])
        pairs = t.call("morphsim.build_pairs", build_pairs, thesaurus, 200, 200,
                       seed=inp["seed"])
        model = t.call("morphsim.train_perceptron", train_perceptron, pairs, 20)
        targets = set(space.tokens) | set(vocab) | set(inp["unseen"])
        config = CombinedSpaceConfig(rare_tf_threshold=inp["threshold"], k=self.K)
        combined = t.call("revise.build_combined_space", build_combined_space, targets,
                          space, model, vocab, config)
        t.call("embedding.save_space", save_space, combined,
               os.path.join(outdir, "combined.vec"))
        return {"space": space, "combined": combined, "vocab": vocab, "model": model,
                "targets": targets}

    def check(self, inp, out):
        vocab, model = out["vocab"], out["model"]
        rare = sorted(w for w in out["targets"] if vocab.tf(w) <= inp["threshold"])
        rng = np.random.default_rng(inp["seed"])
        sample = [rare[i] for i in rng.choice(len(rare), size=self.SAMPLE, replace=False)]
        topk = {q: top_k_similar(model, q, vocab, self.K) for q in sample}
        result = checks.check_revise(dict(out["space"].items()), dict(out["combined"].items()),
                                     vocab, model, topk, inp["threshold"], self.K)
        rho, _ = eval_similarity(out["combined"], inp["judgements"])
        return result, {"rho_rare": rho}


class TagStream(Workload):
    """The tag subcommand's calls: load model and sources, tag, write."""

    name = "tag-stream"
    generate = staticmethod(generate.make_tag_stream)
    QUALITY = "oracle_agreement"

    def iteration(self, inp, t, outdir):
        p = inp["paths"]
        model = t.call("tagger.load_tagger", load_tagger, p["tagger.model"])
        word_space = t.call("embedding.load_space", load_space, p["words.vec"], name="word")
        char_space = t.call("embedding.load_space", load_space, p["chars.vec"],
                            name="character")
        lexicon = t.call("sememe.parse_lexicon", parse_lexicon, p["lexicon.tsv"])
        sememe_space = t.call("embedding.load_space", load_space, p["sememe.vec"],
                              name="sememe")
        hownet_fn = t.wrap("sememe.hownet_vector", make_hownet_fn(lexicon, sememe_space))
        corpus = t.call("corpus.load_corpus", load_corpus, p["corpus.txt"])
        tag = t.wrap("tagger.tag_sentence", tag_sentence)
        tagged = [TaggedSentence(sent, tag(model, sent, word_space, hownet_fn, char_space))
                  for sent in corpus]
        path = os.path.join(outdir, "tagged.txt")
        t.call("corpus.save_tagged_corpus", save_tagged_corpus, tagged, path)
        return {"path": path, "tokens": sum(len(s) for s in corpus)}

    def prepare(self, inp):
        inp["expected"] = checks.oracle_labels(inp)

    def check(self, inp, out):
        result = checks.check_tagged(inp["sentences"], inp["expected"], out["path"])
        agree = sum(ok for _, ok in result[:-1]) / len(inp["sentences"])
        return result, {"oracle_agreement": agree}


WORKLOADS = {w.name: w for w in (Pipeline(), RareRevise(), TagStream())}
