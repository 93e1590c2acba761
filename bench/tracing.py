"""In-memory spans around calls into the library, for the traced run only.

A span records its name (``module.function``, optionally ``:role``), start,
end, parent span and run id. Spans live in flat arrays so that per-token
calls stay cheap, and are written out once the benchmark ends. Calls the
library makes internally are timed by swapping the function under the name
its caller looks up, and only while a traced iteration runs.

The untraced run uses ``NullTracer``, whose methods call straight through.
"""

import contextlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import sememevec.revise
import sememevec.sememe
import sememevec.tagger
from sememevec.revise import CombinedSpaceConfig
from sememevec.tagger import softmax_loss_and_grads

# (module, attribute, span name): library-internal calls timed when traced
LIBRARY_BINDINGS = (
    (sememevec.sememe, "train_embeddings", "embedding.train_embeddings:sememe"),
    (sememevec.sememe, "generate_replacement_corpora",
     "sememe.generate_replacement_corpora"),
    (sememevec.revise, "top_k_similar", "morphsim.top_k_similar"),
    (sememevec.tagger, "assemble_features", "tagger.assemble_features"),
    (sememevec.tagger, "predict", "tagger.predict"),
)


class NullTracer:
    """Tracing off: every call goes straight to the library."""

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn


class Tracer:
    """Records spans and counters; one run id per traced iteration."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = -1
        self.counts = []

    def new_run(self):
        self.run_id += 1
        self.counts.append(Counter())

    def count(self, key, n=1):
        self.counts[self.run_id][key] += n

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name, fn, /, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn):
        """``fn`` timed as span ``name``; its counter hook runs after the span."""
        hook = HOOKS.get(name.split(":")[0])
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if hook is not None:
                hook(self, name, result, args, kwargs)
            return result
        return traced

    @contextlib.contextmanager
    def library(self):
        """Time the library's internal calls listed in LIBRARY_BINDINGS."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in LIBRARY_BINDINGS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(LIBRARY_BINDINGS, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self, run_id):
        """Per span name: (calls, summed duration, summed self time) in one run.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, because calls nest.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        mask = a["run"] == run_id
        k = len(self.names)
        ids = a["name_id"][mask]
        calls = np.bincount(ids, minlength=k)
        durs = np.bincount(ids, weights=dur[mask], minlength=k)
        selfs = np.bincount(ids, weights=self_time[mask], minlength=k)
        return {
            name: (int(calls[i]), float(durs[i]), float(selfs[i]))
            for i, name in enumerate(self.names) if calls[i]
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# counters taken at call boundaries; run after the span closes, so their
# cost lands in the parent's self time and in trace.overhead_s


def skipgram_updates(lengths, window):
    """Exact (center, context) steps of one skip-gram epoch."""
    total = 0
    for m in lengths:
        for i in range(m):
            total += min(m - 1, i + window) - max(0, i - window)
    return total


def cbow_updates(lengths):
    """CBOW steps of one epoch: centres with a non-empty context."""
    return sum(m for m in lengths if m > 1)


def _hook_train(tracer, name, space, args, kwargs):
    corpus, config = args[0], args[1]
    role = name.split(":")[1]
    lengths = [len(s) for s in corpus]
    if config.architecture == "skipgram":
        per_epoch = skipgram_updates(lengths, config.window)
    else:
        per_epoch = cbow_updates(lengths)
    tracer.count(f"embedding.{role}.tokens", sum(lengths) * config.epochs)
    tracer.count("embedding.updates", per_epoch * config.epochs)


def _hook_replace(tracer, name, corpus, args, kwargs):
    tracer.count("sememe.expanded_tokens", corpus.total_tokens())


def _hook_hownet(tracer, name, vec, args, kwargs):
    tracer.count("sememe.hownet_hits", vec is not None)


def _hook_features(tracer, name, x, args, kwargs):
    spec = args[5]
    zero = ~x.reshape(-1, spec.dim).any(axis=1)
    at = 0
    if spec.use_context:
        slots = 2 * spec.window_radius + 1
        tracer.count("tagger.blocks.context", slots)
        tracer.count("tagger.zero.context", int(zero[:slots].sum()))
        at = slots
    for block, used in (("hownet", spec.use_hownet), ("char", spec.use_char)):
        if used:
            tracer.count(f"tagger.blocks.{block}")
            tracer.count(f"tagger.zero.{block}", int(zero[at]))
            at += 1


def _hook_logreg(tracer, name, model, args, kwargs):
    X = np.asarray(args[0], dtype=np.float64)
    y = np.asarray(args[1], dtype=np.intp)
    _, gw, gb = softmax_loss_and_grads(model.weights, model.bias, X, y, model.lam)
    gnorm = max(float(np.abs(gw).max()), float(np.abs(gb).max()))
    iterations = len(model.history) - 1
    tracer.count("tagger.fits")
    tracer.count("tagger.loss_evals", len(model.history))
    tracer.count("tagger.hit_max_iter",
                 iterations == kwargs["max_iter"] and gnorm > kwargs["tol"])
    c = tracer.counts[tracer.run_id]
    c["tagger.final_gnorm"] = max(c["tagger.final_gnorm"], gnorm)


def _hook_tag(tracer, name, labels, args, kwargs):
    tracer.count("tagger.tagged_tokens", len(labels))


def _hook_topk(tracer, name, result, args, kwargs):
    word, candidates = args[1], args[2]
    chars = set(word)
    scored = shared = 0
    for c in candidates:
        if c != word:
            scored += 1
            shared += not chars.isdisjoint(c)
    tracer.count("morphsim.scored_pairs", scored)
    tracer.count("morphsim.shared_pairs", shared)


def _hook_revise(tracer, name, space, args, kwargs):
    targets, original, vocab = set(args[0]), args[1], args[3]
    cfg = (args[4] if len(args) > 4 else kwargs.get("config")) or CombinedSpaceConfig()
    frequent = [w for w in targets if vocab.tf(w) > cfg.rare_tf_threshold]
    passed = sum(1 for w in frequent if w in original)
    tracer.count("revise.targets", len(targets))
    tracer.count("revise.rare", len(targets) - len(frequent))
    tracer.count("revise.passed", passed)
    tracer.count("revise.revised", len(space) - passed)
    tracer.count("revise.omitted", len(targets) - len(space))


def _hook_space_rows(tracer, name, result, args, kwargs):
    space = result if name.startswith("embedding.load_space") else args[0]
    tracer.count(name.split(":")[0] + ".rows", len(space))


def _hook_corpus_load(tracer, name, result, args, kwargs):
    tokens = sum(len(s.tokens) if hasattr(s, "tokens") else len(s) for s in result)
    tracer.count("corpus.loaded_tokens", tokens)


def _hook_spans(tracer, name, spans, args, kwargs):
    tracer.count(f"evaluate.{name.split(':')[1]}_spans", len(spans))


HOOKS = {
    "embedding.train_embeddings": _hook_train,
    "sememe.generate_replacement_corpora": _hook_replace,
    "sememe.hownet_vector": _hook_hownet,
    "tagger.assemble_features": _hook_features,
    "tagger.train_logreg": _hook_logreg,
    "tagger.tag_sentence": _hook_tag,
    "morphsim.top_k_similar": _hook_topk,
    "revise.build_combined_space": _hook_revise,
    "embedding.save_space": _hook_space_rows,
    "embedding.load_space": _hook_space_rows,
    "corpus.load_corpus": _hook_corpus_load,
    "corpus.load_tagged_corpus": _hook_corpus_load,
    "evaluate.spans_of_corpus": _hook_spans,
}

MODULES = ("corpus", "embedding", "sememe", "morphsim", "revise", "tagger",
           "evaluate", "bench")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, counts):
    """The per-layer metrics of one traced iteration.

    A layer that did not run on a workload reports 0 for its times, counts
    and rates.
    """
    def calls(name):
        return sum(v[0] for k, v in totals.items() if k.split(":")[0] == name)

    def dur(name):
        return sum(v[1] for k, v in totals.items()
                   if k == name or k.split(":")[0] == name)

    def self_of(name):
        return sum(v[2] for k, v in totals.items()
                   if k == name or k.split(":")[0] == name)

    m = {}
    for role in ("word", "char"):
        t = dur(f"embedding.train_embeddings:{role}")
        m[f"embedding.{role}.train_s"] = t
        m[f"embedding.{role}.tokens_per_s"] = _ratio(counts[f"embedding.{role}.tokens"], t)
    m["embedding.updates"] = counts["embedding.updates"]
    for kind in ("save", "load"):
        t = dur(f"embedding.{kind}_space")
        m[f"embedding.{kind}_s"] = t
        m[f"embedding.{kind}_rows_per_s"] = _ratio(counts[f"embedding.{kind}_space.rows"], t)

    m["sememe.replace_s"] = dur("sememe.generate_replacement_corpora")
    m["sememe.expanded_tokens"] = counts["sememe.expanded_tokens"]
    m["sememe.train_s"] = dur("embedding.train_embeddings:sememe")
    m["sememe.hownet_calls"] = calls("sememe.hownet_vector")
    m["sememe.hownet_hit_share"] = _ratio(counts["sememe.hownet_hits"],
                                          m["sememe.hownet_calls"])
    m["sememe.hownet_s"] = dur("sememe.hownet_vector")

    m["tagger.train_s"] = dur("tagger.train_logreg")
    m["tagger.fits"] = counts["tagger.fits"]
    m["tagger.loss_evals"] = counts["tagger.loss_evals"]
    m["tagger.final_gnorm"] = counts["tagger.final_gnorm"]
    m["tagger.hit_max_iter"] = counts["tagger.hit_max_iter"]
    m["tagger.features_s"] = dur("tagger.assemble_features")
    m["tagger.feature_rows"] = calls("tagger.assemble_features")
    for block in ("context", "hownet", "char"):
        m[f"tagger.zero_share.{block}"] = _ratio(counts[f"tagger.zero.{block}"],
                                                 counts[f"tagger.blocks.{block}"])
    m["tagger.predict_s"] = dur("tagger.predict")
    m["tagger.tag_s"] = dur("tagger.tag_sentence")
    m["tagger.tag_tokens_per_s"] = _ratio(counts["tagger.tagged_tokens"], m["tagger.tag_s"])
    m["tagger.save_s"] = dur("tagger.save_tagger")
    m["tagger.load_s"] = dur("tagger.load_tagger")

    m["morphsim.topk_calls"] = calls("morphsim.top_k_similar")
    m["morphsim.topk_s"] = dur("morphsim.top_k_similar")
    m["morphsim.scored_pairs"] = counts["morphsim.scored_pairs"]
    m["morphsim.scored_pairs_per_s"] = _ratio(m["morphsim.scored_pairs"], m["morphsim.topk_s"])
    m["morphsim.shared_char_share"] = _ratio(counts["morphsim.shared_pairs"],
                                             m["morphsim.scored_pairs"])
    m["morphsim.pairs_s"] = dur("morphsim.build_pairs")
    m["morphsim.perceptron_s"] = dur("morphsim.train_perceptron")

    m["revise.build_s"] = dur("revise.build_combined_space")
    m["revise.self_s"] = self_of("revise.build_combined_space")
    for key in ("targets", "passed", "revised", "omitted"):
        m[f"revise.{key}"] = counts[f"revise.{key}"]
    m["revise.rare_words_per_s"] = _ratio(counts["revise.rare"], m["revise.build_s"])

    load = dur("corpus.load_corpus") + dur("corpus.load_tagged_corpus")
    m["corpus.load_s"] = load
    m["corpus.tokens_per_s"] = _ratio(counts["corpus.loaded_tokens"], load)
    m["corpus.vocab_s"] = dur("corpus.build_vocabulary")
    m["corpus.save_s"] = dur("corpus.save_tagged_corpus")

    m["evaluate.spans_s"] = dur("evaluate.spans_of_corpus") + dur("evaluate.span_prf")
    m["evaluate.gold_spans"] = counts["evaluate.gold_spans"]
    m["evaluate.pred_spans"] = counts["evaluate.pred_spans"]

    for module in MODULES:
        m[f"{module}.module_self_s"] = sum(
            v[2] for k, v in totals.items() if k.split(".")[0] == module
        )
    m["trace.self_sum_s"] = sum(v[2] for v in totals.values())
    return m
