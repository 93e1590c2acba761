"""Planted faults: each test swaps one stage for a plausible wrong version and
asserts that a quality gate fails, c11 (F and the ablation order of
run_pipeline at its default seed) or c15 (HowNet similarity against a random
control at seed 1). A digest would fail on any change, so none is a gate here.

A fault that no gate sees is xfail(strict=True), with the gate it needs as the
reason: once that gate exists and is added to GATES, the test passes and its
mark must go. Faults are patched where the gate's code looks the name up, so
a name test_acceptance imported is patched there too.
"""

import numpy as np
import pytest

import test_acceptance as acc
from sememevec import embedding, morphsim, revise, sememe, tagger
from sememevec.embedding import EmbeddingSpace
from sememevec.morphsim import SimilarityModel


def _wrap(monkeypatch, module, name, wrapper):
    """Replace module.name by wrapper(the original), there and in test_acceptance."""
    fake = wrapper(getattr(module, name))
    for where in (module, acc):
        if hasattr(where, name):
            monkeypatch.setattr(where, name, fake)


def _permuted(space):
    rows = np.array([vec for _, vec in space.items()])
    out = EmbeddingSpace(space.dim, name=space.name)
    out.add_rows(space.tokens, np.random.default_rng(0).permutation(rows))
    return out


def _without_characters(tag_sentence):
    def tag(model, sentence, word_space, hownet_fn, char_space):
        empty = None if char_space is None else EmbeddingSpace(char_space.dim)
        return tag_sentence(model, sentence, word_space, hownet_fn, empty)
    return tag


FAULTS = {
    # word, character and sememe trainers alike: no step moves a row
    "trainer returns its random start":
        lambda mp: mp.setattr(embedding, "_descend", lambda *args: None),
    "sememe space rows permuted":
        lambda mp: _wrap(mp, sememe, "train_embeddings",
                         lambda train: lambda *args, **kw: _permuted(train(*args, **kw))),
    "hownet_space sums each word's first sememe":
        lambda mp: _wrap(mp, sememe, "hownet_space", lambda build: lambda lexicon, space: build(
            {word: sememes[:1] for word, sememes in lexicon.items()}, space)),
    "perceptron weights zero":
        lambda mp: _wrap(mp, morphsim, "train_perceptron",
                         lambda train: lambda *args: SimilarityModel(bias=train(*args).bias)),
    "revision returns each word's original vector":
        lambda mp: mp.setattr(revise, "similar_word_vector", lambda *args: None),
    "tagger fit stops after one step":
        lambda mp: _wrap(mp, tagger, "train_logreg",
                         lambda fit: lambda *args, **kw: fit(*args, **{**kw, "max_iter": 1})),
    "tagging zeroes the character block":
        lambda mp: _wrap(mp, tagger, "tag_sentence", _without_characters),
}

# each gate, True when it fails
GATES = {
    "c11": lambda workdir: not acc.c11_holds(acc.run_pipeline(str(workdir))),
    "c15": lambda workdir: not acc.c15_holds(*acc.c15_scores(1)),
}


def _needs(gate):
    return pytest.mark.xfail(strict=True, reason=f"no gate sees this fault; it needs {gate}")


# each fault and the gate it fails; None runs every gate
@pytest.mark.parametrize("fault, gate", [
    ("trainer returns its random start", "c15"),
    ("sememe space rows permuted", "c15"),
    pytest.param("hownet_space sums each word's first sememe", None, marks=_needs(
        "c13, multi-token expressions whose test words reach their sememes only by the lexicon")),
    pytest.param("perceptron weights zero", None, marks=_needs(
        "c14, revision in the tagger against a control that draws neighbours at random")),
    pytest.param("revision returns each word's original vector", None, marks=_needs(
        "c14, revision in the tagger on test entity words that are rare or unseen")),
    ("tagger fit stops after one step", "c11"),
    ("tagging zeroes the character block", "c11"),
])
def test_planted_fault_fails_a_quality_gate(monkeypatch, tmp_path, fault, gate):
    FAULTS[fault](monkeypatch)
    gates = GATES if gate is None else {gate: GATES[gate]}
    assert any(fails(tmp_path) for fails in gates.values())
