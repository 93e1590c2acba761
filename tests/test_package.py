import inspect

import sememevec

# a name added to the package is added here on purpose, never by accident
PUBLIC = [
    "CombinedSpaceConfig", "Corpus", "EmbeddingSpace", "EvaluationError",
    "FeatureSpec", "LabelScheme", "ParseError", "SamplingError", "TaggedSentence",
    "TrainConfig", "build_combined_space", "build_pairs", "build_sememe_space",
    "build_vocabulary", "corpus_to_characters", "eval_similarity", "hownet_space",
    "load_corpus", "load_judgements", "load_similarity_model", "load_space",
    "load_tagged_corpus", "load_tagger", "load_thesaurus", "parse_lexicon",
    "save_similarity_model", "save_space", "save_tagged_corpus", "save_tagger",
    "span_prf", "spans_of_corpus", "tag_sentence", "top_k_similar",
    "train_embeddings", "train_logreg", "train_perceptron",
]


def test_public_names_pinned():
    names = sorted(name for name, value in vars(sememevec).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC
