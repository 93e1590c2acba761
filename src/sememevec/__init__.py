"""Sememe-enhanced word vectors with rare-word revision and a BI tagger.

The package exports the pipeline's stages, the config and spec types they
take, the types a caller builds, each file format's reader and writer, and
the exception types; everything else is imported from its module.
"""

from .corpus import (
    Corpus,
    ParseError,
    TaggedSentence,
    build_vocabulary,
    load_corpus,
    load_tagged_corpus,
    save_tagged_corpus,
)
from .embedding import (
    EmbeddingSpace,
    TrainConfig,
    corpus_to_characters,
    load_space,
    save_space,
    train_embeddings,
)
from .evaluate import (
    EvaluationError,
    eval_similarity,
    load_judgements,
    span_prf,
    spans_of_corpus,
)
from .morphsim import (
    SamplingError,
    build_pairs,
    load_similarity_model,
    load_thesaurus,
    save_similarity_model,
    top_k_similar,
    train_perceptron,
)
from .revise import CombinedSpaceConfig, build_combined_space
from .sememe import build_sememe_space, hownet_space, parse_lexicon
from .tagger import (
    FeatureSpec,
    LabelScheme,
    load_tagger,
    save_tagger,
    tag_sentence,
    train_logreg,
)

__version__ = "0.1.0"
