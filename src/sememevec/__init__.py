"""Sememe-enhanced word vectors with rare-word revision and a BI tagger."""

from .corpus import (
    Corpus,
    ParseError,
    TaggedSentence,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    load_tagged_corpus,
    save_tagged_corpus,
)
from .embedding import (
    EmbeddingSpace,
    TrainConfig,
    corpus_to_characters,
    cosine,
    load_space,
    save_space,
    train_embeddings,
)
from .evaluate import (
    EvaluationError,
    Span,
    decode_spans,
    eval_similarity,
    format_prf,
    load_judgements,
    span_prf,
    spans_of_corpus,
    spearman,
)
from .morphsim import (
    CandidateIndex,
    SamplingError,
    SimilarityModel,
    build_pairs,
    char_cos_sim,
    edit_sim,
    lcs_sim,
    load_similarity_model,
    load_thesaurus,
    save_similarity_model,
    top_k_similar,
    train_perceptron,
    word_similarity,
)
from .revise import (
    CombinedSpaceConfig,
    build_combined_space,
    combine,
    similar_word_vector,
    tf_bucket,
)
from .sememe import (
    build_sememe_space,
    generate_replacement_corpora,
    hownet_space,
    parse_lexicon,
)
from .tagger import (
    FeatureSpec,
    LabelScheme,
    TaggerModel,
    assemble_features,
    load_tagger,
    predict,
    repair_bi,
    save_tagger,
    sentence_features,
    tag_sentence,
    train_logreg,
)

__version__ = "0.1.0"
