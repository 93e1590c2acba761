import ast
import inspect
import pathlib
import sys

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


def test_numpy_is_the_only_runtime_dependency():
    imported = set()
    for path in pathlib.Path(sememevec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    tops = {name.split(".")[0] for name in imported}
    assert "numpy" in tops
    assert tops - set(sys.stdlib_module_names) == {"numpy"}


def test_failing_property_is_reported_with_warnings_as_errors(pytester, monkeypatch):
    # on a failure hypothesis imports a module that, where libcst is
    # installed, warns as it is imported; the run must still report it
    tests = pathlib.Path(__file__).parent
    pytester.makeconftest((tests / "conftest.py").read_text(encoding="utf-8"))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0
    """)
    monkeypatch.setenv("PYTHONPATH", str(pathlib.Path(sememevec.__file__).parents[1]))
    result = pytester.runpytest_subprocess("-W", "error", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
