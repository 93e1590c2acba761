import argparse
import filecmp
import os
import re

import numpy as np
import pytest

import sememevec.cli
from conftest import ROOT, traced_peak
from sememevec.cli import main
from sememevec.corpus import load_corpus, load_tagged_corpus
from sememevec.embedding import format_vector, load_space
from sememevec.morphsim import load_similarity_model
from sememevec.sememe import hownet_space, parse_lexicon
from sememevec.tagger import load_tagger

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data", "toy")


def data(name):
    return os.path.join(DATA, name)


def tag_argv(artifacts, corpus):
    """sememevec tag over corpus with the artifacts' model and sources, to stdout."""
    return ["tag", "--model", artifacts["tagger"], "--word-space", artifacts["combined"],
            "--char-space", artifacts["chars"], "--lexicon", data("lexicon.tsv"),
            "--sememe-space", artifacts["sememe"], "--corpus", corpus]


@pytest.fixture
def artifacts(walkthrough):
    """The README walkthrough's out/ files by stem: "words" for words.vec."""
    return {path.stem: str(path) for path in walkthrough[0].iterdir()}


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_missing_required_flag(self):
        assert main(["train-embeddings", "--corpus", "x.txt"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestParser:
    """Every option of every subcommand, as the parser declares it."""

    REQUIRED = (True, None, None, None, None)
    OPTIONAL = (False, None, None, None, None)
    TRAINING = {
        "--corpus": REQUIRED,
        "--out": REQUIRED,
        "--config": (False, None, None, None, "key=value per line; flags override"),
        "--dim": (False, int, None, None, None),
        "--window": (False, int, None, None, None),
        "--negative": (False, int, None, None, None),
        "--epochs": (False, int, None, None, None),
        "--learning-rate": (False, float, None, None, None),
        "--min-count": (False, int, None, None, None),
        "--subsample": (False, float, None, None, None),
        "--seed": (False, int, None, None, None),
        "--architecture": (False, str, None, ("skipgram", "cbow"), None),
    }
    TAGGER_SOURCES = {"--word-space": REQUIRED, "--char-space": OPTIONAL,
                      "--lexicon": OPTIONAL, "--sememe-space": OPTIONAL}
    EXPECTED = {
        "train-embeddings": TRAINING,
        "train-char-embeddings": TRAINING,
        "build-sememe-space": {**TRAINING, "--lexicon": REQUIRED,
                               "--max-rank": (False, int, 3, None, None)},
        "hownet-vector": {"--word": REQUIRED, "--lexicon": REQUIRED,
                          "--sememe-space": REQUIRED},
        "train-simmodel": {"--thesaurus": REQUIRED, "--out": REQUIRED,
                           "--positive": (False, int, 500, None, None),
                           "--negative": (False, int, 500, None, None),
                           "--epochs": (False, int, 20, None, None),
                           "--seed": (False, int, 0, None, None)},
        "revise": {"--space": REQUIRED, "--model": REQUIRED, "--corpus": REQUIRED,
                   "--out": REQUIRED,
                   "--targets": (False, None, None, None,
                                 "extra whitespace-free target words, one per line"),
                   "--threshold": (False, int, 2, None, None),
                   "--k": (False, int, 5, None, None)},
        "train-tagger": {**TAGGER_SOURCES, "--tagged": REQUIRED, "--out": REQUIRED,
                         "--window-radius": (False, int, 2, None, None),
                         "--lam": (False, float, 1.0, None, None),
                         "--tol": (False, float, 1e-6, None, None),
                         "--max-iter": (False, int, 500, None, None)},
        "tag": {**TAGGER_SOURCES, "--model": REQUIRED, "--corpus": REQUIRED,
                "--out": OPTIONAL},
        "eval-sim": {"--judgements": REQUIRED, "--space": OPTIONAL,
                     "--lexicon": OPTIONAL, "--sememe-space": OPTIONAL},
        "eval-ner": {"--gold": REQUIRED, "--pred": REQUIRED},
    }

    def test_every_option_pinned(self):
        parser = sememevec.cli.build_parser()
        [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(subs.choices) == list(self.EXPECTED)
        for name, sub in subs.choices.items():
            options = {opt: (a.required, a.type, a.default, a.choices, a.help)
                       for a in sub._actions if not isinstance(a, argparse._HelpAction)
                       for opt in a.option_strings}
            assert options == self.EXPECTED[name], name


class TestDataErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["train-embeddings", "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "o.vec")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_lexicon(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-one-field\n", encoding="utf-8")
        rc = main(["build-sememe-space", "--corpus", data("corpus.txt"),
                   "--lexicon", str(bad), "--out", str(tmp_path / "o.vec")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_hownet_vector_absent_word(self, artifacts, capsys):
        rc = main(["hownet-vector", "--word", "不存在的词",
                   "--lexicon", data("lexicon.tsv"), "--sememe-space", artifacts["sememe"]])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_revise_bad_k_before_any_work(self, artifacts, tmp_path, capsys):
        rc = main(["revise", "--space", artifacts["words"], "--model", artifacts["sim"],
                   "--corpus", data("corpus.txt"), "--out", str(tmp_path / "c.vec"),
                   "--k", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: k must be at least 1\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("word", ["新 词", "新\u3000词"])
    def test_revise_target_with_whitespace_rejected_before_revising(
            self, artifacts, tmp_path, capsys, monkeypatch, word):
        targets = tmp_path / "targets.txt"
        targets.write_text(f"新词\n{word}\n", encoding="utf-8")
        monkeypatch.setattr(sememevec.cli, "build_combined_space", None)
        rc = main(["revise", "--space", artifacts["words"], "--model", artifacts["sim"],
                   "--corpus", data("corpus.txt"), "--out", str(tmp_path / "c.vec"),
                   "--targets", str(targets)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {targets}: line 2: word {word!r} contains whitespace\n")
        assert os.listdir(tmp_path) == ["targets.txt"]

    def test_simmodel_negative_count_rejected(self, tmp_path, capsys):
        # drawing no positives would leave an all-zero model to write
        rc = main(["train-simmodel", "--thesaurus", data("thesaurus.tsv"),
                   "--out", str(tmp_path / "sim.model"),
                   "--positive", "-5", "--negative", "6"])
        assert rc == 1
        assert capsys.readouterr().err == "error: pair counts cannot be negative\n"
        assert os.listdir(tmp_path) == []

    def test_train_tagger_negative_max_iter_rejected(self, artifacts, tmp_path, capsys):
        rc = main(["train-tagger", "--tagged", data("tagged_train.txt"),
                   "--word-space", artifacts["words"], "--out", str(tmp_path / "t.model"),
                   "--max-iter", "-3"])
        assert rc == 1
        assert capsys.readouterr().err.endswith("error: max_iter cannot be negative\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--learning-rate", "inf", "learning_rate must be positive and finite"),
        ("--learning-rate", "nan", "learning_rate must be positive and finite"),
        ("--subsample", "nan", "subsample threshold must be non-negative and finite"),
        ("--seed", "-1", "seed must be a non-negative integer"),
    ])
    def test_non_finite_train_flag_rejected(self, tmp_path, capsys, flag, value, message):
        rc = main(["train-embeddings", "--corpus", data("corpus.txt"),
                   "--out", str(tmp_path / "o.vec"), flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--tol", "nan"),
                                             ("--lam", "nan")])
    def test_train_tagger_non_finite_lam_tol_rejected(self, artifacts, tmp_path, capsys,
                                                      flag, value):
        rc = main(["train-tagger", "--tagged", data("tagged_train.txt"),
                   "--word-space", artifacts["words"], "--out", str(tmp_path / "t.model"),
                   flag, value])
        assert rc == 1
        assert capsys.readouterr().err.endswith(
            f"error: {flag[2:]} must be positive and finite\n")
        assert os.listdir(tmp_path) == []

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("banana=3\n", encoding="utf-8")
        rc = main(["train-embeddings", "--corpus", data("corpus.txt"),
                   "--out", str(tmp_path / "o.vec"), "--config", str(cfg)])
        assert rc == 1
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("dim=5\nbanana=3\n", "line 2: unknown config key 'banana'"),
        ("# comment\n\nepochs=two\n", "line 3: bad value for epochs: 'two'"),
        ("dim=5\narchitecture=glove\n", "line 2: unknown architecture 'glove'"),
        ("epochs=1\ndim=0\n", "line 2: dim must be a positive integer"),
        ("seed=-1\n", "line 1: seed must be a non-negative integer"),
        ("dim=5\nbanana\n", "line 2: expected key=value"),
    ], ids=["unknown-key", "bad-value", "unknown-architecture", "dim-out-of-range",
            "seed-out-of-range", "no-equals-sign"])
    def test_config_error_names_its_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main(["train-embeddings", "--corpus", data("corpus.txt"),
                   "--out", str(tmp_path / "o.vec"), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert os.listdir(tmp_path) == ["c.cfg"]

    @pytest.mark.parametrize("command, flag, message", [
        ("train-tagger", "--lexicon", "No such file or directory: ''"),
        ("train-tagger", "--char-space", "No such file or directory: ''"),
        ("eval-sim", "--lexicon", "give either --space or --lexicon/--sememe-space"),
        ("train-embeddings", "--config", "No such file or directory: ''"),
        ("revise", "--targets", "No such file or directory: ''"),
        ("tag", "--out", "-> ''"),
    ])
    def test_empty_path_flag_is_read(self, artifacts, tmp_path, monkeypatch, capsys,
                                     command, flag, message):
        # a path flag that is given is read, so an empty one fails like any
        # missing file instead of switching its input or output off
        args = {
            "train-tagger": ["--tagged", data("tagged_train.txt"), "--out", "t.model",
                             "--word-space", artifacts["words"]],
            "eval-sim": ["--judgements", data("judgements.tsv"),
                         "--space", artifacts["words"]],
            "train-embeddings": ["--corpus", data("corpus.txt"), "--out", "o.vec"],
            "revise": ["--space", artifacts["words"], "--model", artifacts["sim"],
                       "--corpus", data("corpus.txt"), "--out", "c.vec"],
            "tag": ["--model", artifacts["tagger"], "--word-space", artifacts["combined"],
                    "--char-space", artifacts["chars"], "--lexicon", data("lexicon.tsv"),
                    "--sememe-space", artifacts["sememe"], "--corpus", data("corpus.txt")],
        }[command]
        if flag == "--lexicon":
            args += ["--sememe-space", artifacts["sememe"]]
        monkeypatch.chdir(tmp_path)
        assert main([command, *args, flag, ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert os.listdir(tmp_path) == []


class TestArtifacts:
    def test_spaces_loadable(self, artifacts):
        words = load_space(artifacts["words"])
        chars = load_space(artifacts["chars"])
        sememe = load_space(artifacts["sememe"])
        combined = load_space(artifacts["combined"])
        assert words.dim == chars.dim == sememe.dim == combined.dim == 12
        assert len(combined) >= len(words)
        assert "房租" in words and "日" in chars and "费用" in sememe

    def test_simmodel_loadable(self, artifacts):
        model = load_similarity_model(artifacts["sim"])
        assert len(model.weights()) == 3

    def test_tagger_loadable(self, artifacts):
        model = load_tagger(artifacts["tagger"])
        assert model.scheme.labels == ["O", "B-Date", "I-Date", "B-Time", "I-Time"]
        assert model.spec.use_hownet and model.spec.use_char

    def test_readme_quotes_the_walkthrough_fit_note(self, walkthrough):
        # the walkthrough's train-tagger comment quotes the note it prints
        readme = re.sub(r"\n#\s+", " ", (ROOT / "README.md").read_text(encoding="utf-8"))
        quote = re.search(r'"(\d+) iterations, stopped on tol, (\d+) loss-and-gradient '
                          r'evaluations, \.\.\., gradient inf-norm (\S+)"', readme)
        [err] = [e[3] for e in walkthrough[1] if e[0].startswith("sememevec train-tagger ")]
        note = re.search(r"\[train-tagger\] (\d+) iterations, stopped on tol, (\d+) "
                         r"loss-and-gradient evaluations, final loss \S+, "
                         r"gradient inf-norm (\S+)\n", err)
        assert note.groups() == quote.groups()

    def test_tagged_output_well_formed(self, artifacts):
        sents = load_tagged_corpus(artifacts["tagged"])
        assert len(sents) == len(load_corpus(data("corpus.txt")))
        model = load_tagger(artifacts["tagger"])
        for s in sents:
            for lab in s.labels:
                assert lab in model.scheme.labels

    def test_tag_stdout_equals_out_file(self, artifacts, capsys):
        capsys.readouterr()
        assert main(tag_argv(artifacts, data("corpus.txt"))) == 0
        with open(artifacts["tagged"], encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_tag_corpus_error_prints_nothing(self, artifacts, tmp_path, capsys):
        # the whole corpus is read before the first line is written
        corpus = tmp_path / "corpus.txt"
        with open(data("corpus.txt"), "rb") as fh:
            corpus.write_bytes(fh.read() + b"\xff\n")
        out = tmp_path / "tagged.txt"
        out.write_bytes(b"earlier\n")
        capsys.readouterr()
        assert main(tag_argv(artifacts, str(corpus))) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid UTF-8" in captured.err
        assert main([*tag_argv(artifacts, str(corpus)), "--out", str(out)]) == 1
        assert "invalid UTF-8" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier\n"
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "tagged.txt"]

    def test_tag_memory_does_not_grow_with_its_output(self, artifacts, tmp_path):
        with open(data("corpus.txt"), encoding="utf-8") as fh:
            text = fh.read()
        base = load_corpus(data("corpus.txt"))

        def tag_peak(copies):
            corpus, out = tmp_path / f"corpus{copies}.txt", tmp_path / f"tagged{copies}.txt"
            corpus.write_text(text * copies, encoding="utf-8")
            peak = traced_peak(main, [*tag_argv(artifacts, str(corpus)), "--out", str(out)])
            assert len(load_tagged_corpus(str(out))) == len(base) * copies
            return peak

        tag_peak(1)  # first-call allocations, such as caches, are not growth
        added = 28 * base.total_tokens()
        # the corpus ids cost 4 bytes a token; tagged sentences held to the
        # end, or their lines, cost many times that
        assert (tag_peak(32) - tag_peak(4)) / added < 16

    def test_hownet_vector_prints_numbers(self, artifacts, capsys):
        rc = main(["hownet-vector", "--word", "房租", "--lexicon", data("lexicon.tsv"),
                   "--sememe-space", artifacts["sememe"]])
        assert rc == 0
        out = capsys.readouterr().out.strip().split()
        assert len(out) == 12
        [float(x) for x in out]
        # the one-entry shortcut prints each word's row of the full
        # sememe-sum space, the one tag and eval-sim load
        lexicon = parse_lexicon(data("lexicon.tsv"))
        full = hownet_space(lexicon, load_space(artifacts["sememe"]))
        for word in lexicon:
            assert main(["hownet-vector", "--word", word, "--lexicon", data("lexicon.tsv"),
                         "--sememe-space", artifacts["sememe"]]) == 0
            assert capsys.readouterr().out == format_vector(full.get(word)) + "\n"

    def test_progress_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "w.vec"
        assert main(["train-embeddings", "--corpus", data("corpus.txt"),
                     "--out", str(out), "--dim", "5", "--epochs", "1"]) == 0
        err = capsys.readouterr().err
        assert "[train-embeddings]" in err

    def test_ideographic_space_separates_tokens(self, tmp_path):
        # U+3000 splits tokens like any whitespace, so every trained token
        # can be saved and the space loads back
        corpus = tmp_path / "c.txt"
        corpus.write_text("房\u3000租 上涨\n房\u3000租 下降\n", encoding="utf-8")
        out = tmp_path / "w.vec"
        assert main(["train-embeddings", "--corpus", str(corpus),
                     "--out", str(out), "--dim", "4", "--epochs", "1"]) == 0
        assert sorted(load_space(str(out)).tokens) == sorted(["房", "租", "上涨", "下降"])


class TestConfigFile:
    def test_file_sets_defaults_flags_override(self, tmp_path, artifacts):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\ndim=7\nepochs=1\nseed=5\n", encoding="utf-8")
        a = tmp_path / "a.vec"
        b = tmp_path / "b.vec"
        assert main(["train-embeddings", "--corpus", data("corpus.txt"),
                     "--out", str(a), "--config", str(cfg)]) == 0
        assert load_space(str(a)).dim == 7
        # explicit flag beats the file value
        assert main(["train-embeddings", "--corpus", data("corpus.txt"),
                     "--out", str(b), "--config", str(cfg), "--dim", "4"]) == 0
        assert load_space(str(b)).dim == 4
        # the walkthrough's train.conf spells its $FAST flags
        assert filecmp.cmp(artifacts["words2"], artifacts["words"], shallow=False)

    @pytest.mark.parametrize("text, line, key", [
        ("dim=12\nepochs=1\ndim=4\n", 3, "dim"),
        ("min-count=2\n# two spellings, one field\nmin_count=1\n", 3, "min_count"),
    ], ids=["dim", "min-count-then-min_count"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, line, key):
        # letting the last value win would hide the first
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main(["train-embeddings", "--corpus", data("corpus.txt"),
                   "--out", str(tmp_path / "o.vec"), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: line {line}: repeated key {key!r}\n"
        )
        assert os.listdir(tmp_path) == ["c.cfg"]

    def test_hyphenated_keys_accepted(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("min-count=2\nepochs=1\ndim=5\n", encoding="utf-8")
        out = tmp_path / "o.vec"
        assert main(["train-embeddings", "--corpus", data("corpus.txt"),
                     "--out", str(out), "--config", str(cfg)]) == 0


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.vec"
        b = tmp_path / "b.vec"
        args = ["--corpus", data("corpus.txt"), "--dim", "8", "--epochs", "2",
                "--seed", "3"]
        assert main(["train-embeddings", "--out", str(a), *args]) == 0
        assert main(["train-embeddings", "--out", str(b), *args]) == 0
        assert filecmp.cmp(str(a), str(b), shallow=False)


class TestEvaluationCommands:
    def test_eval_sim_space(self, artifacts, capsys):
        rc = main(["eval-sim", "--space", artifacts["words"],
                   "--judgements", data("judgements.tsv")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("spearman ")
        assert lines[1].startswith("coverage ")
        float(lines[0].split()[1])
        assert float(lines[1].split()[1]) == 100.0

    def test_eval_sim_huge_vectors_score_as_unit_scale(self, tmp_path, capsys):
        # squaring 1e200 overflows; the same directions at unit scale do not
        judgements = tmp_path / "j.tsv"
        judgements.write_text("a\tb\t3\na\tc\t2\nb\tc\t1\n", encoding="utf-8")
        printed = []
        for rows in (["a 1e+200 1e+200", "b 1e+200 2e+200"], ["a 1 1", "b 1 2"]):
            space = tmp_path / "s.vec"
            space.write_text("\n".join(["3 2", *rows, "c 1 0"]) + "\n", encoding="utf-8")
            assert main(["eval-sim", "--space", str(space),
                         "--judgements", str(judgements)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == "spearman 100.0\ncoverage 100.0\n"

    def test_eval_sim_hownet_source(self, artifacts, capsys):
        rc = main(["eval-sim", "--lexicon", data("lexicon.tsv"),
                   "--sememe-space", artifacts["sememe"],
                   "--judgements", data("judgements.tsv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spearman" in out and "coverage" in out

    def test_eval_sim_requires_exactly_one_source(self, artifacts, capsys):
        rc = main(["eval-sim", "--judgements", data("judgements.tsv")])
        assert rc == 1
        rc = main(["eval-sim", "--judgements", data("judgements.tsv"),
                   "--space", artifacts["words"], "--lexicon", data("lexicon.tsv"),
                   "--sememe-space", artifacts["sememe"]])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flags, message", [
        ([], "need --space or --lexicon/--sememe-space"),
        (["--lexicon", "L"], "--lexicon and --sememe-space must be given together"),
        (["--sememe-space", "S", "--space", "V"],
         "--lexicon and --sememe-space must be given together"),
        (["--lexicon", "L", "--sememe-space", "S", "--space", "V"],
         "give either --space or --lexicon/--sememe-space, not both"),
    ])
    def test_eval_sim_source_errors(self, flags, message, capsys):
        rc = main(["eval-sim", "--judgements", data("judgements.tsv"), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tag_lexicon_without_sememe_space(self, artifacts, capsys):
        rc = main(["tag", "--model", artifacts["tagger"], "--corpus", data("corpus.txt"),
                   "--word-space", artifacts["words"], "--lexicon", data("lexicon.tsv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --lexicon and --sememe-space must be given together\n"
        )

    @pytest.mark.parametrize("command", ["train-tagger", "tag"])
    @pytest.mark.parametrize("flag", ["--char-space", "--sememe-space"])
    def test_source_of_another_dimension_rejected(self, artifacts, tmp_path, capsys,
                                                  command, flag):
        # the lexicon covers no token, so no HowNet vector's length is ever read
        narrow = tmp_path / "narrow.vec"
        narrow.write_text("1 8\n无此词 " + " ".join(["0.5"] * 8) + "\n", encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("无此词\tN\t无此词\n", encoding="utf-8")
        sources = {"--char-space": artifacts["chars"], "--sememe-space": artifacts["sememe"],
                   flag: str(narrow)}
        inputs = {"train-tagger": ["--tagged", data("tagged_train.txt")],
                  "tag": ["--model", artifacts["tagger"], "--corpus", data("corpus.txt")]}
        out = tmp_path / "out"
        rc = main([command, *inputs[command], "--word-space", artifacts["combined"],
                   "--lexicon", str(lexicon), *[v for kv in sources.items() for v in kv],
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {flag} has dimension 8, but --word-space has 12\n")
        assert not out.exists()

    # checked before --corpus is read, so an empty corpus cannot hide a mismatch
    @pytest.mark.parametrize("corpus", ["toy", "empty"])
    @pytest.mark.parametrize("case, message", [
        ("char", "the model has no character block; drop --char-space"),
        ("hownet", "the model has no HowNet block; drop --lexicon and --sememe-space"),
        ("no-char", "the model has a character block; give --char-space"),
        ("no-hownet", "the model has a HowNet block; give --lexicon and --sememe-space"),
        ("word-dim", "--word-space has dimension 5, but the model has 12"),
    ])
    def test_tag_source_not_matching_the_model_rejected(self, artifacts, tmp_path, capsys,
                                                        case, message, corpus):
        char = ["--char-space", artifacts["chars"]]
        hownet = ["--lexicon", data("lexicon.tsv"), "--sememe-space", artifacts["sememe"]]
        word_space = artifacts["combined"]
        if case.startswith("no-"):  # the model of every block, one source left out
            model_path = artifacts["tagger"]
            flags = hownet if case == "no-char" else char
        else:  # the context-only model, one source too many or too short
            model_path = str(tmp_path / "context.model")
            assert main(["train-tagger", "--tagged", data("tagged_train.txt"),
                         "--word-space", word_space, "--out", model_path,
                         "--max-iter", "2"]) == 0
            flags = {"char": char, "hownet": hownet, "word-dim": []}[case]
            if case == "word-dim":
                word_space = str(tmp_path / "short.vec")
                with open(word_space, "w", encoding="utf-8") as fh:
                    fh.write("1 5\n今天 1 2 3 4 5\n")
        corpus_path = data("corpus.txt")
        if corpus == "empty":
            corpus_path = str(tmp_path / "empty.txt")
            open(corpus_path, "w").close()
        out = tmp_path / "tagged.txt"
        capsys.readouterr()
        rc = main(["tag", "--model", model_path, "--word-space", word_space,
                   "--corpus", corpus_path, "--out", str(out), *flags])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_lexicon_whose_sememes_have_no_vector(self, artifacts, tmp_path):
        # the HowNet space is empty, so falsy, yet it still enables the block
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("房租\tN\t无此义原\n今天\tN\t另一义原,无此义原\n",
                           encoding="utf-8")
        hownet = ["--lexicon", str(lexicon), "--sememe-space", artifacts["sememe"]]
        model_path = str(tmp_path / "t.model")
        assert main(["train-tagger", "--tagged", data("tagged_train.txt"),
                     "--word-space", artifacts["combined"], "--out", model_path,
                     "--lam", "1e-2", *hownet]) == 0
        model = load_tagger(model_path)
        assert model.spec.use_hownet and not model.spec.use_char
        start = (2 * model.spec.window_radius + 1) * model.spec.dim
        assert model.weights.shape[1] == start + model.spec.dim
        assert np.all(model.weights[:, start:] == 0.0)
        assert main(["tag", "--model", model_path, "--word-space", artifacts["combined"],
                     "--corpus", data("corpus.txt"), "--out", str(tmp_path / "t.txt"),
                     *hownet]) == 0

    def test_eval_ner_self_is_perfect(self, capsys):
        rc = main(["eval-ner", "--gold", data("tagged_train.txt"),
                   "--pred", data("tagged_train.txt")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "overall 100.0 100.0 100.0"
        assert "Date 100.0 100.0 100.0" in lines
        assert "Time 100.0 100.0 100.0" in lines

    def test_tagger_refits_training_sentences(self, artifacts, tmp_path, capsys):
        gold = load_tagged_corpus(data("tagged_train.txt"))
        tokens_file = tmp_path / "train_tokens.txt"
        tokens_file.write_text(
            "".join(" ".join(s.tokens) + "\n" for s in gold), encoding="utf-8"
        )
        pred_file = tmp_path / "pred.txt"
        assert main(["tag", "--model", artifacts["tagger"],
                     "--word-space", artifacts["combined"],
                     "--char-space", artifacts["chars"],
                     "--lexicon", data("lexicon.tsv"),
                     "--sememe-space", artifacts["sememe"],
                     "--corpus", str(tokens_file), "--out", str(pred_file)]) == 0
        assert main(["eval-ner", "--gold", data("tagged_train.txt"),
                     "--pred", str(pred_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "overall 100.0 100.0 100.0"

    @pytest.mark.parametrize("max_iter, stop", [("2", "2 iterations, stopped on max_iter"),
                                                 ("500", "stopped on tol")])
    def test_train_tagger_reports_stop(self, artifacts, tmp_path, capsys, max_iter, stop):
        assert main(["train-tagger", "--tagged", data("tagged_train.txt"),
                     "--word-space", artifacts["combined"], "--char-space", artifacts["chars"],
                     "--out", str(tmp_path / "t.model"), "--lam", "1e-2",
                     "--max-iter", max_iter]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if "stopped on" in line]
        assert len(notes) == 1
        assert stop in notes[0]
        found = re.search(r"^\[train-tagger\] (\d+) iterations, stopped on \S+, "
                          r"(\d+) loss-and-gradient evaluations, "
                          r"final loss \S+, gradient inf-norm \S+$", notes[0])
        assert found
        # one evaluation at the start and at least one per accepted step
        assert int(found[2]) > int(found[1])

    def test_model_of_b_labels_only_tags_every_line(self, artifacts, tmp_path, capsys):
        # the model holds no I- label; rebuilding both labels of each entity
        # type on load would expect five weight rows, not three
        tagged = tmp_path / "b_only.txt"
        with open(data("tagged_train.txt"), encoding="utf-8") as fh:
            tagged.write_text(fh.read().replace("/I-", "/B-"), encoding="utf-8")
        model_path, out = str(tmp_path / "t.model"), tmp_path / "tagged.txt"
        sources = ["--word-space", artifacts["combined"], "--char-space", artifacts["chars"]]
        assert main(["train-tagger", "--tagged", str(tagged), "--out", model_path,
                     "--lam", "1e-2", *sources]) == 0
        assert "examples, labels O B-Date B-Time\n" in capsys.readouterr().err
        assert main(["tag", "--model", model_path, "--corpus", data("corpus.txt"),
                     "--out", str(out), *sources]) == 0
        assert len(load_tagged_corpus(str(out))) == len(load_corpus(data("corpus.txt")))
        assert load_tagger(model_path).scheme.labels == ["O", "B-Date", "B-Time"]

    def test_eval_ner_mismatched_tokens(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("今天/O\n甲/B-X 乙/O\n", encoding="utf-8")
        pred = tmp_path / "pred.txt"
        pred.write_text("今天/O\n丙/B-X 丁/O\n", encoding="utf-8")
        rc = main(["eval-ner", "--gold", str(gold), "--pred", str(pred)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: sentence 2: tokens differ\n"

    def test_eval_ner_mismatched_inputs(self, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("今天/B-Date\n", encoding="utf-8")
        rc = main(["eval-ner", "--gold", data("tagged_train.txt"), "--pred", str(short)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
