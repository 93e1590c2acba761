"""Command-line front end; every subcommand is a thin wrapper over one module.

Flags mirror the training config fields one to one. An optional config file
with one key=value pair per line supplies defaults; explicit flags win.
A path flag that is given is always read, so an empty one is an error.
Exit codes: 0 success, 1 data or processing error, 2 usage error.
"""

import argparse
import sys
from dataclasses import fields

from .corpus import (
    ParseError,
    TaggedSentence,
    build_vocabulary,
    iter_utf8_lines,
    load_corpus,
    load_tagged_corpus,
    plain_word,
    save_tagged_corpus,
    tab_fields,
    write_tagged_corpus,
)
from .embedding import (
    ARCHITECTURES,
    TrainConfig,
    corpus_to_characters,
    format_vector,
    load_space,
    save_space,
    train_embeddings,
)
from .evaluate import (
    eval_similarity,
    format_prf,
    load_judgements,
    per_type_prf,
    span_prf,
    spans_of_corpus,
)
from .morphsim import (
    build_pairs,
    load_similarity_model,
    load_thesaurus,
    save_similarity_model,
    train_perceptron,
)
from .revise import CombinedSpaceConfig, build_combined_space
from .sememe import build_sememe_space, hownet_space, parse_lexicon
from .tagger import (
    FeatureSpec,
    LabelScheme,
    load_tagger,
    save_tagger,
    sentence_features,
    tag_sentence,
    train_logreg,
)

def _note(command, message):
    print(f"[{command}] {message}", file=sys.stderr)


def _read_config_file(path):
    casts = {f.name: f.type for f in fields(TrainConfig)}
    values = {}
    for lineno, line in iter_utf8_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ParseError(f"{path}: line {lineno}: expected key=value")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in casts:
            raise ParseError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ParseError(f"{path}: line {lineno}: repeated key {key!r}")
        try:
            values[key] = casts[key](value)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: bad value for {key}: {value!r}"
            ) from None
        try:
            TrainConfig(**{key: values[key]})  # its range check, at its line
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return values


def _train_config(args):
    """The TrainConfig of --config's key=value lines, overridden by explicit flags."""
    kwargs = {} if args.config is None else _read_config_file(args.config)
    for f in fields(TrainConfig):
        flag = getattr(args, f.name)
        if flag is not None:
            kwargs[f.name] = flag
    return TrainConfig(**kwargs)


def _save_trained(args, space):
    _note(args.command, f"trained {len(space)} vectors of dimension {space.dim}")
    save_space(space, args.out)
    _note(args.command, f"wrote {args.out}")


def _cmd_train_embeddings(args):
    config = _train_config(args)
    corpus = load_corpus(args.corpus)
    _note(args.command, f"{len(corpus)} sentences, {corpus.total_tokens()} tokens")
    _save_trained(args, train_embeddings(corpus, config))


def _cmd_train_char_embeddings(args):
    config = _train_config(args)
    corpus = corpus_to_characters(load_corpus(args.corpus))
    _note(args.command, f"{corpus.total_tokens()} characters")
    _save_trained(args, train_embeddings(corpus, config, name="character"))


def _cmd_build_sememe_space(args):
    config = _train_config(args)
    corpus = load_corpus(args.corpus)
    lexicon = parse_lexicon(args.lexicon)
    _note(args.command, f"{len(lexicon)} lexicon words, max rank {args.max_rank}")
    space = build_sememe_space(corpus, lexicon, config, max_rank=args.max_rank)
    _save_trained(args, space)


def _cmd_hownet_vector(args):
    # the space of the queried word's entry alone: one sum, not one per word
    entry = {args.word: parse_lexicon(args.lexicon).get(args.word, ())}
    vec = hownet_space(entry, load_space(args.sememe_space, name="sememe")).get(args.word)
    if vec is None:
        raise ValueError(f"no sememe vector obtainable for {args.word!r}")
    print(format_vector(vec))


def _cmd_train_simmodel(args):
    thesaurus = load_thesaurus(args.thesaurus)
    pairs = build_pairs(thesaurus, args.positive, args.negative, seed=args.seed)
    _note(args.command, f"{len(pairs)} training pairs")
    model = train_perceptron(pairs, args.epochs)
    save_similarity_model(model, args.out)
    _note(args.command, f"wrote {args.out}")


def _cmd_revise(args):
    space = load_space(args.space, name="original")
    model = load_similarity_model(args.model)
    corpus = load_corpus(args.corpus)
    vocab = build_vocabulary(corpus)
    targets = set(space.tokens) | set(vocab)
    if args.targets is not None:
        targets.update(plain_word(word, lineno, args.targets)
                       for lineno, (word,) in tab_fields(args.targets, 1))
    config = CombinedSpaceConfig(rare_tf_threshold=args.threshold, k=args.k)
    _note(args.command, f"revising over {len(targets)} target words")
    combined = build_combined_space(targets, space, model, vocab, config)
    save_space(combined, args.out)
    _note(args.command, f"wrote {args.out} ({len(combined)} vectors)")


def _hownet_source(args):
    """Whether --lexicon and --sememe-space give a HowNet source; one alone is an error."""
    if (args.lexicon is None) != (args.sememe_space is None):
        raise ValueError("--lexicon and --sememe-space must be given together")
    return args.lexicon is not None


def _load_hownet(args):
    return hownet_space(
        parse_lexicon(args.lexicon), load_space(args.sememe_space, name="sememe")
    )


def _load_tagger_sources(args):
    """The word space, HowNet lookup and character space the flags give; a
    source whose dimension is not the word space's is an error."""
    word_space = load_space(args.word_space, name="word")
    char_space = (None if args.char_space is None
                  else load_space(args.char_space, name="character"))
    hownet = _load_hownet(args) if _hownet_source(args) else None
    for flag, space in (("--char-space", char_space), ("--sememe-space", hownet)):
        if space is not None and space.dim != word_space.dim:
            raise ValueError(f"{flag} has dimension {space.dim}, "
                             f"but --word-space has {word_space.dim}")
    return word_space, None if hownet is None else hownet.get, char_space


def _cmd_train_tagger(args):
    word_space, hownet_fn, char_space = _load_tagger_sources(args)
    tagged = load_tagged_corpus(args.tagged)
    scheme = LabelScheme.from_labels(s.labels for s in tagged)
    spec = FeatureSpec(dim=word_space.dim, window_radius=args.window_radius,
                       use_hownet=hownet_fn is not None, use_char=char_space is not None)
    features = [row for sent in tagged for row in sentence_features(
        sent.tokens, word_space, hownet_fn, char_space, spec)]
    labels = [scheme.index(lab) for sent in tagged for lab in sent.labels]
    _note(args.command, f"{len(features)} examples, labels {' '.join(scheme.labels)}")
    model = train_logreg(
        features, labels, lam=args.lam, tol=args.tol, max_iter=args.max_iter,
        scheme=scheme, spec=spec,
    )
    _note(
        args.command,
        f"{len(model.history) - 1} iterations, stopped on {model.stop_reason}, "
        f"{model.evaluations} loss-and-gradient evaluations, "
        f"final loss {model.history[-1]:.6g}, gradient inf-norm {model.final_gnorm:.3g}",
    )
    save_tagger(model, args.out)
    _note(args.command, f"wrote {args.out}")


def _cmd_tag(args):
    model = load_tagger(args.model)
    spec = model.spec
    # each block the model uses needs its source; a source for a block it
    # leaves off would be ignored silently
    for block, flags, given, used in (
            ("character", "--char-space", args.char_space is not None, spec.use_char),
            ("HowNet", "--lexicon and --sememe-space", _hownet_source(args), spec.use_hownet)):
        if given and not used:
            raise ValueError(f"the model has no {block} block; drop {flags}")
        if used and not given:
            raise ValueError(f"the model has a {block} block; give {flags}")
    word_space, hownet_fn, char_space = _load_tagger_sources(args)
    if word_space.dim != spec.dim:
        raise ValueError(f"--word-space has dimension {word_space.dim}, "
                         f"but the model has {spec.dim}")
    corpus = load_corpus(args.corpus)
    tagged = (TaggedSentence(s, tag_sentence(model, s, word_space, hownet_fn, char_space))
              for s in corpus)
    if args.out is not None:
        save_tagged_corpus(tagged, args.out)
        _note(args.command, f"wrote {args.out}")
    else:
        write_tagged_corpus(tagged, sys.stdout)


def _cmd_eval_sim(args):
    if _hownet_source(args):
        if args.space is not None:
            raise ValueError("give either --space or --lexicon/--sememe-space, not both")
        source = _load_hownet(args)
    elif args.space is None:
        raise ValueError("need --space or --lexicon/--sememe-space")
    else:
        source = load_space(args.space)
    judgements = load_judgements(args.judgements)
    rho, coverage = eval_similarity(source, judgements)
    print(f"spearman {100.0 * rho:.1f}")
    print(f"coverage {100.0 * coverage:.1f}")


def _cmd_eval_ner(args):
    gold = load_tagged_corpus(args.gold)
    pred = load_tagged_corpus(args.pred)
    if len(gold) != len(pred):
        raise ValueError(
            f"gold has {len(gold)} sentences but prediction has {len(pred)}"
        )
    for k, (g, p) in enumerate(zip(gold, pred)):
        if g.tokens != p.tokens:
            raise ValueError(f"sentence {k + 1}: tokens differ")
    gold_spans = spans_of_corpus([s.labels for s in gold])
    pred_spans = spans_of_corpus([s.labels for s in pred])
    print("overall " + format_prf(*span_prf(gold_spans, pred_spans)))
    for t, (p, r, f) in per_type_prf(gold_spans, pred_spans).items():
        print(f"{t} " + format_prf(p, r, f))


def build_parser():
    # flag groups that several subcommands share, each declared once
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--corpus", required=True)
    training.add_argument("--out", required=True)
    training.add_argument("--config", help="key=value per line; flags override")
    for f in fields(TrainConfig):
        training.add_argument(
            "--" + f.name.replace("_", "-"), type=f.type,
            choices=ARCHITECTURES if f.name == "architecture" else None,
        )
    hownet = argparse.ArgumentParser(add_help=False)
    hownet.add_argument("--lexicon")
    hownet.add_argument("--sememe-space")
    spaces = argparse.ArgumentParser(add_help=False)
    spaces.add_argument("--word-space", required=True)
    spaces.add_argument("--char-space")

    parser = argparse.ArgumentParser(
        prog="sememevec",
        description="Sememe-enhanced word vectors, rare-word revision and BI tagging.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("train-embeddings", parents=[training],
                          help="train word vectors on a corpus")
    sub.set_defaults(func=_cmd_train_embeddings)

    sub = subs.add_parser("train-char-embeddings", parents=[training],
                          help="train character vectors on a corpus")
    sub.set_defaults(func=_cmd_train_char_embeddings)

    sub = subs.add_parser("build-sememe-space", parents=[training],
                          help="train sememe vectors via replacement corpora")
    sub.add_argument("--lexicon", required=True)
    sub.add_argument("--max-rank", type=int, default=3)
    sub.set_defaults(func=_cmd_build_sememe_space)

    sub = subs.add_parser(
        "hownet-vector", help="print the sememe-sum vector of one word"
    )
    sub.add_argument("--word", required=True)
    sub.add_argument("--lexicon", required=True)
    sub.add_argument("--sememe-space", required=True)
    sub.set_defaults(func=_cmd_hownet_vector)

    sub = subs.add_parser(
        "train-simmodel", help="train the morphological similarity perceptron"
    )
    sub.add_argument("--thesaurus", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--positive", type=int, default=500)
    sub.add_argument("--negative", type=int, default=500)
    sub.add_argument("--epochs", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_train_simmodel)

    sub = subs.add_parser(
        "revise", help="build the combined space with rare words revised"
    )
    sub.add_argument("--space", required=True)
    sub.add_argument("--model", required=True)
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--targets", help="extra whitespace-free target words, one per line")
    sub.add_argument("--threshold", type=int, default=2)
    sub.add_argument("--k", type=int, default=5)
    sub.set_defaults(func=_cmd_revise)

    sub = subs.add_parser("train-tagger", parents=[spaces, hownet],
                          help="train the BI sequence tagger")
    sub.add_argument("--tagged", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--window-radius", type=int, default=2)
    sub.add_argument("--lam", type=float, default=1.0)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--max-iter", type=int, default=500)
    sub.set_defaults(func=_cmd_train_tagger)

    sub = subs.add_parser("tag", parents=[spaces, hownet],
                          help="tag a corpus with a trained model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_tag)

    sub = subs.add_parser("eval-sim", parents=[hownet],
                          help="Spearman against human similarity judgements")
    sub.add_argument("--judgements", required=True)
    sub.add_argument("--space")
    sub.set_defaults(func=_cmd_eval_sim)

    sub = subs.add_parser("eval-ner", help="span precision/recall/F1")
    sub.add_argument("--gold", required=True)
    sub.add_argument("--pred", required=True)
    sub.set_defaults(func=_cmd_eval_ner)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
