"""Deterministic input generators, one per workload.

Each generator takes the workload seed and a directory, writes the files the
workload reads, and returns a dict with the file paths, the in-memory facts
the correctness checks need, and the workload's properties. The same seed
always gives byte-identical files. Generators never call a library trainer,
so a trainer change cannot change another workload's inputs.
"""

import itertools
import os

import numpy as np

from sememevec.tagger import FeatureSpec, LabelScheme, TaggerModel, save_tagger

# ---------------------------------------------------------------------------
# pipeline: the shape of the acceptance pipeline (c11), seeded by the caller

DATE_CHAR = "日"
MARKER = "于"
SUFFIXES = "山水木火土金"
SEEN_ENTITIES = [chr(0x4E00 + i) + DATE_CHAR for i in range(16)]
UNSEEN_ENTITIES = [chr(0x4E00 + 16 + i) + DATE_CHAR for i in range(4)]
OTHER_WORDS = [chr(0x7500 + j) + SUFFIXES[j % 6] for j in range(24)]
FILLER_WORDS = [chr(0x8000 + m) + chr(0x8100 + m) for m in range(12)]
PIPELINE_TRAIN = 400
PIPELINE_TEST = 100


def _draw_pipeline_sentence(rng, entity_counter, use_unseen):
    # every 5th held-out entity occurrence is a type absent from training
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
    return toks, labs


def _write_tagged(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for toks, labs in sentences:
            fh.write(" ".join(f"{t}/{l}" for t, l in zip(toks, labs)) + "\n")


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _type_stats(sentences, threshold=2):
    counts = {}
    for toks in sentences:
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    rare = sum(1 for c in counts.values() if c <= threshold)
    return counts, {
        "tokens": sum(counts.values()),
        "types": len(counts),
        "rare_share": rare / len(counts),
    }


def _tagging_shares(tokens, word_set, lexicon_words):
    """Shares of the tokens to be tagged without a word vector and in the lexicon."""
    return {
        "oov_share": sum(1 for t in tokens if t not in word_set) / len(tokens),
        "lexicon_coverage": sum(1 for t in tokens if t in lexicon_words) / len(tokens),
    }


def make_pipeline(seed, outdir):
    rng = np.random.default_rng(seed)
    counter = [0]
    train = [_draw_pipeline_sentence(rng, counter, False) for _ in range(PIPELINE_TRAIN)]
    counter[0] = 0
    test = [_draw_pipeline_sentence(rng, counter, True) for _ in range(PIPELINE_TEST)]

    paths = {name: os.path.join(outdir, name) for name in
             ("train.txt", "test.txt", "lexicon.tsv", "thesaurus.tsv")}
    _write_tagged(paths["train.txt"], train)
    _write_tagged(paths["test.txt"], test)
    lexicon = [f"{w}\tN\t时间,日子" for w in SEEN_ENTITIES + UNSEEN_ENTITIES]
    lexicon += [f"{w}\tN\t{w[-1]}类" for w in OTHER_WORDS]
    _write_lines(paths["lexicon.tsv"], lexicon)
    thesaurus = ["T00\t" + " ".join(SEEN_ENTITIES)]
    for idx, s in enumerate(SUFFIXES):
        thesaurus.append(f"S{idx:02d}\t" + " ".join(w for w in OTHER_WORDS if w[-1] == s))
    _write_lines(paths["thesaurus.tsv"], thesaurus)

    counts, props = _type_stats([toks for toks, _ in train])
    entities = [t for toks, labs in test for t, l in zip(toks, labs) if l != "O"]
    props["unseen_share"] = sum(1 for t in entities if t not in counts) / len(entities)
    targets = {t for toks, _ in train + test for t in toks}
    props["shared_char_share"] = shared_char_share(
        sorted(t for t in targets if counts.get(t, 0) <= 2), list(counts))
    covered = set(SEEN_ENTITIES + UNSEEN_ENTITIES + OTHER_WORDS)
    props.update(_tagging_shares([t for toks, _ in test for t in toks], counts, covered))
    return {"paths": paths, "properties": props}


# ---------------------------------------------------------------------------
# rare-revise: a Zipf corpus over word families that share a two-character
# stem, so morphological neighbours of a rare word are mostly its family

REVISE_FAMILIES = 150
REVISE_MEMBERS = 7
REVISE_SUFFIXES = 40
REVISE_ZIPF_TOP = 1600
REVISE_ZIPF_CAP = 150
REVISE_UNSEEN = 100
REVISE_JUDGEMENTS_PER_GRADE = 450
RARE_THRESHOLD = 2


def _revise_families(rng):
    """Family stems and members; members are stem+suffix or suffix+stem."""
    stem_chars = rng.permutation(2 * REVISE_FAMILIES) + 0x5000
    suffixes = [chr(0x6000 + i) for i in range(REVISE_SUFFIXES)]
    families = []
    for f in range(REVISE_FAMILIES):
        stem = chr(int(stem_chars[2 * f])) + chr(int(stem_chars[2 * f + 1]))
        picks = rng.choice(REVISE_SUFFIXES, size=REVISE_MEMBERS, replace=False)
        members = [
            stem + suffixes[int(s)] if k % 3 else suffixes[int(s)] + stem
            for k, s in enumerate(picks)
        ]
        families.append(members)
    return families


def make_rare_revise(seed, outdir):
    """Word counts follow one fixed Zipf profile over a seeded rank order.

    So token, type and rare-word counts, and with them the revision work,
    are the same for every seed. The profile is capped at REVISE_ZIPF_CAP:
    uncapped, the few most frequent words set a seed-dependent common
    direction in the one-epoch CBOW space, which moved rho_rare between 0.53
    and 0.71 across seeds. Six in ten occurrences sit among their own
    family's occurrences, so sentences are mostly on one family.
    """
    rng = np.random.default_rng(seed)
    families = _revise_families(rng)
    family_of = {w: f for f, members in enumerate(families) for w in members}
    words = sorted(family_of)
    held = set(rng.choice(len(words), size=REVISE_UNSEEN, replace=False).tolist())
    unseen = [w for i, w in enumerate(words) if i in held]
    emitted = [w for i, w in enumerate(words) if i not in held]

    ranks = rng.permutation(len(emitted)) + 1
    freq = np.clip(np.rint(REVISE_ZIPF_TOP / ranks), 1, REVISE_ZIPF_CAP).astype(np.int64)
    occ = np.repeat(np.arange(len(emitted)), freq)
    fam = np.array([family_of[w] for w in emitted])[occ]
    home = np.where(rng.random(len(occ)) < 0.6, fam,
                    rng.integers(REVISE_FAMILIES, size=len(occ)))
    order = occ[np.lexsort((rng.random(len(occ)), home))].tolist()
    sentences = []
    at = 0
    while at < len(order):
        n = int(rng.integers(8, 15))
        sentences.append([emitted[i] for i in order[at:at + n]])
        at += n

    counts, props = _type_stats(sentences, RARE_THRESHOLD)
    thesaurus = [
        f"F{f:03d}\t" + " ".join(w for w in members if w in counts)
        for f, members in enumerate(families)
        if sum(1 for w in members if w in counts) >= 2
    ]

    # graded judgements over rare and unseen words, the same number of
    # pairs in each grade: 2 same family, 1 a character shared across
    # families, 0 nothing shared
    pool = sorted(w for w, c in counts.items() if c <= RARE_THRESHOLD) + unseen
    in_pool = set(pool)
    grades = [set(), set(), set()]
    for members in families:
        grades[2].update(itertools.combinations(sorted(w for w in members if w in in_pool), 2))
    by_char = {}
    for w in pool:
        for ch in w:
            by_char.setdefault(ch, []).append(w)
    for group in by_char.values():
        grades[1].update((a, b) for a, b in itertools.combinations(sorted(group), 2)
                         if family_of[a] != family_of[b])
    while len(grades[0]) < REVISE_JUDGEMENTS_PER_GRADE:
        a, b = sorted(pool[i] for i in rng.choice(len(pool), size=2, replace=False))
        if not set(a) & set(b):
            grades[0].add((a, b))
    judgements = []
    for score, pairs in enumerate(grades):
        pairs = sorted(pairs)
        take = rng.choice(len(pairs), size=min(len(pairs), REVISE_JUDGEMENTS_PER_GRADE),
                          replace=False)
        judgements += [(pairs[i][0], pairs[i][1], float(score)) for i in sorted(take)]

    paths = {name: os.path.join(outdir, name) for name in
             ("corpus.txt", "thesaurus.tsv", "unseen.txt")}
    _write_lines(paths["corpus.txt"], (" ".join(s) for s in sentences))
    _write_lines(paths["thesaurus.tsv"], thesaurus)
    _write_lines(paths["unseen.txt"], unseen)

    props["unseen_share"] = len(unseen) / (len(counts) + len(unseen))
    props["shared_char_share"] = shared_char_share(pool, list(counts))
    props["oov_share"] = 0.0  # nothing is tagged
    props["lexicon_coverage"] = 0.0
    return {
        "paths": paths,
        "properties": props,
        "unseen": unseen,
        "judgements": judgements,
        "threshold": RARE_THRESHOLD,
    }


def shared_char_share(queries, candidates):
    """Share of (query, candidate) pairs that have a character in common.

    This is the fraction of scored pairs that a character-index pruned
    neighbour search would still have to score.
    """
    by_char = {}
    for w in candidates:
        for ch in set(w):
            by_char.setdefault(ch, set()).add(w)
    cand = set(candidates)
    shared = scored = 0
    for q in queries:
        hits = set()
        for ch in set(q):
            hits |= by_char.get(ch, set())
        hits.discard(q)
        shared += len(hits)
        scored += len(cand) - (q in cand)
    return shared / scored if scored else 0.0


# ---------------------------------------------------------------------------
# tag-stream: pre-made spaces, lexicon and a planted tagger model. All vector
# components are multiples of 1/256, so the text files round-trip exactly and
# the oracle sees the same numbers the library loads.

TAG_DIM = 50
TAG_WORDS = 20000
TAG_OOV_WORDS = 1500
TAG_TOKENS = 150000
TAG_TYPES = ("LOC", "PER")
TAG_CLASSES = ("O",) + TAG_TYPES
TAG_CHARS_PER_CLASS = 500
TAG_SEMEMES_PER_CLASS = 200
TAG_LEXICON_SHARE = 0.6
TAG_OOV_SHARE = 0.05
TAG_RADIUS = 2
_PROTO_COORDS = 16


def _prototypes(rng):
    # one direction per class on disjoint coordinates, unit squared norm
    protos = np.zeros((len(TAG_CLASSES), TAG_DIM))
    for c in range(len(TAG_CLASSES)):
        signs = rng.choice([-1.0, 1.0], size=_PROTO_COORDS)
        protos[c, c * _PROTO_COORDS:(c + 1) * _PROTO_COORDS] = 0.25 * signs
    return protos


def _noisy(rng, protos, classes):
    noise = rng.integers(-8, 9, size=(len(classes), TAG_DIM)) / 256.0
    return protos[classes] + noise


def _fmt_row_writer(path, tokens, matrix, chunk=1024):
    # multiples of 1/256 below 2 in magnitude print exactly in %.9g
    lo = int(np.rint(matrix.min() * 256))
    hi = int(np.rint(matrix.max() * 256))
    table = np.array([f"{k / 256.0:.9g}" for k in range(lo, hi + 1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {matrix.shape[1]}\n")
        for at in range(0, len(tokens), chunk):
            ints = np.rint(matrix[at:at + chunk] * 256).astype(np.intp) - lo
            fh.writelines(tok + " " + " ".join(row) + "\n"
                          for tok, row in zip(tokens[at:at + chunk], table[ints].tolist()))


def planted_tagger_weights(protos):
    """Weights and biases with a clear margin between the five labels.

    Labels follow LabelScheme order: O, B-LOC, I-LOC, B-PER, I-PER. A label
    of class c reads c's direction from the centre word, hownet and last
    character blocks; I-t also rewards, and B-t penalises, a previous word
    of type t, and B-t carries a bias over I-t.
    """
    n_slots = 2 * TAG_RADIUS + 1
    length = (n_slots + 2) * TAG_DIM
    labels = ["O"] + [p + t for t in TAG_TYPES for p in ("B-", "I-")]
    W = np.zeros((len(labels), length))
    b = np.zeros(len(labels))
    centre = TAG_RADIUS * TAG_DIM
    prev = (TAG_RADIUS - 1) * TAG_DIM
    hownet = n_slots * TAG_DIM
    char = (n_slots + 1) * TAG_DIM
    for row, lab in enumerate(labels):
        cls = TAG_CLASSES.index(lab[2:]) if lab != "O" else 0
        W[row, centre:centre + TAG_DIM] = 2.0 * protos[cls]
        W[row, hownet:hownet + TAG_DIM] = protos[cls]
        W[row, char:char + TAG_DIM] = protos[cls]
        if lab.startswith("B-"):
            W[row, prev:prev + TAG_DIM] = -2.0 * protos[cls]
            b[row] = 0.5
        elif lab.startswith("I-"):
            W[row, prev:prev + TAG_DIM] = 2.0 * protos[cls]
            b[row] = -0.5
    return labels, W, b


def _tag_sentences(rng, vocab, cls, n_in_space):
    """Sentences of Zipf O words and 1-3 token entities, some tokens OOV.

    ``vocab[:n_in_space]`` have word vectors, the rest are OOV. The random
    draws are made in bulk and consumed in order.
    """
    n_cls = len(TAG_CLASSES)
    budget = TAG_TOKENS + 64  # a sentence overshoots TAG_TOKENS by at most 30
    draws = []
    for k in range(n_cls):
        members = np.flatnonzero(cls[:n_in_space] == k)
        oov_members = n_in_space + np.flatnonzero(cls[n_in_space:] == k)
        p = 1.0 / (rng.permutation(len(members)) + 1.0)
        zipf = np.searchsorted(np.cumsum(p) / p.sum(), rng.random(budget))
        is_oov = rng.random(budget) < TAG_OOV_SHARE
        oov_at = oov_members[rng.integers(len(oov_members), size=budget)]
        draws.append(iter(np.where(is_oov, oov_at, members[np.minimum(zipf, len(members) - 1)])))
    slot_entity = iter(rng.random(budget) < 0.25)
    slot_type = iter(rng.integers(1, n_cls, size=budget))
    span_len = iter(rng.integers(1, 4, size=budget))
    sent_len = iter(rng.integers(4, 11, size=budget))

    sentences = []
    total = 0
    while total < TAG_TOKENS:
        sent = []
        for _ in range(next(sent_len)):
            k = next(slot_type) if next(slot_entity) else 0
            n = next(span_len) if k else 1
            sent.extend(vocab[next(draws[k])] for _ in range(n))
        sentences.append(sent)
        total += len(sent)
    return sentences


def make_tag_stream(seed, outdir):
    """Spaces, lexicon, corpus and a planted model: the ``tag`` command's inputs.

    Every word, character and sememe vector is its class's direction plus
    small noise, so the planted weights separate the labels by a clear
    margin and argmax ties cannot occur.
    """
    rng = np.random.default_rng(seed)
    protos = _prototypes(rng)
    n_cls = len(TAG_CLASSES)

    # characters, each carrying its class direction, in one block per class
    char_cls = np.repeat(np.arange(n_cls), TAG_CHARS_PER_CLASS)
    chars = [chr(0x4E00 + i) for i in range(len(char_cls))]
    char_vecs = _noisy(rng, protos, char_cls)

    # words end in a character of their class; 70% O, 15% per entity type
    def draw_words(n, taken):
        out, out_cls = [], []
        while len(out) < n:
            m = n - len(out)
            cls = rng.choice(n_cls, size=m, p=[0.7, 0.15, 0.15])
            body_len = rng.integers(1, 3, size=m)
            body = rng.integers(len(chars), size=(m, 2))
            last = cls * TAG_CHARS_PER_CLASS + rng.integers(TAG_CHARS_PER_CLASS, size=m)
            for c, k, bd, la in zip(cls.tolist(), body_len.tolist(), body.tolist(),
                                    last.tolist()):
                w = "".join(chars[i] for i in bd[:k]) + chars[la]
                if w not in taken:
                    taken.add(w)
                    out.append(w)
                    out_cls.append(c)
        return out, np.array(out_cls)

    taken = set()
    words, word_cls = draw_words(TAG_WORDS, taken)
    oov, oov_cls = draw_words(TAG_OOV_WORDS, taken)
    word_vecs = _noisy(rng, protos, word_cls)

    # sememes of each class; lexicon entries use one to three of them
    sem_cls = np.repeat(np.arange(n_cls), TAG_SEMEMES_PER_CLASS)
    sememes = [f"义{i:04d}" for i in range(len(sem_cls))]
    sem_vecs = _noisy(rng, protos, sem_cls)
    all_cls = np.concatenate([word_cls, oov_cls])
    covered = rng.random(len(all_cls)) < TAG_LEXICON_SHARE
    n_sem = rng.integers(1, 4, size=len(all_cls))
    sem_pick = rng.integers(TAG_SEMEMES_PER_CLASS, size=(len(all_cls), 3))
    while True:  # redraw rows that repeat a sememe
        s = np.sort(sem_pick, axis=1)
        dup = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if not len(dup):
            break
        sem_pick[dup] = rng.integers(TAG_SEMEMES_PER_CLASS, size=(len(dup), 3))
    lexicon = {}
    for w, c, cov, k, picks in zip(words + oov, all_cls.tolist(), covered.tolist(),
                                   n_sem.tolist(), sem_pick.tolist()):
        if cov:
            lexicon[w] = [sememes[c * TAG_SEMEMES_PER_CLASS + s] for s in picks[:k]]

    sentences = _tag_sentences(rng, words + oov, all_cls, len(words))

    paths = {name: os.path.join(outdir, name) for name in (
        "words.vec", "chars.vec", "sememe.vec", "lexicon.tsv", "tagger.model",
        "corpus.txt")}
    _fmt_row_writer(paths["words.vec"], words, word_vecs)
    _fmt_row_writer(paths["chars.vec"], chars, char_vecs)
    _fmt_row_writer(paths["sememe.vec"], sememes, sem_vecs)
    _write_lines(paths["lexicon.tsv"], (f"{w}\tN\t{','.join(s)}" for w, s in lexicon.items()))
    _write_lines(paths["corpus.txt"], (" ".join(s) for s in sentences))
    labels, W, b = planted_tagger_weights(protos)
    scheme = LabelScheme(list(TAG_TYPES))
    if scheme.labels != labels:
        raise RuntimeError("planted label order does not match the label scheme")
    spec = FeatureSpec(dim=TAG_DIM, window_radius=TAG_RADIUS)
    save_tagger(TaggerModel(W, b, 1.0, spec=spec, scheme=scheme), paths["tagger.model"])

    _, props = _type_stats(sentences)
    props["unseen_share"] = 0.0  # nothing is trained or revised
    props["shared_char_share"] = 0.0
    props.update(_tagging_shares([t for s in sentences for t in s], set(words), lexicon))
    return {
        "paths": paths,
        "properties": props,
        "sentences": sentences,
        "words": words, "word_vecs": word_vecs,
        "chars": chars, "char_vecs": char_vecs,
        "sememes": sememes, "sem_vecs": sem_vecs,
        "lexicon": lexicon,
        "labels": labels, "W": W, "b": b, "radius": TAG_RADIUS,
    }


GENERATORS = {
    "pipeline": make_pipeline,
    "rare-revise": make_rare_revise,
    "tag-stream": make_tag_stream,
}
