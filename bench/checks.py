"""Correctness checks, each with an oracle written here, not in the library.

Every check function returns a list of (name, passed) pairs; the benchmark
counts them as attempted and failed.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# pipeline: the c11 quality gates

F_FINAL_MIN = 0.95


def check_pipeline(f):
    return [
        ("f_final>=0.95", f["f_final"] >= F_FINAL_MIN),
        ("f_final>=f_char", f["f_final"] >= f["f_char"]),
        ("f_char>=f_w2v", f["f_char"] >= f["f_w2v"]),
    ]


# ---------------------------------------------------------------------------
# rare-revise: brute-force neighbour search and revision blending


def lcs_len(a, b):
    """Longest common substring length, by enumerating substrings of a."""
    best = 0
    for i in range(len(a)):
        for j in range(i + best + 1, len(a) + 1):
            if a[i:j] in b:
                best = j - i
    return best


def edit_distance(a, b):
    """Levenshtein distance by memoised recursion over suffixes."""
    memo = {}

    def d(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        key = (i, j)
        if key not in memo:
            memo[key] = min(
                d(i + 1, j) + 1,
                d(i, j + 1) + 1,
                d(i + 1, j + 1) + (a[i] != b[j]),
            )
        return memo[key]

    return d(0, 0)


def char_cos(a, b):
    alphabet = sorted(set(a) | set(b))
    va = [a.count(ch) for ch in alphabet]
    vb = [b.count(ch) for ch in alphabet]
    if va == vb:
        return 1.0
    dot = sum(x * y for x, y in zip(va, vb))
    if dot == 0:
        return 0.0
    return min(1.0, dot / math.sqrt(sum(x * x for x in va) * sum(y * y for y in vb)))


def oracle_score(model, a, b):
    """The model's similarity from independently computed measures.

    The final weighted sum and squashing use the library's arithmetic, so
    equal measures give bit-equal scores and rankings compare exactly.
    """
    n = max(len(a), len(b))
    x = np.array([lcs_len(a, b) / n, 1.0 - edit_distance(a, b) / n, char_cos(a, b)])
    z = float(model.weights() @ x + model.bias)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def oracle_top_k(model, word, candidates, k):
    scored = [(c, oracle_score(model, word, c)) for c in candidates if c != word]
    scored.sort(key=lambda cs: (-cs[1], cs[0]))
    return scored[:k]


def bucket(tf):
    return sum(tf > edge for edge in (2, 5, 20, 100))


def oracle_revised(word, neighbours, original, tf_of):
    """Expected combined vector of a rare word from its neighbour list."""
    present = sorted((w, original[w]) for w, _ in neighbours if w in original)
    similar = None
    if len(present) == 1:
        similar = present[0][1]
    elif present:
        weights = [bucket(tf_of(w)) for w, _ in present]
        if sum(weights) == 0:
            weights = [1] * len(present)
        similar = sum(wt * v for wt, (_, v) in zip(weights, present)) / sum(weights)
    stored = original.get(word)
    c1 = bucket(tf_of(word)) / 4.0
    if similar is None or (stored is not None and c1 == 1.0):
        return stored
    if stored is None or c1 == 0.0:
        return similar
    return c1 * stored + (1.0 - c1) * similar


def check_revise(original, combined, vocab, model, topk_lists, threshold, k):
    """Pass-through, finiteness, and sampled top-k and blending checks.

    ``original`` and ``combined`` map words to vectors; ``topk_lists`` maps
    each sampled query to the top-k list the library returned for it.
    """
    out = []
    for w in sorted(original):
        if vocab.tf(w) > threshold:
            got = combined.get(w)
            out.append((f"pass-through {w}",
                        got is not None and np.array_equal(got, original[w])))
    out.append(("all finite", all(np.all(np.isfinite(v)) for v in combined.values())))
    for query, got in sorted(topk_lists.items()):
        want = oracle_top_k(model, query, list(vocab), k)
        out.append((f"top-k {query}", got == want))
        expected = oracle_revised(query, want, original, vocab.tf)
        vec = combined.get(query)
        out.append((f"revised {query}", vec is not None and expected is not None
                    and np.allclose(vec, expected, rtol=1e-12, atol=1e-15)))
    return out


# ---------------------------------------------------------------------------
# tag-stream: argmax of X @ W.T + b over independently assembled features


def repair(labels):
    out = []
    for lab in labels:
        t = lab[2:]
        if lab.startswith("I-") and (not out or out[-1] not in ("B-" + t, "I-" + t)):
            lab = "B-" + t
        out.append(lab)
    return out


def oracle_labels(inp, chunk=1024):
    """Expected labels for every sentence of the tag-stream corpus.

    Feature rows are [words at offsets -r..r | sememe sum | last character],
    with zero blocks for positions outside the sentence and for tokens the
    sources do not cover, built in chunks to bound memory.
    """
    sentences = inp["sentences"]
    dim = inp["word_vecs"].shape[1]
    radius = inp["radius"]
    word_row = {w: i for i, w in enumerate(inp["words"])}
    char_row = {c: i for i, c in enumerate(inp["chars"])}
    sem_row = {s: i for i, s in enumerate(inp["sememes"])}
    words = np.vstack([inp["word_vecs"], np.zeros(dim)])
    chars = np.vstack([inp["char_vecs"], np.zeros(dim)])
    sem = np.vstack([inp["sem_vecs"], np.zeros(dim)])

    tokens = [t for s in sentences for t in s]
    n = len(tokens)
    types = list(dict.fromkeys(tokens))
    type_of = {t: i for i, t in enumerate(types)}
    tid = np.fromiter((type_of[t] for t in tokens), dtype=np.intp, count=n)
    sent_of = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    wid = np.fromiter((word_row.get(t, len(word_row)) for t in types), dtype=np.intp)
    cid = np.fromiter((char_row.get(t[-1], len(char_row)) for t in types), dtype=np.intp)
    # sememe rows of each type's first lexicon entry, padded with the zero row
    width = max((len(v) for v in inp["lexicon"].values()), default=1)
    sid = np.full((len(types), width), len(sem_row), dtype=np.intp)
    for i, t in enumerate(types):
        rows = [sem_row[s] for s in inp["lexicon"].get(t, ()) if s in sem_row]
        sid[i, :len(rows)] = rows
    pred = np.empty(n, dtype=np.intp)
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(n, lo + chunk))
        blocks = []
        for off in range(-radius, radius + 1):
            j = np.clip(idx + off, 0, n - 1)
            inside = (idx + off == j) & (sent_of[j] == sent_of[idx])
            blocks.append(words[np.where(inside, wid[tid[j]], len(word_row))])
        blocks.append(sem[sid[tid[idx]]].sum(axis=1))
        blocks.append(chars[cid[tid[idx]]])
        X = np.hstack(blocks)
        pred[lo:lo + len(idx)] = np.argmax(X @ inp["W"].T + inp["b"], axis=1)
    labels = [inp["labels"][p] for p in pred]
    out, at = [], 0
    for s in sentences:
        out.append(repair(labels[at:at + len(s)]))
        at += len(s)
    return out


def check_tagged(sentences, expected, path):
    """One check per written sentence: same tokens, every label the oracle's.

    The file is read line by line, so the check holds one sentence at a time.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for k, items in enumerate(line.split() for line in fh if line.strip()):
            pairs = [item.rsplit("/", 1) for item in items]
            out.append((f"sentence {k}", k < len(sentences)
                        and [t for t, _ in pairs] == sentences[k]
                        and [lab for _, lab in pairs] == expected[k]))
    out.append(("sentence count", len(out) == len(sentences)))
    return out
