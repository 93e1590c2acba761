"""Feature assembly and the L2-regularized multiclass logistic tagger.

Each token is classified independently from a fixed-order concatenation of
real-valued blocks: the word-space vectors of a context window around it,
the sememe-sum vector of the token, and the vector of its last character.
Absent components contribute zero blocks so the feature length never
changes. Predicted label sequences are repaired afterwards so that no
I-label appears without a same-type predecessor.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import (
    ParseError,
    ascii_int,
    atomic_text_writer,
    has_whitespace,
    header_value,
    iter_written_lines,
    next_line,
    written_float,
    written_rows,
)


def _entity_type(label):
    """t of a "B-t" or "I-t" label; ValueError for any other label."""
    if len(label) <= 2 or label[:2] not in ("B-", "I-"):
        raise ValueError(f"unrecognised label {label!r}")
    return label[2:]


class LabelScheme:
    """O, then the B-t and I-t labels of each entity type in turn, densely
    indexed from 0.

    LabelScheme(types) holds both labels of every type; with `observed`, it
    holds only the B-/I- labels in it. A label that no training row holds
    cannot be fitted: its unregularized bias has no minimiser.
    """

    def __init__(self, entity_types, observed=None):
        types = list(entity_types)
        if len(set(types)) != len(types):
            raise ValueError("duplicate entity types")
        for t in types:
            # "/" would split a saved token/LABEL item at the wrong place
            if not t or "/" in t or has_whitespace(t):
                raise ValueError(f"invalid entity type {t!r}")
        self.labels = ["O"] + [p + t for t in types for p in ("B-", "I-")
                               if observed is None or p + t in observed]
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def from_labels(cls, label_sequences):
        """O and each label that occurs, types sorted for determinism."""
        observed = {lab for labels in label_sequences for lab in labels}
        return cls(sorted({_entity_type(lab) for lab in observed - {"O"}}), observed)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"label {label!r} not in scheme") from None

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, LabelScheme) and self.labels == other.labels


@dataclass(frozen=True)
class FeatureSpec:
    """Window radius, component toggles and the shared vector dimension.

    Checked once at construction and immutable after, so every spec in use
    is valid.
    """

    dim: int
    window_radius: int = 2
    use_context: bool = True
    use_hownet: bool = True
    use_char: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.window_radius < 0:
            raise ValueError("window_radius cannot be negative")

    @property
    def feature_length(self):
        slots = self.use_context * (2 * self.window_radius + 1)
        return (slots + self.use_hownet + self.use_char) * self.dim


def assemble_features(sentence, i, word_space, hownet_fn, char_space, spec):
    """Concatenate the enabled feature blocks for position i.

    Context slots outside the sentence and tokens without a vector contribute
    zero blocks. Enabled blocks require their source: the word space for
    context, a hownet callable, the character space for the last character.
    The blocks' float64 bytes are joined into one writable row.
    """
    if not 0 <= i < len(sentence):
        raise IndexError(f"position {i} out of range for sentence of length {len(sentence)}")
    d = spec.dim
    zero = bytes(8 * d)
    blocks = []
    if spec.use_context:
        if word_space is None:
            raise ValueError("context features enabled but no word space given")
        if word_space.dim != d:
            raise ValueError(
                f"word space dimension {word_space.dim} != feature dim {d}"
            )
        for off in range(-spec.window_radius, spec.window_radius + 1):
            j = i + off
            vec = word_space.get(sentence[j]) if 0 <= j < len(sentence) else None
            blocks.append(zero if vec is None else vec)
    if spec.use_hownet:
        if hownet_fn is None:
            raise ValueError("hownet features enabled but no hownet source given")
        vec = hownet_fn(sentence[i])
        if vec is not None:
            if len(vec) != d:
                raise ValueError(f"hownet vector length {len(vec)} != feature dim {d}")
            # a float32 vector, a list or a strided view would join other bytes
            vec = np.ascontiguousarray(vec, dtype=np.float64)
            if vec.ndim != 1:
                raise ValueError(f"hownet vector of {vec.ndim} axes, not 1")
        blocks.append(zero if vec is None else vec)
    if spec.use_char:
        if char_space is None:
            raise ValueError("character features enabled but no character space given")
        if char_space.dim != d:
            raise ValueError(
                f"character space dimension {char_space.dim} != feature dim {d}"
            )
        vec = char_space.get(sentence[i][-1])
        blocks.append(zero if vec is None else vec)
    return np.frombuffer(bytearray().join(blocks))


def sentence_features(sentence, word_space, hownet_fn, char_space, spec):
    """The (n, spec.feature_length) rows of an n-token sentence, row i being
    assemble_features at position i: the rows training fits and tagging
    predicts on."""
    rows = [assemble_features(sentence, i, word_space, hownet_fn, char_space, spec)
            for i in range(len(sentence))]
    return np.frombuffer(bytearray().join(rows)).reshape(len(sentence), spec.feature_length)


@dataclass
class TaggerModel:
    """Per-class weight rows and biases, checked at construction to be finite
    and to match the spec and label scheme they were trained for.

    `history`, `evaluations` (loss-and-gradient evaluations), `stop_reason`
    and `final_gnorm` describe the fit that made the model; they are not
    serialized.
    """

    weights: np.ndarray
    bias: np.ndarray
    lam: float
    spec: FeatureSpec
    scheme: LabelScheme
    history: list = field(default_factory=list, repr=False)
    evaluations: int = None
    stop_reason: str = None
    final_gnorm: float = None

    def __post_init__(self):
        shape = (len(self.scheme), self.spec.feature_length)
        if np.shape(self.weights) != shape or np.shape(self.bias) != shape[:1]:
            raise ValueError(f"weights {np.shape(self.weights)} and bias "
                             f"{np.shape(self.bias)} do not match {shape}")
        if not all(np.isfinite(v).all() for v in (self.weights, self.bias, self.lam)):
            raise ValueError("weights, bias and lam must be finite")


class _Block(NamedTuple):
    """A column block of feature rows as a table of its distinct rows.

    ``table[inverse]`` is ``features[:, columns]`` bit for bit. ``order``
    lists the rows grouped by table entry, in row order within an entry,
    and ``starts[j]`` is where entry j's group begins in it.
    """

    columns: slice
    table: np.ndarray
    inverse: np.ndarray
    order: np.ndarray
    starts: np.ndarray


def _distinct_rows(block):
    """(table, inverse, order, starts) of an _Block over the rows of block:
    the rows stable-sorted by the bits of their first two values, an entry
    starting wherever a row's bits differ from the row before it.
    table[inverse] is block bit for bit whatever the order; distinct rows
    that tie on those two values only split an entry."""
    order = np.lexsort(block[:, 1::-1].view(np.uint64).T)
    rows = block[order]
    bits = rows.view(np.uint64)
    first = np.zeros(len(rows), bool)
    first[0] = True
    # the row of each value that differs, in one pass over all values
    first[np.flatnonzero(bits[1:] != bits[:-1]) // block.shape[1] + 1] = True
    starts = np.flatnonzero(first)
    inverse = np.empty(len(rows), np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[starts], inverse, order, starts


def _distinct_blocks(features, width):
    """The _Block of each width-column block of the (n, F) features; each
    block's temporaries are freed, in its own call, before the next's."""
    return [_Block(slice(c, c + width), *_distinct_rows(features[:, c:c + width]))
            for c in range(0, features.shape[1], width)]


def _blocked_loss_and_grads(weights, bias, blocks, labels, lam):
    """softmax_loss_and_grads of the features the blocks tabulate.

    Each block's table rows are scored once, and the class-major (K, n)
    logits gather them per row; the residuals are summed per table entry
    before they meet the table, so nothing (n, F)-sized is multiplied.
    """
    n = len(labels)
    logits = np.repeat(bias[:, None], n, axis=1)
    for columns, table, inverse, _, _ in blocks:
        logits += (weights[:, columns] @ table.T).take(inverse, axis=1)
    peak = logits.max(axis=0)
    lse = peak + np.log(np.exp(logits - peak).sum(axis=0))
    # each row's label logit, in the flat (K, n) logits
    picks = labels * n + np.arange(n)
    loss = float((lse - logits.take(picks)).mean()) + 0.5 * lam * float(
        np.sum(weights * weights)
    )
    probs = np.exp(logits - lse)
    probs.ravel()[picks] -= 1.0
    probs /= n
    grad_w = lam * weights
    for columns, table, _, order, starts in blocks:
        grad_w[:, columns] += np.add.reduceat(probs.take(order, axis=1), starts, axis=1) @ table
    return loss, grad_w, probs.sum(axis=1)


def softmax_loss_and_grads(weights, bias, features, labels, lam):
    """Mean cross entropy plus (lam/2)*||W||^2, with analytic gradients wrt
    weights and biases; biases are unregularized. The features are one
    block whose rows are all their own entries."""
    features = np.asarray(features)
    every = np.arange(len(features))
    whole = _Block(slice(None), features, every, every, every)
    return _blocked_loss_and_grads(weights, bias, [whole], np.asarray(labels), lam)


LBFGS_MEMORY = 30  # curvature pairs kept by train_logreg


def _lbfgs_direction(grad, pairs):
    """-H grad by the two-loop recursion (Liu & Nocedal 1989), the initial
    inverse Hessian scaled by the newest pair's s.y / y.y."""
    q = grad.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        coeffs.append(a)
    _, y, rho = pairs[-1]
    q /= rho * float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        q += (a - rho * float(y @ q)) * s
    return -q


def train_logreg(features, labels, lam=1.0, tol=1e-6, max_iter=500, *, scheme, spec):
    """Full-batch L-BFGS with backtracking (Armijo) line search, fitting rows
    of spec.feature_length finite features to label indices of scheme; every
    label of the scheme must hold a row.

    Each spec.dim-column block of the rows is tabulated once, as its distinct
    rows and each row's entry among them, and every evaluation works on
    those tables: the loss and gradients of softmax_loss_and_grads on the
    rows, summed in another order.

    Zero initialization. The direction comes from the last LBFGS_MEMORY
    curvature pairs; the first step, and any step whose direction is not a
    descent direction, uses the unit-length steepest descent direction
    instead. Each trial point is evaluated once, for loss and gradients
    together, and the accepted trial's gradients start the next iteration
    and close its curvature pair. Stops when the gradient infinity-norm
    drops to tol ("tol"), after max_iter accepted steps ("max_iter"), or
    when no trial of the line search descends at float precision
    ("no-descent"); the reason, the final gradient infinity-norm and the
    number of evaluations are kept on the model. The loss history is
    non-increasing.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise ValueError("features must be a non-empty 2-d array matching labels")
    if X.shape[1] != spec.feature_length:
        raise ValueError(f"feature width {X.shape[1]} != spec length {spec.feature_length}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"feature row {int(finite.argmin())} is not finite")
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 0:
        raise ValueError("max_iter cannot be negative")
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single class")
    n_classes = len(scheme)
    if int(y.max()) >= n_classes or int(y.min()) < 0:
        raise ValueError("label index out of range for the scheme")
    # the bias of a label with no row would fall for as long as the fit ran
    rows = np.bincount(y, minlength=n_classes)
    missing = [scheme.labels[k] for k in np.flatnonzero(rows == 0)]
    if missing:
        raise ValueError(f"no training row holds scheme label(s) {' '.join(missing)}; "
                         "a label without rows cannot be fitted")

    # weights and biases as one flat vector: W row-major, then b
    split = n_classes * X.shape[1]

    def unpack(theta):
        return theta[:split].reshape(n_classes, X.shape[1]), theta[split:]

    blocks = _distinct_blocks(X, spec.dim)

    def evaluate(theta):
        loss, grad_w, grad_b = _blocked_loss_and_grads(*unpack(theta), blocks, y, lam)
        return loss, np.concatenate((grad_w.ravel(), grad_b))

    theta = np.zeros(split + n_classes)
    loss, grad = evaluate(theta)
    evaluations = 1
    history = [loss]
    pairs = deque(maxlen=LBFGS_MEMORY)
    while True:
        gnorm = float(np.abs(grad).max())
        if gnorm <= tol:
            stop_reason = "tol"
            break
        if len(history) > max_iter:
            stop_reason = "max_iter"
            break
        direction = _lbfgs_direction(grad, pairs) if pairs else None
        if direction is None or not float(grad @ direction) < 0.0:
            pairs.clear()
            direction = grad / -np.linalg.norm(grad)
        slope = float(grad @ direction)
        alpha = 1.0
        for _ in range(60):
            trial = theta + alpha * direction
            trial_loss, trial_grad = evaluate(trial)
            evaluations += 1
            # strict: a trial whose loss does not move at float precision
            # is no descent
            if trial_loss < loss + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            stop_reason = "no-descent"
            break
        s = trial - theta
        dg = trial_grad - grad
        sy = float(s @ dg)
        # a pair with too little curvature would spoil the positive
        # definiteness of the inverse Hessian approximation
        if sy > 1e-10 * np.sqrt(float(s @ s) * float(dg @ dg)):
            pairs.append((s, dg, 1.0 / sy))
        theta, loss, grad = trial, trial_loss, trial_grad
        history.append(loss)
    W, b = unpack(theta)
    return TaggerModel(W, b, lam, spec=spec, scheme=scheme, history=history,
                       evaluations=evaluations, stop_reason=stop_reason,
                       final_gnorm=gnorm)


def predict(model, features):
    """The label index of each row of the (n, F) features: the argmax of
    features @ W.T + b, the logits train_logreg fits (ties: smallest index)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"feature rows {x.shape} do not match model (n, {model.weights.shape[1]})"
        )
    return (x @ model.weights.T + model.bias).argmax(axis=1)


def repair_bi(labels):
    """Rewrite any I-t whose predecessor is neither B-t nor I-t to B-t."""
    repaired = []
    for i, lab in enumerate(labels):
        if lab.startswith("I-"):
            t = lab[2:]
            prev = repaired[i - 1] if i else None
            if prev != "B-" + t and prev != "I-" + t:
                lab = "B-" + t
        repaired.append(lab)
    return repaired


def tag_sentence(model, sentence, word_space, hownet_fn, char_space):
    """Independent per-token labels, predicted for all the sentence's feature
    rows at once, followed by BI repair."""
    x = sentence_features(sentence, word_space, hownet_fn, char_space, model.spec)
    return repair_bi([model.scheme.labels[idx] for idx in predict(model, x).tolist()])


def _flag(text):
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


TAGGER_MAGIC = "tagger-model v2"


def _scheme(text):
    """The LabelScheme whose labels, in index order, text lists."""
    labels = text.split(" ")
    if labels[0] != "O":
        raise ValueError(f"the first label is {labels[0]!r}, not 'O'")
    if len(set(labels)) != len(labels):
        raise ValueError("a label repeats")
    scheme = LabelScheme(dict.fromkeys(map(_entity_type, labels[1:])), labels)
    if scheme.labels != labels:
        raise ValueError("labels out of scheme order: each type's B- then I- label, "
                         "the types one after another")
    return scheme


# The header lines of a tagger file after TAGGER_MAGIC, in file order: the
# key, the fields written after it, and the parser of the text after it.
_HEADER = (
    ("labels", lambda m: m.scheme.labels, _scheme),
    ("window-radius", lambda m: [m.spec.window_radius], ascii_int),
    ("use-context", lambda m: [int(m.spec.use_context)], _flag),
    ("use-hownet", lambda m: [int(m.spec.use_hownet)], _flag),
    ("use-char", lambda m: [int(m.spec.use_char)], _flag),
    ("dim", lambda m: [m.spec.dim], ascii_int),
    ("lambda", lambda m: [f"{m.lam:.17g}"], written_float),
    ("features", lambda m: [m.weights.shape[1]], ascii_int),
)


def save_tagger(model, path):
    """TAGGER_MAGIC, the _HEADER lines, then "weights" over one row per class
    and "bias" over one row, every value at 17 significant digits."""
    with atomic_text_writer(path) as fh:
        fh.write(TAGGER_MAGIC + "\n")
        for key, fields, _ in _HEADER:
            fh.write(" ".join([key, *map(str, fields(model))]) + "\n")
        for section, rows in (("weights", model.weights), ("bias", [model.bias])):
            fh.write(section + "\n")
            for row in rows:
                fh.write(" ".join(f"{x:.17g}" for x in row.tolist()) + "\n")


def load_tagger(path):
    """Read a file written by save_tagger, in one pass; ParseError names the
    line of anything save_tagger could not have written."""
    lines = iter_written_lines(path)
    magic = next(lines, (1, ""))[1]
    if magic == "tagger-model v1":
        raise ParseError(f"{path}: line 1: a tagger-model v1 file, which lists entity "
                         "types, not labels; retrain it with train-tagger")
    if magic != TAGGER_MAGIC:
        raise ParseError(f"{path}: line 1: not a tagger model file")

    def section(name, n_rows, width, what):
        lineno, line = next_line(lines, path, f"'{name}'")
        if line != name:
            raise ParseError(f"{path}: line {lineno}: expected '{name}', got {line!r}")
        # one row at a time, so a fault is named in file order
        return np.concatenate([written_rows([next_line(lines, path, what)], width, path)
                               for _ in range(n_rows)])

    scheme, radius, use_context, use_hownet, use_char, dim, lam, n_features = (
        header_value(lines, path, key, parse) for key, _, parse in _HEADER)
    try:
        spec = FeatureSpec(dim=dim, window_radius=radius, use_context=use_context,
                           use_hownet=use_hownet, use_char=use_char)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    weights = section("weights", len(scheme), n_features, "weights")
    bias = section("bias", 1, len(scheme), "biases")[0]
    for lineno, _ in lines:
        raise ParseError(f"{path}: line {lineno}: unexpected line after the bias row")
    try:
        # the features count must fit the spec
        return TaggerModel(weights, bias, lam, spec=spec, scheme=scheme)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
