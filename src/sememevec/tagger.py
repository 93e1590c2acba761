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

import numpy as np

from .corpus import ParseError, atomic_text_writer, finite_floats, iter_utf8_lines


class LabelScheme:
    """B-t/I-t labels for each entity type plus O, densely indexed from 0."""

    def __init__(self, entity_types):
        types = list(entity_types)
        if len(set(types)) != len(types):
            raise ValueError("duplicate entity types")
        for t in types:
            # "/" would split a saved token/LABEL item at the wrong place
            if not t or "/" in t or any(ch.isspace() for ch in t):
                raise ValueError(f"invalid entity type {t!r}")
        self.entity_types = types
        self.labels = ["O"]
        for t in types:
            self.labels.append("B-" + t)
            self.labels.append("I-" + t)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def from_labels(cls, label_sequences):
        """Derive the scheme from observed labels, types sorted for determinism."""
        types = set()
        for labels in label_sequences:
            for lab in labels:
                if lab == "O":
                    continue
                if len(lab) > 2 and lab[:2] in ("B-", "I-"):
                    types.add(lab[2:])
                else:
                    raise ValueError(f"unrecognised label {lab!r}")
        return cls(sorted(types))

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"label {label!r} not in scheme") from None

    def label(self, idx):
        return self.labels[idx]

    def __contains__(self, label):
        return label in self._index

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, LabelScheme) and self.entity_types == other.entity_types


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
        length = 0
        if self.use_context:
            length += (2 * self.window_radius + 1) * self.dim
        if self.use_hownet:
            length += self.dim
        if self.use_char:
            length += self.dim
        return length


def assemble_features(sentence, i, word_space, hownet_fn, char_space, spec):
    """Concatenate the enabled feature blocks for position i.

    Context slots outside the sentence and tokens without a vector contribute
    zero blocks. Enabled blocks require their source: the word space for
    context, a hownet callable, the character space for the last character.
    """
    if not 0 <= i < len(sentence):
        raise IndexError(f"position {i} out of range for sentence of length {len(sentence)}")
    d = spec.dim
    zero = np.zeros(d)
    parts = []
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
            parts.append(vec if vec is not None else zero)
    if spec.use_hownet:
        if hownet_fn is None:
            raise ValueError("hownet features enabled but no hownet source given")
        vec = hownet_fn(sentence[i])
        if vec is not None and len(vec) != d:
            raise ValueError(f"hownet vector length {len(vec)} != feature dim {d}")
        parts.append(vec if vec is not None else zero)
    if spec.use_char:
        if char_space is None:
            raise ValueError("character features enabled but no character space given")
        if char_space.dim != d:
            raise ValueError(
                f"character space dimension {char_space.dim} != feature dim {d}"
            )
        vec = char_space.get(sentence[i][-1])
        parts.append(vec if vec is not None else zero)
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


@dataclass
class TaggerModel:
    """Per-class weight rows and biases with the spec they were trained for.

    `history`, `stop_reason` and `final_gnorm` describe the fit that made the
    model; they are not serialized.
    """

    weights: np.ndarray
    bias: np.ndarray
    lam: float
    spec: FeatureSpec = None
    scheme: LabelScheme = None
    history: list = field(default_factory=list, repr=False)
    stop_reason: str = None
    final_gnorm: float = None


def softmax_loss_and_grads(weights, bias, features, labels, lam):
    """Mean cross entropy plus (lam/2)*||W||^2, with analytic gradients wrt
    weights and biases; biases are unregularized."""
    logits = features @ weights.T + bias
    peak = logits.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
    n = len(labels)
    idx = np.arange(n)
    loss = float((lse - logits[idx, labels]).mean()) + 0.5 * lam * float(
        np.sum(weights * weights)
    )
    probs = np.exp(logits - lse[:, None])
    probs[idx, labels] -= 1.0
    probs /= n
    grad_w = probs.T @ features + lam * weights
    grad_b = probs.sum(axis=0)
    return loss, grad_w, grad_b


LBFGS_MEMORY = 10  # curvature pairs kept by train_logreg


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


def train_logreg(features, labels, lam=1.0, tol=1e-6, max_iter=500,
                 scheme=None, spec=None):
    """Full-batch L-BFGS with backtracking (Armijo) line search.

    Zero initialization. The direction comes from the last LBFGS_MEMORY
    curvature pairs; the first step, and any step whose direction is not a
    descent direction, uses the unit-length steepest descent direction
    instead. Each trial point is evaluated once, for loss and gradients
    together, and the accepted trial's gradients start the next iteration
    and close its curvature pair. Stops when the gradient infinity-norm
    drops to tol ("tol"), after max_iter accepted steps ("max_iter"), or
    when no trial of the line search descends at float precision
    ("no-descent"); the reason and the final gradient infinity-norm are
    kept on the model. The loss history is non-increasing.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise ValueError("features must be a non-empty 2-d array matching labels")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single class")
    n_classes = len(scheme) if scheme is not None else int(y.max()) + 1
    if int(y.max()) >= n_classes or int(y.min()) < 0:
        raise ValueError("label index out of range for the scheme")

    # weights and biases as one flat vector: W row-major, then b
    split = n_classes * X.shape[1]

    def unpack(theta):
        return theta[:split].reshape(n_classes, X.shape[1]), theta[split:]

    def evaluate(theta):
        loss, grad_w, grad_b = softmax_loss_and_grads(*unpack(theta), X, y, lam)
        return loss, np.concatenate((grad_w.ravel(), grad_b))

    theta = np.zeros(split + n_classes)
    loss, grad = evaluate(theta)
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
                       stop_reason=stop_reason, final_gnorm=gnorm)


def predict(model, features):
    """Softmax probabilities and the argmax label index (ties: smallest index)."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (model.weights.shape[1],):
        raise ValueError(
            f"feature length {x.shape} does not match model "
            f"({model.weights.shape[1]},)"
        )
    z = model.weights @ x + model.bias
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    return int(np.argmax(probs)), probs


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
    """Independent per-token prediction followed by BI repair."""
    if model.spec is None or model.scheme is None:
        raise ValueError("model carries no feature spec or label scheme")
    labels = []
    for i in range(len(sentence)):
        x = assemble_features(sentence, i, word_space, hownet_fn, char_space, model.spec)
        idx, _ = predict(model, x)
        labels.append(model.scheme.label(idx))
    return repair_bi(labels)


def save_tagger(model, path):
    """Labelled text sections: scheme, spec, lambda, weight rows, biases."""
    if model.spec is None or model.scheme is None:
        raise ValueError("cannot serialize a model without spec and scheme")
    types = model.scheme.entity_types
    with atomic_text_writer(path) as fh:
        fh.write("tagger-model v1\n")
        fh.write("entity-types" + ("".join(" " + t for t in types)) + "\n")
        fh.write(f"window-radius {model.spec.window_radius}\n")
        fh.write(f"use-context {int(model.spec.use_context)}\n")
        fh.write(f"use-hownet {int(model.spec.use_hownet)}\n")
        fh.write(f"use-char {int(model.spec.use_char)}\n")
        fh.write(f"dim {model.spec.dim}\n")
        fh.write(f"lambda {model.lam:.17g}\n")
        fh.write(f"classes {model.weights.shape[0]}\n")
        fh.write(f"features {model.weights.shape[1]}\n")
        fh.write("weights\n")
        for row in model.weights:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        fh.write("bias\n")
        fh.write(" ".join(f"{x:.17g}" for x in model.bias) + "\n")


def _parse_kv(line, key, lineno, path):
    if not line.startswith(key + " ") and line != key:
        raise ParseError(f"{path}: line {lineno}: expected '{key} ...', got {line!r}")
    return line[len(key):].strip()


def load_tagger(path):
    lines = list(iter_utf8_lines(path))
    if not lines or lines[0][1] != "tagger-model v1":
        raise ParseError(f"{path}: line 1: not a tagger model file")

    def take(idx, key):
        if idx >= len(lines):
            raise ParseError(f"{path}: unexpected end of file, expected '{key}'")
        lineno, line = lines[idx]
        return _parse_kv(line, key, lineno, path)

    types = take(1, "entity-types").split()
    header = [take(idx, key) for idx, key in (
        (2, "window-radius"), (3, "use-context"), (4, "use-hownet"),
        (5, "use-char"), (6, "dim"), (8, "classes"), (9, "features"))]
    try:
        radius, use_context, use_hownet, use_char, dim, n_classes, n_features = map(
            int, header)
    except ValueError:
        raise ParseError(f"{path}: malformed numeric header field") from None
    try:
        spec = FeatureSpec(
            dim=dim,
            window_radius=radius,
            use_context=bool(use_context),
            use_hownet=bool(use_hownet),
            use_char=bool(use_char),
        )
        scheme = LabelScheme(types)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    lam = finite_floats([take(7, "lambda")], lines[7][0], path)[0]
    if take(10, "weights") != "":
        raise ParseError(f"{path}: malformed weights section header")
    if len(lines) < 11 + n_classes + 2:
        raise ParseError(f"{path}: truncated model file")
    rows = []
    for offset in range(n_classes):
        lineno, line = lines[11 + offset]
        values = line.split()
        if len(values) != n_features:
            raise ParseError(
                f"{path}: line {lineno}: expected {n_features} weights, "
                f"got {len(values)}"
            )
        rows.append(finite_floats(values, lineno, path))
    bias_at = 11 + n_classes
    if take(bias_at, "bias") != "":
        raise ParseError(f"{path}: malformed bias section header")
    lineno, line = lines[bias_at + 1]
    bias_values = line.split()
    if len(bias_values) != n_classes:
        raise ParseError(
            f"{path}: line {lineno}: expected {n_classes} biases, "
            f"got {len(bias_values)}"
        )
    if len(scheme) != n_classes:
        raise ParseError(
            f"{path}: scheme with {len(scheme)} labels does not match "
            f"{n_classes} classes"
        )
    model = TaggerModel(
        np.array(rows, dtype=np.float64),
        np.array(finite_floats(bias_values, lineno, path)),
        lam,
        spec=spec,
        scheme=scheme,
    )
    if model.weights.shape[1] != spec.feature_length:
        raise ParseError(
            f"{path}: feature count {model.weights.shape[1]} does not match "
            f"spec length {spec.feature_length}"
        )
    return model
