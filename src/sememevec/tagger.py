"""Feature assembly and the L2-regularized multiclass logistic tagger.

Each token is classified independently from a fixed-order concatenation of
real-valued blocks: the word-space vectors of a context window around it,
the sememe-sum vector of the token, and the vector of its last character.
Absent components contribute zero blocks so the feature length never
changes. Predicted label sequences are repaired afterwards so that no
I-label appears without a same-type predecessor.
"""

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
            if not t or any(ch.isspace() for ch in t):
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
    """Per-class weight rows and biases with the spec they were trained for."""

    weights: np.ndarray
    bias: np.ndarray
    lam: float
    spec: FeatureSpec = None
    scheme: LabelScheme = None
    history: list = field(default_factory=list, repr=False)


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


def train_logreg(features, labels, lam=1.0, tol=1e-6, max_iter=500,
                 scheme=None, spec=None):
    """Full-batch gradient descent with backtracking line search.

    Zero initialization; stops when the gradient infinity-norm drops to tol,
    when max_iter is reached, or when no descent step remains at float
    precision. The loss history on the returned model is non-increasing.
    Each trial point is evaluated once, for loss and gradients together, and
    the accepted trial's gradients start the next iteration.
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

    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    loss, grad_w, grad_b = softmax_loss_and_grads(W, b, X, y, lam)
    history = [loss]
    step = 1.0
    for _ in range(max_iter):
        gnorm = max(float(np.abs(grad_w).max()), float(np.abs(grad_b).max()))
        if gnorm <= tol:
            break
        gsq = float(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b))
        alpha = step
        for _ in range(60):
            W_new = W - alpha * grad_w
            b_new = b - alpha * grad_b
            trial = softmax_loss_and_grads(W_new, b_new, X, y, lam)
            if trial[0] <= loss - 1e-4 * alpha * gsq:
                break
            alpha *= 0.5
        else:
            break
        W, b = W_new, b_new
        loss, grad_w, grad_b = trial
        history.append(loss)
        step = min(alpha * 2.0, 1e6)
    return TaggerModel(W, b, lam, spec=spec, scheme=scheme, history=history)


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
    try:
        radius = int(take(2, "window-radius"))
        use_context = bool(int(take(3, "use-context")))
        use_hownet = bool(int(take(4, "use-hownet")))
        use_char = bool(int(take(5, "use-char")))
        dim = int(take(6, "dim"))
        n_classes = int(take(8, "classes"))
        n_features = int(take(9, "features"))
    except ValueError:
        raise ParseError(f"{path}: malformed numeric header field")
    try:
        spec = FeatureSpec(
            dim=dim,
            window_radius=radius,
            use_context=use_context,
            use_hownet=use_hownet,
            use_char=use_char,
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
