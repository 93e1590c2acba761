import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_prefixes_refused_or_whole,
    dense_softmax_loss_and_grads_oracle,
    entity_types,
    finite_values,
    per_type_logits_oracle,
    round_trip,
    traced_peak,
)
from sememevec.corpus import ParseError
from sememevec.embedding import EmbeddingSpace
from sememevec.tagger import (
    FeatureSpec,
    LabelScheme,
    TaggerModel,
    _blocked_loss_and_grads,
    _distinct_blocks,
    assemble_features,
    load_tagger,
    predict,
    repair_bi,
    save_tagger,
    sentence_features,
    softmax_loss_and_grads,
    tag_sentence,
    train_logreg,
)


class TestLabelScheme:
    def test_labels_and_indices(self):
        s = LabelScheme(["Date", "Time"])
        assert s.labels == ["O", "B-Date", "I-Date", "B-Time", "I-Time"]
        assert s.index("O") == 0
        assert s.labels[3] == "B-Time"
        assert len(s) == 5

    def test_from_labels_sorted(self):
        s = LabelScheme.from_labels([["O", "B-Time"], ["I-Date", "O"]])
        assert s.labels == ["O", "I-Date", "B-Time"]

    @pytest.mark.parametrize("sequences, labels", [
        ([["B-Date", "O", "B-Date"]], ["O", "B-Date"]),
        ([["B-Time", "I-Time"], ["O", "B-Date"]], ["O", "B-Date", "B-Time", "I-Time"]),
        ([["I-Time", "B-Date"], ["I-Date", "O", "B-Time"]],
         ["O", "B-Date", "I-Date", "B-Time", "I-Time"]),
        ([["O"]], ["O"]),
        ([["B-Date"]], ["O", "B-Date"]),
    ])
    def test_from_labels_keeps_only_the_labels_that_occur(self, sequences, labels):
        # an I- label with no row has no fit, so the scheme must not hold it
        assert LabelScheme.from_labels(sequences).labels == labels

    def test_equal_when_labels_are(self):
        full = LabelScheme(["Date"])
        assert full == LabelScheme.from_labels([["B-Date", "I-Date", "O"]])
        only_b = LabelScheme.from_labels([["B-Date", "O"]])
        assert only_b.labels == full.labels[:2] == ["O", "B-Date"]
        assert only_b != full

    @pytest.mark.parametrize("make, message", [
        (lambda: LabelScheme.from_labels([["B-Date", "WAT"]]), "unrecognised label 'WAT'"),
        (lambda: LabelScheme(["Date"]).index("B-Time"), "label 'B-Time' not in scheme"),
        (lambda: LabelScheme(["Date", "Date"]), "duplicate entity types"),
        # a saved item "x/B-A/B" would load back as token "x/B-A", label "B"
        (lambda: LabelScheme(["A/B"]), "invalid entity type 'A/B'"),
    ], ids=["garbage-label", "unknown-label", "duplicate-types", "slash-in-type"])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


def toy_spaces(d=4):
    rng = np.random.default_rng(17)
    words = EmbeddingSpace(d, name="word")
    for w in ("甲日", "乙山", "丙日"):
        words.add(w, rng.normal(0, 1, d))
    chars = EmbeddingSpace(d, name="char")
    for ch in ("日", "山"):
        chars.add(ch, rng.normal(0, 1, d))
    hownet = {"甲日": rng.normal(0, 1, d)}
    return words, chars, hownet.get


class TestFeatureAssembly:
    def test_length_formula_all_toggles(self):
        for ctx in (True, False):
            for hn in (True, False):
                for ch in (True, False):
                    spec = FeatureSpec(dim=4, window_radius=2, use_context=ctx,
                                       use_hownet=hn, use_char=ch)
                    want = (5 * 4 if ctx else 0) + (4 if hn else 0) + (4 if ch else 0)
                    assert spec.feature_length == want

    def test_dimension_example(self):
        spec = FeatureSpec(dim=10, window_radius=2)
        assert spec.feature_length == 70

    def test_block_order_and_padding(self):
        words, chars, hownet_fn = toy_spaces()
        spec = FeatureSpec(dim=4, window_radius=2)
        f = assemble_features(["甲日"], 0, words, hownet_fn, chars, spec)
        assert f.shape == (28,)
        # four context slots outside the one-token sentence are zero
        assert np.array_equal(f[0:8], np.zeros(8))
        assert np.array_equal(f[8:12], words.get("甲日"))
        assert np.array_equal(f[12:20], np.zeros(8))
        assert np.array_equal(f[20:24], hownet_fn("甲日"))
        assert np.array_equal(f[24:28], chars.get("日"))

    def test_absent_components_zero(self):
        words, chars, hownet_fn = toy_spaces()
        spec = FeatureSpec(dim=4, window_radius=2)
        f = assemble_features(["不在"], 0, words, hownet_fn, chars, spec)
        assert np.array_equal(f, np.zeros(28))

    def test_neighbor_context_included(self):
        words, chars, hownet_fn = toy_spaces()
        spec = FeatureSpec(dim=4, window_radius=1, use_hownet=False, use_char=False)
        f = assemble_features(["甲日", "乙山"], 1, words, hownet_fn, chars, spec)
        assert np.array_equal(f[0:4], words.get("甲日"))
        assert np.array_equal(f[4:8], words.get("乙山"))
        assert np.array_equal(f[8:12], np.zeros(4))

    def test_sentence_rows_are_positions(self):
        words, chars, hownet_fn = toy_spaces()
        spec = FeatureSpec(dim=4, window_radius=1)
        for sent in (["甲日", "不在", "乙山"], []):
            x = sentence_features(sent, words, hownet_fn, chars, spec)
            assert x.shape == (len(sent), spec.feature_length)
            for i in range(len(sent)):
                assert np.array_equal(x[i], assemble_features(sent, i, words, hownet_fn,
                                                              chars, spec))

    @pytest.mark.parametrize("bad", [{"dim": 0}, {"dim": 4, "window_radius": -1}])
    def test_invalid_spec_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            FeatureSpec(**bad)

    def test_position_out_of_range(self):
        words, chars, hownet_fn = toy_spaces()
        spec = FeatureSpec(dim=4)
        with pytest.raises(IndexError):
            assemble_features(["甲日"], 1, words, hownet_fn, chars, spec)

    @pytest.mark.parametrize("source, message", [
        ("no-words", "context features enabled but no word space given"),
        ("words-dim", "word space dimension 5 != feature dim 4"),
        ("no-hownet", "hownet features enabled but no hownet source given"),
        ("hownet-dim", "hownet vector length 5 != feature dim 4"),
        ("hownet-axes", "hownet vector of 2 axes, not 1"),
        ("no-char", "character features enabled but no character space given"),
        ("char-dim", "character space dimension 5 != feature dim 4"),
    ])
    def test_sources_checked(self, source, message):
        words, chars, hownet_fn = toy_spaces()
        if source == "no-words":
            words = None
        elif source == "words-dim":
            words = toy_spaces(5)[0]
        elif source == "no-hownet":
            hownet_fn = None
        elif source == "hownet-dim":
            hownet_fn = {"甲日": np.ones(5)}.get
        elif source == "hownet-axes":
            hownet_fn = {"甲日": np.ones((4, 2))}.get
        elif source == "no-char":
            chars = None
        else:
            chars = toy_spaces(5)[1]
        with pytest.raises(ValueError, match=message):
            assemble_features(["甲日"], 0, words, hownet_fn, chars, FeatureSpec(dim=4))

    @pytest.mark.parametrize("layout", ["float32", "list", "strided"])
    def test_hownet_vector_of_any_layout_gives_its_float64_row(self, layout):
        # the row joins the blocks' bytes, so each must be float64 and contiguous
        words, chars, _ = toy_spaces()
        vec = np.random.default_rng(3).normal(0, 1, 8)[::2]
        given = {"float32": vec.astype(np.float32), "list": vec.tolist(), "strided": vec}[layout]
        spec = FeatureSpec(dim=4, window_radius=1)
        f = assemble_features(["甲日"], 0, words, {"甲日": given}.get, chars, spec)
        want = np.concatenate([np.zeros(4), words.get("甲日"), np.zeros(4),
                               np.asarray(given, dtype=np.float64), chars.get("日")])
        assert f.tobytes() == want.tobytes()
        f[0] = 1.0  # writable, as the concatenated row was


def random_problem(seed=23, n=40, d=6, classes=3):
    """Random features and labels, with a scheme of `classes` labels and a
    spec of width d to fit them under; labels are drawn until every class
    has a row, as train_logreg requires.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = rng.integers(0, classes, n)
    while len(np.unique(y)) < classes:
        y = rng.integers(0, classes, n)
    labels = LabelScheme(["Date", "Time", "Place"]).labels[:classes]
    scheme = LabelScheme.from_labels([labels])
    spec = FeatureSpec(dim=d, window_radius=0, use_hownet=False, use_char=False)
    return X, y, scheme, spec


# values whose "%.17g" text is easy to get wrong: signed zeros, the smallest
# subnormal, a huge magnitude and a repeating binary fraction
AWKWARD = [0.0, -0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0]


def fixed_model(entity_types, spec, lam=0.25, observed=None):
    """A model with fixed weights; the first values are the AWKWARD ones."""
    scheme = LabelScheme(entity_types, observed)
    n_classes, n_features = len(scheme), spec.feature_length
    values = np.arange(n_classes * (n_features + 1), dtype=np.float64) / 7.0 - 1.5
    values[:len(AWKWARD)] = AWKWARD
    weights = values[:n_classes * n_features].reshape(n_classes, n_features)
    bias = values[n_classes * n_features:].copy()
    return TaggerModel(weights, bias, lam, spec=spec, scheme=scheme)


class TestTaggerModel:
    @pytest.mark.parametrize("weights, bias", [
        # width-4 rows under a spec of length 10 would save a file that does not load
        (np.zeros((3, 4)), np.zeros(3)),
        (np.zeros((5, 10)), np.zeros(3)),
        (np.zeros((3, 10)), np.zeros(5)),
        (np.zeros((3, 10)), np.zeros((1, 3))),
    ])
    def test_shape_other_than_labels_by_spec_length_rejected(self, weights, bias):
        with pytest.raises(ValueError, match="do not match"):
            TaggerModel(weights, bias, 1.0, spec=FeatureSpec(dim=2, window_radius=1),
                        scheme=LabelScheme(["Date"]))

    @pytest.mark.parametrize("where", ["weight", "bias", "lam"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, where, bad):
        # save_tagger would write a file that load_tagger refuses
        weights, bias, lam = np.zeros((3, 10)), np.zeros(3), 1.0
        if where == "weight":
            weights[1, 4] = bad
        elif where == "bias":
            bias[2] = bad
        else:
            lam = bad
        with pytest.raises(ValueError, match="must be finite"):
            TaggerModel(weights, bias, lam, spec=FeatureSpec(dim=2, window_radius=1),
                        scheme=LabelScheme(["Date"]))


class TestLogreg:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        X, y, _, _ = random_problem(n=20)
        h = 1e-6
        for _ in range(10):
            W = rng.normal(0, 0.7, (3, 6))
            b = rng.normal(0, 0.7, 3)
            _, gw, gb = softmax_loss_and_grads(W, b, X, y, 0.3)
            for i in range(3):
                for j in range(6):
                    Wp = W.copy(); Wp[i, j] += h
                    Wm = W.copy(); Wm[i, j] -= h
                    num = (softmax_loss_and_grads(Wp, b, X, y, 0.3)[0]
                           - softmax_loss_and_grads(Wm, b, X, y, 0.3)[0]) / (2 * h)
                    assert abs(num - gw[i, j]) <= 1e-5 * max(1.0, abs(num))
                bp = b.copy(); bp[i] += h
                bm = b.copy(); bm[i] -= h
                num = (softmax_loss_and_grads(W, bp, X, y, 0.3)[0]
                       - softmax_loss_and_grads(W, bm, X, y, 0.3)[0]) / (2 * h)
                assert abs(num - gb[i]) <= 1e-5 * max(1.0, abs(num))

    def test_loss_history_non_increasing(self):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, max_iter=100, scheme=scheme, spec=spec)
        assert len(m.history) >= 2
        assert all(b <= a for a, b in zip(m.history, m.history[1:]))

    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(0, 0.5, (20, 4)) + 4, rng.normal(0, 0.5, (20, 4)) - 4])
        y = np.array([0] * 20 + [1] * 20)
        _, _, scheme, spec = random_problem(d=4, classes=2)
        m = train_logreg(X, y, lam=1e-4, max_iter=300, scheme=scheme, spec=spec)
        assert np.mean(predict(m, X) == y) == 1.0

    def test_regularization_shrinks_weights(self):
        X, y, scheme, spec = random_problem()
        big = train_logreg(X, y, lam=1.0, max_iter=200, scheme=scheme, spec=spec)
        tiny = train_logreg(X, y, lam=1e-6, max_iter=200, scheme=scheme, spec=spec)
        assert np.linalg.norm(big.weights) < np.linalg.norm(tiny.weights)

    def test_single_class_rejected(self):
        X = np.ones((5, 3))
        _, _, scheme, spec = random_problem(d=3)
        with pytest.raises(ValueError, match="single class"):
            train_logreg(X, [1, 1, 1, 1, 1], lam=0.1, scheme=scheme, spec=spec)

    @pytest.mark.parametrize("rows, labels, message", [
        (0, [], "features must be a non-empty 2-d array matching labels"),
        (3, [0, 1, 3], "label index out of range for the scheme"),
    ])
    def test_no_rows_or_label_outside_scheme_rejected(self, rows, labels, message):
        _, _, scheme, spec = random_problem(d=3)
        with pytest.raises(ValueError, match=message):
            train_logreg(np.ones((rows, 3)), labels, scheme=scheme, spec=spec)

    @pytest.mark.parametrize("labels, missing", [
        ([0, 1, 1, 0], "I-Date"),
        ([0, 2, 0, 2], "B-Date"),
        ([1, 2, 1, 2], "O"),
    ])
    def test_scheme_label_without_a_row_rejected_before_fitting(self, labels, missing,
                                                               monkeypatch):
        # the bias of a label with no row has no minimiser; a fit would push
        # it down until the gradient fell below tol
        import sememevec.tagger as tagger_module
        _, _, _, spec = random_problem(d=3)
        monkeypatch.setattr(tagger_module, "_blocked_loss_and_grads", None)
        with pytest.raises(ValueError, match=f"no training row holds scheme label.*{missing}"):
            train_logreg(np.ones((4, 3)), labels, scheme=LabelScheme(["Date"]), spec=spec)

    def test_width_other_than_spec_length_rejected(self):
        # a model fitted to these rows would save a file that load_tagger refuses
        X, y, scheme, _ = random_problem(d=4)
        spec = FeatureSpec(dim=2, window_radius=1)
        with pytest.raises(ValueError, match="feature width 4 != spec length 10"):
            train_logreg(X, y, lam=0.1, scheme=scheme, spec=spec)

    @pytest.mark.parametrize("bad", [{"lam": 0.0}, {"lam": float("nan")}, {"lam": float("inf")},
                                     {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")}])
    def test_lam_tol_out_of_range_rejected_before_fitting(self, bad, monkeypatch):
        # tol=inf returned the all-zero model as converged, tol=nan always
        # ran to max_iter, and lam=nan failed only once the fit was done
        import sememevec.tagger as tagger_module
        X, y, scheme, spec = random_problem()
        monkeypatch.setattr(tagger_module, "_blocked_loss_and_grads", None)
        with pytest.raises(ValueError, match="must be positive and finite"):
            train_logreg(X, y, **{"lam": 0.1, **bad}, scheme=scheme, spec=spec)

    def test_negative_max_iter_rejected(self):
        # it would return the all-zero model as though it had hit the cap
        X, y, scheme, spec = random_problem()
        with pytest.raises(ValueError, match="max_iter cannot be negative"):
            train_logreg(X, y, lam=0.1, max_iter=-3, scheme=scheme, spec=spec)

    def test_zero_iterations_uniform(self):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, max_iter=0, scheme=scheme, spec=spec)
        assert np.array_equal(predict(m, X), np.zeros(len(X)))
        assert np.allclose(X @ m.weights.T + m.bias, 0.0, atol=1e-12)

    def test_deterministic(self):
        X, y, scheme, spec = random_problem()
        a = train_logreg(X, y, lam=0.1, max_iter=50, scheme=scheme, spec=spec)
        b = train_logreg(X, y, lam=0.1, max_iter=50, scheme=scheme, spec=spec)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_before_fitting(self, bad):
        # a NaN row ran 61 evaluations and returned the all-zero model as
        # "no-descent", without an error
        X, y, scheme, spec = random_problem()
        X[12, 0] = X[7, 3] = bad
        with pytest.raises(ValueError, match="feature row 7 is not finite"):
            train_logreg(X, y, lam=0.1, scheme=scheme, spec=spec)


def count_evaluations(monkeypatch):
    """Count the loss-and-gradient evaluations train_logreg makes."""
    import sememevec.tagger as tagger_module
    calls = []

    def counted(*args):
        calls.append(1)
        return _blocked_loss_and_grads(*args)

    monkeypatch.setattr(tagger_module, "_blocked_loss_and_grads", counted)
    return calls


class TestStopReason:
    def test_tol(self):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, tol=1e-6, max_iter=500, scheme=scheme, spec=spec)
        assert m.stop_reason == "tol"
        assert m.final_gnorm <= 1e-6
        assert len(m.history) < 501

    def test_max_iter(self):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, tol=1e-6, max_iter=3, scheme=scheme, spec=spec)
        assert m.stop_reason == "max_iter"
        assert len(m.history) == 4
        assert m.final_gnorm > 1e-6

    def test_no_descent(self):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, tol=1e-300, max_iter=500, scheme=scheme, spec=spec)
        assert m.stop_reason == "no-descent"
        assert len(m.history) < 501

    def test_final_gnorm_is_that_of_the_returned_model(self):
        # bit for bit against the evaluation the fit makes, and within 1e-12
        # relative of the dense (n, F) products, which sum in another order
        X, y, scheme, spec = random_problem(seed=29, n=30, d=12, classes=4)
        m = train_logreg(X, y, lam=1e-3, tol=1e-6, max_iter=20, scheme=scheme, spec=spec)
        _, gw, gb = _blocked_loss_and_grads(m.weights, m.bias, _distinct_blocks(X, spec.dim),
                                            y, 1e-3)
        assert m.final_gnorm == max(np.abs(gw).max(), np.abs(gb).max())
        _, gw, gb = dense_softmax_loss_and_grads_oracle(m.weights, m.bias, X, y, 1e-3)
        assert m.final_gnorm == pytest.approx(max(np.abs(gw).max(), np.abs(gb).max()),
                                              rel=1e-12, abs=0.0)

    def test_not_serialized(self, tmp_path):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.2, scheme=scheme, spec=spec)
        p = tmp_path / "t.model"
        save_tagger(m, str(p))
        back = load_tagger(str(p))
        assert back.stop_reason is None and back.final_gnorm is None
        assert back.evaluations is None and back.history == []


def test_fit_reads_rows_in_either_memory_order():
    X, y, scheme, spec = random_problem()
    m = train_logreg(X, y, lam=0.1, max_iter=30, scheme=scheme, spec=spec)
    f = train_logreg(np.asfortranarray(X), y, lam=0.1, max_iter=30, scheme=scheme, spec=spec)
    assert f.weights.tobytes() == m.weights.tobytes()
    assert f.bias.tobytes() == m.bias.tobytes()


class TestConvergence:
    def test_lbfgs_reaches_gradient_descent_loss(self):
        # nearly separable: gradient descent with backtracking, step doubling
        # and the same max_iter stopped unconverged at this loss
        gradient_descent_loss = 0.05525622566844822
        X, y, scheme, spec = random_problem(seed=23, n=20, d=12)
        m = train_logreg(X, y, lam=1e-4, tol=1e-6, max_iter=300, scheme=scheme, spec=spec)
        assert m.stop_reason == "tol"
        assert m.history[-1] <= gradient_descent_loss

    def test_near_separable_stops_on_tol_within_100_iterations(self):
        # like the pipeline's context-only fit: lam=1e-4 leaves the problem
        # (40 rows, 39 parameters) nearly separable, and too few curvature
        # pairs slow it down: 10 pairs took 155 iterations, 30 take 64
        X, y, scheme, spec = random_problem(seed=31, n=40, d=12)
        m = train_logreg(X, y, lam=1e-4, tol=1e-6, max_iter=500, scheme=scheme, spec=spec)
        assert m.stop_reason == "tol"
        assert len(m.history) <= 101


class TestLogregDigest:
    """Pins the optimizer's output bit for bit.

    Both problems take at least one rejected line-search trial. A change
    that alters the optimizer's numerics on purpose must update these
    digests and say so.
    """

    @staticmethod
    def digest(model):
        h = hashlib.sha256()
        h.update(model.weights.tobytes())
        h.update(model.bias.tobytes())
        h.update(np.array(model.history).tobytes())
        return h.hexdigest()

    def test_stops_at_max_iter(self, monkeypatch):
        X, y, scheme, spec = random_problem(seed=29, n=30, d=12, classes=4)
        calls = count_evaluations(monkeypatch)
        # the first 20 steps accept every first trial; by step 40 the line
        # search has rejected one
        m = train_logreg(X, y, lam=1e-3, tol=1e-6, max_iter=40, scheme=scheme, spec=spec)
        assert m.stop_reason == "max_iter"
        assert len(m.history) == 41
        assert len(calls) > len(m.history)
        assert m.evaluations == len(calls)
        _, gw, gb = softmax_loss_and_grads(m.weights, m.bias, X, y, 1e-3)
        assert max(np.abs(gw).max(), np.abs(gb).max()) > 1e-6
        assert self.digest(m) == (
            "af7ee6ca06610295affe41cd3828c70d18de7ae983bd478a594dfe47bc47a665"
        )

    def test_stops_at_tol(self, monkeypatch):
        X, y, scheme, spec = random_problem(seed=23)
        calls = count_evaluations(monkeypatch)
        m = train_logreg(X, y, lam=1.0, tol=1e-6, max_iter=500, scheme=scheme, spec=spec)
        assert len(m.history) == 12
        assert len(calls) > len(m.history)
        assert m.evaluations == len(calls)
        _, gw, gb = softmax_loss_and_grads(m.weights, m.bias, X, y, 1.0)
        assert max(np.abs(gw).max(), np.abs(gb).max()) <= 1e-6
        assert self.digest(m) == (
            "18f115c4769134e6379663f64d88c080bb1adbc0d330a4af94f3700d89b95cf5"
        )


def block_rows(rng, kind, n, d):
    """n rows of width d: drawn from a pool of 1-3 random rows ("repeated"),
    all random ("distinct"), all +0.0 ("zero"), drawn from +0.0, -0.0, a
    row of both and one random row ("signed zero"), or cycling through 2-3
    rows that share their first two values and differ after them ("tied
    lead")."""
    if kind == "distinct":
        return rng.normal(0, 1, (n, d))
    if kind == "zero":
        return np.zeros((n, d))
    if kind == "tied lead":
        k = rng.integers(2, 4)
        lead = np.broadcast_to(rng.normal(0, 1, min(d, 2)), (k, min(d, 2)))
        pool = np.hstack([lead, rng.normal(0, 1, (k, d - min(d, 2)))])
        return pool[np.arange(n) % k]
    if kind == "repeated":
        pool = rng.normal(0, 1, (rng.integers(1, 4), d))
    else:
        pool = np.array([np.zeros(d), np.full(d, -0.0), np.resize([0.0, -0.0], d),
                         rng.normal(0, 1, d)])
    return pool[rng.integers(0, len(pool), n)]


def runs_of_equal_rows(rows):
    """How many runs of bitwise-equal consecutive rows the rows hold."""
    bits = rows.view(np.uint64)
    return 1 + int(np.any(bits[1:] != bits[:-1], axis=1).sum())


@settings(max_examples=200)
@given(data=st.data())
def test_blocked_evaluation_matches_dense_oracle(data):
    # 1-4 blocks of width 1-4, each of one kind of block_rows. Each block's
    # table must give its rows back bit for bit. A block of any kind but
    # "tied lead" must hold only its distinct rows, signed zeros included;
    # a "tied lead" block ties every row on the sort key, so its rows keep
    # row order and each run of equal rows is one entry, distinct rows
    # never merged. The sums run in another order than the dense
    # products, so each value agrees within 1e-12 of the summed magnitudes
    # of its terms, a residual counted as its bound 1
    n, d, n_blocks, classes = (data.draw(st.integers(lo, hi))
                               for lo, hi in ((1, 30), (1, 4), (1, 4), (2, 4)))
    kinds = [data.draw(st.sampled_from(["repeated", "distinct", "zero", "signed zero",
                                        "tied lead"]))
             for _ in range(n_blocks)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    X = np.hstack([block_rows(rng, kind, n, d) for kind in kinds])
    y = rng.integers(0, classes, n)
    W, b = rng.normal(0, 1, (classes, n_blocks * d)), rng.normal(0, 1, classes)
    lam = data.draw(st.sampled_from([1e-4, 0.1, 1.0]))

    blocks = _distinct_blocks(X, d)
    assert len(blocks) == n_blocks
    for kind, block in zip(kinds, blocks):
        rows = X[:, block.columns]
        assert np.array_equal(block.table[block.inverse].view(np.uint64),
                              rows.view(np.uint64))
        if kind == "tied lead":
            assert len(block.table) == runs_of_equal_rows(rows)
        else:
            distinct = np.unique(rows.view(np.uint64), axis=0)
            assert len(block.table) == len(distinct)

    loss, gw, gb = _blocked_loss_and_grads(W, b, blocks, y, lam)
    want_loss, want_w, want_b = dense_softmax_loss_and_grads_oracle(W, b, X, y, lam)
    logits = np.abs(X) @ np.abs(W).T + np.abs(b)
    mag_loss = float(np.mean(2 * logits.max(axis=1) + np.log(classes))) + 0.5 * lam * float(
        np.sum(W * W))
    for got, want, mag in ((gw, want_w, np.abs(X).mean(axis=0) + lam * np.abs(W)),
                           (gb, want_b, np.ones(classes)), (loss, want_loss, mag_loss)):
        assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * mag)


@pytest.mark.parametrize("X, entries", [
    # rows that differ only in the signs of two values at a time, signed
    # zeros among them
    (np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [1, 2], [-1, -2], [1, 2]]), 4),
    # rows tied on their first two values keep row order, so the distinct
    # rows between two equal ones split them into two entries
    (np.array([[0.0, 0, 1], [0, 0, 2], [0, 0, 1], [1, 2, 3]]), 4),
], ids=["sign-flipped", "tied-lead"])
def test_rows_tabulate_exactly(X, entries):
    (block,) = _distinct_blocks(X, X.shape[1])
    assert np.array_equal(block.table[block.inverse].view(np.uint64), X.view(np.uint64))
    assert len(block.table) == entries
    ends = np.append(block.starts[1:], len(X))
    for j, (a, b) in enumerate(zip(block.starts, ends)):
        assert block.order[a:b].tolist() == np.flatnonzero(block.inverse == j).tolist()


def test_six_decimal_rows_tabulate_to_their_distinct_rows():
    # a space written with 6 decimals, as word2vec's text output is, ties
    # rows on their first value but not on their first two; an order on the
    # first value alone would split these rows' entries
    rng = np.random.default_rng(37)
    space = np.round(rng.normal(0, 0.3, (20000, 25)), 6)
    X = space[rng.integers(0, len(space), 50000)]
    distinct = np.unique(X.view(np.uint64), axis=0)
    _, counts = np.unique(distinct[:, 0], return_counts=True)
    assert counts[counts > 1].sum() >= 100
    (block,) = _distinct_blocks(X, X.shape[1])
    assert np.array_equal(block.table[block.inverse].view(np.uint64), X.view(np.uint64))
    assert len(block.table) == len(distinct)


def test_fit_on_c11_shaped_rows_allocates_less_than_the_rows():
    # the pipeline's final ablation: 2920 rows, five context blocks over a
    # vocabulary of 53 words and a zero row, a HowNet block over 8 rows and
    # a character block over 20. Tabulating all blocks at once, as a
    # deduplication of whole rows does, allocates about twice the rows
    rng = np.random.default_rng(5)
    dim, n = 25, 2920
    words, hownet, chars = (rng.normal(0, 0.3, (k, dim)) for k in (54, 8, 20))
    words[0] = 0.0
    ids = rng.integers(1, 54, n)
    # 20-token sentences; a window slot outside its sentence is the zero row
    pos = np.arange(n)
    context = []
    for off in range(-2, 3):
        inside = (pos + off) // 20 == pos // 20
        context.append(words[np.where(inside, ids[(pos + off) % n], 0)])
    X = np.hstack(context + [hownet[ids % 8], chars[ids % 20]])
    y = (ids < 6).astype(int)
    scheme = LabelScheme.from_labels([["O", "B-Date"]])
    spec = FeatureSpec(dim=dim)
    assert X.shape == (n, spec.feature_length)

    def fit():
        m = train_logreg(X, y, lam=1e-4, tol=1e-6, max_iter=1200, scheme=scheme, spec=spec)
        assert m.stop_reason == "tol"

    assert traced_peak(fit) < X.nbytes


class TestPredict:
    def test_scaling_keeps_argmax(self):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, max_iter=30, scheme=scheme, spec=spec)
        import copy
        m2 = copy.deepcopy(m)
        m2.weights = m.weights * 7.0
        m2.bias = m.bias * 7.0
        x = np.random.default_rng(41).normal(0, 1, (100, 6))
        assert np.array_equal(predict(m, x), predict(m2, x))

    # rows one value too wide, and a single vector
    @pytest.mark.parametrize("x", [np.zeros((1, 7)), np.zeros(6)])
    def test_rows_of_another_shape_rejected(self, x):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.1, max_iter=5, scheme=scheme, spec=spec)
        # predict's own message: numpy's matmul and axis errors are ValueErrors too
        with pytest.raises(ValueError, match="do not match model"):
            predict(m, x)


class TestRepair:
    # a bare I-, an I- of another type and an I- after O become B-; valid
    # sequences stay
    @pytest.mark.parametrize("labels, repaired", [
        (["I-Date", "I-Date"], ["B-Date", "I-Date"]),
        (["B-Date", "I-Time"], ["B-Date", "B-Time"]),
        (["O", "I-Date", "O"], ["O", "B-Date", "O"]),
        (["O", "O"], ["O", "O"]),
        (["B-Date", "I-Date", "I-Date"], ["B-Date", "I-Date", "I-Date"]),
        (["B-Date", "B-Date"], ["B-Date", "B-Date"]),
    ])
    def test_hand_cases(self, labels, repaired):
        assert repair_bi(labels) == repaired

    def test_no_orphan_i_property(self):
        rng = np.random.default_rng(43)
        labels = ["O", "B-Date", "I-Date", "B-Time", "I-Time"]
        for _ in range(300):
            seq = [labels[rng.integers(len(labels))] for _ in range(rng.integers(1, 12))]
            rep = repair_bi(seq)
            for i, lab in enumerate(rep):
                if lab.startswith("I-"):
                    assert i > 0 and rep[i - 1] in (f"B-{lab[2:]}", f"I-{lab[2:]}")


class TestTagSentence:
    def trained(self):
        words, chars, hownet_fn = toy_spaces()
        spec = FeatureSpec(dim=4, window_radius=1, use_hownet=False, use_char=True)
        sents = [(["甲日", "乙山"], ["B-Date", "O"]), (["丙日", "乙山"], ["B-Date", "O"]),
                 (["乙山", "甲日"], ["O", "B-Date"])]
        scheme = LabelScheme.from_labels(labs for _, labs in sents)
        X = np.concatenate([sentence_features(toks, words, hownet_fn, chars, spec)
                            for toks, _ in sents])
        y = [scheme.index(lab) for _, labs in sents for lab in labs]
        model = train_logreg(X, y, lam=1e-3, max_iter=200, scheme=scheme, spec=spec)
        return model, words, chars, hownet_fn

    def test_tags_training_sentences(self):
        model, words, chars, hownet_fn = self.trained()
        got = tag_sentence(model, ["甲日", "乙山"], words, hownet_fn, chars)
        assert got == ["B-Date", "O"]

    def test_output_always_repaired(self):
        model, words, chars, hownet_fn = self.trained()
        got = tag_sentence(model, ["乙山", "甲日", "丙日"], words, hownet_fn, chars)
        for i, lab in enumerate(got):
            if lab.startswith("I-"):
                assert got[i - 1].endswith(lab[2:])

    def test_equals_stacked_rows_oracle(self):
        words, chars, hownet_fn = toy_spaces()
        # "不在" and "外" have no vector in any source
        vocab = ["甲日", "乙山", "丙日", "不在", "外"]
        rng = np.random.default_rng(47)
        for _ in range(200):
            spec = FeatureSpec(dim=4, window_radius=int(rng.integers(0, 3)),
                               use_context=bool(rng.integers(2)),
                               use_hownet=bool(rng.integers(2)),
                               use_char=bool(rng.integers(2)))
            scheme = LabelScheme(["Date", "Time"][:rng.integers(0, 3)])
            model = TaggerModel(rng.normal(0, 1, (len(scheme), spec.feature_length)),
                                rng.normal(0, 1, len(scheme)), 1.0,
                                spec=spec, scheme=scheme)
            sent = [vocab[k] for k in rng.integers(0, len(vocab), rng.integers(1, 7))]
            X = np.array([assemble_features(sent, i, words, hownet_fn, chars, spec)
                          for i in range(len(sent))])
            want = [scheme.labels[k] for k in np.argmax(X @ model.weights.T + model.bias,
                                                       axis=1)]
            assert tag_sentence(model, sent, words, hownet_fn, chars) == repair_bi(want)

    def test_empty_sentence(self):
        model, words, chars, hownet_fn = self.trained()
        assert tag_sentence(model, [], words, hownet_fn, chars) == []

    def test_one_feature_row_per_position_one_prediction(self, monkeypatch):
        # the benchmark's tracing times these two calls under these names
        import sememevec.tagger as tagger_module
        model, words, chars, hownet_fn = self.trained()
        calls = {"assemble_features": 0, "predict": 0}

        def counted(name):
            fn = getattr(tagger_module, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in calls:
            monkeypatch.setattr(tagger_module, name, counted(name))
        tag_sentence(model, ["乙山", "甲日", "丙日"], words, hownet_fn, chars)
        assert calls == {"assemble_features": 3, "predict": 1}


# in the word space: the first four; in the lexicon: every other one; last
# characters with a row: 日 and 山; the last two are in no source
LOGIT_VOCAB = ["甲日", "乙山", "丙日", "丁水", "戊山", "不在", "外"]


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), radius=st.integers(0, 2),
       blocks=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       n_types=st.integers(1, 3),
       sentence=st.lists(st.sampled_from(LOGIT_VOCAB), min_size=1, max_size=6))
def test_feature_row_logits_match_the_per_type_reference(seed, dim, radius, blocks, n_types,
                                                         sentence):
    # N(0, 1) values are not dyadic, so two summation orders can round apart
    rng = np.random.default_rng(seed)
    words, chars = EmbeddingSpace(dim), EmbeddingSpace(dim)
    words.add_rows(LOGIT_VOCAB[:4], rng.standard_normal((4, dim)))
    chars.add_rows(["日", "山"], rng.standard_normal((2, dim)))
    hownet_fn = dict(zip(LOGIT_VOCAB[:5:2], rng.standard_normal((3, dim)))).get
    spec = FeatureSpec(dim, radius, *blocks)
    scheme = LabelScheme(["Date", "Time", "Place"][:n_types])
    W = rng.standard_normal((len(scheme), spec.feature_length))
    b = rng.standard_normal(len(scheme))
    x = sentence_features(sentence, words, hownet_fn, chars, spec)
    i, j = sorted(rng.choice(len(scheme), 2, replace=False))
    for case in ("drawn", "near tie", "exact tie"):
        if case != "drawn":
            # rows i and j above every other logit: apart by 1e-9 of an N(0, 1)
            # row, which float32 would round away, or zero rows and an exact tie
            W[j] = W[i] + 1e-9 * rng.standard_normal(spec.feature_length)
            if case == "exact tie":
                W[[i, j]] = 0.0
            b[[i, j]] = 2 * np.abs(x @ W.T).max() + np.abs(b).max() + 1.0
        model = TaggerModel(W, b, 1.0, spec=spec, scheme=scheme)
        want = per_type_logits_oracle(sentence, words, hownet_fn, chars, model)
        # the standard bound on a dot product's rounding, over F products and the bias
        bound = (spec.feature_length + 1) * 2.0 ** -53 * (np.abs(x) @ np.abs(W).T + np.abs(b))
        assert np.all(np.abs(x @ W.T + b - want) <= bound)
        top2 = np.sort(want, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 2 * bound.max(axis=1)
        assert np.array_equal(predict(model, x)[clear], want.argmax(axis=1)[clear])
    # predict's documented rule: a tie goes to the smallest index
    assert predict(model, x).tolist() == [i] * len(sentence)

class TestSerialization:
    def test_round_trip(self, tmp_path):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.2, max_iter=40, scheme=scheme, spec=spec)
        p = tmp_path / "t.model"
        save_tagger(m, str(p))
        back = load_tagger(str(p))
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.bias, m.bias)
        assert back.lam == m.lam
        assert back.scheme == m.scheme
        assert back.spec == m.spec

    def test_v1_file_rejected_with_a_call_to_retrain(self, tmp_path):
        p = tmp_path / "t.model"
        save_tagger(fixed_model(["Date"], FeatureSpec(dim=2, window_radius=1)), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[:2] = ["tagger-model v1", "entity-types Date"]
        lines.insert(8, "classes 3")
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1: a tagger-model v1 file, .*"
                                             "retrain it with train-tagger"):
            load_tagger(str(p))

    def test_unspecced_model_rejected(self):
        with pytest.raises(TypeError):
            TaggerModel(np.zeros((3, 6)), np.zeros(3), 0.1)

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "t.model"
        p.write_text("nonsense\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_tagger(str(p))

    def test_truncated_file(self, tmp_path):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.2, max_iter=5, scheme=scheme, spec=spec)
        p = tmp_path / "t.model"
        save_tagger(m, str(p))
        text = p.read_text(encoding="utf-8").splitlines()[:8]
        p.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_tagger(str(p))

    def test_cut_after_lambda_names_missing_line(self, tmp_path):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.2, max_iter=5, scheme=scheme, spec=spec)
        p = tmp_path / "t.model"
        save_tagger(m, str(p))
        lines = p.read_text(encoding="utf-8").splitlines()[:8]
        assert lines[-1].startswith("lambda ")
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="unexpected end of file, expected 'features'"):
            load_tagger(str(p))

    @pytest.mark.parametrize("line, text, message", [
        (2, "labels O B-Date B-Date", "line 2: a label repeats"),
        (2, "labels O B-A/B I-A/B", "line 2: invalid entity type 'A/B'"),
        (2, "labels B-Date O I-Date", "line 2: the first label is 'B-Date', not 'O'"),
        (2, "labels O I-Date B-Date", "line 2: labels out of scheme order"),
        (2, "labels O B-Date X-Date", "line 2: unrecognised label 'X-Date'"),
        (2, "labels O B-Date I-Date O", "line 2: a label repeats"),
        (3, "window-radius -1", "window_radius cannot be negative"),
        (7, "dim 0", "dim must be positive"),
        *((8, f"lambda {bad}", "line 8: non-finite value") for bad in ("nan", "inf", "-inf")),
        (10, "weight", "line 10: expected 'weights', got 'weight'"),
        (11, "1 2 3", "line 11: expected 6 fields, got 3"),
    ])
    def test_header_no_writer_produces_rejected(self, tmp_path, line, text, message):
        X, y, scheme, spec = random_problem()
        m = train_logreg(X, y, lam=0.2, max_iter=5, scheme=scheme, spec=spec)
        p = tmp_path / "t.model"
        save_tagger(m, str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = text
        if text.startswith("dim"):
            # weight rows consistent with the declared spec length of 0
            lines[10:13] = ["", "", ""]
            lines[8] = "features 0"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_tagger(str(p))

    # the labels line fixes the count of weight rows and biases, and the
    # features count, which fits the rows, must fit the spec
    @pytest.mark.parametrize("types, line, text, message", [
        (["Date", "Time"], 2, "labels O B-Date I-Date", "line 14: expected 'bias', got '"),
        (["Date"], 2, "labels O B-Date I-Date B-Time", "line 14: expected 6 fields, got 1"),
        (["Date"], 3, "window-radius 0", "t.model: weights .* do not match"),
    ])
    def test_counts_other_than_rows_and_spec_rejected(self, tmp_path, types, line, text,
                                                      message):
        p = tmp_path / "t.model"
        spec = FeatureSpec(dim=2, window_radius=1, use_hownet=False, use_char=False)
        save_tagger(fixed_model(types, spec), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = text
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_tagger(str(p))

    def test_trailing_line_rejected(self, tmp_path):
        p = tmp_path / "t.model"
        save_tagger(fixed_model(["Date"], FeatureSpec(dim=2, window_radius=1)), str(p))
        n_lines = len(p.read_text(encoding="utf-8").splitlines())
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("0.5 0.5 0.5\n")
        with pytest.raises(ParseError, match=f"line {n_lines + 1}: unexpected line"):
            load_tagger(str(p))

    @pytest.mark.parametrize("line, text", [
        (4, "use-context 2"),
        (5, "use-hownet -1"),
        (6, "use-char true"),
    ])
    def test_flag_other_than_0_or_1_rejected(self, tmp_path, line, text):
        p = tmp_path / "t.model"
        save_tagger(fixed_model(["Date"], FeatureSpec(dim=2, window_radius=1)), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = text
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}: expected 0 or 1"):
            load_tagger(str(p))

    # int() would read each of these as the value the writer put there
    @pytest.mark.parametrize("line, text", [
        (3, "window-radius +1"),
        (3, "window-radius  1"),
        (7, "dim \u0662"),
        (9, "features +10"),
        (9, "features 1_0"),
    ])
    def test_integer_other_than_ascii_digits_rejected(self, tmp_path, line, text):
        p = tmp_path / "t.model"
        save_tagger(fixed_model(["Date"], FeatureSpec(dim=2, window_radius=1)), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[line - 1].split() == [text.split()[0], str(int(text.split()[1]))]
        lines[line - 1] = text
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}: malformed integer"):
            load_tagger(str(p))

    # save_tagger joins every field with one space; split() read all of these
    @pytest.mark.parametrize("line", [2, 11, 17])
    @pytest.mark.parametrize("respace", [
        lambda s: "\t".join(s.rsplit(" ", 1)),
        lambda s: "  ".join(s.rsplit(" ", 1)),
        lambda s: "\u3000".join(s.rsplit(" ", 1)),
        lambda s: " " + s,
        lambda s: s + " ",
    ], ids=["tab", "two spaces", "U+3000", "leading space", "trailing space"])
    def test_field_separator_other_than_one_space_rejected(self, tmp_path, line, respace):
        p = tmp_path / "t.model"
        spec = FeatureSpec(dim=2, window_radius=1, use_hownet=False, use_char=False)
        save_tagger(fixed_model(["Date", "Time"], spec), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "labels O B-Date I-Date B-Time I-Time" and lines[15] == "bias"
        lines[line - 1] = respace(lines[line - 1])
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}: "):
            load_tagger(str(p))

    @pytest.mark.parametrize("text", ["labels O ", "labels ", "labels"])
    def test_labels_line_without_o_or_with_trailing_space_rejected(self, tmp_path, text):
        p = tmp_path / "t.model"
        save_tagger(fixed_model([], FeatureSpec(dim=2, window_radius=1)), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "labels O"
        lines[1] = text
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: "):
            load_tagger(str(p))

    # float() reads each of these
    @pytest.mark.parametrize("where", ["lambda", "weight", "bias"])
    @pytest.mark.parametrize("bad", ["1_0", "+1", "\u0661", ".5", "1."])
    def test_number_save_tagger_cannot_write_rejected(self, tmp_path, where, bad):
        p = tmp_path / "t.model"
        save_tagger(fixed_model(["Date"], FeatureSpec(dim=2, window_radius=1)), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        at = {"lambda": 7, "weight": 12, "bias": len(lines) - 1}[where]
        fields = lines[at].split(" ")
        fields[-1] = bad
        lines[at] = " ".join(fields)
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"line {at + 1}: malformed number '{re.escape(bad)}'"
        with pytest.raises(ParseError, match=message):
            load_tagger(str(p))

    # each message as the loader gave it when it parsed a row a value at a time
    @pytest.mark.parametrize("where, line", [("weight", 13), ("bias", 15)])
    @pytest.mark.parametrize("bad, message", [
        *((bad, f"malformed number {bad!r}") for bad in "1e5 +1 .5 1. 1_0 ١".split()),
        *((bad, f"could not convert string to float: {bad!r}")
          for bad in "1..2 - 1e+ --1 1-2 1.2.3 1e-5e-5 1e-5.3".split()),
        *((bad, "non-finite value") for bad in ("1e+999", "nan", "inf", "-inf")),
    ])
    def test_row_value_refused_with_its_line_and_message(self, tmp_path, where, line, bad,
                                                         message):
        p = tmp_path / "t.model"
        save_tagger(fixed_model(["Date"], FeatureSpec(dim=2, window_radius=1)), str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        # line 13 is the last of three weight rows, line 15 the bias row
        assert (lines[9], lines[13], len(lines)) == ("weights", "bias", 15)
        fields = lines[line - 1].split(" ")
        fields[1] = bad
        lines[line - 1] = " ".join(fields)
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_tagger(str(p))
        assert str(exc.value) == f"{p}: line {line}: {message}"


class TestTaggerFileDigest:
    """Pins the bytes save_tagger writes for fixed models.

    The first four digests were recorded for tagger-model v2. Those files,
    given back v1's magic line, entity-types line and classes line, hash to
    the digests recorded for v1, so the format change left every other byte
    as it was. The fifth model, without I-Date, has no v1 file. A change to
    the file format must update them and say so.
    """

    @pytest.mark.parametrize("types, observed, spec, expected", [
        ([], None, FeatureSpec(dim=2, window_radius=1),
         "1ff6b96744f0d4ba2d6fb61b4924ae35fa2efdf1b49472d9fcc821e0371bfa04"),
        (["Date"], None, FeatureSpec(dim=2, window_radius=0, use_hownet=False),
         "2a6ab8889622959e6387ba806beb2b02fad6d6aa41ad51b7a3243da059f11b63"),
        (["Date", "Time"], None, FeatureSpec(dim=3, window_radius=2),
         "f685d2821514f18adf5cd36676b06e9a9b09facf3d4e82ad24ebec3ed4ae21dd"),
        (["Time"], None, FeatureSpec(dim=2, use_context=False, use_char=False),
         "7b5d4dbb096bdb98ff2eda47964c026ed26f9fda768c0143cfcde6100ffda48c"),
        (["Date", "Time"], {"B-Date", "B-Time", "I-Time"}, FeatureSpec(dim=2, window_radius=1),
         "9c9263b109f3c7a71d9b75a0ebf13aea0cc3bbf06d3b8dc1d5f2d98589356862"),
    ])
    def test_digest(self, tmp_path, types, observed, spec, expected):
        model = fixed_model(types, spec, observed=observed)
        p = tmp_path / "t.model"
        save_tagger(model, str(p))
        assert hashlib.sha256(p.read_bytes()).hexdigest() == expected
        back = load_tagger(str(p))
        assert back.weights.tobytes() == model.weights.tobytes()
        assert back.bias.tobytes() == model.bias.tobytes()


def drawn_tagger_model(data, max_types=3, max_dim=3, max_radius=2):
    """A TaggerModel of drawn labels, spec and finite values."""
    types = data.draw(st.lists(entity_types, unique=True, max_size=max_types))
    scheme = LabelScheme(types, data.draw(st.sets(st.sampled_from(LabelScheme(types).labels))))
    spec = FeatureSpec(
        dim=data.draw(st.integers(1, max_dim)), window_radius=data.draw(st.integers(0, max_radius)),
        use_context=data.draw(st.booleans()), use_hownet=data.draw(st.booleans()),
        use_char=data.draw(st.booleans()),
    )
    shape = (len(scheme), spec.feature_length)
    values = data.draw(st.lists(finite_values, min_size=shape[0] * (shape[1] + 1),
                                max_size=shape[0] * (shape[1] + 1)))
    weights = np.array(values[:shape[0] * shape[1]], dtype=np.float64).reshape(shape)
    bias = np.array(values[shape[0] * shape[1]:], dtype=np.float64)
    return TaggerModel(weights, bias, data.draw(finite_values), spec=spec, scheme=scheme)


@settings(max_examples=100)
@given(data=st.data())
def test_tagger_file_round_trips_exactly(data):
    model = drawn_tagger_model(data)
    back = round_trip(save_tagger, load_tagger, model)
    assert back.weights.shape == model.weights.shape
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.bias.tobytes() == model.bias.tobytes()
    assert np.float64(back.lam).tobytes() == np.float64(model.lam).tobytes()
    assert back.spec == model.spec and back.scheme == model.scheme


@settings(max_examples=25)
@given(data=st.data())
def test_cut_short_tagger_file_is_refused(data):
    # a cut inside the last bias value loaded a different model before
    model = drawn_tagger_model(data, max_types=2, max_dim=2, max_radius=1)
    assert_prefixes_refused_or_whole(save_tagger, load_tagger, model)
