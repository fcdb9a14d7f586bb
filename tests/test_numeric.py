import numpy as np
import pytest

from hdus.errors import (DimensionError, DivergenceError, DomainError,
                         ValidationError)
from hdus.numeric import (Gradients, MlpModel, MlpSpec, _backprop,
                          _forward_cached, _stack_models, _unstack_models,
                          accuracy, cross_entropy, init_mlp, kl_divergence,
                          mlp_backward, mlp_forward, onehot_labels, sgd_step,
                          softmax_temp, training_step_count)


def finite_diff_grad(model, loss_fn, step=1e-5):
    """Central finite differences over the flattened parameter vector."""
    flat = model.flatten()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1, -1):
            bumped = flat.copy()
            bumped[i] += sign * step
            model.load_flat(bumped)
            if sign > 0:
                plus = loss_fn(model)
            else:
                minus = loss_fn(model)
        grad[i] = (plus - minus) / (2 * step)
    model.load_flat(flat)
    return grad


def zero_model(dims):
    spec = MlpSpec(dims)
    d = spec.layer_dims
    return MlpModel(spec,
                    [np.zeros((d[i], d[i + 1])) for i in range(len(d) - 1)],
                    [np.zeros(d[i + 1]) for i in range(len(d) - 1)])


class TestForward:
    def test_zero_model_gives_zero_logits(self):
        m = zero_model((3, 4, 2))
        out = mlp_forward(m, np.ones((5, 3)))
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        m = zero_model((3, 3))
        m.weights[0][...] = np.eye(3)
        out = mlp_forward(m, np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(out, [[1.0, 2.0, 3.0]])

    def test_two_layer_hand_computed(self):
        # input (1, 2); hidden pre-act = (1*1+2*2+0.5, 1*(-1)+2*0.5-3) = (5.5, -3)
        # relu -> (5.5, 0); output = 5.5*1 + 0*(-2) + 0.25 = 5.75
        m = zero_model((2, 2, 1))
        m.weights[0][...] = [[1.0, -1.0], [2.0, 0.5]]
        m.biases[0][...] = [0.5, -3.0]
        m.weights[1][...] = [[1.0], [-2.0]]
        m.biases[1][...] = [0.25]
        out = mlp_forward(m, np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[5.75]])

    def test_dimension_error_names_layer(self):
        m = zero_model((3, 2))
        with pytest.raises(DimensionError, match="features"):
            mlp_forward(m, np.ones((4, 5)))


class TestSoftmaxTemp:
    def test_symmetry(self):
        for t in (0.5, 1.0, 7.0):
            assert np.allclose(softmax_temp(np.zeros(3), t), np.full(3, 1 / 3))

    def test_two_logit_values(self):
        # s(d, 1) on (1, 2): 1/(1+e), e/(1+e)
        p = softmax_temp(np.array([1.0, 2.0]), 1.0)
        assert np.allclose(p, [0.2689414213699951, 0.7310585786300049], atol=1e-15)

    def test_scale_cancellation(self):
        assert np.allclose(softmax_temp(np.array([2.0, 4.0]), 2.0),
                           softmax_temp(np.array([1.0, 2.0]), 1.0), atol=1e-12)

    def test_temperature_must_be_positive(self):
        with pytest.raises(DomainError):
            softmax_temp(np.zeros(3), 0.0)
        with pytest.raises(DomainError):
            softmax_temp(np.zeros(3), -1.0)

    def test_normalization_and_argmax_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = rng.normal(scale=10, size=6)
            for t in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
                p = softmax_temp(d, t)
                assert abs(p.sum() - 1.0) <= 1e-12
                assert np.all(p >= 0) and np.all(p <= 1)
                assert p.argmax() == d.argmax()

    def test_t1_equals_plain_softmax(self):
        rng = np.random.default_rng(8)
        d = rng.normal(size=9)
        e = np.exp(d - d.max())
        assert np.allclose(softmax_temp(d, 1.0), e / e.sum(), atol=1e-15)

    def test_overflow_safety(self):
        p = softmax_temp(np.array([1000.0, 0.0]), 1.0)
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) <= 1e-12


class TestKl:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert abs(kl_divergence(p, p)) <= 1e-12

    def test_hand_value(self):
        # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.5 ln(4/3)
        got = kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert abs(got - 0.14384103622589045) < 1e-14

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl_divergence(p, q) >= -1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_zero_entries_in_q_are_clamped(self):
        assert np.isfinite(kl_divergence([0.5, 0.5], [1.0, 0.0]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        onehot = onehot_labels(np.array([0, 3, 5, 9]), 10)
        assert abs(cross_entropy(logits, onehot) - np.log(10)) < 1e-12

    def test_saturated_logits(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        onehot = onehot_labels(np.array([1, 2]), 4)
        assert cross_entropy(logits, onehot) < 1e-9

    def test_two_class_hand_batch(self):
        # independent scalar oracle for each row
        logits = np.array([[1.0, 0.0], [0.0, 2.0]])
        onehot = onehot_labels(np.array([0, 1]), 2)
        row0 = -np.log(np.exp(1.0) / (np.exp(1.0) + 1.0))
        row1 = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        assert abs(cross_entropy(logits, onehot) - (row0 + row1) / 2) < 1e-14

    def test_malformed_onehot(self):
        logits = np.zeros((1, 3))
        with pytest.raises(ValidationError):
            cross_entropy(logits, np.array([[0.5, 0.5, 0.0]]))


class TestBackward:
    def test_ce_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        m = init_mlp(MlpSpec((4, 8, 3)), rng)
        x = rng.normal(size=(6, 4))
        onehot = onehot_labels(rng.integers(0, 3, size=6), 3)
        loss, grads = mlp_backward(m, x, onehot=onehot)
        fd = finite_diff_grad(m, lambda mm: mlp_backward(mm, x, onehot=onehot)[0])
        g = grads.flatten()
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert rel.max() <= 1e-4
        assert abs(loss - cross_entropy(mlp_forward(m, x), onehot)) < 1e-12

    def test_distill_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        m = init_mlp(MlpSpec((4, 8, 3)), rng)
        x = rng.normal(size=(5, 4))
        teacher = softmax_temp(rng.normal(size=(5, 3)), 2.5)
        _, grads = mlp_backward(m, x, teacher_soft=teacher, temperature=2.5)
        fd = finite_diff_grad(
            m, lambda mm: mlp_backward(mm, x, teacher_soft=teacher,
                                       temperature=2.5)[0])
        g = grads.flatten()
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert rel.max() <= 1e-4

    def test_distill_zero_gradient_at_perfect_fit(self):
        rng = np.random.default_rng(13)
        m = init_mlp(MlpSpec((3, 5, 4)), rng)
        x = rng.normal(size=(7, 3))
        teacher = softmax_temp(mlp_forward(m, x), 3.0)
        loss, grads = mlp_backward(m, x, teacher_soft=teacher, temperature=3.0)
        assert abs(loss) <= 1e-10
        assert np.abs(grads.flatten()).max() <= 1e-10

    def test_ce_gradient_closed_form_on_identity_net(self):
        # single linear layer, 1 sample: dW = x^T (softmax(logits) - onehot)
        m = zero_model((3, 3))
        m.weights[0][...] = np.eye(3)
        x = np.array([[0.5, -1.0, 2.0]])
        onehot = onehot_labels(np.array([2]), 3)
        _, grads = mlp_backward(m, x, onehot=onehot)
        expected = x.T @ (softmax_temp(mlp_forward(m, x), 1.0) - onehot)
        assert np.allclose(grads.weights[0], expected, atol=1e-14)

    def test_requires_exactly_one_branch(self):
        m = zero_model((2, 2))
        with pytest.raises(ValidationError):
            mlp_backward(m, np.ones((1, 2)))


class TestSgdStep:
    def test_lr_zero_leaves_model_unchanged(self):
        rng = np.random.default_rng(3)
        m = init_mlp(MlpSpec((3, 4, 2)), rng)
        before = m.flatten()
        g = Gradients([np.ones_like(w) for w in m.weights],
                      [np.ones_like(b) for b in m.biases])
        sgd_step(m, g, 0.0)
        assert np.array_equal(m.flatten(), before)

    def test_scalar_arithmetic(self):
        m = zero_model((1, 1))
        m.weights[0][...] = [[1.0]]
        g = Gradients([np.array([[2.0]])], [np.array([0.0])])
        sgd_step(m, g, 0.1)
        assert np.allclose(m.weights[0], [[0.8]])

    def test_two_steps_equal_summed_deltas(self):
        rng = np.random.default_rng(4)
        m1 = init_mlp(MlpSpec((3, 2)), rng)
        m2 = m1.copy()
        g1 = Gradients([rng.normal(size=w.shape) for w in m1.weights],
                       [rng.normal(size=b.shape) for b in m1.biases])
        g2 = Gradients([rng.normal(size=w.shape) for w in m1.weights],
                       [rng.normal(size=b.shape) for b in m1.biases])
        sgd_step(m1, g1, 0.3)
        sgd_step(m1, g2, 0.3)
        gsum = Gradients([a + b for a, b in zip(g1.weights, g2.weights)],
                         [a + b for a, b in zip(g1.biases, g2.biases)])
        sgd_step(m2, gsum, 0.3)
        assert np.allclose(m1.flatten(), m2.flatten(), atol=1e-15)

    def test_non_finite_gradient_rejected(self):
        m = zero_model((2, 2))
        g = Gradients([np.full((2, 2), np.nan)], [np.zeros(2)])
        with pytest.raises(DivergenceError):
            sgd_step(m, g, 0.1)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        spec = MlpSpec((5, 7, 3))
        a = init_mlp(spec, np.random.default_rng(42))
        b = init_mlp(spec, np.random.default_rng(42))
        assert np.array_equal(a.flatten(), b.flatten())

    def test_different_seeds_differ(self):
        spec = MlpSpec((5, 7, 3))
        a = init_mlp(spec, np.random.default_rng(1))
        b = init_mlp(spec, np.random.default_rng(2))
        assert not np.array_equal(a.flatten(), b.flatten())

    def test_he_uniform_bounds_and_zero_biases(self):
        spec = MlpSpec((9, 4, 6, 2))
        m = init_mlp(spec, np.random.default_rng(0))
        for w, fan_in in zip(m.weights, spec.layer_dims[:-1]):
            bound = np.sqrt(6.0 / fan_in)
            assert np.abs(w).max() <= bound
        for b in m.biases:
            assert np.all(b == 0.0)


class TestAccuracy:
    def test_aligned_is_one(self):
        labels = np.array([0, 1, 2])
        assert accuracy(onehot_labels(labels, 3), labels) == 1.0

    def test_anti_aligned_is_zero(self):
        logits = onehot_labels(np.array([1, 2, 0]), 3)
        assert accuracy(logits, np.array([0, 1, 2])) == 0.0

    def test_mixed_four_rows(self):
        logits = onehot_labels(np.array([0, 1, 1, 0]), 2)
        assert accuracy(logits, np.array([0, 1, 0, 1])) == 0.5

    def test_tie_goes_to_lowest_index(self):
        logits = np.zeros((1, 4))
        assert accuracy(logits, np.array([0])) == 1.0
        assert accuracy(logits, np.array([3])) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_spec_validation():
    with pytest.raises(ValidationError):
        MlpSpec((5,))
    with pytest.raises(ValidationError):
        MlpSpec((5, 0, 2))
    with pytest.raises(ValidationError):
        MlpSpec((5, 3), activation="tanh")
    assert MlpSpec((784, 16, 10)).param_count() == 784 * 16 + 16 + 16 * 10 + 10


class TestStack:
    def test_stacked_pass_equals_each_model_alone(self):
        """Forward, backprop and SGD step on a stack of three models treat
        each slice bit for bit as the 2-D functions treat that model, and the
        step counts three training steps."""
        rng = np.random.default_rng(7)
        models = [init_mlp(MlpSpec((4, 6, 5, 3)), rng) for _ in range(3)]
        batch = rng.normal(size=(3, 9, 4))
        dlogits = rng.normal(size=(3, 9, 3))
        stack = _stack_models(models)
        inputs = _forward_cached(stack, batch)
        grads = _backprop(stack, inputs, dlogits)
        before = training_step_count()
        sgd_step(stack, grads, 0.1)
        assert training_step_count() - before == 3
        for k, model in enumerate(models):
            alone = _forward_cached(model, batch[k])
            assert all(np.array_equal(s[k], a) for s, a in zip(inputs, alone))
            g = _backprop(model, alone, dlogits[k])
            assert all(np.array_equal(s[k], a) for s, a in
                       zip(grads.weights + grads.biases, g.weights + g.biases))
            sgd_step(model, g, 0.1)
        assert [m.flatten().tobytes() for m in _unstack_models(stack)] == \
            [m.flatten().tobytes() for m in models]

    def test_stack_needs_a_stacked_batch(self):
        a = init_mlp(MlpSpec((4, 6, 3)), np.random.default_rng(1))
        with pytest.raises(DimensionError, match="3-D"):
            _forward_cached(_stack_models([a, a]), np.zeros((5, 4)))
        with pytest.raises(DimensionError, match="2-D"):
            mlp_forward(a, np.zeros((2, 5, 4)))
