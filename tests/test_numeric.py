import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdus.errors import (DimensionError, DivergenceError, DomainError,
                         ValidationError)
from hdus.numeric import (MlpModel, MlpSpec, _backprop, _forward_cached,
                          accuracy, cross_entropy, init_mlp, kl_divergence,
                          mlp_backward, mlp_forward, onehot_labels, sgd_step,
                          sgd_train, softmax_temp, tier_spec,
                          training_step_count)


def finite_diff_grad(model, loss_fn, step=1e-5):
    """Central finite differences over the flattened parameter vector."""
    flat = model.params.copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1, -1):
            bumped = flat.copy()
            bumped[i] += sign * step
            model.params[...] = bumped
            if sign > 0:
                plus = loss_fn(model)
            else:
                minus = loss_fn(model)
        grad[i] = (plus - minus) / (2 * step)
    model.params[...] = flat
    return grad


def zero_model(dims):
    spec = MlpSpec(dims)
    return MlpModel(spec, np.zeros(spec.param_count()))


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
        g = grads
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
        g = grads
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert rel.max() <= 1e-4

    def test_distill_zero_gradient_at_perfect_fit(self):
        rng = np.random.default_rng(13)
        m = init_mlp(MlpSpec((3, 5, 4)), rng)
        x = rng.normal(size=(7, 3))
        teacher = softmax_temp(mlp_forward(m, x), 3.0)
        loss, grads = mlp_backward(m, x, teacher_soft=teacher, temperature=3.0)
        assert abs(loss) <= 1e-10
        assert np.abs(grads).max() <= 1e-10

    def test_ce_gradient_closed_form_on_identity_net(self):
        # single linear layer, 1 sample: dW = x^T (softmax(logits) - onehot)
        m = zero_model((3, 3))
        m.weights[0][...] = np.eye(3)
        x = np.array([[0.5, -1.0, 2.0]])
        onehot = onehot_labels(np.array([2]), 3)
        _, grads = mlp_backward(m, x, onehot=onehot)
        expected = x.T @ (softmax_temp(mlp_forward(m, x), 1.0) - onehot)
        assert np.allclose(MlpModel(m.spec, grads).weights[0], expected, atol=1e-14)

    def test_requires_exactly_one_branch(self):
        m = zero_model((2, 2))
        with pytest.raises(ValidationError):
            mlp_backward(m, np.ones((1, 2)))


class TestSgdStep:
    def test_lr_zero_leaves_model_unchanged(self):
        rng = np.random.default_rng(3)
        m = init_mlp(MlpSpec((3, 4, 2)), rng)
        before = m.params.copy()
        sgd_step(m, np.ones_like(m.params), 0.0)
        assert np.array_equal(m.params, before)

    def test_scalar_arithmetic(self):
        m = zero_model((1, 1))
        m.weights[0][...] = [[1.0]]
        g = np.array([2.0, 0.0])
        sgd_step(m, g, 0.1)
        assert np.allclose(m.weights[0], [[0.8]])

    def test_two_steps_equal_summed_deltas(self):
        rng = np.random.default_rng(4)
        m1 = init_mlp(MlpSpec((3, 2)), rng)
        m2 = m1.copy()
        g1 = rng.normal(size=m1.params.shape)
        g2 = rng.normal(size=m1.params.shape)
        sgd_step(m1, g1, 0.3)
        sgd_step(m1, g2, 0.3)
        sgd_step(m2, g1 + g2, 0.3)
        assert np.allclose(m1.params, m2.params, atol=1e-15)

    def test_non_finite_gradient_rejected(self):
        m = zero_model((2, 2))
        g = np.concatenate([np.full(4, np.nan), np.zeros(2)])
        with pytest.raises(DivergenceError):
            sgd_step(m, g, 0.1)

    def test_gradient_shape_must_match_params(self):
        m = zero_model((2, 2))
        for g in (np.zeros(5), np.zeros((1, 6))):
            with pytest.raises(DimensionError):
                sgd_step(m, g, 0.1)
        assert np.array_equal(m.params, np.zeros(6))


class TestInit:
    def test_same_seed_bitwise_identical(self):
        spec = MlpSpec((5, 7, 3))
        a = init_mlp(spec, np.random.default_rng(42))
        b = init_mlp(spec, np.random.default_rng(42))
        assert np.array_equal(a.params, b.params)

    def test_different_seeds_differ(self):
        spec = MlpSpec((5, 7, 3))
        a = init_mlp(spec, np.random.default_rng(1))
        b = init_mlp(spec, np.random.default_rng(2))
        assert not np.array_equal(a.params, b.params)

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
        stack = MlpModel(models[0].spec, np.stack([m.params for m in models]))
        inputs = _forward_cached(stack, batch)
        grads = _backprop(stack, inputs, dlogits)
        before = training_step_count()
        sgd_step(stack, grads, 0.1)
        assert training_step_count() - before == 3
        for k, model in enumerate(models):
            alone = _forward_cached(model, batch[k])
            assert all(np.array_equal(s[k], a) for s, a in zip(inputs, alone))
            g = _backprop(model, alone, dlogits[k])
            assert np.array_equal(grads[k], g)
            sgd_step(model, g, 0.1)
        assert [row.tobytes() for row in stack.params] == \
            [m.params.tobytes() for m in models]

    def test_stack_needs_a_stacked_batch(self):
        a = init_mlp(MlpSpec((4, 6, 3)), np.random.default_rng(1))
        with pytest.raises(DimensionError, match="3-D"):
            _forward_cached(MlpModel(a.spec, np.stack([a.params, a.params])),
                            np.zeros((5, 4)))
        with pytest.raises(DimensionError, match="2-D"):
            mlp_forward(a, np.zeros((2, 5, 4)))


class TestFlatParams:
    def test_layers_are_views_in_wire_order(self):
        m = init_mlp(MlpSpec((3, 4, 2)), np.random.default_rng(0))
        assert np.array_equal(m.params, np.concatenate(
            [a.ravel() for w, b in zip(m.weights, m.biases) for a in (w, b)]))
        assert all(np.shares_memory(a, m.params) for a in m.weights + m.biases)
        with pytest.raises(DimensionError):
            MlpModel(m.spec, np.zeros(m.param_count() + 1))

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["deepcopy", "pickle"])
    def test_copies_keep_views_aliasing_params(self, clone):
        """A deep copy or a pickle round trip rebuilds the layer views over
        the copied vector, so a step on the copy moves its layers and leaves
        the original alone."""
        m = init_mlp(MlpSpec((3, 4, 2)), np.random.default_rng(0))
        before = m.params.copy()
        c = clone(m)
        assert not np.shares_memory(c.params, m.params)
        assert all(np.shares_memory(a, c.params) for a in c.weights + c.biases)
        w0 = c.weights[0].copy()
        sgd_step(c, np.ones_like(c.params), 0.5)
        assert np.array_equal(c.weights[0], w0 - 0.5)
        assert np.array_equal(c.biases[-1], np.full(2, -0.5))
        assert np.array_equal(m.params, before)


# --- one minibatch loop: sgd_train is the stack of one ----------------------

def _sgd_train_2d(model, features, labels, class_count, epochs, lr, batch_size, rng):
    """Oracle: minibatch cross-entropy SGD as a loop over the 2-D public
    functions, the way `sgd_train` ran before it became a stack of one."""
    onehot = onehot_labels(labels, class_count)
    n = features.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = mlp_backward(model, features[idx], onehot=onehot[idx])
            if lr > 0:
                sgd_step(model, grads, lr)


@settings(max_examples=20, deadline=None)
@given(tier=st.sampled_from(["small", "medium", "large"]),
       dims=st.tuples(st.integers(2, 7), st.integers(2, 5)),
       batch_size=st.integers(2, 9), full_batches=st.integers(0, 4),
       epochs=st.integers(0, 3), lr=st.sampled_from([0.0, 0.05, 0.5]),
       data=st.data())
def test_sgd_train_equals_2d_oracle(tier, dims, batch_size, full_batches,
                                    epochs, lr, data):
    """`sgd_train` leaves the model's own arrays bitwise where the 2-D loop
    leaves a copy, from the same rng, with a partial last minibatch, and
    counts the same steps (none at lr = 0)."""
    F, C = dims
    n = full_batches * batch_size + data.draw(st.integers(1, batch_size - 1),
                                              label="remainder")
    rng = np.random.default_rng(n)
    features, labels = rng.normal(size=(n, F)), rng.integers(0, C, size=n)
    model = init_mlp(tier_spec(tier, F, C), rng)
    oracle, arrays = model.copy(), model.weights + model.biases
    before = training_step_count()
    assert sgd_train(model, features, labels, C, epochs, lr, batch_size,
                     np.random.default_rng(7)) is None
    steps = training_step_count() - before
    before = training_step_count()
    _sgd_train_2d(oracle, features, labels, C, epochs, lr, batch_size,
                  np.random.default_rng(7))
    assert steps == training_step_count() - before \
        == (epochs * (full_batches + 1) if lr > 0 else 0)
    assert model.params.tobytes() == oracle.params.tobytes()
    assert all(a is b for a, b in zip(model.weights + model.biases, arrays))
