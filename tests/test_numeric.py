import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdus.numeric
from hdus.errors import (DimensionError, DivergenceError, DomainError,
                         ValidationError)
from hdus.numeric import (MlpModel, MlpSpec, _backprop, _layers, _train_stack,
                          accuracy,
                          init_mlp, kl_divergence, mlp_backward, mlp_forward,
                          onehot_labels, sgd_step, sgd_train, softmax_temp,
                          tier_spec, training_step_count)
from oracles import central_differences, sgd_2d


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

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 950, 1000])
    @pytest.mark.parametrize("tier", ["small", "large"])
    def test_row_blocks(self, tier, rows):
        """A batch of more than 32 rows runs as zero-padded blocks of 32:
        bitwise the unblocked layer loop on each block, and on every row of
        a full block the loop on the whole batch; a row's logits do not
        depend on the batch around it. The batch, writable or not, is never
        written."""
        def unblocked(x):
            for i, (w, b) in enumerate(zip(m.weights, m.biases)):
                x = x @ w + b
                if i < len(m.weights) - 1:
                    x = np.maximum(x, 0.0)
            return x

        rng = np.random.default_rng(rows)
        m = init_mlp(tier_spec(tier, 20, 10), rng)
        for b in m.biases:
            b[...] = rng.normal(size=b.shape)
        x = rng.normal(size=(rows, 20))
        before = x.copy()
        out = mlp_forward(m, x)
        assert np.array_equal(x, before)
        if rows <= 32:
            per_block = unblocked(x)
        else:
            padded = np.zeros((-(-rows // 32) * 32, 20))
            padded[:rows] = x
            per_block = np.concatenate([unblocked(blk) for blk in
                                        np.split(padded, len(padded) // 32)])[:rows]
        assert out.shape == (rows, 10) and out.tobytes() == per_block.tobytes()
        whole = unblocked(x)
        full = rows // 32 * 32 or rows
        assert out[:full].tobytes() == whole[:full].tobytes()
        assert np.allclose(out, whole, rtol=1e-12, atol=1e-12)
        x.flags.writeable = False
        assert mlp_forward(m, x).tobytes() == out.tobytes()
        if rows > 32:
            perm = rng.permutation(rows)[:33]
            assert mlp_forward(m, x[perm]).tobytes() == out[perm].tobytes()


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

    def test_nan_temperature_rejected(self):
        with pytest.raises(DomainError):
            softmax_temp(np.array([1.0, 2.0]), np.nan)

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

    @pytest.mark.parametrize("t", [1.0, 3.0])
    @pytest.mark.parametrize("shape", [(10,), (40, 10), (3, 7, 10)])
    def test_bits_of_the_written_out_ops(self, shape, t):
        """Every output digest rests on these bits: divide by T unless T is 1,
        subtract the row max, exp, then divide by the row sum."""
        d = np.random.default_rng(10).normal(scale=5, size=shape)
        z = d / t if t != 1.0 else d
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        want = e / e.sum(axis=-1, keepdims=True)
        assert softmax_temp(d, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_input_is_never_written(self, t):
        d = np.random.default_rng(9).normal(scale=5, size=(40, 10))
        before = d.copy()
        p = softmax_temp(d, t)
        assert np.array_equal(d, before) and not np.shares_memory(p, d)
        d.flags.writeable = False
        assert softmax_temp(d, t).tobytes() == p.tobytes()


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

    def test_zero_entries_in_q_give_inf(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_exact_values(self):
        """No clamp: a tiny q counts in full, and 0 ln 0 = 0 raises no
        warning."""
        assert kl_divergence([1.0, 0.0], [1e-20, 1 - 1e-20]) == np.log(1e20)
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == np.log(2.0)
        assert kl_divergence([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]) == 0.0

    def test_entries_must_be_nonnegative(self):
        """Rows that sum to 1 but hold a negative entry, or a NaN, are not
        distributions."""
        for p, q in (([1.5, -0.5], [0.5, 0.5]), ([0.5, 0.5], [1.5, -0.5]),
                     ([np.nan, 1.0], [0.5, 0.5])):
            with pytest.raises(DomainError):
                kl_divergence(p, q)

    def test_rows_give_the_mean_of_row_values(self):
        rng = np.random.default_rng(6)
        p, q = rng.dirichlet(np.ones(4), size=7), rng.dirichlet(np.ones(4), size=7)
        rows = [kl_divergence(a, b) for a, b in zip(p, q)]
        assert abs(kl_divergence(p, q) - np.mean(rows)) < 1e-14

    def test_row_count_mismatch(self):
        p = np.full((3, 2), 0.5)
        with pytest.raises(DimensionError):
            kl_divergence(p, p[:2])

    def test_each_row_must_sum_to_one(self):
        with pytest.raises(DomainError):
            kl_divergence([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.25, 0.5]])

    def test_no_rows_is_a_domain_error(self):
        """Zero rows hold no distribution: a DomainError, not numpy's
        empty-mean warning and a NaN."""
        with pytest.raises(DomainError, match="^no distributions to compare"):
            kl_divergence(np.zeros((0, 2)), np.zeros((0, 2)))


def ce_loss(logits, onehot):
    """Cross-entropy as `mlp_backward` returns it: an identity net's logits
    are its batch."""
    m = zero_model((logits.shape[1],) * 2)
    m.weights[0][...] = np.eye(logits.shape[1])
    return mlp_backward(m, logits, onehot, 1.0)[0]


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        onehot = onehot_labels(np.array([0, 3, 5, 9]), 10)
        assert abs(ce_loss(logits, onehot) - np.log(10)) < 1e-12

    def test_saturated_logits(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        onehot = onehot_labels(np.array([1, 2]), 4)
        assert ce_loss(logits, onehot) < 1e-9

    def test_two_class_hand_batch(self):
        # independent scalar oracle for each row
        logits = np.array([[1.0, 0.0], [0.0, 2.0]])
        onehot = onehot_labels(np.array([0, 1]), 2)
        row0 = -np.log(np.exp(1.0) / (np.exp(1.0) + 1.0))
        row1 = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        assert abs(ce_loss(logits, onehot) - (row0 + row1) / 2) < 1e-14


class TestBackward:
    def test_ce_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        m = init_mlp(MlpSpec((4, 8, 3)), rng)
        x = rng.normal(size=(6, 4))
        onehot = onehot_labels(rng.integers(0, 3, size=6), 3)
        loss, grads = mlp_backward(m, x, onehot, 1.0)
        fd = central_differences(m, lambda mm: mlp_backward(mm, x, onehot, 1.0)[0])
        g = grads
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert rel.max() <= 1e-4
        true = softmax_temp(mlp_forward(m, x), 1.0)[onehot == 1]
        assert abs(loss - -np.log(true).mean()) < 1e-12

    def test_distill_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        m = init_mlp(MlpSpec((4, 8, 3)), rng)
        x = rng.normal(size=(5, 4))
        teacher = softmax_temp(rng.normal(size=(5, 3)), 2.5)
        _, grads = mlp_backward(m, x, teacher, 2.5)
        fd = central_differences(m, lambda mm: mlp_backward(mm, x, teacher, 2.5)[0])
        g = grads
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert rel.max() <= 1e-4

    def test_distill_zero_gradient_at_perfect_fit(self):
        rng = np.random.default_rng(13)
        m = init_mlp(MlpSpec((3, 5, 4)), rng)
        x = rng.normal(size=(7, 3))
        teacher = softmax_temp(mlp_forward(m, x), 3.0)
        loss, grads = mlp_backward(m, x, teacher, 3.0)
        assert abs(loss) <= 1e-10
        assert np.abs(grads).max() <= 1e-10

    def test_ce_gradient_closed_form_on_identity_net(self):
        # single linear layer, 1 sample: dW = x^T (softmax(logits) - onehot)
        m = zero_model((3, 3))
        m.weights[0][...] = np.eye(3)
        x = np.array([[0.5, -1.0, 2.0]])
        onehot = onehot_labels(np.array([2]), 3)
        _, grads = mlp_backward(m, x, onehot, 1.0)
        expected = x.T @ (softmax_temp(mlp_forward(m, x), 1.0) - onehot)
        assert np.allclose(MlpModel(m.spec, grads).weights[0], expected, atol=1e-14)

    def test_loss_is_exact_where_a_probability_underflows(self):
        """Logits [0, -50] toward class 1: the loss is 50, not capped where
        the probability underflows a clamp, and its central differences are
        the returned gradient."""
        m = zero_model((2, 2))
        m.weights[0][...] = np.eye(2)
        x = np.array([[0.0, -50.0]])
        onehot = onehot_labels(np.array([1]), 2)
        loss, grads = mlp_backward(m, x, onehot, 1.0)
        assert loss == 50.0
        fd = central_differences(m, lambda mm: mlp_backward(mm, x, onehot, 1.0)[0])
        assert np.allclose(MlpModel(m.spec, fd).biases[0], [1.0, -1.0], atol=1e-6)
        rel = np.abs(grads - fd) / np.maximum(1e-8, np.abs(grads) + np.abs(fd))
        assert rel.max() <= 1e-4

    def test_loss_bound_at_large_gaps(self):
        """The loss is exact while the target's softened probability stays
        normal, and +inf once it underflows to 0; the gradient is
        softmax - onehot at every gap."""
        m = zero_model((2, 2))
        m.weights[0][...] = np.eye(2)
        onehot = onehot_labels(np.array([1]), 2)
        for gap, want in ((700.0, 700.0), (708.0, 708.0), (800.0, np.inf)):
            loss, grads = mlp_backward(m, np.array([[0.0, -gap]]), onehot, 1.0)
            assert loss == want
            assert np.array_equal(MlpModel(m.spec, grads).biases[0], [1.0, -1.0])
        loss, _ = mlp_backward(m, np.array([[0.0, -720.0]]), onehot, 1.0)
        assert abs(loss - 720.0) < 1e-11

    def test_target_rows_must_sum_to_one(self):
        m = zero_model((2, 2))
        with pytest.raises(DomainError):
            mlp_backward(m, np.ones((1, 2)), np.array([[0.5, 0.6]]), 1.0)

    def test_target_entries_must_be_nonnegative(self):
        m = zero_model((2, 2))
        with pytest.raises(DomainError):
            mlp_backward(m, np.ones((1, 2)), np.array([[1.5, -0.5]]), 1.0)


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

    def test_nan_learning_rate_rejected(self):
        m = zero_model((2, 2))
        with pytest.raises(DomainError):
            sgd_step(m, np.ones(6), np.nan)
        assert np.array_equal(m.params, np.zeros(6))

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

    def test_logits_must_be_2d(self):
        with pytest.raises(DimensionError, match="^logits must be 2-D"):
            accuracy(np.zeros(3), np.zeros(3, dtype=int))

    def test_labels_must_be_classes(self):
        """A label no logit column stands for is an error, not a miss."""
        with pytest.raises(DomainError, match=r"^labels must lie in \[0, 3\)"):
            accuracy(np.zeros((2, 3)), np.array([5, 7]))

    def test_one_label_per_row(self):
        with pytest.raises(DimensionError, match="^2 logit rows vs 3 labels$"):
            accuracy(np.zeros((2, 3)), np.array([0, 1, 2]))

    def test_labels_must_be_integers(self):
        """Float labels are an error, not compared with the argmax as floats
        (0.5 never matched and 1.0 matched: the accuracy read 0.5)."""
        with pytest.raises(DomainError, match="^labels must be integers, got dtype float64$"):
            accuracy(np.eye(2), np.array([0.5, 1.0]))


def test_onehot_labels_must_be_classes():
    assert onehot_labels(np.array([2, 0]), 3).tolist() == [[0, 0, 1], [1, 0, 0]]
    for bad in ([-1], [3], [0, 5]):
        with pytest.raises(DomainError):
            onehot_labels(np.array(bad), 3)


def test_onehot_labels_must_be_integers():
    """Integral floats are not classes either: indexing with them raised
    numpy's IndexError. Any integer dtype passes."""
    with pytest.raises(DomainError, match="^labels must be integers, got dtype float64$"):
        onehot_labels(np.array([0.0, 1.0]), 3)
    for dtype in (np.uint8, np.int32, np.int64):
        assert onehot_labels(np.array([1], dtype=dtype), np.int64(2)).tolist() == [[0, 1]]


def test_onehot_labels_must_be_1d():
    """A 2-D label array is not a row of labels: one-hot encoding it would
    put two ones in one row."""
    with pytest.raises(DimensionError, match="^labels must be 1-D"):
        onehot_labels(np.array([[0, 1]]), 3)


def test_tier_spec_names_a_known_tier():
    assert tier_spec("small", 6, 5) == MlpSpec((6, 16, 5))
    with pytest.raises(ValidationError, match="^unknown model tier 'huge'$"):
        tier_spec("huge", 6, 5)


def test_models_compare_by_identity():
    """Two models are equal only if they are one object, so comparing,
    searching a list and hashing work without comparing arrays."""
    m = init_mlp(MlpSpec((3, 4, 2)), np.random.default_rng(0))
    c = m.copy()
    assert m == m and m != c
    assert m in [c, m] and m not in [c]
    assert [c, m].index(m) == 1
    assert len({m, c, m}) == 2


def test_spec_validation():
    with pytest.raises(ValidationError):
        MlpSpec((5,))
    with pytest.raises(ValidationError):
        MlpSpec((5, 0, 2))
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
        inputs = _layers(stack, batch)
        grads = _backprop(stack, inputs, dlogits,
                          MlpModel(stack.spec, np.empty(stack.params.shape)))
        before = training_step_count()
        sgd_step(stack, grads, 0.1)
        assert training_step_count() - before == 3
        for k, model in enumerate(models):
            alone = _layers(model, batch[k])
            assert all(np.array_equal(s[k], a) for s, a in zip(inputs, alone))
            g = _backprop(model, alone, dlogits[k],
                          MlpModel(model.spec, np.empty(model.params.shape)))
            assert np.array_equal(grads[k], g)
            sgd_step(model, g, 0.1)
        assert [row.tobytes() for row in stack.params] == \
            [m.params.tobytes() for m in models]

    def test_stack_needs_a_stacked_batch(self):
        a = init_mlp(MlpSpec((4, 6, 3)), np.random.default_rng(1))
        with pytest.raises(DimensionError, match="3-D"):
            mlp_forward(MlpModel(a.spec, np.stack([a.params, a.params])),
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
            MlpModel(m.spec, np.zeros(m.spec.param_count() + 1))

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["deepcopy", "pickle"])
    def test_copies_keep_views_aliasing_params(self, clone):
        """A deep copy or a pickle round trip rebuilds the layer views over
        the copied vector, so a step on the copy moves its layers and leaves
        the original alone; a read-only model's copy is read-only."""
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
        frozen = m.params.copy()
        frozen.flags.writeable = False
        r = clone(MlpModel(m.spec, frozen))
        assert not np.shares_memory(r.params, frozen)
        assert not any(a.flags.writeable for a in [r.params, *r.weights, *r.biases])


# --- one minibatch loop: sgd_train is the stack of one ----------------------

@settings(max_examples=20, deadline=None)
@given(tier=st.sampled_from(["small", "medium", "large"]),
       dims=st.tuples(st.integers(2, 7), st.integers(2, 5)),
       batch_size=st.integers(2, 9), full_batches=st.integers(0, 4),
       epochs=st.integers(0, 3), lr=st.sampled_from([0.0, 0.05, 0.5]),
       data=st.data())
def test_sgd_train_equals_2d_oracle(tier, dims, batch_size, full_batches,
                                    epochs, lr, data):
    """`sgd_train` leaves the model's own arrays bitwise where the 2-D loop
    `sgd_2d` leaves a copy, from the same rng, with a partial last minibatch, and
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
    sgd_2d(oracle, features, onehot_labels(labels, C), 1.0, epochs, lr,
           batch_size, np.random.default_rng(7))
    assert steps == training_step_count() - before \
        == (epochs * (full_batches + 1) if lr > 0 else 0)
    assert model.params.tobytes() == oracle.params.tobytes()
    assert all(a is b for a, b in zip(model.weights + model.biases, arrays))


def test_sgd_train_needs_one_label_per_row():
    """Labels and feature rows are counted against each other once per call,
    before any step, not found short in the middle of an epoch."""
    model = init_mlp(MlpSpec((3, 4, 2)), np.random.default_rng(0))
    before = model.params.copy()
    with pytest.raises(DimensionError, match="targets shape"):
        sgd_train(model, np.zeros((10, 3)), np.zeros(5, dtype=int), 2, 1, 0.1, 4,
                  np.random.default_rng(1))
    assert np.array_equal(model.params, before)


def test_oracle_names_are_not_exported():
    """The test oracles and the step counter are read from `hdus.numeric`;
    the package does not export them."""
    for name in ("mlp_backward", "sgd_step", "training_step_count"):
        assert not hasattr(hdus, name) and hasattr(hdus.numeric, name)


@pytest.mark.parametrize("name,value", [("epochs", 1.5), ("batch_size", 2.5),
                                        ("epochs", 2.0)])
def test_epochs_and_batch_size_must_be_integers(name, value):
    """A float epoch count or batch size is a DomainError before any step,
    not `range`'s TypeError; numpy ints train as Python ints do."""
    x = np.random.default_rng(1).normal(size=(10, 3))
    labels = np.arange(10) % 2
    model = init_mlp(MlpSpec((3, 4, 2)), np.random.default_rng(0))
    before = model.params.copy()
    args = {"epochs": 2, "batch_size": 4, name: value}
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value}$"):
        sgd_train(model, x, labels, 2, args["epochs"], 0.1, args["batch_size"],
                  np.random.default_rng(2))
    assert np.array_equal(model.params, before)
    a, b = model.copy(), model.copy()
    sgd_train(a, x, labels, 2, 2, 0.1, 4, np.random.default_rng(2))
    sgd_train(b, x, labels, 2, np.int64(2), 0.1, np.int32(4), np.random.default_rng(2))
    assert a.params.tobytes() == b.params.tobytes()


def test_a_non_finite_gradient_stops_training():
    """A finite student output can still give an overflowing gradient: at
    T = 3, hidden activations of 1.6e308 over tiny output weights give
    logits of 0.48, and the hidden activations times the batch's summed
    logit gradient overflow. The step is refused, naming the slice, and no
    slice trains."""
    spec = MlpSpec((2, 3, 2))
    stack = MlpModel(spec, np.stack([init_mlp(spec, np.random.default_rng(0)).params,
                                     np.zeros(spec.param_count())]))
    stack.weights[0][1] = 8e307
    stack.weights[1][1] = 1e-309
    before = stack.params.copy()
    targets = np.tile([0.0, 1.0], (2, 32, 1))
    with pytest.raises(DivergenceError,
                       match="^non-finite gradient entry at epoch 0$") as e:
        _train_stack(stack, np.ones((2, 32, 2)), targets, 3.0, 1, 0.1, 32,
                     [np.random.default_rng(k) for k in range(2)])
    assert e.value.index == 1
    assert stack.params.tobytes() == before.tobytes()
