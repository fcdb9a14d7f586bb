import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdus.data import gen_blobs
from hdus.distill import (DistillConfig, ReferenceSet, distill_fidelity,
                          incubate_seed, incubate_seeds)
from hdus.errors import ConfigError, DimensionError, DivergenceError
from hdus.numeric import (MlpSpec, init_mlp, mlp_forward, sgd_train,
                          softmax_temp, training_step_count)
from oracles import sgd_2d


@pytest.fixture(scope="module")
def blob_task():
    """Balanced 4-class blobs, a trained teacher, and a reference set."""
    rng = np.random.default_rng(100)
    data = gen_blobs(150, 4, 6, 0.4, rng)
    split = 400
    ref = ReferenceSet(data.features[split:])
    main = init_mlp(MlpSpec((6, 32, 4)), np.random.default_rng(101))
    sgd_train(main, data.features[:split], data.labels[:split], 4,
              epochs=25, lr=0.1, batch_size=32, rng=np.random.default_rng(102))
    return main, ref


def test_self_distillation_converges(blob_task):
    main, ref = blob_task
    # same architecture, enough epochs: KL against the teacher goes below 0.01
    cfg = DistillConfig(temperature=2.0, epochs=40, lr=0.1, batch_size=32)
    seed = incubate_seed(main, MlpSpec((6, 16, 4)), ref, cfg,
                         np.random.default_rng(103))
    mean_kl, agreement = distill_fidelity(seed, main, ref, 2.0)
    assert mean_kl <= 0.01
    assert agreement >= 0.9


def test_lr_zero_returns_the_initialization():
    rng = np.random.default_rng(1)
    main = init_mlp(MlpSpec((4, 20, 3)), rng)
    ref = ReferenceSet(rng.normal(size=(50, 4)))
    cfg = DistillConfig(epochs=3, lr=0.0)
    init = init_mlp(MlpSpec((4, 8, 3)), np.random.default_rng(2))
    seed = incubate_seed(main, init.spec, ref, cfg, np.random.default_rng(3),
                         init=init)
    assert np.array_equal(seed.params, init.params)


def test_teacher_parameters_bitwise_unchanged(blob_task):
    main, ref = blob_task
    before = main.params.copy()
    incubate_seed(main, MlpSpec((6, 8, 4)), ref, DistillConfig(epochs=2),
                  np.random.default_rng(5))
    assert np.array_equal(main.params, before)


def test_incubation_reads_only_reference_features(blob_task):
    """Data-flow isolation: the result cannot depend on local labels because
    they are not an input; permuting them changes nothing."""
    main, ref = blob_task
    cfg = DistillConfig(epochs=3)
    a = incubate_seed(main, MlpSpec((6, 8, 4)), ref, cfg, np.random.default_rng(6))
    # "permute the labels": labels simply do not flow into incubation
    b = incubate_seed(main, MlpSpec((6, 8, 4)), ref, cfg, np.random.default_rng(6))
    assert np.array_equal(a.params, b.params)


def test_deterministic_given_seed(blob_task):
    main, ref = blob_task
    cfg = DistillConfig(epochs=2)
    a = incubate_seed(main, MlpSpec((6, 8, 4)), ref, cfg, np.random.default_rng(9))
    b = incubate_seed(main, MlpSpec((6, 8, 4)), ref, cfg, np.random.default_rng(9))
    c = incubate_seed(main, MlpSpec((6, 8, 4)), ref, cfg, np.random.default_rng(10))
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_dimension_mismatch_rejected(blob_task):
    main, ref = blob_task
    with pytest.raises(ConfigError):
        incubate_seed(main, MlpSpec((7, 8, 4)), ref, DistillConfig(),
                      np.random.default_rng(0))
    with pytest.raises(ConfigError):
        incubate_seed(main, MlpSpec((6, 8, 5)), ref, DistillConfig(),
                      np.random.default_rng(0))


def test_seed_larger_than_main_rejected(blob_task):
    main, ref = blob_task
    with pytest.raises(ConfigError):
        incubate_seed(main, MlpSpec((6, 512, 4)), ref, DistillConfig(),
                      np.random.default_rng(0))


def test_fidelity_identity(blob_task):
    main, ref = blob_task
    mean_kl, agreement = distill_fidelity(main, main, ref, 3.0)
    assert mean_kl <= 1e-12
    assert agreement == 1.0


def test_fidelity_empty_reference_rejected(blob_task):
    main, _ = blob_task
    with pytest.raises(DimensionError, match=r"^features must be non-empty 2-D"):
        distill_fidelity(main, main, ReferenceSet(np.empty((0, 6))), 1.0)


def test_untrained_seed_agreement_near_chance(blob_task):
    main, ref = blob_task
    seed = init_mlp(MlpSpec((6, 8, 4)), np.random.default_rng(77))
    _, agreement = distill_fidelity(seed, main, ref, 1.0)
    assert abs(agreement - 0.25) <= 0.15


def test_fidelity_improves_along_checkpoints(blob_task):
    """KL to the teacher is non-increasing across training checkpoints."""
    main, ref = blob_task
    cfg = DistillConfig(temperature=2.0, epochs=5, lr=0.1)
    rng = np.random.default_rng(8)
    seed = None
    kls = []
    for _ in range(3):
        seed = incubate_seed(main, MlpSpec((6, 16, 4)), ref, cfg, rng, init=seed)
        kls.append(distill_fidelity(seed, main, ref, 2.0)[0])
    assert kls[1] <= kls[0] and kls[2] <= kls[1]


def test_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        DistillConfig(epochs=0)
    with pytest.raises(ConfigError):
        DistillConfig(batch_size=0)
    for name, key in (("temperature", "temperature"), ("lr", "incubate_lr")):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
                DistillConfig(**{name: value})


def test_init_spec_must_match_seed_spec(blob_task):
    main, ref = blob_task
    init = init_mlp(MlpSpec((6, 8, 4)), np.random.default_rng(1))
    with pytest.raises(ConfigError, match="init spec"):
        incubate_seed(main, MlpSpec((6, 16, 4)), ref, DistillConfig(),
                      np.random.default_rng(0), init=init)


# --- one stack for many clients ---------------------------------------------

def _incubate_2d(main, seed_spec, ref, cfg, rng, init=None):
    """Oracle: one client's incubation as the 2-D loop `sgd_2d`, the way it
    ran before incubation was stacked."""
    seed = init.copy() if init is not None else init_mlp(seed_spec, rng)
    targets = softmax_temp(mlp_forward(main, ref.features), cfg.temperature)
    return sgd_2d(seed, ref.features, targets, cfg.temperature, cfg.epochs,
                  cfg.lr, cfg.batch_size, rng)


def _bits(model):
    return model.params.tobytes()


_MAIN_DIMS = [(5, 12, 3), (5, 8, 6, 3), (5, 16, 3)]   # heterogeneous mains
_SEED_SPEC = MlpSpec((5, 4, 3))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 6), warm=st.booleans(), epochs=st.integers(1, 3),
       cadence=st.integers(1, 3), data=st.data())
def test_stacked_incubation_equals_alone(n, warm, epochs, cadence, data):
    """Over three rounds of main training, with incubation on the cadence and
    warm-started from the previous seed: every seed of the stack is bitwise
    the seed that client gets alone (and in the 2-D oracle loop), removing
    any client from the stack leaves the others bitwise unchanged, and the
    step counter advances by one per client per minibatch either way."""
    drop = data.draw(st.integers(0, n - 1), label="drop")
    mains = [init_mlp(MlpSpec(_MAIN_DIMS[k % 3]), np.random.default_rng(k))
             for k in range(n)]
    ref = ReferenceSet(np.random.default_rng(50).normal(size=(37, 5)))
    cfg = DistillConfig(temperature=2.0, epochs=epochs, lr=0.1, batch_size=8)
    labeled = np.random.default_rng(51).normal(size=(24, 5))
    labels = np.arange(24) % 3
    main_rngs = [np.random.default_rng(500 + k) for k in range(n)]

    def streams():
        return [np.random.default_rng(1000 + k) for k in range(n)]
    rng_stack, rng_alone, rng_oracle, rng_drop = streams(), streams(), streams(), streams()
    first = [init_mlp(_SEED_SPEC, np.random.default_rng(2000 + k)) if warm else None
             for k in range(n)]
    stacked, alone, oracle, dropped = list(first), list(first), list(first), list(first)
    kept = [k for k in range(n) if k != drop]
    for r in range(3):
        for main, rng in zip(mains, main_rngs):
            sgd_train(main, labeled, labels, 3, 1, 0.05, 8, rng)
        if r % cadence:
            continue
        before = training_step_count()
        stacked = incubate_seeds(mains, _SEED_SPEC, ref, cfg, rng_stack, stacked)
        stack_steps = training_step_count() - before
        before = training_step_count()
        alone = [incubate_seed(mains[k], _SEED_SPEC, ref, cfg, rng_alone[k],
                               init=alone[k]) for k in range(n)]
        assert stack_steps == training_step_count() - before \
            == n * epochs * -(-len(ref) // cfg.batch_size)
        oracle = [_incubate_2d(mains[k], _SEED_SPEC, ref, cfg, rng_oracle[k],
                               init=oracle[k]) for k in range(n)]
        part = incubate_seeds([mains[k] for k in kept], _SEED_SPEC, ref, cfg,
                              [rng_drop[k] for k in kept], [dropped[k] for k in kept])
        for k, seed in zip(kept, part):
            dropped[k] = seed
        for k in range(n):
            assert _bits(stacked[k]) == _bits(alone[k]) == _bits(oracle[k])
            assert stacked[k].spec == _SEED_SPEC
        for k in kept:
            assert _bits(dropped[k]) == _bits(stacked[k])


def test_stacked_incubation_leaves_inits_and_mains_untouched(blob_task):
    main, ref = blob_task
    spec = MlpSpec((6, 8, 4))
    inits = [init_mlp(spec, np.random.default_rng(k)) for k in range(3)]
    init_bits = [_bits(m) for m in inits]
    main_bits = _bits(main)
    seeds = incubate_seeds([main] * 3, spec, ref, DistillConfig(epochs=1),
                           [np.random.default_rng(k) for k in range(3)], inits)
    assert [_bits(m) for m in inits] == init_bits
    assert _bits(main) == main_bits
    assert all(s is not i for s, i in zip(seeds, inits))
    assert incubate_seeds([], spec, ref, DistillConfig(), [], []) == []


def _poisoned(model):
    model = model.copy()
    model.weights[0][0, 0] = np.inf
    return model


def test_stacked_divergence_names_lowest_position(blob_task):
    """Incubation stops at the first failing check, and `index` is the
    lowest position at fault there: every teacher is checked before any
    draw or step, then each step checks every seed."""
    main, ref = blob_task
    spec = MlpSpec((6, 8, 4))
    cfg = DistillConfig(epochs=2)

    def run(mains, inits):
        return incubate_seeds(mains, spec, ref, cfg,
                              [np.random.default_rng(k) for k in range(len(mains))],
                              inits)

    # a teacher holding an inf weight: its targets are not finite, and the
    # warm start poisoned at position 1 never takes a step
    good = init_mlp(spec, np.random.default_rng(9))
    steps = training_step_count()
    with pytest.raises(DivergenceError, match="^non-finite teacher output$") as e:
        run([main, main, _poisoned(main), main], [good, _poisoned(good), good, None])
    assert e.value.index == 2
    assert training_step_count() == steps
    # with every teacher finite, warm starts holding an inf weight at 1 and 3
    # both diverge at the first step, and the lower is named
    with pytest.raises(DivergenceError, match="^non-finite student output at epoch 0$") as e:
        run([main] * 4, [good, _poisoned(good), good, _poisoned(good)])
    assert e.value.index == 1
    assert training_step_count() == steps
    # alone, the error is the same, at position 0
    with pytest.raises(DivergenceError, match="^non-finite teacher output$") as e:
        incubate_seed(_poisoned(main), spec, ref, cfg, np.random.default_rng(0))
    assert e.value.index == 0


def test_incubate_seeds_rejects_mismatched_lists(blob_task):
    """One generator and one init (or None) per main, checked before any
    draw: `zip` would otherwise drop the extras and return fewer seeds."""
    main, ref = blob_task
    spec = MlpSpec((6, 8, 4))
    cfg = DistillConfig(epochs=1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for mains, rngs, inits in (([main, main], [rng], [None, None]),
                               ([main, main], [rng, rng], [None]),
                               ([main], [rng, rng], [None])):
        with pytest.raises(ConfigError, match=f"got {len(mains)} mains, {len(rngs)} "
                                              f"rngs and {len(inits)} inits$"):
            incubate_seeds(mains, spec, ref, cfg, rngs, inits)
    assert rng.bit_generator.state == state


def test_incubate_seeds_rejects_a_reference_of_another_width(blob_task):
    main, _ = blob_task
    ref = ReferenceSet(np.zeros((8, 5)))
    with pytest.raises(ConfigError, match="^reference feature dim 5 != 6$"):
        incubate_seeds([main], MlpSpec((6, 8, 4)), ref, DistillConfig(),
                       [np.random.default_rng(0)], [None])
